// Tests for the control-plane retry/backoff primitives (protocol/retry.hpp):
// schedule determinism, jitter bounds, budget exhaustion, deadline
// monotonicity, the answer-latency estimator, and thread-invariance of
// the reliable protocols that consume them.
#include "protocol/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "sim/replicator.hpp"

namespace pbl::protocol {
namespace {

/// Chaos runs (CI) perturb the seeds via PBL_CHAOS_SEED; the properties
/// below must hold for every seed, so the offset widens coverage without
/// making any single run flaky.
std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

TEST(RetryConfig, ValidatesFields) {
  RetryConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.session_deadline = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Backoff, ScheduleIsDeterministicPerSeed) {
  RetryConfig cfg;
  cfg.max_retries = 12;
  const std::uint64_t seed = chaos_seed(17);
  Backoff a(cfg, Rng(seed));
  Backoff b(cfg, Rng(seed));
  for (std::size_t i = 0; i < cfg.max_retries; ++i) {
    ASSERT_FALSE(a.exhausted());
    EXPECT_DOUBLE_EQ(a.next(), b.next()) << "draw " << i;
  }
  // A different seed produces a different schedule (jitter > 0).
  Backoff c(cfg, Rng(seed + 1));
  Backoff d(cfg, Rng(seed));
  bool any_diff = false;
  for (std::size_t i = 0; i < cfg.max_retries; ++i)
    any_diff = any_diff || c.next() != d.next();
  EXPECT_TRUE(any_diff);
}

TEST(Backoff, DelaysStayWithinJitterBand) {
  RetryConfig cfg;
  cfg.max_retries = 16;
  Backoff bo(cfg, Rng(chaos_seed(3)));
  for (std::size_t i = 0; i < cfg.max_retries; ++i) {
    const double base =
        std::min(kMaxBackoff,
                 kInitialBackoff * std::pow(kBackoffMultiplier,
                                            static_cast<double>(i)));
    const double d = bo.next();
    EXPECT_GE(d, base * (1.0 - kBackoffJitter)) << "draw " << i;
    EXPECT_LE(d, base * (1.0 + kBackoffJitter)) << "draw " << i;
  }
}

TEST(Backoff, ReproducesExactGeometricCappedSchedule) {
  // The schedule at the constants: 50 ms doubling to a 400 ms ceiling,
  // each delay scaled by the jitter draw of the same seeded Rng.
  RetryConfig cfg;
  cfg.max_retries = 6;
  Backoff bo(cfg, Rng(99));
  Rng draws(99);
  const double base[] = {0.05, 0.1, 0.2, 0.4, 0.4, 0.4};
  for (double b : base) {
    const double scale = 1.0 + kBackoffJitter * (2.0 * draws.uniform() - 1.0);
    EXPECT_DOUBLE_EQ(bo.next(), b * scale);
  }
}

TEST(Backoff, ExhaustionThrowsAndResetRestores) {
  RetryConfig cfg;
  cfg.max_retries = 3;
  Backoff bo(cfg, Rng(chaos_seed(5)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(bo.exhausted());
    bo.next();
  }
  EXPECT_TRUE(bo.exhausted());
  EXPECT_EQ(bo.attempts(), 3u);
  EXPECT_THROW(bo.next(), std::logic_error);
  bo.reset();
  EXPECT_FALSE(bo.exhausted());
  EXPECT_NO_THROW(bo.next());
}

TEST(Backoff, RejectsInvalidConfig) {
  RetryConfig cfg;
  cfg.session_deadline = -1.0;
  EXPECT_THROW(Backoff(cfg, Rng(1)), std::invalid_argument);
}

TEST(Deadline, UnboundedNeverExpires) {
  const Deadline d(100.0, 0.0);
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired(1e12));
  EXPECT_TRUE(std::isinf(d.remaining(1e12)));
}

TEST(Deadline, ExpiryIsMonotoneInTime) {
  const Deadline d(10.0, 2.5);
  EXPECT_TRUE(d.bounded());
  EXPECT_DOUBLE_EQ(d.expires_at(), 12.5);
  bool was_expired = false;
  for (double now = 10.0; now <= 15.0; now += 0.1) {
    const bool e = d.expired(now);
    EXPECT_TRUE(!was_expired || e) << "deadline un-expired at " << now;
    was_expired = e;
    EXPECT_GE(d.remaining(now), 0.0);
  }
  EXPECT_TRUE(was_expired);
  EXPECT_DOUBLE_EQ(d.remaining(14.0), 0.0);
  EXPECT_DOUBLE_EQ(d.remaining(11.0), 1.5);
}

TEST(RttEstimator, TimeoutFollowsAnswerLatencyAboveItsFloor) {
  constexpr double kFloor = 0.002;
  constexpr double kCeiling = 1.0;  // far above every sample here
  RttEstimator est;
  EXPECT_TRUE(est.empty());
  EXPECT_DOUBLE_EQ(est.timeout(kFloor, kCeiling), kFloor);  // nothing measured yet
  // RFC 6298 initialisation: SRTT = R, RTTVAR = R / 2.
  est.sample(0.0001);
  EXPECT_DOUBLE_EQ(est.srtt(), 0.0001);
  EXPECT_DOUBLE_EQ(est.rttvar(), 0.00005);

  // Answers far faster than the floor: the timeout rests on the floor.
  for (int i = 0; i < 50; ++i) {
    est.sample(0.0001);
    EXPECT_DOUBLE_EQ(est.timeout(kFloor, kCeiling), kFloor) << "sample " << i;
  }
  // Answers slow to 5 ms: the timeout rises above the floor at once and
  // keeps covering the new latency while SRTT converges on it.
  for (int i = 0; i < 30; ++i) {
    est.sample(0.005);
    EXPECT_GT(est.timeout(kFloor, kCeiling), 0.005) << "slow sample " << i;
  }
  EXPECT_NEAR(est.srtt(), 0.005, 0.0005);
  // Fast again: it comes back down, and never below its floor.
  for (int i = 0; i < 60; ++i) {
    est.sample(0.0001);
    EXPECT_GE(est.timeout(kFloor, kCeiling), kFloor) << "recovery sample " << i;
  }
  EXPECT_DOUBLE_EQ(est.timeout(kFloor, kCeiling), kFloor);
  EXPECT_LT(est.srtt() + 4.0 * est.rttvar(), kFloor);
}

TEST(RttEstimator, AnswersJustBeforeTheTimeoutCannotRaiseItPastTheCeiling) {
  // Three prompt answers and one that lands just before the timeout, per
  // round: each late sample is the largest yet, so SRTT + 4·RTTVAR grows
  // round on round.  The ceiling holds the timeout, and so the round.
  constexpr double kFloor = 0.002;
  constexpr double kCeiling = 0.05;
  RttEstimator est;
  double timeout = est.timeout(kFloor, kCeiling);
  double previous = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) est.sample(0.0);
    est.sample(timeout * 0.999);
    previous = timeout;
    timeout = est.timeout(kFloor, kCeiling);
    EXPECT_LE(timeout, kCeiling) << "round " << round;
    EXPECT_GE(timeout, previous) << "round " << round;
  }
  EXPECT_DOUBLE_EQ(timeout, kCeiling);  // pinned there, not past it
  EXPECT_GT(est.srtt() + 4.0 * est.rttvar(), kCeiling);
}

TEST(RetryClock, IsMonotonic) {
  double prev = steady_clock().now();
  for (int i = 0; i < 100; ++i) {
    const double now = steady_clock().now();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(PartialDeliveryReport, CompletionFractionCountsPairs) {
  PartialDeliveryReport r;
  EXPECT_DOUBLE_EQ(r.completion_fraction(), 0.0);
  r.complete = true;
  EXPECT_DOUBLE_EQ(r.completion_fraction(), 1.0);
  r.complete = false;
  r.delivered = {{true, false}, {true, true}};
  EXPECT_DOUBLE_EQ(r.completion_fraction(), 0.75);
  EXPECT_NE(r.summary().find("partial"), std::string::npos);
}

/// A reliable-control NP session's whole retry/backoff schedule must be a
/// pure function of the seed: replications run on 1 and 4 threads (and
/// in any order) must produce bit-identical statistics.
TEST(ReliableControl, BackoffScheduleIsThreadInvariant) {
  const std::uint64_t seed = chaos_seed(2026);
  const auto run_one = [](std::uint64_t /*rep*/, Rng& rng) {
    loss::BernoulliLossModel model(0.05);
    NpConfig cfg;
    cfg.k = 4;
    cfg.h = 32;
    cfg.packet_len = 32;
    cfg.reliable_control = true;
    cfg.impairment.control_drop = 0.1;
    cfg.impairment.seed = rng();
    NpSession session(model, 4, 2, cfg, rng());
    const auto stats = session.run();
    return stats.completion_time +
           static_cast<double>(stats.sender.poll_retries) * 1e3 +
           static_cast<double>(stats.receivers.nak_retries) * 1e6;
  };
  sim::ReplicateOptions one;
  one.threads = 1;
  sim::ReplicateOptions four;
  four.threads = 4;
  const auto a = sim::replicate_map<double>(8, seed, run_one, one);
  const auto b = sim::replicate_map<double>(8, seed, run_one, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "replication " << i;
}

}  // namespace
}  // namespace pbl::protocol
