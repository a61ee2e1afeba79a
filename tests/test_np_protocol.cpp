#include "protocol/np_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "analysis/integrated.hpp"
#include "util/stats.hpp"

namespace pbl::protocol {
namespace {

NpConfig small_config() {
  NpConfig cfg;
  cfg.k = 8;
  cfg.h = 40;
  cfg.packet_len = 64;
  return cfg;
}

TEST(NpSession, ValidatesConfiguration) {
  loss::BernoulliLossModel model(0.0);
  NpConfig cfg = small_config();
  EXPECT_THROW(NpSession(model, 0, 1, cfg), std::invalid_argument);
  EXPECT_THROW(NpSession(model, 1, 0, cfg), std::invalid_argument);
  cfg.k = 200;
  cfg.h = 100;  // k + h > 255
  EXPECT_THROW(NpSession(model, 1, 1, cfg), std::invalid_argument);
}

TEST(NpSession, LosslessDeliveryIsExactlyK) {
  loss::BernoulliLossModel model(0.0);
  NpSession session(model, 10, 5, small_config(), 42);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.data_sent, 8u * 5u);
  EXPECT_EQ(stats.parity_sent, 0u);
  EXPECT_EQ(stats.receivers.naks_sent, 0u);
  EXPECT_DOUBLE_EQ(stats.tx_per_packet, 1.0);
  EXPECT_EQ(stats.sender.tgs_completed, 5u);
  EXPECT_EQ(stats.receivers.decoded, 0u);  // nothing lost, nothing decoded
}

TEST(NpSession, RecoversUnderLoss) {
  loss::BernoulliLossModel model(0.1);
  NpSession session(model, 20, 4, small_config(), 7);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_GT(stats.parity_sent, 0u);
  EXPECT_GT(stats.receivers.naks_sent, 0u);
  EXPECT_GT(stats.receivers.decoded, 0u);
  EXPECT_EQ(stats.sender.tgs_exhausted + stats.sender.tgs_unconfirmed, 0u);
}

TEST(NpSession, NeverRetransmitsData) {
  // NP repairs exclusively with parities: data_sent stays k per TG.
  loss::BernoulliLossModel model(0.15);
  NpSession session(model, 30, 3, small_config(), 9);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.data_sent, 8u * 3u);
}

TEST(NpSession, TxPerPacketTracksClosedForm) {
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  NpConfig cfg = small_config();
  cfg.h = 60;
  RunningStats measured;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    NpSession session(model, 25, 12, cfg, seed);
    const auto stats = session.run();
    ASSERT_TRUE(stats.all_delivered);
    measured.add(stats.tx_per_packet);
  }
  const double expect =
      analysis::expected_tx_integrated_ideal(8, 0, p, 25.0);
  // The protocol can only send integer parities per round and may slightly
  // overshoot the idealised bound; allow a modest band.
  EXPECT_NEAR(measured.mean(), expect, 0.1);
  EXPECT_GT(measured.mean() + 3.0 * measured.ci95_halfwidth() + 0.01, expect);

  // The paper's oracle (Eqs. 4-6, finite h): NP serves the round's
  // largest need with fresh parities, so E[M] holds in both control
  // modes.  A wrong parity count (say l + 1 per NAK) lands many standard
  // errors away.
  struct Shape {
    std::size_t k, h, receivers;
    double p;
  };
  for (const Shape s : {Shape{32, 32, 4, 0.02}, Shape{16, 48, 16, 0.10},
                        Shape{8, 40, 25, 0.05}}) {
    for (const bool reliable : {false, true}) {
      NpConfig shape_cfg = small_config();
      shape_cfg.k = s.k;
      shape_cfg.h = s.h;
      shape_cfg.reliable_control = reliable;
      loss::BernoulliLossModel shape_model(s.p);
      RunningStats tx;
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        NpSession session(shape_model, s.receivers, 40, shape_cfg, seed);
        const auto stats = session.run();
        ASSERT_TRUE(stats.all_delivered) << "seed " << seed;
        tx.add(stats.tx_per_packet);
      }
      const double em = analysis::expected_tx_integrated(
          static_cast<std::int64_t>(s.k), static_cast<std::int64_t>(s.h), 0,
          s.p, static_cast<double>(s.receivers));
      const double z = (tx.mean() - em) / tx.std_error();
      EXPECT_LT(std::abs(z), 4.0)
          << "k=" << s.k << " h=" << s.h << " R=" << s.receivers
          << " p=" << s.p << " reliable=" << reliable << ": mean "
          << tx.mean() << " vs E[M] " << em << " (z = " << z << ")";
    }
  }
}

TEST(NpSession, SuppressionKeepsNaksNearOnePerRound)
{
  loss::BernoulliLossModel model(0.05);
  NpConfig cfg = small_config();
  cfg.slot = 0.020;  // generous slots: suppression should work well
  NpSession session(model, 100, 10, cfg, 3);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);
  ASSERT_GT(stats.receivers.naks_sent, 0u);
  // Rounds with feedback = polls that got answered; NAKs sent should be a
  // small multiple of that, and many receivers' NAKs suppressed.
  EXPECT_GT(stats.receivers.naks_suppressed, 0u);
  const double naks_per_feedback_round =
      static_cast<double>(stats.receivers.naks_sent) /
      static_cast<double>(stats.sender.polls_sent);
  EXPECT_LT(naks_per_feedback_round, 3.0);
}

TEST(NpSession, DuplicatesStayLow) {
  // Paper Section 2.1: parity repair keeps unnecessary receptions near
  // zero (a receiver gets extra parities only while the max-needed
  // receiver still misses more than it does).
  loss::BernoulliLossModel model(0.05);
  NpSession session(model, 50, 10, small_config(), 5);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);
  // Every parity round sends max-over-receivers packets, so receivers
  // needing fewer see a handful of extras; the rate stays well below the
  // one-duplicate-per-retransmission-per-receiver behaviour of plain ARQ
  // (cross-checked against ArqSession in test_integration.cpp).
  const double dup_rate =
      static_cast<double>(stats.receivers.duplicates) /
      (static_cast<double>(stats.data_sent + stats.parity_sent) * 50.0);
  EXPECT_LT(dup_rate, 0.25);
}

TEST(NpSession, LazyEncodingOnlyOnDemand) {
  loss::BernoulliLossModel model(0.0);
  NpSession session(model, 5, 3, small_config(), 11);
  const auto stats = session.run();
  EXPECT_EQ(stats.parities_encoded, 0u);
}

TEST(NpSession, ParityBudgetExhaustionIsReported) {
  NpConfig cfg = small_config();
  cfg.h = 1;  // hopeless budget under heavy loss
  loss::BernoulliLossModel model(0.4);
  NpSession session(model, 20, 2, cfg, 13);
  const auto stats = session.run();
  EXPECT_FALSE(stats.all_delivered);
  EXPECT_GT(stats.sender.tgs_exhausted + stats.sender.tgs_unconfirmed, 0u);
}

TEST(NpSession, DeterministicForSameSeed) {
  loss::BernoulliLossModel model(0.08);
  NpSession a(model, 15, 5, small_config(), 99);
  NpSession b(model, 15, 5, small_config(), 99);
  const auto sa = a.run();
  const auto sb = b.run();
  EXPECT_EQ(sa.data_sent, sb.data_sent);
  EXPECT_EQ(sa.parity_sent, sb.parity_sent);
  EXPECT_EQ(sa.receivers.naks_sent, sb.receivers.naks_sent);
  EXPECT_DOUBLE_EQ(sa.completion_time, sb.completion_time);
}

TEST(NpSession, ScalesToManyReceivers) {
  loss::BernoulliLossModel model(0.02);
  NpSession session(model, 500, 3, small_config(), 17);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  // Feedback is per TG, not per packet/receiver: far fewer NAKs than
  // receivers-times-packets.
  EXPECT_LT(stats.receivers.naks_sent, 500u);
}

TEST(NpSession, SourceDataExposedForVerification) {
  loss::BernoulliLossModel model(0.0);
  NpSession session(model, 2, 3, small_config(), 21);
  const auto& src = session.source_data();
  ASSERT_EQ(src.size(), 3u);
  ASSERT_EQ(src[0].size(), 8u);
  ASSERT_EQ(src[0][0].size(), 64u);
}

// --- Reliable control plane (docs/ROBUSTNESS.md) ---------------------

std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

NpConfig reliable_config() {
  NpConfig cfg = small_config();
  cfg.reliable_control = true;
  return cfg;
}

TEST(NpReliableControl, CleanRunDeliversAndFillsReport) {
  loss::BernoulliLossModel model(0.0);
  NpSession session(model, 6, 4, reliable_config(), chaos_seed(1));
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_TRUE(stats.report.complete);
  EXPECT_DOUBLE_EQ(stats.report.completion_fraction(), 1.0);
  EXPECT_EQ(stats.sender.evictions, 0u);
  // Every receiver positively acknowledges every TG (proactively on
  // completion and again in answer to the POLL), and with a clean
  // channel every ACK arrives.
  EXPECT_GE(stats.sender.acks_received, 6u * 4u);
  EXPECT_EQ(stats.sender.acks_received, stats.receivers.acks_sent);
  EXPECT_EQ(stats.sender.poll_retries, 0u);
}

TEST(NpReliableControl, ExactlyOnceUnderHeavyControlLoss) {
  // The documented limitation of the legacy path (NpRobustness.
  // LossyControlTerminatesButMayFail) is gone: with q_f = 0.2 on the
  // NAK/POLL paths plus data loss, every TG still completes exactly once.
  loss::BernoulliLossModel model(0.1);
  NpConfig cfg = reliable_config();
  cfg.impairment.control_drop = 0.2;
  cfg.impairment.seed = chaos_seed(77);
  // Liveness thresholds must be sized to the control-loss rate: a round
  // is unheard with probability ~ 2 q_f - q_f^2, so grace_rounds and the
  // re-POLL budget get headroom (docs/ROBUSTNESS.md) to keep spurious
  // evictions out of the exactly-once guarantee.
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  NpSession session(model, 10, 5, cfg, chaos_seed(3));
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.sender.tgs_completed, 5u);
  EXPECT_EQ(stats.sender.tgs_exhausted + stats.sender.tgs_unconfirmed, 0u);
  EXPECT_EQ(stats.sender.evictions, 0u);
  EXPECT_TRUE(stats.report.complete) << stats.report.summary();
  // Recovery leaves traces: lost control must have forced retries.
  EXPECT_GT(stats.sender.poll_retries + stats.receivers.nak_retries, 0u);
  EXPECT_GT(stats.impairment.control_dropped, 0u);
}

TEST(NpReliableControl, DeterministicForSameSeed) {
  loss::BernoulliLossModel model(0.08);
  NpConfig cfg = reliable_config();
  cfg.impairment.control_drop = 0.15;
  cfg.impairment.seed = chaos_seed(5);
  const std::uint64_t seed = chaos_seed(42);
  NpSession a(model, 8, 4, cfg, seed);
  NpSession b(model, 8, 4, cfg, seed);
  const auto sa = a.run();
  const auto sb = b.run();
  EXPECT_EQ(sa.sender.poll_retries, sb.sender.poll_retries);
  EXPECT_EQ(sa.receivers.nak_retries, sb.receivers.nak_retries);
  EXPECT_EQ(sa.sender.acks_received, sb.sender.acks_received);
  EXPECT_EQ(sa.parity_sent, sb.parity_sent);
  EXPECT_DOUBLE_EQ(sa.completion_time, sb.completion_time);
}

TEST(NpReliableControl, SessionDeadlineEndsTheRun) {
  loss::BernoulliLossModel model(0.3);
  NpConfig cfg = reliable_config();
  cfg.impairment.control_drop = 0.3;
  cfg.impairment.seed = chaos_seed(23);
  cfg.retry.session_deadline = 0.005;  // far too short for 6 TGs
  NpSession session(model, 10, 6, cfg, chaos_seed(7));
  const auto stats = session.run();  // must return, not hang
  EXPECT_TRUE(stats.report.deadline_expired);
  EXPECT_FALSE(stats.report.complete);
}

}  // namespace
}  // namespace pbl::protocol
