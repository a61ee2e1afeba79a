// Proactive and adaptive redundancy in protocol NP (the Section 3.2 "a"
// parameter made operational, plus measurement-based adaptation).
#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "protocol/np_protocol.hpp"
#include "util/stats.hpp"

namespace pbl::protocol {
namespace {

NpConfig base_config() {
  NpConfig cfg;
  cfg.k = 10;
  cfg.h = 80;
  cfg.packet_len = 64;
  return cfg;
}

TEST(NpProactive, SentWithTheDataAndCounted) {
  loss::BernoulliLossModel model(0.0);
  NpConfig cfg = base_config();
  cfg.proactive = 3;
  NpSession session(model, 10, 5, cfg, 42);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.proactive_sent, 3u * 5u);
  EXPECT_EQ(stats.parity_sent, 0u);  // nothing was lost: no reactive repair
  EXPECT_DOUBLE_EQ(stats.tx_per_packet, 13.0 / 10.0);
}

TEST(NpProactive, ClampedToParityBudget) {
  loss::BernoulliLossModel model(0.0);
  NpConfig cfg = base_config();
  cfg.h = 2;
  cfg.proactive = 50;
  NpSession session(model, 5, 3, cfg, 7);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.proactive_sent, 2u * 3u);
}

TEST(NpProactive, ReducesFeedbackRounds) {
  // Enough proactive parities absorb typical losses: fewer NAKs and
  // fewer reactive parities than the bare protocol on the same scenario.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  NpConfig plain = base_config();
  NpConfig proactive = base_config();
  const auto planned =
      core::plan_proactive_parities(10, p, 40.0, 0.9, 80);
  ASSERT_TRUE(planned.has_value());
  proactive.proactive = static_cast<std::size_t>(*planned);

  std::uint64_t plain_naks = 0, pro_naks = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NpSession a(model, 40, 8, plain, seed);
    const auto sa = a.run();
    ASSERT_TRUE(sa.all_delivered);
    plain_naks += sa.receivers.naks_sent;
    NpSession b(model, 40, 8, proactive, seed);
    const auto sb = b.run();
    ASSERT_TRUE(sb.all_delivered);
    pro_naks += sb.receivers.naks_sent;
  }
  EXPECT_LT(pro_naks, plain_naks / 2);
}

TEST(NpProactive, CostsBandwidthAtZeroLoss) {
  // The trade-off is real: proactive parities are pure overhead when the
  // channel is clean.
  loss::BernoulliLossModel model(0.0);
  NpConfig cfg = base_config();
  cfg.proactive = 5;
  NpSession session(model, 10, 4, cfg, 3);
  const auto stats = session.run();
  EXPECT_GT(stats.tx_per_packet, 1.0);
}

TEST(NpAdaptive, ConvergesToPlannedRedundancy) {
  // Under stationary loss the adaptive controller's final `a` should land
  // in the neighbourhood of what the offline planner picks for the true p.
  const double p = 0.05;
  const std::size_t receivers = 40;
  loss::BernoulliLossModel model(p);
  NpConfig cfg = base_config();
  cfg.adaptive = true;
  NpSession session(model, receivers, 40, cfg, 11);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);

  const auto planned = core::plan_proactive_parities(
      10, p, static_cast<double>(receivers), 0.9, 80);
  ASSERT_TRUE(planned.has_value());
  EXPECT_NEAR(stats.final_proactive, static_cast<double>(*planned), 3.0);
  EXPECT_GT(stats.proactive_sent, 0u);
}

TEST(NpAdaptive, StaysAtZeroOnCleanChannel) {
  loss::BernoulliLossModel model(0.0);
  NpConfig cfg = base_config();
  cfg.adaptive = true;
  NpSession session(model, 20, 10, cfg, 13);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);
  EXPECT_DOUBLE_EQ(stats.final_proactive, 0.0);
  EXPECT_EQ(stats.proactive_sent, 0u);
}

TEST(NpAdaptive, ReactsToHeavyLoss) {
  loss::BernoulliLossModel model(0.15);
  NpConfig cfg = base_config();
  cfg.adaptive = true;
  NpSession session(model, 50, 20, cfg, 17);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);
  EXPECT_GE(stats.final_proactive, 2.0);
}

TEST(NpAdaptive, CutsNakTrafficOverTime) {
  const double p = 0.08;
  loss::BernoulliLossModel model(p);
  NpConfig plain = base_config();
  NpConfig adaptive = base_config();
  adaptive.adaptive = true;
  NpSession a(model, 50, 30, plain, 19);
  NpSession b(model, 50, 30, adaptive, 19);
  const auto sa = a.run();
  const auto sb = b.run();
  ASSERT_TRUE(sa.all_delivered);
  ASSERT_TRUE(sb.all_delivered);
  EXPECT_LT(sb.receivers.naks_sent, sa.receivers.naks_sent);
}

}  // namespace
}  // namespace pbl::protocol
