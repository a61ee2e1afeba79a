#include "core/reliable_multicast.hpp"

#include <gtest/gtest.h>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"

namespace pbl::core {
namespace {

MulticastConfig base_config() {
  MulticastConfig cfg;
  cfg.k = 7;
  cfg.h = 0;
  cfg.receivers = 50;
  cfg.p = 0.05;
  cfg.num_tgs = 500;
  cfg.seed = 3;
  return cfg;
}

TEST(MulticastConfig, Validation) {
  MulticastConfig cfg = base_config();
  cfg.k = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.p = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.receivers = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.num_tgs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A class that loses every packet never completes: simulate() would
  // loop forever.
  cfg = base_config();
  cfg.loss = LossKind::kTwoClass;
  cfg.alpha = 0.1;
  cfg.p_high = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Predict, MatchesAnalysisFunctions) {
  MulticastConfig cfg = base_config();
  cfg.mode = RecoveryMode::kNoFec;
  EXPECT_DOUBLE_EQ(*predict(cfg), analysis::expected_tx_nofec(0.05, 50.0));

  cfg.mode = RecoveryMode::kLayeredFec;
  cfg.h = 2;
  EXPECT_DOUBLE_EQ(*predict(cfg),
                   analysis::expected_tx_layered(7, 9, 0.05, 50.0));

  cfg.mode = RecoveryMode::kIntegratedFec2;
  cfg.h = 0;
  EXPECT_DOUBLE_EQ(*predict(cfg),
                   analysis::expected_tx_integrated_ideal(7, 0, 0.05, 50.0));
}

TEST(Predict, BurstAndTreeHaveNoClosedForm) {
  MulticastConfig cfg = base_config();
  cfg.loss = LossKind::kBurst;
  EXPECT_FALSE(predict(cfg).has_value());
  cfg.loss = LossKind::kTree;
  EXPECT_FALSE(predict(cfg).has_value());
}

class SimulateVsPredict : public ::testing::TestWithParam<RecoveryMode> {};

TEST_P(SimulateVsPredict, AgreeWithinConfidenceInterval) {
  MulticastConfig cfg = base_config();
  cfg.mode = GetParam();
  if (cfg.mode == RecoveryMode::kLayeredFec) cfg.h = 2;
  const auto report = simulate(cfg);
  ASSERT_TRUE(report.predicted.has_value());
  EXPECT_NEAR(report.mean_tx, *report.predicted, 3.0 * report.ci95 + 0.02)
      << to_string(cfg.mode);
}

INSTANTIATE_TEST_SUITE_P(Modes, SimulateVsPredict,
                         ::testing::Values(RecoveryMode::kNoFec,
                                           RecoveryMode::kLayeredFec,
                                           RecoveryMode::kIntegratedFec1,
                                           RecoveryMode::kIntegratedFec2));

TEST(Simulate, TwoClassLossAgreesWithHeteroAnalysis) {
  MulticastConfig cfg = base_config();
  cfg.loss = LossKind::kTwoClass;
  cfg.alpha = 0.2;
  cfg.p_high = 0.25;
  cfg.mode = RecoveryMode::kIntegratedFec2;
  const auto report = simulate(cfg);
  ASSERT_TRUE(report.predicted.has_value());
  EXPECT_NEAR(report.mean_tx, *report.predicted, 3.0 * report.ci95 + 0.03);
}

TEST(Simulate, TreeLossRunsAndIsCheaperThanIndependent) {
  MulticastConfig cfg = base_config();
  cfg.receivers = 256;
  cfg.num_tgs = 300;
  cfg.mode = RecoveryMode::kNoFec;
  cfg.loss = LossKind::kTree;
  const auto shared = simulate(cfg);
  cfg.loss = LossKind::kBernoulli;
  const auto indep = simulate(cfg);
  EXPECT_LT(shared.mean_tx, indep.mean_tx);
  EXPECT_FALSE(shared.predicted.has_value());
}

TEST(Simulate, BurstLossRuns) {
  MulticastConfig cfg = base_config();
  cfg.loss = LossKind::kBurst;
  cfg.burst_len = 2.0;
  cfg.receivers = 50;
  cfg.num_tgs = 200;
  cfg.mode = RecoveryMode::kIntegratedFec2;
  const auto report = simulate(cfg);
  EXPECT_GT(report.mean_tx, 1.0);
  EXPECT_LT(report.mean_tx, 3.0);
}

TEST(Simulate, DeterministicForSeed) {
  MulticastConfig cfg = base_config();
  cfg.num_tgs = 100;
  const auto a = simulate(cfg);
  const auto b = simulate(cfg);
  EXPECT_DOUBLE_EQ(a.mean_tx, b.mean_tx);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
}

TEST(MulticastConfig, ModeSpecificOptionsValidated) {
  MulticastConfig cfg = base_config();
  cfg.interleave_depth = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.mode = RecoveryMode::kNoFec;
  cfg.interleave_depth = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.mode = RecoveryMode::kNoFec;
  cfg.finite_budget = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Simulate, InterleavedLayeredHelpsUnderBurstLoss) {
  MulticastConfig cfg = base_config();
  cfg.mode = RecoveryMode::kLayeredFec;
  cfg.h = 1;
  cfg.loss = LossKind::kBurst;
  cfg.burst_len = 2.0;
  cfg.receivers = 200;
  cfg.num_tgs = 600;
  const auto plain = simulate(cfg);
  cfg.interleave_depth = 8;
  const auto interleaved = simulate(cfg);
  EXPECT_LT(interleaved.mean_tx, plain.mean_tx);
}

TEST(Simulate, FiniteBudgetMatchesCorrectedFormula) {
  MulticastConfig cfg = base_config();
  cfg.mode = RecoveryMode::kIntegratedFec2;
  cfg.h = 2;
  cfg.finite_budget = true;
  cfg.num_tgs = 1500;
  const auto report = simulate(cfg);
  ASSERT_TRUE(report.predicted.has_value());
  EXPECT_NEAR(report.mean_tx, *report.predicted,
              3.0 * report.ci95 + 0.05 * *report.predicted);
}

TEST(PredictLatency, AvailableForIndependentLossOnly) {
  MulticastConfig cfg = base_config();
  cfg.mode = RecoveryMode::kIntegratedFec2;
  EXPECT_TRUE(predict_latency(cfg).has_value());
  cfg.loss = LossKind::kBurst;
  EXPECT_FALSE(predict_latency(cfg).has_value());
}

TEST(PredictLatency, CoversSimulatedTime) {
  MulticastConfig cfg = base_config();
  cfg.mode = RecoveryMode::kIntegratedFec2;
  cfg.num_tgs = 1000;
  const auto report = simulate(cfg);
  ASSERT_TRUE(report.predicted_latency.has_value());
  EXPECT_GE(*report.predicted_latency, 0.95 * report.mean_time);
  EXPECT_LE(*report.predicted_latency, 1.45 * report.mean_time);
}

TEST(ToString, NamesAreStable) {
  EXPECT_EQ(to_string(RecoveryMode::kNoFec), "no-FEC");
  EXPECT_EQ(to_string(RecoveryMode::kLayeredFec), "layered FEC");
  EXPECT_EQ(to_string(LossKind::kBurst), "burst");
  EXPECT_EQ(to_string(LossKind::kTree), "shared (tree)");
}

}  // namespace
}  // namespace pbl::core
