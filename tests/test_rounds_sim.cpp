#include "protocol/rounds.hpp"

#include <gtest/gtest.h>

#include "analysis/integrated.hpp"
#include "analysis/processing.hpp"
#include "analysis/layered.hpp"

namespace pbl::protocol {
namespace {

McConfig config(std::int64_t k, std::int64_t h, std::int64_t tgs = 400) {
  McConfig cfg;
  cfg.k = k;
  cfg.h = h;
  cfg.num_tgs = tgs;
  return cfg;
}

/// Packs 0/1 flags into a receiver bitmap.
sim::BitVec bits(const std::vector<int>& flags) {
  sim::BitVec v(flags.size());
  for (std::size_t r = 0; r < flags.size(); ++r)
    if (flags[r]) v.set(r);
  return v;
}

TEST(IidTransmitter, RespectsActiveMask) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 4, Rng(1));
  sim::BitVec received(4, /*ones=*/true);
  tx.transmit(0.0, bits({1, 0, 1, 0}), received);
  EXPECT_EQ(received, bits({1, 0, 1, 0}));
}

TEST(IidTransmitter, SpanSizesChecked) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 4, Rng(1));
  sim::BitVec wrong(3, /*ones=*/true), received(4);
  EXPECT_THROW(tx.transmit(0.0, wrong, received), std::invalid_argument);
}

TEST(SimNofec, LosslessSendsExactlyOnce) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 100, Rng(1));
  const auto res = sim_nofec(tx, config(7, 0, 10));
  EXPECT_DOUBLE_EQ(res.mean_tx, 1.0);
  EXPECT_DOUBLE_EQ(res.mean_rounds, 1.0);
  EXPECT_EQ(res.packets_sent, 70u);
}

TEST(SimNofec, MatchesClosedForm) {
  const double p = 0.05;
  for (double receivers : {1.0, 10.0, 100.0}) {
    loss::BernoulliLossModel model(p);
    ProcessBatchTransmitter tx(model, static_cast<std::size_t>(receivers),
                               Rng(7));
    const auto res = sim_nofec(tx, config(7, 0, 1500));
    const double expect = analysis::expected_tx_nofec(p, receivers);
    EXPECT_NEAR(res.mean_tx, expect, 3.0 * res.ci95 + 0.01)
        << "R=" << receivers;
  }
}

TEST(SimLayered, LosslessCostsExactlyOverhead) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 50, Rng(2));
  const auto res = sim_layered(tx, config(7, 2, 10));
  EXPECT_DOUBLE_EQ(res.mean_tx, 9.0 / 7.0);
}

TEST(SimLayered, MatchesClosedForm) {
  const double p = 0.05;
  for (double receivers : {1.0, 20.0, 200.0}) {
    loss::BernoulliLossModel model(p);
    ProcessBatchTransmitter tx(model, static_cast<std::size_t>(receivers),
                               Rng(8));
    const auto res = sim_layered(tx, config(7, 2, 1500));
    const double expect = analysis::expected_tx_layered(7, 9, p, receivers);
    EXPECT_NEAR(res.mean_tx, expect, 3.0 * res.ci95 + 0.02)
        << "R=" << receivers;
  }
}

TEST(SimIntegratedNaks, LosslessIsSingleRound) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 100, Rng(3));
  const auto res = sim_integrated_naks(tx, config(20, 0, 10));
  EXPECT_DOUBLE_EQ(res.mean_tx, 1.0);
  EXPECT_DOUBLE_EQ(res.mean_rounds, 1.0);
}

TEST(SimIntegratedNaks, MatchesIdealClosedForm) {
  const double p = 0.05;
  for (double receivers : {1.0, 10.0, 100.0}) {
    loss::BernoulliLossModel model(p);
    ProcessBatchTransmitter tx(model, static_cast<std::size_t>(receivers),
                               Rng(9));
    const auto res = sim_integrated_naks(tx, config(7, 0, 2000));
    const double expect =
        analysis::expected_tx_integrated_ideal(7, 0, p, receivers);
    EXPECT_NEAR(res.mean_tx, expect, 3.0 * res.ci95 + 0.01)
        << "R=" << receivers;
  }
}

TEST(SimIntegratedNaks, ProactiveParitiesIncludedInCost) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 10, Rng(4));
  const auto res = sim_integrated_naks(tx, config(7, 3, 10));
  EXPECT_DOUBLE_EQ(res.mean_tx, 10.0 / 7.0);
}

class FiniteBudgetSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, double, std::int64_t>> {};

TEST_P(FiniteBudgetSweep, SimulationValidatesCorrectedFig6Formula) {
  // The finite-parity protocol simulator against the corrected Fig. 6
  // closed form (see DESIGN.md): agreement within a few percent — the
  // formula ignores direct receptions carried across blocks, so it may
  // sit slightly above the simulation at heavy loss.
  const auto [h, p, receivers] = GetParam();
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter tx(model, static_cast<std::size_t>(receivers),
                             Rng(7));
  McConfig cfg = config(7, h, 2500);
  const auto sim = sim_integrated_finite(tx, cfg);
  const double formula = analysis::expected_tx_integrated(
      7, h, 0, p, static_cast<double>(receivers));
  EXPECT_NEAR(sim.mean_tx, formula, 3.0 * sim.ci95 + 0.05 * formula)
      << "h=" << h << " p=" << p << " R=" << receivers;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FiniteBudgetSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 3, 10),
                       ::testing::Values(0.01, 0.05),
                       ::testing::Values<std::int64_t>(1, 20, 200)));

TEST(SimIntegratedFinite, LargeBudgetMatchesIdealProtocol) {
  // With a generous budget the finite protocol never overflows a block
  // and must coincide with the unlimited-parity scheme.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter t1(model, 50, Rng(40));
  ProcessBatchTransmitter t2(model, 50, Rng(41));
  const auto finite = sim_integrated_finite(t1, config(7, 50, 1500));
  const auto ideal = sim_integrated_naks(t2, config(7, 0, 1500));
  EXPECT_NEAR(finite.mean_tx, ideal.mean_tx,
              3.0 * (finite.ci95 + ideal.ci95) + 0.01);
}

TEST(SimIntegratedFinite, TinyBudgetDegradesTowardsLayered) {
  // h = 1 with many receivers: most blocks exhaust the single parity and
  // retry, just like layered FEC with h = 1.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter t1(model, 300, Rng(42));
  ProcessBatchTransmitter t2(model, 300, Rng(43));
  const auto finite = sim_integrated_finite(t1, config(7, 1, 800));
  const auto layered = sim_layered(t2, config(7, 1, 800));
  // Finite-integrated <= layered (parities only when needed) but within
  // the same regime, far from the unlimited bound.
  EXPECT_LT(finite.mean_tx, layered.mean_tx + 0.02);
  const double ideal =
      analysis::expected_tx_integrated_ideal(7, 0, p, 300.0);
  EXPECT_GT(finite.mean_tx, ideal + 0.2);
}

TEST(SimIntegratedStream, MatchesNaksUnderIidLoss) {
  // Under time-independent loss, FEC1 and FEC2 send the same number of
  // packets (k + max_r Lr); only their timing differs.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter tx1(model, 50, Rng(10));
  ProcessBatchTransmitter tx2(model, 50, Rng(11));
  const auto stream = sim_integrated_stream(tx1, config(7, 0, 2000));
  const auto naks = sim_integrated_naks(tx2, config(7, 0, 2000));
  EXPECT_NEAR(stream.mean_tx, naks.mean_tx,
              3.0 * (stream.ci95 + naks.ci95) + 0.01);
}

TEST(SimIntegratedStream, MatchesIdealClosedForm) {
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter tx(model, 100, Rng(12));
  const auto res = sim_integrated_stream(tx, config(7, 0, 2000));
  const double expect = analysis::expected_tx_integrated_ideal(7, 0, p, 100.0);
  EXPECT_NEAR(res.mean_tx, expect, 3.0 * res.ci95 + 0.01);
}

TEST(SimIntegratedNaks, RoundCountBoundedByEq17) {
  // Eq. (17) is an upper bound on the expected number of transmission
  // rounds (the paper says so explicitly); the simulated mean must sit
  // at or below it, and not absurdly far below.
  const double p = 0.05;
  for (double receivers : {1.0, 50.0, 500.0}) {
    loss::BernoulliLossModel model(p);
    ProcessBatchTransmitter tx(model, static_cast<std::size_t>(receivers),
                               Rng(33));
    const auto res = sim_integrated_naks(tx, config(7, 0, 1500));
    const double bound = analysis::expected_rounds(7, p, receivers);
    EXPECT_LE(res.mean_rounds, bound + 0.05) << receivers;
    EXPECT_GE(res.mean_rounds, 0.6 * bound) << receivers;
  }
}

TEST(SchemeOrdering, IntegratedBeatsLayeredBeatsNofec) {
  // The paper's headline ordering at scale (Fig. 5), here measured rather
  // than computed.
  const double p = 0.05;
  const std::size_t receivers = 500;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter t1(model, receivers, Rng(13));
  ProcessBatchTransmitter t2(model, receivers, Rng(14));
  ProcessBatchTransmitter t3(model, receivers, Rng(15));
  const auto nofec = sim_nofec(t1, config(7, 0, 300));
  const auto layered = sim_layered(t2, config(7, 7, 300));
  const auto integrated = sim_integrated_naks(t3, config(7, 0, 300));
  EXPECT_LT(integrated.mean_tx, layered.mean_tx);
  EXPECT_LT(layered.mean_tx, nofec.mean_tx);
}

TEST(TreeTransmitterSim, SharedLossNeedsFewerTransmissions) {
  // Section 4.1: shared (FBT) loss lowers E[M] versus independent loss at
  // equal per-receiver loss probability.
  const double p = 0.05;
  const unsigned height = 8;  // 256 receivers
  const auto tree = tree::MulticastTree::full_binary(height);
  TreeBatchTransmitter tree_tx(tree, tree.node_loss_for_leaf_loss(p), Rng(16));
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter iid_tx(model, tree.num_leaves(), Rng(17));

  const auto shared = sim_nofec(tree_tx, config(7, 0, 300));
  const auto indep = sim_nofec(iid_tx, config(7, 0, 300));
  EXPECT_LT(shared.mean_tx, indep.mean_tx);
}

TEST(TreeTransmitterSim, FullySharedEqualsSingleReceiver) {
  // A degenerate "tree" that is a single path makes all loss shared:
  // E[M] equals the single-receiver value regardless of leaf count... a
  // chain with one leaf IS one receiver; instead verify that a height-0
  // tree matches a 1-receiver iid population.
  const double p = 0.1;
  const auto tree = tree::MulticastTree::full_binary(0);
  TreeBatchTransmitter tree_tx(tree, tree.node_loss_for_leaf_loss(p), Rng(18));
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter iid_tx(model, 1, Rng(19));
  const auto a = sim_nofec(tree_tx, config(7, 0, 2000));
  const auto b = sim_nofec(iid_tx, config(7, 0, 2000));
  EXPECT_NEAR(a.mean_tx, b.mean_tx, 3.0 * (a.ci95 + b.ci95) + 0.01);
}

TEST(BurstLossSim, LayeredDegradesUnderBurstLoss) {
  // Fig. 15: with bursts (b = 2) layered FEC (7+1) is WORSE than no FEC.
  const double p = 0.03;
  const auto gilbert = loss::GilbertLossModel::from_packet_stats(p, 2.0, 0.04);
  McConfig cfg = config(7, 1, 600);
  ProcessBatchTransmitter t1(gilbert, 200, Rng(20));
  ProcessBatchTransmitter t2(gilbert, 200, Rng(21));
  const auto layered = sim_layered(t1, cfg);
  cfg.h = 0;
  const auto nofec = sim_nofec(t2, cfg);
  EXPECT_GT(layered.mean_tx, nofec.mean_tx);
}

TEST(BurstLossSim, LargeGroupsResistBursts) {
  // Fig. 16: increasing k from 7 to 100 significantly improves integrated
  // FEC under burst loss.
  const double p = 0.03;
  const auto gilbert = loss::GilbertLossModel::from_packet_stats(p, 2.0, 0.04);
  ProcessBatchTransmitter t1(gilbert, 200, Rng(22));
  ProcessBatchTransmitter t2(gilbert, 200, Rng(23));
  const auto small_k = sim_integrated_naks(t1, config(7, 0, 600));
  const auto large_k = sim_integrated_naks(t2, config(100, 0, 60));
  EXPECT_LT(large_k.mean_tx, small_k.mean_tx);
}

TEST(BurstLossSim, Fec2InterleavingHelpsSmallGroups) {
  // Fig. 16: for k = 7 the spread-out parity rounds of FEC2 bridge loss
  // periods better than FEC1's back-to-back stream.
  const double p = 0.05;
  const auto gilbert = loss::GilbertLossModel::from_packet_stats(p, 3.0, 0.04);
  ProcessBatchTransmitter t1(gilbert, 500, Rng(24));
  ProcessBatchTransmitter t2(gilbert, 500, Rng(25));
  const auto fec1 = sim_integrated_stream(t1, config(7, 0, 800));
  const auto fec2 = sim_integrated_naks(t2, config(7, 0, 800));
  EXPECT_LT(fec2.mean_tx, fec1.mean_tx + 3.0 * (fec1.ci95 + fec2.ci95));
}

TEST(McConfigValidation, RejectsBadParameters) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 1, Rng(1));
  McConfig bad = config(0, 0);
  EXPECT_THROW(sim_nofec(tx, bad), std::invalid_argument);
  bad = config(7, -1);
  EXPECT_THROW(sim_layered(tx, bad), std::invalid_argument);
  bad = config(7, 0, 0);
  EXPECT_THROW(sim_integrated_naks(tx, bad), std::invalid_argument);
}

}  // namespace
}  // namespace pbl::protocol
