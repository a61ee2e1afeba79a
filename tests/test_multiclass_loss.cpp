#include <gtest/gtest.h>

#include "analysis/heterogeneous.hpp"
#include "loss/loss_model.hpp"
#include "protocol/rounds.hpp"

namespace pbl::loss {
namespace {

TEST(MultiClass, Validation) {
  EXPECT_THROW(MultiClassLossModel({}), std::invalid_argument);
  EXPECT_THROW(MultiClassLossModel({{1.5, 10}}), std::invalid_argument);
  EXPECT_THROW(MultiClassLossModel({{0.1, 0}}), std::invalid_argument);
}

TEST(MultiClass, IndexRangesInOrder) {
  MultiClassLossModel model({{0.01, 3}, {0.1, 2}, {0.5, 1}});
  EXPECT_EQ(model.receivers(), 6u);
  EXPECT_DOUBLE_EQ(model.receiver_loss_probability(0), 0.01);
  EXPECT_DOUBLE_EQ(model.receiver_loss_probability(2), 0.01);
  EXPECT_DOUBLE_EQ(model.receiver_loss_probability(3), 0.1);
  EXPECT_DOUBLE_EQ(model.receiver_loss_probability(4), 0.1);
  EXPECT_DOUBLE_EQ(model.receiver_loss_probability(5), 0.5);
  EXPECT_THROW(model.receiver_loss_probability(6), std::out_of_range);
}

TEST(MultiClass, MeanLossProbability) {
  MultiClassLossModel model({{0.0, 5}, {0.2, 5}});
  EXPECT_NEAR(model.mean_loss_probability(), 0.1, 1e-12);
}

TEST(MultiClass, MatchesTwoClassModel) {
  HeterogeneousLossModel two(100, 0.25, 0.01, 0.25);
  MultiClassLossModel multi({{0.01, 75}, {0.25, 25}});
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(multi.receiver_loss_probability(r),
                     two.receiver_loss_probability(r));
  }
  EXPECT_DOUBLE_EQ(multi.mean_loss_probability(), two.mean_loss_probability());
}

TEST(MultiClass, SimulationMatchesThreeClassAnalysis) {
  // Three-class population, integrated FEC: the Monte-Carlo result over
  // the MultiClassLossModel must match Eq. (8) with three classes.
  MultiClassLossModel model({{0.01, 200}, {0.1, 50}, {0.3, 10}});
  protocol::ProcessBatchTransmitter tx(model, model.receivers(), Rng(5));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 1500;
  const auto sim = protocol::sim_integrated_naks(tx, cfg);

  const analysis::Population pop{{0.01, 200.0}, {0.1, 50.0}, {0.3, 10.0}};
  const double expect = analysis::expected_tx_integrated_hetero(7, 0, pop);
  EXPECT_NEAR(sim.mean_tx, expect, 3.0 * sim.ci95 + 0.02);
}

TEST(MultiClass, NofecThreeClassAnalysisAgrees) {
  MultiClassLossModel model({{0.02, 100}, {0.2, 20}, {0.4, 5}});
  protocol::ProcessBatchTransmitter tx(model, model.receivers(), Rng(6));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 1200;
  const auto sim = protocol::sim_nofec(tx, cfg);
  const analysis::Population pop{{0.02, 100.0}, {0.2, 20.0}, {0.4, 5.0}};
  const double expect = analysis::expected_tx_nofec_hetero(pop);
  EXPECT_NEAR(sim.mean_tx, expect, 3.0 * sim.ci95 + 0.05);
}

TEST(Composite, Validation) {
  EXPECT_THROW(CompositeLossModel({}), std::invalid_argument);
  EXPECT_THROW(CompositeLossModel({{nullptr, 3}}), std::invalid_argument);
  EXPECT_THROW(CompositeLossModel(
                   {{std::make_shared<BernoulliLossModel>(0.1), 0}}),
               std::invalid_argument);
}

TEST(Composite, RoutesReceiversToComponents) {
  CompositeLossModel model({
      {std::make_shared<BernoulliLossModel>(0.0), 2},
      {std::make_shared<BernoulliLossModel>(1.0), 3},
  });
  EXPECT_EQ(model.receivers(), 5u);
  auto clean = model.make_process(Rng(1), 1);
  auto lossy = model.make_process(Rng(2), 2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(clean->lost(i * 1.0));
    EXPECT_TRUE(lossy->lost(i * 1.0));
  }
  EXPECT_NEAR(model.mean_loss_probability(), 0.6, 1e-12);
  EXPECT_THROW(model.component_for(5), std::out_of_range);
}

TEST(Composite, MixedBurstAndIndependentPopulation) {
  // Half the receivers on a bursty path, half on a clean-ish one: the
  // session must still deliver, and the bursty half must drive repair.
  auto gilbert = std::make_shared<GilbertLossModel>(
      GilbertLossModel::from_packet_stats(0.1, 2.5, 0.001));
  auto bernoulli = std::make_shared<BernoulliLossModel>(0.01);
  CompositeLossModel model({{bernoulli, 20}, {gilbert, 20}});

  protocol::ProcessBatchTransmitter tx(model, 40, Rng(9));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 800;
  cfg.timing.delta = 0.001;
  const auto mixed = protocol::sim_integrated_naks(tx, cfg);

  protocol::ProcessBatchTransmitter clean_tx(*bernoulli, 40, Rng(10));
  const auto clean = protocol::sim_integrated_naks(clean_tx, cfg);
  EXPECT_GT(mixed.mean_tx, clean.mean_tx);
}

}  // namespace
}  // namespace pbl::loss
