#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"
#include "protocol/rounds.hpp"
#include "tree/multicast_tree.hpp"

namespace pbl::core {
namespace {

TEST(PlanLayered, ZeroLossNeedsNoParities) {
  const auto h = plan_layered_parities(7, 0.0, 1e6, 1.5);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, 0);
}

TEST(PlanLayered, ResultMeetsTargetAndIsMinimal) {
  const double p = 0.01, r = 1e5, target = 1.6;
  const auto h = plan_layered_parities(20, p, r, target);
  ASSERT_TRUE(h.has_value());
  EXPECT_LE(analysis::expected_tx_layered(20, 20 + *h, p, r), target);
  if (*h > 0) {
    EXPECT_GT(analysis::expected_tx_layered(20, 20 + *h - 1, p, r), target);
  }
}

TEST(PlanLayered, ImpossibleTargetIsNullopt) {
  // E[M] >= 1 + something at heavy loss; an absurd target fails cleanly.
  EXPECT_FALSE(plan_layered_parities(7, 0.3, 1e6, 1.01).has_value());
}

TEST(PlanLayered, ValidatesTarget) {
  EXPECT_THROW(plan_layered_parities(7, 0.01, 10, 0.5), std::invalid_argument);
}

TEST(PlanProactive, ZeroLossNeedsNothing) {
  const auto a = plan_proactive_parities(20, 0.0, 1e6, 0.99);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0);
}

TEST(PlanProactive, ResultAchievesConfidence) {
  const double p = 0.01, r = 1000.0, conf = 0.95;
  const auto a = plan_proactive_parities(20, p, r, conf);
  ASSERT_TRUE(a.has_value());
  const double per = analysis::lr_cdf(20, *a, p, 0);
  EXPECT_GE(std::pow(per, r), conf);
  if (*a > 0) {
    const double per_less = analysis::lr_cdf(20, *a - 1, p, 0);
    EXPECT_LT(std::pow(per_less, r), conf);
  }
}

TEST(PlanProactive, GrowsWithPopulationAndLoss) {
  const auto a_small = plan_proactive_parities(20, 0.01, 100, 0.95);
  const auto a_big = plan_proactive_parities(20, 0.01, 1e6, 0.95);
  ASSERT_TRUE(a_small && a_big);
  EXPECT_LT(*a_small, *a_big);
  const auto a_lossy = plan_proactive_parities(20, 0.05, 100, 0.95);
  ASSERT_TRUE(a_lossy);
  EXPECT_LT(*a_small, *a_lossy);
}

TEST(PlanProactive, InsufficientBudgetIsNullopt) {
  EXPECT_FALSE(plan_proactive_parities(20, 0.4, 1e6, 0.999, 3).has_value());
}

TEST(PlanProactive, ValidatesConfidence) {
  EXPECT_THROW(plan_proactive_parities(20, 0.01, 10, 1.5),
               std::invalid_argument);
}

TEST(EquivalentReceivers, RoundTripsTheForwardModel) {
  const double p = 0.01;
  for (double r : {1.0, 50.0, 1e3, 1e5}) {
    const double em = analysis::expected_tx_nofec(p, r);
    const double r_est = equivalent_independent_receivers(p, em);
    EXPECT_NEAR(r_est, r, 0.02 * r + 0.1) << "R=" << r;
  }
}

TEST(EquivalentReceivers, ClampsAtBoundaries) {
  EXPECT_DOUBLE_EQ(equivalent_independent_receivers(0.1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(equivalent_independent_receivers(0.01, 1e9, 1e6), 1e6);
  EXPECT_THROW(equivalent_independent_receivers(0.0, 2.0),
               std::invalid_argument);
}

TEST(EquivalentReceivers, SharedLossShrinksThePopulation) {
  // The paper's Section 4.1 use-case: measure no-FEC E[M] on a shared-loss
  // (FBT) population, map it back through the independent-loss model, and
  // obtain R_indep well below the real receiver count.
  const double p = 0.05;
  const unsigned height = 10;  // 1024 receivers
  const auto tree = tree::MulticastTree::full_binary(height);
  protocol::TreeBatchTransmitter tx(tree, tree.node_loss_for_leaf_loss(p),
                                    Rng(7));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 400;
  const auto shared = protocol::sim_nofec(tx, cfg);

  const double r_indep = equivalent_independent_receivers(p, shared.mean_tx);
  EXPECT_LT(r_indep, 1024.0 * 0.9);
  EXPECT_GT(r_indep, 1.0);
}

}  // namespace
}  // namespace pbl::core
