#include <gtest/gtest.h>

#include "protocol/rounds.hpp"
#include "tree/multicast_tree.hpp"

namespace pbl::tree {
namespace {

TEST(RandomSplit, Validation) {
  Rng rng(1);
  EXPECT_THROW(MulticastTree::random_split(0, 2, rng), std::invalid_argument);
  EXPECT_THROW(MulticastTree::random_split(5, 1, rng), std::invalid_argument);
}

TEST(RandomSplit, SingleLeafIsSingleNode) {
  Rng rng(2);
  const auto t = MulticastTree::random_split(1, 2, rng);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_leaves(), 1u);
}

class RandomSplitSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RandomSplitSweep, ExactLeafCountAndValidStructure) {
  const auto [leaves, fanout] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const auto t = MulticastTree::random_split(leaves, fanout, rng);
    EXPECT_EQ(t.num_leaves(), leaves);
    // Interior nodes respect the fanout bound and have >= 2 children
    // (size-1 parts become leaves, so no unary chains from splitting).
    for (std::size_t u = 0; u < t.num_nodes(); ++u) {
      const auto kids = t.children(u);
      if (!kids.empty()) {
        EXPECT_GE(kids.size(), 2u);
        EXPECT_LE(kids.size(), fanout);
      }
    }
    // Leaf ids form a permutation of [0, leaves).
    std::vector<bool> seen(leaves, false);
    for (std::size_t u = 0; u < t.num_nodes(); ++u) {
      if (!t.is_leaf(u)) continue;
      ASSERT_LT(t.leaf_id(u), leaves);
      EXPECT_FALSE(seen[t.leaf_id(u)]);
      seen[t.leaf_id(u)] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomSplitSweep,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(2, 2),
                      std::make_pair<std::size_t, std::size_t>(10, 2),
                      std::make_pair<std::size_t, std::size_t>(100, 2),
                      std::make_pair<std::size_t, std::size_t>(100, 8),
                      std::make_pair<std::size_t, std::size_t>(1000, 16)));

TEST(FullMary, MatchesBinarySpecialCase) {
  const auto binary = MulticastTree::full_binary(4);
  const auto mary = MulticastTree::full_mary(4, 2);
  EXPECT_EQ(binary.num_nodes(), mary.num_nodes());
  EXPECT_EQ(binary.num_leaves(), mary.num_leaves());
  EXPECT_EQ(binary.height(), mary.height());
}

TEST(FullMary, TernaryShape) {
  const auto t = MulticastTree::full_mary(3, 3);
  EXPECT_EQ(t.num_leaves(), 27u);
  EXPECT_EQ(t.num_nodes(), 1u + 3u + 9u + 27u);
  EXPECT_EQ(t.height(), 3u);
  for (std::size_t u = 0; u < t.num_nodes(); ++u) {
    const auto kids = t.children(u);
    EXPECT_TRUE(kids.empty() || kids.size() == 3u);
  }
}

TEST(FullMary, Validation) {
  EXPECT_THROW(MulticastTree::full_mary(3, 1), std::invalid_argument);
  EXPECT_THROW(MulticastTree::full_mary(30, 8), std::invalid_argument);
}

TEST(FullMary, WiderFanoutSharesLessLoss) {
  // At equal receiver count and per-receiver loss, a SHALLOWER (wider)
  // tree has fewer shared interior nodes: its E[M] sits closer to the
  // independent-loss value than the deep binary tree's.
  const double p = 0.05;
  const auto deep = MulticastTree::full_binary(8);  // 256 leaves, height 8
  const auto wide = MulticastTree::full_mary(2, 16);  // 256 leaves, height 2
  ASSERT_EQ(deep.num_leaves(), wide.num_leaves());
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 400;
  protocol::TreeBatchTransmitter t1(deep, deep.node_loss_for_leaf_loss(p),
                                    Rng(21));
  protocol::TreeBatchTransmitter t2(wide, wide.node_loss_for_leaf_loss(p),
                                    Rng(22));
  const auto deep_res = protocol::sim_nofec(t1, cfg);
  const auto wide_res = protocol::sim_nofec(t2, cfg);
  EXPECT_LT(deep_res.mean_tx, wide_res.mean_tx);
}

TEST(RandomSplit, MulticastDeliversToAllWithoutLoss) {
  Rng rng(7);
  const auto t = MulticastTree::random_split(64, 4, rng);
  Rng rng2(8);
  const auto rcv = t.multicast_all(0.0, rng2);
  for (const char c : rcv) EXPECT_TRUE(c);
}

TEST(RandomSplit, DifferentSeedsDifferentShapes) {
  Rng a(1), b(2);
  const auto ta = MulticastTree::random_split(50, 4, a);
  const auto tb = MulticastTree::random_split(50, 4, b);
  EXPECT_TRUE(ta.num_nodes() != tb.num_nodes() ||
              ta.height() != tb.height());
}

TEST(RandomSplit, SharedLossStillBelowIndependent) {
  // The Section 4.1 conclusion is topology-generic: any tree correlates
  // losses and lowers E[M] versus independent receivers at equal
  // per-receiver loss (calibrated via the max depth, so the tree side is
  // even slightly optimistic).
  Rng rng(11);
  const auto t = MulticastTree::random_split(256, 3, rng);
  const double p = 0.05;
  protocol::TreeBatchTransmitter tree_tx(t, t.node_loss_for_leaf_loss(p),
                                         Rng(12));
  loss::BernoulliLossModel model(p);
  protocol::ProcessBatchTransmitter iid_tx(model, 256, Rng(13));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 300;
  const auto shared = protocol::sim_nofec(tree_tx, cfg);
  const auto indep = protocol::sim_nofec(iid_tx, cfg);
  EXPECT_LT(shared.mean_tx, indep.mean_tx);
}

}  // namespace
}  // namespace pbl::tree
