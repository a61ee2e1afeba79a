#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/layered.hpp"
#include "protocol/rounds.hpp"

namespace pbl::protocol {
namespace {

McConfig config(std::int64_t k, std::int64_t h, std::int64_t tgs = 400) {
  McConfig cfg;
  cfg.k = k;
  cfg.h = h;
  cfg.num_tgs = tgs;
  return cfg;
}

TEST(InterleavedLayered, ValidatesDepth) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 1, Rng(1));
  EXPECT_THROW(sim_layered_interleaved(tx, config(7, 1, 4), 0),
               std::invalid_argument);
}

TEST(InterleavedLayered, DepthOneMatchesPlainLayered) {
  // Same scheme, same RNG consumption order: depth 1 must be statistically
  // identical to sim_layered.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter t1(model, 50, Rng(3));
  ProcessBatchTransmitter t2(model, 50, Rng(4));
  const auto plain = sim_layered(t1, config(7, 2, 1200));
  const auto depth1 = sim_layered_interleaved(t2, config(7, 2, 1200), 1);
  EXPECT_NEAR(plain.mean_tx, depth1.mean_tx,
              3.0 * (plain.ci95 + depth1.ci95) + 0.01);
}

TEST(InterleavedLayered, DepthOneIsSimLayeredExactly) {
  // Depth 1 is sim_layered itself: same seed, same result and NAK log,
  // under bursty loss and lossy feedback.
  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(0.1, 3.0, Timing{}.delta);
  McConfig cfg = config(7, 2, 40);
  cfg.q_f = 0.3;
  std::vector<std::uint32_t> plain_naks, depth1_naks;
  cfg.nak_log = &plain_naks;
  ProcessBatchTransmitter t1(gilbert, 30, Rng(11));
  const auto plain = sim_layered(t1, cfg);
  cfg.nak_log = &depth1_naks;
  ProcessBatchTransmitter t2(gilbert, 30, Rng(11));
  const auto depth1 = sim_layered_interleaved(t2, cfg, 1);
  EXPECT_EQ(plain.mean_tx, depth1.mean_tx);
  EXPECT_EQ(plain.ci95, depth1.ci95);
  EXPECT_EQ(plain.mean_rounds, depth1.mean_rounds);
  EXPECT_EQ(plain.mean_time, depth1.mean_time);
  EXPECT_EQ(plain.packets_sent, depth1.packets_sent);
  EXPECT_FALSE(plain_naks.empty());
  EXPECT_EQ(plain_naks, depth1_naks);
}

TEST(InterleavedLayered, LosslessCostsExactlyOverhead) {
  loss::BernoulliLossModel model(0.0);
  ProcessBatchTransmitter tx(model, 20, Rng(5));
  const auto res = sim_layered_interleaved(tx, config(7, 2, 8), 4);
  EXPECT_DOUBLE_EQ(res.mean_tx, 9.0 / 7.0);
  EXPECT_EQ(res.mean_rounds, 1.0);
}

TEST(InterleavedLayered, IidLossIsInsensitiveToDepth) {
  // Without temporal correlation interleaving changes nothing (losses are
  // already independent across slots).
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  ProcessBatchTransmitter t1(model, 50, Rng(6));
  ProcessBatchTransmitter t2(model, 50, Rng(7));
  const auto d1 = sim_layered_interleaved(t1, config(7, 2, 1200), 1);
  const auto d8 = sim_layered_interleaved(t2, config(7, 2, 1200), 8);
  EXPECT_NEAR(d1.mean_tx, d8.mean_tx, 3.0 * (d1.ci95 + d8.ci95) + 0.02);
}

TEST(InterleavedLayered, RepairsBurstLossCollapse) {
  // The Fig. 15 negative result — layered (7+1) worse than no-FEC under
  // bursts — and the Section 4.2 remedy: enough interleaving restores
  // layered FEC towards its independent-loss performance.
  const double p = 0.03;
  McConfig cfg = config(7, 1, 800);
  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, 2.0, cfg.timing.delta);

  ProcessBatchTransmitter t1(gilbert, 200, Rng(8));
  const auto depth1 = sim_layered_interleaved(t1, cfg, 1);
  ProcessBatchTransmitter t8(gilbert, 200, Rng(9));
  const auto depth8 = sim_layered_interleaved(t8, cfg, 8);
  EXPECT_LT(depth8.mean_tx, depth1.mean_tx);

  // Deep interleaving approaches the independent-loss value.
  loss::BernoulliLossModel iid(p);
  ProcessBatchTransmitter ti(iid, 200, Rng(10));
  const auto indep = sim_layered(ti, cfg);
  EXPECT_NEAR(depth8.mean_tx, indep.mean_tx,
              3.0 * (depth8.ci95 + indep.ci95) + 0.05);
}

TEST(InterleavedLayered, DeeperIsMonotonicallyBetterUnderBursts) {
  const double p = 0.05;
  McConfig cfg = config(7, 2, 600);
  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, 3.0, cfg.timing.delta);
  double prev = 1e9;
  for (const std::size_t depth : {1u, 2u, 4u, 12u}) {
    ProcessBatchTransmitter tx(gilbert, 100, Rng(20 + depth));
    const auto res = sim_layered_interleaved(tx, cfg, depth);
    EXPECT_LT(res.mean_tx, prev + 0.06) << "depth=" << depth;
    prev = res.mean_tx;
  }
}

TEST(InterleavedLayered, LatencyCostOfInterleaving) {
  // Interleaving is not free: each block is stretched over depth * n
  // slots, so delivery latency grows with depth.
  const double p = 0.01;
  McConfig cfg = config(7, 1, 400);
  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, 2.0, cfg.timing.delta);
  ProcessBatchTransmitter t1(gilbert, 50, Rng(30));
  ProcessBatchTransmitter t8(gilbert, 50, Rng(31));
  const auto d1 = sim_layered_interleaved(t1, cfg, 1);
  const auto d8 = sim_layered_interleaved(t8, cfg, 8);
  EXPECT_GT(d8.mean_time, 2.0 * d1.mean_time);
}

}  // namespace
}  // namespace pbl::protocol
