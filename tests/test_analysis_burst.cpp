#include "analysis/burst.hpp"

#include <gtest/gtest.h>

#include "analysis/layered.hpp"
#include "analysis/qfunc.hpp"
#include "protocol/rounds.hpp"

namespace pbl::analysis {
namespace {

TEST(QBurst, Validation) {
  EXPECT_THROW(q_rm_loss_burst(0, 1, 0.01, 2.0, 0.04), std::invalid_argument);
  EXPECT_THROW(q_rm_loss_burst(7, 1, 0.0, 2.0, 0.04), std::invalid_argument);
  EXPECT_THROW(q_rm_loss_burst(7, 1, 0.01, 1.0, 0.04), std::invalid_argument);
  EXPECT_THROW(q_rm_loss_burst(7, 1, 0.01, 2.0, 0.0), std::invalid_argument);
}

TEST(QBurst, NearUnitBurstRecoversTheIidFormula) {
  // mean_burst -> 1 makes consecutive samples independent: the DP must
  // reproduce Eq. (2).
  for (const auto& [k, h, p] : {std::tuple<int, int, double>{7, 1, 0.01},
                               {7, 3, 0.05}, {20, 2, 0.1}}) {
    const double dp = q_rm_loss_burst(k, h, p, 1.0001, 0.04);
    const double iid = q_rm_loss(k, k + h, p);
    EXPECT_NEAR(dp, iid, 0.02 * iid + 1e-9) << k << " " << h << " " << p;
  }
}

TEST(QBurst, BurstsInflateResidualLoss) {
  // Loss clustering concentrates losses in fewer blocks but, when a block
  // is hit, it is hit harder than the binomial tail expects: q rises.
  const double iid_like = q_rm_loss_burst(7, 1, 0.01, 1.0001, 0.04);
  const double bursty = q_rm_loss_burst(7, 1, 0.01, 2.0, 0.04);
  const double very_bursty = q_rm_loss_burst(7, 1, 0.01, 4.0, 0.04);
  EXPECT_GT(bursty, 2.0 * iid_like);
  EXPECT_GT(very_bursty, bursty);
}

TEST(QBurst, WiderSpacingRestoresIndependence) {
  // Stretching the block in time (larger delta at fixed burst DURATION,
  // i.e. fixed rates) weakens the per-slot correlation: q falls towards
  // the iid value.  Emulate by shrinking mean_burst with delta growth
  // consistent with fixed exit rate.
  const double tight = q_rm_loss_burst(7, 1, 0.01, 4.0, 0.04);
  const double loose = q_rm_loss_burst(7, 1, 0.01, 1.2, 0.04);
  EXPECT_LT(loose, tight);
}

TEST(QBurst, MoreParitiesStillHelp) {
  double prev = 1.0;
  for (int h : {0, 1, 2, 4}) {
    const double q = q_rm_loss_burst(7, h, 0.05, 2.0, 0.04);
    EXPECT_LT(q, prev);
    prev = q;
  }
}

TEST(LayeredBurst, MatchesTheFig15Simulation) {
  // The semi-analytic model against sim_layered over the Gilbert channel
  // at the paper's Fig. 15 parameters (T = 300 ms decorrelates rounds).
  const double p = 0.01, burst = 2.0;
  const protocol::Timing timing{};  // 40 ms / 300 ms
  for (const double receivers : {1.0, 32.0, 300.0}) {
    const auto gilbert =
        loss::GilbertLossModel::from_packet_stats(p, burst, timing.delta);
    protocol::ProcessBatchTransmitter tx(gilbert,
                                         static_cast<std::size_t>(receivers),
                                         Rng(5));
    protocol::McConfig cfg;
    cfg.k = 7;
    cfg.h = 1;
    cfg.num_tgs = 4000;
    cfg.timing = timing;
    const auto sim = protocol::sim_layered(tx, cfg);
    const double model =
        expected_tx_layered_burst(7, 1, p, burst, receivers, timing);
    EXPECT_NEAR(sim.mean_tx, model, 3.0 * sim.ci95 + 0.04 * model)
        << "R=" << receivers;
  }
}

TEST(LayeredBurst, ReproducesTheFig15Inversion) {
  // The paper's headline: under bursts layered (7+1) is WORSE than
  // no-FEC — now visible analytically, no simulation required.
  const protocol::Timing timing{};
  for (const double receivers : {10.0, 100.0, 1000.0, 10000.0}) {
    const double layered =
        expected_tx_layered_burst(7, 1, 0.01, 2.0, receivers, timing);
    const double nofec = expected_tx_nofec_burst(0.01, receivers);
    EXPECT_GT(layered, nofec) << receivers;
  }
  // ...while under (near-)independent loss the same code wins at scale.
  EXPECT_LT(expected_tx_layered_burst(7, 1, 0.01, 1.0001, 1e4, timing),
            expected_tx_nofec_burst(0.01, 1e4));
}

}  // namespace
}  // namespace pbl::analysis
