// Cross-module integration tests: the full DES protocols against the
// closed forms, the codec inside the protocol loop, and the paper's
// qualitative claims measured end-to-end.
#include <gtest/gtest.h>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"
#include "analysis/processing.hpp"
#include "core/reliable_multicast.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/np_protocol.hpp"
#include "sim/replicator.hpp"

namespace pbl {
namespace {

TEST(Integration, NpBeatsArqOnBandwidthAtScale) {
  // The headline claim: hybrid ARQ (NP) needs fewer transmissions per
  // packet than plain ARQ (N2-style) for a large receiver population.
  const double p = 0.05;
  loss::BernoulliLossModel model(p);

  protocol::NpConfig np_cfg;
  np_cfg.k = 8;
  np_cfg.h = 60;
  np_cfg.packet_len = 32;
  protocol::ArqConfig arq_cfg;
  arq_cfg.k = 8;
  arq_cfg.packet_len = 32;

  // Replications fan out across the pool; each returns its sample and the
  // assertions run on the merged results (GTest asserts are not
  // thread-safe inside worker tasks).
  struct Sample {
    double np_tx, arq_tx;
    bool ok;
  };
  const auto samples = sim::replicate_map<Sample>(
      5, /*seed=*/1, [&](std::uint64_t, Rng& rng) {
        const std::uint64_t session_seed = rng();
        protocol::NpSession np(model, 60, 8, np_cfg, session_seed);
        const auto np_stats = np.run();
        protocol::ArqSession arq(model, 60, 8, arq_cfg, session_seed);
        const auto arq_stats = arq.run();
        return Sample{np_stats.tx_per_packet, arq_stats.tx_per_packet,
                      np_stats.all_delivered && arq_stats.all_delivered};
      });

  RunningStats np_tx, arq_tx;
  for (const auto& s : samples) {
    ASSERT_TRUE(s.ok);
    np_tx.add(s.np_tx);
    arq_tx.add(s.arq_tx);
  }
  EXPECT_LT(np_tx.mean(), arq_tx.mean());
}

TEST(Integration, NpFeedbackIsPerGroupNotPerPacket) {
  // NP sends (ideally) one NAK per round; ARQ NAKs identify packets.
  // Under equal conditions NP generates no more NAKs than ARQ.
  const double p = 0.08;
  loss::BernoulliLossModel model(p);
  protocol::NpConfig np_cfg;
  np_cfg.k = 10;
  np_cfg.h = 60;
  np_cfg.packet_len = 32;
  protocol::ArqConfig arq_cfg;
  arq_cfg.k = 10;
  arq_cfg.packet_len = 32;

  protocol::NpSession np(model, 80, 6, np_cfg, 21);
  protocol::ArqSession arq(model, 80, 6, arq_cfg, 21);
  const auto np_stats = np.run();
  const auto arq_stats = arq.run();
  ASSERT_TRUE(np_stats.all_delivered);
  ASSERT_TRUE(arq_stats.all_delivered);
  EXPECT_LE(np_stats.receivers.naks_sent, arq_stats.naks_sent + 5);
}

TEST(Integration, NpDuplicatesFarBelowArq) {
  // Reduction of unnecessary receptions (paper Section 2.1).
  const double p = 0.05;
  loss::BernoulliLossModel model(p);
  protocol::NpConfig np_cfg;
  np_cfg.k = 8;
  np_cfg.h = 60;
  np_cfg.packet_len = 32;
  protocol::ArqConfig arq_cfg;
  arq_cfg.k = 8;
  arq_cfg.packet_len = 32;

  protocol::NpSession np(model, 100, 6, np_cfg, 31);
  protocol::ArqSession arq(model, 100, 6, arq_cfg, 31);
  const auto np_stats = np.run();
  const auto arq_stats = arq.run();
  ASSERT_TRUE(np_stats.all_delivered);
  ASSERT_TRUE(arq_stats.all_delivered);
  EXPECT_LT(np_stats.receivers.duplicates * 2,
            arq_stats.duplicate_receptions + 1);
}

TEST(Integration, FacadeOrderingMatchesFigure5) {
  // no FEC > layered > integrated at R = 1000, p = 0.01 (Fig. 5), with
  // everything measured by simulation through the public API.
  core::MulticastConfig cfg;
  cfg.k = 7;
  cfg.receivers = 1000;
  cfg.p = 0.01;
  cfg.num_tgs = 400;
  cfg.seed = 5;

  cfg.mode = core::RecoveryMode::kNoFec;
  const auto nofec = core::simulate(cfg);
  cfg.mode = core::RecoveryMode::kLayeredFec;
  cfg.h = 7;
  const auto layered = core::simulate(cfg);
  cfg.mode = core::RecoveryMode::kIntegratedFec2;
  cfg.h = 0;
  const auto integrated = core::simulate(cfg);

  EXPECT_LT(integrated.mean_tx, layered.mean_tx);
  EXPECT_LT(layered.mean_tx, nofec.mean_tx);
}

TEST(Integration, GilbertBurstsHurtSmallGroupsEndToEnd) {
  // Full NP protocol under the paper's burst model: burst loss costs more
  // than independent loss at equal p for k = 8 (short blocks straddle a
  // whole burst).
  const double p = 0.05;
  protocol::NpConfig cfg;
  cfg.k = 8;
  cfg.h = 60;
  cfg.packet_len = 32;
  cfg.delta = 0.040;

  loss::BernoulliLossModel iid(p);
  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, 3.0, cfg.delta);

  struct Sample {
    double iid_tx, burst_tx;
    bool ok;
  };
  const auto samples = sim::replicate_map<Sample>(
      6, /*seed=*/1, [&](std::uint64_t, Rng& rng) {
        const std::uint64_t session_seed = rng();
        protocol::NpSession a(iid, 40, 6, cfg, session_seed);
        const auto sa = a.run();
        protocol::NpSession b(gilbert, 40, 6, cfg, session_seed);
        const auto sb = b.run();
        return Sample{sa.tx_per_packet, sb.tx_per_packet,
                      sa.all_delivered && sb.all_delivered};
      });

  RunningStats iid_tx, burst_tx;
  for (const auto& s : samples) {
    ASSERT_TRUE(s.ok);
    iid_tx.add(s.iid_tx);
    burst_tx.add(s.burst_tx);
  }
  EXPECT_GT(burst_tx.mean(), iid_tx.mean() - 0.02);
}

TEST(Integration, ThroughputModelConsistentWithMeasuredEncodeCounts) {
  // The Fig. 17 model says the NP sender encodes k(E[M]-1) parities per
  // TG; the DES protocol's encode counter should be in that ballpark.
  const double p = 0.05;
  const std::size_t receivers = 50;
  loss::BernoulliLossModel model(p);
  protocol::NpConfig cfg;
  cfg.k = 10;
  cfg.h = 80;
  cfg.packet_len = 32;

  const std::size_t tgs = 10;
  struct Sample {
    double encodes_per_tg;
    bool ok;
  };
  const auto samples = sim::replicate_map<Sample>(
      6, /*seed=*/1, [&](std::uint64_t, Rng& rng) {
        protocol::NpSession session(model, receivers, tgs, cfg, rng());
        const auto stats = session.run();
        return Sample{static_cast<double>(stats.parities_encoded) /
                          static_cast<double>(tgs),
                      stats.all_delivered};
      });

  RunningStats encodes_per_tg;
  for (const auto& s : samples) {
    ASSERT_TRUE(s.ok);
    encodes_per_tg.add(s.encodes_per_tg);
  }
  const double em = analysis::expected_tx_integrated_ideal(
      10, 0, p, static_cast<double>(receivers));
  const double predicted = 10.0 * (em - 1.0);
  EXPECT_NEAR(encodes_per_tg.mean(), predicted, 0.5 * predicted + 0.5);
}

}  // namespace
}  // namespace pbl
