// Robustness and edge-case behaviour of the DES protocols: extreme
// configurations must terminate with consistent statistics, and known
// limitations must fail loudly rather than hang.
#include <gtest/gtest.h>

#include "loss/loss_model.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/fec1_protocol.hpp"
#include "protocol/layered_protocol.hpp"
#include "protocol/np_protocol.hpp"

namespace pbl::protocol {
namespace {

TEST(NpRobustness, SinglePacketGroups) {
  // k = 1: every TG is one packet; parities are pure copies in RS terms
  // but the protocol machinery must still work.
  loss::BernoulliLossModel model(0.2);
  NpConfig cfg;
  cfg.k = 1;
  cfg.h = 30;
  cfg.packet_len = 16;
  NpSession session(model, 20, 10, cfg, 3);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_EQ(stats.data_sent, 10u);
}

TEST(NpRobustness, ZeroParityBudgetFailsCleanly) {
  // h = 0 turns NP into "no repair at all": under loss some TGs must
  // fail, but the session has to terminate with consistent accounting.
  loss::BernoulliLossModel model(0.3);
  NpConfig cfg;
  cfg.k = 5;
  cfg.h = 0;
  cfg.packet_len = 16;
  NpSession session(model, 20, 6, cfg, 5);
  const auto stats = session.run();
  EXPECT_FALSE(stats.all_delivered);
  EXPECT_EQ(stats.parity_sent, 0u);
  EXPECT_GT(stats.sender.tgs_exhausted + stats.sender.tgs_unconfirmed, 0u);
}

TEST(NpRobustness, SingleReceiver) {
  loss::BernoulliLossModel model(0.3);
  NpConfig cfg;
  cfg.k = 8;
  cfg.h = 60;
  cfg.packet_len = 16;
  NpSession session(model, 1, 5, cfg, 7);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  // One receiver: no suppression possible, one NAK per repair round.
  EXPECT_EQ(stats.receivers.naks_suppressed, 0u);
}

TEST(NpRobustness, LossyControlTerminatesButMayFail) {
  // KNOWN LIMITATION (documented): with lossy control a POLL can vanish;
  // the silent receiver looks complete to the sender.  The session must
  // still terminate, and the failure must be visible in all_delivered.
  // Control loss comes from the channel's control impairment, which
  // drops POLLs and NAKs on every leg, the NAK's sender leg included.
  loss::BernoulliLossModel model(0.4);
  NpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 16;
  cfg.impairment.seed = 9;
  cfg.impairment.control_drop = 0.4;
  NpSession session(model, 15, 5, cfg, 9);
  const auto stats = session.run();  // must not hang
  if (!stats.all_delivered) {
    SUCCEED() << "delivery failed visibly under lossy control, as expected";
  }
}

TEST(NpRobustness, ExtremeLossStillDeliversWithinBudget) {
  loss::BernoulliLossModel model(0.6);
  NpConfig cfg;
  cfg.k = 4;
  cfg.h = 200;
  cfg.packet_len = 16;
  NpSession session(model, 10, 3, cfg, 11);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_GT(stats.tx_per_packet, 2.0);  // ~1/(1-p) at least
}

TEST(NpRobustness, LargePopulationSoak) {
  // 2000 receivers through the full DES protocol: completes quickly and
  // with the expected shape (few NAKs thanks to suppression, parity
  // count near the k(E[M]-1) bound).
  loss::BernoulliLossModel model(0.01);
  NpConfig cfg;
  cfg.k = 16;
  cfg.h = 100;
  cfg.packet_len = 16;
  cfg.slot = 0.02;
  NpSession session(model, 2000, 3, cfg, 13);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_LT(stats.receivers.naks_sent, 2000u);
  EXPECT_LT(stats.tx_per_packet, 2.0);
}

// --- Adversarial impairment of the data path -------------------------
//
// The channel keeps control traffic clean (the paper's lossless-feedback
// assumption), so under reorder + duplication + corruption the protocols
// must still deliver every TG exactly once — duplicates are absorbed by
// the idempotent receive path and corruption becomes loss at the parse.

net::ImpairmentConfig adversarial_impairment(std::uint64_t seed) {
  net::ImpairmentConfig imp;
  imp.seed = seed;
  imp.dup_prob = 0.08;
  imp.corrupt_prob = 0.06;
  imp.reorder_prob = 0.15;
  imp.reorder_window = 4;
  imp.delay_jitter = 0.0005;
  return imp;
}

TEST(NpImpairment, DeliversUnderReorderDupCorruptAcrossLossRates) {
  for (const double p : {0.01, 0.05, 0.1, 0.25}) {
    loss::BernoulliLossModel model(p);
    NpConfig cfg;
    cfg.k = 8;
    cfg.h = 80;
    cfg.packet_len = 32;
    cfg.impairment = adversarial_impairment(31);
    NpSession session(model, 10, 4, cfg, 23);
    const auto stats = session.run();
    EXPECT_TRUE(stats.all_delivered) << "p = " << p;
    // Exactly-once completion: no TG completes twice, none is left over.
    EXPECT_EQ(stats.sender.tgs_completed, 4u) << "p = " << p;
    EXPECT_EQ(stats.sender.tgs_exhausted + stats.sender.tgs_unconfirmed, 0u)
        << "p = " << p;
    // The faults actually happened and were counted.
    EXPECT_GT(stats.impairment.duplicated, 0u);
    EXPECT_GT(stats.impairment.corrupted, 0u);
    EXPECT_GT(stats.impairment.corrupt_dropped, 0u);
    EXPECT_GT(stats.impairment.reordered, 0u);
    // Duplicated deliveries surface as duplicate receptions, not as data.
    EXPECT_GT(stats.receivers.duplicates, 0u);
  }
}

TEST(NpImpairment, SeededImpairmentIsReproducible) {
  const auto run_once = [] {
    loss::BernoulliLossModel model(0.05);
    NpConfig cfg;
    cfg.k = 8;
    cfg.h = 60;
    cfg.packet_len = 32;
    cfg.impairment = adversarial_impairment(97);
    NpSession session(model, 8, 3, cfg, 29);
    return session.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.parity_sent, b.parity_sent);
  EXPECT_EQ(a.receivers.naks_sent, b.receivers.naks_sent);
  EXPECT_EQ(a.receivers.duplicates, b.receivers.duplicates);
  EXPECT_EQ(a.impairment.corrupt_dropped, b.impairment.corrupt_dropped);
  EXPECT_EQ(a.impairment.reordered, b.impairment.reordered);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
}

TEST(NpImpairment, BurstDropsRecoveredByParities) {
  loss::BernoulliLossModel model(0.0);  // all loss comes from the bursts
  NpConfig cfg;
  cfg.k = 8;
  cfg.h = 80;
  cfg.packet_len = 32;
  cfg.impairment.seed = 41;
  cfg.impairment.burst_drop_p = 0.15;
  cfg.impairment.burst_len = 3.0;
  NpSession session(model, 6, 4, cfg, 37);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
  EXPECT_GT(stats.impairment.burst_dropped, 0u);
  EXPECT_GT(stats.parity_sent, 0u);  // the bursts forced repair rounds
}

TEST(LayeredImpairment, DeliversUnderReorderDupCorruptAcrossLossRates) {
  for (const double p : {0.01, 0.1, 0.25}) {
    loss::BernoulliLossModel model(p);
    LayeredConfig cfg;
    cfg.k = 7;
    cfg.h = 2;
    cfg.packet_len = 32;
    cfg.impairment = adversarial_impairment(43);
    LayeredSession session(model, 8, 40, cfg, 47);
    const auto stats = session.run();
    EXPECT_TRUE(stats.all_delivered) << "p = " << p;
    EXPECT_GT(stats.impairment.duplicated, 0u);
    EXPECT_GT(stats.impairment.corrupt_dropped, 0u);
    EXPECT_GT(stats.impairment.reordered, 0u);
  }
}

TEST(ArqRobustness, SinglePacketGroups) {
  loss::BernoulliLossModel model(0.2);
  ArqConfig cfg;
  cfg.k = 1;
  cfg.packet_len = 16;
  ArqSession session(model, 10, 8, cfg, 15);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
}

TEST(ArqRobustness, ExtremeLossTerminates) {
  loss::BernoulliLossModel model(0.7);
  ArqConfig cfg;
  cfg.k = 4;
  cfg.packet_len = 16;
  ArqSession session(model, 10, 3, cfg, 17);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);  // ARQ retries forever, so it gets there
  EXPECT_GT(stats.tx_per_packet, 3.0);
}

TEST(Fec1Robustness, SingleReceiverSinglePacket) {
  loss::BernoulliLossModel model(0.3);
  Fec1Config cfg;
  cfg.k = 1;
  cfg.h = 50;
  cfg.packet_len = 16;
  cfg.delay = 0.0004;
  Fec1Session session(model, 1, 4, cfg, 19);
  const auto stats = session.run();
  EXPECT_TRUE(stats.all_delivered);
}

}  // namespace
}  // namespace pbl::protocol
