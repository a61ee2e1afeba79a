// Event-count validation of the Fig. 17 processing model: the per-packet
// CPU times derived from a real protocol run's event counts must track
// Eqs. (13)-(16).
#include "protocol/processing_accounting.hpp"

#include <gtest/gtest.h>

#include "loss/loss_model.hpp"
#include "util/stats.hpp"

namespace pbl::protocol {
namespace {

NpConfig config(std::size_t k) {
  NpConfig cfg;
  cfg.k = k;
  cfg.h = 150;
  cfg.packet_len = 32;
  cfg.slot = 0.02;  // good suppression: close to the model's 1 NAK/round
  return cfg;
}

TEST(ProcessingAccounting, LosslessSessionIsPurePacketCost) {
  loss::BernoulliLossModel model(0.0);
  NpSession session(model, 10, 5, config(20), 1);
  const auto stats = session.run();
  const auto cpu = np_session_cpu(stats, 10, 20, 5);
  const analysis::ProcessingCosts c;
  // No loss: no encoding, no NAKs, no decoding.
  EXPECT_NEAR(cpu.sender_per_packet, c.xp, 1e-12);
  EXPECT_NEAR(cpu.receiver_per_packet, c.yp, 1e-12);
}

TEST(ProcessingAccounting, TracksClosedFormUnderLoss) {
  const double p = 0.05;
  const std::size_t receivers = 200, k = 20, tgs = 15;
  loss::BernoulliLossModel model(p);

  RunningStats sender_pp, receiver_pp;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NpSession session(model, receivers, tgs, config(k), seed);
    const auto stats = session.run();
    ASSERT_TRUE(stats.all_delivered);
    const auto cpu = np_session_cpu(stats, receivers, k, tgs);
    sender_pp.add(cpu.sender_per_packet);
    receiver_pp.add(cpu.receiver_per_packet);
  }

  const auto model_rates = analysis::np_rates(
      static_cast<std::int64_t>(k), p, static_cast<double>(receivers));
  const double model_sender = 1.0 / model_rates.sender;
  const double model_receiver = 1.0 / model_rates.receiver;
  // The protocol deviates from the idealised model (imperfect NAK
  // suppression, integer parities per round), so allow a 35% band.
  EXPECT_NEAR(sender_pp.mean(), model_sender, 0.35 * model_sender);
  EXPECT_NEAR(receiver_pp.mean(), model_receiver, 0.35 * model_receiver);
}

TEST(ProcessingAccounting, SenderIsTheBottleneckUnderPaperCosts) {
  // Section 5's conclusion, measured: with the paper's encode/decode
  // constants the sender does several times the per-receiver work.
  loss::BernoulliLossModel model(0.05);
  NpSession session(model, 200, 10, config(20), 7);
  const auto stats = session.run();
  ASSERT_TRUE(stats.all_delivered);
  const auto cpu = np_session_cpu(stats, 200, 20, 10);
  EXPECT_GT(cpu.sender_per_packet, 1.5 * cpu.receiver_per_packet);
}

TEST(ProcessingAccounting, ModernCodingConstantsShrinkSenderCost) {
  loss::BernoulliLossModel model(0.05);
  NpSession session(model, 100, 8, config(20), 11);
  const auto stats = session.run();
  analysis::ProcessingCosts modern;
  modern.ce = 1e-6;
  modern.cd = 1e-6;
  const auto paper_cpu = np_session_cpu(stats, 100, 20, 8);
  const auto modern_cpu = np_session_cpu(stats, 100, 20, 8, modern);
  EXPECT_LT(modern_cpu.sender, paper_cpu.sender);
}

}  // namespace
}  // namespace pbl::protocol
