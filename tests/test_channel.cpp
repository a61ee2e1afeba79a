#include "net/channel.hpp"

#include <gtest/gtest.h>

namespace pbl::net {
namespace {

fec::Packet data_packet(std::uint32_t tg, std::uint16_t index) {
  fec::Packet p;
  p.header.type = fec::PacketType::kData;
  p.header.tg = tg;
  p.header.index = index;
  return p;
}

TEST(MulticastChannel, ValidatesConstruction) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.0);
  EXPECT_THROW(MulticastChannel(sim, model, 0, 0.01), std::invalid_argument);
  EXPECT_THROW(MulticastChannel(sim, model, 3, -1.0), std::invalid_argument);
}

TEST(MulticastChannel, LosslessDeliversToAll) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.0);
  MulticastChannel ch(sim, model, 5, 0.01);
  std::vector<int> got(5, 0);
  ch.set_receiver_handler([&](std::size_t r, const fec::Packet&) { ++got[r]; });
  ch.multicast_down(data_packet(0, 0));
  sim.run();
  for (int g : got) EXPECT_EQ(g, 1);
  EXPECT_EQ(ch.stats().data_multicasts, 1u);
  EXPECT_EQ(ch.stats().data_deliveries, 5u);
  EXPECT_EQ(ch.stats().data_drops, 0u);
}

TEST(MulticastChannel, TotalLossDeliversNothing) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(1.0);
  MulticastChannel ch(sim, model, 5, 0.01);
  int got = 0;
  ch.set_receiver_handler([&](std::size_t, const fec::Packet&) { ++got; });
  ch.multicast_down(data_packet(0, 0));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(ch.stats().data_drops, 5u);
}

TEST(MulticastChannel, DeliveryDelayed) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.0);
  MulticastChannel ch(sim, model, 1, 0.25);
  double delivered_at = -1.0;
  ch.set_receiver_handler(
      [&](std::size_t, const fec::Packet&) { delivered_at = sim.now(); });
  ch.multicast_down(data_packet(0, 0));
  sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.25);
}

TEST(MulticastChannel, EmpiricalLossRate) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.3);
  MulticastChannel ch(sim, model, 10, 0.0);
  ch.set_receiver_handler([](std::size_t, const fec::Packet&) {});
  for (int i = 0; i < 2000; ++i) ch.multicast_down(data_packet(0, 0));
  sim.run();
  const double rate = static_cast<double>(ch.stats().data_drops) /
                      static_cast<double>(ch.stats().data_deliveries +
                                          ch.stats().data_drops);
  EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(MulticastChannel, FeedbackReachesSenderAndPeers) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(1.0);  // data path fully lossy...
  MulticastChannel ch(sim, model, 3, 0.01);
  int sender_got = 0;
  std::vector<int> peer_got(3, 0);
  ch.set_sender_handler([&](std::size_t from, const fec::Packet&) {
    EXPECT_EQ(from, 1u);
    ++sender_got;
  });
  ch.set_receiver_handler(
      [&](std::size_t r, const fec::Packet&) { ++peer_got[r]; });
  fec::Packet nak;
  nak.header.type = fec::PacketType::kNak;
  ch.multicast_up(1, nak);
  sim.run();
  EXPECT_EQ(sender_got, 1);                // ...but control is lossless
  EXPECT_EQ(peer_got[0], 1);
  EXPECT_EQ(peer_got[1], 0);               // sender excluded from own NAK
  EXPECT_EQ(peer_got[2], 1);
  EXPECT_EQ(ch.stats().feedback_multicasts, 1u);
}

TEST(MulticastChannel, LossyControlDropsPeerNaks) {
  // Control loss comes only from the control impairment, which drops the
  // sender leg and every peer leg alike.
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.0);
  MulticastChannel ch(sim, model, 3, 0.0);
  ImpairmentConfig cfg;
  cfg.control_drop = 1.0;
  ch.set_impairment(cfg);
  int sender_got = 0, peers_got = 0;
  ch.set_sender_handler(
      [&](std::size_t, const fec::Packet&) { ++sender_got; });
  ch.set_receiver_handler(
      [&](std::size_t, const fec::Packet&) { ++peers_got; });
  fec::Packet nak;
  nak.header.type = fec::PacketType::kNak;
  ch.multicast_up(0, nak);
  sim.run();
  EXPECT_EQ(sender_got, 0);
  EXPECT_EQ(peers_got, 0);
  EXPECT_EQ(ch.impairment_stats().control_dropped, 3u);
}

TEST(MulticastChannel, ControlDownIsLossless) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(1.0);
  MulticastChannel ch(sim, model, 4, 0.0);
  int got = 0;
  ch.set_receiver_handler([&](std::size_t, const fec::Packet&) { ++got; });
  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  ch.multicast_control_down(poll);
  sim.run();
  EXPECT_EQ(got, 4);
}

TEST(MulticastChannel, BadFeedbackIndexRejected) {
  sim::Simulator sim;
  loss::BernoulliLossModel model(0.0);
  MulticastChannel ch(sim, model, 2, 0.0);
  fec::Packet nak;
  EXPECT_THROW(ch.multicast_up(2, nak), std::out_of_range);
}

}  // namespace
}  // namespace pbl::net
