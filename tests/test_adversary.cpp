// The Byzantine member on a Reactor over a ManualClock: the attack is
// paced by the injected clock alone, its content is a pure function of
// the seed, it learns the round from the sender's traffic through its
// reactor fds, and stop() leaves the reactor as start() found it.  No
// sleeps: time only moves when the test says so.

#include "server/adversary.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fec/packet.hpp"
#include "protocol/retry.hpp"
#include "util/rng.hpp"

namespace pbl::server {
namespace {

constexpr double kRate = 200.0;

AdversaryConfig aimed_at(std::uint16_t sink_port,
                         AdversaryProfile profile = AdversaryProfile::kStorm) {
  AdversaryConfig cfg;
  cfg.profile = profile;
  cfg.sender_port = sink_port;
  cfg.rate = kRate;
  cfg.seed = 77;
  cfg.k = 4;
  cfg.num_tgs = 8;
  return cfg;
}

/// Every frame queued at `sink`, in arrival order.
std::vector<fec::Packet> drain(net::UdpSocket& sink) {
  std::vector<fec::Packet> got;
  while (auto dg = sink.receive_from(0.0)) got.push_back(dg->packet);
  return got;
}

/// Starts `adversary`, then advances `clock` by `seconds` in 1 ms steps,
/// one reactor round per step; returns every frame `sink` received.
std::vector<fec::Packet> run_for(double seconds, AdversaryPeer& adversary,
                                 protocol::ManualClock& clock,
                                 Reactor& reactor, net::UdpSocket& sink) {
  adversary.start();
  reactor.poll_once(0.0);
  std::vector<fec::Packet> got = drain(sink);
  for (int ms = 0; ms < static_cast<int>(seconds * 1000.0); ++ms) {
    clock.advance(0.001);
    reactor.poll_once(0.0);
    for (auto& p : drain(sink)) got.push_back(std::move(p));
  }
  return got;
}

TEST(AdversaryPeer, OneSecondAtRateRSendsRFramesPlusAtMostTheBurst) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  net::UdpSocket sink;
  AdversaryPeer adversary(reactor, aimed_at(sink.port()));
  const auto got = run_for(1.0, adversary, clock, reactor, sink);
  EXPECT_GE(got.size(), kRate);
  EXPECT_LE(got.size(), kRate + AdversaryPeer::kBurst);
}

TEST(AdversaryPeer, AFrozenClockSendsNothingAfterTheBurst) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  net::UdpSocket sink;
  AdversaryPeer adversary(reactor, aimed_at(sink.port()));
  adversary.start();
  std::size_t frames = 0;
  for (int round = 0; round < 100; ++round) {
    reactor.poll_once(0.0);
    frames += drain(sink).size();
  }
  EXPECT_EQ(frames, static_cast<std::size_t>(AdversaryPeer::kBurst));
}

TEST(AdversaryPeer, SpoofedFeedbackFollowsTheSeedsDraws) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  net::UdpSocket sink;
  AdversaryConfig cfg = aimed_at(sink.port(), AdversaryProfile::kSpoof);
  cfg.victims = {1001, 1002, 1003};
  AdversaryPeer adversary(reactor, cfg);
  const auto got = run_for(0.25, adversary, clock, reactor, sink);
  ASSERT_GE(got.size(), 50u);

  // Each spoofed frame draws its victim, then whether it demands k
  // (a forged NAK) or nothing (a forged ACK).
  Rng rng(cfg.seed);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::uint16_t victim =
        cfg.victims[static_cast<std::size_t>(rng.below(cfg.victims.size()))];
    const std::uint16_t count =
        rng.bernoulli(0.5) ? static_cast<std::uint16_t>(cfg.k) : 0;
    EXPECT_EQ(got[i].header.type, fec::PacketType::kNak) << "frame " << i;
    EXPECT_EQ(got[i].header.index, victim) << "frame " << i;
    EXPECT_EQ(got[i].header.count, count) << "frame " << i;
  }
}

TEST(AdversaryPeer, ForgedFeedbackCarriesTheRoundItOverheard) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  net::UdpSocket sink;
  AdversaryPeer adversary(reactor, aimed_at(sink.port()));
  adversary.start();
  reactor.poll_once(0.0);
  drain(sink);  // the opening burst, sent before anything was heard

  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  poll.header.tg = 5;
  poll.header.seq = 41;
  poll.header.incarnation = 3;
  sink.send_to(adversary.port(), poll);
  reactor.poll_once(0.0);  // the adversary's fd handler learns the round
  clock.advance(1.0 / kRate);
  reactor.poll_once(0.0);
  const auto got = drain(sink);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back().header.tg, 5u);
  EXPECT_EQ(got.back().header.seq, 41u);
  EXPECT_EQ(got.back().header.incarnation, 3u);
  EXPECT_EQ(got.back().header.count, 4u);  // max demand: k
}

TEST(AdversaryPeer, StopReturnsTheReactorToItsStateBeforeStart) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  net::UdpSocket sink;
  net::UdpGroup group = net::UdpGroup::open();
  const std::size_t fds = reactor.fd_count();
  const std::size_t timers = reactor.timer_count();
  const std::size_t sockets = group.multicast() ? 2 : 1;
  {
    AdversaryPeer adversary(reactor, aimed_at(sink.port()));
    adversary.join(group);
    adversary.start();
    EXPECT_EQ(reactor.fd_count(), fds + sockets);
    EXPECT_EQ(reactor.timer_count(), timers + 1);
    clock.advance(0.1);
    reactor.poll_once(0.0);  // the timer fired and re-armed itself
    EXPECT_EQ(reactor.timer_count(), timers + 1);
    adversary.stop();
    EXPECT_EQ(reactor.fd_count(), fds);
    EXPECT_EQ(reactor.timer_count(), timers);
    adversary.stop();  // idempotent
    EXPECT_EQ(reactor.fd_count(), fds);
    EXPECT_EQ(reactor.timer_count(), timers);
    adversary.start();  // and the destructor stops a running one
  }
  EXPECT_EQ(reactor.fd_count(), fds);
  EXPECT_EQ(reactor.timer_count(), timers);
}

}  // namespace
}  // namespace pbl::server
