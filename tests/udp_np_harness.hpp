// Loopback harness shared by the real-socket NP suites (test_udp_np,
// test_udp_differential).  A session runs on one private
// server::Reactor holding the SenderSessionDriver and every
// ReceiverSessionDriver, so the whole session is one thread; the loop
// stops once every driver reports finished, or when a watchdog fires.
// The group is opened on the active delivery path (group or fan-out; a
// ScopedUdpDeliveryOverride pins one), the sender socket's tx tap
// records each member's wire stream, and every receiver verifies each
// decoded TG against the payload through
// ReceiverSessionDriver::Options::expected.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/session_state.hpp"
#include "server/session_driver.hpp"
#include "util/rng.hpp"

namespace pbl::server::harness {

inline std::vector<net::TgBytes> random_groups(std::size_t tgs, std::size_t k,
                                               std::size_t len,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

/// A reactor that runs until a predicate over its drivers holds.  Hand
/// notifier() to each driver as its on_finished callback.
class Loop {
 public:
  Reactor reactor;

  std::function<void()> notifier() {
    return [this] {
      if (until_ && until_()) reactor.stop();
    };
  }

  /// Runs until `until()` holds; false if the watchdog fired first.
  bool run(std::function<bool()> until, double budget_s = 60.0) {
    if (until()) return true;
    until_ = std::move(until);
    bool wedged = false;
    const auto watchdog = reactor.add_timer(reactor.now() + budget_s, [&] {
      wedged = true;
      reactor.stop();
    });
    reactor.run();
    until_ = nullptr;  // the predicate may name drivers about to die
    if (!wedged) reactor.cancel_timer(watchdog);
    return !wedged;
  }

 private:
  std::function<bool()> until_;
};

/// What one receiver driver ended with.
struct ReceiverOutcome {
  net::UdpNpReceiverResult result;
  std::uint64_t payload_mismatches = 0;
  std::uint64_t redelivered_prior = 0;
};

/// Everything one session exposes.  Sender frames carry no ports
/// (feedback is the only port-carrying traffic, and it never crosses the
/// tap), so per-member streams compare cleanly across runs with
/// different ephemeral ports.
struct SessionRun {
  std::vector<std::vector<std::uint8_t>> tx;  ///< per-member wire stream
  net::UdpNpSenderStats sender;
  std::vector<ReceiverOutcome> receivers;
  bool wedged = false;  ///< the watchdog fired before every driver finished
};

struct SessionSetup {
  std::size_t receivers = 1;
  double data_loss = 0.0;  ///< injected DATA/PARITY loss at every receiver
  /// Per-receiver DATA/PARITY loss; when non-empty it replaces data_loss
  /// and holds one probability per receiver.
  std::vector<double> member_loss;
  /// Wire faults at every receiver; the seed is offset by the receiver
  /// index so the members see independent streams.
  net::ImpairmentConfig impairment{};
  double idle_timeout = 5.0;
  /// Per-receiver config override (crash one member, move its
  /// incarnation on, ...).
  std::function<void(std::size_t, net::UdpNpConfig&)> receiver_config;
};

/// Appends each frame the socket sends to its member's stream; a group
/// frame, sent once, lands in every member's stream.
inline net::UdpSocket::TxTap member_tap(
    std::vector<std::uint16_t> members,
    std::vector<std::vector<std::uint8_t>>& tx) {
  tx.resize(members.size());
  return [members = std::move(members), &tx](const net::FrameRef& frame) {
    for (std::size_t m = 0; m < members.size(); ++m)
      if (frame.group != 0 || members[m] == frame.dest_port)
        tx[m].insert(tx[m].end(), frame.bytes.begin(), frame.bytes.end());
  };
}

/// A receiver's sockets: its unicast socket and, on a multicast group,
/// its group socket.
struct Member {
  net::UdpSocket socket;
  std::optional<net::UdpSocket> group_socket;
};

/// Binds `count` members and joins each to `group`.
inline std::vector<Member> join_members(net::UdpGroup& group,
                                        std::size_t count) {
  std::vector<Member> members(count);
  for (auto& m : members) m.group_socket = group.join(m.socket.port());
  return members;
}

inline std::unique_ptr<ReceiverSessionDriver> make_receiver(
    Loop& loop, Member member, std::uint16_t sender_port,
    const std::vector<net::TgBytes>& groups, const net::UdpNpConfig& cfg,
    const SessionSetup& setup, std::size_t r) {
  net::UdpNpConfig rcfg = cfg;
  if (setup.receiver_config) setup.receiver_config(r, rcfg);
  ReceiverSessionDriver::Options opt;
  opt.idle_timeout = setup.idle_timeout;
  opt.data_loss =
      setup.member_loss.empty() ? setup.data_loss : setup.member_loss.at(r);
  opt.rng = Rng(99).split(r);
  opt.impairment = setup.impairment;
  if (opt.impairment.enabled() || opt.impairment.control_enabled())
    opt.impairment.seed += r;
  opt.expected = &groups;
  return std::make_unique<ReceiverSessionDriver>(
      loop.reactor, std::move(member.socket), sender_port, groups.size(),
      rcfg, std::move(opt), loop.notifier(), std::move(member.group_socket));
}

inline std::vector<ReceiverOutcome> outcomes(
    const std::vector<std::unique_ptr<ReceiverSessionDriver>>& receivers) {
  std::vector<ReceiverOutcome> out;
  for (const auto& r : receivers)
    out.push_back({r->result(), r->payload_mismatches(),
                   r->redelivered_prior()});
  return out;
}

inline SessionRun run_session(const std::vector<net::TgBytes>& groups,
                              net::UdpNpConfig cfg,
                              const SessionSetup& setup) {
  Loop loop;
  cfg.clock = &loop.reactor.clock();
  net::UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  net::UdpGroup group = net::UdpGroup::open();
  auto members = join_members(group, setup.receivers);

  SessionRun run;
  sender_socket.set_tx_tap(member_tap(group.members(), run.tx));
  std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
  for (std::size_t r = 0; r < setup.receivers; ++r)
    receivers.push_back(make_receiver(loop, std::move(members[r]),
                                      sender_port, groups, cfg, setup, r));
  SenderSessionDriver sender(loop.reactor, std::move(sender_socket), group,
                             cfg, groups, loop.notifier());
  for (auto& r : receivers) r->start();
  sender.start();
  run.wedged = !loop.run([&] {
    for (const auto& r : receivers)
      if (!r->finished()) return false;
    return sender.finished();
  });
  run.sender = sender.stats();
  run.receivers = outcomes(receivers);
  return run;
}

/// A sender that crashes and resumes from its journal on the same port,
/// across one receiver that stays alive through both lives.
struct CrashRun {
  SessionRun session;  ///< tx spans both lives; sender = life 2
  net::UdpNpSenderStats life1;
  bool resumed = false;              ///< life 2 recovered a prior life
  std::uint32_t incarnation = 0;     ///< life 2's incarnation
  bool complete_after_life1 = false; ///< journal state when life 1 died
  bool complete_after_life2 = false;
};

inline CrashRun run_crash_session(const std::vector<net::TgBytes>& groups,
                                  net::UdpNpConfig cfg,
                                  const std::string& journal,
                                  std::size_t crash_after_sends = 10) {
  std::remove(journal.c_str());
  constexpr std::uint64_t kSessionId = 0xF00D;

  Loop loop;
  cfg.clock = &loop.reactor.clock();
  net::UdpSocket first_socket;
  const std::uint16_t sender_port = first_socket.port();
  net::UdpGroup group = net::UdpGroup::open();
  auto members = join_members(group, 1);

  CrashRun out;
  SessionRun& run = out.session;
  const auto tap = member_tap(group.members(), run.tx);
  first_socket.set_tx_tap(tap);
  SessionSetup setup;
  setup.idle_timeout = 10.0;
  std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
  receivers.push_back(make_receiver(loop, std::move(members[0]), sender_port,
                                    groups, cfg, setup, 0));
  receivers[0]->start();

  {
    net::UdpNpConfig c1 = cfg;
    const auto sj =
        core::open_session_journal(journal, kSessionId, groups.size(), c1);
    c1.crash_after_sends = crash_after_sends;
    SenderSessionDriver life1(loop.reactor, std::move(first_socket), group,
                              c1, groups, loop.notifier());
    life1.start();
    run.wedged = !loop.run([&] { return life1.finished(); });
    out.life1 = life1.stats();
    out.complete_after_life1 = sj->state().all_complete();
  }  // the dead life's socket closes; its port frees up

  net::UdpNpConfig c2 = cfg;
  const auto sj =
      core::open_session_journal(journal, kSessionId, groups.size(), c2);
  out.resumed = sj->resumed();
  out.incarnation = sj->state().incarnation;
  net::UdpSocket second_socket(sender_port);
  second_socket.set_tx_tap(tap);
  SenderSessionDriver life2(loop.reactor, std::move(second_socket), group, c2,
                            groups, loop.notifier());
  life2.start();
  run.wedged = !loop.run([&] {
    return life2.finished() && receivers[0]->finished();
  }) || run.wedged;
  run.sender = life2.stats();
  run.receivers = outcomes(receivers);
  out.complete_after_life2 = sj->state().all_complete();
  std::remove(journal.c_str());
  return out;
}

}  // namespace pbl::server::harness
