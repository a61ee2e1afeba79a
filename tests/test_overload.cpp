// Overload hardening (docs/ROBUSTNESS.md, "Overload"): sustained
// kernel pushback and injected resource exhaustion are ABSORBED —
// sessions complete, counters record the stress — or surfaced as a
// structured PartialDeliveryReport; never a crash, a hang, or silent
// loss.  Every test runs under a reactor watchdog timer so a regression
// to the old busy-loop/park behaviour fails fast instead of wedging CI.
//
// Chaos runs (CI) perturb the seeds via PBL_CHAOS_SEED; the properties
// below must hold for every seed.  The injected-EAGAIN cases run under
// group delivery and under unicast fan-out.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "server/server.hpp"
#include "util/rng.hpp"

namespace pbl::server {
namespace {

std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

std::vector<net::TgBytes> make_payload(std::uint64_t id, std::size_t tgs,
                                       std::size_t k, std::size_t packet_len) {
  Rng rng = Rng(chaos_seed(7171)).split(id);
  std::vector<net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(packet_len);
      for (auto& byte : pkt) byte = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pbl_overload_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ServerConfig base_config() {
    ServerConfig cfg;
    cfg.max_sessions = 64;
    cfg.np.k = 4;
    cfg.np.h = 8;
    cfg.np.packet_len = 32;
    cfg.np.poll_window = 0.02;
    cfg.np.reliable_control = true;
    cfg.receiver_idle_timeout = 5.0;
    cfg.journal_dir = dir_;
    cfg.exit_when_idle = true;
    return cfg;
  }

  MulticastServer::SessionSpec make_spec(std::uint64_t id, std::size_t tgs,
                                         double loss = 0.0,
                                         std::size_t receivers = 2) {
    MulticastServer::SessionSpec spec;
    spec.id = id;
    spec.groups = make_payload(id, tgs, 4, 32);
    spec.receivers = receivers;
    spec.data_loss = loss;
    spec.seed = Rng(chaos_seed(99)).split(id)();
    return spec;
  }

  /// Runs the reactor with a wedge detector: a regression that parks or
  /// busy-loops the reactor trips the watchdog instead of hanging CI.
  void run_guarded(Reactor& reactor, double budget_s = 60.0) {
    bool wedged = false;
    reactor.add_timer(reactor.now() + budget_s, [&] {
      wedged = true;
      reactor.stop();
    });
    reactor.run();
    ASSERT_FALSE(wedged) << "watchdog fired: overload run wedged";
  }

  /// Runs `body` once per delivery path, group delivery then unicast
  /// fan-out, each from an empty journal directory.
  template <typename Body>
  void on_each_delivery(Body body) {
    for (const auto delivery :
         {net::UdpDelivery::kGroup, net::UdpDelivery::kFanOut}) {
      SCOPED_TRACE(net::to_string(delivery));
      net::ScopedUdpDeliveryOverride pin(delivery);
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
      body();
    }
  }

  std::string dir_;
};

TEST_F(OverloadTest, SustainedEagainAbsorbed) {
  on_each_delivery([&] {
    // Every 5th send syscall EAGAINs for a 3-attempt burst: the driver
    // must defer and retry on its flush timer, never spin or give up.
    Reactor reactor;
    ServerConfig cfg = base_config();
    cfg.faults.send_eagain_every = 5;
    cfg.faults.send_eagain_burst = 3;
    MulticastServer server(reactor, cfg);
    for (std::uint64_t id = 0; id < 3; ++id)
      ASSERT_TRUE(server.submit(make_spec(id, 3, 0.1)));
    run_guarded(reactor);

    EXPECT_EQ(server.completed_sessions(), 3u);
    EXPECT_EQ(server.failed_sessions(), 0u);
    EXPECT_EQ(server.payload_mismatches_total(), 0u);
    server.snapshot_json();  // refreshes the fault counters
    EXPECT_GT(server.server_metrics().counter("fault_injected_send"), 0u);
    EXPECT_GT(server.server_metrics().counter("would_block_total"), 0u);
  });
}

TEST_F(OverloadTest, TinyArenaCompletesWithDeferrals) {
  // One arena frame for four-packet bursts: the burst engine must fill
  // each burst across multiple arena generations — same bytes delivered,
  // bounded memory, deferrals counted.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.arena_frames = 1;
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 3; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 3, 0.15)));
  run_guarded(reactor);

  EXPECT_EQ(server.completed_sessions(), 3u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
  EXPECT_GT(server.server_metrics().counter("total_arena_deferrals"), 0u);
}

TEST_F(OverloadTest, PacedSessionsComplete) {
  // A tight token bucket throttles every burst; delivery must still be
  // complete and byte-perfect, just slower.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.overload.pace_rate = 2000.0;
  cfg.np.overload.pace_burst = 4.0;
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 2; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 3, 0.1)));
  run_guarded(reactor);

  EXPECT_EQ(server.completed_sessions(), 2u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
}

TEST_F(OverloadTest, JournalWriteFaultsAbsorbed) {
  // Every 2nd journal append fails ENOSPC-style.  Progress records are
  // lost (worst case: more redundant work after a crash) but the live
  // session must neither crash nor corrupt its exactly-once audit.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.faults.journal_fail_every = 2;
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 3; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 3, 0.1)));
  run_guarded(reactor);

  EXPECT_EQ(server.completed_sessions(), 3u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.redelivered_prior_total(), 0u);
  server.snapshot_json();
  EXPECT_GT(server.server_metrics().counter("fault_injected_journal"), 0u);
}

TEST_F(OverloadTest, SocketExhaustionRefusesAdmissionNotCrash) {
  // The 4th socket the server ever creates fails (fd-limit simulation).
  // Session 0 takes sockets 1-3; session 1's first receiver socket is
  // the 4th → session 1 is refused, its fresh journal cleaned up, and
  // everything else completes.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.faults.socket_fail_nth = 4;
  MulticastServer server(reactor, cfg);
  EXPECT_TRUE(server.submit(make_spec(0, 2)));
  EXPECT_FALSE(server.submit(make_spec(1, 2)));
  EXPECT_TRUE(server.submit(make_spec(2, 2)));
  run_guarded(reactor);

  EXPECT_EQ(server.refused_sessions(), 1u);
  EXPECT_EQ(server.completed_sessions(), 2u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.server_metrics().counter("fault_injected_socket"), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));  // refusal left no journal
}

TEST_F(OverloadTest, NakSuppressionReducesFeedbackAndCompletes) {
  // Slot size of a full poll window makes the slotting bite: a receiver
  // missing few packets delays past the round's repair, which then
  // cancels its NAK outright.  A per-round feedback budget of 1 caps
  // what the sender even admits.  Both suppressions must be counted and
  // must not cost completeness.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.overload.nak_suppression = true;
  cfg.np.overload.nak_slot = cfg.np.poll_window;
  cfg.np.overload.feedback_budget = 1;
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 4; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 4, 0.3, /*receivers=*/3)));
  run_guarded(reactor);

  EXPECT_EQ(server.completed_sessions(), 4u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
  EXPECT_GT(server.server_metrics().counter("total_naks_suppressed"), 0u);
}

TEST_F(OverloadTest, SuppressionFeedbackVolumeConsistent) {
  // The same workload with and without suppression: suppression must
  // not INCREASE the NAK volume the sender processes (abl_suppression's
  // claim, observed end-to-end).  Real-clock timing keeps the two runs
  // from being identical, so the bound is one-sided with slack.
  const auto run = [&](bool suppress) {
    Reactor reactor;
    ServerConfig cfg = base_config();
    cfg.journal_dir.clear();
    cfg.np.overload.nak_suppression = suppress;
    cfg.np.overload.nak_slot = cfg.np.poll_window;
    MulticastServer server(reactor, cfg);
    for (std::uint64_t id = 0; id < 4; ++id)
      EXPECT_TRUE(server.submit(make_spec(id, 4, 0.3, /*receivers=*/3)));
    run_guarded(reactor);
    EXPECT_EQ(server.completed_sessions(), 4u);
    return server.server_metrics().counter("total_naks_received");
  };
  const std::uint64_t naks_plain = run(false);
  const std::uint64_t naks_suppressed = run(true);
  EXPECT_LE(naks_suppressed, naks_plain + naks_plain / 4 + 8);
}

TEST_F(OverloadTest, QuarantineUnblocksGroupCompletion) {
  // Direct driver harness: one member of three drops 97% of DATA and
  // would anchor every TG's repair loop forever.  With service-deficit
  // quarantine the sender must park it, keep the healthy majority
  // moving, finish them byte-perfect, and resolve the straggler through
  // parity-only catch-up or eviction — all before the watchdog.
  Reactor reactor;
  net::UdpNpConfig np;
  np.k = 4;
  np.h = 8;
  np.packet_len = 32;
  np.poll_window = 0.02;
  np.reliable_control = true;
  np.seed = chaos_seed(55);
  np.clock = &reactor.clock();
  np.retry.session_deadline = 30.0;
  np.overload.quarantine_deficit = 3;
  np.overload.catch_up_rounds = 2;

  const auto groups = make_payload(1, 4, np.k, np.packet_len);
  net::UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  std::vector<net::UdpSocket> rx_sockets(3);
  net::UdpGroup group;
  for (auto& s : rx_sockets) group.join(s.port());

  std::size_t finished = 0;
  const auto on_done = [&] {
    if (++finished == 4) reactor.stop();
  };
  std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
  for (std::size_t r = 0; r < 3; ++r) {
    ReceiverSessionDriver::Options opt;
    opt.idle_timeout = 5.0;
    opt.data_loss = r == 2 ? 0.97 : 0.05;
    opt.rng = Rng(chaos_seed(3)).split(r);
    opt.expected = &groups;
    receivers.push_back(std::make_unique<ReceiverSessionDriver>(
        reactor, std::move(rx_sockets[r]), sender_port, groups.size(), np,
        std::move(opt), on_done));
  }
  SenderSessionDriver sender(reactor, std::move(sender_socket),
                             std::move(group), np, groups, on_done);
  for (auto& r : receivers) r->start();
  sender.start();
  run_guarded(reactor);

  ASSERT_EQ(finished, 4u);
  EXPECT_GE(sender.stats().members_quarantined, 1u);
  EXPECT_EQ(sender.arena_canary_violations(), 0u);
  // The healthy members decoded everything, byte-perfect.
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(receivers[r]->result().complete) << "receiver " << r;
    EXPECT_EQ(receivers[r]->payload_mismatches(), 0u);
  }
  // The straggler was resolved: either caught up (complete) or evicted —
  // in both cases the sender accounts for it.
  EXPECT_TRUE(receivers[2]->result().complete || sender.stats().evictions > 0)
      << sender.stats().report.summary();
}

TEST_F(OverloadTest, StuckSocketEndsAtTheSessionDeadline) {
  on_each_delivery([&] {
    // A socket that NEVER accepts a datagram: the sender defers the burst
    // on its retry timer and drops nothing, so the session deadline is
    // what ends the run — a structured partial outcome, not a hang, not
    // a busy-loop, not silent data loss.
    Reactor reactor;
    net::UdpNpConfig np;
    np.k = 4;
    np.h = 8;
    np.packet_len = 32;
    np.poll_window = 0.02;
    np.reliable_control = true;
    np.seed = chaos_seed(78);
    np.clock = &reactor.clock();
    np.retry.session_deadline = 2.0;

    const auto groups = make_payload(3, 2, np.k, np.packet_len);
    net::UdpSocket sender_socket;
    const std::uint16_t sender_port = sender_socket.port();
    net::UdpSocket rx_socket;
    net::UdpGroup group = net::UdpGroup::open();
    auto rx_group_socket = group.join(rx_socket.port());

    std::size_t finished = 0;
    const auto on_done = [&] {
      if (++finished == 2) reactor.stop();
    };
    ReceiverSessionDriver::Options opt;
    opt.idle_timeout = 0.5;  // it will hear nothing at all
    opt.expected = &groups;
    ReceiverSessionDriver receiver(reactor, std::move(rx_socket), sender_port,
                                   groups.size(), np, std::move(opt), on_done,
                                   std::move(rx_group_socket));
    SenderSessionDriver sender(reactor, std::move(sender_socket),
                               std::move(group), np, groups, on_done);
    sender.socket().inject_send_errno_every(EAGAIN, /*every=*/1, /*burst=*/8);
    receiver.start();
    sender.start();
    run_guarded(reactor, 30.0);

    ASSERT_EQ(finished, 2u);
    const auto& st = sender.stats();
    EXPECT_TRUE(st.report.deadline_expired) << st.report.summary();
    EXPECT_FALSE(st.report.complete);
    EXPECT_GT(st.would_block, 0u);
    EXPECT_FALSE(receiver.result().complete);
  });
}

}  // namespace
}  // namespace pbl::server
