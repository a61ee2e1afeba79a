// Hostile-peer hardening (docs/ROBUSTNESS.md, "Hostile peers"): one
// Byzantine member per session — NAK storms, identity spoofing, frame
// replay, garbage, false completion claims — is CONTAINED: every honest
// receiver still completes exactly-once, the parity overhead stays
// bounded, and the adversary ends greylisted or banned with the
// defenses' work recorded in the session metrics.
//
// The adversary runs on the session's reactor against real sockets
// (server/adversary.hpp).  The reactor reads the wall clock here, so
// frame COUNTS vary run to run; the properties asserted here must hold
// regardless, under group delivery and under unicast fan-out.
// Chaos runs (CI) perturb seeds via PBL_CHAOS_SEED.

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
  Rng rng = Rng(chaos_seed(40411)).split(id);
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

class HostileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pbl_hostile_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Guard fully on, tuned so escalation outruns the liveness machinery:
  /// a tiny burst stops storm NAKs from buying parity, greylisting lands
  /// within a round, the ban within a few more, and generous
  /// grace_rounds keep the silence-eviction path from racing the ban.
  ServerConfig guarded_config() {
    ServerConfig cfg;
    cfg.max_sessions = 64;
    cfg.np.k = 4;
    cfg.np.h = 8;
    cfg.np.packet_len = 32;
    cfg.np.poll_window = 0.02;
    cfg.np.reliable_control = true;
    cfg.np.retry.grace_rounds = 8;
    cfg.np.guard.enabled = true;
    cfg.np.guard.auth = true;
    cfg.np.guard.feedback_rate = 60.0;
    cfg.np.guard.feedback_burst = 2.0;
    cfg.np.guard.greylist_after = 2;
    cfg.np.guard.ban_after = 6;
    cfg.np.guard.ban_duration = 30.0;  // outlasts any test session
    cfg.receiver_idle_timeout = 5.0;
    cfg.journal_dir = dir_;
    cfg.exit_when_idle = true;
    return cfg;
  }

  MulticastServer::SessionSpec make_spec(std::uint64_t id, std::size_t tgs,
                                         double loss = 0.0,
                                         std::size_t receivers = 3) {
    MulticastServer::SessionSpec spec;
    spec.id = id;
    spec.groups = make_payload(id, tgs, 4, 32);
    spec.receivers = receivers;
    spec.data_loss = loss;
    spec.seed = Rng(chaos_seed(4099)).split(id)();
    return spec;
  }

  void run_guarded(Reactor& reactor, double budget_s = 60.0) {
    bool wedged = false;
    reactor.add_timer(reactor.now() + budget_s, [&] {
      wedged = true;
      reactor.stop();
    });
    reactor.run();
    ASSERT_FALSE(wedged) << "watchdog fired: hostile run wedged";
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

// Under every adversary profile the honest receivers complete
// exactly-once, the rejections are counted, and the adversary ends
// greylisted or banned.  (The acceptance bar for the whole subsystem.)
TEST_F(HostileTest, EveryProfileContainedHonestCompleteExactlyOnce) {
  on_each_delivery([&] {
    const AdversaryProfile profiles[] = {
        AdversaryProfile::kStorm, AdversaryProfile::kSpoof,
        AdversaryProfile::kReplay, AdversaryProfile::kGarbage,
        AdversaryProfile::kFalseCompletion};
    std::uint64_t id = 0;
    for (const AdversaryProfile profile : profiles) {
      SCOPED_TRACE(to_string(profile));
      Reactor reactor;
      ServerConfig cfg = guarded_config();
      cfg.hostile.profile = profile;
      cfg.hostile.rate = 400.0;
      MulticastServer server(reactor, cfg);
      const std::uint64_t sid = id++;
      ASSERT_TRUE(server.submit(make_spec(sid, 5, 0.05)));
      run_guarded(reactor);

      EXPECT_EQ(server.completed_sessions(), 1u);
      EXPECT_EQ(server.failed_sessions(), 0u);
      EXPECT_EQ(server.redelivered_prior_total(), 0u);
      EXPECT_EQ(server.payload_mismatches_total(), 0u);
      const auto& m = server.session_metrics(sid);
      EXPECT_GT(m.counter("peer_rejected"), 0u)
          << "the adversary's frames never reached the guard";
      EXPECT_GT(m.counter("peer_greylisted") + m.counter("peer_banned"), 0u)
          << "the adversary was never escalated";
    }
  });
}

// A sustained max-demand NAK storm at ~10x the honest feedback rate
// must not inflate the parity spend past 2x the adversary-free
// baseline (plus one burst of slack for the pre-greylist window).
TEST_F(HostileTest, StormParityOverheadBounded) {
  on_each_delivery([&] {
    const std::size_t kSessions = 3;
    const auto run = [&](bool hostile) {
      Reactor reactor;
      ServerConfig cfg = guarded_config();
      if (hostile) cfg.hostile.profile = AdversaryProfile::kStorm;
      cfg.hostile.rate = 500.0;  // honest: ~50 feedback/s per member
      MulticastServer server(reactor, cfg);
      for (std::uint64_t id = 0; id < kSessions; ++id)
        EXPECT_TRUE(server.submit(make_spec(id, 6, 0.1)));
      run_guarded(reactor);
      EXPECT_EQ(server.completed_sessions(), kSessions);
      EXPECT_EQ(server.failed_sessions(), 0u);
      std::uint64_t parity = 0;
      for (std::uint64_t id = 0; id < kSessions; ++id)
        parity += server.session_metrics(id).counter("parity_sent");
      return parity;
    };

    const std::uint64_t baseline = run(false);
    const std::uint64_t stormed = run(true);
    // Per session the storm may buy at most one pre-greylist burst of k
    // parities on one TG; everything after that is policed.
    const std::uint64_t slack = kSessions * 2 * 4;
    EXPECT_LE(stormed, 2 * baseline + slack)
        << "baseline=" << baseline << " stormed=" << stormed;
  });
}

// Garbage — raw noise, truncated frames, bit-flipped seals — must be
// absorbed on the receive path and leave evidence in the frame-desync
// counters, never crash the parser or reach protocol state.
TEST_F(HostileTest, GarbageLeavesFrameEvidence) {
  on_each_delivery([&] {
    Reactor reactor;
    ServerConfig cfg = guarded_config();
    cfg.hostile.profile = AdversaryProfile::kGarbage;
    cfg.hostile.rate = 400.0;
    MulticastServer server(reactor, cfg);
    ASSERT_TRUE(server.submit(make_spec(0, 5, 0.05)));
    run_guarded(reactor);

    EXPECT_EQ(server.completed_sessions(), 1u);
    EXPECT_EQ(server.failed_sessions(), 0u);
    const auto& m = server.session_metrics(0);
    EXPECT_GT(m.counter("frames_skipped"), 0u)
        << "no malformed datagram was recorded by the salvage path";
    EXPECT_GT(m.counter("peer_rejected"), 0u);
  });
}

// The port-smuggling fix stands alone: with the guard OFF, feedback
// whose claimed identity contradicts the kernel-reported source is
// still rejected and counted.  A false-completion adversary forging
// victims' ACKs would otherwise strand them unrepaired mid-loss.
TEST_F(HostileTest, GuardOffAddrMismatchStillRejected) {
  on_each_delivery([&] {
    Reactor reactor;
    ServerConfig cfg = guarded_config();
    cfg.np.guard.enabled = false;
    cfg.np.guard.auth = false;
    cfg.hostile.profile = AdversaryProfile::kFalseCompletion;
    cfg.hostile.rate = 400.0;
    MulticastServer server(reactor, cfg);
    ASSERT_TRUE(server.submit(make_spec(0, 5, 0.1)));
    run_guarded(reactor);

    // The adversary ACKs for ITSELF are legitimate member feedback (the
    // guard is off, nobody bans it), so the session completes with the
    // adversary "delivered"; the forged victim ACKs must all have died on
    // the source cross-check or the honest members could not finish.
    EXPECT_EQ(server.completed_sessions(), 1u);
    EXPECT_EQ(server.failed_sessions(), 0u);
    EXPECT_EQ(server.payload_mismatches_total(), 0u);
    EXPECT_GT(server.session_metrics(0).counter("feedback_addr_mismatch"), 0u)
        << "no spoofed feedback was caught by the driver-level cross-check";
  });
}

// Replayed sender frames injected directly at receivers come from the
// adversary's port, not the sender's: guarded receivers drop them on
// source address (foreign_rejected feeds peer_rejected) — a replayed
// end marker must never end an honest receiver's run early.
TEST_F(HostileTest, ReplayedFramesAtReceiversRejected) {
  on_each_delivery([&] {
    Reactor reactor;
    ServerConfig cfg = guarded_config();
    cfg.hostile.profile = AdversaryProfile::kReplay;
    cfg.hostile.rate = 400.0;
    MulticastServer server(reactor, cfg);
    ASSERT_TRUE(server.submit(make_spec(0, 6, 0.05)));
    run_guarded(reactor);

    EXPECT_EQ(server.completed_sessions(), 1u);
    EXPECT_EQ(server.failed_sessions(), 0u);
    EXPECT_EQ(server.redelivered_prior_total(), 0u);
    EXPECT_GT(server.session_metrics(0).counter("peer_rejected"), 0u);
  });
}

// A TG confirmed while a quarantined member still lacks it defers its
// completion to the catch-up pass.  If the guard bans that member first,
// catch-up has nobody left to serve the TG to, and it must still journal
// it: every TG that did not fail fires the completion hook exactly once.
// A deficit of one quarantines aggressively, so under some chaos seeds
// an honest straggler also exhausts its catch-up budget and is evicted.
// The session then ends degraded, but the journaling rule still holds.
TEST_F(HostileTest, TgsOwedToABannedStragglerAreStillJournaled) {
  on_each_delivery([&] {
    Reactor reactor;
    ServerConfig cfg = guarded_config();
    cfg.hostile.profile = AdversaryProfile::kStorm;
    cfg.hostile.rate = 400.0;
    cfg.np.overload.quarantine_deficit = 1;
    std::vector<std::size_t> completions;
    cfg.np.on_tg_completed = [&completions](std::size_t tg) {
      completions.push_back(tg);
    };
    MulticastServer server(reactor, cfg);
    const std::size_t kTgs = 8;
    ASSERT_TRUE(server.submit(make_spec(0, kTgs, 0.05)));
    run_guarded(reactor);

    EXPECT_EQ(server.completed_sessions() + server.failed_sessions(), 1u);
    const auto& m = server.session_metrics(0);
    EXPECT_GT(m.counter("members_quarantined"), 0u);
    EXPECT_GT(m.counter("members_expelled"), 0u)
        << "the adversary was not banned";
    std::vector<std::size_t> per_tg(kTgs, 0);
    for (const std::size_t tg : completions) {
      ASSERT_LT(tg, kTgs);
      ++per_tg[tg];
    }
    for (std::size_t tg = 0; tg < kTgs; ++tg)
      EXPECT_LE(per_tg[tg], 1u) << "TG " << tg;
    EXPECT_EQ(completions.size(), kTgs - m.counter("tgs_unconfirmed") -
                                      m.counter("tgs_exhausted"));
  });
}

}  // namespace
}  // namespace pbl::server
