// MulticastServer lifecycle: admission refusal at max_sessions,
// graceful drain finishing in-flight sessions, drain→restart resuming
// every journaled session exactly-once, the SIGTERM self-pipe, and the
// committed metrics-schema.json never drifting from the defs in code.
//
// The restart test models SIGTERM→exec in-process: drain one server
// instance mid-run (journals + receiver bitmaps persist), construct a
// fresh Reactor + MulticastServer, and resume_journaled_sessions() with
// the same deterministically regenerated payloads — exactly what
// examples/multicast_server --resume does across real processes.

#include "server/server.hpp"

#include <csignal>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session_state.hpp"
#include "fec/packet.hpp"
#include "loss/loss_model.hpp"
#include "net/peer_guard.hpp"
#include "protocol/np_protocol.hpp"
#include "util/rng.hpp"

namespace pbl::server {
namespace {

std::vector<net::TgBytes> make_payload(std::uint64_t id, std::size_t tgs,
                                       std::size_t k, std::size_t packet_len) {
  Rng rng = Rng(4242).split(id);
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

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pbl_server_" +
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
                                         double loss = 0.0) {
    MulticastServer::SessionSpec spec;
    spec.id = id;
    spec.groups = make_payload(id, tgs, 4, 32);
    spec.receivers = 2;
    spec.data_loss = loss;
    spec.seed = Rng(99).split(id)();
    return spec;
  }

  std::string dir_;
};

TEST_F(ServerTest, AdmissionRefusesBeyondMaxSessions) {
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.max_sessions = 2;
  MulticastServer server(reactor, cfg);

  EXPECT_TRUE(server.submit(make_spec(0, 2)));
  EXPECT_TRUE(server.submit(make_spec(1, 2)));
  EXPECT_FALSE(server.submit(make_spec(2, 2)));  // backpressure, not a queue
  EXPECT_EQ(server.active_sessions(), 2u);
  EXPECT_EQ(server.refused_sessions(), 1u);
  EXPECT_EQ(server.server_metrics().counter("sessions_refused"), 1u);

  reactor.run();
  EXPECT_EQ(server.completed_sessions(), 2u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
  // Finished sessions leave no journals behind.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

// Two live sessions, each on its own multicast group (or fan-out where
// the host lacks multicast on lo), must never see each other's frames.
// Guarded receivers count a frame from another session's sender as
// foreign_rejected, which peer_rejected sums; a TG rebuilt from the
// other session's payload would be a payload mismatch.
TEST_F(ServerTest, ConcurrentSessionsStayInTheirOwnGroups) {
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.guard.enabled = true;
  MulticastServer server(reactor, cfg);
  EXPECT_EQ(server.server_metrics().gauge("udp_group_delivery"),
            net::udp_group_delivery_available() ? 1.0 : 0.0);
  ASSERT_TRUE(server.submit(make_spec(0, 6, 0.1)));
  ASSERT_TRUE(server.submit(make_spec(1, 6, 0.1)));
  reactor.run();

  EXPECT_EQ(server.completed_sessions(), 2u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
  for (std::uint64_t id = 0; id < 2; ++id)
    EXPECT_EQ(server.session_metrics(id).counter("peer_rejected"), 0u)
        << "session " << id;
}

TEST_F(ServerTest, DuplicateSessionIdRefused) {
  Reactor reactor;
  MulticastServer server(reactor, base_config());
  EXPECT_TRUE(server.submit(make_spec(7, 1)));
  EXPECT_FALSE(server.submit(make_spec(7, 1)));
  reactor.run();
  EXPECT_EQ(server.completed_sessions(), 1u);
}

TEST_F(ServerTest, GracefulDrainCompletesInFlightSessions) {
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.drain_grace = 30.0;  // generous: everyone should finish naturally
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 4; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 3, 0.2)));

  // Drain is requested before the loop runs, so every session is still
  // in flight when it lands, however fast rounds close.
  server.request_drain();
  const bool refused_during_drain = !server.submit(make_spec(99, 1));
  reactor.run();

  EXPECT_TRUE(refused_during_drain);
  EXPECT_EQ(server.completed_sessions(), 4u);
  EXPECT_EQ(server.drained_sessions(), 0u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.server_metrics().text("server_state"), "stopped");
}

TEST_F(ServerTest, DrainThenRestartResumesExactlyOnce) {
  const std::size_t kSessions = 6;
  const std::size_t kTgs = 6;
  std::uint64_t completed_first = 0;
  std::uint64_t drained_first = 0;

  {
    Reactor reactor;
    ServerConfig cfg = base_config();
    cfg.drain_grace = 0.0;  // force-stop on the next timer pass
    // Let real progress happen, then pull the plug mid-run: the caller's
    // completion hook (it runs after the journal's) drains the server on
    // the kDrainAfter-th completed TG, an event rather than a wall time.
    constexpr std::size_t kDrainAfter = 4;
    std::size_t tgs_completed = 0;
    MulticastServer* running = nullptr;
    cfg.np.on_tg_completed = [&](std::size_t) {
      if (++tgs_completed == kDrainAfter) running->request_drain();
    };
    MulticastServer server(reactor, cfg);
    running = &server;
    for (std::uint64_t id = 0; id < kSessions; ++id)
      ASSERT_TRUE(server.submit(make_spec(id, kTgs, 0.3)));
    reactor.run();
    completed_first = server.completed_sessions();
    drained_first = server.drained_sessions();
    EXPECT_EQ(completed_first + drained_first, kSessions);
    EXPECT_EQ(server.failed_sessions(), 0u);
    // Every drained session persisted its journal for the next life.
    std::size_t journals = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_))
      journals += e.path().extension() == ".journal";
    EXPECT_EQ(journals, drained_first);
  }

  ASSERT_GT(drained_first, 0u) << "drain landed after the workload finished; "
                                  "grow the workload for this test";

  {
    Reactor reactor;
    MulticastServer server(reactor, base_config());
    const std::size_t resumed = server.resume_journaled_sessions(
        [&](const core::SenderSessionState& state) {
          auto spec = make_spec(state.session_id, kTgs, 0.3);
          return std::optional<MulticastServer::SessionSpec>(std::move(spec));
        });
    EXPECT_EQ(resumed + server.completed_sessions(), drained_first);
    if (server.active_sessions() > 0) reactor.run();

    // Exactly-once across the two lives: every session completes, no
    // journal-confirmed TG was re-multicast, every byte verified.
    EXPECT_EQ(completed_first + server.completed_sessions(), kSessions);
    EXPECT_EQ(server.failed_sessions(), 0u);
    EXPECT_EQ(server.redelivered_prior_total(), 0u);
    EXPECT_EQ(server.payload_mismatches_total(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir_));  // all sessions resolved
    if (resumed > 0) {
      EXPECT_GT(server.server_metrics().counter("total_tgs_skipped"), 0u);
    }
  }
}

TEST_F(ServerTest, SigtermSelfPipeTriggersDrain) {
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.drain_grace = 10.0;
  MulticastServer server(reactor, cfg);
  server.install_signal_handlers();
  ASSERT_TRUE(server.submit(make_spec(0, 2)));
  // Raised before the loop runs: the self-pipe holds the signal until the
  // reactor reads it, with the session still in flight.
  ::raise(SIGTERM);
  reactor.run();
  EXPECT_EQ(server.server_metrics().counter("signals_received"), 1u);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.completed_sessions() + server.drained_sessions(), 1u);
}

TEST_F(ServerTest, JournalChainsCallerHooks) {
  // With journal_dir set the server installs the journal's write-ahead
  // hooks; the caller's own np hooks must still fire, once per event,
  // and only after the journal on disk already holds that event.
  Reactor reactor;
  ServerConfig cfg = base_config();
  ASSERT_FALSE(cfg.journal_dir.empty());
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTgs = 4;
  // True when some session's journal on disk already records `holds`.
  const auto journaled = [this](const auto& holds) {
    for (const auto& path : core::list_session_journals(dir_)) {
      const auto state = core::peek_session_journal(path);
      if (state && holds(*state)) return true;
    }
    return false;
  };
  std::vector<std::size_t> completions(kTgs, 0);
  std::size_t parity_bursts = 0;
  cfg.np.on_tg_completed = [&](std::size_t tg) {
    ASSERT_LT(tg, kTgs);
    ++completions[tg];
    EXPECT_TRUE(journaled([tg](const core::SenderSessionState& st) {
      return st.completed[tg];
    })) << "TG " << tg << " reached the caller before the journal";
  };
  cfg.np.on_parities_sent = [&](std::size_t tg, std::size_t high_water) {
    ++parity_bursts;
    EXPECT_TRUE(journaled([&](const core::SenderSessionState& st) {
      return st.parities_sent[tg] == high_water;
    })) << "TG " << tg << " parities reached the caller before the journal";
  };
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < kSessions; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, kTgs, 0.2)));
  reactor.run();

  EXPECT_EQ(server.completed_sessions(), kSessions);
  for (std::size_t tg = 0; tg < kTgs; ++tg)
    EXPECT_EQ(completions[tg], kSessions) << "TG " << tg;
  EXPECT_EQ(server.server_metrics().counter("total_tgs_completed"),
            kSessions * kTgs);
  EXPECT_GT(parity_bursts, 0u);  // 20 % loss needs repair
  EXPECT_TRUE(std::filesystem::is_empty(dir_));  // completed: files removed
}

TEST_F(ServerTest, SubmitRefusesPacketsThatAreNotPacketLen) {
  // A TG with one short packet used to be admitted; its burst then threw
  // out of reactor.run() and stranded every other session.  Uniformly
  // short packets were admitted too, and failed with every block
  // rejected.  Both are refused at submit, like a TG without k packets.
  Reactor reactor;
  MulticastServer server(reactor, base_config());
  auto one_short = make_spec(1, 2);
  one_short.groups[1][2].pop_back();
  EXPECT_THROW(server.submit(std::move(one_short)), std::invalid_argument);
  auto all_short = make_spec(2, 2);
  for (auto& tg : all_short.groups)
    for (auto& pkt : tg) pkt.resize(16);
  EXPECT_THROW(server.submit(std::move(all_short)), std::invalid_argument);

  ASSERT_TRUE(server.submit(make_spec(3, 2)));
  reactor.run();
  EXPECT_EQ(server.server_metrics().counter("sessions_admitted"), 1u);
  EXPECT_EQ(server.completed_sessions(), 1u);
}

TEST_F(ServerTest, RefusedSessionLeavesNoJournal) {
  // The journal opens before the drivers, whose cores check the
  // parameters.  A session they refuse must take its fresh journal with
  // it, or the next life would resubmit a session that never ran.
  ServerConfig cfg = base_config();
  ASSERT_FALSE(cfg.journal_dir.empty());
  ASSERT_TRUE(cfg.np.reliable_control);
  cfg.np.retry.session_deadline = -1;
  {
    Reactor reactor;
    MulticastServer server(reactor, cfg);
    EXPECT_THROW(server.submit(make_spec(5, 2)), std::invalid_argument);
    EXPECT_EQ(server.active_sessions(), 0u);
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));

  Reactor reactor;
  MulticastServer next_life(reactor, base_config());
  EXPECT_EQ(next_life.resume_journaled_sessions(
                [&](const core::SenderSessionState& state) {
                  return std::optional<MulticastServer::SessionSpec>(
                      make_spec(state.session_id, 2));
                }),
            0u);
}

// One table of bad NP parameters through both engines.  The DES
// NpSession and the server's drivers hand their config to the same core
// checks, so each must refuse every row.
TEST(NpParamChecks, BothEnginesRefuseTheSameBadParameters) {
  using Spoil =
      std::function<void(protocol::NpParams&, std::vector<net::TgBytes>&)>;
  const std::pair<const char*, Spoil> cases[] = {
      {"resume_completed of the wrong length",
       [](protocol::NpParams& p, auto&) { p.resume_completed = {false}; }},
      {"resume_parities of the wrong length",
       [](protocol::NpParams& p, auto&) { p.resume_parities = {0}; }},
      {"resume_parities above h",
       [](protocol::NpParams& p, auto&) { p.resume_parities = {0, 9}; }},
      {"a short packet",
       [](protocol::NpParams&, std::vector<net::TgBytes>& groups) {
         groups[1][2].pop_back();
       }},
  };
  for (const auto& [name, spoil] : cases) {
    SCOPED_TRACE(name);
    protocol::NpConfig des;
    des.k = 4;
    des.h = 8;
    des.packet_len = 32;
    auto des_groups = make_payload(7, 2, des.k, des.packet_len);
    spoil(des, des_groups);
    loss::BernoulliLossModel model(0.0);
    EXPECT_THROW(protocol::NpSession(model, 2, des_groups, des),
                 std::invalid_argument);

    Reactor reactor;
    ServerConfig cfg;  // no journal: the spoiled fields reach the drivers
    cfg.np.k = 4;
    cfg.np.h = 8;
    cfg.np.packet_len = 32;
    MulticastServer::SessionSpec spec;
    spec.id = 7;
    spec.groups = make_payload(7, 2, cfg.np.k, cfg.np.packet_len);
    spoil(cfg.np, spec.groups);
    MulticastServer server(reactor, cfg);
    EXPECT_THROW(server.submit(std::move(spec)), std::invalid_argument);
    EXPECT_EQ(server.active_sessions(), 0u);
  }
}

TEST_F(ServerTest, SnapshotJsonCarriesSchemaHeaderAndSessions) {
  Reactor reactor;
  MulticastServer server(reactor, base_config());
  ASSERT_TRUE(server.submit(make_spec(3, 1)));
  reactor.run();

  const std::string snap = server.snapshot_json();
  EXPECT_NE(snap.find("\"schema\": \"pbl-metrics-v1\""), std::string::npos);
  EXPECT_NE(snap.find("\"kind\": \"snapshot\""), std::string::npos);
  EXPECT_NE(snap.find("\"3\": {"), std::string::npos);
  EXPECT_NE(snap.find("\"state\": \"completed\""), std::string::npos);
  EXPECT_NE(snap.find("\"end_reason\": \"end_of_session\""),
            std::string::npos);
  EXPECT_EQ(server.session_metrics(3).counter("tgs_completed"), 1u);
  EXPECT_THROW(server.session_metrics(404), std::out_of_range);
}

TEST_F(ServerTest, SnapshotFilesAndCsvRows) {
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.snapshot_dir = dir_;
  cfg.csv_path = dir_ + "/metrics.csv";
  cfg.journal_dir.clear();  // snapshots only; keep dir_ free of journals
  MulticastServer server(reactor, cfg);
  ASSERT_TRUE(server.submit(make_spec(0, 1)));
  reactor.run();  // final snapshot written at stop

  std::size_t snapshots = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_))
    snapshots += e.path().extension() == ".json";
  EXPECT_GE(snapshots, 1u);

  std::ifstream csv(cfg.csv_path);
  ASSERT_TRUE(csv.good());
  std::string header, row;
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_EQ(header.substr(0, 5), "time,");
  const auto commas = [](const std::string& s) {
    std::size_t n = 0;
    for (const char c : s) n += c == ',';
    return n;
  };
  EXPECT_EQ(commas(header), commas(row));
}

TEST_F(ServerTest, ArenaExhaustionUnderLiveLoadShedsDefersRecovers) {
  // A one-frame arena under a lossy multi-session load: every burst is
  // forced through the exhaust→flush→recycle path while POLL/NAK rounds
  // and journaling run concurrently on the reactor.  Delivery must stay
  // complete and byte-perfect (end-to-end proof no recycled frame leaked
  // stale bytes), with the deferrals visible in the schema'd counters.
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.arena_frames = 1;
  MulticastServer server(reactor, cfg);
  for (std::uint64_t id = 0; id < 4; ++id)
    ASSERT_TRUE(server.submit(make_spec(id, 4, 0.25)));
  reactor.run();

  EXPECT_EQ(server.completed_sessions(), 4u);
  EXPECT_EQ(server.failed_sessions(), 0u);
  EXPECT_EQ(server.payload_mismatches_total(), 0u);
  EXPECT_GT(server.server_metrics().counter("total_arena_deferrals"), 0u);
  const std::string snap = server.snapshot_json();
  EXPECT_NE(snap.find("\"arena_deferrals\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(ServerTest, TotalsAreSumsOfFinalizedSessions) {
  // Every server total_* counter is the sum of one session counter over
  // the finalized sessions.  The pairs are listed here, independently of
  // the table in server.cpp, so a missing or misrouted roll-up fails.
  // Loss, wire corruption, NAK suppression, a one-frame arena and an
  // authenticated guard under a spoofing adversary make most of the
  // summed counters non-zero.
  const std::pair<const char*, const char*> kRollUps[] = {
      {"total_data_sent", "data_sent"},
      {"total_parity_sent", "parity_sent"},
      {"total_polls_sent", "polls_sent"},
      {"total_naks_received", "naks_received"},
      {"total_acks_received", "acks_received"},
      {"total_poll_retries", "poll_retries"},
      {"total_nak_retries", "receiver_nak_retries"},
      {"total_evictions", "evictions"},
      {"total_tgs_completed", "tgs_completed"},
      {"total_tgs_skipped", "tgs_skipped"},
      {"total_stale_rejected", "receiver_stale_rejected"},
      {"total_redelivered_prior", "redelivered_prior"},
      {"total_payload_mismatches", "payload_mismatches"},
      {"would_block_total", "would_block"},
      {"total_arena_deferrals", "arena_deferrals"},
      {"total_naks_suppressed", "naks_suppressed"},
      {"total_members_quarantined", "members_quarantined"},
      {"total_peer_rejected", "peer_rejected"},
      {"total_peer_greylisted", "peer_greylisted"},
      {"total_peer_banned", "peer_banned"},
      {"total_feedback_addr_mismatch", "feedback_addr_mismatch"},
      {"total_frame_resyncs", "frame_resyncs"},
      {"total_frames_skipped", "frames_skipped"},
  };
  Reactor reactor;
  ServerConfig cfg = base_config();
  cfg.np.arena_frames = 1;
  cfg.np.retry.grace_rounds = 8;
  cfg.np.overload.nak_suppression = true;
  cfg.np.overload.nak_slot = cfg.np.poll_window;
  cfg.np.guard.enabled = true;
  cfg.np.guard.auth = true;
  cfg.np.guard.feedback_rate = 60.0;
  cfg.np.guard.feedback_burst = 2.0;
  cfg.np.guard.greylist_after = 2;
  cfg.np.guard.ban_after = 6;
  cfg.np.guard.ban_duration = 30.0;
  cfg.hostile.profile = AdversaryProfile::kSpoof;
  cfg.hostile.rate = 400.0;
  MulticastServer server(reactor, cfg);
  const std::uint64_t kSessions = 3;
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    auto spec = make_spec(id, 4, 0.2);
    spec.impairment.seed = id + 1;
    spec.impairment.corrupt_prob = 0.05;
    spec.impairment.truncate_prob = 0.05;
    ASSERT_TRUE(server.submit(std::move(spec)));
  }
  reactor.run();
  ASSERT_EQ(server.active_sessions(), 0u);

  const obs::MetricsRegistry& totals = server.server_metrics();
  std::size_t nonzero = 0;
  for (const auto& [total, counter] : kRollUps) {
    std::uint64_t sum = 0;
    for (std::uint64_t id = 0; id < kSessions; ++id)
      sum += server.session_metrics(id).counter(counter);
    EXPECT_EQ(totals.counter(total), sum) << total << " vs " << counter;
    nonzero += sum > 0;
  }
  // Every total_* def in the schema is one of the pairs above.
  std::size_t roll_up_defs = 0;
  for (const auto& def : MulticastServer::server_metric_defs())
    roll_up_defs += def.name.rfind("total_", 0) == 0 ||
                    def.name == "would_block_total";
  EXPECT_EQ(roll_up_defs, std::size(kRollUps));
  EXPECT_GE(nonzero, 10u);
}

TEST(PeerGuardTest, UnknownSourceRejectedBeforeProtocolState) {
  // Rule 1 of the guard: a datagram whose kernel-reported source is not
  // an admitted member is dropped and counted before anything looks at
  // its contents — even a perfectly well-formed NAK.
  net::PeerGuardConfig gc;
  gc.enabled = true;
  net::PeerGuard guard(gc, {1000, 2000}, /*k=*/4, /*num_tgs=*/8, /*now=*/0.0);

  fec::Packet nak;
  nak.header.type = fec::PacketType::kNak;
  nak.header.tg = 0;
  nak.header.count = 1;
  nak.header.index = 3000;
  EXPECT_EQ(guard.check(3000, nak, 0.0), net::PeerVerdict::kUnknownSource);
  EXPECT_EQ(guard.stats().unknown_source, 1u);
  EXPECT_EQ(guard.stats().rejected, 1u);
  EXPECT_EQ(guard.stats().accepted, 0u);

  // The same frame from an admitted member (claiming its own identity)
  // sails through, and the stranger's noise struck nobody.
  nak.header.index = 1000;
  EXPECT_EQ(guard.check(1000, nak, 0.0), net::PeerVerdict::kAccept);
  EXPECT_EQ(guard.stats().accepted, 1u);
  EXPECT_FALSE(guard.ever_banned(0));
  EXPECT_FALSE(guard.ever_banned(1));
}

TEST(PeerGuardTest, BannedPeerReadmittedAfterQuarantineExpiry) {
  // Escalation is quarantine, not capital punishment: strikes climb to
  // greylist then ban, the ban eats everything while live, and its
  // expiry readmits the peer with a clean slate — but `ever_banned`
  // stays sticky so the session report can exempt the member.
  net::PeerGuardConfig gc;
  gc.enabled = true;
  gc.greylist_after = 2;
  gc.ban_after = 3;
  gc.greylist_duration = 0.1;
  gc.ban_duration = 1.0;
  net::PeerGuard guard(gc, {1000}, /*k=*/4, /*num_tgs=*/8, /*now=*/0.0);

  fec::Packet bad;
  bad.header.type = fec::PacketType::kNak;
  bad.header.tg = 0;
  bad.header.count = 99;  // demands more than k: shape-invalid, a strike
  bad.header.index = 1000;
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(guard.check(1000, bad, 0.0), net::PeerVerdict::kBadShape);
  EXPECT_EQ(guard.stats().banned, 1u);
  EXPECT_TRUE(guard.is_banned(0, 0.5));
  EXPECT_TRUE(guard.ever_banned(0));

  // While banned, even a perfectly valid frame is eaten unconditionally.
  fec::Packet good;
  good.header.type = fec::PacketType::kNak;
  good.header.tg = 0;
  good.header.count = 1;
  good.header.index = 1000;
  EXPECT_EQ(guard.check(1000, good, 0.5), net::PeerVerdict::kBanned);
  EXPECT_EQ(guard.stats().ban_drops, 1u);

  // Past ban_duration the peer is lazily readmitted on its next frame.
  EXPECT_EQ(guard.check(1000, good, 1.5), net::PeerVerdict::kAccept);
  EXPECT_EQ(guard.stats().readmitted, 1u);
  EXPECT_FALSE(guard.is_banned(0, 1.5));
  EXPECT_TRUE(guard.ever_banned(0));  // sticky for the session report
}

TEST_F(ServerTest, ReplayedEndMarkerFromOldIncarnationRejected) {
  // A receiver resumed at incarnation 2 must treat a replayed
  // incarnation-0 end marker as a dead sender's straggler: counted as
  // stale, session NOT ended — only the current incarnation's goodbye
  // finishes the run.
  Reactor reactor;
  net::UdpNpConfig np;
  np.k = 4;
  np.h = 8;
  np.packet_len = 32;
  np.poll_window = 0.02;
  np.reliable_control = true;
  np.clock = &reactor.clock();

  net::UdpSocket fake_sender;
  const std::uint16_t sender_port = fake_sender.port();
  net::UdpSocket rx_socket;
  const std::uint16_t rx_port = rx_socket.port();

  bool finished = false;
  ReceiverSessionDriver::Options opt;
  opt.idle_timeout = 5.0;
  opt.resume_incarnation = 2;
  ReceiverSessionDriver receiver(reactor, std::move(rx_socket), sender_port,
                                 /*num_tgs=*/2, np, std::move(opt), [&] {
                                   finished = true;
                                   reactor.stop();
                                 });
  receiver.start();

  const auto end_marker = [](std::uint32_t incarnation) {
    fec::Packet end;
    end.header.type = fec::PacketType::kPoll;
    end.header.tg = net::kUdpEndOfSession;
    end.header.incarnation = static_cast<std::uint8_t>(incarnation);
    return end;
  };
  bool stale_survived = false;
  reactor.add_timer(reactor.now() + 0.02, [&] {
    for (int i = 0; i < 3; ++i) fake_sender.send_to(rx_port, end_marker(0));
  });
  reactor.add_timer(reactor.now() + 0.15, [&] {
    stale_survived = !finished && receiver.result().stale_rejected > 0;
    fake_sender.send_to(rx_port, end_marker(2));
  });
  bool wedged = false;
  reactor.add_timer(reactor.now() + 10.0, [&] {
    wedged = true;
    reactor.stop();
  });
  reactor.run();

  ASSERT_FALSE(wedged) << "current-incarnation end marker never landed";
  EXPECT_TRUE(stale_survived)
      << "a replayed incarnation-0 end marker ended the session (or was "
         "not counted as stale): stale_rejected="
      << receiver.result().stale_rejected;
  EXPECT_TRUE(finished);
  EXPECT_GE(receiver.result().stale_rejected, 3u);
}

TEST(ServerSchema, CommittedSchemaFileMatchesCode) {
  // metrics-schema.json is generated from the def lists in server.cpp
  // (examples/multicast_server --print-schema > metrics-schema.json).
  // If this fails, a metric changed without regenerating the file —
  // rerun the command above and commit the result.
  std::ifstream in(std::string(PBL_SOURCE_DIR) + "/metrics-schema.json",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "metrics-schema.json missing from repo root";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), MulticastServer::schema_document());
}

TEST(ServerSchema, DefListsAreValidRegistries) {
  // Constructing registries re-runs all def validation (names, buckets,
  // allowed sets) — nonsense defs would throw here, far from any soak.
  obs::MetricsRegistry server_reg(MulticastServer::server_metric_defs());
  obs::MetricsRegistry session_reg(MulticastServer::session_metric_defs());
  EXPECT_EQ(server_reg.text("server_state"), "starting");
  EXPECT_EQ(session_reg.text("state"), "active");
}

}  // namespace
}  // namespace pbl::server
