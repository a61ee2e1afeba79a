// Long-running multicast server over loopback UDP: N concurrent NP
// sessions on one reactor thread, with write-ahead journaling, graceful
// SIGTERM drain, crash-resume, and schema'd metrics snapshots.
//
//   multicast_server --sessions=32 --receivers=3 --data-loss=0.1
//       --control-loss=0.05 --journal-dir=/tmp/j --snapshot-dir=/tmp/s
//
// Payloads are regenerated deterministically from (--payload-seed,
// session id), so a restarted process can resume journaled sessions
// without any payload having been persisted:
//
//   multicast_server --resume --journal-dir=/tmp/j ...same flags...
//
// --print-schema emits the pbl-metrics-v1 schema document these
// snapshots conform to — the committed metrics-schema.json is exactly
// this output (tools/validate_metrics.py checks snapshots against it,
// tests/test_server.cpp checks the file never drifts from the code).
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using pbl::server::MulticastServer;

std::vector<pbl::net::TgBytes> make_payload(std::uint64_t payload_seed,
                                            std::uint64_t id, std::size_t tgs,
                                            std::size_t k,
                                            std::size_t packet_len) {
  pbl::Rng rng = pbl::Rng(payload_seed).split(id);
  std::vector<pbl::net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(packet_len);
      for (auto& byte : pkt) byte = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

// 1000 sessions × (1 sender + 2R receiver) sockets under group delivery
// (each receiver holds a unicast and a group socket; R under fan-out):
// lift the soft descriptor limit to the hard one so the default 1024
// does not refuse admissions on CI runners.
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

}  // namespace

int main(int argc, char** argv) {
  pbl::Cli cli(argc, argv);

  if (cli.has("print-schema")) {
    std::cout << MulticastServer::schema_document();
    return 0;
  }

  const int sessions = cli.get_int("sessions", 8);
  const int receivers = cli.get_int("receivers", 2);
  const int tgs = cli.get_int("tgs", 4);
  const int k = cli.get_int("k", 8);
  const int h = cli.get_int("h", 24);
  const int packet_len = cli.get_int("packet-len", 256);
  const double data_loss = cli.get_double("data-loss", 0.05);
  const double control_loss = cli.get_double("control-loss", 0.0);
  const double wire_drop = cli.get_double("wire-drop", 0.0);
  const double wire_reorder = cli.get_double("wire-reorder", 0.0);
  const double poll_window = cli.get_double("poll-window", 0.03);
  const double idle_timeout = cli.get_double("idle-timeout", 30.0);
  const double drain_timeout = cli.get_double("drain-timeout", 0.5);
  const double drain_grace = cli.get_double("drain-grace", 5.0);
  const double snapshot_interval = cli.get_double("snapshot-interval", 0.25);
  const double session_deadline = cli.get_double("session-deadline", 0.0);
  const int grace_rounds = cli.get_int("grace-rounds", 8);
  const int max_retries = cli.get_int("max-retries", 10);
  const bool reliable = cli.get_bool("reliable", true);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::uint64_t payload_seed =
      static_cast<std::uint64_t>(cli.get_int64("payload-seed", 42));
  const int max_sessions = cli.get_int("max-sessions", sessions);
  const bool resume = cli.has("resume");
  const std::string journal_dir = cli.get_string("journal-dir", "");
  const std::string snapshot_dir = cli.get_string("snapshot-dir", "");
  const std::string csv_path = cli.get_string("csv", "");
  // Overload hardening (docs/ROBUSTNESS.md): all knobs default off.
  const double pace_rate = cli.get_double("pace-rate", 0.0);
  const double pace_burst = cli.get_double("pace-burst", 16.0);
  const double stall_timeout = cli.get_double("stall-timeout", 0.0);
  const std::string shed_policy = cli.get_string("shed-policy", "defer");
  const bool nak_suppression = cli.get_bool("nak-suppression", false);
  const double nak_slot = cli.get_double("nak-slot", 0.0);
  const int feedback_budget = cli.get_int("feedback-budget", 0);
  const int quarantine_deficit = cli.get_int("quarantine-deficit", 0);
  const int catch_up_rounds = cli.get_int("catch-up-rounds", 4);
  const int arena_frames = cli.get_int("arena-frames", 0);
  // Resource-exhaustion fault injection: all off by default.
  const int fault_send_every = cli.get_int("fault-send-every", 0);
  const int fault_send_burst = cli.get_int("fault-send-burst", 4);
  const int fault_journal_every = cli.get_int("fault-journal-every", 0);
  const int fault_socket_nth = cli.get_int("fault-socket-nth", 0);
  // Hostile-peer hardening (docs/ROBUSTNESS.md): all knobs default off.
  const bool guard = cli.get_bool("guard", false);
  const bool guard_auth = cli.get_bool("guard-auth", false);
  const double guard_rate = cli.get_double("guard-rate", 0.0);
  const double guard_burst = cli.get_double("guard-burst", 16.0);
  const int greylist_after = cli.get_int("greylist-after", 8);
  const int ban_after = cli.get_int("ban-after", 24);
  const double greylist_duration = cli.get_double("greylist-duration", 0.25);
  const double ban_duration = cli.get_double("ban-duration", 5.0);
  // Byzantine-receiver injection ("" = none; see net/adversary.hpp).
  const std::string hostile = cli.get_string("hostile", "");
  const double hostile_rate = cli.get_double("hostile-rate", 200.0);

  if (cli.has("help")) {
    std::cout << cli.usage();
    return 0;
  }

  raise_fd_limit();

  pbl::server::ServerConfig cfg;
  cfg.max_sessions = static_cast<std::size_t>(max_sessions);
  cfg.np.k = static_cast<std::size_t>(k);
  cfg.np.h = static_cast<std::size_t>(h);
  cfg.np.packet_len = static_cast<std::size_t>(packet_len);
  cfg.np.poll_window = poll_window;
  cfg.np.drain_timeout = drain_timeout;
  cfg.np.reliable_control = reliable;
  cfg.np.retry.grace_rounds = static_cast<std::size_t>(grace_rounds);
  cfg.np.retry.max_retries = static_cast<std::size_t>(max_retries);
  cfg.np.retry.session_deadline = session_deadline;
  cfg.np.overload.pace_rate = pace_rate;
  cfg.np.overload.pace_burst = pace_burst;
  cfg.np.overload.stall_timeout = stall_timeout;
  if (shed_policy == "drop") {
    cfg.np.overload.shed_policy = pbl::net::ShedPolicy::kDropNewestParity;
  } else if (shed_policy == "refuse") {
    cfg.np.overload.shed_policy = pbl::net::ShedPolicy::kRefuse;
  } else if (shed_policy != "defer") {
    std::cerr << "unknown --shed-policy (want defer|drop|refuse)\n";
    return 2;
  }
  cfg.np.overload.nak_suppression = nak_suppression;
  cfg.np.overload.nak_slot = nak_slot;
  cfg.np.overload.feedback_budget = static_cast<std::size_t>(feedback_budget);
  cfg.np.overload.quarantine_deficit =
      static_cast<std::size_t>(quarantine_deficit);
  cfg.np.overload.catch_up_rounds = static_cast<std::size_t>(catch_up_rounds);
  cfg.np.arena_frames = static_cast<std::size_t>(arena_frames);
  cfg.np.guard.enabled = guard;
  cfg.np.guard.auth = guard_auth;
  cfg.np.guard.feedback_rate = guard_rate;
  cfg.np.guard.feedback_burst = guard_burst;
  cfg.np.guard.greylist_after = static_cast<std::size_t>(greylist_after);
  cfg.np.guard.ban_after = static_cast<std::size_t>(ban_after);
  cfg.np.guard.greylist_duration = greylist_duration;
  cfg.np.guard.ban_duration = ban_duration;
  if (!hostile.empty()) {
    pbl::net::AdversaryProfile profile;
    if (!pbl::net::parse_adversary_profile(hostile, profile)) {
      std::cerr << "unknown --hostile profile (want storm|spoof|replay|"
                   "garbage|false-completion)\n";
      return 2;
    }
    cfg.hostile.enabled = true;
    cfg.hostile.profile = hostile;
    cfg.hostile.rate = hostile_rate;
  }
  cfg.faults.send_eagain_every = static_cast<std::size_t>(fault_send_every);
  cfg.faults.send_eagain_burst = static_cast<std::size_t>(fault_send_burst);
  cfg.faults.journal_fail_every = static_cast<std::size_t>(fault_journal_every);
  cfg.faults.socket_fail_nth = static_cast<std::size_t>(fault_socket_nth);
  cfg.journal_dir = journal_dir;
  cfg.snapshot_dir = snapshot_dir;
  cfg.csv_path = csv_path;
  cfg.snapshot_interval = snapshot_interval;
  cfg.drain_grace = drain_grace;
  cfg.receiver_idle_timeout = idle_timeout;
  cfg.exit_when_idle = true;

  pbl::server::Reactor reactor;
  MulticastServer server(reactor, cfg);
  server.install_signal_handlers();

  const auto make_spec = [&](std::uint64_t id) {
    MulticastServer::SessionSpec spec;
    spec.id = id;
    spec.groups =
        make_payload(payload_seed, id, static_cast<std::size_t>(tgs),
                     static_cast<std::size_t>(k),
                     static_cast<std::size_t>(packet_len));
    spec.receivers = static_cast<std::size_t>(receivers);
    spec.data_loss = data_loss;
    spec.impairment.control_drop = control_loss;
    spec.impairment.drop_prob = wire_drop;
    spec.impairment.reorder_prob = wire_reorder;
    if (wire_reorder > 0.0) spec.impairment.reorder_window = 4;
    spec.seed = pbl::Rng(seed ^ 0x5e55u).split(id)();
    return spec;
  };

  std::size_t resumed = 0;
  std::size_t submitted = 0;
  std::size_t refused = 0;
  if (resume) {
    resumed = server.resume_journaled_sessions(
        [&](const pbl::core::SenderSessionState& state) {
          return std::optional<MulticastServer::SessionSpec>(
              make_spec(state.session_id));
        });
  } else {
    for (int id = 0; id < sessions; ++id) {
      if (server.submit(make_spec(static_cast<std::uint64_t>(id))))
        ++submitted;
      else
        ++refused;
    }
  }

  if (server.active_sessions() > 0)
    reactor.run();
  else
    server.write_snapshot();  // nothing to run: still record the outcome

  const std::uint64_t redelivered = server.redelivered_prior_total();
  const std::uint64_t mismatches = server.payload_mismatches_total();
  const auto& sm = server.server_metrics();
  std::printf(
      "multicast_server: backend=%s submitted=%zu resumed=%zu refused=%zu "
      "completed=%llu failed=%llu drained=%llu redelivered_prior=%llu "
      "payload_mismatches=%llu would_block=%llu shed=%llu suppressed=%llu "
      "quarantined=%llu faults=%llu peer_rejected=%llu peer_banned=%llu\n",
      reactor.backend() == pbl::server::Reactor::Backend::kEpoll ? "epoll"
                                                                 : "poll",
      submitted, resumed, refused,
      static_cast<unsigned long long>(server.completed_sessions()),
      static_cast<unsigned long long>(server.failed_sessions()),
      static_cast<unsigned long long>(server.drained_sessions()),
      static_cast<unsigned long long>(redelivered),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(sm.counter("would_block_total")),
      static_cast<unsigned long long>(sm.counter("total_shed_frames")),
      static_cast<unsigned long long>(sm.counter("total_naks_suppressed")),
      static_cast<unsigned long long>(sm.counter("total_members_quarantined")),
      static_cast<unsigned long long>(sm.counter("fault_injected_send") +
                                      sm.counter("fault_injected_journal") +
                                      sm.counter("fault_injected_socket")),
      static_cast<unsigned long long>(sm.counter("total_peer_rejected")),
      static_cast<unsigned long long>(sm.counter("total_peer_banned")));

  const bool ok =
      server.failed_sessions() == 0 && redelivered == 0 && mismatches == 0;
  return ok ? 0 : 1;
}
