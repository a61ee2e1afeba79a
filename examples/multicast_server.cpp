// Long-running multicast server over loopback UDP: N concurrent NP
// sessions on one reactor thread, with write-ahead journaling, graceful
// SIGTERM drain, crash-resume, and schema'd metrics snapshots.
//
//   multicast_server --sessions=32 --receivers=3 --data-loss=0.1
//       --reliable=true --control-loss=0.05 --journal-dir=/tmp/j
//       --snapshot-dir=/tmp/s --snapshot-interval=0.25
//
// Flags default to their ServerConfig or SessionSpec field's library
// value (--help lists them).  A bad value, an unknown flag, a stray
// argument, a journal or snapshot directory that cannot be created, or a
// configuration the library rejects exits 2 with a message naming it.
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
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
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

// Prints a bad-flag or bad-configuration message; the exit status 2.
int usage_error(const std::string& what) {
  std::cerr << "multicast_server: " << what << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pbl::Cli cli(argc, argv);

  if (cli.has("print-schema")) {
    std::cout << MulticastServer::schema_document();
    return 0;
  }

  // Every flag with a ServerConfig or SessionSpec field defaults to that
  // field's library value; the others are the batch run's own.
  pbl::server::ServerConfig cfg;
  MulticastServer::SessionSpec spec;
  std::size_t sessions = 8;
  std::size_t tgs = 4;
  std::uint64_t seed = 0;
  std::uint64_t payload_seed = 0;
  // Reads --name into field, whose current value is the default.
  const auto read = [&cli](const char* name, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>)
      field = cli.get_bool(name, field);
    else if constexpr (std::is_same_v<T, double>)
      field = cli.get_double(name, field);
    else if constexpr (std::is_same_v<T, std::string>)
      field = cli.get_string(name, field);
    else if constexpr (std::is_same_v<T, std::size_t>)
      field = cli.get_size(name, field);
    else
      static_assert(sizeof(T) == 0, "no getter for this field type");
  };
  try {
    read("sessions", sessions);
    read("tgs", tgs);
    seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
    payload_seed =
        static_cast<std::uint64_t>(cli.get_int64("payload-seed", 42));

    auto& np = cfg.np;
    read("k", np.k);
    read("h", np.h);
    read("packet-len", np.packet_len);
    read("poll-window", np.poll_window);
    read("reliable", np.reliable_control);
    read("grace-rounds", np.retry.grace_rounds);
    read("max-retries", np.retry.max_retries);
    read("session-deadline", np.retry.session_deadline);
    // Overload hardening (docs/ROBUSTNESS.md): all knobs default off.
    read("pace-rate", np.overload.pace_rate);
    read("pace-burst", np.overload.pace_burst);
    read("nak-suppression", np.overload.nak_suppression);
    read("nak-slot", np.overload.nak_slot);
    read("feedback-budget", np.overload.feedback_budget);
    read("quarantine-deficit", np.overload.quarantine_deficit);
    read("catch-up-rounds", np.overload.catch_up_rounds);
    read("arena-frames", np.arena_frames);
    // Hostile-peer hardening (docs/ROBUSTNESS.md): all knobs default off.
    read("guard", np.guard.enabled);
    read("guard-auth", np.guard.auth);
    read("guard-rate", np.guard.feedback_rate);
    read("guard-burst", np.guard.feedback_burst);
    read("greylist-after", np.guard.greylist_after);
    read("ban-after", np.guard.ban_after);
    read("greylist-duration", np.guard.greylist_duration);
    read("ban-duration", np.guard.ban_duration);
    // Byzantine-receiver injection ("" = none; see server/adversary.hpp).
    const std::string hostile = cli.get_string("hostile", "");
    if (!hostile.empty() &&
        !pbl::server::parse_adversary_profile(hostile,
                                              cfg.hostile.profile.emplace()))
      throw std::invalid_argument(
          "--hostile: unknown profile '" + hostile +
          "' (want storm|spoof|replay|garbage|false-completion)");
    read("hostile-rate", cfg.hostile.rate);
    // Resource-exhaustion fault injection: all off by default.
    read("fault-send-every", cfg.faults.send_eagain_every);
    read("fault-send-burst", cfg.faults.send_eagain_burst);
    read("fault-journal-every", cfg.faults.journal_fail_every);
    read("fault-socket-nth", cfg.faults.socket_fail_nth);
    read("journal-dir", cfg.journal_dir);
    read("snapshot-dir", cfg.snapshot_dir);
    read("csv", cfg.csv_path);
    read("snapshot-interval", cfg.snapshot_interval);
    read("drain-grace", cfg.drain_grace);
    read("idle-timeout", cfg.receiver_idle_timeout);

    read("receivers", spec.receivers);
    read("data-loss", spec.data_loss);
    read("control-loss", spec.impairment.control_drop);
    read("wire-drop", spec.impairment.drop_prob);
    read("wire-reorder", spec.impairment.reorder_prob);
    if (spec.impairment.reorder_prob > 0.0) spec.impairment.reorder_window = 4;
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  const bool resume = cli.has("resume");

  if (cli.has("help")) {
    std::cout << cli.usage();
    return 0;
  }
  if (const auto unknown = cli.unqueried(); !unknown.empty()) {
    std::string names;
    for (const auto& arg : unknown) names += " " + arg;
    return usage_error("unknown argument(s):" + names);
  }

  // The library expects its directories to exist; a missing one would
  // abort the run at the first journal or snapshot write.
  for (const auto& [flag, dir] :
       {std::pair{"--journal-dir", cfg.journal_dir},
        std::pair{"--snapshot-dir", cfg.snapshot_dir}}) {
    std::error_code ec;
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    if (ec)
      return usage_error(std::string(flag) + ": cannot create '" + dir +
                         "': " + ec.message());
  }

  // Batch mode admits everything it submits.
  cfg.max_sessions = sessions;
  cfg.exit_when_idle = true;

  raise_fd_limit();

  pbl::server::Reactor reactor;
  MulticastServer server(reactor, cfg);
  server.install_signal_handlers();

  const auto make_spec = [&](std::uint64_t id) {
    MulticastServer::SessionSpec s = spec;
    s.id = id;
    s.groups =
        make_payload(payload_seed, id, tgs, cfg.np.k, cfg.np.packet_len);
    s.seed = pbl::Rng(seed ^ 0x5e55u).split(id)();
    return s;
  };

  std::size_t resumed = 0;
  std::size_t submitted = 0;
  std::size_t refused = 0;
  try {
    if (resume) {
      resumed = server.resume_journaled_sessions(
          [&](const pbl::core::SenderSessionState& state) {
            return std::optional<MulticastServer::SessionSpec>(
                make_spec(state.session_id));
          });
    } else {
      for (std::uint64_t id = 0; id < sessions; ++id) {
        if (server.submit(make_spec(id)))
          ++submitted;
        else
          ++refused;
      }
    }
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
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
      "payload_mismatches=%llu would_block=%llu suppressed=%llu "
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
