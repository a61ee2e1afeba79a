// The long-running multicast server: N concurrent UDP NP sessions
// multiplexed on one Reactor, each owning its write-ahead SessionJournal
// and reliable-control retry state, with admission control, graceful
// SIGTERM drain, crash-resume from journals, and a schema'd metrics
// registry exported as JSON/CSV snapshots (docs/OBSERVABILITY.md).
//
// Lifecycle of a session:
//   submit() ── admission check ──> active (drivers on the reactor)
//     └─ sender + every receiver finish ──> finalized (completed/failed)
//     └─ drain deadline ──> force-stopped ──> finalized (drained),
//        journal checkpointed + receiver bitmaps persisted for the next
//        life; resume_journaled_sessions() picks them up after restart.
//
// Everything runs on the reactor thread, the hostile-test AdversaryPeer
// included: no server code starts a thread, and no locks anywhere.  The
// metrics registries are closed-world (obs/metrics.hpp): the def lists
// in server.cpp ARE the pbl-metrics-v1 schema, and the committed
// metrics-schema.json is generated from them via
// examples/multicast_server --print-schema.  Every driver-fed session
// counter is declared once, in server.cpp's kSessionCounters table,
// which also drives its server total_* roll-up.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/session_state.hpp"
#include "net/udp/udp_np.hpp"
#include "obs/metrics.hpp"
#include "server/adversary.hpp"
#include "server/reactor.hpp"
#include "server/session_driver.hpp"

namespace pbl::server {

struct ServerConfig {
  /// Admission cap: submissions beyond this many concurrently active
  /// sessions are refused (backpressure, not queueing).
  std::size_t max_sessions = 64;
  /// Protocol template for every session; clock defaults to the
  /// reactor's, so every deadline in the server reads one time source.
  net::UdpNpConfig np{};
  /// Directory for write-ahead journals and receiver state files
  /// ("" disables crash tolerance).  The journal's write-ahead hooks run
  /// before np.on_tg_completed / np.on_parities_sent, which still fire.
  std::string journal_dir;
  /// Directory receiving snapshot_NNNNN.json files ("" = in-memory only).
  std::string snapshot_dir;
  /// CSV file appended one server-wide row per snapshot ("" = none).
  std::string csv_path;
  /// Periodic snapshot interval [s]; 0 = only on drain/idle exit.
  double snapshot_interval = 0.0;
  /// Seconds granted to in-flight sessions after request_drain() before
  /// they are force-stopped and journaled for the next life.
  double drain_grace = 5.0;
  /// Mid-session silence budget for every receiver endpoint [s].
  double receiver_idle_timeout = 10.0;
  /// Stop the reactor once every submitted session has finalized (batch
  /// mode — the soak harness); off = keep serving (daemon mode).
  bool exit_when_idle = false;
  /// util::JournalConfig::sync_every; 0 = OS-buffered (soak-friendly).
  /// Journals compact at SessionJournal::Options' checkpoint interval.
  std::size_t journal_sync_every = 0;
  /// Deterministic resource-exhaustion fault injection, applied to every
  /// admitted session (docs/ROBUSTNESS.md).  All zeros = no faults.
  struct FaultPlan {
    /// Every Nth send syscall on a session's sender socket fails with
    /// EAGAIN for a burst of consecutive attempts (0 = off).
    std::size_t send_eagain_every = 0;
    std::size_t send_eagain_burst = 4;
    /// Every Nth journal append fails ENOSPC-style, record lost but the
    /// journal stays usable (0 = off).
    std::size_t journal_fail_every = 0;
    /// The Nth socket creation across the server's lifetime throws
    /// (fd-limit simulation) — the admission is refused, not crashed
    /// (0 = off, 1-based).
    std::size_t socket_fail_nth = 0;
  } faults{};
  /// Byzantine-receiver injection: every admitted session gets one
  /// AdversaryPeer joined to its group, attacking per the profile
  /// (server/adversary.hpp).  Drives test_hostile and soak --scenario
  /// hostile; the np.guard knobs are what the adversary is up against.
  struct HostilePlan {
    std::optional<AdversaryProfile> profile;  ///< nullopt = no adversary
    double rate = 200.0;  ///< attack frames per second
  } hostile{};
};

class MulticastServer {
 public:
  /// One session's payload and per-session knobs.
  struct SessionSpec {
    std::uint64_t id = 0;
    std::vector<net::TgBytes> groups;   ///< num_tgs × k × packet_len
    std::size_t receivers = 2;
    double data_loss = 0.0;             ///< per-receiver injected loss
    net::ImpairmentConfig impairment{}; ///< per-receiver wire faults
    std::uint64_t seed = 1;
  };

  /// Maps a journaled sender state back to its payload, which the server
  /// cannot persist (only progress is durable; data is regenerable).
  /// Return std::nullopt to leave that journal untouched on disk.
  using ResumeProvider = std::function<std::optional<SessionSpec>(
      const core::SenderSessionState&)>;

  MulticastServer(Reactor& reactor, ServerConfig config);
  ~MulticastServer();
  MulticastServer(const MulticastServer&) = delete;
  MulticastServer& operator=(const MulticastServer&) = delete;

  /// Admission-controlled start of a fresh session.  Returns false (and
  /// counts a refusal) when at max_sessions or draining.
  bool submit(SessionSpec spec);

  /// Scans journal_dir for incomplete sessions from a prior life and
  /// resubmits each via the provider (admission rules apply).  Journals
  /// of sessions that were already complete are deleted.  Returns how
  /// many sessions were resumed.
  std::size_t resume_journaled_sessions(const ResumeProvider& provider);

  /// Graceful drain: refuse new admissions, give active sessions
  /// drain_grace seconds to finish, then force-stop and journal the
  /// stragglers; writes a final snapshot and stops the reactor.
  void request_drain();
  bool draining() const noexcept { return draining_; }

  /// SIGTERM/SIGINT → request_drain(), delivered through a self-pipe
  /// registered on the reactor (async-signal-safe).
  void install_signal_handlers();

  std::size_t active_sessions() const noexcept { return active_count_; }
  std::uint64_t completed_sessions() const noexcept {
    return server_metrics_.counter("sessions_completed");
  }
  std::uint64_t failed_sessions() const noexcept {
    return server_metrics_.counter("sessions_failed");
  }
  std::uint64_t drained_sessions() const noexcept {
    return server_metrics_.counter("sessions_drained");
  }
  std::uint64_t refused_sessions() const noexcept {
    return server_metrics_.counter("sessions_refused");
  }
  std::uint64_t resumed_sessions() const noexcept {
    return server_metrics_.counter("sessions_resumed");
  }
  std::uint64_t redelivered_prior_total() const;
  std::uint64_t payload_mismatches_total() const;

  obs::MetricsRegistry& server_metrics() noexcept { return server_metrics_; }
  /// Per-session registry; throws std::out_of_range on unknown id.
  const obs::MetricsRegistry& session_metrics(std::uint64_t id) const;

  /// The full snapshot document (schema header + server + all sessions),
  /// refreshed from live driver state first.
  std::string snapshot_json();
  /// Emits snapshot_json() to snapshot_dir/csv_path per config.
  void write_snapshot();

  /// The pbl-metrics-v1 schema document these registries implement —
  /// byte-identical to the committed metrics-schema.json.
  static std::string schema_document();
  static std::vector<obs::MetricDef> server_metric_defs();
  static std::vector<obs::MetricDef> session_metric_defs();

 private:
  struct Session {
    std::uint64_t id = 0;
    SessionSpec spec;  ///< owns the payload until finalize; drivers borrow it
    std::unique_ptr<core::SessionJournal> journal;
    std::unique_ptr<SenderSessionDriver> sender;
    std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
    /// The session's Byzantine member (ServerConfig::HostilePlan); its
    /// port is in the group but it is NOT counted among `receivers`.
    std::unique_ptr<AdversaryPeer> adversary;
    obs::MetricsRegistry metrics;
    double started_at = 0.0;
    bool resumed = false;
    bool sender_finished = false;
    std::size_t receivers_finished = 0;
    bool finalize_scheduled = false;
    bool finalized = false;

    explicit Session(std::vector<obs::MetricDef> defs)
        : metrics(std::move(defs)) {}
  };

  bool admit(SessionSpec spec, bool resuming);
  void maybe_finish_session(std::uint64_t id);
  void finalize_session(std::uint64_t id, bool drained);
  void refresh_session_metrics(Session& session);
  void refresh_server_metrics();
  void force_stop_all();
  void persist_for_next_life(Session& session);
  void remove_session_files(Session& session);
  void finish_and_stop();
  void schedule_snapshot_timer();
  void on_signal_readable();
  std::string journal_path(std::uint64_t id) const;
  std::string receiver_state_path(std::uint64_t id, std::size_t r) const;

  Reactor& reactor_;
  ServerConfig cfg_;
  obs::MetricsRegistry server_metrics_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  double started_at_ = 0.0;
  std::size_t active_count_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::size_t sockets_created_ = 0;   ///< FaultPlan::socket_fail_nth counter
  std::uint64_t fault_injected_send_ = 0;
  std::uint64_t fault_injected_journal_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
  bool drain_timer_armed_ = false;
  Reactor::TimerId drain_timer_ = 0;
  bool snapshot_timer_armed_ = false;
  Reactor::TimerId snapshot_timer_ = 0;
  int signal_pipe_read_ = -1;
};

}  // namespace pbl::server
