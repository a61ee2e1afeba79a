#include "server/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace pbl::server {

namespace {

// SIGTERM/SIGINT land here; the handler may only touch async-signal-safe
// state, so it writes one byte into a pipe the reactor watches.
int g_signal_pipe_write = -1;

extern "C" void pbl_server_signal_handler(int) {
  if (g_signal_pipe_write >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(g_signal_pipe_write, &byte, 1);
  }
}

const char* end_reason_name(net::UdpNpEndReason reason) {
  switch (reason) {
    case net::UdpNpEndReason::kEndOfSession: return "end_of_session";
    case net::UdpNpEndReason::kDrainTimeout: return "drain_timeout";
    case net::UdpNpEndReason::kMidSessionSilence: return "mid_session_silence";
    case net::UdpNpEndReason::kCrashed: return "crashed";
  }
  return "none";
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace

std::vector<obs::MetricDef> MulticastServer::server_metric_defs() {
  using K = obs::MetricKind;
  return {
      {"server_state", K::kString, "lifecycle state of the server process",
       {}, {"starting", "running", "draining", "stopped"}},
      {"sessions_admitted", K::kCounter,
       "sessions accepted by admission control", {}, {}},
      {"sessions_refused", K::kCounter,
       "submissions refused (at max_sessions or draining)", {}, {}},
      {"sessions_resumed", K::kCounter,
       "sessions recovered from write-ahead journals", {}, {}},
      {"sessions_completed", K::kCounter,
       "sessions finished with full delivery", {}, {}},
      {"sessions_failed", K::kCounter,
       "sessions finished degraded (evictions, budgets, crash)", {}, {}},
      {"sessions_drained", K::kCounter,
       "sessions force-stopped and journaled at drain", {}, {}},
      {"signals_received", K::kCounter, "SIGTERM/SIGINT deliveries", {}, {}},
      {"snapshots_written", K::kCounter,
       "metrics snapshots emitted (including this one)", {}, {}},
      {"total_data_sent", K::kCounter, "DATA packets multicast, all sessions",
       {}, {}},
      {"total_parity_sent", K::kCounter,
       "PARITY packets multicast, all sessions", {}, {}},
      {"total_polls_sent", K::kCounter, "POLL rounds, all sessions", {}, {}},
      {"total_naks_received", K::kCounter, "NAKs heard, all sessions", {}, {}},
      {"total_acks_received", K::kCounter, "ACKs heard, all sessions", {}, {}},
      {"total_poll_retries", K::kCounter,
       "sender re-POLLs after silent rounds, all sessions", {}, {}},
      {"total_nak_retries", K::kCounter,
       "receiver NAK retransmissions, all sessions", {}, {}},
      {"total_evictions", K::kCounter,
       "members evicted for silence, all sessions", {}, {}},
      {"total_tgs_completed", K::kCounter,
       "transmission groups confirmed complete, all sessions", {}, {}},
      {"total_tgs_skipped", K::kCounter,
       "resumed TGs never retransmitted, all sessions", {}, {}},
      {"total_stale_rejected", K::kCounter,
       "dead-incarnation packets dropped, all sessions", {}, {}},
      {"total_redelivered_prior", K::kCounter,
       "exactly-once violations: packets for journal-confirmed TGs",
       {}, {}},
      {"total_payload_mismatches", K::kCounter,
       "decoded TGs that failed end-to-end byte verification", {}, {}},
      {"would_block_total", K::kCounter,
       "kernel send-buffer pushbacks absorbed, all sessions", {}, {}},
      {"total_arena_deferrals", K::kCounter,
       "bursts deferred on packet-arena exhaustion, all sessions", {}, {}},
      {"total_shed_frames", K::kCounter,
       "frames shed under sustained overload, all sessions", {}, {}},
      {"total_naks_suppressed", K::kCounter,
       "NAKs suppressed (slotting or feedback budget), all sessions", {}, {}},
      {"total_members_quarantined", K::kCounter,
       "slow receivers moved to parity-only catch-up, all sessions", {}, {}},
      {"total_peer_rejected", K::kCounter,
       "hostile datagrams dropped before protocol state, all sessions",
       {}, {}},
      {"total_peer_greylisted", K::kCounter,
       "peer greylist episodes, all sessions", {}, {}},
      {"total_peer_banned", K::kCounter, "peer ban episodes, all sessions",
       {}, {}},
      {"total_feedback_addr_mismatch", K::kCounter,
       "feedback whose claimed identity contradicted its source, all sessions",
       {}, {}},
      {"total_frame_resyncs", K::kCounter,
       "byte-level resync slides while salvaging datagrams, all sessions",
       {}, {}},
      {"total_frames_skipped", K::kCounter,
       "unparseable frames dropped on the receive path, all sessions",
       {}, {}},
      {"fault_injected_send", K::kCounter,
       "injected send-syscall failures absorbed, all sessions", {}, {}},
      {"fault_injected_journal", K::kCounter,
       "injected journal write failures absorbed, all sessions", {}, {}},
      {"fault_injected_socket", K::kCounter,
       "injected socket-creation failures (admissions refused)", {}, {}},
      {"sessions_active", K::kGauge, "sessions currently on the reactor", {},
       {}},
      {"fds_registered", K::kGauge, "descriptors registered with the reactor",
       {}, {}},
      {"timers_armed", K::kGauge, "live reactor timers", {}, {}},
      {"uptime_seconds", K::kGauge, "seconds since server construction", {},
       {}},
      {"journal_bytes_total", K::kGauge,
       "bytes across all active session journals", {}, {}},
      {"session_duration_seconds", K::kHistogram,
       "wall-clock lifetime of finalized sessions",
       {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0}, {}},
      {"session_tx_per_packet", K::kHistogram,
       "transmissions per data packet of finalized sessions",
       {1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0}, {}},
  };
}

std::vector<obs::MetricDef> MulticastServer::session_metric_defs() {
  using K = obs::MetricKind;
  return {
      {"state", K::kString, "session lifecycle state", {},
       {"active", "completed", "failed", "drained"}},
      {"end_reason", K::kString,
       "what ended the receivers' runs (worst across members)", {},
       {"none", "end_of_session", "drain_timeout", "mid_session_silence",
        "crashed"}},
      {"resumed", K::kCounter, "1 when recovered from a journal", {}, {}},
      {"data_sent", K::kCounter, "DATA packets multicast", {}, {}},
      {"parity_sent", K::kCounter, "PARITY packets multicast", {}, {}},
      {"polls_sent", K::kCounter, "POLL rounds sent", {}, {}},
      {"naks_received", K::kCounter, "NAKs heard by the sender", {}, {}},
      {"acks_received", K::kCounter, "ACKs heard by the sender", {}, {}},
      {"poll_retries", K::kCounter, "re-POLLs after silent rounds", {}, {}},
      {"evictions", K::kCounter, "members evicted for silence", {}, {}},
      {"tgs_completed", K::kCounter, "TGs confirmed complete this life", {},
       {}},
      {"tgs_skipped", K::kCounter, "TGs skipped as complete in a prior life",
       {}, {}},
      {"tgs_unconfirmed", K::kCounter, "TGs whose re-POLL budget ran out", {},
       {}},
      {"tgs_exhausted", K::kCounter, "TGs whose parity budget ran out", {},
       {}},
      {"would_block", K::kCounter,
       "kernel send-buffer pushbacks absorbed by the sender", {}, {}},
      {"arena_deferrals", K::kCounter,
       "bursts deferred on packet-arena exhaustion", {}, {}},
      {"shed_frames", K::kCounter, "frames shed under sustained overload", {},
       {}},
      {"naks_suppressed", K::kCounter,
       "NAKs suppressed by slotting or the sender feedback budget", {}, {}},
      {"members_quarantined", K::kCounter,
       "slow receivers moved to parity-only catch-up", {}, {}},
      {"peer_rejected", K::kCounter,
       "hostile datagrams dropped before protocol state (guard rejections "
       "plus receiver-side foreign-source and auth drops)", {}, {}},
      {"peer_greylisted", K::kCounter,
       "greylist episodes pronounced by the peer guard", {}, {}},
      {"peer_banned", K::kCounter, "ban episodes pronounced by the peer guard",
       {}, {}},
      {"members_expelled", K::kCounter,
       "banned members exempted from the completeness requirement", {}, {}},
      {"feedback_addr_mismatch", K::kCounter,
       "feedback whose claimed identity contradicted its kernel-reported "
       "source", {}, {}},
      {"frame_resyncs", K::kCounter,
       "byte-level resync slides while salvaging malformed datagrams", {}, {}},
      {"frames_skipped", K::kCounter,
       "unparseable frames dropped on the receive path", {}, {}},
      {"receiver_naks_sent", K::kCounter, "NAKs sent across all members", {},
       {}},
      {"receiver_nak_retries", K::kCounter,
       "NAK retransmissions across all members", {}, {}},
      {"receiver_duplicates", K::kCounter,
       "redundant DATA/PARITY receptions across all members", {}, {}},
      {"receiver_stale_rejected", K::kCounter,
       "dead-incarnation packets dropped across all members", {}, {}},
      {"redelivered_prior", K::kCounter,
       "exactly-once violations across all members", {}, {}},
      {"payload_mismatches", K::kCounter,
       "decoded TGs failing byte verification across all members", {}, {}},
      {"receivers", K::kGauge, "members in the group", {}, {}},
      {"receivers_finished", K::kGauge, "members whose run has ended", {}, {}},
      {"tgs_done_min", K::kGauge, "fewest TGs decoded by any member", {}, {}},
      {"journal_bytes", K::kGauge, "write-ahead journal size on disk", {}, {}},
      {"duration_seconds", K::kGauge, "seconds since session admission", {},
       {}},
  };
}

std::string MulticastServer::schema_document() {
  return obs::metrics_schema_document(server_metric_defs(),
                                      session_metric_defs());
}

MulticastServer::MulticastServer(Reactor& reactor, ServerConfig config)
    : reactor_(reactor), cfg_(std::move(config)),
      server_metrics_(server_metric_defs()) {
  if (!cfg_.np.clock) cfg_.np.clock = &reactor_.clock();
  started_at_ = reactor_.now();
  server_metrics_.set_string("server_state", "running");
  schedule_snapshot_timer();
}

MulticastServer::~MulticastServer() {
  if (drain_timer_armed_) reactor_.cancel_timer(drain_timer_);
  if (snapshot_timer_armed_) reactor_.cancel_timer(snapshot_timer_);
  if (signal_pipe_read_ >= 0) {
    reactor_.remove_fd(signal_pipe_read_);
    ::close(signal_pipe_read_);
    if (g_signal_pipe_write >= 0) {
      ::close(g_signal_pipe_write);
      g_signal_pipe_write = -1;
    }
  }
}

std::string MulticastServer::journal_path(std::uint64_t id) const {
  return cfg_.journal_dir + "/session_" + std::to_string(id) + ".journal";
}

std::string MulticastServer::receiver_state_path(std::uint64_t id,
                                                 std::size_t r) const {
  return cfg_.journal_dir + "/recv_" + std::to_string(id) + "_" +
         std::to_string(r) + ".state";
}

bool MulticastServer::submit(SessionSpec spec) {
  return admit(std::move(spec), /*resuming=*/false);
}

bool MulticastServer::admit(SessionSpec spec, bool resuming) {
  if (stopped_ || draining_ || active_count_ >= cfg_.max_sessions ||
      sessions_.count(spec.id)) {
    ++refused_;
    server_metrics_.inc("sessions_refused");
    return false;
  }
  if (spec.groups.empty())
    throw std::invalid_argument("MulticastServer: session needs >= 1 TG");
  if (spec.receivers == 0)
    throw std::invalid_argument("MulticastServer: session needs >= 1 receiver");
  for (const auto& tg : spec.groups)
    if (tg.size() != cfg_.np.k)
      throw std::invalid_argument("MulticastServer: each TG needs k packets");

  auto session = std::make_unique<Session>(session_metric_defs());
  Session& s = *session;
  s.id = spec.id;
  s.spec = std::move(spec);
  s.started_at = reactor_.now();
  s.resumed = resuming;
  const std::uint64_t id = s.id;
  const std::size_t num_tgs = s.spec.groups.size();

  net::UdpNpConfig np = cfg_.np;
  np.seed = s.spec.seed;
  // Session auth keys are minted at admission, deterministically from
  // (seed, id): a resumed life derives the SAME key, so receivers that
  // survived the crash keep verifying the new sender incarnation.
  if (np.guard.auth && np.guard.auth_key == 0)
    np.guard.auth_key = net::siphash24(s.spec.seed, id, {});

  // Crash tolerance: open (or recover) this session's write-ahead
  // journal before a single packet moves.  SessionJournal bumps and
  // journals the incarnation itself on resume.
  std::vector<std::vector<bool>> recv_resume(s.spec.receivers);
  std::vector<std::uint32_t> recv_inc(s.spec.receivers, 0);
  if (!cfg_.journal_dir.empty()) {
    core::SenderSessionState fresh;
    fresh.session_id = id;
    fresh.k = static_cast<std::uint32_t>(np.k);
    fresh.h = static_cast<std::uint32_t>(np.h);
    fresh.packet_len = static_cast<std::uint32_t>(np.packet_len);
    fresh.num_tgs = static_cast<std::uint32_t>(num_tgs);
    fresh.completed.assign(num_tgs, false);
    fresh.parities_sent.assign(num_tgs, 0);
    core::SessionJournal::Options jopt;
    jopt.checkpoint_interval = cfg_.journal_checkpoint_interval;
    jopt.sync_every = cfg_.journal_sync_every;
    s.journal = std::make_unique<core::SessionJournal>(journal_path(id), fresh,
                                                       jopt);
    const core::SenderSessionState& st = s.journal->state();
    np.incarnation = st.incarnation;
    if (s.journal->resumed()) {
      np.resume_completed = st.completed;
      np.resume_parities = st.parities_sent;
      for (std::size_t r = 0; r < s.spec.receivers; ++r) {
        if (auto rs =
                core::load_receiver_state_file(receiver_state_path(id, r))) {
          if (rs->num_tgs == num_tgs) {
            recv_resume[r] = rs->decoded;
            recv_inc[r] = rs->incarnation;
          }
        }
      }
    }
    // The journal's hooks run first (write-ahead order), then the
    // caller's own from ServerConfig::np.
    core::SessionJournal* journal = s.journal.get();
    auto completed = std::move(np.on_tg_completed);
    auto parities = std::move(np.on_parities_sent);
    np.on_tg_completed = [journal, completed](std::size_t tg) {
      journal->record_tg_completed(tg);
      if (completed) completed(tg);
    };
    np.on_parities_sent = [journal, parities](std::size_t tg, std::size_t hw) {
      journal->record_parities_sent(tg, hw);
      if (parities) parities(tg, hw);
    };
    if (cfg_.faults.journal_fail_every > 0)
      s.journal->journal().inject_write_failure(cfg_.faults.journal_fail_every);
  }

  // Socket creation can fail (fd limit) — for real or by injection.  An
  // exhausted descriptor table refuses the admission; it never crashes
  // the server or strands a half-built session.
  auto make_socket = [this] {
    ++sockets_created_;
    if (cfg_.faults.socket_fail_nth > 0 &&
        sockets_created_ == cfg_.faults.socket_fail_nth) {
      ++fault_injected_socket_;
      server_metrics_.inc("fault_injected_socket");
      throw std::system_error(EMFILE, std::generic_category(),
                              "socket (injected fd limit)");
    }
    return net::UdpSocket();  // ephemeral loopback port
  };
  std::optional<net::UdpSocket> sender_socket;
  std::vector<net::UdpSocket> receiver_sockets;
  net::UdpGroup group;
  try {
    sender_socket.emplace(make_socket());
    for (std::size_t r = 0; r < s.spec.receivers; ++r) {
      receiver_sockets.push_back(make_socket());
      group.add_member(receiver_sockets.back().port());
    }
  } catch (const std::system_error&) {
    s.journal.reset();
    if (!resuming) remove_session_files(s);  // fresh journal: nothing to keep
    ++refused_;
    server_metrics_.inc("sessions_refused");
    return false;
  }
  const std::uint16_t sender_port = sender_socket->port();

  // Byzantine injection: the adversary binds its own socket and joins
  // the group as a full member — the sender multicasts to it, tracks it,
  // and owes it completeness until the guard bans (expels) it.  It is
  // NOT in `receivers`, so honest-side accounting is untouched.
  if (cfg_.hostile.enabled) {
    net::AdversaryConfig ac;
    if (!net::parse_adversary_profile(cfg_.hostile.profile, ac.profile))
      throw std::invalid_argument("MulticastServer: unknown hostile profile " +
                                  cfg_.hostile.profile);
    ac.sender_port = sender_port;
    ac.victims = group.members();  // honest members only, joined so far
    ac.rate = cfg_.hostile.rate;
    ac.seed = s.spec.seed ^ (id * 0xAD5EC0DEull) ^ 0xBADF00Dull;
    ac.k = np.k;
    ac.num_tgs = num_tgs;
    ac.auth = np.guard.auth;
    ac.auth_key = np.guard.auth_key;
    ac.incarnation = static_cast<std::uint8_t>(np.incarnation);
    s.adversary = std::make_unique<net::AdversaryPeer>(std::move(ac));
    group.add_member(s.adversary->port());
  }

  if (cfg_.faults.send_eagain_every > 0)
    sender_socket->inject_send_errno_every(EAGAIN, cfg_.faults.send_eagain_every,
                                           cfg_.faults.send_eagain_burst);

  for (std::size_t r = 0; r < s.spec.receivers; ++r) {
    ReceiverSessionDriver::Options opt;
    opt.idle_timeout = cfg_.receiver_idle_timeout;
    opt.data_loss = s.spec.data_loss;
    opt.rng = Rng(s.spec.seed ^ (id * 0x9E3779B97F4A7C15ull))
                  .split(0xA000 + r);
    opt.impairment = s.spec.impairment;
    opt.resume_decoded = std::move(recv_resume[r]);
    opt.resume_confirmed = np.resume_completed;
    opt.resume_incarnation = recv_inc[r];
    opt.expected = &s.spec.groups;
    s.receivers.push_back(std::make_unique<ReceiverSessionDriver>(
        reactor_, std::move(receiver_sockets[r]), sender_port, num_tgs, np,
        std::move(opt), [this, id] {
          Session& owner = *sessions_.at(id);
          ++owner.receivers_finished;
          maybe_finish_session(id);
        }));
  }
  s.sender = std::make_unique<SenderSessionDriver>(
      reactor_, std::move(*sender_socket), std::move(group), np, s.spec.groups,
      [this, id] {
        sessions_.at(id)->sender_finished = true;
        maybe_finish_session(id);
      });

  s.metrics.set_string("state", "active");
  s.metrics.set_string("end_reason", "none");
  s.metrics.set_counter("resumed", resuming ? 1 : 0);
  s.metrics.set_gauge("receivers", static_cast<double>(s.spec.receivers));

  sessions_.emplace(id, std::move(session));
  ++active_count_;
  ++admitted_;
  if (resuming) ++resumed_;
  server_metrics_.inc("sessions_admitted");
  if (resuming) server_metrics_.inc("sessions_resumed");
  server_metrics_.set_gauge("sessions_active",
                            static_cast<double>(active_count_));

  Session& started = *sessions_.at(id);
  for (auto& r : started.receivers) r->start();
  started.sender->start();
  if (started.adversary) started.adversary->start();
  return true;
}

std::size_t MulticastServer::resume_journaled_sessions(
    const ResumeProvider& provider) {
  if (cfg_.journal_dir.empty()) return 0;
  std::size_t resumed = 0;
  for (const auto& path : core::list_session_journals(cfg_.journal_dir)) {
    const auto state = core::peek_session_journal(path);
    if (!state) continue;
    if (state->all_complete()) {
      // The prior life finished every TG but was stopped before it could
      // clean up: the session IS complete — bookkeep it, no re-run.
      ++completed_;
      server_metrics_.inc("sessions_completed");
      std::error_code ec;
      std::filesystem::remove(path, ec);
      for (std::size_t r = 0; r < 1024; ++r) {
        const std::string rp = receiver_state_path(state->session_id, r);
        if (!std::filesystem::remove(rp, ec)) break;
      }
      continue;
    }
    auto spec = provider(*state);
    if (!spec) continue;
    spec->id = state->session_id;
    if (admit(std::move(*spec), /*resuming=*/true)) ++resumed;
  }
  return resumed;
}

void MulticastServer::maybe_finish_session(std::uint64_t id) {
  Session& s = *sessions_.at(id);
  if (s.finalized || s.finalize_scheduled) return;
  if (!s.sender_finished || s.receivers_finished < s.receivers.size()) return;
  // Defer one reactor round: the callback that brought us here is still
  // on a driver's stack frame, and finalize destroys the drivers.
  s.finalize_scheduled = true;
  reactor_.add_timer(reactor_.now(),
                     [this, id] { finalize_session(id, /*drained=*/false); });
}

void MulticastServer::refresh_session_metrics(Session& s) {
  auto& m = s.metrics;
  if (s.sender) {
    const net::UdpNpSenderStats& st = s.sender->stats();
    m.set_counter("data_sent", st.data_sent);
    m.set_counter("parity_sent", st.parity_sent);
    m.set_counter("polls_sent", st.polls_sent);
    m.set_counter("naks_received", st.naks_received);
    m.set_counter("acks_received", st.acks_received);
    m.set_counter("poll_retries", st.poll_retries);
    m.set_counter("evictions", st.evictions);
    m.set_counter("tgs_completed", s.sender->tgs_completed());
    m.set_counter("tgs_skipped", st.tgs_skipped);
    m.set_counter("tgs_unconfirmed", st.tgs_unconfirmed);
    m.set_counter("tgs_exhausted", st.tgs_exhausted);
    m.set_counter("would_block", st.would_block);
    m.set_counter("arena_deferrals", st.arena_deferrals);
    m.set_counter("shed_frames", st.shed_frames);
    m.set_counter("members_quarantined", st.members_quarantined);
  }
  if (s.sender || !s.receivers.empty()) {
    std::uint64_t supp = s.sender ? s.sender->stats().naks_suppressed : 0;
    for (const auto& r : s.receivers) supp += r->result().naks_suppressed;
    m.set_counter("naks_suppressed", supp);
  }
  if (!s.receivers.empty()) {
    std::uint64_t naks = 0, retries = 0, dups = 0, stale = 0, redeliv = 0,
                  mismatch = 0;
    std::size_t min_done = static_cast<std::size_t>(-1);
    for (const auto& r : s.receivers) {
      const net::UdpNpReceiverResult& res = r->result();
      naks += res.naks_sent;
      retries += res.nak_retries;
      dups += res.duplicates;
      stale += res.stale_rejected;
      redeliv += r->redelivered_prior();
      mismatch += r->payload_mismatches();
      min_done = std::min(min_done, r->tgs_done());
    }
    m.set_counter("receiver_naks_sent", naks);
    m.set_counter("receiver_nak_retries", retries);
    m.set_counter("receiver_duplicates", dups);
    m.set_counter("receiver_stale_rejected", stale);
    m.set_counter("redelivered_prior", redeliv);
    m.set_counter("payload_mismatches", mismatch);
    m.set_gauge("tgs_done_min", static_cast<double>(min_done));
  }
  if (s.sender || !s.receivers.empty()) {
    // Hostile-peer evidence combines the sender-side guard with the
    // receiver-side source/auth drops; frame-desync counters span every
    // socket in the session.
    std::uint64_t foreign = 0, auth_rej = 0, resyncs = 0, skipped = 0;
    for (const auto& r : s.receivers) {
      foreign += r->result().foreign_rejected;
      auth_rej += r->result().auth_rejected;
      resyncs += r->frame_resyncs();
      skipped += r->frames_skipped();
    }
    if (s.sender) {
      const net::UdpNpSenderStats& st = s.sender->stats();
      m.set_counter("peer_rejected", st.guard.rejected + foreign + auth_rej);
      m.set_counter("peer_greylisted", st.guard.greylisted);
      m.set_counter("peer_banned", st.guard.banned);
      m.set_counter("members_expelled", st.report.expelled);
      m.set_counter("feedback_addr_mismatch",
                    st.feedback_addr_mismatch + st.guard.addr_mismatch);
      resyncs += s.sender->frame_resyncs();
      skipped += s.sender->frames_skipped();
    }
    m.set_counter("frame_resyncs", resyncs);
    m.set_counter("frames_skipped", skipped);
  }
  m.set_gauge("receivers_finished", static_cast<double>(s.receivers_finished));
  m.set_gauge("journal_bytes",
              s.journal ? static_cast<double>(s.journal->journal().size_bytes())
                        : 0.0);
  if (!s.finalized)
    m.set_gauge("duration_seconds", reactor_.now() - s.started_at);
}

void MulticastServer::refresh_server_metrics() {
  server_metrics_.set_counter("sessions_admitted", admitted_);
  server_metrics_.set_counter("sessions_refused", refused_);
  server_metrics_.set_counter("sessions_resumed", resumed_);
  server_metrics_.set_counter("sessions_completed", completed_);
  server_metrics_.set_counter("sessions_failed", failed_);
  server_metrics_.set_counter("sessions_drained", drained_);
  server_metrics_.set_gauge("sessions_active",
                            static_cast<double>(active_count_));
  server_metrics_.set_gauge("fds_registered",
                            static_cast<double>(reactor_.fd_count()));
  server_metrics_.set_gauge("timers_armed",
                            static_cast<double>(reactor_.timer_count()));
  server_metrics_.set_gauge("uptime_seconds", reactor_.now() - started_at_);
  double journal_bytes = 0.0;
  std::uint64_t fsend = fault_injected_send_;
  std::uint64_t fjournal = fault_injected_journal_;
  for (const auto& [id, s] : sessions_) {
    if (s->journal) {
      journal_bytes += static_cast<double>(s->journal->journal().size_bytes());
      fjournal += s->journal->journal().write_failures();
    }
    if (s->sender) fsend += s->sender->injected_send_failures();
  }
  server_metrics_.set_gauge("journal_bytes_total", journal_bytes);
  server_metrics_.set_counter("fault_injected_send", fsend);
  server_metrics_.set_counter("fault_injected_journal", fjournal);
  server_metrics_.set_counter("fault_injected_socket", fault_injected_socket_);
}

void MulticastServer::finalize_session(std::uint64_t id, bool drained) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->finalized) return;
  Session& s = *it->second;
  // The attack thread must stop before the sockets it aims at close.
  if (s.adversary) s.adversary->stop();
  refresh_session_metrics(s);
  const double duration = reactor_.now() - s.started_at;
  s.metrics.set_gauge("duration_seconds", duration);

  std::string state;
  if (drained) {
    state = "drained";
  } else {
    bool ok;
    if (cfg_.np.reliable_control) {
      ok = s.sender->stats().report.complete;
    } else {
      ok = !s.sender->stats().crashed;
      for (const auto& r : s.receivers) ok = ok && r->result().complete;
    }
    for (const auto& r : s.receivers)
      ok = ok && r->payload_mismatches() == 0 && r->redelivered_prior() == 0;
    state = ok ? "completed" : "failed";
  }
  s.metrics.set_string("state", state);
  if (!s.receivers.empty()) {
    std::string reason = "end_of_session";
    for (const auto& r : s.receivers) {
      if (r->result().end_reason != net::UdpNpEndReason::kEndOfSession) {
        reason = end_reason_name(r->result().end_reason);
        break;
      }
    }
    s.metrics.set_string("end_reason", drained ? "drain_timeout" : reason);
  }

  // Fold this session's lifetime counters into the server registry.
  server_metrics_.inc("total_data_sent", s.metrics.counter("data_sent"));
  server_metrics_.inc("total_parity_sent", s.metrics.counter("parity_sent"));
  server_metrics_.inc("total_polls_sent", s.metrics.counter("polls_sent"));
  server_metrics_.inc("total_naks_received",
                      s.metrics.counter("naks_received"));
  server_metrics_.inc("total_acks_received",
                      s.metrics.counter("acks_received"));
  server_metrics_.inc("total_poll_retries", s.metrics.counter("poll_retries"));
  server_metrics_.inc("total_nak_retries",
                      s.metrics.counter("receiver_nak_retries"));
  server_metrics_.inc("total_evictions", s.metrics.counter("evictions"));
  server_metrics_.inc("total_tgs_completed",
                      s.metrics.counter("tgs_completed"));
  server_metrics_.inc("total_tgs_skipped", s.metrics.counter("tgs_skipped"));
  server_metrics_.inc("total_stale_rejected",
                      s.metrics.counter("receiver_stale_rejected"));
  server_metrics_.inc("total_redelivered_prior",
                      s.metrics.counter("redelivered_prior"));
  server_metrics_.inc("total_payload_mismatches",
                      s.metrics.counter("payload_mismatches"));
  server_metrics_.inc("would_block_total", s.metrics.counter("would_block"));
  server_metrics_.inc("total_arena_deferrals",
                      s.metrics.counter("arena_deferrals"));
  server_metrics_.inc("total_shed_frames", s.metrics.counter("shed_frames"));
  server_metrics_.inc("total_naks_suppressed",
                      s.metrics.counter("naks_suppressed"));
  server_metrics_.inc("total_members_quarantined",
                      s.metrics.counter("members_quarantined"));
  server_metrics_.inc("total_peer_rejected",
                      s.metrics.counter("peer_rejected"));
  server_metrics_.inc("total_peer_greylisted",
                      s.metrics.counter("peer_greylisted"));
  server_metrics_.inc("total_peer_banned", s.metrics.counter("peer_banned"));
  server_metrics_.inc("total_feedback_addr_mismatch",
                      s.metrics.counter("feedback_addr_mismatch"));
  server_metrics_.inc("total_frame_resyncs",
                      s.metrics.counter("frame_resyncs"));
  server_metrics_.inc("total_frames_skipped",
                      s.metrics.counter("frames_skipped"));
  if (s.sender) fault_injected_send_ += s.sender->injected_send_failures();
  if (s.journal)
    fault_injected_journal_ += s.journal->journal().write_failures();
  server_metrics_.observe("session_duration_seconds", duration);
  if (s.sender && s.sender->stats().tx_per_packet > 0.0)
    server_metrics_.observe("session_tx_per_packet",
                            s.sender->stats().tx_per_packet);

  if (state == "completed") {
    ++completed_;
    server_metrics_.inc("sessions_completed");
  } else if (state == "failed") {
    ++failed_;
    server_metrics_.inc("sessions_failed");
  } else {
    ++drained_;
    server_metrics_.inc("sessions_drained");
  }

  // Release the drivers (sockets, fds, timers) — at a thousand sessions
  // holding finished drivers open exhausts the descriptor table.  The
  // journal closes too; its file stays only for drained sessions.  The
  // payload the drivers borrowed goes last: a drained session persisted
  // its state before this point, and session_metrics() never reads it.
  s.sender.reset();
  s.receivers.clear();
  s.adversary.reset();
  s.journal.reset();
  std::vector<net::TgBytes>().swap(s.spec.groups);
  if (state != "drained") remove_session_files(s);
  s.finalized = true;
  --active_count_;
  server_metrics_.set_gauge("sessions_active",
                            static_cast<double>(active_count_));

  if (active_count_ == 0 && (draining_ || cfg_.exit_when_idle))
    finish_and_stop();
}

void MulticastServer::persist_for_next_life(Session& s) {
  if (!s.journal || cfg_.journal_dir.empty()) return;
  for (std::size_t r = 0; r < s.receivers.size(); ++r) {
    core::ReceiverSessionState rs;
    rs.session_id = s.id;
    rs.receiver = static_cast<std::uint32_t>(r);
    rs.incarnation = s.receivers[r]->incarnation_heard();
    rs.num_tgs = static_cast<std::uint32_t>(s.spec.groups.size());
    rs.decoded = s.receivers[r]->decoded_bitmap();
    core::save_receiver_state_file(receiver_state_path(s.id, r), rs);
  }
  s.journal->checkpoint();
}

void MulticastServer::remove_session_files(Session& s) {
  if (cfg_.journal_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove(journal_path(s.id), ec);
  for (std::size_t r = 0; r < s.spec.receivers; ++r)
    std::filesystem::remove(receiver_state_path(s.id, r), ec);
}

void MulticastServer::force_stop_all() {
  for (auto& [id, session] : sessions_) {
    Session& s = *session;
    if (s.finalized) continue;
    if (s.sender_finished && s.receivers_finished >= s.receivers.size()) {
      // Finished naturally; only its deferred finalize timer is pending.
      finalize_session(id, /*drained=*/false);
      continue;
    }
    persist_for_next_life(s);
    if (s.sender) s.sender->stop();
    for (auto& r : s.receivers) r->stop();
    finalize_session(id, /*drained=*/true);
  }
  if (!stopped_ && active_count_ == 0 && draining_) finish_and_stop();
}

void MulticastServer::request_drain() {
  if (draining_ || stopped_) return;
  draining_ = true;
  server_metrics_.set_string("server_state", "draining");
  if (active_count_ == 0) {
    finish_and_stop();
    return;
  }
  drain_timer_ = reactor_.add_timer(reactor_.now() + cfg_.drain_grace, [this] {
    drain_timer_armed_ = false;
    force_stop_all();
  });
  drain_timer_armed_ = true;
}

void MulticastServer::finish_and_stop() {
  if (stopped_) return;
  stopped_ = true;
  if (drain_timer_armed_) {
    reactor_.cancel_timer(drain_timer_);
    drain_timer_armed_ = false;
  }
  if (snapshot_timer_armed_) {
    reactor_.cancel_timer(snapshot_timer_);
    snapshot_timer_armed_ = false;
  }
  server_metrics_.set_string("server_state", "stopped");
  write_snapshot();
  reactor_.stop();
}

void MulticastServer::schedule_snapshot_timer() {
  if (cfg_.snapshot_interval <= 0.0 || stopped_) return;
  snapshot_timer_ =
      reactor_.add_timer(reactor_.now() + cfg_.snapshot_interval, [this] {
        snapshot_timer_armed_ = false;
        if (stopped_) return;
        write_snapshot();
        schedule_snapshot_timer();
      });
  snapshot_timer_armed_ = true;
}

void MulticastServer::install_signal_handlers() {
  if (signal_pipe_read_ >= 0) return;
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::system_error(errno, std::generic_category(), "pipe");
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  signal_pipe_read_ = fds[0];
  g_signal_pipe_write = fds[1];
  struct sigaction sa{};
  sa.sa_handler = pbl_server_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  reactor_.add_fd(signal_pipe_read_, [this] { on_signal_readable(); });
}

void MulticastServer::on_signal_readable() {
  char buf[64];
  while (::read(signal_pipe_read_, buf, sizeof(buf)) > 0) {
  }
  server_metrics_.inc("signals_received");
  request_drain();
}

const obs::MetricsRegistry& MulticastServer::session_metrics(
    std::uint64_t id) const {
  return sessions_.at(id)->metrics;
}

std::uint64_t MulticastServer::redelivered_prior_total() const {
  std::uint64_t total = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s->receivers.empty()) {
      for (const auto& r : s->receivers) total += r->redelivered_prior();
    } else {
      total += s->metrics.counter("redelivered_prior");
    }
  }
  return total;
}

std::uint64_t MulticastServer::payload_mismatches_total() const {
  std::uint64_t total = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s->receivers.empty()) {
      for (const auto& r : s->receivers) total += r->payload_mismatches();
    } else {
      total += s->metrics.counter("payload_mismatches");
    }
  }
  return total;
}

std::string MulticastServer::snapshot_json() {
  for (auto& [id, s] : sessions_)
    if (!s->finalized) refresh_session_metrics(*s);
  refresh_server_metrics();

  std::string out;
  out += "{\n  \"schema\": \"";
  out += obs::kMetricsSchemaName;
  out += "\",\n  \"version\": ";
  out += std::to_string(obs::kMetricsSchemaVersion);
  out += ",\n  \"kind\": \"snapshot\",\n  \"time\": ";
  obs::append_json_double(out, reactor_.now());
  out += ",\n  \"server\": ";
  server_metrics_.values_json(out, 2);
  out += ",\n  \"sessions\": {";
  bool first = true;
  for (const auto& [id, s] : sessions_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + std::to_string(id) + "\": ";
    s->metrics.values_json(out, 4);
  }
  out += sessions_.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

void MulticastServer::write_snapshot() {
  server_metrics_.inc("snapshots_written");
  const std::string doc = snapshot_json();
  if (!cfg_.snapshot_dir.empty()) {
    char name[40];
    std::snprintf(name, sizeof(name), "snapshot_%05llu.json",
                  static_cast<unsigned long long>(snapshot_seq_));
    write_text_file(cfg_.snapshot_dir + "/" + name, doc);
  }
  ++snapshot_seq_;
  if (!cfg_.csv_path.empty()) {
    bool need_header = true;
    {
      std::error_code ec;
      const auto size = std::filesystem::file_size(cfg_.csv_path, ec);
      need_header = ec || size == 0;
    }
    std::ofstream out(cfg_.csv_path, std::ios::app);
    if (out) {
      if (need_header) out << "time," << server_metrics_.csv_header() << "\n";
      std::string row;
      obs::append_json_double(row, reactor_.now());
      out << row << "," << server_metrics_.csv_row() << "\n";
    }
  }
}

}  // namespace pbl::server
