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
#include <type_traits>
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

using Receivers = std::vector<std::unique_ptr<ReceiverSessionDriver>>;
using Reader = std::uint64_t (*)(const SenderSessionDriver&, const Receivers&);
using SS = net::UdpNpSenderStats;
using RR = net::UdpNpReceiverResult;
using PG = net::PeerGuardStats;

// One sender figure: a driver accessor, or a stats field reached through
// member pointers (sender_stat<&SS::guard, &PG::banned>).
template <auto F, auto... Sub>
std::uint64_t sender_stat(const SenderSessionDriver& s, const Receivers&) {
  if constexpr (std::is_member_function_pointer_v<decltype(F)>)
    return (s.*F)();
  else
    return ((s.stats().*F) .* ... .* Sub);
}

// One receiver figure (result field or driver accessor) summed over
// every member.
template <auto F>
std::uint64_t receiver_sum(const SenderSessionDriver&, const Receivers& rs) {
  std::uint64_t total = 0;
  for (const auto& r : rs) {
    if constexpr (std::is_member_function_pointer_v<decltype(F)>)
      total += ((*r).*F)();
    else
      total += r->result().*F;
  }
  return total;
}

// A counter fed by several sources.
template <Reader... Parts>
std::uint64_t sum_of(const SenderSessionDriver& s, const Receivers& rs) {
  return (Parts(s, rs) + ...);
}

// Every driver-fed session counter, in session-schema order.  A row
// declares the counter, the server total it folds into at finalize
// (null = none), and how to read it from the live drivers; the session
// defs, the server total_* defs, the per-session fill and the roll-up
// all loop over this table.
struct SessionCounter {
  const char* name;
  const char* help;
  const char* total;
  const char* total_help;
  Reader read;
};

const SessionCounter kSessionCounters[] = {
    {"data_sent", "DATA packets multicast", "total_data_sent",
     "DATA packets multicast, all sessions", sender_stat<&SS::data_sent>},
    {"parity_sent", "PARITY packets multicast", "total_parity_sent",
     "PARITY packets multicast, all sessions", sender_stat<&SS::parity_sent>},
    {"polls_sent", "POLL rounds sent", "total_polls_sent",
     "POLL rounds, all sessions", sender_stat<&SS::polls_sent>},
    {"naks_received", "NAKs heard by the sender", "total_naks_received",
     "NAKs heard, all sessions", sender_stat<&SS::naks_received>},
    {"acks_received", "ACKs heard by the sender", "total_acks_received",
     "ACKs heard, all sessions", sender_stat<&SS::acks_received>},
    {"poll_retries", "re-POLLs after silent rounds", "total_poll_retries",
     "sender re-POLLs after silent rounds, all sessions",
     sender_stat<&SS::poll_retries>},
    {"evictions", "members evicted for silence", "total_evictions",
     "members evicted for silence, all sessions", sender_stat<&SS::evictions>},
    {"tgs_completed", "TGs confirmed complete this life",
     "total_tgs_completed",
     "transmission groups confirmed complete, all sessions",
     sender_stat<&SenderSessionDriver::tgs_completed>},
    {"tgs_skipped", "TGs skipped as complete in a prior life",
     "total_tgs_skipped", "resumed TGs never retransmitted, all sessions",
     sender_stat<&SS::tgs_skipped>},
    {"tgs_unconfirmed", "TGs whose re-POLL budget ran out", nullptr, nullptr,
     sender_stat<&SS::tgs_unconfirmed>},
    {"tgs_exhausted", "TGs whose parity budget ran out", nullptr, nullptr,
     sender_stat<&SS::tgs_exhausted>},
    {"would_block", "kernel send-buffer pushbacks absorbed by the sender",
     "would_block_total",
     "kernel send-buffer pushbacks absorbed, all sessions",
     sender_stat<&SS::would_block>},
    {"arena_deferrals", "bursts deferred on packet-arena exhaustion",
     "total_arena_deferrals",
     "bursts deferred on packet-arena exhaustion, all sessions",
     sender_stat<&SS::arena_deferrals>},
    {"naks_suppressed",
     "NAKs suppressed by slotting or the sender feedback budget",
     "total_naks_suppressed",
     "NAKs suppressed (slotting or feedback budget), all sessions",
     sum_of<sender_stat<&SS::naks_suppressed>,
            receiver_sum<&RR::naks_suppressed>>},
    {"members_quarantined", "slow receivers moved to parity-only catch-up",
     "total_members_quarantined",
     "slow receivers moved to parity-only catch-up, all sessions",
     sender_stat<&SS::members_quarantined>},
    {"peer_rejected",
     "hostile datagrams dropped before protocol state (guard rejections "
     "plus receiver-side foreign-source and auth drops)",
     "total_peer_rejected",
     "hostile datagrams dropped before protocol state, all sessions",
     sum_of<sender_stat<&SS::guard, &PG::rejected>,
            receiver_sum<&RR::foreign_rejected>,
            receiver_sum<&RR::auth_rejected>>},
    {"peer_greylisted", "greylist episodes pronounced by the peer guard",
     "total_peer_greylisted", "peer greylist episodes, all sessions",
     sender_stat<&SS::guard, &PG::greylisted>},
    {"peer_banned", "ban episodes pronounced by the peer guard",
     "total_peer_banned", "peer ban episodes, all sessions",
     sender_stat<&SS::guard, &PG::banned>},
    {"members_expelled",
     "banned members exempted from the completeness requirement", nullptr,
     nullptr,
     sender_stat<&SS::report, &protocol::PartialDeliveryReport::expelled>},
    {"feedback_addr_mismatch",
     "feedback whose claimed identity contradicted its kernel-reported "
     "source",
     "total_feedback_addr_mismatch",
     "feedback whose claimed identity contradicted its source, all sessions",
     sum_of<sender_stat<&SS::feedback_addr_mismatch>,
            sender_stat<&SS::guard, &PG::addr_mismatch>>},
    {"frame_resyncs",
     "byte-level resync slides while salvaging malformed datagrams",
     "total_frame_resyncs",
     "byte-level resync slides while salvaging datagrams, all sessions",
     sum_of<sender_stat<&SenderSessionDriver::frame_resyncs>,
            receiver_sum<&ReceiverSessionDriver::frame_resyncs>>},
    {"frames_skipped", "unparseable frames dropped on the receive path",
     "total_frames_skipped",
     "unparseable frames dropped on the receive path, all sessions",
     sum_of<sender_stat<&SenderSessionDriver::frames_skipped>,
            receiver_sum<&ReceiverSessionDriver::frames_skipped>>},
    {"receiver_naks_sent", "NAKs sent across all members", nullptr, nullptr,
     receiver_sum<&RR::naks_sent>},
    {"receiver_nak_retries", "NAK retransmissions across all members",
     "total_nak_retries", "receiver NAK retransmissions, all sessions",
     receiver_sum<&RR::nak_retries>},
    {"receiver_duplicates",
     "redundant DATA/PARITY receptions across all members", nullptr, nullptr,
     receiver_sum<&RR::duplicates>},
    {"receiver_stale_rejected",
     "dead-incarnation packets dropped across all members",
     "total_stale_rejected",
     "dead-incarnation packets dropped, all sessions",
     receiver_sum<&RR::stale_rejected>},
    {"redelivered_prior", "exactly-once violations across all members",
     "total_redelivered_prior",
     "exactly-once violations: packets for journal-confirmed TGs",
     receiver_sum<&ReceiverSessionDriver::redelivered_prior>},
    {"payload_mismatches",
     "decoded TGs failing byte verification across all members",
     "total_payload_mismatches",
     "decoded TGs that failed end-to-end byte verification",
     receiver_sum<&ReceiverSessionDriver::payload_mismatches>},
};

// Sums the table counter read by `read` over every session: live ones
// through the drivers, finalized ones (drivers released) from their
// registry.
template <class Sessions>
std::uint64_t sum_over_sessions(const Sessions& sessions, Reader read) {
  const SessionCounter* row = nullptr;
  for (const auto& c : kSessionCounters)
    if (c.read == read) row = &c;
  std::uint64_t total = 0;
  for (const auto& [id, s] : sessions)
    total += s->finalized ? s->metrics.counter(row->name)
                          : read(*s->sender, s->receivers);
  return total;
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
  std::vector<obs::MetricDef> defs = {
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
  };
  for (const auto& c : kSessionCounters)
    if (c.total) defs.push_back({c.total, K::kCounter, c.total_help, {}, {}});
  defs.insert(defs.end(), {
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
      {"udp_group_delivery", K::kGauge,
       "1 when sessions reach members by IP multicast, 0 by unicast fan-out",
       {}, {}},
      {"session_duration_seconds", K::kHistogram,
       "wall-clock lifetime of finalized sessions",
       {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0}, {}},
      {"session_tx_per_packet", K::kHistogram,
       "transmissions per data packet of finalized sessions",
       {1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0}, {}},
  });
  return defs;
}

std::vector<obs::MetricDef> MulticastServer::session_metric_defs() {
  using K = obs::MetricKind;
  using net::UdpNpEndReason;
  std::vector<std::string> reasons = {"none"};
  for (const auto r :
       {UdpNpEndReason::kEndOfSession, UdpNpEndReason::kDrainTimeout,
        UdpNpEndReason::kMidSessionSilence, UdpNpEndReason::kCrashed})
    reasons.push_back(end_reason_name(r));
  std::vector<obs::MetricDef> defs = {
      {"state", K::kString, "session lifecycle state", {},
       {"active", "completed", "failed", "drained"}},
      {"end_reason", K::kString,
       "what ended the receivers' runs (worst across members)", {},
       std::move(reasons)},
      {"resumed", K::kCounter, "1 when recovered from a journal", {}, {}},
  };
  for (const auto& c : kSessionCounters)
    defs.push_back({c.name, K::kCounter, c.help, {}, {}});
  defs.insert(defs.end(), {
      {"receivers", K::kGauge, "members in the group", {}, {}},
      {"receivers_finished", K::kGauge, "members whose run has ended", {}, {}},
      {"tgs_done_min", K::kGauge, "fewest TGs decoded by any member", {}, {}},
      {"journal_bytes", K::kGauge, "write-ahead journal size on disk", {}, {}},
      {"duration_seconds", K::kGauge, "seconds since session admission", {},
       {}},
  });
  return defs;
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
  server_metrics_.set_gauge(
      "udp_group_delivery",
      net::active_udp_delivery() == net::UdpDelivery::kGroup ? 1.0 : 0.0);
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
    server_metrics_.inc("sessions_refused");
    return false;
  }
  protocol::check_tg_shape(cfg_.np, spec.groups);
  if (spec.receivers == 0)
    throw std::invalid_argument("MulticastServer: session needs >= 1 receiver");

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
    s.journal = core::open_session_journal(
        journal_path(id), id, num_tgs, np,
        {.sync_every = cfg_.journal_sync_every});
    if (s.journal->resumed()) {
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
    if (cfg_.faults.journal_fail_every > 0)
      s.journal->journal().inject_write_failure(cfg_.faults.journal_fail_every);
  }

  // Drops a session that never started.  A fresh journal goes with it:
  // left on disk, the next life's resume_journaled_sessions would
  // resubmit a session that never ran.
  const auto abandon = [&] {
    s.journal.reset();
    if (!resuming) remove_session_files(s);
  };

  // Socket creation can fail (fd limit) — for real or by injection.  An
  // exhausted descriptor table refuses the admission; it never crashes
  // the server or strands a half-built session.
  auto make_socket = [this] {
    ++sockets_created_;
    if (cfg_.faults.socket_fail_nth > 0 &&
        sockets_created_ == cfg_.faults.socket_fail_nth) {
      server_metrics_.inc("fault_injected_socket");
      throw std::system_error(EMFILE, std::generic_category(),
                              "socket (injected fd limit)");
    }
    return net::UdpSocket();  // ephemeral loopback port
  };
  // One multicast group per session: each receiver joins it next to its
  // unicast socket (net::UdpGroup::join; a fan-out group adds no socket).
  std::optional<net::UdpSocket> sender_socket;
  std::vector<net::UdpSocket> receiver_sockets;
  std::vector<std::optional<net::UdpSocket>> group_sockets;
  net::UdpGroup group = net::UdpGroup::open();
  try {
    sender_socket.emplace(make_socket());
    for (std::size_t r = 0; r < s.spec.receivers; ++r) {
      receiver_sockets.push_back(make_socket());
      group_sockets.push_back(group.join(receiver_sockets.back().port()));
    }
    // Byzantine injection: the adversary binds its own socket and joins
    // the group as a full member — the sender multicasts to it, tracks
    // it, and owes it completeness until the guard bans (expels) it.  It
    // is NOT in `receivers`, so honest-side accounting is untouched.
    if (cfg_.hostile.profile) {
      AdversaryConfig ac;
      ac.profile = *cfg_.hostile.profile;
      ac.sender_port = sender_socket->port();
      ac.victims = group.members();  // honest members only, joined so far
      ac.rate = cfg_.hostile.rate;
      ac.seed = s.spec.seed ^ (id * 0xAD5EC0DEull) ^ 0xBADF00Dull;
      ac.k = np.k;
      ac.num_tgs = num_tgs;
      ac.auth = np.guard.auth;
      ac.auth_key = np.guard.auth_key;
      s.adversary = std::make_unique<AdversaryPeer>(reactor_, std::move(ac));
      s.adversary->join(group);
    }
  } catch (const std::system_error&) {
    abandon();
    server_metrics_.inc("sessions_refused");
    return false;
  }
  const std::uint16_t sender_port = sender_socket->port();
  const bool multicast = group.multicast();

  if (cfg_.faults.send_eagain_every > 0)
    sender_socket->inject_send_errno_every(EAGAIN, cfg_.faults.send_eagain_every,
                                           cfg_.faults.send_eagain_burst);

  // The drivers' cores check NP's parameters and throw on bad ones.
  try {
    for (std::size_t r = 0; r < s.spec.receivers; ++r) {
      ReceiverSessionDriver::Options opt;
      opt.idle_timeout = cfg_.receiver_idle_timeout;
      opt.data_loss = s.spec.data_loss;
      opt.rng = Rng(s.spec.seed ^ (id * 0x9E3779B97F4A7C15ull))
                    .split(0xA000 + r);
      opt.impairment = s.spec.impairment;
      opt.resume_decoded = std::move(recv_resume[r]);
      opt.resume_incarnation = recv_inc[r];
      opt.expected = &s.spec.groups;
      s.receivers.push_back(std::make_unique<ReceiverSessionDriver>(
          reactor_, std::move(receiver_sockets[r]), sender_port, num_tgs, np,
          std::move(opt),
          [this, id] {
            Session& owner = *sessions_.at(id);
            ++owner.receivers_finished;
            maybe_finish_session(id);
          },
          std::move(group_sockets[r])));
    }
    s.sender = std::make_unique<SenderSessionDriver>(
        reactor_, std::move(*sender_socket), std::move(group), np,
        s.spec.groups, [this, id] {
          sessions_.at(id)->sender_finished = true;
          maybe_finish_session(id);
        });
  } catch (...) {
    abandon();
    throw;
  }

  s.metrics.set_string("state", "active");
  s.metrics.set_string("end_reason", "none");
  s.metrics.set_counter("resumed", resuming ? 1 : 0);
  s.metrics.set_gauge("receivers", static_cast<double>(s.spec.receivers));

  sessions_.emplace(id, std::move(session));
  ++active_count_;
  server_metrics_.inc("sessions_admitted");
  if (resuming) server_metrics_.inc("sessions_resumed");
  server_metrics_.set_gauge("udp_group_delivery", multicast ? 1.0 : 0.0);
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
  for (const auto& c : kSessionCounters)
    m.set_counter(c.name, c.read(*s.sender, s.receivers));
  std::size_t min_done = static_cast<std::size_t>(-1);
  for (const auto& r : s.receivers) min_done = std::min(min_done, r->tgs_done());
  m.set_gauge("tgs_done_min", static_cast<double>(min_done));
  m.set_gauge("receivers_finished", static_cast<double>(s.receivers_finished));
  m.set_gauge("journal_bytes",
              s.journal ? static_cast<double>(s.journal->journal().size_bytes())
                        : 0.0);
  if (!s.finalized)
    m.set_gauge("duration_seconds", reactor_.now() - s.started_at);
}

void MulticastServer::refresh_server_metrics() {
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
}

void MulticastServer::finalize_session(std::uint64_t id, bool drained) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->finalized) return;
  Session& s = *it->second;
  // The adversary stops before the sockets it aims at close.
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
  auto reason = net::UdpNpEndReason::kEndOfSession;
  for (const auto& r : s.receivers) {
    if (r->result().end_reason != net::UdpNpEndReason::kEndOfSession) {
      reason = r->result().end_reason;
      break;
    }
  }
  if (drained) reason = net::UdpNpEndReason::kDrainTimeout;
  s.metrics.set_string("end_reason", end_reason_name(reason));

  // Fold this session's lifetime counters into the server registry.
  for (const auto& c : kSessionCounters)
    if (c.total) server_metrics_.inc(c.total, s.metrics.counter(c.name));
  fault_injected_send_ += s.sender->injected_send_failures();
  if (s.journal)
    fault_injected_journal_ += s.journal->journal().write_failures();
  server_metrics_.observe("session_duration_seconds", duration);
  if (s.sender->stats().tx_per_packet > 0.0)
    server_metrics_.observe("session_tx_per_packet",
                            s.sender->stats().tx_per_packet);

  if (state == "completed") {
    server_metrics_.inc("sessions_completed");
  } else if (state == "failed") {
    server_metrics_.inc("sessions_failed");
  } else {
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
  return sum_over_sessions(
      sessions_, receiver_sum<&ReceiverSessionDriver::redelivered_prior>);
}

std::uint64_t MulticastServer::payload_mismatches_total() const {
  return sum_over_sessions(
      sessions_, receiver_sum<&ReceiverSessionDriver::payload_mismatches>);
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
