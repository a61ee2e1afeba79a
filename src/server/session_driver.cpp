#include "server/session_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pbl::server {

namespace {

/// Reactor-timer retry cadence while kernel pushback stalls a burst [s].
constexpr double kRetryInterval = 0.005;

/// Runtime slotting answers reliable-mode POLLs only: NAK-only members
/// answer at once (their NAKs are unicast, so nobody could damp them).
double nak_slot(const net::UdpNpConfig& cfg) {
  if (!cfg.reliable_control || !cfg.overload.nak_suppression) return 0.0;
  return cfg.overload.nak_slot > 0.0
             ? cfg.overload.nak_slot
             : cfg.poll_window / static_cast<double>(cfg.k + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// SenderSessionDriver
// ---------------------------------------------------------------------------

SenderSessionDriver::SenderSessionDriver(Reactor& reactor, net::UdpSocket socket,
                                         net::UdpGroup group,
                                         const net::UdpNpConfig& config,
                                         const std::vector<net::TgBytes>& groups,
                                         std::function<void()> on_finished)
    : reactor_(reactor), socket_(std::move(socket)), group_(std::move(group)),
      cfg_(config), groups_(groups), code_(config.k, config.k + config.h),
      clk_(config.clock ? *config.clock : protocol::steady_clock()),
      on_finished_(std::move(on_finished)),
      core_(cfg_,
            {.members = group_.size(),
             .num_tgs = groups.size(),
             .poll_window = config.poll_window,
             .seed = config.seed,
             .overload = config.overload},
            *this, stats_) {
  protocol::check_tg_shape(cfg_, groups_);
  const std::size_t frames =
      cfg_.arena_frames > 0 ? cfg_.arena_frames
                            : std::max({cfg_.k, cfg_.h, std::size_t{1}});
  arena_ = std::make_unique<net::PacketArena>(fec::wire_size(cfg_.packet_len),
                                              frames);
}

SenderSessionDriver::~SenderSessionDriver() {
  disarm_timer();
  disarm_flush_timer();
  if (fd_registered_) reactor_.remove_fd(socket_.fd());
}

void SenderSessionDriver::start() {
  if (started_) return;
  started_ = true;
  pacer_ = net::Pacer(cfg_.overload.pace_rate, cfg_.overload.pace_burst,
                      clk_.now());
  if (cfg_.guard.enabled) {
    auto gcfg = cfg_.guard;
    // The member identity rides in header.index only on the reliable
    // control plane; without it there is no claim to cross-check.
    gcfg.require_index_match = cfg_.reliable_control;
    guard_ = std::make_unique<net::PeerGuard>(gcfg, group_.members(), cfg_.k,
                                              groups_.size(), clk_.now());
  }
  if (cfg_.guard.auth)
    group_key_ = net::derive_group_key(cfg_.guard.auth_key);
  reactor_.add_fd(socket_.fd(), [this] { on_readable(); });
  fd_registered_ = true;
  core_.start(clk_.now());
}

void SenderSessionDriver::stop() {
  if (finished_ || stopped_) return;
  stopped_ = true;
  disarm_timer();
  disarm_flush_timer();
  if (fd_registered_) {
    reactor_.remove_fd(socket_.fd());
    fd_registered_ = false;
  }
}

bool SenderSessionDriver::crash_fired() {
  if (!stats_.crashed && sends_ >= cfg_.crash_after_sends)
    stats_.crashed = true;
  return stats_.crashed;
}

bool SenderSessionDriver::send_poll(fec::Packet packet,
                                    const std::vector<std::size_t>* targets) {
  if (crash_fired()) return false;
  ++sends_;
  packet.header.incarnation = static_cast<std::uint8_t>(cfg_.incarnation);
  // Authenticated control plane: POLLs (including the end marker) carry
  // a group-keyed trailer so a hostile member cannot forge or replay
  // them at honest receivers.  One key for the whole group keeps the
  // bytes identical per member, so one group send serves them all.
  if (cfg_.guard.auth && packet.header.type == fec::PacketType::kPoll)
    net::append_auth_trailer(packet, group_key_, ++ctl_seq_);
  // Best-effort control fan-out: a would-block tail is dropped rather
  // than parking the reactor in a blocking socket wait — control loss is
  // protocol-legal (re-POLL and NAK-retransmit machinery repairs it),
  // while a blocking retry under sustained pushback would starve every
  // other session on this thread.
  const auto bytes = fec::serialize(packet);
  std::vector<net::FrameRef> refs;
  refs.reserve(group_.members().size());
  fan_out(bytes, targets, refs);
  if (socket_.send_batch(refs).status == net::SendStatus::kWouldBlock)
    ++stats_.would_block;
  return true;
}

void SenderSessionDriver::fan_out(std::span<const std::uint8_t> frame,
                                  const std::vector<std::size_t>* targets,
                                  std::vector<net::FrameRef>& out) const {
  const auto& members = group_.members();
  if (targets) {
    for (const std::size_t m : *targets) out.push_back({members[m], frame});
    return;
  }
  if (group_.multicast()) {
    out.push_back(group_.to_all(frame));  // one send reaches every member
    return;
  }
  for (const std::uint16_t port : members) out.push_back({port, frame});
}

void SenderSessionDriver::send_end() {
  fec::Packet end;
  end.header.type = fec::PacketType::kPoll;
  end.header.tg = net::kUdpEndOfSession;
  send_poll(end, nullptr);  // the end marker goes to the whole group
}

void SenderSessionDriver::send_burst(const protocol::NpBurst& burst) {
  if (!encoder_ || encoder_->tg_id() != burst.tg)
    encoder_.emplace(static_cast<std::uint32_t>(burst.tg), code_,
                     groups_[burst.tg]);
  spec_ = burst;
  bursting_ = true;
  stage_count_ = burst.count;
  stage_next_ = 0;
  burst_sent_ = 0;
  stall_since_ = -1.0;
  burst_.clear();
  arena_->release_all();
  pump_burst();
}

void SenderSessionDriver::pump_burst() {
  if (finished_ || stopped_ || !bursting_) return;
  const auto& ov = cfg_.overload;
  for (;;) {
    const double now = clk_.now();
    bool arena_full = false;
    bool pacer_blocked = false;
    // Stage as many logical packets as the pacer and arena allow.  The
    // crash counter ticks per logical packet before its frames stage,
    // clamping the burst at the same wire position regardless of how
    // many arena generations or pacer deferrals the burst spans.
    while (stage_next_ < stage_count_) {
      if (crash_fired()) break;
      if (!pacer_.ready(now)) {
        pacer_blocked = true;
        break;
      }
      const auto frame = arena_->acquire();
      if (!frame) {
        arena_full = true;
        ++stats_.arena_deferrals;
        break;
      }
      ++sends_;
      pacer_.consume(now);
      const auto inc = static_cast<std::uint8_t>(cfg_.incarnation);
      const std::size_t index = spec_.first + stage_next_;
      std::size_t len = 0;
      if (spec_.kind == protocol::BurstKind::kData) {
        len = encoder_->write_data_frame(index, inc, frame->bytes);
        ++stats_.data_sent;
      } else {
        len = encoder_->write_parity_frame(index, inc, frame->bytes);
        ++stats_.parity_sent;
      }
      fan_out(frame->bytes.first(len), spec_.targets, burst_);
      ++stage_next_;
    }

    // Flush everything staged but unsent.  send_batch's prefix contract
    // keeps the wire byte-identical however the burst is chopped.
    if (burst_sent_ < burst_.size()) {
      const auto r = socket_.send_batch(
          std::span<const net::FrameRef>(burst_).subspan(burst_sent_));
      burst_sent_ += r.sent;
      if (r.status == net::SendStatus::kWouldBlock) {
        ++stats_.would_block;
        // Partial progress restarts the stall clock: shedding is for a
        // socket that stopped draining, not one draining slowly.
        if (r.sent > 0 || stall_since_ < 0.0) stall_since_ = now;
        if (ov.stall_timeout > 0.0 &&
            now - stall_since_ >= ov.stall_timeout) {
          const bool parity_burst = spec_.kind != protocol::BurstKind::kData;
          if (ov.shed_policy == net::ShedPolicy::kDropNewestParity &&
              parity_burst) {
            // Shed the unsent tail of the repair burst: the next NAK
            // round re-requests whatever this drop cost.
            stats_.shed_frames += burst_.size() - burst_sent_;
            burst_sent_ = burst_.size();
            stage_count_ = stage_next_;
            stall_since_ = -1.0;
            continue;
          }
          if (ov.shed_policy == net::ShedPolicy::kRefuse) {
            stats_.shed_frames += burst_.size() - burst_sent_;
            core_.abort_overloaded();
            return;
          }
          // kDefer (and data bursts under kDropNewestParity): originals
          // are never shed — keep waiting on the retry timer.
        }
        if (core_.end_if_deadline_passed(now)) return;
        arm_flush_timer(now + kRetryInterval);
        return;
      }
      stall_since_ = -1.0;
    }

    // Everything staged so far is on the wire.
    if (stage_next_ >= stage_count_ || stats_.crashed) {
      on_burst_complete();
      return;
    }
    if (arena_full) {
      // The staged generation is fully flushed: recycle the arena and
      // keep staging — a tiny arena costs extra kernel batches, never
      // different bytes.
      burst_.clear();
      burst_sent_ = 0;
      arena_->release_all();
      continue;
    }
    if (pacer_blocked) {
      if (core_.end_if_deadline_passed(now)) return;
      arm_flush_timer(pacer_.earliest(now));
      return;
    }
  }
}

void SenderSessionDriver::on_burst_complete() {
  bursting_ = false;
  burst_.clear();
  burst_sent_ = 0;
  stage_next_ = 0;
  stage_count_ = 0;
  stall_since_ = -1.0;
  arena_->release_all();
  disarm_flush_timer();
  core_.on_burst_done(clk_.now(), stats_.crashed);
}

void SenderSessionDriver::arm_flush_timer(double when) {
  if (flush_timer_armed_) reactor_.cancel_timer(flush_timer_);
  flush_timer_ = reactor_.add_timer(when, [this] {
    flush_timer_armed_ = false;
    pump_burst();
  });
  flush_timer_armed_ = true;
}

void SenderSessionDriver::disarm_flush_timer() {
  if (!flush_timer_armed_) return;
  reactor_.cancel_timer(flush_timer_);
  flush_timer_armed_ = false;
}

void SenderSessionDriver::arm_timer(double when) {
  window_timer_ = reactor_.add_timer(when, [this] {
    timer_armed_ = false;
    on_window_expired();
  });
  timer_armed_ = true;
}

void SenderSessionDriver::disarm_timer() {
  if (!timer_armed_) return;
  reactor_.cancel_timer(window_timer_);
  timer_armed_ = false;
}

std::size_t SenderSessionDriver::member_of(std::uint16_t port) const {
  const auto& members = group_.members();
  for (std::size_t m = 0; m < members.size(); ++m)
    if (members[m] == port) return m;
  return members.size();  // unknown port: foreign feedback
}

void SenderSessionDriver::on_readable() {
  drain_feedback();
  core_.on_feedback_drained(clk_.now());
}

void SenderSessionDriver::drain_feedback() {
  while (!finished_ && !stopped_) {
    auto dg = socket_.receive_from(0.0);
    if (!dg) {
      if (!socket_.has_pending()) break;
      continue;
    }
    const fec::PacketHeader& hdr = dg->packet.header;
    const double now = clk_.now();
    // Hostile-peer admission runs before ANY protocol state is touched:
    // unknown sources, shape-invalid frames, identity spoofs, bad tags,
    // replays and over-rate peers are counted and dropped here.
    if (guard_ &&
        guard_->check(dg->src_port, dg->packet, now) !=
            net::PeerVerdict::kAccept) {
      stats_.guard = guard_->stats();
      const std::size_t m = member_of(dg->src_port);
      if (m < group_.members().size() && guard_->ever_banned(m))
        core_.on_banned(m);
      continue;
    }
    // Even with the guard off, feedback whose claimed identity
    // contradicts the kernel-reported source never reaches liveness
    // state (the header.index port-smuggling fix).  With the guard on
    // the same check already ran (and struck the peer) inside check().
    if (cfg_.reliable_control && !guard_ && hdr.index != dg->src_port) {
      ++stats_.feedback_addr_mismatch;
      continue;
    }
    // The member identity rides in header.index on the reliable control
    // plane only.
    core_.on_feedback(now,
                      cfg_.reliable_control ? member_of(hdr.index)
                                            : group_.members().size(),
                      hdr);
  }
}

void SenderSessionDriver::on_window_expired() {
  if (finished_ || stopped_) return;
  // Pull in any feedback that raced the timer into the socket buffer.
  drain_feedback();
  core_.on_timer(clk_.now());
}

void SenderSessionDriver::session_over() {
  if (guard_) stats_.guard = guard_->stats();
  if (!groups_.empty()) {
    stats_.tx_per_packet =
        static_cast<double>(stats_.data_sent + stats_.parity_sent) /
        (static_cast<double>(cfg_.k) * static_cast<double>(groups_.size()));
  }
  stats_.report = core_.report();
  if (cfg_.reliable_control) stats_.report.shed_frames = stats_.shed_frames;
  disarm_timer();
  disarm_flush_timer();
  bursting_ = false;
  if (fd_registered_) {
    reactor_.remove_fd(socket_.fd());
    fd_registered_ = false;
  }
  finished_ = true;
  if (on_finished_) on_finished_();  // may reschedule our destruction; last
}

// ---------------------------------------------------------------------------
// ReceiverSessionDriver
// ---------------------------------------------------------------------------

ReceiverSessionDriver::ReceiverSessionDriver(
    Reactor& reactor, net::UdpSocket socket, std::uint16_t sender_port,
    std::size_t num_tgs, const net::UdpNpConfig& config, Options options,
    std::function<void()> on_finished,
    std::optional<net::UdpSocket> group_socket)
    : reactor_(reactor), socket_(std::move(socket)),
      group_socket_(std::move(group_socket)), sender_port_(sender_port),
      num_tgs_(num_tgs), cfg_(config), opt_(std::move(options)),
      code_(config.k, config.k + config.h),
      clk_(config.clock ? *config.clock : protocol::steady_clock()),
      on_finished_(std::move(on_finished)),
      core_(code_, cfg_,
            {.num_tgs = num_tgs,
             .poll_window = config.poll_window,
             .slot = nak_slot(config),
             .data_loss = opt_.data_loss,
             .rng = opt_.rng,
             .prior_decoded = opt_.resume_decoded,
             .incarnation =
                 std::max(config.incarnation, opt_.resume_incarnation)},
            *this, result_) {
  if (opt_.impairment.enabled() || opt_.impairment.control_enabled()) {
    impairment_ = std::make_shared<net::Impairment>(opt_.impairment);
    socket_.set_impairment(impairment_);
    if (group_socket_) group_socket_->set_impairment(impairment_);
  }
  if (cfg_.guard.auth) {
    // Feedback we send is tagged under OUR member key (the sender
    // verifies it per-source); control we accept must carry the shared
    // group key (one tag per POLL preserves the multicast fan-out).
    member_key_ = net::derive_member_key(cfg_.guard.auth_key, socket_.port());
    group_key_ = net::derive_group_key(cfg_.guard.auth_key);
  }
}

ReceiverSessionDriver::~ReceiverSessionDriver() {
  if (timer_armed_) reactor_.cancel_timer(wake_timer_);
  unregister_fds();
}

void ReceiverSessionDriver::start() {
  if (started_) return;
  started_ = true;
  last_rx_ = clk_.now();
  result_.end_reason = net::UdpNpEndReason::kMidSessionSilence;
  reactor_.add_fd(socket_.fd(), [this] { on_readable(true); });
  if (group_socket_)
    reactor_.add_fd(group_socket_->fd(), [this] { on_readable(false); });
  fd_registered_ = true;
  reschedule(idle_deadline());
}

void ReceiverSessionDriver::unregister_fds() {
  if (!fd_registered_) return;
  reactor_.remove_fd(socket_.fd());
  if (group_socket_) reactor_.remove_fd(group_socket_->fd());
  fd_registered_ = false;
}

std::uint64_t ReceiverSessionDriver::frame_resyncs() const noexcept {
  return socket_.frame_resyncs() +
         (group_socket_ ? group_socket_->frame_resyncs() : 0);
}

std::uint64_t ReceiverSessionDriver::frames_skipped() const noexcept {
  return socket_.frames_skipped() +
         (group_socket_ ? group_socket_->frames_skipped() : 0);
}

void ReceiverSessionDriver::stop() {
  if (finished_) return;
  auto notify = std::move(on_finished_);
  on_finished_ = nullptr;  // drain stop: the caller does its own bookkeeping
  finish(core_.done_count() == num_tgs_
             ? net::UdpNpEndReason::kDrainTimeout
             : net::UdpNpEndReason::kMidSessionSilence);
  on_finished_ = std::move(notify);
}

double ReceiverSessionDriver::idle_deadline() const {
  const double budget = core_.done_count() == num_tgs_ ? cfg_.drain_timeout
                                                       : opt_.idle_timeout;
  return last_rx_ + budget;
}

void ReceiverSessionDriver::reschedule(double next_due) {
  next_due = std::min(next_due, core_.nak_due());
  // An armed-too-early timer merely wakes us spuriously (on_wake rechecks
  // and re-arms), so only replace it when it would fire too LATE.
  if (timer_armed_ && armed_at_ <= next_due) return;
  if (timer_armed_) reactor_.cancel_timer(wake_timer_);
  armed_at_ = next_due;
  wake_timer_ = reactor_.add_timer(next_due, [this] {
    timer_armed_ = false;
    on_wake();
  });
  timer_armed_ = true;
}

void ReceiverSessionDriver::send_feedback(fec::Packet&& fb) {
  // The port rides in the header for the sender's liveness tracking;
  // the kernel-reported source address must corroborate it (the guard —
  // and the always-on driver cross-check — reject mismatches).
  if (cfg_.reliable_control) fb.header.index = socket_.port();
  // Every send gets a FRESH feedback sequence, so honest retransmissions
  // of the same NAK pass the sender's replay window while a verbatim
  // capture-and-replay of old bytes does not.
  if (cfg_.guard.auth) net::append_auth_trailer(fb, member_key_, fbseq_++);
  socket_.send_to(sender_port_, fb);
}

void ReceiverSessionDriver::decoded(
    std::size_t tg, const std::vector<std::vector<std::uint8_t>>& data) {
  // Eager end-to-end verification: the server discards decoded bytes
  // (holding 1000 sessions' payloads would defeat the point), so the
  // integrity check happens the moment a TG completes.
  if (opt_.expected && data != (*opt_.expected)[tg]) ++payload_mismatches_;
}

void ReceiverSessionDriver::on_readable(bool unicast) {
  // Catch-up repair is unicast and the end marker that follows it goes to
  // the group, so a unicast wake-up drains the group after the unicast
  // socket: the marker never ends the run ahead of repair already queued.
  // A group wake-up, the common case, reads the group alone.
  if (unicast) drain(socket_);
  if (group_socket_) drain(*group_socket_);
  if (!finished_) reschedule(idle_deadline());
}

void ReceiverSessionDriver::drain(net::UdpSocket& socket) {
  while (!finished_) {
    auto dg = socket.receive_from(0.0);
    if (!dg) {
      if (!socket.has_pending()) break;
      continue;
    }
    // Guarded receivers only listen to their sender: a peer injecting
    // frames directly at members (fake end markers, garbage repair) is
    // rejected on source address before any header field is believed.
    if (cfg_.guard.enabled && dg->src_port != sender_port_) {
      ++result_.foreign_rejected;
      continue;
    }
    handle_packet(std::move(dg->packet));
  }
}

void ReceiverSessionDriver::on_wake() {
  if (finished_) return;
  core_.on_timer(clk_.now());
  if (clk_.now() >= idle_deadline()) {
    finish(core_.done_count() == num_tgs_
               ? net::UdpNpEndReason::kDrainTimeout
               : net::UdpNpEndReason::kMidSessionSilence);
    return;
  }
  reschedule(idle_deadline());
}

void ReceiverSessionDriver::handle_packet(fec::Packet&& packet) {
  // Authenticated control comes before EVERYTHING: an unverified POLL —
  // including a forged or replayed end marker — must not advance the
  // incarnation heard, refresh the idle clock, or end the session.  (DATA
  // and PARITY ride the zero-copy arena path untagged; their integrity is
  // covered end-to-end by the eager payload verification instead.)
  if (cfg_.guard.auth && packet.header.type == fec::PacketType::kPoll &&
      !net::verify_auth_trailer(packet, group_key_)) {
    ++result_.auth_rejected;
    return;
  }
  const double now = clk_.now();
  using Input = protocol::NpReceiverCore::Input;
  const Input input = core_.on_packet(now, std::move(packet));
  // A dead sender life's straggler is no liveness for the idle clock.
  if (input == Input::kStale) return;
  last_rx_ = now;
  if (input == Input::kEnd)
    finish(net::UdpNpEndReason::kEndOfSession);
  else if (input == Input::kBlock &&
           core_.done_count() >= cfg_.crash_after_tgs)
    finish(net::UdpNpEndReason::kCrashed);
}

void ReceiverSessionDriver::finish(net::UdpNpEndReason reason) {
  if (finished_) return;
  result_.end_reason = reason;

  // Datagrams still held back by the reorder queue are "in flight" when
  // the session ends; flush them so a late shard can still complete a TG.
  // They pass the same source check as drain's.
  if (impairment_) {
    for (const auto& d : impairment_->drain()) {
      if (cfg_.guard.enabled && d.src_port != sender_port_) {
        ++result_.foreign_rejected;
        continue;
      }
      try {
        core_.on_late_block(fec::deserialize(d.bytes));
      } catch (const std::invalid_argument&) {
        // damaged in flight: loss
      }
    }
    result_.impairment = impairment_->stats();
  }

  // The reconstructed groups are NOT materialised in the result — at
  // server scale that is the whole payload of every session held live.
  // Integrity is audited eagerly against Options::expected instead.
  result_.complete = core_.done_count() == num_tgs_;

  if (timer_armed_) {
    reactor_.cancel_timer(wake_timer_);
    timer_armed_ = false;
  }
  unregister_fds();
  finished_ = true;
  if (on_finished_) on_finished_();  // may reschedule our destruction; last
}

}  // namespace pbl::server
