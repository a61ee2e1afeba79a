#include "server/session_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "protocol/nak_suppression.hpp"

namespace pbl::server {

using protocol::Backoff;
using protocol::Deadline;

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
      on_finished_(std::move(on_finished)) {
  if (config.k + config.h > 255)
    throw std::invalid_argument("SenderSessionDriver: k + h must be <= 255");
  if (group_.size() == 0)
    throw std::invalid_argument("SenderSessionDriver: empty group");
  if (cfg_.reliable_control) cfg_.retry.validate();
  if (!cfg_.resume_completed.empty() &&
      cfg_.resume_completed.size() != groups_.size())
    throw std::invalid_argument(
        "SenderSessionDriver: resume_completed size mismatch");
  if (!cfg_.resume_parities.empty() &&
      cfg_.resume_parities.size() != groups_.size())
    throw std::invalid_argument(
        "SenderSessionDriver: resume_parities size mismatch");
  for (const auto& tg : groups_)
    if (tg.size() != cfg_.k)
      throw std::invalid_argument("SenderSessionDriver: each TG needs k packets");
  std::size_t max_payload = cfg_.packet_len;
  for (const auto& g : groups_)
    if (!g.empty()) max_payload = std::max(max_payload, g[0].size());
  const std::size_t frames =
      cfg_.arena_frames > 0 ? cfg_.arena_frames
                            : std::max({cfg_.k, cfg_.h, std::size_t{1}});
  arena_ =
      std::make_unique<net::PacketArena>(fec::wire_size(max_payload), frames);
}

SenderSessionDriver::~SenderSessionDriver() {
  disarm_timer();
  disarm_flush_timer();
  if (fd_registered_) reactor_.remove_fd(socket_.fd());
}

void SenderSessionDriver::start() {
  if (started_) return;
  started_ = true;
  const auto& members = group_.members();
  evicted_.assign(members.size(), false);
  silent_.assign(members.size(), 0);
  answered_.assign(members.size(), 0);
  delivered_.assign(members.size(), std::vector<bool>(groups_.size(), false));
  deficit_.assign(members.size(), 0);
  quarantined_.assign(members.size(), false);
  parity_high_.assign(groups_.size(), 0);
  deferred_.assign(groups_.size(), false);
  for (std::size_t i = 0;
       i < cfg_.resume_parities.size() && i < groups_.size(); ++i)
    parity_high_[i] =
        std::min<std::size_t>(cfg_.resume_parities[i], cfg_.h);
  deadline_ = Deadline(clk_.now(), cfg_.reliable_control
                                       ? cfg_.retry.session_deadline
                                       : 0.0);
  pacer_ = net::Pacer(cfg_.overload.pace_rate, cfg_.overload.pace_burst,
                      clk_.now());
  expelled_.assign(members.size(), false);
  if (cfg_.guard.enabled) {
    auto gcfg = cfg_.guard;
    // The member identity rides in header.index only on the reliable
    // control plane; without it there is no claim to cross-check.
    gcfg.require_index_match = cfg_.reliable_control;
    guard_ = std::make_unique<net::PeerGuard>(gcfg, members, cfg_.k,
                                              groups_.size(), clk_.now());
  }
  if (cfg_.guard.auth)
    group_key_ = net::derive_group_key(cfg_.guard.auth_key);
  reactor_.add_fd(socket_.fd(), [this] { on_readable(); });
  fd_registered_ = true;
  tg_ = 0;
  begin_next_tg();
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

bool SenderSessionDriver::end_if_deadline_passed(double now) {
  if (!deadline_.expired(now)) return false;
  stats_.report.deadline_expired = true;
  finish_session();
  return true;
}

bool SenderSessionDriver::send_control(fec::Packet packet) {
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
  fan_out(bytes, refs);
  if (socket_.send_batch(refs).status == net::SendStatus::kWouldBlock)
    ++stats_.would_block;
  return true;
}

void SenderSessionDriver::fan_out(std::span<const std::uint8_t> frame,
                                  std::vector<net::FrameRef>& out) const {
  const auto& members = group_.members();
  if (catchup_) {
    // Catch-up traffic is unicast to the stragglers: the healthy group
    // already holds this TG and must not pay for the laggards' loss.
    for (const std::size_t m : cu_targets_) out.push_back({members[m], frame});
    return;
  }
  if (group_.multicast()) {
    out.push_back(group_.to_all(frame));  // one send reaches every member
    return;
  }
  for (const std::uint16_t port : members) out.push_back({port, frame});
}

void SenderSessionDriver::start_burst(BurstPhase phase, std::size_t count) {
  burst_phase_ = phase;
  stage_count_ = count;
  stage_next_ = 0;
  burst_sent_ = 0;
  stall_since_ = -1.0;
  burst_.clear();
  arena_->release_all();
  pump_burst();
}

void SenderSessionDriver::pump_burst() {
  if (finished_ || stopped_ || burst_phase_ == BurstPhase::kNone) return;
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
      std::size_t len = 0;
      if (burst_phase_ == BurstPhase::kData) {
        len = encoder_->write_data_frame(stage_next_, inc, frame->bytes);
        ++stats_.data_sent;
      } else {
        len = encoder_->write_parity_frame(parity_base_ + stage_next_, inc,
                                           frame->bytes);
        ++stats_.parity_sent;
      }
      fan_out(frame->bytes.first(len), burst_);
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
          const bool parity_burst = burst_phase_ != BurstPhase::kData;
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
            stats_.report.overloaded = true;
            finish_session();
            return;
          }
          // kDefer (and data bursts under kDropNewestParity): originals
          // are never shed — keep waiting on the retry timer.
        }
        if (end_if_deadline_passed(now)) return;
        arm_flush_timer(now + ov.retry_interval);
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
      if (end_if_deadline_passed(now)) return;
      arm_flush_timer(pacer_.earliest(now));
      return;
    }
  }
}

void SenderSessionDriver::on_burst_complete() {
  const BurstPhase phase = burst_phase_;
  burst_phase_ = BurstPhase::kNone;
  burst_.clear();
  burst_sent_ = 0;
  stage_next_ = 0;
  stage_count_ = 0;
  stall_since_ = -1.0;
  arena_->release_all();
  disarm_flush_timer();
  if (stats_.crashed) {
    finish_session();
    return;
  }
  if (phase == BurstPhase::kParity) ++repair_rounds_;
  send_poll();
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

std::size_t SenderSessionDriver::member_of(std::uint16_t port) const {
  const auto& members = group_.members();
  for (std::size_t m = 0; m < members.size(); ++m)
    if (members[m] == port) return m;
  return members.size();  // unknown port: foreign feedback
}

bool SenderSessionDriver::confirmed() const {
  // A catch-up round gates on its stragglers, pruned as they are served,
  // evicted or banned (after_window).
  if (catchup_) return cu_targets_.empty();
  // Quarantined members no longer gate the round: their missing TGs are
  // owed to them by the catch-up pass (or eviction), not by the group.
  // Expelled (banned) members forfeited their claim entirely.
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (gates(m) && !acked_[m]) return false;
  return true;
}

bool SenderSessionDriver::gates(std::size_t m) const {
  return !evicted_[m] && !quarantined_[m] && !expelled_[m];
}

bool SenderSessionDriver::resumed(std::size_t tg) const {
  return tg < cfg_.resume_completed.size() && cfg_.resume_completed[tg];
}

bool SenderSessionDriver::owed(std::size_t m, std::size_t tg) const {
  return quarantined_[m] && !evicted_[m] && !expelled_[m] &&
         !delivered_[m][tg];
}

bool SenderSessionDriver::tg_fully_delivered() const {
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (owed(m, tg_)) return false;
  return true;
}

void SenderSessionDriver::refresh_expulsions() {
  if (!guard_) return;
  // Expulsion is sticky: a ban ever pronounced exempts that member from
  // the group's completeness requirement for the rest of the session,
  // even if the ban itself later expires into readmission.  Without
  // this, one Byzantine peer would hold every round open (or force
  // eviction metrics that mask real failures).
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (!expelled_[m] && guard_->ever_banned(m)) expelled_[m] = true;
}

void SenderSessionDriver::complete_current_tg() {
  if (cfg_.on_tg_completed) cfg_.on_tg_completed(tg_);
  ++tgs_completed_;
}

void SenderSessionDriver::update_quarantine() {
  const std::size_t need = cfg_.overload.quarantine_deficit;
  if (need == 0) return;
  const auto& members = group_.members();
  std::size_t live = 0;
  std::size_t acked = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (!gates(m)) continue;
    ++live;
    if (acked_[m]) ++acked;
  }
  // Deficit accrues only against an acked quorum: when the whole group
  // is struggling the problem is the sender/network, not a member.
  if (live == 0 || acked >= live) return;
  if (static_cast<double>(acked) + 1e-9 <
      cfg_.overload.quarantine_quorum * static_cast<double>(live))
    return;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (!gates(m) || acked_[m]) continue;
    if (++deficit_[m] >= need) {
      quarantined_[m] = true;
      ++stats_.members_quarantined;
    }
  }
}

void SenderSessionDriver::arm_window_timer(double window) {
  window_timer_ = reactor_.add_timer(clk_.now() + window, [this] {
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

void SenderSessionDriver::begin_next_tg() {
  if (!catchup_) {
    // Skip TGs confirmed complete in a prior life; they are never re-sent.
    while (tg_ < groups_.size() && resumed(tg_)) {
      ++stats_.tgs_skipped;
      ++tg_;
    }
    if (tg_ >= groups_.size()) start_catch_up();
  }
  if (stats_.crashed || (catchup_ && cu_tgs_.empty())) {
    finish_session();
    return;
  }
  if (end_if_deadline_passed(clk_.now())) return;
  if (catchup_) {
    tg_ = cu_tgs_.back();
    cu_tgs_.pop_back();
    cu_targets_.clear();
    for (std::size_t m = 0; m < group_.members().size(); ++m)
      if (owed(m, tg_)) cu_targets_.push_back(m);
    if (cu_targets_.empty()) {
      // Served, evicted or banned since the work list was built: nobody
      // is owed this TG any more, so its deferred record journals now.
      complete_current_tg();
      begin_next_tg();
      return;
    }
  }

  encoder_.emplace(static_cast<std::uint32_t>(tg_), code_, groups_[tg_]);
  // Round state initialises BEFORE the data burst: the burst may now
  // complete asynchronously (pacer, arena or kernel-pushback deferrals),
  // and feedback racing in meanwhile must find per-member state sized.
  acked_.assign(group_.members().size(), false);
  heard_.assign(group_.members().size(), false);
  poll_backoff_.emplace(cfg_.retry, Rng(cfg_.seed).split(0x9100 + tg_));
  parities_used_ = parity_high_[tg_];
  window_pad_ = 0.0;
  repair_rounds_ = 0;
  // Catch-up is parity-only (fresh indices, never re-sent data), so its
  // TG opens straight with the stragglers' POLL.
  if (catchup_) {
    send_poll();
    return;
  }
  // Zero-copy burst: frames written in place into arena slabs, batched
  // to the kernel by the pump (see pump_burst for the crash-position
  // and byte-identity invariants).
  start_burst(BurstPhase::kData, cfg_.k);
}

// ---- slow-receiver catch-up (net/overload.hpp) ----------------------------
//
// After the main pass the same round machine serves, in TG order, each
// TG still owed to a live quarantined member: a unicast POLL to the
// stragglers, then parity-only repair under the remaining per-TG budget,
// bounded by catch_up_rounds: members who fell behind are repaired with
// fresh parity, never re-multicast data.  A member still missing data
// when the budget ends is evicted, so the session's outcome never waits
// on a stuck receiver.  TGs whose journal record was deferred on a
// straggler join the work list too, so a straggler banned or evicted in
// the meantime cannot strand a record: with nobody left to serve, the TG
// journals without a POLL.

void SenderSessionDriver::start_catch_up() {
  catchup_ = true;
  // Built back to front: begin_next_tg pops the lowest TG off the back.
  for (std::size_t t = groups_.size(); t-- > 0;) {
    if (resumed(t)) continue;
    bool wanted = deferred_[t];
    for (std::size_t m = 0; m < group_.members().size() && !wanted; ++m)
      wanted = owed(m, t);
    if (wanted) cu_tgs_.push_back(t);
  }
}

void SenderSessionDriver::send_poll() {
  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  poll.header.tg = static_cast<std::uint32_t>(tg_);
  poll.header.k = static_cast<std::uint16_t>(cfg_.k);
  poll.header.seq = ++round_id_;
  if (!send_control(poll)) {
    finish_session();
    return;
  }
  ++stats_.polls_sent;
  l_ = 0;
  round_naks_ = 0;
  std::fill(heard_.begin(), heard_.end(), false);
  poll_sent_at_ = clk_.now();
  // The estimator learns only from answers that echo a round id, which
  // NAK-only receivers never send: that mode keeps the fixed window T.
  // The ceiling is the longest round the fixed window ever ran, T plus
  // the largest backoff pad: a member answering just before each
  // timeout cannot stretch rounds past it.
  const double timeout = answer_rtt_.timeout(
      cfg_.poll_window, cfg_.poll_window + cfg_.retry.max_backoff);
  const double window =
      std::min(timeout + window_pad_, deadline_.remaining(poll_sent_at_));
  collect_deadline_ = poll_sent_at_ + window;
  arm_window_timer(window);
}

void SenderSessionDriver::on_readable() {
  drain_feedback();
  // Answer-driven close: once every member that gates this round has
  // answered its POLL there is nothing left to wait for.  Checked after
  // the drain, so the decision sees the whole batch, and decided by the
  // same after_window logic as a timeout: only the timing moves.
  if (cfg_.reliable_control && timer_armed_ && all_answered()) {
    disarm_timer();
    after_window();
  }
}

void SenderSessionDriver::drain_feedback() {
  while (!finished_ && !stopped_) {
    auto dg = socket_.receive_from(0.0);
    if (!dg) {
      if (!socket_.has_pending()) break;
      continue;
    }
    const fec::Packet* nak = &dg->packet;
    // Hostile-peer admission runs before ANY protocol state is touched:
    // unknown sources, shape-invalid frames, identity spoofs, bad tags,
    // replays and over-rate peers are counted and dropped here.
    if (guard_ &&
        guard_->check(dg->src_port, *nak, clk_.now()) !=
            net::PeerVerdict::kAccept) {
      stats_.guard = guard_->stats();
      continue;
    }
    if (nak->header.type != fec::PacketType::kNak ||
        nak->header.tg != static_cast<std::uint32_t>(tg_))
      continue;
    // Even with the guard off, feedback whose claimed identity
    // contradicts the kernel-reported source never reaches liveness
    // state (the header.index port-smuggling fix).  With the guard on
    // the same check already ran (and struck the peer) inside check().
    if (cfg_.reliable_control && !guard_ &&
        nak->header.index != dg->src_port) {
      ++stats_.feedback_addr_mismatch;
      continue;
    }
    std::size_t m = group_.members().size();
    if (cfg_.reliable_control) {
      m = member_of(nak->header.index);
      if (m < group_.members().size()) {
        heard_[m] = true;
        silent_[m] = 0;
        if (nak->header.seq == round_id_ && answered_[m] != round_id_) {
          answered_[m] = round_id_;
          answer_rtt_.sample(clk_.now() - poll_sent_at_);
        }
        if (nak->header.count == 0) {
          ++stats_.acks_received;
          deficit_[m] = 0;  // a serviced member is no longer lagging
          if (!acked_[m]) {
            acked_[m] = true;
            delivered_[m][tg_] = true;
          }
        }
      }
    }
    if (nak->header.count > 0 && nak->header.seq == round_id_) {
      // A quarantined member's NAK is liveness, not demand: its missing
      // TGs are owed by the catch-up pass, where its NAKs count again.
      if (!catchup_ && m < group_.members().size() && quarantined_[m]) {
        ++stats_.naks_suppressed;
        continue;
      }
      // Per-round feedback budget (Section 3.3 implosion control): NAKs
      // past the budget are dropped this round; the next round's POLL
      // re-collects anyone still unserved.
      if (cfg_.overload.feedback_budget > 0 &&
          round_naks_ >= cfg_.overload.feedback_budget) {
        ++stats_.naks_suppressed;
        continue;
      }
      ++round_naks_;
      ++stats_.naks_received;
      l_ = std::max(l_, static_cast<std::size_t>(nak->header.count));
    }
  }
}

void SenderSessionDriver::on_window_expired() {
  if (finished_ || stopped_) return;
  // Pull in any feedback that raced the timer into the socket buffer.
  drain_feedback();
  after_window();
}

bool SenderSessionDriver::all_answered() const {
  const auto answered = [this](std::size_t m) {
    return answered_[m] == round_id_;
  };
  if (catchup_)
    return std::all_of(cu_targets_.begin(), cu_targets_.end(), answered);
  for (std::size_t m = 0; m < answered_.size(); ++m)
    if (gates(m) && !answered(m)) return false;
  return true;
}

void SenderSessionDriver::after_window() {
  refresh_expulsions();
  if (catchup_)
    std::erase_if(cu_targets_,
                  [this](std::size_t m) { return !owed(m, tg_); });
  const auto next_tg = [&] {
    ++tg_;
    begin_next_tg();
  };
  // A confirmed round closes the TG, but its completion journals only
  // once every quarantined live member holds it too — a journaled TG is
  // never re-sent, so journaling early would silently strand the
  // stragglers' copies (exactly-once).  Catch-up journals the rest.
  const auto advance_confirmed = [&] {
    if (tg_fully_delivered())
      complete_current_tg();
    else
      deferred_[tg_] = true;
    next_tg();
  };

  if (!cfg_.reliable_control) {
    if (l_ == 0) {
      complete_current_tg();  // silence: all receivers reconstructed it
      next_tg();
      return;
    }
  } else {
    if (confirmed()) {
      advance_confirmed();  // every member gating the round acked
      return;
    }
    if (end_if_deadline_passed(clk_.now())) return;
    if (catchup_) {
      if (repair_rounds_ >= cfg_.overload.catch_up_rounds ||
          parities_used_ >= cfg_.h) {
        // Budget spent: evict the stragglers via the liveness machinery
        // so the group outcome stops waiting on them, then close the TG.
        for (const std::size_t m : cu_targets_) {
          evicted_[m] = true;
          ++stats_.evictions;
        }
        cu_targets_.clear();
        advance_confirmed();
        return;
      }
      // Serve at least one fresh parity per round even when the
      // straggler's NAK was lost — parity is the only repair currency.
      l_ = std::max<std::size_t>(l_, 1);
    } else {
      update_quarantine();
      if (confirmed()) {
        advance_confirmed();  // quarantining removed the last holdout
        return;
      }
      if (l_ == 0) {
        // A totally unanswered round: age every unconfirmed member and
        // re-POLL with a widened window — unless the budget is spent.
        // Expelled members are expected to be silent (their feedback is
        // dropped at the guard); aging them would turn every ban into a
        // spurious eviction and fail sessions the adversary cannot touch.
        for (std::size_t m = 0; m < group_.members().size(); ++m) {
          if (evicted_[m] || expelled_[m] || acked_[m] || heard_[m]) continue;
          if (++silent_[m] >= cfg_.retry.grace_rounds) {
            evicted_[m] = true;
            ++stats_.evictions;
          }
        }
        if (confirmed()) {
          advance_confirmed();
          return;
        }
        if (poll_backoff_->exhausted()) {
          ++stats_.tgs_unconfirmed;
          next_tg();
          return;
        }
        ++stats_.poll_retries;
        window_pad_ = poll_backoff_->next();
        send_poll();
        return;
      }
      window_pad_ = 0.0;  // progress: the next round is a normal one
    }
  }

  const std::size_t l = std::min(l_, cfg_.h - parities_used_);
  if (l == 0) {
    ++stats_.tgs_exhausted;
    next_tg();
    return;
  }
  serve_parity(l);
}

void SenderSessionDriver::serve_parity(std::size_t l) {
  // Journal the new high-water BEFORE the parities leave: if the sender
  // dies in between, the next life merely skips indices that were never
  // sent (wasteful, never wrong) — the reverse order could re-send
  // indices receivers already hold.
  parities_used_ += l;
  parity_high_[tg_] = parities_used_;
  if (cfg_.on_parities_sent) cfg_.on_parities_sent(tg_, parities_used_);
  parity_base_ = parities_used_ - l;
  start_burst(BurstPhase::kParity, l);
}

void SenderSessionDriver::finish_session() {
  if (finished_) return;
  refresh_expulsions();
  if (guard_) stats_.guard = guard_->stats();
  if (!stats_.crashed) {
    // A crashed sender never says goodbye — the receivers' phase-aware
    // idle clocks (or its own next incarnation) must end their runs.
    fec::Packet end;
    end.header.type = fec::PacketType::kPoll;
    end.header.tg = net::kUdpEndOfSession;
    catchup_ = false;  // the end marker goes to the whole group
    send_control(end);
  }
  if (!groups_.empty()) {
    stats_.tx_per_packet =
        static_cast<double>(stats_.data_sent + stats_.parity_sent) /
        (static_cast<double>(cfg_.k) * static_cast<double>(groups_.size()));
  }
  if (cfg_.reliable_control) {
    auto& rep = stats_.report;
    rep.delivered = delivered_;
    rep.evicted = evicted_;
    rep.evictions = stats_.evictions;
    rep.units_failed = stats_.tgs_exhausted + stats_.tgs_unconfirmed;
    rep.poll_retries = stats_.poll_retries;
    rep.shed_frames = stats_.shed_frames;
    rep.quarantined = stats_.members_quarantined;
    for (const bool e : expelled_) rep.expelled += e ? 1 : 0;
    // `complete` = every NON-expelled member delivered every unit, with
    // two exemptions: TGs a prior life confirmed (their rows are
    // vacuously incomplete this life), and members banished for hostile
    // behaviour (they forfeited the group's delivery obligation).
    rep.complete = !rep.deadline_expired && !rep.overloaded &&
                   rep.evictions == 0 && rep.units_failed == 0;
    if (rep.complete)
      for (std::size_t m = 0; m < rep.delivered.size(); ++m) {
        if (m < expelled_.size() && expelled_[m]) continue;
        const auto& row = rep.delivered[m];
        for (std::size_t i = 0; i < row.size(); ++i)
          if (!row[i] && !resumed(i)) rep.complete = false;
      }
  }
  disarm_timer();
  disarm_flush_timer();
  burst_phase_ = BurstPhase::kNone;
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
      on_finished_(std::move(on_finished)) {
  if (opt_.data_loss < 0.0 || opt_.data_loss >= 1.0)
    throw std::invalid_argument("ReceiverSessionDriver: data_loss in [0,1)");
  if (cfg_.reliable_control) cfg_.retry.validate();
  if (!opt_.resume_decoded.empty() && opt_.resume_decoded.size() != num_tgs_)
    throw std::invalid_argument(
        "ReceiverSessionDriver: resume_decoded size mismatch");
  if (!opt_.resume_confirmed.empty() &&
      opt_.resume_confirmed.size() != num_tgs_)
    throw std::invalid_argument(
        "ReceiverSessionDriver: resume_confirmed size mismatch");
  if (opt_.impairment.enabled() || opt_.impairment.control_enabled()) {
    impairment_ = std::make_shared<net::Impairment>(opt_.impairment);
    socket_.set_impairment(impairment_);
    if (group_socket_) group_socket_->set_impairment(impairment_);
  }

  decoders_.reserve(num_tgs_);
  for (std::uint32_t i = 0; i < num_tgs_; ++i)
    decoders_.emplace_back(i, code_, cfg_.packet_len);
  done_.assign(num_tgs_, false);
  prior_.assign(num_tgs_, false);
  confirmed_.assign(num_tgs_, false);
  // prior_ is the UNION of what this member decoded and what the sender
  // journal confirmed: the union protects against a lost receiver state
  // file (a confirmed TG still counts as delivered — its confirmation
  // proves a prior life ACKed it, which proves it decoded).
  for (std::size_t i = 0; i < opt_.resume_decoded.size(); ++i)
    if (opt_.resume_decoded[i]) prior_[i] = true;
  for (std::size_t i = 0; i < opt_.resume_confirmed.size(); ++i)
    if (opt_.resume_confirmed[i]) prior_[i] = confirmed_[i] = true;
  for (std::size_t i = 0; i < num_tgs_; ++i) {
    if (!prior_[i]) continue;
    done_[i] = true;  // decoded in a prior life counts toward completion
    ++done_count_;
  }
  nak_backoffs_.resize(num_tgs_);
  supp_rng_ = opt_.rng.split(0x510F);
  known_inc_ = static_cast<std::uint8_t>(
      std::max(cfg_.incarnation, opt_.resume_incarnation));
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
  finish(done_count_ == num_tgs_ ? net::UdpNpEndReason::kDrainTimeout
                                 : net::UdpNpEndReason::kMidSessionSilence);
  on_finished_ = std::move(notify);
}

double ReceiverSessionDriver::idle_deadline() const {
  const double budget =
      done_count_ == num_tgs_ ? cfg_.drain_timeout : opt_.idle_timeout;
  return last_rx_ + budget;
}

std::vector<bool> ReceiverSessionDriver::decoded_bitmap() const {
  return done_;
}

void ReceiverSessionDriver::reschedule(double next_due) {
  if (cfg_.reliable_control && nak_pending_)
    next_due = std::min(next_due, nak_retry_at_);
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

void ReceiverSessionDriver::send_feedback(std::uint32_t tg, std::size_t count,
                                          std::uint32_t seq) {
  fec::Packet fb;
  fb.header.type = fec::PacketType::kNak;
  fb.header.tg = tg;
  fb.header.count = static_cast<std::uint16_t>(count);
  fb.header.seq = seq;
  fb.header.incarnation = known_inc_;
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
  const double now = clk_.now();
  if (cfg_.reliable_control && nak_pending_ && now >= nak_retry_at_)
    send_pending_nak();
  if (clk_.now() >= idle_deadline()) {
    finish(done_count_ == num_tgs_ ? net::UdpNpEndReason::kDrainTimeout
                                   : net::UdpNpEndReason::kMidSessionSilence);
    return;
  }
  reschedule(idle_deadline());
}

void ReceiverSessionDriver::accept_block_packet(fec::Packet&& packet) {
  const fec::PacketHeader hdr = packet.header;  // packet moves below
  if (hdr.k != cfg_.k || hdr.n != cfg_.k + cfg_.h ||
      hdr.index >= cfg_.k + cfg_.h || packet.payload.size() != cfg_.packet_len) {
    ++result_.rejected;  // foreign block shape: cannot be ours
    return;
  }
  if (opt_.data_loss > 0.0 && opt_.rng.bernoulli(opt_.data_loss)) {
    ++result_.dropped;
    return;
  }
  ++result_.received;
  auto& dec = decoders_[hdr.tg];
  if (!dec.add(std::move(packet))) {
    ++result_.duplicates;
    return;
  }
  if (dec.decodable() && !done_[hdr.tg]) {
    const auto& data = dec.reconstruct();
    result_.decoded += dec.decoded_packets();
    done_[hdr.tg] = true;
    ++done_count_;
    // Eager end-to-end verification: the server discards decoded bytes
    // (holding 1000 sessions' payloads would defeat the point), so the
    // integrity check happens the moment a TG completes.
    if (opt_.expected && data != (*opt_.expected)[hdr.tg])
      ++payload_mismatches_;
  }
}

void ReceiverSessionDriver::send_pending_nak() {
  const std::size_t need = prior_[nak_tg_] ? 0 : decoders_[nak_tg_].needed();
  auto& bo = *nak_backoffs_[nak_tg_];
  // The first send answers a POLL and always goes out; a retransmission
  // (the NAK or its repair was lost) spends this TG's backoff budget.
  if (need == 0 || (!nak_first_ && bo.exhausted())) {
    nak_pending_ = false;
    nak_first_ = false;
    return;
  }
  if (!nak_first_) ++result_.nak_retries;
  nak_first_ = false;
  ++result_.naks_sent;
  send_feedback(nak_tg_, need, nak_round_);
  nak_retry_at_ = clk_.now() + cfg_.poll_window +
                  (bo.exhausted() ? cfg_.poll_window : bo.next());
}

bool ReceiverSessionDriver::absorbed_by_prior(std::uint32_t tg) {
  if (!prior_[tg]) return false;
  // A journal-confirmed TG must never be re-multicast by the resumed
  // sender.  A decoded-but-unconfirmed TG legitimately is (the ACK never
  // reached the journal) — that is just a duplicate to suppress.
  if (confirmed_[tg])
    ++redelivered_prior_;
  else
    ++result_.duplicates;
  return true;
}

void ReceiverSessionDriver::handle_packet(fec::Packet&& packet) {
  const auto& hdr = packet.header;
  // Authenticated control comes before EVERYTHING: an unverified POLL —
  // including a forged or replayed end marker — must not advance
  // known_inc_, refresh the idle clock, or end the session.  (DATA and
  // PARITY ride the zero-copy arena path untagged; their integrity is
  // covered end-to-end by the eager payload verification instead.)
  if (cfg_.guard.auth && hdr.type == fec::PacketType::kPoll &&
      !net::verify_auth_trailer(packet, group_key_)) {
    ++result_.auth_rejected;
    return;
  }
  // Stale-incarnation filtering comes next: a dead sender's straggler
  // must neither end the session (its end marker), repair anything, nor
  // count as liveness for the idle clock.
  if (hdr.incarnation < known_inc_) {
    ++result_.stale_rejected;
    return;
  }
  known_inc_ = hdr.incarnation;
  last_rx_ = clk_.now();
  if (hdr.type == fec::PacketType::kPoll && hdr.tg == net::kUdpEndOfSession) {
    finish(net::UdpNpEndReason::kEndOfSession);
    return;
  }
  if (hdr.tg >= num_tgs_) return;  // foreign traffic

  switch (hdr.type) {
    case fec::PacketType::kData:
    case fec::PacketType::kParity:
      if (absorbed_by_prior(hdr.tg)) return;
      // Repair traffic for the NAKed TG: the request was heard.  A NAK
      // still sitting in its suppression slot is cancelled outright —
      // another member's request covered ours (Section 5.1 damping).
      if (nak_pending_ && hdr.tg == nak_tg_) {
        if (nak_first_) {
          ++result_.naks_suppressed;
          nak_first_ = false;
        }
        nak_pending_ = false;
      }
      accept_block_packet(std::move(packet));
      if (done_count_ >= cfg_.crash_after_tgs) {
        finish(net::UdpNpEndReason::kCrashed);
        return;
      }
      break;
    case fec::PacketType::kPoll: {
      const std::size_t l = prior_[hdr.tg] ? 0 : decoders_[hdr.tg].needed();
      if (l == 0) {
        if (cfg_.reliable_control) {
          // Reliable mode answers every POLL; silence is for the dead.
          send_feedback(hdr.tg, 0, hdr.seq);
          ++result_.acks_sent;
        }
        break;
      }
      if (!cfg_.reliable_control) {
        send_feedback(hdr.tg, l, hdr.seq);
        ++result_.naks_sent;
        break;
      }
      // Reliable mode arms the NAK for retransmission under this TG's
      // backoff until repair lands or the budget runs out.
      auto& bo = nak_backoffs_[hdr.tg];
      if (!bo)
        bo = std::make_unique<Backoff>(cfg_.retry,
                                       opt_.rng.split(0x7000 + hdr.tg));
      nak_pending_ = true;
      nak_first_ = true;
      nak_tg_ = hdr.tg;
      nak_round_ = hdr.seq;
      if (!cfg_.overload.nak_suppression) {
        send_pending_nak();
        break;
      }
      // Runtime slotting (Section 5.1): instead of answering the POLL
      // instantly, draw a seeded slot delay keyed to how much we need —
      // the needier answer sooner — and send only if no repair for this
      // TG lands first.  The trailing reschedule() in on_readable folds
      // nak_retry_at_ into the wake timer.
      const double slot =
          cfg_.overload.nak_slot > 0.0
              ? cfg_.overload.nak_slot
              : cfg_.poll_window / static_cast<double>(cfg_.k + 1);
      nak_retry_at_ =
          clk_.now() + protocol::nak_backoff(cfg_.k, l, slot, supp_rng_);
      break;
    }
    case fec::PacketType::kNak:
      break;  // NAKs are unicast to the sender: never overheard
  }
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
        fec::Packet packet = fec::deserialize(d.bytes);
        if (packet.header.incarnation < known_inc_) {
          ++result_.stale_rejected;
          continue;
        }
        if ((packet.header.type == fec::PacketType::kData ||
             packet.header.type == fec::PacketType::kParity) &&
            packet.header.tg < num_tgs_ &&
            !absorbed_by_prior(packet.header.tg))
          accept_block_packet(std::move(packet));
      } catch (const std::invalid_argument&) {
        // damaged in flight: loss
      }
    }
    result_.impairment = impairment_->stats();
  }

  // The reconstructed groups are NOT materialised in the result — at
  // server scale that is the whole payload of every session held live.
  // Integrity is audited eagerly against Options::expected instead.
  result_.complete = done_count_ == num_tgs_;

  if (timer_armed_) {
    reactor_.cancel_timer(wake_timer_);
    timer_armed_ = false;
  }
  unregister_fds();
  finished_ = true;
  if (on_finished_) on_finished_();  // may reschedule our destruction; last
}

}  // namespace pbl::server
