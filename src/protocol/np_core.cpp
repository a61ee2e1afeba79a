#include "protocol/np_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "protocol/nak_suppression.hpp"
#include "util/numerics.hpp"

namespace pbl::protocol {

using fec::Packet;
using fec::PacketType;

namespace {

/// Target P(no receiver needs a NAK round) when `adaptive` re-plans a.
constexpr double kAdaptiveConfidence = 0.9;

/// Fraction of the live members that must have ACKed a round before the
/// rest accrue quarantine deficit: no one is penalised when the whole
/// group is struggling.
constexpr double kQuarantineQuorum = 0.5;

}  // namespace

void check_tg_shape(
    const NpParams& params,
    const std::vector<std::vector<std::vector<std::uint8_t>>>& groups) {
  if (groups.empty())
    throw std::invalid_argument("NP payload: a session needs >= 1 TG");
  for (const auto& tg : groups) {
    if (tg.size() != params.k)
      throw std::invalid_argument("NP payload: each TG needs k packets");
    for (const auto& pkt : tg)
      if (pkt.size() != params.packet_len)
        throw std::invalid_argument(
            "NP payload: packets must be packet_len bytes");
  }
}

// ---------------------------------------------------------------------------
// NpSenderCore
// ---------------------------------------------------------------------------

NpSenderCore::NpSenderCore(const NpParams& params, Setup setup, Io& io,
                           NpSenderCounters& counters)
    : params_(params), setup_(setup), io_(io), counters_(counters) {
  if (setup_.members == 0)
    throw std::invalid_argument("NpSenderCore: no members");
  if (params_.reliable_control) params_.retry.validate();
  if (!params_.resume_completed.empty() &&
      params_.resume_completed.size() != setup_.num_tgs)
    throw std::invalid_argument("NpSenderCore: resume_completed size mismatch");
  if (!params_.resume_parities.empty() &&
      params_.resume_parities.size() != setup_.num_tgs)
    throw std::invalid_argument("NpSenderCore: resume_parities size mismatch");
  for (const auto hw : params_.resume_parities)
    if (hw > params_.h)
      throw std::invalid_argument(
          "NpSenderCore: resume_parities exceeds parity budget h");
  proactive_ = std::min(setup_.proactive, params_.h);
}

void NpSenderCore::start(double now) {
  const std::size_t members = setup_.members;
  evicted_.assign(members, false);
  silent_.assign(members, 0);
  answered_.assign(members, 0);
  delivered_.assign(members, std::vector<bool>(setup_.num_tgs, false));
  deficit_.assign(members, 0);
  quarantined_.assign(members, false);
  banned_.assign(members, false);
  expelled_.assign(members, false);
  parity_high_.assign(setup_.num_tgs, 0);
  deferred_.assign(setup_.num_tgs, false);
  for (std::size_t i = 0; i < params_.resume_parities.size(); ++i)
    parity_high_[i] = params_.resume_parities[i];
  deadline_ = Deadline(
      now, params_.reliable_control ? params_.retry.session_deadline : 0.0);
  tg_ = 0;
  begin_next_tg(now);
}

bool NpSenderCore::resumed(std::size_t tg) const {
  return tg < params_.resume_completed.size() && params_.resume_completed[tg];
}

bool NpSenderCore::gates(std::size_t m) const {
  return !evicted_[m] && !quarantined_[m] && !expelled_[m];
}

bool NpSenderCore::owed(std::size_t m, std::size_t tg) const {
  return quarantined_[m] && !evicted_[m] && !expelled_[m] &&
         !delivered_[m][tg];
}

bool NpSenderCore::tg_fully_delivered() const {
  for (std::size_t m = 0; m < setup_.members; ++m)
    if (owed(m, tg_)) return false;
  return true;
}

bool NpSenderCore::confirmed() const {
  // A catch-up round gates on its stragglers, pruned as they are served,
  // evicted or banned (after_window).
  if (catchup_) return cu_targets_.empty();
  // Quarantined members no longer gate the round: their missing TGs are
  // owed to them by the catch-up pass (or eviction), not by the group.
  // Expelled (banned) members forfeited their claim entirely.
  for (std::size_t m = 0; m < setup_.members; ++m)
    if (gates(m) && !acked_[m]) return false;
  return true;
}

bool NpSenderCore::all_answered() const {
  const auto answered = [this](std::size_t m) {
    return answered_[m] == round_id_;
  };
  if (catchup_)
    return std::all_of(cu_targets_.begin(), cu_targets_.end(), answered);
  for (std::size_t m = 0; m < setup_.members; ++m)
    if (gates(m) && !answered(m)) return false;
  return true;
}

const std::vector<std::size_t>* NpSenderCore::targets() const {
  // Catch-up traffic is unicast to the stragglers: the healthy group
  // already holds this TG and must not pay for the laggards' loss.
  return catchup_ ? &cu_targets_ : nullptr;
}

void NpSenderCore::on_banned(std::size_t member) {
  if (member < banned_.size()) banned_[member] = true;
}

void NpSenderCore::refresh_expulsions() {
  // Expulsion is sticky: a ban ever pronounced exempts that member from
  // the group's completeness requirement for the rest of the session,
  // even if the ban itself later expires into readmission.  Without
  // this, one Byzantine peer would hold every round open (or force
  // eviction metrics that mask real failures).
  for (std::size_t m = 0; m < banned_.size(); ++m)
    if (banned_[m]) expelled_[m] = true;
}

bool NpSenderCore::end_if_deadline_passed(double now) {
  if (!deadline_.expired(now)) return false;
  report_.deadline_expired = true;
  finish();
  return true;
}

void NpSenderCore::abort_overloaded() {
  report_.overloaded = true;
  finish();
}

void NpSenderCore::complete_current_tg() {
  if (params_.on_tg_completed) params_.on_tg_completed(tg_);
  ++counters_.tgs_completed;
}

void NpSenderCore::update_quarantine() {
  const std::size_t need = setup_.overload.quarantine_deficit;
  if (need == 0) return;
  std::size_t live = 0;
  std::size_t acked = 0;
  for (std::size_t m = 0; m < setup_.members; ++m) {
    if (!gates(m)) continue;
    ++live;
    if (acked_[m]) ++acked;
  }
  // Deficit accrues only against an acked quorum: when the whole group
  // is struggling the problem is the sender/network, not a member.
  if (live == 0 || acked >= live) return;
  if (static_cast<double>(acked) + 1e-9 <
      kQuarantineQuorum * static_cast<double>(live))
    return;
  for (std::size_t m = 0; m < setup_.members; ++m) {
    if (!gates(m) || acked_[m]) continue;
    if (++deficit_[m] >= need) {
      quarantined_[m] = true;
      ++counters_.members_quarantined;
    }
  }
}

void NpSenderCore::begin_next_tg(double now) {
  if (!catchup_) {
    // Skip TGs confirmed complete in a prior life; they are never re-sent.
    while (tg_ < setup_.num_tgs && resumed(tg_)) {
      ++counters_.tgs_skipped;
      ++tg_;
    }
    if (tg_ >= setup_.num_tgs) start_catch_up();
  }
  if (catchup_ && cu_tgs_.empty()) {
    finish();
    return;
  }
  if (end_if_deadline_passed(now)) return;
  if (catchup_) {
    tg_ = cu_tgs_.back();
    cu_tgs_.pop_back();
    cu_targets_.clear();
    for (std::size_t m = 0; m < setup_.members; ++m)
      if (owed(m, tg_)) cu_targets_.push_back(m);
    if (cu_targets_.empty()) {
      // Served, evicted or banned since the work list was built: nobody
      // is owed this TG any more, so its deferred record journals now.
      complete_current_tg();
      begin_next_tg(now);
      return;
    }
  }

  // Round state initialises BEFORE the data burst: the engine may send
  // it asynchronously, and feedback racing in meanwhile must find
  // per-member state sized.
  acked_.assign(setup_.members, false);
  heard_.assign(setup_.members, false);
  poll_backoff_.emplace(params_.retry, Rng(setup_.seed).split(0x9100 + tg_));
  parities_used_ = parity_high_[tg_];
  window_pad_ = 0.0;
  repair_rounds_ = 0;
  first_round_ = !catchup_;
  // Catch-up is parity-only (fresh indices, never re-sent data), so its
  // TG opens straight with the stragglers' POLL.
  if (catchup_) {
    send_poll(now);
    return;
  }
  burst_kind_ = BurstKind::kData;
  io_.send_burst({tg_, BurstKind::kData, 0, params_.k, nullptr});
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

void NpSenderCore::start_catch_up() {
  catchup_ = true;
  // Built back to front: begin_next_tg pops the lowest TG off the back.
  for (std::size_t t = setup_.num_tgs; t-- > 0;) {
    if (resumed(t)) continue;
    bool wanted = deferred_[t];
    for (std::size_t m = 0; m < setup_.members && !wanted; ++m)
      wanted = owed(m, t);
    if (wanted) cu_tgs_.push_back(t);
  }
}

void NpSenderCore::on_burst_done(double now, bool crashed) {
  if (finished_) return;
  if (crashed) {
    crashed_ = true;
    finish();
    return;
  }
  if (burst_kind_ == BurstKind::kParity) ++repair_rounds_;
  if (burst_kind_ == BurstKind::kData) {
    const std::size_t a = std::min(proactive_, params_.h - parities_used_);
    if (a > 0) {
      serve_parity(a, BurstKind::kProactive);
      return;
    }
  }
  send_poll(now);
}

void NpSenderCore::send_poll(double now) {
  Packet poll;
  poll.header.type = PacketType::kPoll;
  poll.header.tg = static_cast<std::uint32_t>(tg_);
  poll.header.k = static_cast<std::uint16_t>(params_.k);
  poll.header.seq = ++round_id_;
  if (!io_.send_poll(std::move(poll), targets())) {
    crashed_ = true;
    finish();
    return;
  }
  ++counters_.polls_sent;
  l_ = 0;
  round_naks_ = 0;
  std::fill(heard_.begin(), heard_.end(), false);
  poll_sent_at_ = now;
  // The estimator learns only from answers that echo a round id, which
  // NAK-only receivers never send: that mode keeps the fixed window T.
  // The ceiling is the longest round the fixed window ever ran, T plus
  // the largest backoff pad: a member answering just before each
  // timeout cannot stretch rounds past it.
  const double timeout = answer_rtt_.timeout(
      setup_.poll_window, setup_.poll_window + params_.retry.max_backoff);
  const double window =
      std::min(timeout + window_pad_, deadline_.remaining(now));
  collect_deadline_ = now + window;
  collecting_ = true;
  io_.arm_timer(collect_deadline_);
}

void NpSenderCore::on_feedback(double now, std::size_t m,
                               const fec::PacketHeader& fb) {
  if (finished_ || fb.type != PacketType::kNak ||
      fb.tg != static_cast<std::uint32_t>(tg_))
    return;
  const std::size_t members = setup_.members;
  if (params_.reliable_control && m < members) {
    heard_[m] = true;
    silent_[m] = 0;
    if (fb.seq == round_id_ && answered_[m] != round_id_) {
      answered_[m] = round_id_;
      answer_rtt_.sample(now - poll_sent_at_);
    }
    if (fb.count == 0) {
      ++counters_.acks_received;
      deficit_[m] = 0;  // a serviced member is no longer lagging
      if (!acked_[m]) {
        acked_[m] = true;
        delivered_[m][tg_] = true;
      }
    }
  }
  if (fb.count == 0 || fb.seq != round_id_) return;
  // A quarantined member's NAK is liveness, not demand: its missing TGs
  // are owed by the catch-up pass, where its NAKs count again.
  if (!catchup_ && m < members && quarantined_[m]) {
    ++counters_.naks_suppressed;
    return;
  }
  // Per-round feedback budget (Section 3.3 implosion control): NAKs past
  // the budget are dropped this round; the next round's POLL re-collects
  // anyone still unserved.
  if (setup_.overload.feedback_budget > 0 &&
      round_naks_ >= setup_.overload.feedback_budget) {
    ++counters_.naks_suppressed;
    return;
  }
  ++round_naks_;
  ++counters_.naks_received;
  l_ = std::max(l_, static_cast<std::size_t>(fb.count));
}

void NpSenderCore::on_feedback_drained(double now) {
  // Answer-driven close: once every member that gates this round has
  // answered its POLL there is nothing left to wait for.  Checked after
  // the whole batch, and decided by the same after_window logic as a
  // timeout: only the timing moves.
  if (!params_.reliable_control || !collecting_ || finished_ || !all_answered())
    return;
  collecting_ = false;
  io_.disarm_timer();
  after_window(now);
}

void NpSenderCore::on_timer(double now) {
  if (finished_ || !collecting_) return;
  collecting_ = false;
  after_window(now);
}

void NpSenderCore::after_window(double now) {
  refresh_expulsions();
  if (first_round_) {
    first_round_ = false;
    observe_first_round(l_);
  }
  if (catchup_)
    std::erase_if(cu_targets_,
                  [this](std::size_t m) { return !owed(m, tg_); });
  const auto next_tg = [&] {
    ++tg_;
    begin_next_tg(now);
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

  if (!params_.reliable_control) {
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
    if (end_if_deadline_passed(now)) return;
    if (catchup_) {
      if (repair_rounds_ >= setup_.overload.catch_up_rounds ||
          parities_used_ >= params_.h) {
        // Budget spent: evict the stragglers via the liveness machinery
        // so the group outcome stops waiting on them, then close the TG.
        for (const std::size_t m : cu_targets_) {
          evicted_[m] = true;
          ++counters_.evictions;
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
        for (std::size_t m = 0; m < setup_.members; ++m) {
          if (evicted_[m] || expelled_[m] || acked_[m] || heard_[m]) continue;
          if (++silent_[m] >= params_.retry.grace_rounds) {
            evicted_[m] = true;
            ++counters_.evictions;
          }
        }
        if (confirmed()) {
          advance_confirmed();
          return;
        }
        if (poll_backoff_->exhausted()) {
          ++counters_.tgs_unconfirmed;
          next_tg();
          return;
        }
        ++counters_.poll_retries;
        window_pad_ = poll_backoff_->next();
        send_poll(now);
        return;
      }
      window_pad_ = 0.0;  // progress: the next round is a normal one
    }
  }

  const std::size_t l = std::min(l_, params_.h - parities_used_);
  if (l == 0) {
    ++counters_.tgs_exhausted;
    next_tg();
    return;
  }
  serve_parity(l, BurstKind::kParity);
}

void NpSenderCore::serve_parity(std::size_t l, BurstKind kind) {
  // Journal the new high-water BEFORE the parities leave: if the sender
  // dies in between, the next life merely skips indices that were never
  // sent (wasteful, never wrong) — the reverse order could re-send
  // indices receivers already hold.
  parities_used_ += l;
  parity_high_[tg_] = parities_used_;
  if (params_.on_parities_sent) params_.on_parities_sent(tg_, parities_used_);
  burst_kind_ = kind;
  io_.send_burst({tg_, kind, parities_used_ - l, l, targets()});
}

void NpSenderCore::observe_first_round(std::size_t max_missing) {
  if (!setup_.adaptive) return;
  // The first round's largest NAK reports the worst member's losses
  // BEYOND the a proactive parities, so its loss count is max_missing + a;
  // silence only says the maximum was <= a (censored) — the estimate is
  // then decayed gently so an improving channel sheds redundancy.
  const double a = static_cast<double>(proactive_);
  if (max_missing > 0)
    ewma_max_missing_ +=
        0.3 * (static_cast<double>(max_missing) + a - ewma_max_missing_);
  else
    ewma_max_missing_ = std::min(ewma_max_missing_ * 0.9, a);
  // Invert E[max over R of Bin(n1, p) losses] = ewma for p, then pick the
  // smallest a with P(no member needs a round) >= the confidence.  The
  // estimator's samples are maxima over the k + a packets of round 1.
  const auto n1 = static_cast<std::int64_t>(params_.k + proactive_);
  const double members = static_cast<double>(setup_.members);
  const auto expected_max = [&](double p) {
    double cdf = 0.0, sum = 0.0;
    for (std::int64_t j = 0; j < n1; ++j) {
      cdf += binomial_pmf(n1, j, p);
      sum += one_minus_pow_one_minus(1.0 - std::min(cdf, 1.0), members);
    }
    return sum;
  };
  double p_hat = 0.0;
  if (ewma_max_missing_ > 1e-9) {
    double lo = 1e-9, hi = 0.9;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (expected_max(mid) < ewma_max_missing_ ? lo : hi) = mid;
    }
    p_hat = 0.5 * (lo + hi);
  }
  std::size_t next = 0;
  for (; next < params_.h; ++next) {
    const double per =
        binomial_cdf(static_cast<std::int64_t>(params_.k + next),
                     static_cast<std::int64_t>(next), p_hat);
    if (per > 0.0 && std::exp(members * std::log(per)) >= kAdaptiveConfidence)
      break;
  }
  proactive_ = next;
}

void NpSenderCore::finish() {
  if (finished_) return;
  refresh_expulsions();
  collecting_ = false;
  // A crashed sender never says goodbye — the receivers' phase-aware
  // idle clocks (or its own next incarnation) must end their runs.
  if (!crashed_) io_.send_end();
  if (params_.reliable_control) {
    auto& rep = report_;
    rep.delivered = delivered_;
    rep.evicted = evicted_;
    rep.evictions = counters_.evictions;
    rep.units_failed = counters_.tgs_exhausted + counters_.tgs_unconfirmed;
    rep.poll_retries = counters_.poll_retries;
    rep.quarantined = counters_.members_quarantined;
    for (const bool e : expelled_) rep.expelled += e ? 1 : 0;
    // `complete` = every NON-expelled member delivered every unit, with
    // two exemptions: TGs a prior life confirmed (their rows are
    // vacuously incomplete this life), and members banished for hostile
    // behaviour (they forfeited the group's delivery obligation).
    rep.complete = !rep.deadline_expired && !rep.overloaded &&
                   rep.evictions == 0 && rep.units_failed == 0;
    if (rep.complete)
      for (std::size_t m = 0; m < rep.delivered.size(); ++m) {
        if (expelled_[m]) continue;
        const auto& row = rep.delivered[m];
        for (std::size_t i = 0; i < row.size(); ++i)
          if (!row[i] && !resumed(i)) rep.complete = false;
      }
  }
  finished_ = true;
  io_.session_over();
}

// ---------------------------------------------------------------------------
// NpReceiverCore
// ---------------------------------------------------------------------------

NpReceiverCore::NpReceiverCore(const fec::RseCode& code,
                               const NpParams& params, Setup setup, Io& io,
                               NpReceiverCounters& counters)
    : code_(code), params_(params), setup_(std::move(setup)), io_(io),
      counters_(counters) {
  if (setup_.data_loss < 0.0 || setup_.data_loss >= 1.0)
    throw std::invalid_argument("NpReceiverCore: data_loss in [0,1)");
  if (params_.reliable_control) params_.retry.validate();
  const std::size_t tgs = setup_.num_tgs;
  if (!setup_.prior_decoded.empty() && setup_.prior_decoded.size() != tgs)
    throw std::invalid_argument("NpReceiverCore: prior_decoded size mismatch");
  if (!params_.resume_completed.empty() &&
      params_.resume_completed.size() != tgs)
    throw std::invalid_argument(
        "NpReceiverCore: resume_completed size mismatch");
  decoders_.resize(tgs);
  nak_backoffs_.resize(tgs);
  done_.assign(tgs, false);
  prior_.assign(tgs, false);
  confirmed_.assign(tgs, false);
  // prior_ is the UNION of what this member decoded and what the sender
  // journal confirmed: the union protects against a lost receiver state
  // file (a confirmed TG still counts as delivered — its confirmation
  // proves a prior life ACKed it, which proves it decoded).
  for (std::size_t i = 0; i < setup_.prior_decoded.size(); ++i)
    if (setup_.prior_decoded[i]) prior_[i] = true;
  for (std::size_t i = 0; i < params_.resume_completed.size(); ++i)
    if (params_.resume_completed[i]) prior_[i] = confirmed_[i] = true;
  for (std::size_t i = 0; i < tgs; ++i) {
    if (!prior_[i]) continue;
    done_[i] = true;  // decoded in a prior life counts toward completion
    ++done_count_;
  }
  supp_rng_ = setup_.rng.split(0x510F);
  known_inc_ = static_cast<std::uint8_t>(setup_.incarnation);
}

std::size_t NpReceiverCore::needed(std::uint32_t tg) const {
  if (done_[tg]) return 0;
  return decoders_[tg] ? decoders_[tg]->needed() : code_.k();
}

bool NpReceiverCore::absorbed_by_prior(std::uint32_t tg) {
  if (!prior_[tg]) return false;
  // A journal-confirmed TG must never be re-multicast by the resumed
  // sender.  A decoded-but-unconfirmed TG legitimately is (the ACK never
  // reached the journal) — that is just a duplicate to suppress.
  if (confirmed_[tg])
    ++counters_.redelivered_prior;
  else
    ++counters_.duplicates;
  return true;
}

void NpReceiverCore::accept_block(Packet&& packet) {
  const fec::PacketHeader hdr = packet.header;  // packet moves below
  if (hdr.k != code_.k() || hdr.n != code_.n() || hdr.index >= code_.n() ||
      packet.payload.size() != params_.packet_len) {
    ++counters_.rejected;  // foreign block shape: cannot be ours
    return;
  }
  if (setup_.data_loss > 0.0 && setup_.rng.bernoulli(setup_.data_loss)) {
    ++counters_.dropped;
    return;
  }
  ++counters_.received;
  // A decoded TG is only its done_ bit: any later block is a duplicate.
  // The loss draw above still comes first, so the RNG stream does not
  // depend on whether a decoder is held.
  if (done_[hdr.tg]) {
    ++counters_.duplicates;
    return;
  }
  auto& dec = decoders_[hdr.tg];
  if (!dec) dec.emplace(hdr.tg, code_, params_.packet_len);
  if (!dec->add(std::move(packet))) {
    ++counters_.duplicates;
    return;
  }
  if (!dec->decodable()) return;
  const auto& data = dec->reconstruct();
  counters_.decoded += dec->decoded_packets();
  done_[hdr.tg] = true;
  ++done_count_;
  io_.decoded(hdr.tg, data);
  // The engine has verified the bytes (Io::decoded): release the TG's
  // shards, reconstruction and NAK backoff.  Only in-flight TGs hold
  // memory.
  dec.reset();
  nak_backoffs_[hdr.tg].reset();
}

void NpReceiverCore::send_feedback(std::uint32_t tg, std::size_t count,
                                   std::uint32_t seq) {
  Packet fb;
  fb.header.type = PacketType::kNak;
  fb.header.tg = tg;
  fb.header.count = static_cast<std::uint16_t>(count);
  fb.header.seq = seq;
  fb.header.incarnation = known_inc_;
  io_.send_feedback(std::move(fb));
}

void NpReceiverCore::send_pending_nak(double now) {
  const std::size_t need = needed(nak_tg_);
  // The first send answers a POLL and always goes out; a retransmission
  // (the NAK or its repair was lost) spends this TG's backoff budget,
  // and NAK-only members never retransmit.
  auto& bo = nak_backoffs_[nak_tg_];
  if (need == 0 || (!nak_first_ && (!bo || bo->exhausted()))) {
    nak_pending_ = false;
    nak_first_ = false;
    return;
  }
  if (!nak_first_) ++counters_.nak_retries;
  nak_first_ = false;
  ++counters_.naks_sent;
  send_feedback(nak_tg_, need, nak_round_);
  if (!bo) {
    nak_pending_ = false;
    return;
  }
  nak_retry_at_ = now + setup_.poll_window +
                  (bo->exhausted() ? setup_.poll_window : bo->next());
}

NpReceiverCore::Input NpReceiverCore::on_packet(double now, Packet&& packet) {
  const auto& hdr = packet.header;
  // Stale-incarnation filtering comes first: a dead sender's straggler
  // must neither end the session (its end marker), repair anything, nor
  // count as liveness.
  if (stale_incarnation(hdr.incarnation, known_inc_)) {
    ++counters_.stale_rejected;
    return Input::kStale;
  }
  known_inc_ = hdr.incarnation;
  if (hdr.type == PacketType::kPoll && hdr.tg == kEndOfSession)
    return Input::kEnd;
  if (hdr.tg >= setup_.num_tgs) return Input::kOther;

  if (hdr.type == PacketType::kPoll) {
    on_poll(now, hdr.tg, hdr.seq);
    return Input::kOther;
  }
  if (hdr.type == PacketType::kNak || absorbed_by_prior(hdr.tg))
    return Input::kOther;
  // Repair traffic for the NAKed TG: the request was heard.  A NAK still
  // sitting in its suppression slot is cancelled outright — another
  // member's request covered ours (Section 5.1 damping).  NAK-only
  // members never re-ask, so there only an overheard NAK that covers
  // theirs may cancel it: a reordered DATA frame is no proof of a request.
  if (params_.reliable_control && nak_pending_ && hdr.tg == nak_tg_) {
    if (nak_first_) {
      ++counters_.naks_suppressed;
      nak_first_ = false;
    }
    nak_pending_ = false;
  }
  accept_block(std::move(packet));
  return Input::kBlock;
}

void NpReceiverCore::on_poll(double now, std::uint32_t tg, std::uint32_t seq) {
  const std::size_t l = needed(tg);
  if (l == 0) {
    if (params_.reliable_control) {
      // Reliable mode answers every POLL; silence is for the dead.
      send_feedback(tg, 0, seq);
      ++counters_.acks_sent;
    }
    return;
  }
  // Reliable mode arms the NAK for retransmission under this TG's backoff
  // until repair lands or the budget runs out.
  auto& bo = nak_backoffs_[tg];
  if (params_.reliable_control && !bo)
    bo.emplace(params_.retry, setup_.rng.split(0x7000 + tg));
  nak_pending_ = true;
  nak_first_ = true;
  nak_tg_ = tg;
  nak_round_ = seq;
  if (setup_.slot <= 0.0) {
    send_pending_nak(now);
    return;
  }
  // Slotting (Section 5.1): instead of answering the POLL at once, draw a
  // seeded slot delay keyed to how much we need — the needier answer
  // sooner — and send only if nothing covers it first.
  nak_retry_at_ = now + nak_backoff(code_.k(), l, setup_.slot, supp_rng_);
}

void NpReceiverCore::on_overheard_nak(std::uint32_t tg, std::size_t count) {
  if (!nak_pending_ || !nak_first_ || tg != nak_tg_ || count < needed(tg))
    return;
  ++counters_.naks_suppressed;
  nak_pending_ = false;
  nak_first_ = false;
}

void NpReceiverCore::on_timer(double now) {
  if (nak_pending_ && now >= nak_retry_at_) send_pending_nak(now);
}

void NpReceiverCore::on_late_block(Packet&& packet) {
  const auto& hdr = packet.header;
  if (stale_incarnation(hdr.incarnation, known_inc_)) {
    ++counters_.stale_rejected;
    return;
  }
  if ((hdr.type == PacketType::kData || hdr.type == PacketType::kParity) &&
      hdr.tg < setup_.num_tgs && !absorbed_by_prior(hdr.tg))
    accept_block(std::move(packet));
}

}  // namespace pbl::protocol
