#include "protocol/np_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>

#include "util/numerics.hpp"

namespace pbl::protocol {

using fec::Packet;
using fec::PacketType;

namespace {

/// Target P(no receiver needs a NAK round) when `adaptive` re-plans a.
constexpr double kAdaptiveConfidence = 0.9;

}  // namespace

struct NpSession::Impl {
  Impl(const loss::LossModel& loss, std::size_t receivers, std::size_t num_tgs,
       const NpConfig& config, std::uint64_t seed,
       std::vector<std::vector<std::vector<std::uint8_t>>> provided)
      : cfg(config), num_receivers(receivers), num_tgs(num_tgs),
        session_seed(seed), sim(seed),
        code(config.k, config.k + config.h),
        channel(sim, loss, receivers, config.delay) {
    if (receivers == 0) throw std::invalid_argument("NpSession: receivers >= 1");
    if (num_tgs == 0) throw std::invalid_argument("NpSession: num_tgs >= 1");
    if (config.k + config.h > 255)
      throw std::invalid_argument("NpSession: k + h must be <= 255");
    if (config.reliable_control) config.retry.validate();
    if (!cfg.resume.completed.empty() &&
        cfg.resume.completed.size() != num_tgs)
      throw std::invalid_argument("NpSession: resume.completed size mismatch");
    if (!cfg.resume.parities_sent.empty() &&
        cfg.resume.parities_sent.size() != num_tgs)
      throw std::invalid_argument(
          "NpSession: resume.parities_sent size mismatch");
    for (const auto hw : cfg.resume.parities_sent)
      if (hw > config.h)
        throw std::invalid_argument(
            "NpSession: resume.parities_sent exceeds parity budget h");
    for (const auto& prior : cfg.resume.receiver_decoded)
      if (prior.size() != num_tgs)
        throw std::invalid_argument(
            "NpSession: resume.receiver_decoded shape mismatch");
    if (!cfg.resume.receiver_decoded.empty() &&
        cfg.resume.receiver_decoded.size() != receivers)
      throw std::invalid_argument(
          "NpSession: resume.receiver_decoded needs one bitmap per receiver");

    if (provided.empty()) {
      // Random source data, one TG at a time.
      Rng data_rng(seed ^ 0xabcdef12345ULL);
      source.resize(num_tgs);
      for (std::size_t i = 0; i < num_tgs; ++i) {
        source[i].resize(cfg.k);
        for (auto& pkt : source[i]) {
          pkt.resize(cfg.packet_len);
          for (auto& b : pkt) b = static_cast<std::uint8_t>(data_rng());
        }
      }
    } else {
      for (const auto& tg : provided) {
        if (tg.size() != cfg.k)
          throw std::invalid_argument("NpSession: each TG needs exactly k packets");
        for (const auto& pkt : tg)
          if (pkt.size() != cfg.packet_len)
            throw std::invalid_argument(
                "NpSession: packets must be packet_len bytes");
      }
      source = std::move(provided);
    }
    encoders.reserve(num_tgs);
    for (std::size_t i = 0; i < num_tgs; ++i)
      encoders.emplace_back(static_cast<std::uint32_t>(i), code, source[i]);

    tg_state.resize(num_tgs);
    current_proactive = std::min(cfg.proactive, cfg.h);
    rx.resize(receivers);
    for (std::size_t r = 0; r < receivers; ++r) {
      rx[r].decoders.resize(num_tgs);
      rx[r].timers.resize(num_tgs);
      rx[r].poll_round.assign(num_tgs, 0);
      rx[r].done.assign(num_tgs, false);
      rx[r].rng = Rng(seed).split(0x1000 + r);
    }

    if (cfg.reliable_control) {
      evicted.assign(receivers, false);
      silent_rounds.assign(receivers, 0);
      const Rng root(seed);
      for (std::size_t i = 0; i < num_tgs; ++i) {
        auto& st = tg_state[i];
        st.acked.assign(receivers, false);
        st.heard.assign(receivers, 0);
        // Independent substream per TG: re-POLL schedules are
        // bit-reproducible and insensitive to other TGs' retry counts.
        st.poll_backoff =
            std::make_unique<Backoff>(cfg.retry, root.split(0x9100 + i));
      }
      for (std::size_t r = 0; r < receivers; ++r) {
        rx[r].nak_backoffs.resize(num_tgs);
        rx[r].nak_retry.assign(num_tgs, sim::kInvalidEvent);
      }
    }

    // ---- crash-recovery priming (a restarted sender's second life) ----
    if (cfg.resume.enabled()) {
      // Every receiver remembers the newest incarnation it heard, even
      // when it decoded nothing in the prior life.
      for (auto& rec : rx)
        rec.known_incarnation =
            static_cast<std::uint8_t>(cfg.resume.receiver_incarnation);
      // Receiver priors first, so per-TG receivers_done counts are right.
      for (std::size_t r = 0; r < cfg.resume.receiver_decoded.size(); ++r) {
        auto& rec = rx[r];
        for (std::size_t i = 0; i < num_tgs; ++i) {
          if (!cfg.resume.receiver_decoded[r][i]) continue;
          rec.done[i] = true;
          ++rec.done_count;
          ++tg_state[i].receivers_done;
          if (cfg.reliable_control) {
            tg_state[i].acked[r] = true;
            ++tg_state[i].acked_count;
          }
        }
      }
      for (std::size_t i = 0; i < num_tgs; ++i) {
        auto& st = tg_state[i];
        if (!cfg.resume.parities_sent.empty())
          st.parities_used = cfg.resume.parities_sent[i];
        if (!cfg.resume.completed.empty() && cfg.resume.completed[i]) {
          // Confirmed in a prior life: never retransmitted.  Without
          // receiver priors the count is pinned so nothing under-counts.
          st.completed = true;
          ++stats.resumed_tgs_skipped;
          if (cfg.resume.receiver_decoded.empty())
            st.receivers_done = num_receivers;
        }
      }
    }

    if (cfg.impairment.enabled() || cfg.impairment.control_enabled())
      channel.set_impairment(cfg.impairment);

    channel.set_receiver_handler(
        [this](std::size_t r, const Packet& p) { on_receiver_packet(r, p); });
    channel.set_sender_handler(
        [this](std::size_t r, const Packet& p) { on_sender_feedback(r, p); });
  }

  // ---- sender ----------------------------------------------------------

  struct TgState {
    std::size_t parities_used = 0;     // parities transmitted so far
    std::size_t proactive = 0;         // parities sent with the data
    double first_send = -1.0;          // when the TG's first data packet left
    std::size_t receivers_done = 0;    // receivers that reconstructed the TG
    double latency = -1.0;             // set once receivers_done == R
    std::uint32_t round = 0;           // feedback round (POLLs and NAKs carry it)
    sim::EventId deadline = sim::kInvalidEvent;
    bool serving = false;              // parities queued, ignore further NAKs
    bool failed = false;
    bool round1_observed = false;      // fed the adaptive loss estimator

    // Reliable-control state (unused on the lossless fast path).
    std::vector<bool> acked;           // per-receiver TG confirmation
    std::size_t acked_count = 0;
    std::vector<char> heard;           // feedback seen since the last POLL
    std::unique_ptr<Backoff> poll_backoff;  // re-POLL budget for this TG
    std::size_t last_poll_count = 0;   // s of the latest POLL (re-poll window)
    bool completed = false;            // counted in tgs_completed exactly once
  };

  void start() {
    skip_completed_tgs();
    schedule_send();
  }

  /// Resume-at-first-incomplete: TGs confirmed in a prior incarnation are
  /// never re-entered by the data pump.
  void skip_completed_tgs() {
    while (next_tg < num_tgs && tg_state[next_tg].completed) ++next_tg;
  }

  void schedule_send() {
    if (sender_dead || send_scheduled) return;
    if (urgent.empty() && next_tg >= num_tgs) return;  // nothing to send
    const double at = std::max(sim.now(), last_send_time + cfg.delta);
    send_scheduled = true;
    sim.schedule_at(at, [this] {
      send_scheduled = false;
      send_next();
    });
  }

  void send_next() {
    if (sender_dead) return;
    last_send_time = sim.now();
    if (!urgent.empty()) {
      Packet p = std::move(urgent.front());
      urgent.pop_front();
      emit(p);
    } else if (next_tg < num_tgs) {
      const std::size_t i = next_tg;
      if (next_data_index < cfg.k) {
        emit(encoders[i].data_packet(next_data_index));
        ++next_data_index;
        if (next_data_index == cfg.k) {
          // TG data done: append the proactive parities (the "a" of
          // Section 3.2), then poll, then move on to the next TG.
          auto& st = tg_state[i];
          st.proactive = std::min(current_proactive, cfg.h);
          for (std::size_t j = 0; j < st.proactive; ++j) {
            Packet parity = encoders[i].parity_packet(j);
            parity.header.count = 1;  // marks a proactive parity
            urgent.push_back(std::move(parity));
          }
          // A resumed TG's high-water mark stays capped at h so the
          // fresh-parity arithmetic below never wraps.
          st.parities_used = std::min(cfg.h, st.parities_used + st.proactive);
          if (cfg.on_parities_sent && st.proactive > 0)
            cfg.on_parities_sent(i, st.parities_used);
          urgent.push_back(make_poll(i, cfg.k + st.proactive));
          next_data_index = 0;
          ++next_tg;
          skip_completed_tgs();
        }
      }
    }
    schedule_send();
  }

  /// The sender process dies: nothing further is sent, heard or decided.
  /// Receivers live on — their timers drain against silence, bounded by
  /// their retry budgets, exactly as if the peer were gone for real.
  void crash_sender() {
    if (sender_dead) return;
    sender_dead = true;
    stats.sender_crashed = true;
    urgent.clear();
    next_tg = num_tgs;
    for (auto& st : tg_state) cancel(st.deadline);
  }

  /// Cancels a pending event and forgets its id; no-op when none is set.
  void cancel(sim::EventId& ev) {
    if (ev == sim::kInvalidEvent) return;
    sim.cancel(ev);
    ev = sim::kInvalidEvent;
  }

  void emit(Packet p) {
    if (sender_dead) return;
    if (cfg.crash_after_tx != kNoSenderCrash && tx_count >= cfg.crash_after_tx) {
      crash_sender();  // dies BEFORE the (N+1)th transmission leaves
      return;
    }
    ++tx_count;
    // Every downstream packet carries the sender's incarnation so a dead
    // incarnation's stragglers are recognisable at the receivers.
    p.header.incarnation = static_cast<std::uint8_t>(cfg.resume.incarnation);
    switch (p.header.type) {
      case PacketType::kData:
        if (tg_state[p.header.tg].first_send < 0.0)
          tg_state[p.header.tg].first_send = sim.now();
        ++stats.data_sent;
        channel.multicast_down(p);
        break;
      case PacketType::kParity:
        if (p.header.count)
          ++stats.proactive_sent;
        else
          ++stats.parity_sent;
        channel.multicast_down(p);
        break;
      case PacketType::kPoll: {
        ++stats.polls_sent;
        channel.multicast_control_down(p);
        arm_poll_deadline(p.header.tg, p.header.count);
        break;
      }
      case PacketType::kNak:
        throw std::logic_error("sender does not emit NAKs");
    }
  }

  Packet make_poll(std::size_t tg, std::size_t s) {
    Packet p;
    p.header.type = PacketType::kPoll;
    p.header.tg = static_cast<std::uint32_t>(tg);
    p.header.k = static_cast<std::uint16_t>(cfg.k);
    p.header.n = static_cast<std::uint16_t>(cfg.k + cfg.h);
    p.header.count = static_cast<std::uint16_t>(s);
    auto& st = tg_state[tg];
    st.last_poll_count = s;
    if (cfg.reliable_control) std::fill(st.heard.begin(), st.heard.end(), 0);
    // A fresh feedback round opens with every POLL; stale NAKs answering
    // an earlier round are recognisable by their round id and ignored.
    p.header.seq = ++st.round;
    return p;
  }

  void arm_poll_deadline(std::size_t tg, std::size_t s) {
    auto& st = tg_state[tg];
    st.serving = false;
    cancel(st.deadline);
    // Worst-case NAK backoff is s * Ts (a receiver needing l = 1); add the
    // poll's downlink and the NAK's uplink propagation.
    const double window =
        2.0 * cfg.delay + static_cast<double>(s) * cfg.slot + cfg.slot;
    if (cfg.reliable_control) {
      st.deadline =
          sim.schedule_in(window, [this, tg] { on_poll_window_closed(tg); });
      return;
    }
    st.deadline = sim.schedule_in(window, [this, tg] {
      auto& s = tg_state[tg];
      s.deadline = sim::kInvalidEvent;
      if (!s.completed) {
        s.completed = true;
        ++stats.tgs_completed;  // silence after a poll means the TG is done
        if (cfg.on_tg_completed) cfg.on_tg_completed(tg);
      }
      observe_round1(tg, 0);  // nobody needed anything this round
    });
  }

  // ---- reliable control plane (sender side) ----------------------------

  /// Every receiver has either acknowledged `tg` or been evicted.
  bool confirmed(std::size_t tg) const {
    const auto& st = tg_state[tg];
    for (std::size_t r = 0; r < num_receivers; ++r)
      if (!evicted[r] && !st.acked[r]) return false;
    return true;
  }

  /// Marks `tg` done exactly once (reliable mode's replacement for the
  /// silence-means-done deadline lambda).
  void finish_tg(std::size_t tg) {
    auto& st = tg_state[tg];
    if (st.completed || st.failed) return;
    st.completed = true;
    ++stats.tgs_completed;
    if (cfg.on_tg_completed) cfg.on_tg_completed(tg);
    cancel(st.deadline);
    observe_round1(tg, 0);  // a round-1 confirmation means nobody NAKed
  }

  void evict(std::size_t r) {
    if (evicted[r]) return;
    evicted[r] = true;
    ++stats.evictions;
  }

  /// Reliable mode's window close: silence no longer means completion.
  /// Confirmed -> done; silent blockers age toward eviction; otherwise
  /// re-POLL under the TG's backoff until the retry budget runs out.
  void on_poll_window_closed(std::size_t tg) {
    auto& st = tg_state[tg];
    st.deadline = sim::kInvalidEvent;
    if (sender_dead || st.failed || st.serving) return;
    if (confirmed(tg)) {
      finish_tg(tg);
      return;
    }
    // Liveness: every blocking receiver that stayed silent this round ages
    // by one; any feedback (for any TG) resets its counter.  Damping is
    // off in reliable mode, so a live blocked receiver always answers —
    // per-member silence is a valid crash signal.
    for (std::size_t r = 0; r < num_receivers; ++r) {
      if (evicted[r] || st.acked[r] || st.heard[r]) continue;
      if (++silent_rounds[r] >= cfg.retry.grace_rounds) evict(r);
    }
    if (confirmed(tg)) {
      finish_tg(tg);
      return;
    }
    if (st.poll_backoff->exhausted()) {
      st.failed = true;  // retry budget spent: degrade, don't spin
      ++stats.tgs_failed;
      return;
    }
    ++stats.poll_retries;
    const double wait = st.poll_backoff->next();
    sim.schedule_in(wait, [this, tg] {
      auto& s = tg_state[tg];
      if (sender_dead || s.failed || s.serving) return;
      if (confirmed(tg)) {
        finish_tg(tg);  // resolved while we waited (e.g. by an eviction)
        return;
      }
      urgent.push_back(
          make_poll(tg, std::max<std::size_t>(s.last_poll_count, 1)));
      schedule_send();
    });
  }

  /// Feeds the adaptive controller with the maximum missing-count the
  /// first feedback round of `tg` revealed (0 = silence).  The NAK
  /// reports losses BEYOND the a proactive parities, so the worst
  /// receiver's loss count is max_missing + a when a NAK arrived;
  /// silence only says the maximum was <= a (censored) — the estimate is
  /// then decayed gently so an improving channel sheds redundancy.
  void observe_round1(std::size_t tg, std::size_t max_missing) {
    auto& st = tg_state[tg];
    if (st.round1_observed || st.round != 1) return;
    st.round1_observed = true;
    if (!cfg.adaptive) return;
    if (max_missing > 0) {
      const double sample =
          static_cast<double>(max_missing + st.proactive);
      ewma_max_missing += 0.3 * (sample - ewma_max_missing);
    } else {
      ewma_max_missing =
          std::min(ewma_max_missing * 0.9,
                   static_cast<double>(st.proactive));
    }
    replan_proactive();
  }

  /// Inverts E[max over R of Bin(n1, p) losses] = ewma_max_missing for p,
  /// then picks the smallest a with P(no receiver needs a round) >= the
  /// configured confidence.  Requires the sender to know (roughly) R —
  /// reasonable for provisioned sessions; see NpConfig::adaptive.
  void replan_proactive() {
    // The estimator's samples are (uncensored) maxima of losses over the
    // k + a packets of round 1; invert against that block size.
    const auto n1 = static_cast<std::int64_t>(cfg.k + current_proactive);
    const double receivers = static_cast<double>(num_receivers);
    const auto expected_max = [&](double p) {
      double cdf = 0.0, sum = 0.0;
      for (std::int64_t j = 0; j < n1; ++j) {
        cdf += binomial_pmf(n1, j, p);
        sum += one_minus_pow_one_minus(1.0 - std::min(cdf, 1.0), receivers);
      }
      return sum;
    };
    double p_hat = 0.0;
    if (ewma_max_missing > 1e-9) {
      double lo = 1e-9, hi = 0.9;
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (expected_max(mid) < ewma_max_missing ? lo : hi) = mid;
      }
      p_hat = 0.5 * (lo + hi);
    }
    // Smallest a with P(Lr <= a)^R >= confidence.
    std::size_t a = 0;
    for (; a < cfg.h; ++a) {
      const double per =
          binomial_cdf(static_cast<std::int64_t>(cfg.k + a),
                       static_cast<std::int64_t>(a), p_hat);
      if (per > 0.0 &&
          std::exp(receivers * std::log(per)) >= kAdaptiveConfidence)
        break;
    }
    current_proactive = a;
  }

  void on_sender_feedback(std::size_t from, const Packet& p) {
    if (sender_dead) return;  // a dead sender hears nothing
    if (p.header.type != PacketType::kNak) return;
    if (p.header.tg >= num_tgs) return;  // corrupt/foreign feedback
    const std::size_t tg = p.header.tg;
    auto& st = tg_state[tg];
    if (cfg.reliable_control) {
      // Any feedback proves the receiver alive — mark before any staleness
      // or duplicate filtering, so even a late NAK resets its silence age.
      if (from < num_receivers && !evicted[from]) {
        silent_rounds[from] = 0;
        st.heard[from] = 1;
      }
      if (p.header.count == 0) {
        // ACK: per-receiver positive confirmation of the whole TG.  Not
        // round-scoped (a TG once decoded stays decoded), so no stale-seq
        // check; duplicates from control_dup are absorbed by the bitmap.
        ++stats.acks_received;
        if (from < num_receivers && !evicted[from] && !st.acked[from]) {
          st.acked[from] = true;
          ++st.acked_count;
          if (confirmed(tg)) finish_tg(tg);
        }
        return;
      }
      if (st.completed) return;  // every member confirmed: a late NAK is moot
    }
    if (st.serving || st.failed) return;  // already reacting to this round
    if (p.header.seq != st.round) return; // stale NAK from an earlier round
    observe_round1(tg, p.header.count);
    cancel(st.deadline);
    std::size_t l = p.header.count;
    const std::size_t available = cfg.h - st.parities_used;
    if (available == 0) {
      st.failed = true;
      ++stats.tgs_failed;
      return;
    }
    l = std::min(l, available);
    st.serving = true;
    for (std::size_t j = 0; j < l; ++j)
      urgent.push_back(encoders[tg].parity_packet(st.parities_used + j));
    st.parities_used += l;
    if (cfg.on_parities_sent) cfg.on_parities_sent(tg, st.parities_used);
    urgent.push_back(make_poll(tg, l));
    schedule_send();
  }

  // ---- receivers -------------------------------------------------------

  struct Receiver {
    std::vector<std::optional<fec::TgDecoder>> decoders;
    std::vector<std::unique_ptr<NakTimer>> timers;
    std::vector<std::uint32_t> poll_round;  // round id of the latest POLL per TG
    std::vector<bool> done;
    std::size_t done_count = 0;
    /// Highest sender incarnation heard; packets from older incarnations
    /// (a dead sender's stragglers) are rejected.  Primed from
    /// NpResume::receiver_incarnation on restart.
    std::uint8_t known_incarnation = 0;
    Rng rng;

    // Reliable-control state (sized only when reliable_control).
    std::vector<std::unique_ptr<Backoff>> nak_backoffs;  // per-TG, lazy
    std::vector<sim::EventId> nak_retry;  // pending retransmit per TG
  };

  void cancel_nak_retry(std::size_t r, std::size_t tg) {
    if (!rx[r].nak_retry.empty()) cancel(rx[r].nak_retry[tg]);
  }

  /// Receiver r's feedback on `tg`, answering the latest POLL's round: a
  /// NAK asking for `need` more packets, or an ACK when need == 0.
  Packet feedback(std::size_t r, std::size_t tg, std::size_t need) const {
    Packet p;
    p.header.type = PacketType::kNak;
    p.header.tg = static_cast<std::uint32_t>(tg);
    p.header.count = static_cast<std::uint16_t>(need);
    p.header.seq = rx[r].poll_round[tg];
    p.header.incarnation = rx[r].known_incarnation;
    return p;
  }

  /// Multicasts receiver r's NAK; under reliable control it is then
  /// retransmitted until repair (or a new POLL) shows up.
  void send_nak(std::size_t r, std::size_t tg, std::size_t need) {
    ++stats.naks_sent;
    channel.multicast_up(r, feedback(r, tg, need));
    if (cfg.reliable_control) arm_nak_retry(r, tg);
  }

  /// Receiver r's NAK for `tg` is in flight; if no repair (or new POLL)
  /// shows up within an RTT plus backoff, retransmit it.  Covers the NAK
  /// itself being lost — the re-POLL only covers rounds the sender knows
  /// went unanswered.
  void arm_nak_retry(std::size_t r, std::size_t tg) {
    auto& rec = rx[r];
    cancel_nak_retry(r, tg);
    auto& bo = rec.nak_backoffs[tg];
    if (!bo)
      bo = std::make_unique<Backoff>(
          cfg.retry, Rng(session_seed).split(0x7000 + r * num_tgs + tg));
    if (bo->exhausted()) return;  // budget spent; the sender's re-POLL remains
    const double wait = 2.0 * cfg.delay + bo->next();
    rec.nak_retry[tg] = sim.schedule_in(wait, [this, r, tg] {
      rx[r].nak_retry[tg] = sim::kInvalidEvent;
      if (rx[r].done[tg]) return;
      const std::size_t need = decoder(r, tg).needed();
      if (need == 0) return;
      ++stats.nak_retries;
      send_nak(r, tg, need);
    });
  }

  /// An ACK is a NAK with count == 0, unicast to the sender only — other
  /// receivers never see it, so NAK suppression statistics are untouched.
  void send_ack(std::size_t r, std::size_t tg) {
    ++stats.acks_sent;
    channel.unicast_up(r, feedback(r, tg, 0));
  }

  fec::TgDecoder& decoder(std::size_t r, std::size_t tg) {
    auto& slot = rx[r].decoders[tg];
    if (!slot)
      slot.emplace(static_cast<std::uint32_t>(tg), code, cfg.packet_len);
    return *slot;
  }

  void on_receiver_packet(std::size_t r, const Packet& p) {
    // An adversarial channel can deliver packets whose headers no longer
    // address anything we track (foreign traffic, or corruption that
    // survived the wire checks).  Every per-TG array below is indexed by
    // tg, so the receive path must be total over arbitrary headers.
    if (p.header.tg >= num_tgs) return;
    // Stale-incarnation filtering: traffic from a sender life older than
    // the newest one heard is a dead incarnation's straggler — drop it
    // rather than let it answer (or corrupt) the live session.
    if (p.header.incarnation < rx[r].known_incarnation) {
      ++stats.stale_rejected;
      return;
    }
    rx[r].known_incarnation = p.header.incarnation;
    switch (p.header.type) {
      case PacketType::kData:
      case PacketType::kParity: {
        // A block address outside our code's shape or a wrong-size
        // payload cannot be a shard of this session; count it as loss
        // rather than letting TgDecoder::add throw mid-simulation.
        if (p.header.index >= code.n() || p.payload.size() != cfg.packet_len)
          return;
        // Repair traffic arrived: the in-flight NAK was heard, stand down.
        if (cfg.reliable_control) cancel_nak_retry(r, p.header.tg);
        auto& dec = decoder(r, p.header.tg);
        const bool was_done = rx[r].done[p.header.tg];
        if (!dec.add(p)) {
          ++stats.duplicate_receptions;
          return;
        }
        if (!was_done && dec.decodable()) complete_tg(r, p.header.tg);
        break;
      }
      case PacketType::kPoll:
        // A new POLL supersedes any pending NAK retransmit for this TG.
        if (cfg.reliable_control) cancel_nak_retry(r, p.header.tg);
        rx[r].poll_round[p.header.tg] = p.header.seq;
        on_poll(r, p.header.tg, p.header.count);
        break;
      case PacketType::kNak:
        // Another receiver's NAK: damping — except in reliable mode,
        // where a suppressed receiver is indistinguishable from a crashed
        // one, so everyone answers (reliability costs feedback traffic).
        if (!cfg.reliable_control)
          if (auto& timer = rx[r].timers[p.header.tg])
            timer->on_heard(p.header.count);
        break;
    }
  }

  void on_poll(std::size_t r, std::size_t tg, std::size_t s) {
    // A receiver that already delivered the TG — possibly in the sender's
    // previous incarnation, so this life's decoder may be empty — answers
    // from its done bitmap, never by re-requesting content it has.
    if (rx[r].done[tg]) {
      if (cfg.reliable_control) send_ack(r, tg);
      return;
    }
    auto& dec = decoder(r, tg);
    const std::size_t l = dec.needed();
    if (l == 0) {
      // Reliable mode: a POLL is answered positively, never with silence.
      if (cfg.reliable_control) send_ack(r, tg);
      return;
    }
    auto& timer = rx[r].timers[tg];
    if (!timer) {
      timer = std::make_unique<NakTimer>(
          sim, [this, r, tg](std::size_t need) { send_nak(r, tg, need); });
    }
    timer->arm(l, nak_backoff(s, l, cfg.slot, rx[r].rng));
  }

  void complete_tg(std::size_t r, std::size_t tg) {
    auto& dec = *rx[r].decoders[tg];
    const auto& rebuilt = dec.reconstruct();
    stats.packets_decoded += dec.decoded_packets();
    if (rebuilt != source[tg]) corrupted = true;
    rx[r].done[tg] = true;
    auto& st = tg_state[tg];
    // Resumed TGs that were never (re)sent this life have no first_send;
    // their latency belongs to the incarnation that actually sent them.
    if (++st.receivers_done >= num_receivers && st.first_send >= 0.0 &&
        st.latency < 0.0)
      st.latency = sim.now() - st.first_send;
    if (++rx[r].done_count == num_tgs)
      stats.completion_time = std::max(stats.completion_time, sim.now());
    // A pending NAK for this TG is moot now.
    if (auto& timer = rx[r].timers[tg]) timer->disarm();
    if (cfg.reliable_control) {
      cancel_nak_retry(r, tg);
      // Proactive confirmation: don't make the sender poll again to learn
      // what it could be told now.
      send_ack(r, tg);
    }
  }

  // ---- run -------------------------------------------------------------

  NpStats run() {
    start();
    if (cfg.reliable_control && cfg.retry.session_deadline > 0.0) {
      sim.run(cfg.retry.session_deadline);
      if (!sim.queue().empty()) {
        // The deadline ended the run with work still pending: a total,
        // reported exit (never a hang) — discard the stale events.
        stats.report.deadline_expired = true;
        sim.queue().clear();
      }
    } else {
      sim.run();
    }
    for (std::size_t i = 0; i < num_tgs; ++i)
      stats.parities_encoded += encoders[i].parities_encoded();
    std::uint64_t suppressed = 0;
    bool all = !corrupted;
    for (auto& rec : rx) {
      if (rec.done_count != num_tgs) all = false;
      for (auto& t : rec.timers)
        if (t) suppressed += t->suppressed_count();
    }
    stats.packet_deliveries = channel.stats().data_deliveries;
    stats.naks_suppressed = suppressed;
    stats.impairment = channel.impairment_stats();
    std::vector<double> latencies;
    latencies.reserve(tg_state.size());
    double latency_sum = 0.0;
    for (const auto& st : tg_state) {
      if (st.latency >= 0.0) {
        latency_sum += st.latency;
        latencies.push_back(st.latency);
      }
    }
    if (!latencies.empty()) {
      stats.mean_tg_latency =
          latency_sum / static_cast<double>(latencies.size());
      std::sort(latencies.begin(), latencies.end());
      stats.p95_tg_latency =
          latencies[std::min(latencies.size() - 1,
                             static_cast<std::size_t>(
                                 0.95 * static_cast<double>(latencies.size())))];
    }
    stats.all_delivered = all;
    stats.final_proactive = static_cast<double>(current_proactive);
    stats.tx_per_packet =
        static_cast<double>(stats.data_sent + stats.parity_sent +
                            stats.proactive_sent) /
        (static_cast<double>(cfg.k) * static_cast<double>(num_tgs));
    build_report();
    return stats;
  }

  /// Fills NpStats::report on every exit path — complete, degraded, or
  /// deadline-expired alike.
  void build_report() {
    auto& rep = stats.report;
    rep.delivered.assign(num_receivers, std::vector<bool>(num_tgs, false));
    for (std::size_t r = 0; r < num_receivers; ++r)
      for (std::size_t i = 0; i < num_tgs; ++i)
        rep.delivered[r][i] = rx[r].done[i];
    rep.evicted.assign(num_receivers, false);
    for (std::size_t r = 0; r < evicted.size(); ++r)
      rep.evicted[r] = evicted[r];
    rep.evictions = stats.evictions;
    rep.units_failed = stats.tgs_failed;
    rep.poll_retries = stats.poll_retries;
    rep.nak_retries = stats.nak_retries;
    rep.complete = stats.all_delivered && stats.evictions == 0 &&
                   stats.tgs_failed == 0 && !rep.deadline_expired;
  }

  NpConfig cfg;
  std::size_t num_receivers;
  std::size_t num_tgs;
  std::uint64_t session_seed;
  sim::Simulator sim;
  fec::RseCode code;
  net::MulticastChannel channel;

  std::vector<std::vector<std::vector<std::uint8_t>>> source;
  std::vector<fec::TgEncoder> encoders;
  std::vector<TgState> tg_state;
  std::size_t current_proactive = 0;
  double ewma_max_missing = 0.0;
  std::deque<Packet> urgent;
  std::size_t next_tg = 0;
  std::size_t next_data_index = 0;
  double last_send_time = -1e9;
  bool send_scheduled = false;

  std::vector<Receiver> rx;
  bool corrupted = false;

  // Reliable-control liveness (sized only when reliable_control).
  std::vector<bool> evicted;
  std::vector<std::size_t> silent_rounds;

  // Sender crash injection.
  bool sender_dead = false;   // crash_after_tx fired: the sender is gone
  std::size_t tx_count = 0;   // transmissions so far (crash countdown)

  NpStats stats;
};

NpSession::NpSession(const loss::LossModel& loss, std::size_t receivers,
                     std::size_t num_tgs, const NpConfig& config,
                     std::uint64_t seed)
    : impl_(std::make_unique<Impl>(
          loss, receivers, num_tgs, config, seed,
          std::vector<std::vector<std::vector<std::uint8_t>>>{})) {}

NpSession::NpSession(const loss::LossModel& loss, std::size_t receivers,
                     std::vector<std::vector<std::vector<std::uint8_t>>> data,
                     const NpConfig& config, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(loss, receivers, data.size(), config, seed,
                                   std::move(data))) {}

NpSession::~NpSession() = default;

NpStats NpSession::run() { return impl_->run(); }

void NpSession::set_wire_tap(std::function<void(const fec::Packet&)> tap) {
  impl_->channel.set_wire_tap(std::move(tap));
}

const std::vector<std::vector<std::vector<std::uint8_t>>>&
NpSession::source_data() const {
  return impl_->source;
}

}  // namespace pbl::protocol
