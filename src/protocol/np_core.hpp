// Protocol NP's round machine, sans I/O: one sender core and one
// receiver core that both engines run.  The reactor drivers
// (server/session_driver.hpp) wrap them around sockets, the arena and
// reactor timers; the discrete-event NpSession (np_protocol.hpp) wraps
// them around MulticastChannel and the simulated clock.
//
// A core takes events — a frame, a timer coming due, a burst that
// finished sending, a member banned by the guard — each with the
// current time, and acts through its Io: send a burst or a POLL, arm
// the collect deadline, fire a journal hook, send feedback, finish.  It
// touches no socket, clock, arena or simulator, so it runs the same on
// both engines and in tests driven by plain `double` times.
//
// The schedule is stop-and-wait per TG: the k data frames (plus `a`
// proactive parities), then POLL(i); the round's answers are collected
// until every gating member answered or the collect timeout fires; the
// largest NAK(i, l) of the round is served with l fresh parities under
// the h budget, then POLL(i) again.  Reliable control adds ACKs (a NAK
// with count 0), re-POLL backoff, grace-round eviction, quarantine and
// parity-only catch-up; docs/ROBUSTNESS.md describes each rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "fec/fec_block.hpp"
#include "fec/packet.hpp"
#include "net/overload.hpp"
#include "protocol/retry.hpp"
#include "util/rng.hpp"

namespace pbl::protocol {

/// True when a frame stamped `incarnation` comes from a sender life older
/// than `known`.  The wire field is 8 bits, so lives compare by RFC 1982
/// serial arithmetic: life 256 goes out as 0 and is newer than 255.
constexpr bool stale_incarnation(std::uint8_t incarnation,
                                 std::uint8_t known) noexcept {
  return static_cast<std::int8_t>(
             static_cast<std::uint8_t>(incarnation - known)) < 0;
}

/// POLL(kEndOfSession) is the marker a sender sends when it is done.
inline constexpr std::uint32_t kEndOfSession = 0xFFFFFFFFu;

enum class BurstKind { kData, kParity, kProactive };

/// A run of DATA or PARITY frames of one TG for the engine to send.
struct NpBurst {
  std::size_t tg = 0;
  BurstKind kind = BurstKind::kData;
  std::size_t first = 0;  ///< first data index, or first parity index
  std::size_t count = 0;
  /// Catch-up members the frames go to; nullptr = the whole group.
  const std::vector<std::size_t>* targets = nullptr;
};

/// Protocol NP's parameters (paper Section 5.1), declared once.  The
/// DES's NpConfig and the reactor drivers' UdpNpConfig extend this struct
/// with their own fields and defaults, and hand it to the cores as it is.
struct NpParams {
  std::size_t k = 8;             ///< data packets per TG
  std::size_t h = 64;            ///< parity budget per TG (n = k + h <= 255)
  std::size_t packet_len = 512;  ///< payload bytes per packet

  /// Control-plane reliability (docs/ROBUSTNESS.md).  Off, silence after
  /// a POLL means every receiver holds the TG: the paper's lossless-
  /// feedback rule.  On, every receiver answers every POLL with its NAK
  /// or an ACK (a NAK with count 0); a round closes once every gating
  /// member answered; unanswered rounds are re-POLLed with a widened
  /// collect window under `retry`'s seeded backoff; receivers retransmit
  /// NAKs whose repair never comes; members silent for
  /// retry.grace_rounds rounds are evicted; and retry.session_deadline
  /// bounds the session.  Overheard-NAK damping is off, since a damped
  /// receiver would look crashed.  Every exit fills the sender's
  /// PartialDeliveryReport.
  bool reliable_control = false;
  RetryConfig retry{};

  // Crash-resume (core/session_state.hpp journals these).
  /// The sender's life, stamped into every DATA/PARITY/POLL header.
  /// Receivers drop frames of older lives, so a dead life's stragglers,
  /// its end marker included, cannot answer for the live one.
  std::uint32_t incarnation = 0;
  /// TGs a prior life's journal confirmed complete (empty = fresh
  /// session, else one flag per TG).  The sender never re-sends them,
  /// and a receiver counts any frame of one as an exactly-once violation.
  std::vector<bool> resume_completed;
  /// Per-TG parities-sent high-water (empty, or one per TG, each <= h):
  /// a resumed TG serves fresh parity indices, never repair that the
  /// receivers already hold.
  std::vector<std::uint16_t> resume_parities;
  /// Write-ahead hooks, called the moment the sender's durable progress
  /// changes and before the frames that depend on it leave, so a journal
  /// records it ahead of any crash.  Optional.
  std::function<void(std::size_t tg)> on_tg_completed;
  std::function<void(std::size_t tg, std::size_t parities_used)>
      on_parities_sent;
};

/// Throws std::invalid_argument unless `groups` is a payload for
/// `params`: at least one TG, each of k packets of packet_len bytes.
void check_tg_shape(
    const NpParams& params,
    const std::vector<std::vector<std::vector<std::uint8_t>>>& groups);

/// The sender core's counters.  The engine owns them (the reactor
/// driver's UdpNpSenderStats extends this struct), the core updates them.
struct NpSenderCounters {
  std::uint64_t polls_sent = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t naks_suppressed = 0;  ///< quarantined or over budget
  std::uint64_t acks_received = 0;
  std::uint64_t poll_retries = 0;     ///< re-POLLs after unanswered rounds
  std::uint64_t evictions = 0;        ///< members evicted for silence
  std::uint64_t tgs_completed = 0;    ///< journal hook count
  std::uint64_t tgs_exhausted = 0;    ///< parity budget ran out
  std::uint64_t tgs_unconfirmed = 0;  ///< re-POLL budget ran out
  std::uint64_t tgs_skipped = 0;      ///< resumed TGs never re-sent
  std::uint64_t members_quarantined = 0;  ///< members moved to catch-up

  bool operator==(const NpSenderCounters&) const = default;
};

class NpSenderCore {
 public:
  /// The engine side.  Calls may re-enter the core (a burst that
  /// completes at once reports on_burst_done from inside send_burst).
  class Io {
   public:
    /// Sends `burst`, then reports on_burst_done.
    virtual void send_burst(const NpBurst& burst) = 0;
    /// Sends `poll` to `targets` (nullptr = the group); false once the
    /// sender is dead.
    virtual bool send_poll(fec::Packet poll,
                           const std::vector<std::size_t>* targets) = 0;
    /// The end-of-session marker, to the whole group.
    virtual void send_end() = 0;
    /// Arms the collect deadline at absolute time `when`; it reports
    /// on_timer unless disarmed first.
    virtual void arm_timer(double when) = 0;
    virtual void disarm_timer() = 0;
    /// Last call: the session is over and report() is final.
    virtual void session_over() = 0;

   protected:
    ~Io() = default;
  };

  /// What only the engine knows of the session.
  struct Setup {
    std::size_t members = 0;
    std::size_t num_tgs = 0;
    /// The NAK collect window; with reliable control the floor of the
    /// RTT-based collect timeout.
    double poll_window = 0.08;
    std::uint64_t seed = 1;  ///< seeds the re-POLL backoff jitter
    /// Feedback budget, quarantine and catch-up knobs (the rest of the
    /// struct belongs to the engine's burst path).
    net::OverloadConfig overload{};
    std::size_t proactive = 0;  ///< parities sent with each TG's data
    /// Re-plan `proactive` after each TG from its first round's largest NAK.
    bool adaptive = false;
  };

  /// `params` and `counters` must outlive the core.  Throws
  /// std::invalid_argument on an inconsistent configuration.
  NpSenderCore(const NpParams& params, Setup setup, Io& io,
               NpSenderCounters& counters);
  NpSenderCore(NpParams&&, Setup, Io&, NpSenderCounters&) = delete;
  NpSenderCore(const NpSenderCore&) = delete;
  NpSenderCore& operator=(const NpSenderCore&) = delete;

  /// Opens the session: the first TG's data burst goes out.
  void start(double now);
  /// One NAK or ACK from `member` (Setup::members when the engine cannot
  /// tell who sent it).
  void on_feedback(double now, std::size_t member,
                   const fec::PacketHeader& feedback);
  /// The engine delivered every queued feedback frame: with reliable
  /// control the round closes as soon as every gating member answered.
  void on_feedback_drained(double now);
  /// The armed collect deadline came due.
  void on_timer(double now);
  /// The burst asked for last finished sending; `crashed` when the
  /// sender died partway (it then falls silent).
  void on_burst_done(double now, bool crashed);
  /// The guard banned `member`: from the next round on it no longer
  /// gates completion (sticky even if the ban expires).
  void on_banned(std::size_t member);
  /// Ends the session as deadline-expired if the deadline has passed.
  bool end_if_deadline_passed(double now);
  /// Ends the session as overloaded (ShedPolicy::kRefuse).
  void abort_overloaded();

  bool finished() const noexcept { return finished_; }
  /// Filled on every exit path (the per-member rows with reliable
  /// control only).
  const PartialDeliveryReport& report() const noexcept { return report_; }
  /// When the open collect phase times out unless every gating member
  /// answers first.
  double collect_deadline() const noexcept { return collect_deadline_; }
  /// Proactive parities the next TG will carry.
  std::size_t proactive() const noexcept { return proactive_; }
  const std::vector<bool>& evicted() const noexcept { return evicted_; }

 private:
  bool resumed(std::size_t tg) const;
  /// Member `m` gates main-pass rounds: not evicted, quarantined or
  /// expelled.
  bool gates(std::size_t m) const;
  /// `m` is a live quarantined member still lacking `tg`.
  bool owed(std::size_t m, std::size_t tg) const;
  bool tg_fully_delivered() const;
  /// Every member gating the round acked (or every catch-up target was
  /// served).
  bool confirmed() const;
  /// Every member gating the round answered its POLL.
  bool all_answered() const;
  const std::vector<std::size_t>* targets() const;

  void begin_next_tg(double now);
  void start_catch_up();
  void send_poll(double now);
  void after_window(double now);
  void serve_parity(std::size_t l, BurstKind kind);
  void complete_current_tg();
  void update_quarantine();
  void refresh_expulsions();
  void observe_first_round(std::size_t max_missing);
  void finish();

  const NpParams& params_;
  Setup setup_;
  Io& io_;
  NpSenderCounters& counters_;
  PartialDeliveryReport report_;
  bool finished_ = false;
  bool crashed_ = false;

  // Session-wide state.
  std::uint32_t round_id_ = 0;
  Deadline deadline_;
  std::vector<bool> evicted_;
  std::vector<std::size_t> silent_;
  std::vector<std::vector<bool>> delivered_;
  std::vector<std::uint32_t> answered_;  ///< round of each member's answer
  RttEstimator answer_rtt_;              ///< POLL -> answer latency
  double poll_sent_at_ = 0.0;
  double collect_deadline_ = 0.0;
  bool collecting_ = false;  ///< a POLL's collect phase is open
  BurstKind burst_kind_ = BurstKind::kData;

  // Per-TG round state.
  std::size_t tg_ = 0;
  std::vector<bool> acked_;
  std::vector<bool> heard_;
  std::optional<Backoff> poll_backoff_;
  std::size_t parities_used_ = 0;
  double window_pad_ = 0.0;
  std::size_t repair_rounds_ = 0;  ///< parity bursts served for this TG
  std::size_t l_ = 0;              ///< largest NAK count this round
  std::size_t round_naks_ = 0;     ///< NAKs admitted this round (budget)
  bool first_round_ = false;       ///< the TG's first round is open

  // Quarantine and parity-only catch-up (net/overload.hpp).
  std::vector<std::size_t> parity_high_;
  std::vector<std::size_t> deficit_;
  std::vector<bool> quarantined_;
  std::vector<bool> deferred_;  ///< confirmed, journal waits on a straggler
  bool catchup_ = false;
  std::vector<std::size_t> cu_tgs_;      ///< catch-up TGs left, next at back
  std::vector<std::size_t> cu_targets_;  ///< members served this TG

  // Guard bans: noted as they land, applied at each round's close.
  std::vector<bool> banned_;
  std::vector<bool> expelled_;

  // Proactive redundancy (Section 3.2's "a") and its adaptation.
  std::size_t proactive_ = 0;
  double ewma_max_missing_ = 0.0;
};

/// The receiver core's counters, engine-owned like NpSenderCounters (the
/// driver's UdpNpReceiverResult extends this struct).
struct NpReceiverCounters {
  std::uint64_t received = 0;      ///< packets accepted off the wire
  std::uint64_t dropped = 0;       ///< packets discarded by injected loss
  std::uint64_t decoded = 0;       ///< packets rebuilt by RSE decoding
  std::uint64_t naks_sent = 0;
  std::uint64_t duplicates = 0;    ///< redundant DATA/PARITY receptions
  std::uint64_t rejected = 0;      ///< block-shape/length mismatches dropped
  std::uint64_t acks_sent = 0;     ///< reliable mode: positive poll answers
  std::uint64_t nak_retries = 0;   ///< reliable mode: NAK retransmissions
  std::uint64_t stale_rejected = 0;///< dead-incarnation packets dropped
  /// Slotted NAKs cancelled because repair, or an overheard NAK covering
  /// them, arrived first.
  std::uint64_t naks_suppressed = 0;
  /// DATA/PARITY of TGs the sender journal had confirmed in a prior life.
  std::uint64_t redelivered_prior = 0;

  bool operator==(const NpReceiverCounters&) const = default;
};

class NpReceiverCore {
 public:
  class Io {
   public:
    /// A NAK (count > 0) or ACK (count == 0) for the sender.
    virtual void send_feedback(fec::Packet&& feedback) = 0;
    /// TG `tg` just decoded to `data`.  Verify or copy it here: the core
    /// releases the TG's decoder, and `data` with it, when this returns.
    virtual void decoded(std::size_t tg,
                         const std::vector<std::vector<std::uint8_t>>& data) = 0;

   protected:
    ~Io() = default;
  };

  /// What a frame turned out to be.
  enum class Input {
    kStale,  ///< from a dead sender life: dropped, no liveness
    kEnd,    ///< the end-of-session marker
    kBlock,  ///< DATA/PARITY of a live TG, handed to the decoder
    kOther,  ///< control, foreign, or repair of a TG held from a prior life
  };

  /// What only the engine knows of this member.
  struct Setup {
    std::size_t num_tgs = 0;
    /// The sender's collect window: NAK retransmissions are spaced by it
    /// plus the next backoff delay.
    double poll_window = 0.08;
    /// Section 5.1 slotting: a first NAK waits nak_backoff(k, l, slot).
    /// 0 = answer at once.
    double slot = 0.0;
    double data_loss = 0.0;  ///< injected DATA/PARITY drop probability
    Rng rng{1};              ///< drives injected loss, slots and backoff
    std::vector<bool> prior_decoded{};  ///< TGs this member decoded before
    std::uint32_t incarnation = 0;      ///< newest sender life heard so far
  };

  /// `code` (the session's (k, k + h) code), `params` and `counters` must
  /// outlive the core.  Throws std::invalid_argument on an inconsistent
  /// configuration.
  NpReceiverCore(const fec::RseCode& code, const NpParams& params,
                 Setup setup, Io& io, NpReceiverCounters& counters);
  NpReceiverCore(const fec::RseCode&, NpParams&&, Setup, Io&,
                 NpReceiverCounters&) = delete;
  NpReceiverCore(const NpReceiverCore&) = delete;
  NpReceiverCore& operator=(const NpReceiverCore&) = delete;

  Input on_packet(double now, fec::Packet&& packet);
  /// Another member's NAK(tg, count): damping cancels a slotted first
  /// NAK that it covers.
  void on_overheard_nak(std::uint32_t tg, std::size_t count);
  /// A timer came due: sends the armed NAK if its time has come.
  void on_timer(double now);
  /// A frame still in flight when the session ended: only its repair
  /// content counts.
  void on_late_block(fec::Packet&& packet);

  /// When the armed NAK is due; +inf when none is armed.
  double nak_due() const noexcept {
    return nak_pending_ ? nak_retry_at_
                        : std::numeric_limits<double>::infinity();
  }
  const std::vector<bool>& done() const noexcept { return done_; }
  std::size_t done_count() const noexcept { return done_count_; }
  std::uint8_t incarnation() const noexcept { return known_inc_; }

 private:
  std::size_t needed(std::uint32_t tg) const;
  void on_poll(double now, std::uint32_t tg, std::uint32_t seq);
  bool absorbed_by_prior(std::uint32_t tg);
  void accept_block(fec::Packet&& packet);
  void send_feedback(std::uint32_t tg, std::size_t count, std::uint32_t seq);
  void send_pending_nak(double now);

  const fec::RseCode& code_;
  const NpParams& params_;
  Setup setup_;
  Io& io_;
  NpReceiverCounters& counters_;
  /// Decoders of the TGs in flight: one is made by a TG's first block
  /// and dropped once the TG decodes and Io::decoded has seen its bytes.
  /// A decoded TG is then only its done_ bit.
  std::vector<std::optional<fec::TgDecoder>> decoders_;
  std::vector<bool> done_;
  std::vector<bool> prior_;      ///< decoded before this life
  std::vector<bool> confirmed_;  ///< journal-confirmed before this life
  std::size_t done_count_ = 0;
  std::vector<std::optional<Backoff>> nak_backoffs_;  ///< until decoded
  bool nak_pending_ = false;
  /// The pending NAK was never sent: it sits in its slot, and repair or
  /// an overheard NAK arriving first cancels it.
  bool nak_first_ = false;
  Rng supp_rng_{1};  ///< slot draws
  std::uint32_t nak_tg_ = 0;
  std::uint32_t nak_round_ = 0;
  double nak_retry_at_ = 0.0;
  std::uint8_t known_inc_ = 0;
};

}  // namespace pbl::protocol
