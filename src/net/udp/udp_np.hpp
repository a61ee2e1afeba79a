// Protocol NP over real (loopback) UDP sockets: the session
// configuration, statistics and end-of-session marker shared by the
// reactor drivers (server/session_driver.hpp), which run the protocol,
// and the multicast server that hosts them (server/server.hpp).
//
// The sender reaches the group with one IP multicast send per frame, or
// by unicast fan-out where the host lacks multicast on lo
// (net/udp/udp_transport.hpp).  NAK feedback is unicast to the sender,
// which performs the suppression itself by serving only the round's
// maximum request — the semantics of Section 5.1's slotting-and-damping,
// adapted to a topology where receivers cannot overhear each other.
// Rounds are tagged (POLL/NAK carry a round id) so stale feedback cannot
// trigger spurious repair.
//
// Loss can be injected at each receiver with a configurable
// probability, which keeps sessions independent of real network
// impairments while exercising the full wire path: serialisation,
// sockets, RSE repair, reassembly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/impairment.hpp"
#include "net/overload.hpp"
#include "net/peer_guard.hpp"
#include "net/udp/udp_transport.hpp"
#include "protocol/np_core.hpp"
#include "protocol/retry.hpp"

namespace pbl::net {

using TgBytes = std::vector<std::vector<std::uint8_t>>;  ///< k packets

struct UdpNpConfig {
  std::size_t k = 8;
  std::size_t h = 64;            ///< parity budget (k + h <= 255)
  std::size_t packet_len = 512;
  /// Seconds the sender collects NAKs per round.  With reliable_control
  /// it is the floor of the collect timeout instead: a round closes once
  /// every gating member answered, or after max(poll_window, SRTT +
  /// 4·RTTVAR) of measured POLL→answer latency, capped at poll_window +
  /// retry.max_backoff (docs/ROBUSTNESS.md).
  double poll_window = 0.08;

  /// Control-plane reliability layer (docs/ROBUSTNESS.md).  When set,
  /// "silence after a POLL" no longer closes a TG: every receiver answers
  /// every POLL (NAK, or an ACK — a NAK with count == 0 — when it needs
  /// nothing; both carry the receiver's own port in header.index so the
  /// sender can track per-member liveness), unanswered rounds are
  /// re-POLLed with a widened collect window under `retry`'s seeded
  /// backoff, receivers retransmit NAKs whose repair never arrives, and
  /// members silent for retry.grace_rounds rounds are evicted instead of
  /// stalling the transfer.  Wall-clock deadlines (retry.session_deadline)
  /// bound the whole session; every exit fills UdpNpSenderStats::report.
  /// Off by default — the legacy silence-is-consent path is unchanged.
  bool reliable_control = false;
  protocol::RetryConfig retry{};
  std::uint64_t seed = 1;        ///< seeds the reliable-mode backoff jitter

  /// The ONE time source every deadline in the session reads: retry
  /// deadlines, poll collect windows, NAK retransmit timers, and the
  /// receiver's idle/drain clocks.  nullptr = protocol::steady_clock().
  /// Injecting a single clock means the drain timeout and the retry
  /// deadlines can never skew against each other, and the drivers can be
  /// tested on a ManualClock.
  const protocol::Clock* clock = nullptr;

  /// Receiver-side phase-aware timers (always active): once a receiver
  /// holds every TG it waits only `drain_timeout` seconds of silence for
  /// the (possibly lost) end-of-session marker instead of the full
  /// mid-session idle timeout, and reports which of the two ended the
  /// run (see UdpNpReceiverResult::end_reason).
  double drain_timeout = 1.0;

  /// Fault injection for liveness tests: the receiver falls silent (as
  /// if crashed) after completing this many TGs.  SIZE_MAX disables.
  std::size_t crash_after_tgs = static_cast<std::size_t>(-1);

  // ---- crash-tolerant sessions (docs/ROBUSTNESS.md) --------------------

  /// Sender incarnation, stamped into every outgoing packet's header.
  /// Receivers remember the highest incarnation heard and drop anything
  /// older — a dead life's stragglers (including its end-of-session
  /// marker) cannot answer for the live one.
  std::uint32_t incarnation = 0;
  /// Resume: TGs confirmed complete in a prior life are skipped outright
  /// (empty = fresh session; otherwise one flag per TG).
  std::vector<bool> resume_completed;
  /// Resume: per-TG parities-sent high-water, so a resumed TG serves
  /// fresh parity indices instead of re-multicasting repair packets the
  /// receivers already hold.
  std::vector<std::uint16_t> resume_parities;
  /// Deterministic crash injection: the sender process "dies" after this
  /// many datagram sends (data, parity or poll) — no end-of-session
  /// marker, no further feedback processing.  SIZE_MAX disables.
  std::size_t crash_after_sends = static_cast<std::size_t>(-1);
  /// Write-ahead hooks, invoked the moment durable progress changes
  /// (same shapes as NpConfig's — plug core::SessionJournal straight in).
  std::function<void(std::size_t tg)> on_tg_completed;
  std::function<void(std::size_t tg, std::size_t parities_used)>
      on_parities_sent;

  // ---- overload hardening (docs/ROBUSTNESS.md, "Overload") -------------

  /// Pacing, load shedding, NAK suppression and quarantine knobs; every
  /// field defaults to OFF (net/overload.hpp).
  OverloadConfig overload{};
  /// Sender packet-arena capacity in frames; 0 = max(k, h) (enough for
  /// the largest burst).  Smaller values force arena exhaustion: the
  /// driver then fills bursts in multiple arena generations, deferring
  /// on its retry timer between them — same bytes, bounded memory.
  std::size_t arena_frames = 0;

  // ---- hostile-peer hardening (docs/ROBUSTNESS.md, "Hostile peers") ----

  /// Feedback admission, keyed frame authentication and per-peer
  /// policing; every field defaults to OFF (net/peer_guard.hpp).  The
  /// feedback_addr_mismatch cross-check runs with the guard off too.
  PeerGuardConfig guard{};
};

/// Sender statistics: the round machine's counters (polls, NAKs, ACKs,
/// re-POLLs, evictions, TG outcomes, quarantine) plus the transport's.
struct UdpNpSenderStats : protocol::NpSenderCounters {
  std::uint64_t data_sent = 0;
  std::uint64_t parity_sent = 0;
  double tx_per_packet = 0.0;
  /// Structured degradation outcome; filled on every exit path.
  protocol::PartialDeliveryReport report{};

  bool crashed = false;  ///< crash_after_sends fired

  // Overload accounting (all zero unless the matching knob is on; see
  // net/overload.hpp).
  std::uint64_t would_block = 0;       ///< kWouldBlock batch results seen
  std::uint64_t arena_deferrals = 0;   ///< burst pauses on arena exhaustion
  std::uint64_t shed_frames = 0;       ///< staged frames dropped by shedding

  // Hostile-peer accounting (net/peer_guard.hpp).
  /// Feedback whose advertised member identity contradicted the
  /// kernel-reported source port.  Counted with the guard OFF too — the
  /// cross-check is always on wherever the source port is available.
  std::uint64_t feedback_addr_mismatch = 0;
  /// Guard decision counters (all zero unless guard.enabled).
  PeerGuardStats guard{};
};

/// What ended a receiver's run — the old single idle_timeout conflated
/// "sender finished" with "sender stalled"; these are now distinct.
enum class UdpNpEndReason {
  kEndOfSession,      ///< the end-of-session marker arrived (clean)
  kDrainTimeout,      ///< all TGs held; the (lost) marker never came
  kMidSessionSilence, ///< sender went silent with TGs still missing
  kCrashed,           ///< fault injection: crash_after_tgs reached
};

/// Receiver outcome: the round machine's counters plus the transport's.
struct UdpNpReceiverResult : protocol::NpReceiverCounters {
  bool complete = false;           ///< every TG reconstructed
  ImpairmentStats impairment{};    ///< wire fault counters (zero when clean)
  UdpNpEndReason end_reason = UdpNpEndReason::kMidSessionSilence;

  // Hostile-peer accounting (guard knobs on).
  /// Datagrams dropped because they did not come from the sender's port.
  std::uint64_t foreign_rejected = 0;
  /// Control frames whose keyed trailer failed verification (guard.auth).
  std::uint64_t auth_rejected = 0;

  bool operator==(const UdpNpReceiverResult&) const = default;
};

/// The end-of-session marker the sender multicasts when done.
inline constexpr std::uint32_t kUdpEndOfSession = protocol::kEndOfSession;

}  // namespace pbl::net
