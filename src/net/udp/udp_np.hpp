// Protocol NP over real (loopback) UDP sockets: the session
// configuration, statistics and end-of-session marker shared by the
// reactor drivers (server/session_driver.hpp), which run the protocol,
// and the multicast server that hosts them (server/server.hpp).
// UdpNpConfig is NP's parameters (protocol::NpParams, documented there)
// plus what sockets need: clocks, faults, overload and guard knobs.  The
// drivers hand it to the NP cores as it is.
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
#include <vector>

#include "net/impairment.hpp"
#include "net/overload.hpp"
#include "net/peer_guard.hpp"
#include "net/udp/udp_transport.hpp"
#include "protocol/np_core.hpp"
#include "protocol/retry.hpp"

namespace pbl::net {

using TgBytes = std::vector<std::vector<std::uint8_t>>;  ///< k packets

/// The drivers' configuration: NP's parameters (k = 8, h = 64 and
/// 512-byte packets by default) plus the socket engine's.  With
/// reliable_control, feedback carries the receiver's own port in
/// header.index, so the sender tracks per-member liveness.
struct UdpNpConfig : protocol::NpParams {
  /// Seconds the sender collects NAKs per round.  With reliable_control
  /// it is the floor of the collect timeout instead: a round closes once
  /// every gating member answered, or after max(poll_window, SRTT +
  /// 4·RTTVAR) of measured POLL→answer latency, capped at
  /// protocol::collect_ceiling(poll_window) (docs/ROBUSTNESS.md).  A
  /// receiver that holds every TG waits protocol::drain_wait of silence
  /// for the (possibly lost) end-of-session marker instead of its
  /// mid-session idle timeout, and reports which of the two ended the
  /// run (UdpNpReceiverResult::end_reason).
  double poll_window = 0.08;

  std::uint64_t seed = 1;        ///< seeds the reliable-mode backoff jitter

  /// The ONE time source every deadline in the session reads: retry
  /// deadlines, poll collect windows, NAK retransmit timers, and the
  /// receiver's idle/drain clocks.  nullptr = protocol::steady_clock().
  /// Injecting a single clock means the drain wait and the retry
  /// deadlines can never skew against each other, and the drivers can be
  /// tested on a ManualClock.
  const protocol::Clock* clock = nullptr;

  /// Fault injection for liveness tests: the receiver falls silent (as
  /// if crashed) after completing this many TGs.  SIZE_MAX disables.
  std::size_t crash_after_tgs = static_cast<std::size_t>(-1);

  /// Deterministic crash injection: the sender process "dies" after this
  /// many datagram sends (data, parity or poll) — no end-of-session
  /// marker, no further feedback processing.  SIZE_MAX disables.
  std::size_t crash_after_sends = static_cast<std::size_t>(-1);

  // ---- overload hardening (docs/ROBUSTNESS.md, "Overload") -------------

  /// Pacing, NAK suppression and quarantine knobs; every field defaults
  /// to OFF (net/overload.hpp).
  OverloadConfig overload{};
  /// Sender packet-arena capacity in frames; 0 = max(k, h) (enough for
  /// the largest burst).  Smaller values force arena exhaustion: the
  /// driver then flushes and refills bursts in multiple arena
  /// generations — same bytes, bounded memory.
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
