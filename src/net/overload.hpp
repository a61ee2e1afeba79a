// Overload-robustness knobs for the server-side session drivers
// (docs/ROBUSTNESS.md, "Overload"): how fast a sender may put packets on
// the wire, how receivers damp NAK implosion at runtime, and when a
// persistently lagging member is quarantined onto parity-only catch-up
// instead of stalling the group (paper Section 3.3).  Kernel pushback
// needs no knob: the driver defers the burst on a retry timer, and the
// session deadline bounds a socket that never drains.
//
// Every knob defaults to OFF and the default-configured driver is
// wire-identical to the pre-overload one — the differential suites pin
// that down — so overload handling is strictly opt-in per session.
#pragma once

#include <cstddef>

namespace pbl::net {

struct OverloadConfig {
  /// Token-bucket pacing of logical packet sends (DATA/PARITY), in
  /// packets per second; 0 disables.  A paced sender degrades to this
  /// rate floor under pushback instead of spinning the reactor.
  double pace_rate = 0.0;
  /// Bucket depth in packets (burst tolerance above the rate floor).
  double pace_burst = 16.0;

  /// Receiver-side runtime NAK suppression (Section 5.1 slotting): a
  /// POLLed receiver needing l packets delays its NAK by a seeded slot
  /// draw instead of answering instantly; repair arriving first (another
  /// member asked for at least as much) suppresses the send entirely.
  bool nak_suppression = false;
  /// Slot size Ts [s] for the suppression draw; 0 = poll_window / (k+1)
  /// so the worst slot still lands inside the sender's collect window.
  double nak_slot = 0.0;
  /// Sender-side per-round feedback budget: NAKs beyond this many per
  /// round are counted as suppressed and do not widen the repair burst
  /// (the next round re-collects); 0 = unbounded.
  std::size_t feedback_budget = 0;

  /// Rounds a member may lag while at least half the live members ACKed
  /// before it is quarantined; 0 disables quarantine.
  std::size_t quarantine_deficit = 0;
  /// Parity-only catch-up rounds served to quarantined members per TG
  /// after the main transfer; members still missing data after the
  /// budget are evicted via the liveness machinery.
  std::size_t catch_up_rounds = 4;
};

}  // namespace pbl::net
