// Layered FEC on the discrete-event simulator (paper Section 3.1,
// Fig. 2a): a transparent FEC layer UNDER a reliable-multicast ARQ layer.
//
// The sender's FEC layer groups every k outgoing RM packets into a block
// and appends h parities; the receiver's FEC layer reconstructs the block
// whenever any k of its k+h packets arrive and hands the originals up.
// Loss visible to the RM layer is therefore q(k, n, p) of Eq. (2).  The
// RM layer recovers ARQ-style: after each block the sender polls, and
// receivers NAK a bitmap of the block slots whose CONTENT they still
// miss (slotting/damping with the superset suppression rule).  The sender
// unions the round's bitmaps and re-enqueues those original packets —
// they ride in a FUTURE block together with fresh data, exactly the
// "retransmits the lost originals as part of a new group" behaviour the
// paper describes and the n/k cost accounting of Eq. (3) assumes.
//
// Each original packet is framed as [seq | payload] inside the FEC layer,
// so block decoding recovers the sequence number along with the bytes —
// the detail that makes "any k of n" reconstruction deliverable upward.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "loss/loss_model.hpp"
#include "net/impairment.hpp"
#include "protocol/retry.hpp"

namespace pbl::protocol {

struct LayeredConfig {
  std::size_t k = 7;            ///< originals per FEC block
  std::size_t h = 1;            ///< parities per FEC block
  std::size_t packet_len = 256; ///< application payload bytes per packet
  double delta = 0.001;         ///< packet spacing [s]
  double slot = 0.005;          ///< NAK suppression slot size [s]
  double delay = 0.010;         ///< one-way propagation delay [s]
  /// Adversarial impairment of the DATA down-path; the control knobs
  /// (impairment.control_*) additionally impair the POLL/NAK paths.
  net::ImpairmentConfig impairment{};

  /// Control-plane reliability layer (docs/ROBUSTNESS.md).  When set, a
  /// block's poll round is no longer closed on silence: every receiver
  /// answers every POLL (a NAK bitmap, or an empty-bitmap ACK unicast to
  /// the sender when nothing is missing), unanswered rounds are re-POLLed
  /// under `retry`'s seeded backoff, receivers that saw a block's shards
  /// but never its POLL reconstruct the feedback round from a watchdog
  /// NAK, lost NAKs are retransmitted under backoff, late NAKs on closed
  /// blocks re-enqueue the named originals instead of being dropped, and
  /// receivers silent for retry.grace_rounds are evicted.  Every exit is
  /// total and fills LayeredStats::report.  Off by default — the
  /// lossless-feedback fast path stays byte-identical.
  bool reliable_control = false;
  RetryConfig retry{};
};

struct LayeredStats {
  std::uint64_t blocks_sent = 0;
  std::uint64_t data_sent = 0;         ///< original-packet transmissions (incl. re-sends)
  std::uint64_t parity_sent = 0;
  std::uint64_t padding_sent = 0;      ///< dummy fill of the final partial blocks
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_suppressed = 0;
  std::uint64_t duplicate_deliveries = 0;  ///< RM-level duplicates, all receivers
  std::uint64_t packets_decoded = 0;       ///< FEC-layer reconstructions
  double completion_time = 0.0;
  bool all_delivered = false;
  /// Physical transmissions (data+parity+padding) per application packet:
  /// the Eq. (3) E[M] quantity.
  double tx_per_packet = 0.0;
  /// RM-layer transmissions per application packet (E[M'] of the paper).
  double rm_tx_per_packet = 0.0;
  net::ImpairmentStats impairment{};  ///< channel fault counters (zero when clean)

  // Reliable-control accounting (all zero unless reliable_control).
  std::uint64_t acks_sent = 0;        ///< empty-bitmap poll answers
  std::uint64_t acks_received = 0;
  std::uint64_t poll_retries = 0;     ///< block re-POLLs after silent rounds
  std::uint64_t nak_retries = 0;      ///< receiver NAK retransmissions
  std::uint64_t late_naks = 0;        ///< NAKs honoured on closed blocks
  std::uint64_t evictions = 0;        ///< receivers evicted for silence
  std::uint64_t blocks_unconfirmed = 0;  ///< closed with the budget spent
  /// Structured degradation outcome; filled on every exit path.
  PartialDeliveryReport report{};
};

/// One sender, `receivers` receivers, `num_packets` application packets
/// of random data.
class LayeredSession {
 public:
  LayeredSession(const loss::LossModel& loss, std::size_t receivers,
                 std::size_t num_packets, const LayeredConfig& config,
                 std::uint64_t seed = 1);
  ~LayeredSession();

  LayeredSession(const LayeredSession&) = delete;
  LayeredSession& operator=(const LayeredSession&) = delete;

  LayeredStats run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbl::protocol
