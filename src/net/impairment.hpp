// Deterministic adversarial network impairment for the simulated channel
// and the UDP transport.
//
// Real multicast paths do more than erase packets: they reorder,
// duplicate, corrupt and truncate them, and losses arrive in bursts.  An
// Impairment is a seeded policy that applies those faults to a packet
// stream reproducibly — the same config and seed yields the same fault
// schedule bit for bit, so protocol behaviour under adversarial
// conditions is a regression-testable property rather than a flaky one.
//
// Two integration points share one policy object:
//  - Packet level (net::MulticastChannel): apply() maps one transmitted
//    packet to zero or more deliveries, each with an extra delay.
//    Corruption and truncation are applied to the REAL wire encoding
//    (fec::serialize) and a copy whose bytes no longer parse is dropped,
//    honouring the fec::deserialize contract that corruption must become
//    loss before it reaches the erasure code.
//  - Byte level (net::UdpSocket): apply_bytes() maps one received
//    datagram to zero or more datagrams (possibly mutated, possibly held
//    back past later ones), which the socket then parses as usual.
//
// Burst drops reuse the existing Gilbert two-state chain
// (loss::GilbertLossModel), calibrated from packet statistics exactly as
// in Section 4.2 of the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "fec/packet.hpp"
#include "loss/loss_model.hpp"
#include "util/rng.hpp"

namespace pbl::net {

struct ImpairmentConfig {
  std::uint64_t seed = 1;

  double drop_prob = 0.0;      ///< i.i.d. silent drop probability
  double dup_prob = 0.0;       ///< probability a packet is delivered twice
  double corrupt_prob = 0.0;   ///< probability of flipping 1..4 wire bits
  double truncate_prob = 0.0;  ///< probability the datagram is cut short
  double delay_jitter = 0.0;   ///< extra delay uniform in [0, delay_jitter) s

  /// Reordering: with probability reorder_prob a packet is held back.  On
  /// the packet path it slips by reorder_step * u seconds, u uniform in
  /// [1, reorder_window]; on the byte path it is released only after up
  /// to reorder_window subsequent datagrams have been delivered.
  double reorder_prob = 0.0;
  std::size_t reorder_window = 0;  ///< max packets a held-back packet slips
  double reorder_step = 0.001;     ///< seconds per slipped slot (packet path)

  /// Burst drops via the Gilbert chain: stationary loss probability
  /// burst_drop_p (0 disables), mean burst length burst_len packets at
  /// burst_delta packet spacing (GilbertLossModel::from_packet_stats).
  double burst_drop_p = 0.0;
  double burst_len = 2.0;
  double burst_delta = 0.001;

  /// Control-path (NAK/POLL) faults: the feedback-loss policy q_f of
  /// docs/ROBUSTNESS.md.  Drawn from an RNG stream independent of the
  /// data-path faults above, derived from the same seed — enabling them
  /// leaves the DATA-path fault schedule byte-identical per seed.
  double control_drop = 0.0;   ///< i.i.d. control-packet drop probability
  double control_dup = 0.0;    ///< probability a control packet is doubled
  double control_delay = 0.0;  ///< extra control delay uniform in [0, x) s

  /// True if any DATA-path fault is active; a default-constructed config
  /// is a no-op.
  bool enabled() const noexcept {
    return drop_prob > 0.0 || dup_prob > 0.0 || corrupt_prob > 0.0 ||
           truncate_prob > 0.0 || delay_jitter > 0.0 ||
           (reorder_prob > 0.0 && reorder_window > 0) || burst_drop_p > 0.0;
  }

  /// True if any control-path fault is active.
  bool control_enabled() const noexcept {
    return control_drop > 0.0 || control_dup > 0.0 || control_delay > 0.0;
  }
};

struct ImpairmentStats {
  std::uint64_t processed = 0;        ///< packets offered to the policy
  std::uint64_t dropped = 0;          ///< i.i.d. drops
  std::uint64_t burst_dropped = 0;    ///< Gilbert-chain drops
  std::uint64_t duplicated = 0;       ///< extra copies created
  std::uint64_t corrupted = 0;        ///< copies with flipped bits
  std::uint64_t corrupt_dropped = 0;  ///< corrupted copies killed by parsing
  std::uint64_t truncated = 0;        ///< copies cut short
  std::uint64_t reordered = 0;        ///< copies held back
  std::uint64_t delivered = 0;        ///< copies that survived to delivery

  std::uint64_t control_processed = 0;   ///< control packets offered
  std::uint64_t control_dropped = 0;     ///< control packets lost
  std::uint64_t control_duplicated = 0;  ///< extra control copies created
  std::uint64_t control_delayed = 0;     ///< control copies given extra delay
  std::uint64_t control_delivered = 0;   ///< control copies delivered

  ImpairmentStats& operator+=(const ImpairmentStats& o) noexcept;
  bool operator==(const ImpairmentStats&) const = default;
};

class Impairment {
 public:
  explicit Impairment(const ImpairmentConfig& config);

  /// A surviving copy of a packet and the extra delay (on top of the
  /// channel's propagation delay) it accrued from jitter or reordering.
  struct Delivery {
    fec::Packet packet;
    double extra_delay = 0.0;
  };

  /// Packet path: returns the surviving copies of `packet` (empty on
  /// drop, two on duplication).  `now` drives the Gilbert burst chain.
  /// Corruption/truncation round-trip through fec::serialize /
  /// fec::deserialize, so a damaged copy is dropped exactly when the
  /// real wire path would drop it.
  std::vector<Delivery> apply(const fec::Packet& packet, double now);

  /// Control path (NAK/POLL): drop, duplication and delay only — control
  /// packets are never corrupted or reordered (corruption would just be
  /// loss, which control_drop already models).  Decisions come from an
  /// RNG stream independent of apply()/apply_bytes(), so enabling
  /// control faults never perturbs the data-path schedule of a seed.
  std::vector<Delivery> apply_control(const fec::Packet& packet);

  /// A datagram out of the byte path, with the source port it arrived
  /// from: a held-back datagram keeps its own source when a later
  /// datagram (possibly from another peer) releases it.
  struct ByteDelivery {
    std::vector<std::uint8_t> bytes;
    std::uint16_t src_port = 0;
    bool operator==(const ByteDelivery&) const = default;
  };

  /// Byte path: returns the datagrams to deliver, in order, given one
  /// datagram received from `src_port`.  Held-back (reordered) datagrams
  /// are returned by a LATER call, after up to reorder_window successors;
  /// drain() flushes them at end of stream.
  std::vector<ByteDelivery> apply_bytes(std::span<const std::uint8_t> bytes,
                                        std::uint16_t src_port = 0);

  /// Releases any datagrams still held back by the reorder queue.
  std::vector<ByteDelivery> drain();

  const ImpairmentConfig& config() const noexcept { return cfg_; }
  const ImpairmentStats& stats() const noexcept { return stats_; }

 private:
  bool pre_drop(double now);  // burst + i.i.d. drop decision
  /// Flips 1..4 random bits of `bytes` in place.
  void corrupt_bytes(std::vector<std::uint8_t>& bytes);
  /// Cuts `bytes` to a strictly shorter random length (possibly zero).
  void truncate_bytes(std::vector<std::uint8_t>& bytes);

  ImpairmentConfig cfg_;
  Rng rng_;          // data-path fault stream
  Rng control_rng_;  // control-path fault stream (independent of rng_)
  std::unique_ptr<loss::LossProcess> burst_;
  ImpairmentStats stats_;

  struct Held {
    ByteDelivery datagram;
    std::size_t release_after;  // deliveries remaining until release
  };
  /// Moves every held datagram whose slip expired to `out`, in order.
  void release_expired(std::vector<ByteDelivery>& out);
  std::deque<Held> held_;  // byte-path reorder queue
};

}  // namespace pbl::net
