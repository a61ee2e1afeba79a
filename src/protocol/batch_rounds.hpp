// Batched, sharded round-based simulation: the million-receiver engine.
//
// sim_batched runs the round loops of rounds.hpp over many receiver
// shards at once, each shard with its own BatchTransmitter, fanned out
// over the process ThreadPool.  Two transmitters serve a shard:
//   * the per-receiver path (ProcessBatchTransmitter; Gilbert or any
//     model without a batch fast path, or allow_fast_path = false):
//     byte-identical to the one-shard sim_* entries for the same model,
//     seed and McConfig, at any shard count — receiver r always queries
//     its own RNG substream at the same packet times;
//   * the IID fast path (IidBatchTransmitter; Bernoulli / two-class /
//     multi-class): batched loss sampling (loss::BinomialDist), one exact
//     binomial loss count per constant-p segment per transmission,
//     placed as a uniform random subset of the segment's lanes.  One
//     transmission costs O(R/64) word operations plus O(1 + R p) PRNG
//     draws instead of O(R) loss-process queries, and per-round NAK
//     counts and per-TG statistics are distribution-identical to the
//     per-receiver path (the i.i.d. measure).  Protocol NP goes one step
//     further: receivers of an IID segment are exchangeable and NP keeps
//     only a scalar deficit per receiver, so the engine tracks
//     deficit-class COUNTS and advances each round with O(k * slots)
//     exact binomial splits — cost independent of R entirely.
// Full-protocol points at R = 10^5..10^6 — the paper's headline scaling
// axis — become simulable (bench/ext_scale_r).  tests/test_round_pins
// pins the per-receiver path; tests/test_shard_equivalence checks the
// fast path's distribution and the determinism contract.
//
// Determinism: results depend on (model, receivers, cfg, rng, shards)
// but never on `threads` — every shard owns an Rng substream derived
// from (rng, shard index), shard work is fanned out over the process
// ThreadPool, and merges fold in shard-index order.
#pragma once

#include <memory>

#include "loss/batch_sampler.hpp"
#include "loss/loss_model.hpp"
#include "protocol/rounds.hpp"
#include "sim/receiver_shard.hpp"

namespace pbl::protocol {

/// IID fast path: loss is spatially and temporally independent with a
/// per-receiver probability that is piecewise-constant over index ranges
/// (Bernoulli: one segment; two-class/multi-class: one per class).
///
/// Per transmission each segment draws its loss COUNT exactly once
/// (L ~ Binomial(lanes, p), exact — loss::BinomialDist) and scatters L
/// distinct lost lanes uniformly, which is precisely the i.i.d.
/// Bernoulli measure by the conditional-uniformity decomposition.  Cost
/// per segment: 1 + ~L PRNG draws, independent of the active pattern.
class IidBatchTransmitter final : public BatchTransmitter {
 public:
  struct Segment {
    std::size_t count = 0;  ///< receivers in this segment (shard-local)
    double p = 0.0;         ///< their loss probability
  };
  IidBatchTransmitter(const std::vector<Segment>& segments, Rng rng);

  std::size_t receivers() const override { return receivers_; }
  void transmit(double t, const sim::BitVec& active,
                sim::BitVec& received) override;

 private:
  struct Span {
    std::size_t begin_word, end_word;  // words touched by this segment
    std::uint64_t first_mask, last_mask;
    std::size_t begin_lane, lanes;     // lane interval of this segment
    loss::BinomialDist count;          // Binomial(lanes, p)
  };
  void place_lanes(const Span& sp, std::size_t target);

  std::vector<Span> spans_;
  std::vector<std::uint64_t> scratch_;  // loss pattern under construction
  std::size_t receivers_ = 0;
  Rng rng_;
};

/// Builds the shard transmitter for receivers [first, first + count):
/// the segmented IID fast path when the model allows it (and
/// allow_fast_path), the per-receiver fallback otherwise.  `base` is the
/// whole-population RNG (fallback splits it per global receiver index;
/// the fast path splits it per shard at index receivers_total + shard).
std::unique_ptr<BatchTransmitter> make_batch_transmitter(
    const loss::LossModel& model, std::size_t first_receiver,
    std::size_t count, Rng base, Rng fast_rng, bool allow_fast_path);

/// Which round loop sim_batched runs.
enum class BatchScheme {
  kNoFec,             ///< sim_nofec
  kLayered,           ///< sim_layered
  kIntegratedNaks,    ///< sim_integrated_naks (protocol NP, n = infinity)
  kIntegratedFinite,  ///< sim_integrated_finite
  kIntegratedStream,  ///< sim_integrated_stream (integrated FEC 1)
};

struct BatchOptions {
  /// Receiver shards: fixed shard count => reproducible results.  Values
  /// above the receiver count are clamped.
  std::size_t shards = 1;
  /// Worker threads for the per-round shard fan-out (0 = hardware,
  /// 1 = inline).  Never affects results, only wall-clock.
  unsigned threads = 1;
  /// false forces the per-receiver path even for IID models — the
  /// bit-identical cross-check against the one-shard sim_* entries.
  bool allow_fast_path = true;
};

/// Runs the batched, sharded Monte-Carlo simulation of `scheme` for
/// `receivers` receivers losing per `model`.  `rng` seeds the loss
/// randomness exactly as the Rng passed to ProcessBatchTransmitter does
/// for the sim_* entries; cfg.seed still seeds the feedback-loss stream.
McResult sim_batched(BatchScheme scheme, const loss::LossModel& model,
                     std::size_t receivers, const McConfig& cfg, Rng rng,
                     const BatchOptions& opts = {});

}  // namespace pbl::protocol
