// Round-based Monte-Carlo simulators for the four loss-recovery schemes,
// generic over how packets reach receivers (per-receiver loss processes,
// a lossy multicast tree, or the batched IID sampler of batch_rounds.hpp).
// These regenerate the paper's simulation figures: Fig. 11/12 (shared
// loss), Fig. 15/16 (burst loss), and cross-validate the closed forms of
// Section 3.
//
// There is one engine.  Receiver state lives in packed bit-planes over a
// shard of the population (sim::ReceiverShard); a BatchTransmitter
// delivers one packet to a whole shard at once.  The sim_* entries below
// run that engine on one shard over the caller's transmitter;
// sim_batched (batch_rounds.hpp) runs the same loops over many shards.
//
// The metric is the paper's E[M]: mean packet transmissions per data
// packet until every receiver can deliver it (network-bandwidth cost).
// For layered FEC each RM-layer (re)transmission is charged the n/k parity
// overhead of its FEC block, matching Eq. (3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "loss/loss_model.hpp"
#include "protocol/timing.hpp"
#include "sim/receiver_shard.hpp"
#include "tree/multicast_tree.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pbl::protocol {

/// How one packet transmission reaches the receivers of one shard.
/// `transmit` overwrites `received` with the subset of `active` that got
/// the packet (all words are assigned).  Implementations must tolerate
/// non-decreasing transmit times.
class BatchTransmitter {
 public:
  virtual ~BatchTransmitter() = default;
  virtual std::size_t receivers() const = 0;
  virtual void transmit(double t, const sim::BitVec& active,
                        sim::BitVec& received) = 0;
};

/// The per-receiver path: one loss::LossProcess per receiver (works with
/// Bernoulli, Gilbert and heterogeneous models).  Receiver r's process is
/// model.make_process(base.split(first + r), first + r) and is queried
/// only while r is active, in receiver order, so results do not depend on
/// how the population is split into shards.
class ProcessBatchTransmitter final : public BatchTransmitter {
 public:
  /// The whole population [0, receivers) as one shard.
  ProcessBatchTransmitter(const loss::LossModel& model, std::size_t receivers,
                          Rng rng)
      : ProcessBatchTransmitter(model, 0, receivers, rng) {}
  ProcessBatchTransmitter(const loss::LossModel& model,
                          std::size_t first_receiver, std::size_t receivers,
                          Rng base);
  std::size_t receivers() const override { return processes_.size(); }
  void transmit(double t, const sim::BitVec& active,
                sim::BitVec& received) override;

 private:
  std::vector<std::unique_ptr<loss::LossProcess>> processes_;
};

/// Transmission over a multicast tree with per-node loss (Section 4.1);
/// loss is spatially correlated between receivers sharing tree nodes.
/// Serves the whole tree as one shard through MulticastTree::
/// multicast_once, whose RNG draw order fixes the Fig. 11/12 output.
class TreeBatchTransmitter final : public BatchTransmitter {
 public:
  TreeBatchTransmitter(const tree::MulticastTree& tree, double p_node,
                       Rng rng);
  std::size_t receivers() const override { return tree_->num_leaves(); }
  void transmit(double t, const sim::BitVec& active,
                sim::BitVec& received) override;

 private:
  const tree::MulticastTree* tree_;
  double p_node_;
  Rng rng_;
  std::vector<char> active_, received_;  // unpacked leaf flags
};

struct McConfig {
  std::int64_t k = 7;        ///< transmission-group size
  std::int64_t h = 0;        ///< parities per FEC block (layered) / initial parities a (integrated)
  std::int64_t num_tgs = 200;///< transmission groups to sample
  Timing timing{};

  /// Probability that one feedback exchange (NAK/POLL round trip) is
  /// lost.  A lost exchange costs one extra timeout gap and one extra
  /// round before the retry succeeds (geometric), modelling the paper's
  /// lossless-feedback assumption being dropped (docs/ROBUSTNESS.md).
  /// q_f = 0 draws nothing, so lossless results stay byte-identical.
  double q_f = 0.0;
  std::uint64_t seed = 0x5eedf00dULL;  ///< feedback-loss stream seed

  /// Optional instrumentation: when non-null, every simulator appends its
  /// per-round feedback aggregate here — the pending-original count for
  /// sim_nofec / sim_layered (summed over the window's groups for
  /// sim_layered_interleaved), the NAK'd parity count l for the
  /// integrated schemes (the raw pre-budget value for
  /// sim_integrated_finite).  Equal logs mean equal round structure; the
  /// pin and equivalence tests compare them.  sim_integrated_stream has
  /// no feedback and logs nothing.
  std::vector<std::uint32_t>* nak_log = nullptr;
};

struct McResult {
  double mean_tx = 0.0;     ///< estimate of E[M]
  double ci95 = 0.0;        ///< 95% confidence half-width on mean_tx
  double mean_rounds = 0.0; ///< mean transmission rounds per TG
  double mean_time = 0.0;   ///< mean TG completion time [s] (Fig. 13 timing)
  std::uint64_t packets_sent = 0;
};

/// Plain ARQ: every packet is multicast-retransmitted until all receivers
/// hold it; retransmissions of a packet are spaced delta + T.
McResult sim_nofec(BatchTransmitter& tx, const McConfig& cfg);

/// Layered FEC (Section 3.1): blocks of k data + h parities; receivers
/// that get >= k of n recover everything; lost originals keep their block
/// slot and ride in a fresh block next round (cost-shared n/k per packet).
McResult sim_layered(BatchTransmitter& tx, const McConfig& cfg);

/// Layered FEC with block interleaving (Section 4.2: "under interleaving
/// the sender spreads the transmission of a FEC block over an interval
/// that is longer than the loss burst length").  `depth` FEC blocks are
/// transmitted simultaneously with their slots interleaved (fec::
/// Interleaver order), so adjacent losses hit different blocks; whole
/// windows of `depth` TGs are sampled (num_tgs rounded up), and depth = 1
/// is exactly sim_layered.  Useful only under temporally correlated loss
/// — it exists to quantify how much interleaving repairs layered FEC's
/// Fig. 15 burst-loss collapse.
McResult sim_layered_interleaved(BatchTransmitter& tx, const McConfig& cfg,
                                 std::size_t depth);

/// Integrated FEC 2 / idealised protocol NP (Sections 3.2, 4.2): k data
/// (+ cfg.h initial parities) are sent, then per round the sender
/// multicasts max-over-receivers missing-count parity packets, rounds
/// spaced delta + T, until every receiver has k distinct packets.  The
/// parity supply is unlimited (the paper's n = infinity lower bound).
McResult sim_integrated_naks(BatchTransmitter& tx, const McConfig& cfg);

/// Integrated FEC with a FINITE parity budget (cfg.h = h): parities are
/// served on demand as in sim_integrated_naks, but when the block's h
/// parities are used up, the originals still missing anywhere join a new
/// transmission group (with other data) and the process repeats — the
/// protocol the corrected Fig. 6 formula (analysis::expected_tx_integrated)
/// models.  Cost is attributed per carried original, like sim_layered.
McResult sim_integrated_finite(BatchTransmitter& tx, const McConfig& cfg);

/// Integrated FEC 1 (Section 4.2): data then a continuous parity stream,
/// everything spaced delta with no feedback gaps; a receiver leaves the
/// group once it holds k packets; the sender stops when all have left.
McResult sim_integrated_stream(BatchTransmitter& tx, const McConfig& cfg);

}  // namespace pbl::protocol
