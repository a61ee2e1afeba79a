// Public facade of the library.
//
// One configuration struct selects the recovery scheme (no FEC, layered
// FEC, integrated FEC 1/2), the loss environment (independent, bursty,
// two-class heterogeneous, or shared loss over a multicast tree) and the
// population size; simulate() runs the Monte-Carlo protocol model and
// predict() returns the paper's closed form where one exists.  For a
// packet-level, byte-accurate protocol run, use protocol::NpSession
// (protocol/np_protocol.hpp) directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "protocol/rounds.hpp"

namespace pbl::core {

enum class RecoveryMode {
  kNoFec,          ///< plain ARQ retransmission of originals
  kLayeredFec,     ///< FEC layer below ARQ (Section 3.1)
  kIntegratedFec1, ///< parity stream, receivers leave when done (Section 4.2)
  kIntegratedFec2, ///< NAK-driven parity rounds / protocol NP (Sections 3.2, 5)
};

/// Which Monte-Carlo engine simulate() runs.
enum class SimEngine {
  /// The per-receiver path on one shard (protocol/rounds.hpp): one loss
  /// process per receiver, or the multicast tree for kTree.  Supports
  /// every loss kind and interleaving, but costs O(R) loss draws per
  /// transmission — practical to R ~ 10^3..10^4.
  kExact,
  /// Many shards with batched loss sampling (protocol/batch_rounds.hpp):
  /// O(R/64) per transmission, scales to R ~ 10^6.  Bit-identical to
  /// kExact for time-dependent models (kBurst), distribution-identical
  /// for the i.i.d. kinds; kTree and interleave_depth > 1 are not
  /// supported.  See docs/SCALING.md.
  kBatched,
};

enum class LossKind {
  kBernoulli, ///< i.i.d. loss with probability p at every receiver
  kBurst,     ///< two-state Markov (Gilbert) loss, mean burst length b
  kTwoClass,  ///< fraction alpha of receivers at p_high, rest at p
  kTree,      ///< full binary tree with per-node loss (shared loss)
};

struct MulticastConfig {
  std::int64_t k = 7;           ///< transmission-group size
  std::int64_t h = 0;           ///< parities: per block (layered) / proactive (integrated)
  std::size_t receivers = 1000; ///< R (for kTree, rounded down to 2^height)
  RecoveryMode mode = RecoveryMode::kIntegratedFec2;

  LossKind loss = LossKind::kBernoulli;
  double p = 0.01;              ///< packet loss probability per receiver
  double burst_len = 2.0;       ///< mean loss-burst length (kBurst)
  double alpha = 0.0;           ///< high-loss fraction (kTwoClass)
  double p_high = 0.25;         ///< high-loss probability (kTwoClass), in [0,1)

  protocol::Timing timing{};    ///< packet spacing and feedback gap
  std::int64_t num_tgs = 200;   ///< Monte-Carlo samples
  std::uint64_t seed = 1;

  /// Probability that a feedback exchange (NAK/POLL) is lost; each loss
  /// costs an extra timeout gap and round (protocol::McConfig::q_f).
  /// 0 keeps the paper's lossless-feedback assumption and its results
  /// byte-identical.  Closed forms (predict) always assume q_f = 0.
  double q_f = 0.0;

  /// kLayeredFec only: transmit this many FEC blocks interleaved
  /// (Section 4.2's burst countermeasure); 1 = no interleaving.
  std::size_t interleave_depth = 1;
  /// kIntegratedFec2 only: treat h as a hard per-block parity budget
  /// (packets overflowing it join a new TG) instead of h proactive
  /// parities with an unlimited reactive supply.
  bool finite_budget = false;

  /// Simulation engine; kBatched requires a non-tree loss kind and
  /// interleave_depth == 1 (validate() enforces both).
  SimEngine engine = SimEngine::kExact;
  /// kBatched only: receiver shards.  Results are reproducible for a
  /// fixed shard count; 0 picks one shard per started group of 2^16
  /// receivers.
  std::size_t shards = 0;
  /// kBatched only: worker threads for the shard fan-out (0 = hardware,
  /// 1 = inline).  Never affects results.
  unsigned engine_threads = 1;

  void validate() const;
};

struct MulticastReport {
  double mean_tx = 0.0;      ///< measured E[M], packet transmissions per packet
  double ci95 = 0.0;
  double mean_rounds = 0.0;
  double mean_time = 0.0;    ///< measured mean TG completion time [s]
  std::uint64_t packets_sent = 0;
  std::optional<double> predicted;          ///< closed-form E[M], when available
  std::optional<double> predicted_latency;  ///< closed-form latency, when available
};

/// Runs the Monte-Carlo simulation for the configured scheme/loss.
MulticastReport simulate(const MulticastConfig& config);

/// The paper's closed-form E[M] for this configuration, if the combination
/// has one (independent or two-class loss; burst and tree loss do not).
std::optional<double> predict(const MulticastConfig& config);

/// Expected TG delivery latency (analysis/latency.hpp) for independent
/// loss; nullopt for the other loss kinds.
std::optional<double> predict_latency(const MulticastConfig& config);

std::string to_string(RecoveryMode mode);
std::string to_string(LossKind kind);

}  // namespace pbl::core
