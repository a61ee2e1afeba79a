#include "core/reliable_multicast.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "analysis/heterogeneous.hpp"
#include "analysis/integrated.hpp"
#include "analysis/latency.hpp"
#include "analysis/layered.hpp"
#include "protocol/batch_rounds.hpp"

namespace pbl::core {

void MulticastConfig::validate() const {
  if (k < 1) throw std::invalid_argument("MulticastConfig: k >= 1");
  if (h < 0) throw std::invalid_argument("MulticastConfig: h >= 0");
  if (receivers == 0) throw std::invalid_argument("MulticastConfig: receivers >= 1");
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("MulticastConfig: p in [0,1)");
  if (loss == LossKind::kTwoClass && (p_high < 0.0 || p_high >= 1.0))
    throw std::invalid_argument("MulticastConfig: p_high in [0,1)");
  if (q_f < 0.0 || q_f >= 1.0)
    throw std::invalid_argument("MulticastConfig: q_f in [0,1)");
  if (num_tgs < 1) throw std::invalid_argument("MulticastConfig: num_tgs >= 1");
  if (interleave_depth == 0)
    throw std::invalid_argument("MulticastConfig: interleave_depth >= 1");
  if (finite_budget && mode != RecoveryMode::kIntegratedFec2)
    throw std::invalid_argument(
        "MulticastConfig: finite_budget applies to kIntegratedFec2 only");
  if (interleave_depth > 1 && mode != RecoveryMode::kLayeredFec)
    throw std::invalid_argument(
        "MulticastConfig: interleave_depth applies to kLayeredFec only");
  if (engine == SimEngine::kBatched && loss == LossKind::kTree)
    throw std::invalid_argument(
        "MulticastConfig: kBatched does not support kTree loss");
  if (engine == SimEngine::kBatched && interleave_depth > 1)
    throw std::invalid_argument(
        "MulticastConfig: kBatched does not support interleaving");
  timing.validate();
}

namespace {

/// Largest height with 2^height <= receivers (>= 0).
unsigned tree_height_for(std::size_t receivers) {
  unsigned height = 0;
  while ((std::size_t{2} << height) <= receivers) ++height;
  return height;
}

struct Environment {
  std::unique_ptr<loss::LossModel> model;            // null for kTree
  std::unique_ptr<tree::MulticastTree> tree;         // null otherwise
  std::unique_ptr<protocol::BatchTransmitter> tx;
};

/// The per-receiver loss model for the non-tree loss kinds (null for
/// kTree, which models loss on the tree itself).
std::unique_ptr<loss::LossModel> make_loss_model(const MulticastConfig& cfg) {
  switch (cfg.loss) {
    case LossKind::kBernoulli:
      return std::make_unique<loss::BernoulliLossModel>(cfg.p);
    case LossKind::kBurst:
      return std::make_unique<loss::GilbertLossModel>(
          loss::GilbertLossModel::from_packet_stats(cfg.p, cfg.burst_len,
                                                    cfg.timing.delta));
    case LossKind::kTwoClass:
      return std::make_unique<loss::HeterogeneousLossModel>(
          cfg.receivers, cfg.alpha, cfg.p, cfg.p_high);
    case LossKind::kTree:
      return nullptr;
  }
  return nullptr;
}

Environment make_environment(const MulticastConfig& cfg) {
  Environment env;
  Rng rng(cfg.seed);
  env.model = make_loss_model(cfg);
  switch (cfg.loss) {
    case LossKind::kBernoulli:
    case LossKind::kBurst:
    case LossKind::kTwoClass:
      break;
    case LossKind::kTree: {
      const unsigned height = tree_height_for(cfg.receivers);
      env.tree = std::make_unique<tree::MulticastTree>(
          tree::MulticastTree::full_binary(height));
      env.tx = std::make_unique<protocol::TreeBatchTransmitter>(
          *env.tree, env.tree->node_loss_for_leaf_loss(cfg.p), rng);
      return env;
    }
  }
  env.tx = std::make_unique<protocol::ProcessBatchTransmitter>(
      *env.model, cfg.receivers, rng);
  return env;
}

/// The batched engine's scheme for a recovery mode.
protocol::BatchScheme batch_scheme_for(const MulticastConfig& cfg) {
  switch (cfg.mode) {
    case RecoveryMode::kNoFec:
      return protocol::BatchScheme::kNoFec;
    case RecoveryMode::kLayeredFec:
      return protocol::BatchScheme::kLayered;
    case RecoveryMode::kIntegratedFec1:
      return protocol::BatchScheme::kIntegratedStream;
    case RecoveryMode::kIntegratedFec2:
      return cfg.finite_budget ? protocol::BatchScheme::kIntegratedFinite
                               : protocol::BatchScheme::kIntegratedNaks;
  }
  throw std::invalid_argument("batch_scheme_for: unknown mode");
}

/// shards = 0: one shard per started group of 2^16 receivers, so small
/// runs stay single-shard and R = 10^6 fans out over ~16 shards.
std::size_t default_shards(std::size_t receivers) {
  return (receivers + ((std::size_t{1} << 16) - 1)) >> 16;
}

}  // namespace

MulticastReport simulate(const MulticastConfig& cfg) {
  cfg.validate();

  protocol::McConfig mc;
  mc.k = cfg.k;
  mc.h = cfg.h;
  mc.num_tgs = cfg.num_tgs;
  mc.timing = cfg.timing;
  mc.q_f = cfg.q_f;
  mc.seed = cfg.seed;

  protocol::McResult res;
  if (cfg.engine == SimEngine::kBatched) {
    // Model only — no O(R) transmitter construction on this path.
    const std::unique_ptr<loss::LossModel> model = make_loss_model(cfg);
    protocol::BatchOptions opts;
    opts.shards = cfg.shards == 0 ? default_shards(cfg.receivers) : cfg.shards;
    opts.threads = cfg.engine_threads;
    res = protocol::sim_batched(batch_scheme_for(cfg), *model, cfg.receivers,
                                mc, Rng(cfg.seed), opts);
  } else {
    Environment env = make_environment(cfg);
    switch (cfg.mode) {
      case RecoveryMode::kNoFec:
        res = protocol::sim_nofec(*env.tx, mc);
        break;
      case RecoveryMode::kLayeredFec:
        res = cfg.interleave_depth > 1
                  ? protocol::sim_layered_interleaved(*env.tx, mc,
                                                      cfg.interleave_depth)
                  : protocol::sim_layered(*env.tx, mc);
        break;
      case RecoveryMode::kIntegratedFec1:
        res = protocol::sim_integrated_stream(*env.tx, mc);
        break;
      case RecoveryMode::kIntegratedFec2:
        res = cfg.finite_budget ? protocol::sim_integrated_finite(*env.tx, mc)
                                : protocol::sim_integrated_naks(*env.tx, mc);
        break;
    }
  }

  MulticastReport report;
  report.mean_tx = res.mean_tx;
  report.ci95 = res.ci95;
  report.mean_rounds = res.mean_rounds;
  report.mean_time = res.mean_time;
  report.packets_sent = res.packets_sent;
  report.predicted = predict(cfg);
  report.predicted_latency = predict_latency(cfg);
  return report;
}

std::optional<double> predict(const MulticastConfig& cfg) {
  cfg.validate();
  const double r = static_cast<double>(cfg.receivers);
  switch (cfg.loss) {
    case LossKind::kBernoulli:
      switch (cfg.mode) {
        case RecoveryMode::kNoFec:
          return analysis::expected_tx_nofec(cfg.p, r);
        case RecoveryMode::kLayeredFec:
          return analysis::expected_tx_layered(cfg.k, cfg.k + cfg.h, cfg.p, r);
        case RecoveryMode::kIntegratedFec1:
          return analysis::expected_tx_integrated_ideal(cfg.k, cfg.h, cfg.p, r);
        case RecoveryMode::kIntegratedFec2:
          return cfg.finite_budget
                     ? analysis::expected_tx_integrated(cfg.k, cfg.h, 0,
                                                        cfg.p, r)
                     : analysis::expected_tx_integrated_ideal(cfg.k, cfg.h,
                                                              cfg.p, r);
      }
      break;
    case LossKind::kTwoClass: {
      const auto pop = analysis::two_class_population(r, cfg.alpha, cfg.p,
                                                      cfg.p_high);
      switch (cfg.mode) {
        case RecoveryMode::kNoFec:
          return analysis::expected_tx_nofec_hetero(pop);
        case RecoveryMode::kLayeredFec:
          return analysis::expected_tx_layered_hetero(cfg.k, cfg.k + cfg.h, pop);
        case RecoveryMode::kIntegratedFec1:
        case RecoveryMode::kIntegratedFec2:
          return analysis::expected_tx_integrated_hetero(cfg.k, cfg.h, pop);
      }
      break;
    }
    case LossKind::kBurst:
    case LossKind::kTree:
      return std::nullopt;  // the paper, too, resorts to simulation here
  }
  return std::nullopt;
}

std::optional<double> predict_latency(const MulticastConfig& cfg) {
  cfg.validate();
  if (cfg.loss != LossKind::kBernoulli) return std::nullopt;
  const double r = static_cast<double>(cfg.receivers);
  switch (cfg.mode) {
    case RecoveryMode::kNoFec:
      return analysis::expected_latency_nofec(cfg.k, cfg.p, r, cfg.timing);
    case RecoveryMode::kLayeredFec:
      return analysis::expected_latency_layered(cfg.k, cfg.h, cfg.p, r,
                                                cfg.timing);
    case RecoveryMode::kIntegratedFec1:
      return analysis::expected_latency_stream(cfg.k, cfg.p, r, cfg.timing);
    case RecoveryMode::kIntegratedFec2:
      return analysis::expected_latency_integrated(cfg.k, cfg.p, r,
                                                   cfg.timing);
  }
  return std::nullopt;
}

std::string to_string(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kNoFec: return "no-FEC";
    case RecoveryMode::kLayeredFec: return "layered FEC";
    case RecoveryMode::kIntegratedFec1: return "integrated FEC 1";
    case RecoveryMode::kIntegratedFec2: return "integrated FEC 2";
  }
  return "unknown";
}

std::string to_string(LossKind kind) {
  switch (kind) {
    case LossKind::kBernoulli: return "independent";
    case LossKind::kBurst: return "burst";
    case LossKind::kTwoClass: return "two-class";
    case LossKind::kTree: return "shared (tree)";
  }
  return "unknown";
}

}  // namespace pbl::core
