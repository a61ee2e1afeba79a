// Equivalence harness for the batched sharded engine.
//
// The per-receiver path (allow_fast_path = false) is pinned exactly, at
// 1 and 3 shards, by tests/test_round_pins.cpp.  This file checks the
// rest of the contract in batch_rounds.hpp:
//   1. Distribution identity for the IID fast path — per-replication
//      mean_tx samples pass a two-sample Kolmogorov-Smirnov test and the
//      pooled per-round NAK counts pass a two-sample chi-square test
//      against the per-receiver path on one shard, across p in
//      {0.01, 0.05, 0.25} and R in {1, 7, 64, 1000}.  Thresholds are
//      alpha = 1e-3 with fixed seeds (deterministic, verified to pass
//      with margin).
//   2. Determinism: at a fixed shard count, results are bit-identical
//      for every thread count, and the per-receiver path does not even
//      depend on the shard count.
#include "protocol/batch_rounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "loss/loss_model.hpp"
#include "sim/replicator.hpp"
#include "util/rng.hpp"

namespace pbl::protocol {
namespace {

struct LoggedResult {
  McResult res;
  std::vector<std::uint32_t> naks;
};

LoggedResult run_batched(BatchScheme scheme, const loss::LossModel& model,
                         std::size_t receivers, McConfig cfg, Rng rng,
                         const BatchOptions& opts) {
  LoggedResult out;
  cfg.nak_log = &out.naks;
  out.res = sim_batched(scheme, model, receivers, cfg, rng, opts);
  return out;
}

void expect_identical(const LoggedResult& a, const LoggedResult& b,
                      const char* what) {
  EXPECT_EQ(a.res.mean_tx, b.res.mean_tx) << what;
  EXPECT_EQ(a.res.ci95, b.res.ci95) << what;
  EXPECT_EQ(a.res.mean_rounds, b.res.mean_rounds) << what;
  EXPECT_EQ(a.res.mean_time, b.res.mean_time) << what;
  EXPECT_EQ(a.res.packets_sent, b.res.packets_sent) << what;
  EXPECT_EQ(a.naks, b.naks) << what;
}

const BatchScheme kAllSchemes[] = {
    BatchScheme::kNoFec, BatchScheme::kLayered, BatchScheme::kIntegratedNaks,
    BatchScheme::kIntegratedFinite, BatchScheme::kIntegratedStream};

const char* scheme_name(BatchScheme s) {
  switch (s) {
    case BatchScheme::kNoFec:
      return "nofec";
    case BatchScheme::kLayered:
      return "layered";
    case BatchScheme::kIntegratedNaks:
      return "naks";
    case BatchScheme::kIntegratedFinite:
      return "finite";
    case BatchScheme::kIntegratedStream:
      return "stream";
  }
  return "?";
}

TEST(ShardDeterminism, ThreadCountNeverChangesResults) {
  // Fixed shard count, varying thread count: bit-identical output.  This
  // is the batched engine's analogue of the replicator determinism
  // contract, and the suite the TSan CI leg exercises.
  const loss::BernoulliLossModel model(0.1);
  McConfig cfg;
  cfg.k = 7;
  cfg.h = 1;
  cfg.num_tgs = 4;
  const Rng rng(31337);
  for (const BatchScheme scheme : kAllSchemes) {
    const LoggedResult base =
        run_batched(scheme, model, 500, cfg, rng,
                    {.shards = 4, .threads = 1, .allow_fast_path = true});
    for (const unsigned threads : {2u, 4u}) {
      const LoggedResult multi = run_batched(
          scheme, model, 500, cfg, rng,
          {.shards = 4, .threads = threads, .allow_fast_path = true});
      expect_identical(base, multi, scheme_name(scheme));
    }
  }
}

TEST(ShardDeterminism, FallbackPathIsShardCountInvariant) {
  // The per-receiver fallback must not even depend on the shard count.
  const loss::BernoulliLossModel model(0.25);
  McConfig cfg;
  cfg.k = 4;
  cfg.h = 2;
  cfg.num_tgs = 4;
  const Rng rng(8);
  for (const BatchScheme scheme : kAllSchemes) {
    const LoggedResult one =
        run_batched(scheme, model, 65, cfg, rng,
                    {.shards = 1, .threads = 1, .allow_fast_path = false});
    for (const std::size_t shards : {std::size_t{2}, std::size_t{5}}) {
      const LoggedResult split = run_batched(
          scheme, model, 65, cfg, rng,
          {.shards = shards, .threads = 2, .allow_fast_path = false});
      expect_identical(one, split, scheme_name(scheme));
    }
  }
}

// ---------------------------------------------------------------------------
// Distribution identity of the IID fast path.

/// The reference: the per-receiver path on one shard.
const BatchOptions kPerReceiver{
    .shards = 1, .threads = 1, .allow_fast_path = false};

/// Two-sample Kolmogorov-Smirnov statistic.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

/// Two-sample chi-square over pooled NAK-count histograms, cells pooled
/// to a combined count of >= 10.  Returns {statistic, df}.
struct Chi2 {
  double stat = 0.0;
  double df = 0.0;
};
Chi2 two_sample_chi2(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b) {
  double na = 0.0, nb = 0.0;
  for (const auto v : a) na += static_cast<double>(v);
  for (const auto v : b) nb += static_cast<double>(v);
  const double ka = std::sqrt(nb / na);
  const double kb = std::sqrt(na / nb);
  Chi2 out;
  double ca = 0.0, cb = 0.0;
  std::size_t cells = 0;
  const std::size_t len = std::max(a.size(), b.size());
  for (std::size_t j = 0; j < len; ++j) {
    ca += j < a.size() ? static_cast<double>(a[j]) : 0.0;
    cb += j < b.size() ? static_cast<double>(b[j]) : 0.0;
    if (ca + cb >= 10.0) {
      const double num = ka * ca - kb * cb;
      out.stat += num * num / (ca + cb);
      ++cells;
      ca = cb = 0.0;
    }
  }
  if (ca + cb > 0.0 && cells > 0) {
    const double num = ka * ca - kb * cb;
    out.stat += num * num / (ca + cb);
    ++cells;
  }
  out.df = cells > 1 ? static_cast<double>(cells - 1) : 1.0;
  return out;
}

/// Wilson-Hilferty chi-square critical value at alpha = 1e-3.
double chi2_crit(double df) {
  const double z = 3.0902;
  const double t = 2.0 / (9.0 * df);
  const double c = 1.0 - t + z * std::sqrt(t);
  return df * c * c * c;
}

TEST(FastPathDistribution, MeanTxPassesKsAndNaksPassChiSquare) {
  const std::size_t reps = 80;
  McConfig cfg;
  cfg.k = 7;
  cfg.h = 1;
  cfg.num_tgs = 10;
  // alpha = 1e-3 two-sample KS critical value for m = n = reps.
  const double ks_crit =
      1.9495 * std::sqrt(2.0 / static_cast<double>(reps));

  for (const double p : {0.01, 0.05, 0.25}) {
    for (const std::size_t receivers :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
      const loss::BernoulliLossModel model(p);
      std::vector<std::uint64_t> reference_naks(64, 0), batched_naks(64, 0);

      const auto reference_samples = sim::replicate_map<double>(
          reps, /*seed=*/901, [&](std::uint64_t, Rng& rng) {
            std::vector<std::uint32_t> log;
            McConfig c = cfg;
            c.nak_log = &log;
            const double v =
                sim_batched(BatchScheme::kIntegratedNaks, model, receivers, c,
                            rng, kPerReceiver)
                    .mean_tx;
            for (const auto nak : log)
              if (nak < reference_naks.size()) ++reference_naks[nak];
            return v;
          },
          {.threads = 1});  // the lambda mutates the shared histogram
      const auto batched_samples = sim::replicate_map<double>(
          reps, /*seed=*/902, [&](std::uint64_t, Rng& rng) {
            std::vector<std::uint32_t> log;
            McConfig c = cfg;
            c.nak_log = &log;
            const double v =
                sim_batched(BatchScheme::kIntegratedNaks, model, receivers, c,
                            rng, {.shards = 2, .threads = 1})
                    .mean_tx;
            for (const auto nak : log)
              if (nak < batched_naks.size()) ++batched_naks[nak];
            return v;
          },
          {.threads = 1});

      const double d = ks_statistic(reference_samples, batched_samples);
      EXPECT_LT(d, ks_crit) << "p=" << p << " R=" << receivers;

      const Chi2 c2 = two_sample_chi2(reference_naks, batched_naks);
      EXPECT_LT(c2.stat, chi2_crit(c2.df)) << "p=" << p << " R=" << receivers;
    }
  }
}

TEST(FastPathDistribution, SegmentedHeterogeneousFastPathMatchesExact) {
  // The two-class population exercises the multi-segment mask path with
  // an unaligned class boundary inside a shard.
  const std::size_t receivers = 200;
  const loss::HeterogeneousLossModel model(receivers, 0.3, 0.02, 0.25);
  McConfig cfg;
  cfg.k = 7;
  cfg.h = 1;
  cfg.num_tgs = 10;
  const std::size_t reps = 80;
  const double ks_crit =
      1.9495 * std::sqrt(2.0 / static_cast<double>(reps));

  const auto reference_samples = sim::replicate_map<double>(
      reps, 31, [&](std::uint64_t, Rng& rng) {
        return sim_batched(BatchScheme::kIntegratedNaks, model, receivers,
                           cfg, rng, kPerReceiver)
            .mean_tx;
      });
  const auto batched_samples = sim::replicate_map<double>(
      reps, 32, [&](std::uint64_t, Rng& rng) {
        return sim_batched(BatchScheme::kIntegratedNaks, model, receivers,
                           cfg, rng, {.shards = 3, .threads = 1})
            .mean_tx;
      });
  EXPECT_LT(ks_statistic(reference_samples, batched_samples), ks_crit);
}

TEST(BatchedEngine, RejectsInvalidConfigs) {
  const loss::BernoulliLossModel model(0.1);
  McConfig bad;
  bad.k = 0;
  EXPECT_THROW(sim_batched(BatchScheme::kNoFec, model, 10, bad, Rng(1), {}),
               std::invalid_argument);
  McConfig ok;
  EXPECT_THROW(sim_batched(BatchScheme::kNoFec, model, 0, ok, Rng(1), {}),
               std::invalid_argument);
  // Shard counts beyond the population are clamped, not rejected.
  const McResult r = sim_batched(BatchScheme::kIntegratedStream, model, 3, ok,
                                 Rng(1), {.shards = 64});
  EXPECT_GE(r.mean_tx, 1.0);
}

}  // namespace
}  // namespace pbl::protocol
