// Figure 5: E[M] versus R for TG size 7 and p = 0.01 — no FEC versus
// layered FEC versus the integrated-FEC lower bound (Eqs. 4-6).
//
// The paper's layered curve does not state its h; we print h = 1 and
// h = 3 to bracket it (the qualitative gap to integrated FEC is the
// result being reproduced).
//
// Besides the closed forms, the binary cross-checks every scheme by
// Monte-Carlo simulation: the per-receiver path up to
// --sim-rmax receivers (--reps independent replications per point,
// fanned out over --threads workers by sim::run_replications), and the
// batched shard engine (core::SimEngine::kBatched, docs/SCALING.md)
// from R = 10^4 up to --batch-rmax — full-protocol simulated points at
// the paper's million-receiver scale.  Statistics are bit-identical for
// every thread count (deterministic per-replication RNG substreams);
// only wall-clock changes.  --json=out.json emits the pbl-bench-v1
// document that CI tracks for perf regressions; every point carries
// "source": "analysis" | "sim" so plots can split closed forms from
// simulation.
#include <cstdio>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"
#include "bench_common.hpp"
#include "core/reliable_multicast.hpp"
#include "loss/loss_model.hpp"
#include "protocol/rounds.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

struct Scheme {
  const char* name;
  std::int64_t h;  // layered parities; unused for the other kinds
  enum Kind { kNoFec, kLayered, kIntegrated } kind;
};

double simulate_once(const Scheme& scheme, std::size_t receivers, double p,
                     std::int64_t k, std::int64_t tgs, Rng& rng) {
  loss::BernoulliLossModel model(p);
  protocol::ProcessBatchTransmitter tx(model, receivers, rng);
  protocol::McConfig mc;
  mc.k = k;
  mc.num_tgs = tgs;
  switch (scheme.kind) {
    case Scheme::kNoFec:
      return protocol::sim_nofec(tx, mc).mean_tx;
    case Scheme::kLayered:
      mc.h = scheme.h;
      return protocol::sim_layered(tx, mc).mean_tx;
    case Scheme::kIntegrated:
      return protocol::sim_integrated_naks(tx, mc).mean_tx;
  }
  return 0.0;
}

/// The same scheme simulated by the batched shard engine through the
/// public facade; seed drawn from the replication substream.
double simulate_batched(const Scheme& scheme, std::size_t receivers, double p,
                        std::int64_t k, std::int64_t tgs, std::size_t shards,
                        Rng& rng) {
  core::MulticastConfig cfg;
  cfg.k = k;
  cfg.receivers = receivers;
  cfg.p = p;
  cfg.num_tgs = tgs;
  cfg.engine = core::SimEngine::kBatched;
  cfg.shards = shards;
  cfg.seed = rng();
  switch (scheme.kind) {
    case Scheme::kNoFec:
      cfg.mode = core::RecoveryMode::kNoFec;
      break;
    case Scheme::kLayered:
      cfg.mode = core::RecoveryMode::kLayeredFec;
      cfg.h = scheme.h;
      break;
    case Scheme::kIntegrated:
      cfg.mode = core::RecoveryMode::kIntegratedFec2;
      cfg.h = 0;
      break;
  }
  return core::simulate(cfg).mean_tx;
}

double analytic(const Scheme& scheme, double p, std::int64_t k, double r) {
  switch (scheme.kind) {
    case Scheme::kNoFec:
      return analysis::expected_tx_nofec(p, r);
    case Scheme::kLayered:
      return analysis::expected_tx_layered(k, k + scheme.h, p, r);
    case Scheme::kIntegrated:
      return analysis::expected_tx_integrated_ideal(k, 0, p, r);
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t rmax = cli.get_int64("rmax", 1000000);
  const std::int64_t sim_rmax = cli.get_int64("sim-rmax", 1000);
  const std::int64_t reps = cli.get_int64("reps", 32);
  const std::int64_t tgs = cli.get_int64("tgs", 25);
  const std::int64_t batch_rmax = cli.get_int64("batch-rmax", 1000000);
  const std::int64_t batch_reps = cli.get_int64("batch-reps", 4);
  const std::int64_t batch_tgs = cli.get_int64("batch-tgs", 5);
  const std::int64_t batch_shards = cli.get_int64("batch-shards", 0);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Figure 5: layered vs integrated FEC, k = " + std::to_string(k),
      "p = " + std::to_string(p) + ", analysis + " + std::to_string(reps) +
          "x" + std::to_string(tgs) + " TG exact simulation up to R = " +
          std::to_string(sim_rmax) + ", batched engine up to R = " +
          std::to_string(batch_rmax),
      "integrated FEC offers a large improvement over layered FEC, which in "
      "turn beats no-FEC for large R");

  bench::BenchJson json("fig05_layered_vs_integrated");
  json.setup("p", p);
  json.setup("k", k);
  json.setup("rmax", rmax);
  json.setup("sim_rmax", sim_rmax);
  json.setup("reps", reps);
  json.setup("tgs", tgs);
  json.setup("batch_rmax", batch_rmax);
  json.setup("batch_reps", batch_reps);
  json.setup("batch_tgs", batch_tgs);
  json.setup("batch_shards", batch_shards);
  json.setup("seed", static_cast<std::int64_t>(seed));

  Table t({"R", "no_fec", "layered_h1", "layered_h3", "integrated_lb"});
  for (const std::int64_t r : bench::log_grid(1, rmax)) {
    const auto rd = static_cast<double>(r);
    t.add_row({static_cast<long long>(r),
               analysis::expected_tx_nofec(p, rd),
               analysis::expected_tx_layered(k, k + 1, p, rd),
               analysis::expected_tx_layered(k, k + 3, p, rd),
               analysis::expected_tx_integrated_ideal(k, 0, p, rd)});
    json.point({{"source", "analysis"},
                {"R", r},
                {"no_fec", analysis::expected_tx_nofec(p, rd)},
                {"layered_h1", analysis::expected_tx_layered(k, k + 1, p, rd)},
                {"layered_h3", analysis::expected_tx_layered(k, k + 3, p, rd)},
                {"integrated_lb",
                 analysis::expected_tx_integrated_ideal(k, 0, p, rd)}});
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());

  // Monte-Carlo cross-check, parallel over replications.
  static constexpr Scheme kSchemes[] = {
      {"no_fec", 0, Scheme::kNoFec},
      {"layered_h1", 1, Scheme::kLayered},
      {"layered_h3", 3, Scheme::kLayered},
      {"integrated_lb", 0, Scheme::kIntegrated},
  };

  Table st({"R", "scheme", "sim_mean", "ci95", "analytic"});
  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;
  for (const std::int64_t r : bench::log_grid(1, sim_rmax, 2)) {
    for (const Scheme& scheme : kSchemes) {
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            return simulate_once(scheme, static_cast<std::size_t>(r), p, k,
                                 tgs, rng);
          },
          {.threads = threads});
      const double expect = analytic(scheme, p, k, static_cast<double>(r));
      st.add_row({static_cast<long long>(r), scheme.name, rep.stats.mean(),
                  rep.stats.ci95_halfwidth(), expect});
      json.point({{"source", "sim"},
                  {"engine", "exact"},
                  {"R", r},
                  {"scheme", scheme.name},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()},
                  {"analytic", expect}});
      wall += rep.wall_seconds;
      total_reps += rep.replications;
    }
  }
  st.set_precision(5);
  std::printf("\nsimulation (%llu replications, %u threads, %.3f s, "
              "%.1f reps/s):\n%s",
              static_cast<unsigned long long>(total_reps),
              sim::resolve_threads(threads), wall,
              wall > 0.0 ? static_cast<double>(total_reps) / wall : 0.0,
              st.to_string().c_str());

  // Batched shard engine: the same protocols simulated in full at the
  // population scale the paper's figure actually plots.  The grid picks
  // up where the per-receiver path stops (one point per decade to
  // --batch-rmax).
  Table bt({"R", "scheme", "sim_mean", "ci95", "analytic"});
  double batch_wall = 0.0;
  std::uint64_t batch_total = 0;
  for (const std::int64_t r : bench::log_grid(10000, batch_rmax, 1)) {
    for (const Scheme& scheme : kSchemes) {
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(batch_reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            return simulate_batched(scheme, static_cast<std::size_t>(r), p, k,
                                    batch_tgs,
                                    static_cast<std::size_t>(batch_shards),
                                    rng);
          },
          {.threads = threads});
      const double expect = analytic(scheme, p, k, static_cast<double>(r));
      bt.add_row({static_cast<long long>(r), scheme.name, rep.stats.mean(),
                  rep.stats.ci95_halfwidth(), expect});
      json.point({{"source", "sim"},
                  {"engine", "batched"},
                  {"R", r},
                  {"scheme", scheme.name},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()},
                  {"analytic", expect}});
      batch_wall += rep.wall_seconds;
      batch_total += rep.replications;
    }
  }
  bt.set_precision(5);
  std::printf("\nbatched engine (%llu replications x %lld TGs, %.3f s):\n%s",
              static_cast<unsigned long long>(batch_total),
              static_cast<long long>(batch_tgs), batch_wall,
              bt.to_string().c_str());

  json.perf(sim::resolve_threads(threads), wall + batch_wall,
            total_reps + batch_total);
  return json.write_file(json_path) ? 0 : 1;
}
