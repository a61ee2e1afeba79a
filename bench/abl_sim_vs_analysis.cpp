// Ablation: Monte-Carlo simulation versus the closed forms, side by side,
// for every scheme with an analytical model.  The columns must agree
// within the printed confidence interval — this is the library's
// end-to-end self-check (the same property the test suite asserts, here
// over a broader grid for inspection).
//
// Every (R, scheme) point runs --reps independent replications through
// sim::run_replications (parallel over --threads, bit-identical results
// for any thread count); the CI is computed across replication means.
// --json=out.json emits pbl-bench-v1.
#include <algorithm>
#include <cstdio>

#include "analysis/integrated.hpp"
#include "bench_common.hpp"
#include "core/reliable_multicast.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.02);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t tgs = cli.get_int64("tgs", 1000);
  const std::int64_t reps = cli.get_int64("reps", 8);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Ablation: simulation vs closed forms",
      "p = " + std::to_string(p) + ", k = " + std::to_string(k) + ", " +
          std::to_string(tgs) + " TGs per cell over " + std::to_string(reps) +
          " replications",
      "sim and analysis agree within the 95% CI for every scheme");

  bench::BenchJson json("abl_sim_vs_analysis");
  json.setup("p", p);
  json.setup("k", k);
  json.setup("tgs", tgs);
  json.setup("reps", reps);
  json.setup("seed", static_cast<std::int64_t>(seed));

  const std::int64_t tgs_per_rep = std::max<std::int64_t>(1, tgs / reps);
  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;

  Table t({"R", "scheme", "simulated", "ci95", "analytic"});
  for (const std::int64_t r : {1, 10, 100, 1000}) {
    for (const auto mode :
         {core::RecoveryMode::kNoFec, core::RecoveryMode::kLayeredFec,
          core::RecoveryMode::kIntegratedFec1,
          core::RecoveryMode::kIntegratedFec2}) {
      core::MulticastConfig cfg;
      cfg.k = k;
      cfg.h = mode == core::RecoveryMode::kLayeredFec ? 2 : 0;
      cfg.receivers = static_cast<std::size_t>(r);
      cfg.p = p;
      cfg.mode = mode;
      cfg.num_tgs = tgs_per_rep;
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            core::MulticastConfig c = cfg;
            c.seed = rng();  // all randomness from the replication substream
            return core::simulate(c).mean_tx;
          },
          {.threads = threads});
      wall += rep.wall_seconds;
      total_reps += rep.replications;
      const auto predicted = core::predict(cfg);
      t.add_row({static_cast<long long>(r), core::to_string(mode),
                 rep.stats.mean(), rep.stats.ci95_halfwidth(),
                 predicted.value_or(-1.0)});
      json.point({{"R", r},
                  {"scheme", core::to_string(mode)},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()},
                  {"analytic", predicted.value_or(-1.0)}});
    }
    // Finite parity budget (the corrected Fig. 6 model) against its
    // dedicated simulator.
    for (const std::int64_t h : {1, 3}) {
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            loss::BernoulliLossModel model(p);
            protocol::ProcessBatchTransmitter tx(model,
                                                 static_cast<std::size_t>(r),
                                                 rng);
            protocol::McConfig mc;
            mc.k = k;
            mc.h = h;
            mc.num_tgs = tgs_per_rep;
            return protocol::sim_integrated_finite(tx, mc).mean_tx;
          },
          {.threads = threads});
      wall += rep.wall_seconds;
      total_reps += rep.replications;
      const double expect = analysis::expected_tx_integrated(
          k, h, 0, p, static_cast<double>(r));
      t.add_row({static_cast<long long>(r),
                 "integrated h=" + std::to_string(h), rep.stats.mean(),
                 rep.stats.ci95_halfwidth(), expect});
      json.point({{"R", r},
                  {"scheme", "integrated h=" + std::to_string(h)},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()},
                  {"analytic", expect}});
    }
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu replications, %u threads, %.3f s, %.1f reps/s\n",
              static_cast<unsigned long long>(total_reps),
              sim::resolve_threads(threads), wall,
              wall > 0.0 ? static_cast<double>(total_reps) / wall : 0.0);

  json.perf(sim::resolve_threads(threads), wall, total_reps);
  return json.write_file(json_path) ? 0 : 1;
}
