// Figure 6: integrated FEC with a finite parity budget — E[M] versus R
// for (k, n) = (7,8), (7,9), (7,10) against the (7, inf) lower bound,
// p = 0.01.  Three parities suffice to attain the bound for populations
// up to 100,000-200,000.
//
// The finite-budget protocol simulator (sim_integrated_finite) validates
// the corrected closed form up to --sim-rmax receivers: --reps parallel
// replications per point via sim::run_replications (bit-identical for
// every --threads value).  The batched shard engine then carries the
// same protocol to --batch-rmax receivers (R = 10^4..10^6), where the
// figure's "three parities suffice" claim actually lives.  --json=out.json
// emits pbl-bench-v1; points carry "source": "analysis" | "sim".
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

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t rmax = cli.get_int64("rmax", 1000000);
  const std::int64_t sim_rmax = cli.get_int64("sim-rmax", 100);
  const std::int64_t reps = cli.get_int64("reps", 16);
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
      "Figure 6: integrated FEC with finite parities, k = " + std::to_string(k),
      "p = " + std::to_string(p) + ", h in {1, 2, 3}, analysis + simulation "
      "up to R = " + std::to_string(sim_rmax),
      "(7,10) is indistinguishable from (7,inf) up to R ~ 10^5; every curve "
      "starts near 1/(1-p) at R = 1");

  bench::BenchJson json("fig06_integrated_finite_h");
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

  Table t({"R", "no_fec", "k7_n8", "k7_n9", "k7_n10", "k7_inf"});
  for (const std::int64_t r : bench::log_grid(1, rmax)) {
    const auto rd = static_cast<double>(r);
    t.add_row({static_cast<long long>(r),
               analysis::expected_tx_nofec(p, rd),
               analysis::expected_tx_integrated(k, 1, 0, p, rd),
               analysis::expected_tx_integrated(k, 2, 0, p, rd),
               analysis::expected_tx_integrated(k, 3, 0, p, rd),
               analysis::expected_tx_integrated_ideal(k, 0, p, rd)});
    json.point({{"source", "analysis"},
                {"R", r},
                {"no_fec", analysis::expected_tx_nofec(p, rd)},
                {"h1", analysis::expected_tx_integrated(k, 1, 0, p, rd)},
                {"h2", analysis::expected_tx_integrated(k, 2, 0, p, rd)},
                {"h3", analysis::expected_tx_integrated(k, 3, 0, p, rd)},
                {"ideal", analysis::expected_tx_integrated_ideal(k, 0, p, rd)}});
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());

  // Monte-Carlo validation of the finite-budget closed form.
  Table st({"R", "h", "sim_mean", "ci95", "analytic"});
  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;
  for (const std::int64_t r : bench::log_grid(1, sim_rmax, 2)) {
    for (const std::int64_t h : {1, 2, 3}) {
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
            mc.num_tgs = tgs;
            return protocol::sim_integrated_finite(tx, mc).mean_tx;
          },
          {.threads = threads});
      const double expect = analysis::expected_tx_integrated(
          k, h, 0, p, static_cast<double>(r));
      st.add_row({static_cast<long long>(r), static_cast<long long>(h),
                  rep.stats.mean(), rep.stats.ci95_halfwidth(), expect});
      json.point({{"source", "sim"},
                  {"engine", "exact"},
                  {"R", r},
                  {"h", h},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()},
                  {"analytic", expect}});
      wall += rep.wall_seconds;
      total_reps += rep.replications;
    }
  }
  st.set_precision(5);
  std::printf("\nsimulation (%llu replications, %u threads, %.3f s):\n%s",
              static_cast<unsigned long long>(total_reps),
              sim::resolve_threads(threads), wall, st.to_string().c_str());

  // Batched shard engine: the finite-budget protocol at the figure's
  // actual population scale, one point per decade from R = 10^4.
  Table bt({"R", "h", "sim_mean", "ci95", "analytic"});
  double batch_wall = 0.0;
  std::uint64_t batch_total = 0;
  for (const std::int64_t r : bench::log_grid(10000, batch_rmax, 1)) {
    for (const std::int64_t h : {1, 2, 3}) {
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(batch_reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            core::MulticastConfig cfg;
            cfg.k = k;
            cfg.h = h;
            cfg.receivers = static_cast<std::size_t>(r);
            cfg.p = p;
            cfg.num_tgs = batch_tgs;
            cfg.mode = core::RecoveryMode::kIntegratedFec2;
            cfg.finite_budget = true;
            cfg.engine = core::SimEngine::kBatched;
            cfg.shards = static_cast<std::size_t>(batch_shards);
            cfg.seed = rng();
            return core::simulate(cfg).mean_tx;
          },
          {.threads = threads});
      const double expect = analysis::expected_tx_integrated(
          k, h, 0, p, static_cast<double>(r));
      bt.add_row({static_cast<long long>(r), static_cast<long long>(h),
                  rep.stats.mean(), rep.stats.ci95_halfwidth(), expect});
      json.point({{"source", "sim"},
                  {"engine", "batched"},
                  {"R", r},
                  {"h", h},
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
