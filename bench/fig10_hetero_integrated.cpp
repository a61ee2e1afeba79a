// Figure 10: heterogeneous receivers with idealised integrated FEC
// (k = 7) — E[M] versus R for high-loss shares 0, 1, 5, 25% (Eqs. 6, 8).
//
// The two-class closed form is cross-checked by simulation (two-class
// loss model + unlimited-parity integrated protocol) up to --sim-rmax
// receivers, --reps parallel replications per point via
// sim::run_replications.  --json=out.json emits pbl-bench-v1.
#include <cstdio>

#include "analysis/heterogeneous.hpp"
#include "bench_common.hpp"
#include "loss/loss_model.hpp"
#include "protocol/rounds.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int64_t k = cli.get_int64("k", 7);
  const double p_low = cli.get_double("p-low", 0.01);
  const double p_high = cli.get_double("p-high", 0.25);
  const std::int64_t rmax = cli.get_int64("rmax", 1000000);
  const std::int64_t sim_rmax = cli.get_int64("sim-rmax", 100);
  const std::int64_t reps = cli.get_int64("reps", 16);
  const std::int64_t tgs = cli.get_int64("tgs", 25);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Figure 10: heterogeneous receivers, integrated FEC (k = " +
          std::to_string(k) + ")",
      "p_low = " + std::to_string(p_low) + ", p_high = " +
          std::to_string(p_high) + ", alpha in {0, 1, 5, 25}%",
      "high-loss receivers dominate at scale, and proportionally more so "
      "than without FEC");

  bench::BenchJson json("fig10_hetero_integrated");
  json.setup("k", k);
  json.setup("p_low", p_low);
  json.setup("p_high", p_high);
  json.setup("rmax", rmax);
  json.setup("sim_rmax", sim_rmax);
  json.setup("reps", reps);
  json.setup("tgs", tgs);
  json.setup("seed", static_cast<std::int64_t>(seed));

  const double alphas[] = {0.0, 0.01, 0.05, 0.25};

  Table t({"R", "high0pct", "high1pct", "high5pct", "high25pct"});
  for (const std::int64_t r : bench::log_grid(1, rmax)) {
    const auto rd = static_cast<double>(r);
    std::vector<Table::Cell> row{static_cast<long long>(r)};
    bench::JsonFields fields{{"kind", "analysis"}, {"R", r}};
    for (const double alpha : alphas) {
      const auto pop = analysis::two_class_population(rd, alpha, p_low, p_high);
      const double em = analysis::expected_tx_integrated_hetero(k, 0, pop);
      row.emplace_back(em);
      fields.emplace_back("alpha_" + std::to_string(static_cast<int>(
                              alpha * 100)),
                          em);
    }
    t.add_row(std::move(row));
    json.point(std::move(fields));
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());

  // Monte-Carlo cross-check: two-class loss, unlimited-parity protocol.
  Table st({"R", "alpha", "sim_mean", "ci95", "analytic"});
  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;
  for (const std::int64_t r : bench::log_grid(1, sim_rmax, 2)) {
    for (const double alpha : alphas) {
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            loss::HeterogeneousLossModel model(static_cast<std::size_t>(r),
                                               alpha, p_low, p_high);
            protocol::ProcessBatchTransmitter tx(model,
                                                 static_cast<std::size_t>(r),
                                                 rng);
            protocol::McConfig mc;
            mc.k = k;
            mc.num_tgs = tgs;
            return protocol::sim_integrated_naks(tx, mc).mean_tx;
          },
          {.threads = threads});
      const auto pop = analysis::two_class_population(
          static_cast<double>(r), alpha, p_low, p_high);
      const double expect = analysis::expected_tx_integrated_hetero(k, 0, pop);
      st.add_row({static_cast<long long>(r), alpha, rep.stats.mean(),
                  rep.stats.ci95_halfwidth(), expect});
      json.point({{"kind", "simulation"},
                  {"R", r},
                  {"alpha", alpha},
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

  json.perf(sim::resolve_threads(threads), wall, total_reps);
  return json.write_file(json_path) ? 0 : 1;
}
