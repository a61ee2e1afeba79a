// Figure 16: integrated FEC 1 (continuous parity stream, no feedback
// gaps) versus integrated FEC 2 (NAK-driven parity rounds spaced
// delta + T) under burst loss, for k = 7, 20, 100; p = 0.01, mean burst 2.
//
// Two effects reproduce: (i) growing k from 7 to 100 markedly improves
// integrated FEC under bursts; (ii) FEC2's time-spread rounds (implicit
// interleaving) help k = 7 but matter little for large k.
//
// Each point's TG budget is split into --reps independent replications
// fanned out by sim::run_replications: statistics are bit-identical for
// every --threads value.  --json=out.json emits pbl-bench-v1.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

enum class Variant { kNoFec, kFec1, kFec2 };

const char* to_cstr(Variant v) {
  switch (v) {
    case Variant::kNoFec: return "no_fec";
    case Variant::kFec1: return "fec1";
    case Variant::kFec2: return "fec2";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const double burst = cli.get_double("b", 2.0);
  const std::int64_t rmax = cli.get_int64("rmax", 10000);
  const std::int64_t tgs = cli.get_int64("tgs", 300);
  const std::int64_t reps = cli.get_int64("reps", 8);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  protocol::Timing timing;  // delta = 40 ms, T = 300 ms

  bench::banner(
      "Figure 16: burst loss and integrated FEC 1 vs 2, k = 7, 20, 100",
      "p = " + std::to_string(p) + ", mean burst = " + std::to_string(burst) +
          ", delta = 40 ms, T = 300 ms, " + std::to_string(tgs) +
          " TGs per point over " + std::to_string(reps) +
          " replications (simulation)",
      "larger k resists bursts; FEC2 beats FEC1 for k = 7, they coincide "
      "for k = 100 (no extra interleaving needed)");

  bench::BenchJson json("fig16_burst_integrated");
  json.setup("p", p);
  json.setup("b", burst);
  json.setup("rmax", rmax);
  json.setup("tgs", tgs);
  json.setup("reps", reps);
  json.setup("seed", static_cast<std::int64_t>(seed));

  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, burst, timing.delta);

  // One replication: tgs_per_rep TGs of the given scheme, fresh loss
  // processes from the replication's RNG substream.
  const auto simulate = [&](Variant variant, std::int64_t k,
                            std::size_t receivers, std::int64_t tgs_per_rep,
                            Rng& rng) {
    protocol::ProcessBatchTransmitter tx(gilbert, receivers, rng);
    protocol::McConfig cfg;
    cfg.k = k;
    cfg.num_tgs = tgs_per_rep;
    cfg.timing = timing;
    switch (variant) {
      case Variant::kNoFec:
        return protocol::sim_nofec(tx, cfg).mean_tx;
      case Variant::kFec1:
        return protocol::sim_integrated_stream(tx, cfg).mean_tx;
      case Variant::kFec2:
        return protocol::sim_integrated_naks(tx, cfg).mean_tx;
    }
    return 0.0;
  };

  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;
  Table t({"R", "no_fec", "fec1_k7", "fec2_k7", "fec1_k20", "fec2_k20",
           "fec1_k100", "fec2_k100"});
  for (const std::int64_t r : bench::log_grid(1, rmax, 2)) {
    const auto receivers = static_cast<std::size_t>(r);
    std::vector<Table::Cell> row{static_cast<long long>(r)};

    const auto run_point = [&](Variant variant, std::int64_t k,
                               std::int64_t point_tgs) {
      const std::int64_t tgs_per_rep =
          std::max<std::int64_t>(1, point_tgs / reps);
      const auto rep = sim::run_replications(
          static_cast<std::uint64_t>(reps),
          sim::point_seed(seed, point_index++),
          [&](std::uint64_t, Rng& rng) {
            return simulate(variant, k, receivers, tgs_per_rep, rng);
          },
          {.threads = threads});
      wall += rep.wall_seconds;
      total_reps += rep.replications;
      row.emplace_back(rep.stats.mean());
      json.point({{"R", r},
                  {"scheme", to_cstr(variant)},
                  {"k", k},
                  {"mean", rep.stats.mean()},
                  {"ci95", rep.stats.ci95_halfwidth()}});
    };

    const std::int64_t base_tgs = r >= 1000 ? std::max<std::int64_t>(50, tgs / 4)
                                            : tgs;
    run_point(Variant::kNoFec, 7, base_tgs);
    for (const std::int64_t k : {7, 20, 100}) {
      // Equal packet budget per point: fewer TGs for the bigger groups.
      const std::int64_t point_tgs = std::max<std::int64_t>(20, base_tgs * 7 / k);
      run_point(Variant::kFec1, k, point_tgs);
      run_point(Variant::kFec2, k, point_tgs);
    }
    t.add_row(std::move(row));
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
