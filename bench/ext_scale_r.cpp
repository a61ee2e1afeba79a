// Extension: simulation throughput versus population size — the
// per-receiver path on one shard (core::SimEngine::kExact, labelled
// "exact") against the batched shard engine (core::SimEngine::kBatched,
// docs/SCALING.md) on protocol NP and layered FEC with k = 7, p = 0.01.
// Both run the same round loops; they differ in how losses are sampled.
//
// The per-receiver path draws every receiver's loss per transmission
// (O(R)), so its reps/sec collapses linearly with R and the sweep stops
// at --exact-rmax (default 10^4).  The batched engine samples each IID
// loss segment with one binomial draw per transmission (layered) or, for
// NP, advances deficit-class counts whose per-round cost is independent
// of R, so the same full-protocol replications reach R = 10^6.  The
// headline metric is the per-scheme batched/exact speedup at
// R = --exact-rmax (the largest R both engines measure); CI gates
// perf.reps_per_sec (batched totals) against
// bench/baselines/BENCH_ext_scale_r.json.
//
// --threads sets the batched engine's shard worker count and never
// changes any point value — CI runs --threads=1 and --threads=4 and
// asserts identical points arrays (bench/compare_points.py).  The
// timing columns (wall_seconds, reps_per_sec, speedup) are the only
// volatile fields.
#include <cstdio>

#include "bench_common.hpp"
#include "core/reliable_multicast.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

struct EnginePoint {
  double mean_tx = 0.0;
  double wall = 0.0;
  double reps_per_sec = 0.0;
};

struct Scheme {
  const char* name;
  core::RecoveryMode mode;
  std::int64_t h;
};

/// The two full-protocol schemes swept over R: protocol NP (the paper's
/// integrated FEC 2, unlimited parities) and layered FEC with h = 1.
constexpr Scheme kSchemes[] = {
    {"np", core::RecoveryMode::kIntegratedFec2, 0},
    {"layered", core::RecoveryMode::kLayeredFec, 1},
};

/// --reps replications of `scheme` at population r on one engine, run
/// sequentially so the wall clock measures the engine itself.
/// Replication seeds depend only on (seed, r, scheme, rep), never on
/// the grid or the thread count.
EnginePoint measure(core::SimEngine engine, const Scheme& scheme,
                    std::int64_t r, std::size_t scheme_index, double p,
                    std::int64_t k, std::int64_t tgs, std::int64_t reps,
                    std::int64_t shards, unsigned threads,
                    std::uint64_t seed) {
  EnginePoint out;
  double sum = 0.0;
  out.wall = bench::time_seconds([&] {
    for (std::int64_t rep = 0; rep < reps; ++rep) {
      core::MulticastConfig cfg;
      cfg.k = k;
      cfg.receivers = static_cast<std::size_t>(r);
      cfg.p = p;
      cfg.num_tgs = tgs;
      cfg.mode = scheme.mode;
      cfg.h = scheme.h;
      cfg.engine = engine;
      cfg.shards = static_cast<std::size_t>(shards);
      cfg.engine_threads = threads;
      cfg.seed = sim::point_seed(
          seed, (static_cast<std::uint64_t>(r) * 2 + scheme_index) * 64 +
                    static_cast<std::uint64_t>(rep));
      sum += core::simulate(cfg).mean_tx;
    }
  });
  out.mean_tx = sum / static_cast<double>(reps);
  out.reps_per_sec =
      out.wall > 0.0 ? static_cast<double>(reps) / out.wall : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t rmax = cli.get_int64("rmax", 1000000);
  const std::int64_t exact_rmax = cli.get_int64("exact-rmax", 10000);
  const std::int64_t reps = cli.get_int64("reps", 4);
  const std::int64_t tgs = cli.get_int64("tgs", 10);
  const std::int64_t shards = cli.get_int64("shards", 0);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 1));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: reps/sec vs R, per-receiver path vs batched shard engine",
      "protocol NP + layered (h = 1), k = " + std::to_string(k) +
          ", p = " + std::to_string(p) + ", " + std::to_string(reps) + "x" +
          std::to_string(tgs) +
          " TGs per point, per-receiver (exact) to R = " +
          std::to_string(exact_rmax) +
          ", batched to R = " + std::to_string(rmax),
      "batched receiver state (bit-planes; deficit-class counts for NP) "
      "keeps full-protocol simulation practical to R = 10^6");

  bench::BenchJson json("ext_scale_r");
  json.setup("p", p);
  json.setup("k", k);
  json.setup("rmax", rmax);
  json.setup("exact_rmax", exact_rmax);
  json.setup("reps", reps);
  json.setup("tgs", tgs);
  json.setup("shards", shards);
  json.setup("seed", static_cast<std::int64_t>(seed));

  Table t({"R", "scheme", "engine", "mean_tx", "wall_s", "reps_per_sec"});
  constexpr std::size_t kNumSchemes = std::size(kSchemes);
  std::int64_t speedup_r = 0;  // largest R measured by both engines
  double exact_rps[kNumSchemes] = {};
  double batched_rps[kNumSchemes] = {};
  double batch_wall = 0.0;
  std::uint64_t batch_reps_total = 0;
  for (const std::int64_t r : bench::log_grid(10, rmax, 1)) {
    for (std::size_t si = 0; si < kNumSchemes; ++si) {
      const Scheme& scheme = kSchemes[si];
      if (r <= exact_rmax) {
        const EnginePoint e = measure(core::SimEngine::kExact, scheme, r, si,
                                      p, k, tgs, reps, shards, threads, seed);
        t.add_row({static_cast<long long>(r), scheme.name, "exact", e.mean_tx,
                   e.wall, e.reps_per_sec});
        json.point({{"R", r},
                    {"scheme", scheme.name},
                    {"engine", "exact"},
                    {"mean_tx", e.mean_tx},
                    {"wall_seconds", e.wall},
                    {"reps_per_sec", e.reps_per_sec}});
        speedup_r = r;
        exact_rps[si] = e.reps_per_sec;
      }
      const EnginePoint b = measure(core::SimEngine::kBatched, scheme, r, si,
                                    p, k, tgs, reps, shards, threads, seed);
      t.add_row({static_cast<long long>(r), scheme.name, "batched", b.mean_tx,
                 b.wall, b.reps_per_sec});
      json.point({{"R", r},
                  {"scheme", scheme.name},
                  {"engine", "batched"},
                  {"mean_tx", b.mean_tx},
                  {"wall_seconds", b.wall},
                  {"reps_per_sec", b.reps_per_sec}});
      if (r <= exact_rmax) batched_rps[si] = b.reps_per_sec;
      batch_wall += b.wall;
      batch_reps_total += static_cast<std::uint64_t>(reps);
    }
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());

  std::printf("\n");
  for (std::size_t si = 0; si < kNumSchemes; ++si) {
    const double speedup =
        exact_rps[si] > 0.0 ? batched_rps[si] / exact_rps[si] : 0.0;
    std::printf("batched/exact speedup at R = %lld (%s): %.1fx\n",
                static_cast<long long>(speedup_r), kSchemes[si].name, speedup);
    json.point({{"metric", "speedup_at_exact_rmax"},
                {"scheme", kSchemes[si].name},
                {"R", speedup_r},
                {"speedup", speedup}});
  }

  json.perf(sim::resolve_threads(threads), batch_wall, batch_reps_total);
  return json.write_file(json_path) ? 0 : 1;
}
