// Extension: the protocol-level analogue of Fig. 5 — all four recovery
// schemes as FULL discrete-event protocols (real RSE codec, real bytes,
// NAK suppression, byte-exact verification) on one scenario.
//
// The Monte-Carlo figures count idealised transmissions; this bench shows
// the same ordering emerging from complete protocol machinery, plus the
// costs the models abstract away (NAK counts, duplicates, wall-clock).
//
// Each protocol row is the mean over --reps independent sessions fanned
// out by sim::replicate_map (parallel over --threads, deterministic for
// any thread count).  --json=out.json emits pbl-bench-v1.
#include <cstdio>

#include "bench_common.hpp"
#include "loss/loss_model.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/fec1_protocol.hpp"
#include "protocol/layered_protocol.hpp"
#include "protocol/np_protocol.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

/// Metrics of one full protocol session (one replication).
struct Sample {
  double tx_per_packet = 0.0;
  double naks = 0.0;
  double dups = 0.0;
  double done_s = 0.0;
  bool ok = false;
};

/// Replication means + the all-delivered conjunction over a sample set.
struct Merged {
  RunningStats tx, naks, dups, done_s;
  bool all_ok = true;

  static Merged of(const std::vector<Sample>& samples) {
    Merged m;
    for (const Sample& s : samples) {
      m.tx.add(s.tx_per_packet);
      m.naks.add(s.naks);
      m.dups.add(s.dups);
      m.done_s.add(s.done_s);
      m.all_ok = m.all_ok && s.ok;
    }
    return m;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 20));
  const std::size_t k = static_cast<std::size_t>(cli.get_int64("k", 8));
  const double p = cli.get_double("p", 0.05);
  const std::int64_t reps = cli.get_int64("reps", 3);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: all four schemes as full DES protocols",
      "k = " + std::to_string(k) + ", p = " + std::to_string(p) + ", " +
          std::to_string(tgs) + " groups of real bytes, " +
          std::to_string(reps) + " sessions per row, verified end to end",
      "integrated (NP/FEC1) < layered < ARQ in transmissions; ARQ floods "
      "NAKs and duplicates; FEC1 needs no feedback at all");

  bench::BenchJson json("ext_protocol_quartet");
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(k));
  json.setup("p", p);
  json.setup("reps", reps);
  json.setup("seed", static_cast<std::int64_t>(seed));

  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;

  // Runs --reps sessions of one protocol (session seeds drawn from the
  // point's replication substreams) and reports the merged metrics.
  const auto replicate = [&](auto&& run_session) {
    const auto t0_seed = sim::point_seed(seed, point_index++);
    double secs = 0.0;
    std::vector<Sample> samples;
    secs = bench::time_seconds([&] {
      samples = sim::replicate_map<Sample>(
          static_cast<std::uint64_t>(reps), t0_seed,
          [&](std::uint64_t, Rng& rng) { return run_session(rng()); },
          {.threads = threads});
    });
    wall += secs;
    total_reps += static_cast<std::uint64_t>(reps);
    return Merged::of(samples);
  };

  Table t({"R", "protocol", "tx_per_pkt", "ci95", "naks", "dups", "done_s",
           "ok"});
  const auto report = [&](std::size_t receivers, const char* name,
                          const Merged& m) {
    t.add_row({static_cast<long long>(receivers), name, m.tx.mean(),
               m.tx.ci95_halfwidth(),
               static_cast<long long>(m.naks.mean() + 0.5),
               static_cast<long long>(m.dups.mean() + 0.5), m.done_s.mean(),
               m.all_ok ? "yes" : "NO"});
    json.point({{"R", static_cast<std::int64_t>(receivers)},
                {"protocol", name},
                {"tx_per_pkt", m.tx.mean()},
                {"ci95", m.tx.ci95_halfwidth()},
                {"naks", m.naks.mean()},
                {"dups", m.dups.mean()},
                {"done_s", m.done_s.mean()},
                {"ok", m.all_ok}});
  };

  for (const std::size_t receivers : {10u, 100u, 1000u}) {
    loss::BernoulliLossModel model(p);

    report(receivers, "ARQ (N2-style)", replicate([&](std::uint64_t s) {
             protocol::ArqConfig cfg;
             cfg.k = k;
             cfg.packet_len = 64;
             protocol::ArqSession session(model, receivers, tgs, cfg, s);
             const auto st = session.run();
             return Sample{st.tx_per_packet,
                           static_cast<double>(st.naks_sent),
                           static_cast<double>(st.duplicate_receptions),
                           st.completion_time, st.all_delivered};
           }));
    report(receivers, "layered FEC (8+1)", replicate([&](std::uint64_t s) {
             protocol::LayeredConfig cfg;
             cfg.k = k;
             cfg.h = 1;
             cfg.packet_len = 64;
             protocol::LayeredSession session(model, receivers, tgs * k, cfg,
                                              s);
             const auto st = session.run();
             return Sample{st.tx_per_packet,
                           static_cast<double>(st.naks_sent),
                           static_cast<double>(st.duplicate_deliveries),
                           st.completion_time, st.all_delivered};
           }));
    report(receivers, "NP (integrated FEC2)", replicate([&](std::uint64_t s) {
             protocol::NpConfig cfg;
             cfg.k = k;
             cfg.h = 8 * k;
             cfg.packet_len = 64;
             protocol::NpSession session(model, receivers, tgs, cfg, s);
             const auto st = session.run();
             return Sample{st.tx_per_packet,
                           static_cast<double>(st.receivers.naks_sent),
                           static_cast<double>(st.receivers.duplicates),
                           st.completion_time, st.all_delivered};
           }));
    report(receivers, "FEC1 (no feedback)", replicate([&](std::uint64_t s) {
             protocol::Fec1Config cfg;
             cfg.k = k;
             cfg.h = 8 * k;
             cfg.packet_len = 64;
             cfg.delay = 0.0004;
             protocol::Fec1Session session(model, receivers, tgs, cfg, s);
             const auto st = session.run();
             return Sample{st.tx_per_packet, 0.0,
                           static_cast<double>(st.duplicate_receptions),
                           st.completion_time, st.all_delivered};
           }));
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu sessions, %u threads, %.3f s\n",
              static_cast<unsigned long long>(total_reps),
              sim::resolve_threads(threads), wall);

  json.perf(sim::resolve_threads(threads), wall, total_reps);
  return json.write_file(json_path) ? 0 : 1;
}
