// Extension: what lossy CONTROL traffic costs — E[M] and completion time
// of the reliable-control NP and layered protocols as the feedback-loss
// rate q_f sweeps over {0, 0.01, 0.05, 0.1, 0.2}, with data loss held at
// --p (docs/ROBUSTNESS.md).
//
// The paper assumes NAKs and POLLs always arrive; this bench measures
// the price of dropping that assumption: lost POLLs widen the collect
// window under seeded backoff, lost NAKs are retransmitted, and lost
// ACKs force re-poll rounds — bandwidth barely moves (repair is still
// parity-driven) but latency grows with q_f.  Sessions are full DES
// protocol runs (real RSE codec, byte-exact verification).
//
// Each point is the mean over --reps sessions fanned out by
// sim::replicate_map (parallel over --threads, bit-identical statistics
// for every thread count).  --json=out.json emits pbl-bench-v1.
#include <cstdio>

#include "bench_common.hpp"
#include "loss/loss_model.hpp"
#include "protocol/layered_protocol.hpp"
#include "protocol/np_protocol.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

/// Metrics of one reliable-control protocol session (one replication).
struct Sample {
  double tx_per_packet = 0.0;
  double done_s = 0.0;
  double poll_retries = 0.0;
  double nak_retries = 0.0;
  bool ok = false;
};

struct Merged {
  RunningStats tx, done_s, poll_retries, nak_retries;
  bool all_ok = true;

  static Merged of(const std::vector<Sample>& samples) {
    Merged m;
    for (const Sample& s : samples) {
      m.tx.add(s.tx_per_packet);
      m.done_s.add(s.done_s);
      m.poll_retries.add(s.poll_retries);
      m.nak_retries.add(s.nak_retries);
      m.all_ok = m.all_ok && s.ok;
    }
    return m;
  }
};

/// Liveness thresholds sized for the worst q_f in the sweep: an unheard
/// round happens with probability ~ 2 q_f, so the grace and re-POLL
/// budgets need enough headroom that no live receiver is ever evicted.
protocol::RetryConfig sweep_retry() {
  protocol::RetryConfig retry;
  retry.grace_rounds = 20;
  retry.max_retries = 16;
  return retry;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 10));
  const std::size_t k = static_cast<std::size_t>(cli.get_int64("k", 8));
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 20));
  const double p = cli.get_double("p", 0.05);
  const std::int64_t reps = cli.get_int64("reps", 4);
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: reliable control under feedback loss q_f",
      "k = " + std::to_string(k) + ", R = " + std::to_string(receivers) +
          ", data loss p = " + std::to_string(p) + ", " +
          std::to_string(tgs) + " TGs, " + std::to_string(reps) +
          " sessions per point, exactly-once verified",
      "E[M] stays near the lossless-control value while completion time "
      "and retry counts grow with q_f — feedback loss costs latency, not "
      "bandwidth");

  bench::BenchJson json("ext_control_loss");
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(k));
  json.setup("receivers", static_cast<std::int64_t>(receivers));
  json.setup("p", p);
  json.setup("reps", reps);
  json.setup("seed", static_cast<std::int64_t>(seed));

  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;

  const auto replicate = [&](auto&& run_session) {
    const auto t0_seed = sim::point_seed(seed, point_index++);
    std::vector<Sample> samples;
    wall += bench::time_seconds([&] {
      samples = sim::replicate_map<Sample>(
          static_cast<std::uint64_t>(reps), t0_seed,
          [&](std::uint64_t, Rng& rng) {
            const std::uint64_t imp_seed = rng();
            return run_session(imp_seed, rng());
          },
          {.threads = threads});
    });
    total_reps += static_cast<std::uint64_t>(reps);
    return Merged::of(samples);
  };

  Table t({"q_f", "protocol", "tx_per_pkt", "ci95", "done_s", "poll_rty",
           "nak_rty", "ok"});
  const auto report = [&](double q_f, const char* name, const Merged& m) {
    t.add_row({q_f, name, m.tx.mean(), m.tx.ci95_halfwidth(),
               m.done_s.mean(),
               static_cast<long long>(m.poll_retries.mean() + 0.5),
               static_cast<long long>(m.nak_retries.mean() + 0.5),
               m.all_ok ? "yes" : "NO"});
    json.point({{"q_f", q_f},
                {"protocol", name},
                {"tx_per_pkt", m.tx.mean()},
                {"ci95", m.tx.ci95_halfwidth()},
                {"done_s", m.done_s.mean()},
                {"poll_retries", m.poll_retries.mean()},
                {"nak_retries", m.nak_retries.mean()},
                {"ok", m.all_ok}});
  };

  loss::BernoulliLossModel model(p);
  for (const double q_f : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    report(q_f, "NP reliable",
           replicate([&](std::uint64_t imp_seed, std::uint64_t s) {
             protocol::NpConfig cfg;
             cfg.k = k;
             cfg.h = 8 * k;
             cfg.packet_len = 64;
             cfg.reliable_control = true;
             cfg.retry = sweep_retry();
             cfg.impairment.control_drop = q_f;
             cfg.impairment.seed = imp_seed;
             protocol::NpSession session(model, receivers, tgs, cfg, s);
             const auto st = session.run();
             return Sample{st.tx_per_packet, st.completion_time,
                           static_cast<double>(st.sender.poll_retries),
                           static_cast<double>(st.receivers.nak_retries),
                           st.all_delivered && st.report.complete};
           }));
    report(q_f, "layered reliable",
           replicate([&](std::uint64_t imp_seed, std::uint64_t s) {
             protocol::LayeredConfig cfg;
             cfg.k = k;
             cfg.h = 1;
             cfg.packet_len = 64;
             cfg.reliable_control = true;
             cfg.retry = sweep_retry();
             cfg.impairment.control_drop = q_f;
             cfg.impairment.seed = imp_seed;
             protocol::LayeredSession session(model, receivers, tgs * k, cfg,
                                              s);
             const auto st = session.run();
             return Sample{st.tx_per_packet, st.completion_time,
                           static_cast<double>(st.poll_retries),
                           static_cast<double>(st.nak_retries),
                           st.all_delivered && st.report.complete};
           }));
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu sessions, %u threads, %.3f s, %.1f reps/s\n",
              static_cast<unsigned long long>(total_reps),
              sim::resolve_threads(threads), wall,
              wall > 0.0 ? static_cast<double>(total_reps) / wall : 0.0);

  json.perf(sim::resolve_threads(threads), wall, total_reps);
  return json.write_file(json_path) ? 0 : 1;
}
