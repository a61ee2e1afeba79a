// Extension: what crash tolerance costs — redundant-packet overhead and
// recovery latency of journaled NP sessions as the checkpoint interval
// sweeps over {1, 4, 16} (docs/ROBUSTNESS.md).
//
// Two phases:
//
//  * Session phase (DES): full crash→recover→resume runs through
//    core::run_resumable_session with a fixed two-crash schedule.  The
//    redundant-data overhead (data transmissions beyond one-per-packet)
//    measures what the crashed lives re-sent; it is write-ahead-bounded —
//    every journaled completion survives, so only in-flight TGs repeat —
//    and therefore nearly interval-invariant, which this bench makes
//    visible.
//
//  * Recovery phase (wall clock): a journal carrying `deltas` delta
//    records is reopened repeatedly and the recover→fold→bump latency
//    measured.  THIS is what checkpointing buys: ANY finite interval
//    compacts the log to roughly one snapshot, so a restarted sender is
//    back on the air in microseconds regardless of session length —
//    while interval 0 (never compact) lets the log and the fold time
//    grow linearly with the number of journaled deltas.
//
// Each session point is the mean over --reps sessions fanned out by
// sim::replicate_map (parallel over --threads, bit-identical statistics
// for every thread count).  --json=out.json emits pbl-bench-v1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/session_state.hpp"
#include "loss/loss_model.hpp"
#include "sim/replicator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

struct Sample {
  double redundant_per_packet = 0.0;
  double incarnations = 0.0;
  double done_s = 0.0;
  double tx_per_packet = 0.0;
  bool ok = false;
};

struct Merged {
  RunningStats redundant, incarnations, done_s, tx;
  bool all_ok = true;

  static Merged of(const std::vector<Sample>& samples) {
    Merged m;
    for (const Sample& s : samples) {
      m.redundant.add(s.redundant_per_packet);
      m.incarnations.add(s.incarnations);
      m.done_s.add(s.done_s);
      m.tx.add(s.tx_per_packet);
      m.all_ok = m.all_ok && s.ok;
    }
    return m;
  }
};

std::vector<core::TgData> random_groups(std::size_t tgs, std::size_t k,
                                        std::size_t packet_len,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::TgData> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(packet_len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

/// Wall-clock recovery latency: build a journal holding `deltas` deltas
/// under `interval`, then measure reopen (recover + fold + incarnation
/// bump) `rounds` times.  Returns {mean seconds, final journal bytes}.
std::pair<double, std::size_t> recovery_latency(const std::string& path,
                                                std::size_t interval,
                                                std::size_t deltas,
                                                std::size_t rounds) {
  std::remove(path.c_str());
  core::SenderSessionState fresh;
  fresh.session_id = 0xbe7c;
  fresh.k = 8;
  fresh.h = 64;
  fresh.packet_len = 64;
  fresh.num_tgs = static_cast<std::uint32_t>(deltas);
  core::SessionJournal::Options opts;
  opts.checkpoint_interval = interval;
  opts.sync_every = 0;  // measure parsing/folding, not fsync
  {
    core::SessionJournal sj(path, fresh, opts);
    for (std::size_t tg = 0; tg < deltas; ++tg) {
      sj.record_parities_sent(tg, 1 + tg % 7);
      sj.record_tg_completed(tg);
    }
  }
  std::size_t bytes = 0;
  const double wall = bench::time_seconds([&] {
    for (std::size_t i = 0; i < rounds; ++i) {
      core::SessionJournal sj(path, fresh, opts);
      bytes = sj.journal().size_bytes();
    }
  });
  std::remove(path.c_str());
  return {wall / static_cast<double>(rounds), bytes};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 10));
  const std::size_t k = static_cast<std::size_t>(cli.get_int64("k", 8));
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 8));
  const double p = cli.get_double("p", 0.05);
  const std::int64_t reps = cli.get_int64("reps", 4);
  const std::size_t deltas =
      static_cast<std::size_t>(cli.get_int64("deltas", 2000));
  const auto threads = static_cast<unsigned>(cli.get_int64("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  const std::string tmpdir = cli.get_string("tmpdir", "/tmp");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: crash-tolerant sessions vs checkpoint interval",
      "k = " + std::to_string(k) + ", R = " + std::to_string(receivers) +
          ", data loss p = " + std::to_string(p) + ", " +
          std::to_string(tgs) + " TGs, two scheduled sender crashes, " +
          std::to_string(reps) + " sessions per point; recovery folds " +
          std::to_string(deltas) + " journal deltas",
      "redundant data stays write-ahead-bounded at every interval; any "
      "finite checkpoint interval keeps the journal near one snapshot, "
      "while interval 0 (never compact) grows log size and recovery "
      "latency linearly with session length");

  bench::BenchJson json("ext_crash_resume");
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(k));
  json.setup("receivers", static_cast<std::int64_t>(receivers));
  json.setup("p", p);
  json.setup("reps", reps);
  json.setup("deltas", static_cast<std::int64_t>(deltas));
  json.setup("seed", static_cast<std::int64_t>(seed));

  double wall = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t point_index = 0;
  loss::BernoulliLossModel model(p);

  Table t({"ckpt", "redund_per_pkt", "ci95", "lives", "done_s",
           "recover_us", "journal_B", "ok"});
  // 0 = never compact: the control that shows what checkpointing buys.
  for (const std::size_t interval :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const auto t0_seed = sim::point_seed(seed, point_index);
    std::vector<Sample> samples;
    wall += bench::time_seconds([&] {
      samples = sim::replicate_map<Sample>(
          static_cast<std::uint64_t>(reps), t0_seed,
          [&](std::uint64_t rep, Rng& rng) {
            core::ResumableConfig cfg;
            cfg.np.k = k;
            cfg.np.h = 8 * k;
            cfg.np.packet_len = 64;
            cfg.np.reliable_control = true;
            cfg.journal.checkpoint_interval = interval;
            cfg.crash_plan = {k * tgs / 3, k * tgs / 2};
            cfg.journal_path = tmpdir + "/pbl_crash_bench_" +
                               std::to_string(seed) + "_" +
                               std::to_string(point_index) + "_" +
                               std::to_string(rep) + ".log";
            std::remove(cfg.journal_path.c_str());
            const std::uint64_t data_seed = rng();
            const auto report = core::run_resumable_session(
                model, receivers,
                random_groups(tgs, k, cfg.np.packet_len, data_seed), cfg,
                rng());
            std::remove(cfg.journal_path.c_str());
            const auto packets = static_cast<double>(k * tgs);
            return Sample{
                static_cast<double>(report.redundant_data) / packets,
                static_cast<double>(report.incarnations),
                report.total_sim_time,
                static_cast<double>(report.total_data_sent +
                                    report.total_parity_sent +
                                    report.total_proactive_sent) /
                    packets,
                report.complete};
          },
          {.threads = threads});
    });
    total_reps += static_cast<std::uint64_t>(reps);
    ++point_index;
    const Merged m = Merged::of(samples);

    const auto [recover_s, journal_bytes] = recovery_latency(
        tmpdir + "/pbl_crash_bench_recover_" + std::to_string(seed) + "_" +
            std::to_string(interval) + ".log",
        interval, deltas, 16);

    t.add_row({static_cast<long long>(interval), m.redundant.mean(),
               m.redundant.ci95_halfwidth(), m.incarnations.mean(),
               m.done_s.mean(), recover_s * 1e6,
               static_cast<long long>(journal_bytes),
               m.all_ok ? "yes" : "NO"});
    json.point({{"checkpoint_interval", static_cast<std::int64_t>(interval)},
                {"redundant_per_packet", m.redundant.mean()},
                {"ci95", m.redundant.ci95_halfwidth()},
                {"incarnations", m.incarnations.mean()},
                {"done_s", m.done_s.mean()},
                {"tx_per_packet", m.tx.mean()},
                {"recover_seconds", recover_s},
                {"journal_bytes", static_cast<std::int64_t>(journal_bytes)},
                {"ok", m.all_ok}});
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
