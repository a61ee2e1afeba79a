// Extension: graceful degradation under offered overload
// (docs/ROBUSTNESS.md, "Overload").  Sweeps concurrent impaired NP
// sessions at {0.5, 1, 2, 4}x a base load against the reactor server in
// two modes:
//
//   plain     — no overload controls: unbounded arena, unpaced bursts,
//               every NAK answered individually;
//   hardened  — bounded arena (one frame), token-bucket pacing, runtime
//               NAK suppression with a per-round feedback budget.
//
// Every session still completes byte-perfect in both modes (pushback
// only defers a burst, it never drops one); what the sweep shows is HOW
// the server degrades: goodput (delivered data packets/s) and the
// p99 session-completion bucket should fall smoothly with load rather
// than collapse, and the hardened mode's would_block/arena-deferral
// counters record the pressure it absorbed.
//
// Real sockets, real clock: each point is one full server life on
// loopback, so treat absolute numbers as machine-local.  --json=out.json
// emits pbl-bench-v1; perf.reps_per_sec is total delivered data packets
// over total server wall time, the figure the perf-smoke CI leg gates on.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

std::vector<net::TgBytes> make_payload(Rng rng, std::size_t tgs,
                                       std::size_t k, std::size_t packet_len) {
  std::vector<net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(packet_len);
      for (auto& byte : pkt) byte = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

/// Upper bound of the bucket holding the p-th percentile observation;
/// falls back to the largest finite bound when the mass sits in +inf.
double histogram_percentile(const obs::MetricsRegistry& m,
                            std::string_view name,
                            const std::vector<double>& bounds, double p) {
  const auto& h = m.histogram(name);
  if (h.count == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(p * static_cast<double>(h.count) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += h.counts[i];
    if (seen >= rank)
      return i < bounds.size() ? bounds[i] : bounds.back();
  }
  return bounds.back();
}

struct RunResult {
  double wall = 0.0;          ///< server-life seconds for this point
  double goodput_pps = 0.0;   ///< delivered data packets per second
  double p99_bucket_s = 0.0;  ///< p99 session-duration bucket bound
  std::uint64_t completed = 0;
  std::uint64_t would_block = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t suppressed = 0;
};

RunResult run_point(const std::string& dir, bool hardened,
                    std::size_t sessions, std::size_t tgs, std::size_t k,
                    std::size_t packet_len, double loss, std::uint64_t seed) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  server::Reactor reactor;
  server::ServerConfig cfg;
  cfg.max_sessions = sessions;
  cfg.np.k = k;
  cfg.np.h = 8;
  cfg.np.packet_len = packet_len;
  cfg.np.poll_window = 0.02;
  cfg.np.reliable_control = true;
  cfg.receiver_idle_timeout = 10.0;
  cfg.journal_dir = dir;
  cfg.exit_when_idle = true;
  if (hardened) {
    cfg.np.arena_frames = 1;
    cfg.np.overload.pace_rate = 4000.0;
    cfg.np.overload.pace_burst = 8.0;
    cfg.np.overload.nak_suppression = true;
    cfg.np.overload.feedback_budget = 2;
  }

  server::MulticastServer server(reactor, cfg);
  Rng root(seed);
  for (std::uint64_t id = 0; id < sessions; ++id) {
    server::MulticastServer::SessionSpec spec;
    spec.id = id;
    spec.groups = make_payload(root.split(id), tgs, k, packet_len);
    spec.receivers = 2;
    spec.data_loss = loss;
    spec.seed = root.split(id ^ 0x9E3779B9u)();
    if (!server.submit(spec)) break;
  }

  // Watchdog: a wedged run ends (and shows up as incomplete) instead of
  // hanging the perf leg.
  reactor.add_timer(reactor.now() + 120.0, [&] { reactor.stop(); });

  RunResult res;
  res.wall = bench::time_seconds([&] { reactor.run(); });
  server.snapshot_json();  // folds live fault/pressure counters
  const auto& m = server.server_metrics();
  res.completed = server.completed_sessions();
  res.would_block = m.counter("would_block_total");
  res.deferrals = m.counter("total_arena_deferrals");
  res.suppressed = m.counter("total_naks_suppressed");
  res.p99_bucket_s = histogram_percentile(
      m, "session_duration_seconds",
      {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0}, 0.99);
  const double delivered =
      static_cast<double>(res.completed * tgs * k);
  if (res.wall > 0.0) res.goodput_pps = delivered / res.wall;

  std::filesystem::remove_all(dir);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto base = static_cast<std::size_t>(cli.get_int64("sessions", 4));
  const auto tgs = static_cast<std::size_t>(cli.get_int64("tgs", 6));
  const auto k = static_cast<std::size_t>(cli.get_int64("k", 4));
  const auto packet_len =
      static_cast<std::size_t>(cli.get_int64("packet-len", 64));
  const double loss = cli.get_double("loss", 0.15);
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: server goodput under offered-load sweep",
      std::to_string(base) + " base sessions x {0.5, 1, 2, 4}, " +
          std::to_string(tgs) + " TGs, k=" + std::to_string(k) +
          ", loss " + std::to_string(loss) +
          ", plain vs hardened (1-frame arena + pacing + NAK suppression)",
      "goodput and p99 completion degrade smoothly with load in both "
      "modes; the hardened mode completes the same bytes within bounded "
      "memory, logging the pressure as deferral/pushback counters");

  bench::BenchJson json("ext_overload");
  json.setup("base_sessions", static_cast<std::int64_t>(base));
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(k));
  json.setup("packet_len", static_cast<std::int64_t>(packet_len));
  json.setup("loss", loss);
  json.setup("seed", static_cast<std::int64_t>(seed));

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pbl_ext_overload").string();
  const double multipliers[] = {0.5, 1.0, 2.0, 4.0};

  double total_wall = 0.0;
  std::uint64_t total_packets = 0;
  bool all_complete = true;

  Table t({"load_x", "mode", "sessions", "completed", "wall_s",
           "goodput_pps", "p99_bucket_s", "would_block", "deferrals",
           "suppressed"});
  for (const double mult : multipliers) {
    const auto sessions = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(base) * mult));
    for (const bool hardened : {false, true}) {
      const RunResult r = run_point(dir, hardened, sessions, tgs, k,
                                    packet_len, loss, seed);
      all_complete = all_complete && r.completed == sessions;
      total_wall += r.wall;
      total_packets += r.completed * tgs * k;
      const std::string mode = hardened ? "hardened" : "plain";
      t.add_row({mult, mode, static_cast<long long>(sessions),
                 static_cast<long long>(r.completed), r.wall, r.goodput_pps,
                 r.p99_bucket_s, static_cast<long long>(r.would_block),
                 static_cast<long long>(r.deferrals),
                 static_cast<long long>(r.suppressed)});
      json.point({{"load_x", mult},
                  {"mode", mode},
                  {"sessions", static_cast<std::int64_t>(sessions)},
                  {"completed", r.completed},
                  {"wall_s", r.wall},
                  {"goodput_pps", r.goodput_pps},
                  {"p99_bucket_s", r.p99_bucket_s},
                  {"would_block", r.would_block},
                  {"deferrals", r.deferrals},
                  {"suppressed", r.suppressed}});
    }
  }

  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu data packets delivered, %.3f s total server time, "
              "%.3g pkts/s%s\n",
              static_cast<unsigned long long>(total_packets), total_wall,
              total_wall > 0.0
                  ? static_cast<double>(total_packets) / total_wall
                  : 0.0,
              all_complete ? "" : "  [INCOMPLETE RUNS]");

  json.setup("all_complete", all_complete);
  json.perf(1, total_wall, total_packets);
  if (!json.write_file(json_path)) return 1;
  return all_complete ? 0 : 1;
}
