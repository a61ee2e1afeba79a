// ext_e2e: end-to-end benchmark of the reactor server (bench/e2e/README.md).
//
// One workload per process, on one thread.  A real server::MulticastServer
// runs over loopback UDP, and this file's own closed loop around
// Reactor::poll_once() tops admissions back up to the workload's
// concurrency.  Results come only through the server's public API:
// session_metrics(id), the np.on_tg_completed hook, getrusage and the
// thread CPU clock.
//
//   ext_e2e --workload=<bulk|many|repair|hardened> --seed=<n>
//           [--seconds=<t>] [--scale=<f>] [--workdir=<dir>]
//           [--trace=<spans.json>]
//
// Untraced, one run of the workload gives the end-to-end metrics.  With
// --trace the run is split in two halves on identical inputs, one
// untraced (layer counts, and the base for trace.overhead_pct) and one
// with spans around every call into the server; then each layer's public
// functions are replayed on the workload's shapes (replay.cpp) and mapped
// onto Section 5's cost terms.  Spans go to the --trace file, self time
// per span name to stdout.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}), plus the workload, seed, fail_ratio
// and the sample counts behind each percentile.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "replay.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace pbl;
using e2e::Workload;

namespace {

// Why each mix exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    // name      R   k   h   len   loss  tgs   C  sessions/s  hardened
    {"bulk", 4, 32, 32, 1400, 0.02, 100, 1, 2.0, false},
    {"many", 4, 8, 16, 64, 0.05, 20, 64, 75.0, false},
    {"repair", 16, 16, 48, 512, 0.10, 100, 1, 1.3, false},
    {"hardened", 4, 16, 32, 512, 0.05, 20, 16, 17.0, true},
};

/// Setup repetitions on each CPU per run (measure_setup).
constexpr std::size_t kSetupRepsPerCpu = 4;
/// How long the loop stays on one CPU before CpuRotation moves it on [s].
constexpr double kRotateEvery = 0.25;

double now_s() { return static_cast<double>(e2e::mono_ns()) * 1e-9; }

/// Pins the calling thread to each CPU the process may use in turn, and
/// restores the original affinity when destroyed.  On a shared host one
/// CPU can run much slower than another for minutes, and the scheduler
/// keeps a single-threaded process where it is, so an unpinned run reports
/// whichever CPU it landed on; rotating samples every CPU equally.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() { ::sched_setaffinity(0, sizeof allowed_, &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t cpus() const noexcept { return cpus_.size(); }
  void next() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Plan {
  std::size_t sessions = 1;
  std::size_t tgs = 1;
};

/// A run holds rate x seconds x scale sessions of the workload's shape;
/// below one session the single session shrinks instead (smoke runs).
Plan plan_for(const Workload& w, double seconds, double scale) {
  const double work = w.sessions_per_s * seconds * scale;
  if (work >= 1.0) return {static_cast<std::size_t>(std::lround(work)), w.tgs};
  return {1, std::max<std::size_t>(
                 2, static_cast<std::size_t>(
                        std::ceil(static_cast<double>(w.tgs) * work)))};
}

server::ServerConfig make_config(const Workload& w,
                                 const std::string& journal_dir,
                                 std::function<void(std::size_t)> on_tg) {
  server::ServerConfig cfg;
  cfg.max_sessions = w.concurrency;
  cfg.np.k = w.k;
  cfg.np.h = w.h;
  cfg.np.packet_len = w.packet_len;
  cfg.np.poll_window = e2e::kPollWindow;
  cfg.np.reliable_control = true;
  cfg.np.on_tg_completed = std::move(on_tg);
  if (w.hardened) {
    cfg.journal_dir = journal_dir;  // journal_sync_every stays 0
    cfg.np.guard.enabled = true;
    cfg.np.guard.auth = true;
    cfg.np.overload.nak_suppression = true;
  }
  return cfg;
}

/// Session `id` of the run seeded `seed`: the same pair always yields the
/// same payload and protocol seed.
server::MulticastServer::SessionSpec make_session(const Workload& w,
                                                  std::size_t tgs,
                                                  std::uint64_t seed,
                                                  std::uint64_t id) {
  Rng rng = Rng(seed).split(id);
  server::MulticastServer::SessionSpec spec;
  spec.id = id;
  spec.receivers = w.receivers;
  spec.data_loss = w.loss;
  spec.seed = rng();
  spec.groups.resize(tgs);
  for (auto& tg : spec.groups) {
    tg.resize(w.k);
    for (auto& pkt : tg) {
      pkt.resize(w.packet_len);
      for (std::size_t i = 0; i < pkt.size(); i += 8) {
        const std::uint64_t v = rng();
        std::memcpy(pkt.data() + i, &v,
                    std::min<std::size_t>(8, pkt.size() - i));
      }
    }
  }
  return spec;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Linear-interpolated percentile (q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Sums of the per-session counters over every session of a pass.
struct Counters {
  std::uint64_t data = 0, parity = 0, polls = 0, naks = 0, acks = 0;
  std::uint64_t poll_retries = 0, nak_retries = 0, duplicates = 0;
  std::uint64_t would_block = 0, suppressed = 0, peer_rejected = 0;
  std::uint64_t mismatches = 0, redelivered = 0, tgs_completed = 0;
};

/// One closed-loop pass over `plan.sessions` sessions.  Times exclude the
/// benchmark's own payload generation (its input).
struct Pass {
  double wall = 0.0;        ///< first submit to last finalize [s]
  double cpu = 0.0;         ///< process user + sys over that interval [s]
  double sys = 0.0;
  double thread_cpu = 0.0;  ///< the loop thread's CPU [s]
  long invol_csw = 0;
  std::uint64_t attempted = 0, failed = 0, verified_bytes = 0;
  std::uint64_t loop_iters = 0;
  std::vector<double> tg_ms, session_ms;
  std::vector<double> loop_busy_us, submit_us;  ///< traced pass only
  Counters sums;
  bool hook_in_order = true;
  bool refused = false;
  bool watchdog = false;

  double goodput_MBps() const {
    return static_cast<double>(verified_bytes) / wall / 1e6;
  }
};

Pass run_pass(const Workload& w, const Plan& plan, std::uint64_t seed,
              const std::string& workdir, e2e::Tracer* tracer,
              double watchdog_s) {
  Pass out;
  out.attempted = plan.sessions;
  e2e::Tracer::NameId span_run = 0, span_input = 0, span_submit = 0,
                      span_poll = 0, span_metrics = 0;
  if (tracer) {
    span_run = tracer->intern("run");
    span_input = tracer->intern("bench.make_session");
    span_submit = tracer->intern("server.submit");
    span_poll = tracer->intern("server.poll_once");
    span_metrics = tracer->intern("server.session_metrics");
  }
  e2e::ScopedSpan run_span(tracer, span_run);

  // Per-TG times come from the completion hook when sessions run one at a
  // time: the hook does not say which session completed a TG, and the
  // journal takes the hook over on `hardened`.
  const bool tg_hook = w.concurrency == 1 && !w.hardened;
  double tg_last = 0.0;
  std::size_t tg_next = 0;
  auto on_tg = [&](std::size_t tg) {
    const double t = now_s();
    if (tg != tg_next) out.hook_in_order = false;
    out.tg_ms.push_back((t - tg_last) * 1e3);
    tg_last = t;
    tg_next = tg + 1;
  };

  const std::string journal_dir = workdir + "/journals";
  if (w.hardened) reset_dir(journal_dir);
  server::Reactor reactor;
  server::MulticastServer server(
      reactor, make_config(w, journal_dir,
                           tg_hook ? std::function<void(std::size_t)>(on_tg)
                                   : nullptr));

  double input_wall = 0.0, input_cpu = 0.0;
  rusage ru0{}, ru1{};
  ::getrusage(RUSAGE_SELF, &ru0);
  const std::int64_t cpu0 = e2e::thread_cpu_ns();
  const double t0 = now_s();
  const double deadline = t0 + watchdog_s;
  CpuRotation rotation;
  double rotate_at = t0;
  std::uint64_t next = 0;
  for (;;) {
    const double now = now_s();
    if (now > deadline) {
      out.watchdog = true;
      break;
    }
    if (now >= rotate_at) {
      rotation.next();
      rotate_at = now + kRotateEvery;
    }
    while (!out.refused && next < plan.sessions &&
           server.active_sessions() < w.concurrency) {
      const double g0 = now_s();
      const std::int64_t c0 = e2e::thread_cpu_ns();
      server::MulticastServer::SessionSpec spec;
      {
        e2e::ScopedSpan span(tracer, span_input);
        spec = make_session(w, plan.tgs, seed, next);
      }
      input_cpu += static_cast<double>(e2e::thread_cpu_ns() - c0) * 1e-9;
      input_wall += now_s() - g0;
      tg_last = now_s();  // TG 0 is measured from submit
      tg_next = 0;
      const std::int64_t s0 = e2e::mono_ns();
      {
        e2e::ScopedSpan span(tracer, span_submit);
        out.refused = !server.submit(std::move(spec));
      }
      if (tracer)
        out.submit_us.push_back(static_cast<double>(e2e::mono_ns() - s0) *
                                1e-3);
      if (!out.refused) ++next;
    }
    if (out.refused || (next >= plan.sessions && server.active_sessions() == 0))
      break;
    if (tracer) {
      const std::int64_t c0 = e2e::thread_cpu_ns();
      {
        e2e::ScopedSpan span(tracer, span_poll);
        reactor.poll_once(0.05);
      }
      out.loop_busy_us.push_back(
          static_cast<double>(e2e::thread_cpu_ns() - c0) * 1e-3);
    } else {
      reactor.poll_once(0.05);
    }
    ++out.loop_iters;
  }
  const double t1 = now_s();
  const std::int64_t cpu1 = e2e::thread_cpu_ns();
  ::getrusage(RUSAGE_SELF, &ru1);

  out.wall = t1 - t0 - input_wall;
  out.sys = cpu_seconds(ru1.ru_stime) - cpu_seconds(ru0.ru_stime);
  out.cpu = cpu_seconds(ru1.ru_utime) - cpu_seconds(ru0.ru_utime) + out.sys -
            input_cpu;
  out.thread_cpu = static_cast<double>(cpu1 - cpu0) * 1e-9 - input_cpu;
  out.invol_csw = ru1.ru_nivcsw - ru0.ru_nivcsw;

  e2e::ScopedSpan span(tracer, span_metrics);
  const std::uint64_t session_bytes = plan.tgs * w.k * w.packet_len;
  Counters& s = out.sums;
  for (std::uint64_t id = 0; id < next; ++id) {
    const obs::MetricsRegistry& m = server.session_metrics(id);
    s.data += m.counter("data_sent");
    s.parity += m.counter("parity_sent");
    s.polls += m.counter("polls_sent");
    s.naks += m.counter("naks_received");
    s.acks += m.counter("acks_received");
    s.poll_retries += m.counter("poll_retries");
    s.nak_retries += m.counter("receiver_nak_retries");
    s.duplicates += m.counter("receiver_duplicates");
    s.would_block += m.counter("would_block");
    s.suppressed += m.counter("naks_suppressed");
    s.peer_rejected += m.counter("peer_rejected");
    s.mismatches += m.counter("payload_mismatches");
    s.redelivered += m.counter("redelivered_prior");
    s.tgs_completed += m.counter("tgs_completed");
    const bool verified = m.text("state") == "completed" &&
                          m.counter("payload_mismatches") == 0 &&
                          m.counter("redelivered_prior") == 0;
    if (!verified) {
      using ull = unsigned long long;
      std::fprintf(stderr,
                   "ext_e2e: session %llu %s (end %s): evictions %llu, "
                   "unconfirmed TGs %llu, exhausted TGs %llu\n",
                   static_cast<ull>(id), m.text("state").c_str(),
                   m.text("end_reason").c_str(),
                   static_cast<ull>(m.counter("evictions")),
                   static_cast<ull>(m.counter("tgs_unconfirmed")),
                   static_cast<ull>(m.counter("tgs_exhausted")));
      continue;
    }
    out.verified_bytes += session_bytes;
    const double ms = m.gauge("duration_seconds") * 1e3;
    out.session_ms.push_back(ms);
    if (!tg_hook) out.tg_ms.push_back(ms / static_cast<double>(plan.tgs));
  }
  out.failed = plan.sessions - out.verified_bytes / session_bytes;
  return out;
}

struct Setup {
  double seconds = 0.0;
  std::size_t samples = 0;
};

/// Reactor + server construction and the first wave of submit() calls,
/// repeated on every CPU in turn; the payloads are built beforehand (they
/// are the benchmark's input).  The result is the median of the
/// repetitions on the least-contended CPU: on a shared host set-up runs up
/// to 1.5x slower on a CPU whose sibling is busy, and which CPUs those are
/// changes by the minute.
Setup measure_setup(const Workload& w, const Plan& plan, std::uint64_t seed,
                    const std::string& workdir, std::size_t reps_per_cpu) {
  const std::string journal_dir = workdir + "/journals";
  std::vector<server::MulticastServer::SessionSpec> wave;
  for (std::uint64_t id = 0; id < std::min(plan.sessions, w.concurrency); ++id)
    wave.push_back(make_session(w, plan.tgs, seed, id));
  CpuRotation rotation;  // repetition i runs on the (i mod cpus)-th CPU
  std::vector<std::vector<double>> per_cpu(rotation.cpus());
  for (std::size_t i = 0; i < rotation.cpus() * reps_per_cpu; ++i) {
    rotation.next();
    if (w.hardened) reset_dir(journal_dir);
    auto specs = wave;
    const double t0 = now_s();
    auto reactor = std::make_unique<server::Reactor>();
    auto server = std::make_unique<server::MulticastServer>(
        *reactor, make_config(w, journal_dir, nullptr));
    for (auto& spec : specs)
      if (!server->submit(std::move(spec)))
        throw std::runtime_error("setup: first-wave submit refused");
    per_cpu[i % per_cpu.size()].push_back(now_s() - t0);
    server.reset();
    reactor.reset();
  }
  Setup s;
  s.seconds = percentile(per_cpu.front(), 50);
  for (const auto& reps : per_cpu) {
    s.seconds = std::min(s.seconds, percentile(reps, 50));
    s.samples += reps.size();
  }
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Fails the run on a measurement that cannot be a valid metric.
void add(std::vector<Metric>& out, std::string name, std::string unit,
         double value) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  out.push_back({std::move(name), std::move(unit), value});
}

double per_tg(std::uint64_t count, const Pass& p) {
  return static_cast<double>(count) /
         static_cast<double>(std::max<std::uint64_t>(p.sums.tgs_completed, 1));
}

std::vector<Metric> end_to_end_metrics(const Pass& p, double setup_s) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  std::vector<Metric> m;
  add(m, "goodput_MBps", "MB/s", p.goodput_MBps());
  add(m, "tg_latency_p50_ms", "ms", percentile(p.tg_ms, 50));
  add(m, "session_latency_p50_ms", "ms", percentile(p.session_ms, 50));
  add(m, "session_latency_p95_ms", "ms", percentile(p.session_ms, 95));
  add(m, "tx_per_packet", "ratio",
      static_cast<double>(p.sums.data + p.sums.parity) /
          static_cast<double>(p.sums.data));
  add(m, "peak_rss_MB", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0);
  add(m, "setup_s", "s", setup_s);
  return m;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const Pass& a,
                                      const Pass& b, const e2e::StageCosts& s) {
  const Counters& c = a.sums;
  const double r = static_cast<double>(w.receivers);
  std::vector<Metric> m;
  add(m, "server.cpu_ms_per_MB", "ms/MB",
      a.cpu * 1e3 / (static_cast<double>(a.verified_bytes) / 1e6));
  add(m, "server.cpu_busy_share", "ratio", a.cpu / a.wall);
  add(m, "server.sys_share", "ratio", a.sys / a.cpu);
  add(m, "server.tg_latency_p99_ms", "ms", percentile(a.tg_ms, 99));
  add(m, "server.invol_ctx_switches", "count",
      static_cast<double>(a.invol_csw));
  add(m, "server.polls_per_tg", "count/TG", per_tg(c.polls, a));
  add(m, "server.poll_retries_per_tg", "count/TG", per_tg(c.poll_retries, a));
  add(m, "server.nak_retries_per_tg", "count/TG", per_tg(c.nak_retries, a));
  add(m, "server.naks_per_tg", "count/TG", per_tg(c.naks, a));
  add(m, "server.acks_per_tg", "count/TG", per_tg(c.acks, a));
  add(m, "server.loop_iters_per_tg", "count/TG", per_tg(a.loop_iters, a));
  add(m, "server.dup_ratio", "ratio",
      static_cast<double>(c.duplicates) /
          (static_cast<double>(c.data + c.parity) * r));
  add(m, "server.loop_busy_us_p50", "us", percentile(b.loop_busy_us, 50));
  add(m, "server.loop_busy_us_p99", "us", percentile(b.loop_busy_us, 99));
  add(m, "server.loop_wait_share", "ratio", 1.0 - b.thread_cpu / b.wall);
  add(m, "server.submit_us_p50", "us", percentile(b.submit_us, 50));
  add(m, "server.timer_ns", "ns", s.timer * 1e9);
  add(m, "server.dispatch_ns", "ns", s.dispatch * 1e9);
  add(m, "fec.parity_per_tg", "count/TG", per_tg(c.parity, a));
  add(m, "fec.data_frame_ns", "ns", s.data_frame * 1e9);
  add(m, "fec.parse_ns", "ns", s.parse * 1e9);
  add(m, "fec.parity_frame_ns", "ns", s.parity_frame * 1e9);
  add(m, "fec.decode_us_per_tg", "us", s.decode_per_tg * 1e6);
  add(m, "net.udp.send_ns_per_frame", "ns", s.send_per_frame * 1e9);
  add(m, "net.udp.recv_ns_per_frame", "ns", s.recv_per_frame * 1e9);
  add(m, "net.udp.send_to_ns", "ns", s.send_to * 1e9);
  add(m, "net.udp.arena_ns", "ns", s.arena * 1e9);
  add(m, "net.udp.would_block", "count", static_cast<double>(c.would_block));
  add(m, "net.guard_check_ns", "ns", s.guard_check * 1e9);
  add(m, "net.naks_suppressed", "count", static_cast<double>(c.suppressed));
  add(m, "core.journal_append_ns", "ns", s.journal_append * 1e9);

  const e2e::ModelTerms model = e2e::model_terms(w, s);
  const analysis::ProcessingCosts& t = model.costs;
  add(m, "model.xp_us", "us", t.xp * 1e6);
  add(m, "model.yp_us", "us", t.yp * 1e6);
  add(m, "model.xn_us", "us", t.xn * 1e6);
  add(m, "model.yn_us", "us", t.yn * 1e6);
  add(m, "model.xt_us", "us", t.xt * 1e6);
  add(m, "model.ce_us", "us", t.ce * 1e6);
  add(m, "model.cd_us", "us", t.cd * 1e6);
  const double packets =
      static_cast<double>(a.verified_bytes) / static_cast<double>(w.packet_len);
  add(m, "model.cpu_coverage", "ratio",
      model.cpu_per_packet / (a.cpu / packets));
  // Fig 13 timing: a TG costs its poll windows plus its CPU; concurrent
  // sessions overlap the windows but share the one CPU.
  const double k = static_cast<double>(w.k);
  const double cpu_tg = k * model.cpu_per_packet;
  const double tg_time = per_tg(c.polls, a) * e2e::kPollWindow + cpu_tg;
  const double tgs_per_s =
      std::min(static_cast<double>(w.concurrency) / tg_time, 1.0 / cpu_tg);
  add(m, "model.goodput_pred_MBps", "MB/s",
      tgs_per_s * k * static_cast<double>(w.packet_len) / 1e6);
  add(m, "trace.overhead_pct", "%",
      (a.goodput_MBps() - b.goodput_MBps()) / a.goodput_MBps() * 100.0);
  return m;
}

/// Correctness of a pass: every delivered byte verified, nothing
/// redelivered, no honest peer rejected, the TG hook in order.  Failed
/// sessions are counted, not incorrect.
bool pass_correct(const Pass& p, const char* label) {
  bool ok = true;
  const auto fail = [&](const char* why) {
    std::fprintf(stderr, "ext_e2e: %s pass: %s\n", label, why);
    ok = false;
  };
  if (p.sums.mismatches) fail("payload mismatches");
  if (p.sums.redelivered) fail("exactly-once violations (redelivered_prior)");
  if (p.sums.peer_rejected) fail("the guard rejected honest feedback");
  if (!p.hook_in_order) fail("on_tg_completed out of TG order");
  if (p.refused) fail("a submit() below the admission cap was refused");
  if (p.watchdog)
    std::fprintf(stderr, "ext_e2e: %s pass: watchdog fired\n", label);
  if (p.sums.data == 0) fail("no data sent");
  return ok;
}

void print_summary(const Workload& w, const Plan& plan, const Pass& p,
                   const char* label) {
  std::printf(
      "%s pass: %llu sessions x %zu TGs (R=%zu k=%zu h=%zu %zu B p=%.2f C=%zu)"
      " in %.3f s, %llu failed, %zu TG samples, %zu session samples\n",
      label, static_cast<unsigned long long>(p.attempted), plan.tgs,
      w.receivers, w.k, w.h, w.packet_len, w.loss, w.concurrency, p.wall,
      static_cast<unsigned long long>(p.failed), p.tg_ms.size(),
      p.session_ms.size());
}

std::string result_json(const Workload& w, std::uint64_t seed, bool correct,
                        std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics,
                        const std::map<std::string, std::size_t>& samples) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    obs::append_json_escaped(out, metrics[i].name);
    out += ": {\"value\": ";
    obs::append_json_double(out, metrics[i].value);
    out += ", \"unit\": ";
    obs::append_json_escaped(out, metrics[i].unit);
    out += "}";
  }
  out += "}, \"workload\": ";
  obs::append_json_escaped(out, w.name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"fail_ratio\": ";
  obs::append_json_double(
      out, static_cast<double>(failed) / static_cast<double>(attempted));
  out += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : samples) {
    if (!first) out += ", ";
    first = false;
    obs::append_json_escaped(out, name);
    out += ": " + std::to_string(n);
  }
  out += "}}";
  return out;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const double scale = cli.get_double("scale", 1.0);
  const std::string workdir = cli.get_string("workdir", "ext_e2e_work");
  const std::string trace_path = cli.get_string("trace", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (cand.name == name) w = &cand;
  if (!w || !(seconds > 0.0) || !(scale > 0.0)) {
    std::fprintf(stderr,
                 "usage: ext_e2e --workload=<bulk|many|repair|hardened> "
                 "--seed=<n> [--seconds=<t>] [--scale=<f>] [--workdir=<dir>] "
                 "[--trace=<spans.json>]\n");
    return 2;
  }
  const bool own_workdir = std::filesystem::create_directories(workdir);
  const bool traced = !trace_path.empty();
  const double watchdog_s = std::min(120.0, 10.0 + 6.0 * seconds * scale);

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::size_t> samples;
  if (!traced) {
    const Plan plan = plan_for(*w, seconds, scale);
    const Setup setup = measure_setup(*w, plan, seed, workdir,
                                      scale < 1.0 ? 1 : kSetupRepsPerCpu);
    const Pass p = run_pass(*w, plan, seed, workdir, nullptr, watchdog_s);
    print_summary(*w, plan, p, "untraced");
    correct = pass_correct(p, "untraced");
    attempted = p.attempted;
    failed = p.failed;
    metrics = end_to_end_metrics(p, setup.seconds);
    samples = {{"tg_latency", p.tg_ms.size()},
               {"session_latency", p.session_ms.size()},
               {"setup", setup.samples}};
  } else {
    // Two halves on identical inputs: untraced, then traced.
    const Plan plan = plan_for(*w, seconds / 2.0, scale);
    const Pass a = run_pass(*w, plan, seed, workdir, nullptr, watchdog_s);
    print_summary(*w, plan, a, "untraced");
    e2e::Tracer tracer;
    const Pass b = run_pass(*w, plan, seed, workdir, &tracer, watchdog_s);
    print_summary(*w, plan, b, "traced");
    const e2e::StageCosts stages =
        e2e::replay_stages(*w, seed, scale, workdir, tracer);
    const bool a_correct = pass_correct(a, "untraced");
    correct = pass_correct(b, "traced") && a_correct;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    metrics = per_layer_metrics(*w, a, b, stages);
    samples = {{"tg_latency", a.tg_ms.size()},
               {"loop_iterations", b.loop_busy_us.size()},
               {"submits", b.submit_us.size()},
               {"spans", tracer.size()}};
    std::printf("%s", tracer.self_time_table().c_str());
    if (!tracer.write_json(trace_path, std::string(w->name)))
      throw std::runtime_error("cannot write " + trace_path);
  }
  std::filesystem::remove_all(own_workdir ? workdir : workdir + "/journals");

  for (const Metric& m : metrics)
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", result_json(*w, seed, correct, attempted, failed,
                                  metrics, samples)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ext_e2e: %s\n", e.what());
    return 1;
  }
}
