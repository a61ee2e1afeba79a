// Extension (paper future work): delivery latency of the four recovery
// schemes under the Fig. 13 timing — the quantified version of the
// paper's "we expect a reduction in the required number of transmissions
// will often lead to a reduction in latency".
//
// Columns pair the closed-form latency model (analysis/latency.hpp,
// upper-bound flavoured) with the Monte-Carlo simulators' measured mean
// TG completion times.
#include <cstdio>

#include "analysis/latency.hpp"
#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t h = cli.get_int64("h", 2);
  const std::int64_t rmax = cli.get_int64("rmax", 10000);
  const std::int64_t tgs = cli.get_int64("tgs", 400);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }
  const protocol::Timing timing{};  // delta = 40 ms, T = 300 ms

  bench::banner(
      "Extension: TG delivery latency [s] per scheme",
      "p = " + std::to_string(p) + ", k = " + std::to_string(k) +
          ", layered h = " + std::to_string(h) + ", delta = 40 ms, T = 300 ms",
      "integrated FEC needs fewer rounds AND fewer transmissions, so its "
      "latency advantage exceeds its bandwidth advantage; the stream "
      "scheme (FEC1) is the latency optimum");

  Table t({"R", "nofec_sim", "nofec_model", "layered_sim", "layered_model",
           "fec2_sim", "fec2_model", "fec1_sim", "fec1_model"});
  loss::BernoulliLossModel model(p);
  for (const std::int64_t r : bench::log_grid(1, rmax, 2)) {
    const auto receivers = static_cast<std::size_t>(r);
    const auto rd = static_cast<double>(r);
    protocol::McConfig cfg;
    cfg.k = k;
    cfg.num_tgs = tgs;
    cfg.timing = timing;

    protocol::ProcessBatchTransmitter t0(model, receivers, Rng(1).split(4 * r));
    const auto nofec = protocol::sim_nofec(t0, cfg);
    cfg.h = h;
    protocol::ProcessBatchTransmitter t1(model, receivers,
                                         Rng(1).split(4 * r + 1));
    const auto layered = protocol::sim_layered(t1, cfg);
    cfg.h = 0;
    protocol::ProcessBatchTransmitter t2(model, receivers,
                                         Rng(1).split(4 * r + 2));
    const auto fec2 = protocol::sim_integrated_naks(t2, cfg);
    protocol::ProcessBatchTransmitter t3(model, receivers,
                                         Rng(1).split(4 * r + 3));
    const auto fec1 = protocol::sim_integrated_stream(t3, cfg);

    t.add_row({static_cast<long long>(r),
               nofec.mean_time,
               analysis::expected_latency_nofec(k, p, rd, timing),
               layered.mean_time,
               analysis::expected_latency_layered(k, h, p, rd, timing),
               fec2.mean_time,
               analysis::expected_latency_integrated(k, p, rd, timing),
               fec1.mean_time,
               analysis::expected_latency_stream(k, p, rd, timing)});
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
