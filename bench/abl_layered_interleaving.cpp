// Ablation: explicit block interleaving as the cure for layered FEC's
// burst-loss collapse (Fig. 15), and its latency price.  The paper names
// interleaving as "a well-known technique that allows FEC to deal with
// burst loss" but only evaluates the implicit interleaving of integrated
// FEC 2; this ablation runs the real thing on the layered scheme.
#include <cstdio>

#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const double burst = cli.get_double("b", 2.0);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("R", 1000));
  const std::int64_t tgs = cli.get_int64("tgs", 600);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.h = 1;
  cfg.num_tgs = tgs;

  bench::banner(
      "Ablation: interleaving depth vs layered FEC under burst loss",
      "p = " + std::to_string(p) + ", mean burst = " + std::to_string(burst) +
          ", k = 7, h = 1, R = " + std::to_string(receivers),
      "E[M] falls from the Fig. 15 collapse towards the independent-loss "
      "value as depth grows; delivery latency grows with depth");

  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, burst, cfg.timing.delta);

  // References: no-FEC under the same bursts, layered under iid loss.
  double nofec_ref = 0.0, indep_ref = 0.0;
  {
    protocol::McConfig nc = cfg;
    nc.h = 0;
    protocol::ProcessBatchTransmitter t0(gilbert, receivers, Rng(2));
    nofec_ref = protocol::sim_nofec(t0, nc).mean_tx;
    loss::BernoulliLossModel iid(p);
    protocol::ProcessBatchTransmitter t1(iid, receivers, Rng(3));
    indep_ref = protocol::sim_layered(t1, cfg).mean_tx;
  }
  std::printf("references: no-FEC under bursts = %.4f, layered under "
              "independent loss = %.4f\n",
              nofec_ref, indep_ref);

  Table t({"depth", "layered_EM", "mean_latency_s"});
  for (const std::size_t depth : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    protocol::ProcessBatchTransmitter tx(gilbert, receivers, Rng(100 + depth));
    const auto res = protocol::sim_layered_interleaved(tx, cfg, depth);
    t.add_row({static_cast<long long>(depth), res.mean_tx, res.mean_time});
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
