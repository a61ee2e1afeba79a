// Figure 15: reliable multicast under BURST loss (two-state Markov,
// mean burst 2) — no FEC versus layered FEC with low (h = 1) and high
// (h = 3) redundancy, k = 7, p = 0.01, delta = 40 ms, T = 300 ms.
//
// The paper's headline negative result: with bursts, layered FEC (7+1)
// performs WORSE than no FEC.
#include <cstdio>

#include "analysis/burst.hpp"
#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const double burst = cli.get_double("b", 2.0);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t rmax = cli.get_int64("rmax", 10000);
  const std::int64_t tgs = cli.get_int64("tgs", 400);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  protocol::Timing timing;  // delta = 40 ms, T = 300 ms (paper Section 4.2)

  bench::banner(
      "Figure 15: burst loss and layered FEC",
      "p = " + std::to_string(p) + ", mean burst = " + std::to_string(burst) +
          ", k = " + std::to_string(k) + ", delta = 40 ms, T = 300 ms, " +
          std::to_string(tgs) + " TGs per point (simulation)",
      "layered FEC (7+1) is worse than no FEC under burst loss; (7+3) "
      "recovers some ground at large R");

  const auto gilbert =
      loss::GilbertLossModel::from_packet_stats(p, burst, timing.delta);

  Table t({"R", "no_fec", "layered_7p1", "layered_7p3", "model_7p1",
           "model_7p3"});
  for (const std::int64_t r : bench::log_grid(1, rmax, 2)) {
    const auto receivers = static_cast<std::size_t>(r);
    protocol::McConfig cfg;
    cfg.k = k;
    cfg.num_tgs = r >= 1000 ? std::max<std::int64_t>(60, tgs / 4) : tgs;
    cfg.timing = timing;

    protocol::ProcessBatchTransmitter tx0(gilbert, receivers,
                                          Rng(seed).split(3 * r));
    const auto nofec = protocol::sim_nofec(tx0, cfg);

    cfg.h = 1;
    protocol::ProcessBatchTransmitter tx1(gilbert, receivers,
                                          Rng(seed).split(3 * r + 1));
    const auto l1 = protocol::sim_layered(tx1, cfg);

    cfg.h = 3;
    protocol::ProcessBatchTransmitter tx3(gilbert, receivers,
                                          Rng(seed).split(3 * r + 2));
    const auto l3 = protocol::sim_layered(tx3, cfg);

    const auto rd = static_cast<double>(r);
    t.add_row({static_cast<long long>(r), nofec.mean_tx, l1.mean_tx,
               l3.mean_tx,
               analysis::expected_tx_layered_burst(k, 1, p, burst, rd, timing),
               analysis::expected_tx_layered_burst(k, 3, p, burst, rd,
                                                   timing)});
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
