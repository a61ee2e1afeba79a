// Ablation: how much of integrated FEC 2's burst-resistance comes from
// the feedback gap T spreading parity rounds in time (the "interleaving"
// effect of Fig. 13/16).  We sweep T from 0 (back-to-back rounds, close
// to FEC 1) upward and watch E[M] under burst loss for small and large k.
#include <cstdio>

#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.02);
  const double burst = cli.get_double("b", 3.0);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("R", 1000));
  const std::int64_t tgs = cli.get_int64("tgs", 400);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Ablation: feedback gap T as implicit interleaving (integrated FEC 2)",
      "p = " + std::to_string(p) + ", mean burst = " + std::to_string(burst) +
          ", R = " + std::to_string(receivers) + ", delta = 40 ms",
      "k = 7 benefits from a larger T (parity rounds bridge bursts); "
      "k = 100 needs no interleaving (the block already spans bursts)");

  Table t({"gap_ms", "fec2_k7", "fec2_k100"});
  for (const double gap_ms : {0.0, 40.0, 100.0, 300.0, 1000.0}) {
    std::vector<Table::Cell> row{gap_ms};
    for (const std::int64_t k : {7, 100}) {
      protocol::McConfig cfg;
      cfg.k = k;
      cfg.num_tgs = std::max<std::int64_t>(20, tgs * 7 / k);
      cfg.timing.delta = 0.040;
      cfg.timing.gap = gap_ms / 1000.0;
      const auto gilbert =
          loss::GilbertLossModel::from_packet_stats(p, burst, cfg.timing.delta);
      protocol::ProcessBatchTransmitter tx(
          gilbert, receivers,
          Rng(9).split(static_cast<std::uint64_t>(gap_ms * 10 + k)));
      row.emplace_back(protocol::sim_integrated_naks(tx, cfg).mean_tx);
    }
    t.add_row(std::move(row));
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
