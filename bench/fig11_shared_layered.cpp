// Figure 11: layered FEC (k = 7, h = 1) compared with no-FEC under
// independent loss and under FBT shared loss, p = 0.01, R = 2^d receivers
// (simulation, as in the paper).
//
// Default depth range is the paper's full 0..17 (131072 receivers);
// pass --dmax to shorten or extend the sweep.
#include <cstdio>

#include "bench_common.hpp"
#include "protocol/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const int dmax = cli.get_int("dmax", 17);
  const std::int64_t k = cli.get_int64("k", 7);
  const std::int64_t h = cli.get_int64("h", 1);
  const std::int64_t tgs = cli.get_int64("tgs", 200);
  const std::uint64_t seed = cli.get_int64("seed", 1);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Figure 11: layered FEC under independent vs FBT shared loss",
      "p = " + std::to_string(p) + ", k = " + std::to_string(k) + ", h = " +
          std::to_string(h) + ", R = 2^d for d = 0.." + std::to_string(dmax) +
          ", " + std::to_string(tgs) + " TGs per point (simulation)",
      "shared loss lowers E[M] for every scheme; layered FEC needs R > ~60 "
      "to beat no-FEC under shared loss versus R > ~20 under independent "
      "loss");

  protocol::McConfig nofec_cfg;
  nofec_cfg.k = k;
  nofec_cfg.num_tgs = tgs;
  protocol::McConfig layered_cfg = nofec_cfg;
  layered_cfg.h = h;

  Table t({"R", "nofec_indep", "nofec_fbt", "layered_indep", "layered_fbt"});
  for (int d = 0; d <= dmax; ++d) {
    const std::size_t receivers = std::size_t{1} << d;
    // Fewer samples at the largest trees keep the runtime bounded; the
    // max over many receivers concentrates, so the CI stays small.
    protocol::McConfig nc = nofec_cfg, lc = layered_cfg;
    if (d >= 12) {
      nc.num_tgs = std::max<std::int64_t>(30, tgs / 4);
      lc.num_tgs = nc.num_tgs;
    }

    loss::BernoulliLossModel iid(p);
    const auto tree = tree::MulticastTree::full_binary(static_cast<unsigned>(d));
    const double p_node = tree.node_loss_for_leaf_loss(p);

    protocol::ProcessBatchTransmitter iid_tx1(iid, receivers,
                                              Rng(seed).split(2 * d));
    protocol::ProcessBatchTransmitter iid_tx2(iid, receivers,
                                              Rng(seed).split(2 * d + 1));
    protocol::TreeBatchTransmitter fbt_tx1(tree, p_node,
                                           Rng(seed).split(100 + 2 * d));
    protocol::TreeBatchTransmitter fbt_tx2(tree, p_node,
                                      Rng(seed).split(101 + 2 * d));

    const auto nofec_indep = protocol::sim_nofec(iid_tx1, nc);
    const auto nofec_fbt = protocol::sim_nofec(fbt_tx1, nc);
    const auto layered_indep = protocol::sim_layered(iid_tx2, lc);
    const auto layered_fbt = protocol::sim_layered(fbt_tx2, lc);

    t.add_row({static_cast<long long>(receivers), nofec_indep.mean_tx,
               nofec_fbt.mean_tx, layered_indep.mean_tx, layered_fbt.mean_tx});
  }
  t.set_precision(5);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
