// Ablation: how multicast-tree topology shapes the shared-loss effect.
// At equal receiver count and equal per-receiver loss probability, the
// deeper and more shared the tree, the stronger the loss correlation and
// the lower E[M] — the generalisation of Fig. 11/12's FBT finding, and
// the reason the paper's R_indep mapping exists (Section 4.1).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "protocol/rounds.hpp"
#include "tree/multicast_tree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("R", 1024));
  const double p = cli.get_double("p", 0.05);
  const std::int64_t tgs = cli.get_int64("tgs", 300);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Ablation: tree topology vs shared-loss benefit",
      "R = " + std::to_string(receivers) + ", p = " + std::to_string(p) +
          " per receiver, k = 7, simulation",
      "deeper trees share more loss: E[M] falls and the equivalent "
      "independent population R_indep shrinks");

  struct Topology {
    std::string name;
    std::unique_ptr<tree::MulticastTree> tree;  // null = independent loss
  };
  std::vector<Topology> topologies;
  topologies.push_back({"independent", nullptr});
  {
    Rng rng(41);
    topologies.push_back(
        {"random fanout<=16",
         std::make_unique<tree::MulticastTree>(
             tree::MulticastTree::random_split(receivers, 16, rng))});
  }
  {
    Rng rng(42);
    topologies.push_back(
        {"random fanout<=4",
         std::make_unique<tree::MulticastTree>(
             tree::MulticastTree::random_split(receivers, 4, rng))});
  }
  {
    Rng rng(43);
    topologies.push_back(
        {"random binary",
         std::make_unique<tree::MulticastTree>(
             tree::MulticastTree::random_split(receivers, 2, rng))});
  }
  {
    unsigned d = 0;
    while ((std::size_t{1} << (d + 1)) <= receivers) ++d;
    topologies.push_back({"full binary d=" + std::to_string(d),
                          std::make_unique<tree::MulticastTree>(
                              tree::MulticastTree::full_binary(d))});
  }

  Table t({"topology", "height", "nodes", "nofec_EM", "integr_EM", "R_indep"});
  for (const auto& topo : topologies) {
    protocol::McConfig cfg;
    cfg.k = 7;
    cfg.num_tgs = tgs;

    std::unique_ptr<protocol::BatchTransmitter> tx1, tx2;
    loss::BernoulliLossModel iid(p);
    std::size_t height = 0, nodes = 0, leaves = receivers;
    if (topo.tree) {
      height = topo.tree->height();
      nodes = topo.tree->num_nodes();
      leaves = topo.tree->num_leaves();
      const double pn = topo.tree->node_loss_for_leaf_loss(p);
      tx1 = std::make_unique<protocol::TreeBatchTransmitter>(*topo.tree, pn,
                                                             Rng(1));
      tx2 = std::make_unique<protocol::TreeBatchTransmitter>(*topo.tree, pn,
                                                             Rng(2));
    } else {
      nodes = receivers + 1;
      height = 1;
      tx1 = std::make_unique<protocol::ProcessBatchTransmitter>(iid, receivers,
                                                                Rng(1));
      tx2 = std::make_unique<protocol::ProcessBatchTransmitter>(iid, receivers,
                                                                Rng(2));
    }
    (void)leaves;
    const auto nofec = protocol::sim_nofec(*tx1, cfg);
    const auto integ = protocol::sim_integrated_naks(*tx2, cfg);
    const double r_indep =
        core::equivalent_independent_receivers(p, nofec.mean_tx);
    t.add_row({topo.name, static_cast<long long>(height),
               static_cast<long long>(nodes), nofec.mean_tx, integ.mean_tx,
               r_indep});
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  return 0;
}
