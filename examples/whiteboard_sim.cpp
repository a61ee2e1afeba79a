// Collaborative-whiteboard workload (the paper's intro motivates reliable
// multicast with wb-style applications): a stream of SMALL updates, each
// a transmission group of its own, where what matters is not only the
// bandwidth but how quickly EVERY participant sees each update.
//
// Compares protocol NP (hybrid ARQ) with the N2-style ARQ baseline on
// per-update delivery latency and bandwidth, under bursty loss.
//
//   $ ./whiteboard_sim --receivers=40 --updates=50 --p=0.05 --burst=2
#include <cstdio>
#include <memory>

#include "loss/loss_model.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 40));
  const std::size_t updates =
      static_cast<std::size_t>(cli.get_int64("updates", 50));
  const double p = cli.get_double("p", 0.05);
  const double burst = cli.get_double("burst", 2.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  // A whiteboard update: a handful of small packets.
  protocol::NpConfig np_cfg;
  np_cfg.k = 4;
  np_cfg.h = 32;
  np_cfg.packet_len = 128;
  np_cfg.delta = 0.002;   // 500 pkts/s session
  np_cfg.slot = 0.004;
  np_cfg.adaptive = true;  // tune redundancy to whatever the network does

  std::unique_ptr<loss::LossModel> model;
  if (burst > 1.0) {
    model = std::make_unique<loss::GilbertLossModel>(
        loss::GilbertLossModel::from_packet_stats(p, burst, np_cfg.delta));
  } else {
    model = std::make_unique<loss::BernoulliLossModel>(p);
  }

  std::printf("whiteboard: %zu participants, %zu updates of %zu x %zu B, "
              "p = %g%s\n\n",
              receivers, updates, np_cfg.k, np_cfg.packet_len, p,
              burst > 1.0 ? " (bursty)" : "");

  protocol::NpSession np(*model, receivers, updates, np_cfg, seed);
  const auto nps = np.run();
  std::printf("protocol NP (adaptive): %s\n",
              nps.all_delivered ? "every participant saw every update"
                                : "DELIVERY FAILED");
  std::printf("  update latency %.1f ms mean / %.1f ms p95 | %.3f tx/packet "
              "| %llu NAKs | adapted to a = %.0f proactive parities\n",
              1e3 * nps.mean_tg_latency, 1e3 * nps.p95_tg_latency,
              nps.tx_per_packet,
              static_cast<unsigned long long>(nps.receivers.naks_sent),
              nps.final_proactive);

  protocol::ArqConfig arq_cfg;
  arq_cfg.k = np_cfg.k;
  arq_cfg.packet_len = np_cfg.packet_len;
  arq_cfg.delta = np_cfg.delta;
  arq_cfg.slot = np_cfg.slot;
  protocol::ArqSession arq(*model, receivers, updates, arq_cfg, seed);
  const auto as = arq.run();
  std::printf("ARQ baseline          : %s\n",
              as.all_delivered ? "every participant saw every update"
                               : "DELIVERY FAILED");
  std::printf("  session finished at %.2f s | %.3f tx/packet | %llu NAKs | "
              "%llu duplicate receptions\n",
              as.completion_time, as.tx_per_packet,
              static_cast<unsigned long long>(as.naks_sent),
              static_cast<unsigned long long>(as.duplicate_receptions));

  std::printf("\nNP session finished at %.2f s vs ARQ %.2f s\n",
              nps.completion_time, as.completion_time);
  return nps.all_delivered && as.all_delivered ? 0 : 1;
}
