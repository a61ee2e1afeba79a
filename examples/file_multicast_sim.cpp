// Reliable file multicast with protocol NP on the discrete-event
// simulator: one sender, R receivers, per-receiver loss, real RSE coding
// on real bytes, NAK suppression — the paper's Section 5 protocol end to
// end.  Also runs the N2-style ARQ baseline on the same scenario for
// comparison.
//
//   $ ./file_multicast_sim --receivers=200 --p=0.05 --tgs=20 --k=16
//   $ ./file_multicast_sim --burst=2.5           # bursty loss instead
#include <cstdio>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"
#include "loss/loss_model.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 200));
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 20));
  const std::size_t k = static_cast<std::size_t>(cli.get_int64("k", 16));
  const std::size_t packet_len =
      static_cast<std::size_t>(cli.get_int64("packet-bytes", 1024));
  const double p = cli.get_double("p", 0.05);
  const double burst = cli.get_double("burst", 0.0);  // 0 = independent loss
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  protocol::NpConfig np_cfg;
  np_cfg.k = k;
  np_cfg.h = std::min<std::size_t>(255 - k, 8 * k);
  np_cfg.packet_len = packet_len;

  std::unique_ptr<loss::LossModel> model;
  if (burst > 1.0) {
    model = std::make_unique<loss::GilbertLossModel>(
        loss::GilbertLossModel::from_packet_stats(p, burst, np_cfg.delta));
  } else {
    model = std::make_unique<loss::BernoulliLossModel>(p);
  }

  const double file_kib = static_cast<double>(tgs * k * packet_len) / 1024.0;
  std::printf("transferring %.0f KiB (%zu TGs x %zu pkts x %zu B) to %zu "
              "receivers, p = %g%s\n\n",
              file_kib, tgs, k, packet_len, receivers, p,
              burst > 1.0 ? " (bursty)" : "");

  // --- protocol NP (hybrid ARQ: parity repair, per-TG feedback) ---
  protocol::NpSession np(*model, receivers, tgs, np_cfg, seed);
  const auto nps = np.run();
  std::printf("protocol NP  : %s, %.3f tx/packet (ideal bound %.3f)\n",
              nps.all_delivered ? "all receivers verified the file"
                                : "DELIVERY FAILED",
              nps.tx_per_packet,
              analysis::expected_tx_integrated_ideal(
                  static_cast<std::int64_t>(k), 0, p,
                  static_cast<double>(receivers)));
  std::printf("               data %lu, parities %lu (encoded %lu), polls %lu\n",
              static_cast<unsigned long>(nps.data_sent),
              static_cast<unsigned long>(nps.parity_sent),
              static_cast<unsigned long>(nps.parities_encoded),
              static_cast<unsigned long>(nps.sender.polls_sent));
  std::printf("               NAKs sent %lu, suppressed %lu; duplicates %lu; "
              "decoded %lu pkts; done at t = %.2f s\n",
              static_cast<unsigned long>(nps.receivers.naks_sent),
              static_cast<unsigned long>(nps.receivers.naks_suppressed),
              static_cast<unsigned long>(nps.receivers.duplicates),
              static_cast<unsigned long>(nps.receivers.decoded),
              nps.completion_time);

  // --- N2-style ARQ baseline (retransmits originals, bitmap NAKs) ---
  protocol::ArqConfig arq_cfg;
  arq_cfg.k = k;
  arq_cfg.packet_len = packet_len;
  protocol::ArqSession arq(*model, receivers, tgs, arq_cfg, seed);
  const auto as = arq.run();
  std::printf("ARQ baseline : %s, %.3f tx/packet (analysis %.3f)\n",
              as.all_delivered ? "all receivers complete" : "DELIVERY FAILED",
              as.tx_per_packet,
              analysis::expected_tx_nofec(p, static_cast<double>(receivers)));
  std::printf("               data %lu, retransmissions %lu, NAKs %lu "
              "(suppressed %lu), duplicates %lu, done at t = %.2f s\n",
              static_cast<unsigned long>(as.data_sent),
              static_cast<unsigned long>(as.retransmissions),
              static_cast<unsigned long>(as.naks_sent),
              static_cast<unsigned long>(as.naks_suppressed),
              static_cast<unsigned long>(as.duplicate_receptions),
              as.completion_time);

  if (as.tx_per_packet > 0.0) {
    std::printf("\nbandwidth saved by parity repair: %.1f%%\n",
                100.0 * (1.0 - nps.tx_per_packet / as.tx_per_packet));
  }
  return nps.all_delivered && as.all_delivered ? 0 : 1;
}
