// Provisioning walkthrough: how much redundancy does a reliable multicast
// session need?  Uses the paper's models through core/planner.hpp, then
// validates the plan by actually running protocol NP on the planned
// configuration.
//
//   $ ./redundancy_planner --R=100000 --p=0.01 --k=20
//   $ ./redundancy_planner --measured-em=2.2   # shared-loss diagnosis
#include <cstdio>

#include "analysis/integrated.hpp"
#include "analysis/layered.hpp"
#include "core/planner.hpp"
#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.01);
  const double receivers = cli.get_double("R", 100000.0);
  const std::int64_t k = cli.get_int64("k", 20);
  const double target_em = cli.get_double("target-em", 1.5);
  const double confidence = cli.get_double("confidence", 0.9);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  std::printf("provisioning a session: k = %lld, p = %g, R = %g\n\n",
              static_cast<long long>(k), p, receivers);

  // 1. Baseline costs from the paper's models.
  std::printf("plain ARQ would cost            E[M] = %.3f tx/packet\n",
              analysis::expected_tx_nofec(p, receivers));
  std::printf("idealised integrated FEC costs  E[M] = %.3f tx/packet\n\n",
              analysis::expected_tx_integrated_ideal(k, 0, p, receivers));

  // 2. Layered FEC: how many parities per block for a target E[M]?
  if (const auto h = core::plan_layered_parities(k, p, receivers, target_em)) {
    std::printf("layered FEC needs h = %lld parities per block for "
                "E[M] <= %.2f  (actual %.3f)\n",
                static_cast<long long>(*h), target_em,
                analysis::expected_tx_layered(k, k + *h, p, receivers));
  } else {
    std::printf("layered FEC cannot reach E[M] <= %.2f at these parameters\n",
                target_em);
  }

  // 3. Integrated FEC: how many proactive parities avoid feedback rounds?
  const auto a = core::plan_proactive_parities(k, p, receivers, confidence);
  if (a) {
    std::printf("sending a = %lld proactive parities makes a NAK round "
                "unlikely (P >= %.0f%%), costing %.3f tx/packet up front\n\n",
                static_cast<long long>(*a), 100.0 * confidence,
                static_cast<double>(k + *a) / static_cast<double>(k));
  }

  // 4. Shared-loss diagnosis: map a measured no-FEC E[M] back to the
  //    equivalent independent population (paper Section 4.1).
  if (cli.has("measured-em")) {
    const double em = cli.get_double("measured-em", 2.0);
    const double r_indep = core::equivalent_independent_receivers(p, em);
    std::printf("a measured no-FEC E[M] of %.3f corresponds to ~%.0f "
                "INDEPENDENT receivers;\nprovisioning for your nominal R "
                "would overestimate the redundancy needed.\n\n",
                em, r_indep);
  }

  // 5. Validate the proactive plan on the real protocol (scaled-down R to
  //    keep the demo quick; the per-receiver loss process is what matters).
  const std::size_t demo_receivers =
      static_cast<std::size_t>(std::min(receivers, 200.0));
  loss::BernoulliLossModel model(p);
  protocol::NpConfig cfg;
  cfg.k = static_cast<std::size_t>(k);
  cfg.h = std::min<std::size_t>(255 - cfg.k, 8 * cfg.k);
  cfg.packet_len = 256;
  if (a) {
    // Re-plan for the demo population size.
    const auto demo_a = core::plan_proactive_parities(
        k, p, static_cast<double>(demo_receivers), confidence);
    cfg.proactive = static_cast<std::size_t>(demo_a.value_or(0));
  }
  protocol::NpSession session(model, demo_receivers, 20, cfg, 1);
  const auto stats = session.run();
  std::printf("validation run (R = %zu, 20 TGs): %s, %.3f tx/packet, "
              "%llu NAKs, a = %zu\n",
              demo_receivers,
              stats.all_delivered ? "all delivered" : "FAILED",
              stats.tx_per_packet,
              static_cast<unsigned long long>(stats.receivers.naks_sent),
              cfg.proactive);
  return stats.all_delivered ? 0 : 1;
}
