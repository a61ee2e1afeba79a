// Extension: adaptive hybrid ARQ — protocol NP tuning its proactive
// redundancy from the losses its NAKs reveal, compared with the bare
// reactive protocol and with statically planned redundancy, across loss
// rates the sender was never told about.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("R", 50));
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 30));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: adaptive proactive redundancy in protocol NP",
      "R = " + std::to_string(receivers) + ", k = 10, " +
          std::to_string(tgs) + " TGs, full DES protocol",
      "the controller converges to the offline planner's `a` for the true "
      "loss rate, trading a little bandwidth for most of the feedback");

  bench::BenchJson json("ext_adaptive");
  json.setup("R", static_cast<std::int64_t>(receivers));
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(10));
  std::uint64_t sessions = 0;
  const auto t0 = std::chrono::steady_clock::now();

  Table t({"p", "variant", "tx_per_pkt", "naks", "rounds_polls", "final_a",
           "planned_a", "completion_s"});
  for (const double p : {0.0, 0.01, 0.05, 0.1}) {
    loss::BernoulliLossModel model(p);
    const auto planned =
        p == 0.0 ? std::optional<std::int64_t>(0)
                 : core::plan_proactive_parities(
                       10, p, static_cast<double>(receivers), 0.9, 80);

    for (const char* variant : {"reactive", "adaptive", "planned"}) {
      protocol::NpConfig cfg;
      cfg.k = 10;
      cfg.h = 80;
      cfg.packet_len = 64;
      if (std::string(variant) == "adaptive") cfg.adaptive = true;
      if (std::string(variant) == "planned" && planned)
        cfg.proactive = static_cast<std::size_t>(*planned);
      protocol::NpSession session(model, receivers, tgs, cfg, 5);
      const auto s = session.run();
      ++sessions;
      json.point({{"p", p},
                  {"variant", variant},
                  {"tx_per_packet", s.tx_per_packet},
                  {"naks_sent", s.receivers.naks_sent},
                  {"polls_sent", s.sender.polls_sent},
                  {"final_proactive", s.final_proactive},
                  {"planned_a", planned.value_or(-1)},
                  {"completion_s", s.completion_time}});
      t.add_row({p, std::string(variant), s.tx_per_packet,
                 static_cast<long long>(s.receivers.naks_sent),
                 static_cast<long long>(s.sender.polls_sent), s.final_proactive,
                 static_cast<double>(planned.value_or(-1)),
                 s.completion_time});
    }
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  json.perf(1, wall, sessions);
  return json.write_file(json_path) ? 0 : 1;
}
