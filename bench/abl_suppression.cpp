// Ablation: how the NAK suppression slot size Ts shapes protocol NP's
// feedback load (Section 5.1: "the slot size Ts needs to be chosen
// appropriately").  Small slots answer faster but suppress less; slots
// comfortably above the propagation delay approach the ideal single NAK
// per feedback round.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double p = cli.get_double("p", 0.05);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("R", 200));
  const std::size_t tgs = static_cast<std::size_t>(cli.get_int64("tgs", 20));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Ablation: NAK suppression slot size in protocol NP",
      "R = " + std::to_string(receivers) + ", p = " + std::to_string(p) +
          ", k = 8, one-way delay 10 ms (full DES protocol)",
      "NAKs per feedback round drop towards 1 as Ts grows past the "
      "propagation delay; completion time grows in exchange");

  bench::BenchJson json("abl_suppression");
  json.setup("p", p);
  json.setup("R", static_cast<std::int64_t>(receivers));
  json.setup("tgs", static_cast<std::int64_t>(tgs));
  json.setup("k", static_cast<std::int64_t>(8));
  std::uint64_t sessions = 0;
  // Records one session of either table as a JSON point and returns its
  // NAKs per feedback round (one poll opens each round).
  const auto record = [&](const char* table, double slot_ms, std::size_t r,
                          const protocol::NpStats& stats) {
    ++sessions;
    const auto& rx = stats.receivers;
    const double rounds = static_cast<double>(stats.sender.polls_sent);
    const double per_round =
        rounds > 0 ? static_cast<double>(rx.naks_sent) / rounds : 0.0;
    json.point({{"source", "sim"},
                {"table", table},
                {"slot_ms", slot_ms},
                {"R", static_cast<std::int64_t>(r)},
                {"naks_sent", rx.naks_sent},
                {"naks_suppressed", rx.naks_suppressed},
                {"naks_per_round", per_round},
                {"completion_s", stats.completion_time},
                {"tx_per_packet", stats.tx_per_packet}});
    return per_round;
  };
  const auto t0 = std::chrono::steady_clock::now();

  loss::BernoulliLossModel model(p);
  Table t({"slot_ms", "naks_sent", "naks_suppressed", "naks_per_round",
           "completion_s", "tx_per_packet"});
  for (const double slot_ms : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    protocol::NpConfig cfg;
    cfg.k = 8;
    cfg.h = 80;
    cfg.packet_len = 64;
    cfg.slot = slot_ms / 1000.0;
    protocol::NpSession session(model, receivers, tgs, cfg, 42);
    const auto stats = session.run();
    const double per_round = record("slot", slot_ms, receivers, stats);
    const auto& rx = stats.receivers;
    t.add_row({slot_ms, static_cast<long long>(rx.naks_sent),
               static_cast<long long>(rx.naks_suppressed), per_round,
               stats.completion_time, stats.tx_per_packet});
  }
  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());

  // Scalability: with a fixed, well-chosen Ts, how does the feedback load
  // grow with the population?  (The paper's scalability claim: per-TG
  // feedback, ideally one NAK per round, independent of R.)
  Table t2({"R", "naks_sent", "naks_suppressed", "naks_per_round"});
  for (const std::size_t r : {10u, 50u, 200u, 1000u, 5000u}) {
    protocol::NpConfig cfg;
    cfg.k = 8;
    cfg.h = 80;
    cfg.packet_len = 64;
    cfg.slot = 0.03;
    protocol::NpSession session(model, r, tgs, cfg, 42);
    const auto stats = session.run();
    const double per_round = record("population", 30.0, r, stats);
    t2.add_row({static_cast<long long>(r),
                static_cast<long long>(stats.receivers.naks_sent),
                static_cast<long long>(stats.receivers.naks_suppressed),
                per_round});
  }
  t2.set_precision(4);
  std::printf("\n%s", t2.to_string().c_str());

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  json.perf(1, wall, sessions);
  return json.write_file(json_path) ? 0 : 1;
}
