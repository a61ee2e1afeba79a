// Protocol NP over REAL loopback UDP sockets: one sender and N receivers
// on a single reactor thread, IP multicast on lo (unicast fan-out where
// the host lacks it), loss injected at each receiver, parity repair with
// per-TG NAK feedback, and end-to-end integrity verification of every
// byte at every receiver.
//
//   $ ./udp_multicast_demo --receivers=8 --p=0.2 --bytes=20000 --k=8
//
// Built on the library's session drivers (server/session_driver.hpp)
// and the file framing of core/file_transfer.hpp.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/file_transfer.hpp"
#include "server/session_driver.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace pbl;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 8));
  const std::size_t bytes =
      static_cast<std::size_t>(cli.get_int64("bytes", 20000));
  const double p = cli.get_double("p", 0.2);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  net::UdpNpConfig cfg;
  cfg.k = static_cast<std::size_t>(cli.get_int64("k", 8));
  cfg.h = static_cast<std::size_t>(cli.get_int64("h", 64));
  cfg.packet_len = static_cast<std::size_t>(cli.get_int64("packet-bytes", 512));
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }
  if (cfg.k + cfg.h > 255) {
    std::fprintf(stderr, "k + h must be <= 255\n");
    return 2;
  }

  // The "file".
  Rng data_rng(seed);
  std::vector<std::uint8_t> blob(bytes);
  for (auto& b : blob) b = static_cast<std::uint8_t>(data_rng());
  const auto groups = core::segment_blob(blob, cfg.k, cfg.packet_len);

  std::printf("UDP demo: %zu receivers on loopback, %zu bytes in %zu TGs "
              "(k=%zu, %zu B packets), injected loss p = %g\n",
              receivers, bytes, groups.size(), cfg.k, cfg.packet_len, p);

  // Every receiver checks each TG it decodes against `groups`, and those
  // reassemble to the file: a complete receiver with no mismatches holds
  // the file.
  if (core::reassemble_blob(groups) != blob) {
    std::fprintf(stderr, "file framing does not round-trip\n");
    return 1;
  }

  // Sockets and the multicast group: each receiver joins it next to its
  // unicast socket (on a fan-out group, join adds no socket).
  server::Reactor reactor;
  cfg.clock = &reactor.clock();
  net::UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  std::vector<net::UdpSocket> rx_sockets(receivers);
  net::UdpGroup group = net::UdpGroup::open();
  std::vector<std::optional<net::UdpSocket>> group_sockets;
  for (const auto& s : rx_sockets)
    group_sockets.push_back(group.join(s.port()));
  std::printf("delivery: %s\n",
              net::to_string(group.multicast() ? net::UdpDelivery::kGroup
                                               : net::UdpDelivery::kFanOut)
                  .c_str());

  // One thread runs the whole session: the reactor stops once the sender
  // and every receiver have finished.
  std::size_t finished = 0;
  const auto on_finished = [&] {
    if (++finished == receivers + 1) reactor.stop();
  };
  std::vector<std::unique_ptr<server::ReceiverSessionDriver>> rx;
  for (std::size_t r = 0; r < receivers; ++r) {
    server::ReceiverSessionDriver::Options opt;
    opt.data_loss = p;
    opt.rng = Rng(seed).split(100 + r);
    opt.expected = &groups;
    rx.push_back(std::make_unique<server::ReceiverSessionDriver>(
        reactor, std::move(rx_sockets[r]), sender_port, groups.size(), cfg,
        std::move(opt), on_finished, std::move(group_sockets[r])));
  }
  server::SenderSessionDriver sender(reactor, std::move(sender_socket), group,
                                     cfg, groups, on_finished);
  for (auto& r : rx) r->start();
  sender.start();
  reactor.run();
  const auto& stats = sender.stats();

  bool all_ok = true;
  std::uint64_t dropped = 0, decoded = 0;
  for (const auto& r : rx) {
    all_ok = all_ok && r->result().complete && r->payload_mismatches() == 0;
    dropped += r->result().dropped;
    decoded += r->result().decoded;
  }

  std::printf("sender: %llu data + %llu parities (%.3f tx/packet), %llu "
              "polls, %llu NAKs received\n",
              static_cast<unsigned long long>(stats.data_sent),
              static_cast<unsigned long long>(stats.parity_sent),
              stats.tx_per_packet,
              static_cast<unsigned long long>(stats.polls_sent),
              static_cast<unsigned long long>(stats.naks_received));
  std::printf("receivers: %llu packets dropped by injected loss, %llu "
              "packets rebuilt by RSE decoding\n",
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(decoded));
  std::printf("%s\n", all_ok ? "ALL RECEIVERS VERIFIED THE FILE"
                             : "SOME RECEIVER IS INCOMPLETE");
  return all_ok ? 0 : 1;
}
