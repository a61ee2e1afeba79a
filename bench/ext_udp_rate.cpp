// Extension: what the UDP data plane costs, in two tables
// (docs/DATAPLANE.md).
//
// Tx rate: loopback packet rate (pps) and wire throughput (Gbps) of
// send_batch_blocking (one sendmmsg per 128 frames) across payload
// sizes.  The frames are built once per point through the zero-copy tx
// path the protocol senders use: a net::PacketArena slab, sealed in
// place with fec::serialize_into — so the measured loop is exactly the
// production data plane minus the protocol logic.  The receiver socket
// is never drained; once its buffer fills the kernel drops on delivery,
// which is the standard way to measure raw tx syscall rate without a
// consumer thread.
//
// Drained delivery: process CPU per packet delivered to all R members,
// for send_batch_blocking plus a recvmmsg drain of every member, all on
// one thread, R in {4, 16}: unicast fan-out (R copies per packet) vs one
// send to the session's IP multicast group.  This is the stage the §5
// cost model charges as Xp, with the receive side the kernel really
// runs.
//
// Each point reports the best of --reps passes (minimum wall time — the
// run least disturbed by scheduler noise).  --json=out.json emits
// pbl-bench-v1; perf.reps_per_sec is total frames over total send time
// of the tx-rate table only, the figure the perf-smoke CI leg gates on.
#include <sys/socket.h>
#include <time.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fec/packet.hpp"
#include "net/udp/packet_arena.hpp"
#include "net/udp/udp_transport.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

struct Rate {
  double pps = 0.0;
  double gbps = 0.0;
  double wall = 0.0;  ///< best-pass seconds, summed into perf totals
};

Rate measure(net::UdpSocket& tx, std::span<const net::FrameRef> refs,
             std::size_t reps) {
  const double bytes_per_frame =
      static_cast<double>(refs.empty() ? 0 : refs.front().bytes.size());
  tx.send_batch_blocking(refs);  // warm-up pass (page-in, route cache)
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const double s =
        bench::time_seconds([&] { tx.send_batch_blocking(refs); });
    if (best == 0.0 || s < best) best = s;
  }
  Rate rate;
  rate.wall = best;
  if (best > 0.0) {
    rate.pps = static_cast<double>(refs.size()) / best;
    rate.gbps = static_cast<double>(refs.size()) * bytes_per_frame * 8.0 /
                best / 1e9;
  }
  return rate;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Reads every datagram queued on `fd` without parsing it; returns how
/// many.
std::size_t drain_fd(int fd) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBuf = 2048;  // > the largest frame measured
  static std::vector<std::uint8_t> bufs(kBatch * kBuf);
  std::size_t got = 0;
  iovec iovs[kBatch];
  mmsghdr msgs[kBatch]{};
  for (std::size_t i = 0; i < kBatch; ++i) {
    iovs[i] = {bufs.data() + i * kBuf, kBuf};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  for (;;) {
    const int n = ::recvmmsg(fd, msgs, kBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return got;
    }
    got += static_cast<std::size_t>(n);
  }
}

struct Drained {
  double cpu_us = 0.0;   ///< process CPU per packet delivered to all R
  double wall_us = 0.0;  ///< wall time per packet delivered to all R
  bool complete = true;  ///< every member drained every frame
};

/// Sends `frames` frames of `payload` bytes to R members in bursts of
/// 16 (one TG's worth) and drains every member after each burst.
Drained drained_delivery(std::size_t receivers, std::size_t payload,
                         net::UdpDelivery delivery, std::size_t frames,
                         std::size_t reps) {
  constexpr std::size_t kBurst = 16;
  net::ScopedUdpDeliveryOverride pin(delivery);
  net::UdpGroup group = net::UdpGroup::open();
  net::UdpSocket tx;
  std::vector<net::UdpSocket> members(receivers);
  std::vector<std::optional<net::UdpSocket>> joined;
  std::vector<int> rx_fds;
  for (auto& m : members) {
    joined.push_back(group.join(m.port()));
    rx_fds.push_back(joined.back() ? joined.back()->fd() : m.fd());
  }
  fec::Packet p;
  p.header.type = fec::PacketType::kData;
  p.header.k = 1;
  p.header.n = 1;
  p.payload.assign(payload, 0x5A);
  const auto wire = fec::serialize(p);
  std::vector<net::FrameRef> burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    if (group.multicast()) {
      burst.push_back(group.to_all(wire));
    } else {
      for (const std::uint16_t port : group.members())
        burst.push_back({port, wire});
    }
  }
  const std::size_t bursts = (frames + kBurst - 1) / kBurst;
  const auto pass = [&] {
    std::size_t delivered = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      tx.send_batch_blocking(burst);
      for (const int fd : rx_fds) delivered += drain_fd(fd);
    }
    return delivered;
  };
  pass();  // warm-up (page-in, route cache)
  Drained best;
  const std::size_t packets = bursts * kBurst;
  for (std::size_t r = 0; r < reps; ++r) {
    std::size_t delivered = 0;
    const double cpu0 = process_cpu_seconds();
    const double wall = bench::time_seconds([&] { delivered = pass(); });
    const double cpu = process_cpu_seconds() - cpu0;
    const double per = static_cast<double>(packets);
    if (r == 0 || wall * 1e6 / per < best.wall_us) {
      best.wall_us = wall * 1e6 / per;
      best.cpu_us = cpu * 1e6 / per;
    }
    best.complete = best.complete && delivered == packets * receivers;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto frames = static_cast<std::size_t>(cli.get_int64("frames", 40000));
  const auto reps = static_cast<std::size_t>(cli.get_int64("reps", 3));
  const auto drain_frames =
      static_cast<std::size_t>(cli.get_int64("drain-frames", 4000));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: UDP data-plane rate (sendmmsg) and drained delivery "
      "cost (fan-out vs IP multicast group)",
      std::to_string(frames) + " arena-built frames per pass, best of " +
          std::to_string(reps) + " passes, payloads {64, 512, 1400} B, "
          "loopback, undrained receiver",
      "one syscall per 128 frames leaves small payloads bound by the "
      "kernel's per-datagram cost and large ones by its per-byte copy");

  bench::BenchJson json("ext_udp_rate");
  json.setup("frames", static_cast<std::int64_t>(frames));
  json.setup("reps", static_cast<std::int64_t>(reps));
  json.setup("drain_frames", static_cast<std::int64_t>(drain_frames));
  json.setup("group_delivery_available",
             net::udp_group_delivery_available());

  double total_wall = 0.0;
  std::uint64_t total_frames = 0;

  Table t({"payload_B", "pps", "gbps"});
  for (const std::size_t payload :
       {std::size_t{64}, std::size_t{512}, std::size_t{1400}}) {
    net::UdpSocket rx;  // never drained: the kernel drops once rcvbuf fills
    net::UdpSocket tx;

    // Build every frame through the production zero-copy path: arena
    // slab, header + payload + CRC sealed in place.
    const std::size_t wire = fec::wire_size(payload);
    net::PacketArena arena(wire, frames);
    std::vector<net::FrameRef> refs;
    refs.reserve(frames);
    fec::Packet p;
    p.header.type = fec::PacketType::kData;
    p.header.k = 1;
    p.header.n = 1;
    p.header.index = 0;
    p.payload.assign(payload, 0x5A);
    for (std::size_t i = 0; i < frames; ++i) {
      const auto frame = arena.acquire();
      if (!frame) return 1;  // capacity == frames: cannot happen
      p.header.seq = static_cast<std::uint32_t>(i);
      fec::serialize_into(p, frame->bytes);
      refs.push_back({rx.port(), frame->bytes});
    }

    const Rate rate = measure(tx, refs, reps);
    total_wall += rate.wall;
    total_frames += frames;
    t.add_row({static_cast<long long>(payload), rate.pps, rate.gbps});
    json.point({{"payload", static_cast<std::int64_t>(payload)},
                {"pps", rate.pps},
                {"gbps", rate.gbps}});
  }

  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu frames, %.3f s send time, %.3g frames/s\n",
              static_cast<unsigned long long>(total_frames), total_wall,
              total_wall > 0.0 ? static_cast<double>(total_frames) / total_wall
                               : 0.0);

  // Drained delivery: the per-packet cost of reaching R members, sent
  // and received, fan-out vs group.  Kept out of the perf totals.
  std::printf("\nDrained delivery: send + recvmmsg drain of every member, "
              "%zu packets per pass, best of %zu passes, per packet "
              "delivered to all R members\n",
              drain_frames, reps);
  Table d({"R", "payload_B", "delivery", "cpu_us_per_packet",
           "wall_us_per_packet", "cpu_speedup_vs_fanout"});
  for (const std::size_t receivers : {std::size_t{4}, std::size_t{16}}) {
    for (const std::size_t payload :
         {std::size_t{64}, std::size_t{512}, std::size_t{1400}}) {
      const Drained fan_out = drained_delivery(
          receivers, payload, net::UdpDelivery::kFanOut, drain_frames, reps);
      std::optional<Drained> group;
      if (net::udp_group_delivery_available())
        group = drained_delivery(receivers, payload, net::UdpDelivery::kGroup,
                                 drain_frames, reps);
      if (!fan_out.complete || (group && !group->complete)) {
        std::fprintf(stderr, "drained delivery lost frames (R=%zu, %zu B)\n",
                     receivers, payload);
        return 1;
      }
      const auto row = [&](net::UdpDelivery delivery, const Drained& r) {
        const double speedup =
            r.cpu_us > 0.0 ? fan_out.cpu_us / r.cpu_us : 0.0;
        d.add_row({static_cast<long long>(receivers),
                   static_cast<long long>(payload), net::to_string(delivery),
                   r.cpu_us, r.wall_us, speedup});
        json.point({{"table", "drained"},
                    {"receivers", static_cast<std::int64_t>(receivers)},
                    {"payload", static_cast<std::int64_t>(payload)},
                    {"delivery", net::to_string(delivery)},
                    {"cpu_us_per_packet", r.cpu_us},
                    {"wall_us_per_packet", r.wall_us},
                    {"cpu_speedup_vs_fanout", speedup}});
      };
      row(net::UdpDelivery::kFanOut, fan_out);
      if (group) row(net::UdpDelivery::kGroup, *group);
    }
  }
  d.set_precision(4);
  std::printf("%s", d.to_string().c_str());
  if (!net::udp_group_delivery_available())
    std::printf("(no IP multicast on lo here: group rows omitted)\n");

  json.perf(1, total_wall, total_frames);
  return json.write_file(json_path) ? 0 : 1;
}
