// UDP transport tests: the sendmmsg/recvmmsg data plane, backpressure,
// the receive-path contract, and group delivery (IP multicast on lo)
// where the host has it.  The suites keep the two delivery instances of
// the session suites (udp_np_harness.hpp), but here both run the same
// code: the single-socket cases open no group, and the group and
// fan-out cases pin their own delivery.
#include "net/udp/udp_transport.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "udp_np_harness.hpp"

namespace pbl::net {
namespace {

fec::Packet sample_packet() {
  fec::Packet p;
  p.header.type = fec::PacketType::kData;
  p.header.tg = 3;
  p.header.index = 1;
  p.header.k = 7;
  p.header.n = 10;
  p.payload = {10, 20, 30};
  p.header.payload_len = 3;
  return p;
}

using server::harness::delivery_instance_name;

class UdpSocketTest : public ::testing::TestWithParam<UdpDelivery> {
 protected:
  ScopedUdpDeliveryOverride delivery_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Backends, UdpSocketTest,
                         ::testing::Values(UdpDelivery::kGroup,
                                           UdpDelivery::kFanOut),
                         delivery_instance_name);

TEST_P(UdpSocketTest, BindsEphemeralPort) {
  UdpSocket s;
  EXPECT_GT(s.port(), 0);
}

TEST_P(UdpSocketTest, SendReceiveRoundTrip) {
  UdpSocket a, b;
  const fec::Packet p = sample_packet();
  EXPECT_EQ(a.send_to(b.port(), p), SendStatus::kSent);
  const auto got = b.receive_from(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->packet, p);
  EXPECT_EQ(got->src_port, a.port());
}

TEST_P(UdpSocketTest, ReceiveTimesOut) {
  UdpSocket s;
  const auto got = s.receive_from(0.05);
  EXPECT_FALSE(got.has_value());
}

TEST_P(UdpSocketTest, MoveTransfersOwnership) {
  // MulticastServer::admit installs the fault plan and the tx tap, then
  // moves the socket into its driver: both must travel with it.
  UdpSocket a;
  const std::uint16_t port = a.port();
  a.inject_send_errno_every(EAGAIN, 2, 1);  // every 2nd attempt fails
  std::size_t taps = 0;
  a.set_tx_tap([&](const FrameRef&) { ++taps; });
  UdpSocket b(std::move(a));
  EXPECT_EQ(b.port(), port);
  UdpSocket c;
  const int replaced = c.fd();
  c = std::move(b);
  EXPECT_EQ(c.port(), port);
  // Move assignment closed the descriptor it replaced.
  errno = 0;
  EXPECT_EQ(::fcntl(replaced, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
  // The moved-to socket still works, under the moved plan and tap.
  UdpSocket d;
  EXPECT_EQ(c.send_to(d.port(), sample_packet()), SendStatus::kSent);
  EXPECT_EQ(c.send_to(d.port(), sample_packet()), SendStatus::kWouldBlock);
  EXPECT_EQ(c.send_to(d.port(), sample_packet()), SendStatus::kSent);
  EXPECT_EQ(c.injected_send_failures(), 1u);
  EXPECT_EQ(taps, 2u);
  EXPECT_TRUE(d.receive_from(2.0).has_value());
  EXPECT_TRUE(d.receive_from(2.0).has_value());
  d.send_to(c.port(), sample_packet());
  EXPECT_TRUE(c.receive_from(2.0).has_value());
}

TEST_P(UdpSocketTest, MultiplePacketsPreserveContent) {
  UdpSocket a, b;
  for (std::uint32_t i = 0; i < 10; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    a.send_to(b.port(), p);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto got = b.receive_from(2.0);
    ASSERT_TRUE(got.has_value());
    // Loopback preserves order in practice.
    EXPECT_EQ(got->packet.header.seq, i);
  }
}

TEST_P(UdpSocketTest, LargePayload) {
  UdpSocket a, b;
  fec::Packet p = sample_packet();
  p.payload.assign(8192, 0x5A);
  p.header.payload_len = 8192;
  a.send_to(b.port(), p);
  const auto got = b.receive_from(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->packet.payload.size(), 8192u);
}

TEST_P(UdpSocketTest, SendBatchDeliversEveryFrameInOrder) {
  UdpSocket a, b;
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 50; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    wires.push_back(fec::serialize(p));
  }
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  const auto result = a.send_batch(refs);
  EXPECT_EQ(result.sent, refs.size());
  EXPECT_EQ(result.status, SendStatus::kSent);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto got = b.receive_from(2.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->packet.header.seq, i);
  }
}

TEST_P(UdpSocketTest, ReceiveBatchDrainsManyAtOnce) {
  UdpSocket a, b;
  for (std::uint32_t i = 0; i < 20; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    a.send_to(b.port(), p);
  }
  std::vector<fec::Packet> got;
  std::size_t n = 0;
  while (n < 20) {
    const std::size_t round = b.receive_batch(got, 20 - n, 2.0);
    ASSERT_GT(round, 0u) << "timed out with " << n << " of 20";
    n += round;
  }
  ASSERT_EQ(got.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(got[i].header.seq, i);
}

TEST_P(UdpSocketTest, TxTapSeesEveryFrame) {
  UdpSocket a, b;
  std::size_t taps = 0;
  std::vector<std::uint8_t> last;
  a.set_tx_tap([&](const FrameRef& frame) {
    EXPECT_EQ(frame.dest_port, b.port());
    EXPECT_EQ(frame.group, 0u);
    last.assign(frame.bytes.begin(), frame.bytes.end());
    ++taps;
  });
  const fec::Packet p = sample_packet();
  a.send_to(b.port(), p);
  EXPECT_EQ(taps, 1u);
  EXPECT_EQ(last, fec::serialize(p));
}

// --- Backpressure regression (the old ::sendto threw on EAGAIN) -------

TEST_P(UdpSocketTest, InjectedEagainReturnsWouldBlockNotThrow) {
  UdpSocket a, b;
  a.inject_send_errno(EAGAIN, 1);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kWouldBlock);
  // The condition was transient: the very next send goes through.
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kSent);
  EXPECT_TRUE(b.receive_from(2.0).has_value());
}

TEST_P(UdpSocketTest, InjectedEnobufsReturnsWouldBlockNotThrow) {
  UdpSocket a, b;
  a.inject_send_errno(ENOBUFS, 1);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kWouldBlock);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kSent);
}

TEST_P(UdpSocketTest, HardSendErrorsStillThrow) {
  UdpSocket a, b;
  a.inject_send_errno(EPERM, 1);
  EXPECT_THROW(a.send_to(b.port(), sample_packet()), std::system_error);
}

TEST_P(UdpSocketTest, SendBatchReportsPartialSendOnBackpressure) {
  UdpSocket a, b;
  const auto wire = fec::serialize(sample_packet());
  std::vector<FrameRef> refs(5, FrameRef{b.port(), wire});
  // The first syscall attempt fails with EAGAIN, which fails the whole
  // first chunk.
  a.inject_send_errno(EAGAIN, 1);
  const auto result = a.send_batch(refs);
  EXPECT_EQ(result.status, SendStatus::kWouldBlock);
  EXPECT_EQ(result.sent, 0u);
  // Resume from frames[sent]: everything goes through now.
  const auto resumed =
      a.send_batch(std::span<const FrameRef>(refs).subspan(result.sent));
  EXPECT_EQ(resumed.status, SendStatus::kSent);
  EXPECT_EQ(resumed.sent, 5u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.receive_from(2.0).has_value());
}

TEST_P(UdpSocketTest, SendBatchBlockingRidesThroughBackpressure) {
  UdpSocket a, b;
  const auto wire = fec::serialize(sample_packet());
  std::vector<FrameRef> refs(8, FrameRef{b.port(), wire});
  a.inject_send_errno(ENOBUFS, 3);  // three transient stalls mid-batch
  a.send_batch_blocking(refs);
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(b.receive_from(2.0).has_value()) << "frame " << i << " lost";
}

// --- Receive-path contract -------------------------------------------
//
// A mixed stream from two peers: valid frames, a corrupted datagram, a
// sealed frame wrapped in garbage and an oversized junk datagram.
// Drained the way the session drivers drain (receive_from(0.0) until it
// returns nothing), the valid and salvaged frames must come out in
// send order with their kernel-reported sources, and the desync
// counters must equal the values the earlier receive path (queue raw
// datagrams, parse on demand) gave for the same bytes.

fec::Packet seq_packet(std::uint32_t seq) {
  fec::Packet p = sample_packet();
  p.header.seq = seq;
  return p;
}

// Reference desync counters for the stream below (the corrupted and the
// wrapped datagram's one-byte slides; the corrupted and the oversized
// datagram each skipped once).
constexpr std::uint64_t kWantResyncs = 1186;
constexpr std::uint64_t kWantSkipped = 2;
constexpr std::size_t kOversized = 5000;
static_assert(kOversized > UdpSocket::kSalvageLimit);

std::vector<std::uint8_t> junk(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t x = 0x2545F491u ^ salt;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

TEST_P(UdpSocketTest, DrainKeepsSendOrderSourcesAndDesyncCounters) {
  UdpSocket a, b, rx;
  auto corrupted = fec::serialize(seq_packet(2));
  corrupted[fec::kHeaderWireSize + 1] ^= 0x40;  // payload bit flip
  auto wrapped = junk(7, 1);
  const auto sealed = fec::serialize(seq_packet(4));
  wrapped.insert(wrapped.end(), sealed.begin(), sealed.end());
  // The tail is long enough that no length field read inside the frame
  // stalls the decoder before it reaches the frame start.
  const auto tail = junk(1200, 2);
  wrapped.insert(wrapped.end(), tail.begin(), tail.end());
  const auto oversized = junk(kOversized, 3);

  ASSERT_EQ(a.send_to(rx.port(), seq_packet(0)), SendStatus::kSent);
  ASSERT_EQ(a.send_to(rx.port(), seq_packet(1)), SendStatus::kSent);
  ASSERT_EQ(a.send_frame(rx.port(), corrupted), SendStatus::kSent);
  ASSERT_EQ(b.send_frame(rx.port(), wrapped), SendStatus::kSent);
  ASSERT_EQ(a.send_to(rx.port(), seq_packet(3)), SendStatus::kSent);
  ASSERT_EQ(b.send_frame(rx.port(), oversized), SendStatus::kSent);
  ASSERT_EQ(b.send_to(rx.port(), seq_packet(5)), SendStatus::kSent);

  const std::vector<std::pair<std::uint16_t, std::uint32_t>> want = {
      {a.port(), 0}, {a.port(), 1}, {b.port(), 4}, {a.port(), 3},
      {b.port(), 5}};
  std::vector<std::pair<std::uint16_t, std::uint32_t>> got;
  for (int waits = 0; got.size() < want.size() && waits < 40;) {
    auto dg = rx.receive_from(0.0);
    if (dg) {
      got.emplace_back(dg->src_port, dg->packet.header.seq);
      continue;
    }
    // Nothing readable yet: wait for readiness, as the reactor does.
    pollfd pfd{rx.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
    ++waits;
  }
  EXPECT_EQ(got, want);
  EXPECT_FALSE(rx.receive_from(0.0).has_value());
  EXPECT_EQ(rx.frame_resyncs(), kWantResyncs);
  EXPECT_EQ(rx.frames_skipped(), kWantSkipped);
}

// Every datagram is held back one slot and released by the next one to
// arrive, which here always comes from the other peer.  Each must still
// surface with the port it was sent from, not its releaser's: guarded
// receivers admit frames by source port.
TEST_P(UdpSocketTest, HeldBackDatagramsKeepTheirOwnSource) {
  UdpSocket a, b, rx;
  ImpairmentConfig cfg;
  cfg.reorder_prob = 1.0;
  cfg.reorder_window = 1;
  rx.set_impairment(std::make_shared<Impairment>(cfg));

  UdpSocket* peers[] = {&a, &b};
  constexpr std::uint32_t kSent = 6;
  for (std::uint32_t i = 0; i < kSent; ++i)
    ASSERT_EQ(peers[i % 2]->send_to(rx.port(), seq_packet(i)),
              SendStatus::kSent);

  // The last datagram stays held: nothing arrives after it to release it.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> want;
  for (std::uint32_t i = 0; i + 1 < kSent; ++i)
    want.emplace_back(peers[i % 2]->port(), i);
  std::vector<std::pair<std::uint16_t, std::uint32_t>> got;
  for (int waits = 0; got.size() < want.size() && waits < 40;) {
    auto dg = rx.receive_from(0.0);
    if (dg) {
      got.emplace_back(dg->src_port, dg->packet.header.seq);
      continue;
    }
    pollfd pfd{rx.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
    ++waits;
  }
  EXPECT_EQ(got, want);
}

TEST_P(UdpSocketTest, ZeroTimeoutReceiveOnAnEmptySocketIsNullopt) {
  UdpSocket s;
  EXPECT_FALSE(s.receive_from(0.0).has_value());
  EXPECT_FALSE(s.receive_from(0.0).has_value());  // and stays empty
}

TEST_P(UdpSocketTest, SubMillisecondReceiveTimeoutWaits) {
  // A 0.5 ms timeout must wait, not round down to poll(0) and return at
  // once (which turned sub-millisecond waits into busy-spins).
  UdpSocket s;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(s.receive_from(0.0005).has_value());
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.0005);
}

// --- Group delivery (IP multicast on lo) ------------------------------

/// Receives until `socket` has been quiet for 20 ms; returns the seq of
/// every frame, in arrival order.
std::vector<std::uint32_t> drain_seqs(UdpSocket& socket) {
  std::vector<std::uint32_t> seqs;
  while (auto dg = socket.receive_from(0.02))
    seqs.push_back(dg->packet.header.seq);
  return seqs;
}

/// Sends frames seq first..first+count-1 to every member of `group`.
void send_to_group(UdpSocket& tx, const UdpGroup& group, std::uint32_t first,
                   std::uint32_t count) {
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < count; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = first + i;
    wires.push_back(fec::serialize(p));
  }
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back(group.to_all(w));
  tx.send_batch_blocking(refs);
}

std::vector<std::uint32_t> iota_seqs(std::uint32_t first,
                                     std::uint32_t count) {
  std::vector<std::uint32_t> seqs(count);
  for (std::uint32_t i = 0; i < count; ++i) seqs[i] = first + i;
  return seqs;
}

/// Group delivery is what this suite checks, so both instances pin it.
class UdpGroupTest : public UdpSocketTest {
 protected:
  void SetUp() override {
    if (!udp_group_delivery_available())
      GTEST_SKIP() << "this host does not deliver IP multicast on lo";
  }
  ScopedUdpDeliveryOverride group_{UdpDelivery::kGroup};
};

INSTANTIATE_TEST_SUITE_P(Backends, UdpGroupTest,
                         ::testing::Values(UdpDelivery::kGroup,
                                           UdpDelivery::kFanOut),
                         delivery_instance_name);

TEST_P(UdpGroupTest, EveryMemberReceivesEachFrameOnceInOrder) {
  UdpGroup group = UdpGroup::open();
  ASSERT_TRUE(group.multicast());
  UdpSocket tx;
  UdpSocket unicast[3];
  std::optional<UdpSocket> members[3];
  for (int m = 0; m < 3; ++m) members[m] = group.join(unicast[m].port());
  std::size_t tapped = 0;
  tx.set_tx_tap([&](const FrameRef& frame) {
    EXPECT_NE(frame.group, 0u);
    ++tapped;
  });
  send_to_group(tx, group, 0, 40);
  EXPECT_EQ(tapped, 40u);  // one send per frame, whatever the group size
  for (int m = 0; m < 3; ++m) {
    ASSERT_TRUE(members[m].has_value());
    EXPECT_EQ(members[m]->port(), members[0]->port());
    const auto got = drain_seqs(*members[m]);
    EXPECT_EQ(got, iota_seqs(0, 40)) << "member " << m;
    // Group frames never arrive on the member's unicast socket.
    EXPECT_FALSE(unicast[m].receive_from(0.0).has_value()) << "member " << m;
  }
}

TEST_P(UdpGroupTest, ConcurrentGroupsNeverSeeEachOthersFrames) {
  UdpGroup first = UdpGroup::open();
  UdpGroup second = UdpGroup::open();
  UdpSocket tx, a, b;
  auto in_first = first.join(a.port());
  auto in_second = second.join(b.port());
  ASSERT_TRUE(in_first && in_second);
  send_to_group(tx, first, 0, 10);
  send_to_group(tx, second, 100, 10);
  EXPECT_EQ(drain_seqs(*in_first), iota_seqs(0, 10));
  EXPECT_EQ(drain_seqs(*in_second), iota_seqs(100, 10));
}

TEST_P(UdpGroupTest, NonMemberReceivesNothing) {
  UdpGroup group = UdpGroup::open();
  UdpSocket tx, member, outsider;
  auto joined = group.join(member.port());
  ASSERT_TRUE(joined);
  send_to_group(tx, group, 0, 5);
  EXPECT_EQ(drain_seqs(*joined), iota_seqs(0, 5));
  EXPECT_FALSE(outsider.receive_from(0.02).has_value());
  EXPECT_FALSE(member.receive_from(0.0).has_value());
}

TEST_P(UdpSocketTest, ForcedFanOutSessionCompletes) {
  // Under the fan-out override a group carries no group address, join
  // adds no socket, and a lossy session still completes end to end.
  ScopedUdpDeliveryOverride fan_out(UdpDelivery::kFanOut);
  UdpGroup group = UdpGroup::open();
  EXPECT_FALSE(group.multicast());
  UdpSocket probe;
  EXPECT_FALSE(group.join(probe.port()).has_value());

  UdpNpConfig cfg;
  cfg.k = 4;
  cfg.h = 16;
  cfg.packet_len = 64;
  cfg.poll_window = 0.02;
  server::harness::SessionSetup setup;
  setup.receivers = 3;
  setup.data_loss = 0.2;
  const auto groups = server::harness::random_groups(3, 4, 64, 5);
  const auto run = server::harness::run_session(groups, cfg, setup);
  EXPECT_FALSE(run.wedged);
  for (const auto& r : run.receivers) {
    EXPECT_TRUE(r.result.complete);
    EXPECT_EQ(r.payload_mismatches, 0u);
  }
}

TEST(UdpDeliverySelection, OverrideWinsAndRestores) {
  const UdpDelivery ambient = active_udp_delivery();
  {
    ScopedUdpDeliveryOverride fan_out(UdpDelivery::kFanOut);
    EXPECT_EQ(active_udp_delivery(), UdpDelivery::kFanOut);
    {
      ScopedUdpDeliveryOverride group(UdpDelivery::kGroup);
      // A group request on a host without multicast on lo degrades.
      EXPECT_EQ(active_udp_delivery(), udp_group_delivery_available()
                                           ? UdpDelivery::kGroup
                                           : UdpDelivery::kFanOut);
    }
    EXPECT_EQ(active_udp_delivery(), UdpDelivery::kFanOut);
  }
  EXPECT_EQ(active_udp_delivery(), ambient);
}

}  // namespace
}  // namespace pbl::net
