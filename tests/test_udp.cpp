// UDP transport tests, parameterized over the {batched, fallback} data
// planes: every behavior here must hold identically on both backends.
#include "net/udp/udp_transport.hpp"

#include <gtest/gtest.h>

#include <cerrno>

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

std::string backend_name(
    const ::testing::TestParamInfo<UdpBackend>& info) {
  return to_string(info.param);
}

class UdpSocketTest : public ::testing::TestWithParam<UdpBackend> {
 protected:
  ScopedUdpBackendOverride backend_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Backends, UdpSocketTest,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);

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
  UdpSocket a;
  const std::uint16_t port = a.port();
  UdpSocket b(std::move(a));
  EXPECT_EQ(b.port(), port);
  UdpSocket c;
  c = std::move(b);
  EXPECT_EQ(c.port(), port);
  // The moved-to socket still works.
  UdpSocket d;
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
  a.set_tx_tap([&](std::uint16_t dest, std::span<const std::uint8_t> bytes) {
    EXPECT_EQ(dest, b.port());
    last.assign(bytes.begin(), bytes.end());
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
  // The first syscall attempt fails with EAGAIN: the fallback stops
  // before frame 0; the batched backend fails the whole first chunk.
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

TEST(UdpBackendSelection, OverrideWinsAndRestores) {
  const UdpBackend ambient = active_udp_backend();
  {
    ScopedUdpBackendOverride fallback(UdpBackend::kFallback);
    EXPECT_EQ(active_udp_backend(), UdpBackend::kFallback);
    {
      ScopedUdpBackendOverride batched(UdpBackend::kBatched);
      // Requests for an unavailable batched backend degrade to fallback.
      EXPECT_EQ(active_udp_backend(), udp_batched_available()
                                          ? UdpBackend::kBatched
                                          : UdpBackend::kFallback);
    }
    EXPECT_EQ(active_udp_backend(), UdpBackend::kFallback);
  }
  EXPECT_EQ(active_udp_backend(), ambient);
}

}  // namespace
}  // namespace pbl::net
