// Differential proof that the reactor drivers put the same bytes on the
// wire whatever the data plane underneath: the same seeded session, run
// on one private Reactor once per path — each UDP backend, under unicast
// fan-out and under group delivery (IP multicast on lo) — must put
// byte-identical streams in front of every member (captured via the
// socket tx tap; a group frame counts once per member), produce
// identical sender stats and PartialDeliveryReports, and leave every
// receiver with identical counters.  Each stream is also pinned to
// a committed CRC-32, so a change to the session engine that moves one
// byte fails here, and two knobs documented as "same bytes" (a one-frame
// arena, a pacer that never binds) are held to that claim.
//
// Also holds the FrameStreamDecoder segmentation-invariance contract
// (the deterministic twin of fuzz/fuzz_frame_batch.cpp) so tier-1 runs
// cover it without -DPBL_FUZZ=ON.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/udp/frame_stream.hpp"
#include "udp_np_harness.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pbl::net {
namespace {

using server::harness::random_groups;
using server::harness::SessionRun;
using server::harness::SessionSetup;

UdpNpConfig base_config() {
  UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  // Generous collect window: the differential assertion needs every NAK
  // inside its round on both runs, so timing noise cannot skew the
  // repair schedule between backends.
  cfg.poll_window = 0.08;
  return cfg;
}

UdpNpConfig reliable_config() {
  UdpNpConfig cfg = base_config();
  cfg.reliable_control = true;
  cfg.seed = 23;
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  return cfg;
}

/// One data plane a session can run on.
struct Path {
  UdpBackend backend;
  UdpDelivery delivery;
};

/// Fan-out on the batched backend, the reference, comes first.
constexpr Path kPaths[] = {{UdpBackend::kBatched, UdpDelivery::kFanOut},
                           {UdpBackend::kFallback, UdpDelivery::kFanOut},
                           {UdpBackend::kBatched, UdpDelivery::kGroup},
                           {UdpBackend::kFallback, UdpDelivery::kGroup}};

std::string path_name(std::size_t i) {
  return to_string(kPaths[i].backend) + "/" + to_string(kPaths[i].delivery);
}

/// Runs the session once per path, in kPaths order.
std::vector<SessionRun> run_paths(const std::vector<TgBytes>& groups,
                                  const UdpNpConfig& cfg,
                                  const SessionSetup& setup) {
  std::vector<SessionRun> runs;
  for (std::size_t i = 0; i < std::size(kPaths); ++i) {
    ScopedUdpBackendOverride backend(kPaths[i].backend);
    ScopedUdpDeliveryOverride delivery(kPaths[i].delivery);
    runs.push_back(server::harness::run_session(groups, cfg, setup));
    EXPECT_FALSE(runs.back().wedged) << "watchdog fired on " << path_name(i);
  }
  return runs;
}

std::vector<SessionRun> run_paths(const std::vector<TgBytes>& groups,
                                  std::size_t receivers,
                                  const UdpNpConfig& cfg, double inject_loss) {
  SessionSetup setup;
  setup.receivers = receivers;
  setup.data_loss = inject_loss;
  return run_paths(groups, cfg, setup);
}

/// A member stream's digest and length.  Every member of a multicast
/// group is sent the same frames, so the digests below are one value
/// repeated per member.
struct WireDigest {
  std::uint32_t crc;
  std::size_t bytes;
};

/// CRC-32 chained over the header and payload of every frame in a
/// stream.  The frames' own CRC trailers are left out: a CRC run over
/// data followed by that data's CRC always ends in the same state, so a
/// CRC of the raw concatenation would see nothing but the last frame's
/// length.
std::uint32_t stream_digest(std::span<const std::uint8_t> stream) {
  FrameStreamDecoder frames;
  frames.feed(stream);
  std::uint32_t crc = 0;
  for (const auto& packet : frames.take()) {
    const auto bytes = fec::serialize(packet);
    crc = crc32(std::span<const std::uint8_t>(bytes).first(
                    bytes.size() - fec::kCrcWireSize),
                crc);
  }
  EXPECT_EQ(frames.buffered(), 0u);
  EXPECT_EQ(frames.resyncs(), 0u);
  return crc;
}

// Recorded from the blocking UdpNp sender/receiver pair that preceded
// the reactor drivers as the real-socket engine, on both backends, for
// the sessions below (same groups, configs, loss seeds).  The drivers
// must reproduce that engine's wire bytes exactly.
constexpr WireDigest kCleanDigest{0x2863ba19u, 2876};        // 22 frames
constexpr WireDigest kLossyDigest{0xf5518d22u, 5702};        // 47 frames
constexpr WireDigest kReliableDigest{0x974d0cf7u, 3544};     // 28 frames
constexpr WireDigest kCrashResumeDigest{0x2662f1cau, 3338};  // 25 frames
// Recorded from the reactor drivers, on both backends, before the
// quarantine catch-up pass was folded into the main round machine.
// Catch-up unicasts to the stragglers, so each member gets its own
// stream.
constexpr WireDigest kCatchUpDigests[] = {{0xa300a62au, 5470},
                                          {0x01ab1299u, 5676},
                                          {0x84a22c51u, 6884}};
constexpr WireDigest kHardenedDigest{0xde711740u, 5270};

void expect_member_digest(const SessionRun& run, std::size_t m,
                          WireDigest want) {
  EXPECT_EQ(run.tx[m].size(), want.bytes) << "member " << m;
  EXPECT_EQ(stream_digest(run.tx[m]), want.crc)
      << "member " << m << std::hex << ": got 0x" << stream_digest(run.tx[m]);
}

void expect_digest(const SessionRun& run, WireDigest want) {
  for (std::size_t m = 0; m < run.tx.size(); ++m)
    expect_member_digest(run, m, want);
}

void expect_same_wire(const SessionRun& a, const SessionRun& b) {
  ASSERT_EQ(a.tx.size(), b.tx.size());
  for (std::size_t m = 0; m < a.tx.size(); ++m) {
    EXPECT_EQ(a.tx[m].size(), b.tx[m].size()) << "member " << m;
    EXPECT_EQ(a.tx[m], b.tx[m]) << "member " << m << " stream diverged";
  }
}

void expect_same_sender_stats(const UdpNpSenderStats& a,
                              const UdpNpSenderStats& b) {
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.parity_sent, b.parity_sent);
  EXPECT_EQ(a.polls_sent, b.polls_sent);
  EXPECT_EQ(a.naks_received, b.naks_received);
  EXPECT_EQ(a.tgs_exhausted, b.tgs_exhausted);
  EXPECT_EQ(a.acks_received, b.acks_received);
  EXPECT_EQ(a.poll_retries, b.poll_retries);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.tgs_unconfirmed, b.tgs_unconfirmed);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.tgs_skipped, b.tgs_skipped);
}

void expect_same_report(const protocol::PartialDeliveryReport& a,
                        const protocol::PartialDeliveryReport& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.units_failed, b.units_failed);
  EXPECT_EQ(a.poll_retries, b.poll_retries);
}

void expect_same_receivers(const SessionRun& a, const SessionRun& b) {
  ASSERT_EQ(a.receivers.size(), b.receivers.size());
  for (std::size_t r = 0; r < a.receivers.size(); ++r) {
    const auto& x = a.receivers[r];
    const auto& y = b.receivers[r];
    EXPECT_EQ(x.result.complete, y.result.complete) << "receiver " << r;
    EXPECT_EQ(x.result.received, y.result.received) << "receiver " << r;
    EXPECT_EQ(x.result.dropped, y.result.dropped) << "receiver " << r;
    EXPECT_EQ(x.result.decoded, y.result.decoded) << "receiver " << r;
    EXPECT_EQ(x.result.naks_sent, y.result.naks_sent) << "receiver " << r;
    // ...and every other counter of the result.
    EXPECT_TRUE(x.result == y.result) << "receiver " << r;
    EXPECT_EQ(x.redelivered_prior, y.redelivered_prior) << "receiver " << r;
    // Every decoded TG matched the payload on both runs.
    EXPECT_EQ(x.payload_mismatches, 0u) << "receiver " << r;
    EXPECT_EQ(y.payload_mismatches, 0u) << "receiver " << r;
  }
}

/// Every run must match the first, kPaths' reference: member streams,
/// sender stats and report, and receiver counters.
void expect_paths_agree(const std::vector<SessionRun>& runs) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE(path_name(i) + " vs " + path_name(0));
    expect_same_wire(runs[0], runs[i]);
    expect_same_sender_stats(runs[0].sender, runs[i].sender);
    expect_same_report(runs[0].sender.report, runs[i].sender.report);
    expect_same_receivers(runs[0], runs[i]);
  }
}

void expect_digest(const std::vector<SessionRun>& runs, WireDigest want) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(path_name(i));
    expect_digest(runs[i], want);
  }
}

// UdpNpConfig::arena_frames promises "same bytes, bounded memory": a
// one-frame arena fills every burst across many arena generations.  A
// pacer defers bursts on reactor timers when it binds.  Neither may move
// a byte, so a pinned session must reproduce its digest on every path
// with a one-frame arena, and with a pacer far above the session's send
// rate.
void expect_knobs_keep_bytes(const std::vector<TgBytes>& groups,
                             std::size_t receivers, const UdpNpConfig& cfg,
                             double inject_loss, WireDigest want) {
  UdpNpConfig one_frame_arena = cfg;
  one_frame_arena.arena_frames = 1;
  UdpNpConfig idle_pacer = cfg;
  idle_pacer.overload.pace_rate = 1e9;
  for (const auto& variant : {one_frame_arena, idle_pacer}) {
    const auto runs = run_paths(groups, receivers, variant, inject_loss);
    expect_digest(runs, want);
    if (cfg.reliable_control) {
      for (const auto& run : runs) {
        EXPECT_TRUE(run.sender.report.complete) << run.sender.report.summary();
      }
    }
  }
}

TEST(UdpDifferential, CleanSessionIsByteIdentical) {
  const auto groups = random_groups(3, 6, 128, 21);
  const auto runs = run_paths(groups, 3, base_config(), 0.0);
  expect_paths_agree(runs);
  expect_digest(runs, kCleanDigest);
}

TEST(UdpDifferential, LossyRepairScheduleIsByteIdentical) {
  // Injected loss is seeded per receiver, so every run loses the same
  // packets — the NAK counts, the parity bursts they trigger, and hence
  // the whole wire stream must match frame for frame.
  const auto groups = random_groups(4, 6, 128, 22);
  const auto runs = run_paths(groups, 4, base_config(), 0.2);
  EXPECT_GT(runs[0].sender.parity_sent, 0u);
  expect_paths_agree(runs);
  expect_digest(runs, kLossyDigest);
  expect_knobs_keep_bytes(groups, 4, base_config(), 0.2, kLossyDigest);
}

TEST(UdpDifferential, ReliableSessionReportsAreIdentical) {
  const auto groups = random_groups(3, 6, 128, 23);
  const auto runs = run_paths(groups, 3, reliable_config(), 0.15);
  EXPECT_TRUE(runs[0].sender.report.complete)
      << runs[0].sender.report.summary();
  expect_paths_agree(runs);
  expect_digest(runs, kReliableDigest);
  expect_knobs_keep_bytes(groups, 3, reliable_config(), 0.15, kReliableDigest);
}

// Quarantine with parity-only catch-up (net/overload.hpp): one member at
// 60 % loss falls behind an acked quorum, is served its missing TGs by
// unicast after the main pass, and is evicted when the catch-up budget
// runs out.  The straggler's stream differs from the healthy members',
// so each member's digest is pinned; under group delivery the main pass
// reaches it through the group and the catch-up through its unicast
// socket.
TEST(UdpDifferential, QuarantineCatchUpIsByteIdentical) {
  const auto groups = random_groups(5, 6, 128, 25);
  UdpNpConfig cfg = reliable_config();
  cfg.overload.quarantine_deficit = 2;
  cfg.overload.catch_up_rounds = 3;
  SessionSetup setup;
  setup.receivers = 3;
  setup.member_loss = {0.05, 0.05, 0.6};
  const auto runs = run_paths(groups, cfg, setup);
  EXPECT_EQ(runs[0].sender.members_quarantined, 2u);
  EXPECT_EQ(runs[0].sender.evictions, 1u);
  expect_paths_agree(runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(path_name(i));
    ASSERT_EQ(runs[i].tx.size(), std::size(kCatchUpDigests));
    for (std::size_t m = 0; m < runs[i].tx.size(); ++m)
      expect_member_digest(runs[i], m, kCatchUpDigests[m]);
  }
}

// The hardened mix: the peer guard with authenticated control frames
// (every POLL carries a group-keyed trailer) and receiver-side NAK
// suppression (slotted first NAKs, cancelled by repair that lands
// first).
TEST(UdpDifferential, HardenedSessionIsByteIdentical) {
  const auto groups = random_groups(4, 6, 128, 26);
  UdpNpConfig cfg = reliable_config();
  cfg.guard.enabled = true;
  cfg.guard.auth = true;
  cfg.guard.auth_key = 0x1234;
  cfg.overload.nak_suppression = true;
  const auto runs = run_paths(groups, 4, cfg, 0.15);
  EXPECT_TRUE(runs[0].sender.report.complete)
      << runs[0].sender.report.summary();
  expect_paths_agree(runs);
  expect_digest(runs, kHardenedDigest);
}

// Crash + resume across two sender lives: the crash must clamp the wire
// stream at the same frame on every path, and the resumed life must
// continue from the same journal state.
TEST(UdpDifferential, CrashResumeClampsAtTheSameFrame) {
  const auto groups = random_groups(3, 6, 128, 24);
  // Per-process journal names: concurrent runs of this binary must not
  // share a journal.
  const std::string journal = ::testing::TempDir() +
                              std::to_string(::getpid()) + "_pbl_diff.log";
  std::vector<server::harness::CrashRun> runs;
  for (std::size_t i = 0; i < std::size(kPaths); ++i) {
    ScopedUdpBackendOverride backend(kPaths[i].backend);
    ScopedUdpDeliveryOverride delivery(kPaths[i].delivery);
    runs.push_back(
        server::harness::run_crash_session(groups, base_config(), journal));
    EXPECT_FALSE(runs.back().session.wedged)
        << "watchdog fired on " << path_name(i);
  }
  EXPECT_TRUE(runs[0].life1.crashed);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(path_name(i));
    if (i > 0) {
      expect_same_wire(runs[0].session, runs[i].session);
      expect_same_sender_stats(runs[0].life1, runs[i].life1);
      expect_same_sender_stats(runs[0].session.sender,
                               runs[i].session.sender);
      expect_same_receivers(runs[0].session, runs[i].session);
    }
    EXPECT_TRUE(runs[i].session.receivers[0].result.complete);
    EXPECT_EQ(runs[i].session.receivers[0].redelivered_prior, 0u);
    expect_digest(runs[i].session, kCrashResumeDigest);
  }
}

// --- FrameStreamDecoder: deterministic segmentation invariance --------

std::vector<std::uint8_t> wire_frame(fec::PacketType type,
                                     std::uint16_t index, std::uint16_t k,
                                     std::uint16_t n, std::size_t len) {
  fec::Packet p;
  p.header.type = type;
  p.header.tg = 7;
  p.header.index = index;
  p.header.k = k;
  p.header.n = n;
  p.payload.assign(len, static_cast<std::uint8_t>(index + 1));
  p.header.payload_len = static_cast<std::uint32_t>(len);
  return fec::serialize(p);
}

TEST(FrameStream, ParsesConcatenatedFrames) {
  FrameStreamDecoder dec;
  std::vector<std::uint8_t> stream;
  for (std::uint16_t i = 0; i < 4; ++i) {
    const auto f = wire_frame(fec::PacketType::kData, i, 6, 12, 32);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  dec.feed(stream);
  const auto got = dec.take();
  ASSERT_EQ(got.size(), 4u);
  for (std::uint16_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].header.index, i);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.resyncs(), 0u);
}

TEST(FrameStream, ResyncsPastGarbageAndSkipsSealedInvalid) {
  FrameStreamDecoder dec;
  std::vector<std::uint8_t> stream{0xFF, 0x13, 0x37};  // garbage prefix
  // Sealed but semantically invalid: DATA index in the parity range.
  // payload_len 300 keeps every misaligned length read implausible, so
  // the decoder slides through all 3 garbage offsets instead of pausing
  // on a phantom "frame still arriving" (which would also be correct,
  // but leaves nothing to assert until more bytes land).
  const auto bad = wire_frame(fec::PacketType::kData, 9, 6, 12, 300);
  stream.insert(stream.end(), bad.begin(), bad.end());
  const auto good = wire_frame(fec::PacketType::kParity, 9, 6, 12, 300);
  stream.insert(stream.end(), good.begin(), good.end());
  dec.feed(stream);
  const auto got = dec.take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].header.type, fec::PacketType::kParity);
  EXPECT_EQ(dec.resyncs(), 3u);  // one slide per garbage byte
  EXPECT_EQ(dec.skipped_invalid(), 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameStream, ArbitrarySegmentationDecodesIdentically) {
  // The deterministic twin of fuzz_frame_batch: valid frames mixed with
  // garbage and a truncated tail, cut at RNG-driven boundaries, must
  // decode exactly like the unsegmented stream.
  std::vector<std::uint8_t> stream;
  Rng noise(77);
  for (std::uint16_t i = 0; i < 8; ++i) {
    if (i % 3 == 1)  // interleave garbage between frames
      for (int g = 0; g < 5; ++g)
        stream.push_back(static_cast<std::uint8_t>(noise()));
    const auto f = wire_frame(
        i % 2 ? fec::PacketType::kParity : fec::PacketType::kData,
        i % 2 ? static_cast<std::uint16_t>(6 + i % 6) : i % 6, 6, 12,
        16 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  stream.resize(stream.size() - 7);  // truncated tail frame

  FrameStreamDecoder whole;
  whole.feed(stream);
  const auto expected = whole.take();
  EXPECT_GT(expected.size(), 0u);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FrameStreamDecoder segmented;
    Rng rng(seed);
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t len = std::min<std::size_t>(
          1 + rng() % 61, stream.size() - pos);
      segmented.feed(std::span<const std::uint8_t>(stream).subspan(pos, len));
      pos += len;
    }
    const auto got = segmented.take();
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed;
    EXPECT_EQ(segmented.resyncs(), whole.resyncs()) << "seed " << seed;
    EXPECT_EQ(segmented.skipped_invalid(), whole.skipped_invalid());
    EXPECT_EQ(segmented.buffered(), whole.buffered());
  }
}

}  // namespace
}  // namespace pbl::net
