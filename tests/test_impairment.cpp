// Unit tests for the deterministic network impairment policy: seeded
// reproducibility (byte-identical fault schedules), per-fault counters,
// and the corruption-becomes-loss contract on both integration paths.
#include "net/impairment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "fec/packet.hpp"

namespace pbl::net {
namespace {

fec::Packet sample_packet(std::uint32_t tg, std::uint16_t index,
                          std::size_t len = 32) {
  fec::Packet p;
  p.header.type = index < 5 ? fec::PacketType::kData : fec::PacketType::kParity;
  p.header.tg = tg;
  p.header.index = index;
  p.header.k = 5;
  p.header.n = 8;
  p.header.seq = tg * 8u + index;
  p.header.payload_len = static_cast<std::uint32_t>(len);
  p.payload.resize(len);
  for (std::size_t i = 0; i < len; ++i)
    p.payload[i] = static_cast<std::uint8_t>(tg + index + i);
  return p;
}

ImpairmentConfig everything_config(std::uint64_t seed) {
  ImpairmentConfig cfg;
  cfg.seed = seed;
  cfg.drop_prob = 0.05;
  cfg.dup_prob = 0.1;
  cfg.corrupt_prob = 0.1;
  cfg.truncate_prob = 0.05;
  cfg.delay_jitter = 0.002;
  cfg.reorder_prob = 0.15;
  cfg.reorder_window = 4;
  cfg.burst_drop_p = 0.05;
  return cfg;
}

TEST(Impairment, DefaultConfigIsDisabledAndTransparent) {
  const ImpairmentConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  Impairment imp(cfg);
  const auto p = sample_packet(0, 1);
  const auto out = imp.apply(p, 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet, p);
  EXPECT_DOUBLE_EQ(out[0].extra_delay, 0.0);

  const auto wire = fec::serialize(p);
  const auto bytes_out = imp.apply_bytes(wire);
  ASSERT_EQ(bytes_out.size(), 1u);
  EXPECT_EQ(bytes_out[0].bytes, wire);
  EXPECT_TRUE(imp.drain().empty());
}

TEST(Impairment, ValidatesConfiguration) {
  ImpairmentConfig cfg;
  cfg.drop_prob = 1.5;
  EXPECT_THROW(Impairment{cfg}, std::invalid_argument);
  cfg = {};
  cfg.corrupt_prob = -0.1;
  EXPECT_THROW(Impairment{cfg}, std::invalid_argument);
  cfg = {};
  cfg.delay_jitter = -1.0;
  EXPECT_THROW(Impairment{cfg}, std::invalid_argument);
  cfg = {};
  cfg.burst_drop_p = 2.0;
  EXPECT_THROW(Impairment{cfg}, std::invalid_argument);
}

TEST(Impairment, SameSeedYieldsByteIdenticalSchedule) {
  // The acceptance property: two policies with the same config replay the
  // same fault schedule bit for bit, on both integration paths.
  const auto cfg = everything_config(12345);
  Impairment a(cfg);
  Impairment b(cfg);
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto p = sample_packet(i / 8, static_cast<std::uint16_t>(i % 8));
    const double now = 0.001 * i;
    const auto da = a.apply(p, now);
    const auto db = b.apply(p, now);
    ASSERT_EQ(da.size(), db.size()) << "packet " << i;
    for (std::size_t j = 0; j < da.size(); ++j) {
      EXPECT_EQ(fec::serialize(da[j].packet), fec::serialize(db[j].packet));
      EXPECT_DOUBLE_EQ(da[j].extra_delay, db[j].extra_delay);
    }
  }
  Impairment c(cfg);
  Impairment d(cfg);
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto wire =
        fec::serialize(sample_packet(i / 8, static_cast<std::uint16_t>(i % 8)));
    EXPECT_EQ(c.apply_bytes(wire), d.apply_bytes(wire)) << "datagram " << i;
  }
  EXPECT_EQ(c.drain(), d.drain());
}

TEST(Impairment, DifferentSeedsDiverge) {
  Impairment a(everything_config(1));
  Impairment b(everything_config(2));
  bool diverged = false;
  for (std::uint32_t i = 0; i < 200 && !diverged; ++i) {
    const auto p = sample_packet(i / 8, static_cast<std::uint16_t>(i % 8));
    const auto da = a.apply(p, 0.001 * i);
    const auto db = b.apply(p, 0.001 * i);
    if (da.size() != db.size()) {
      diverged = true;
      break;
    }
    for (std::size_t j = 0; j < da.size(); ++j)
      if (da[j].extra_delay != db[j].extra_delay ||
          !(da[j].packet == db[j].packet))
        diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Impairment, CertainDropEatsEverything) {
  ImpairmentConfig cfg;
  cfg.drop_prob = 1.0;
  Impairment imp(cfg);
  for (std::uint32_t i = 0; i < 50; ++i)
    EXPECT_TRUE(imp.apply(sample_packet(0, 1), 0.001 * i).empty());
  EXPECT_EQ(imp.stats().processed, 50u);
  EXPECT_EQ(imp.stats().dropped, 50u);
  EXPECT_EQ(imp.stats().delivered, 0u);
}

TEST(Impairment, CertainDuplicationDoublesEveryPacket) {
  ImpairmentConfig cfg;
  cfg.dup_prob = 1.0;
  Impairment imp(cfg);
  const auto p = sample_packet(3, 2);
  for (int i = 0; i < 20; ++i) {
    const auto out = imp.apply(p, 0.0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].packet, p);
    EXPECT_EQ(out[1].packet, p);
  }
  EXPECT_EQ(imp.stats().duplicated, 20u);
  EXPECT_EQ(imp.stats().delivered, 40u);
}

TEST(Impairment, CorruptionBecomesLossOnThePacketPath) {
  // Flipped wire bits must never surface as a parsed packet with wrong
  // bytes: either the CRC/semantic checks kill the copy (the overwhelming
  // case) or the flips cancelled and the copy is bit-identical.
  ImpairmentConfig cfg;
  cfg.seed = 7;
  cfg.corrupt_prob = 1.0;
  Impairment imp(cfg);
  const auto p = sample_packet(1, 6);
  std::size_t survivors = 0;
  for (int i = 0; i < 300; ++i) {
    for (const auto& d : imp.apply(p, 0.0)) {
      EXPECT_EQ(d.packet, p);  // survivor implies cancelled flips
      ++survivors;
    }
  }
  EXPECT_EQ(imp.stats().corrupted, 300u);
  EXPECT_EQ(imp.stats().corrupt_dropped, 300u - survivors);
  EXPECT_GT(imp.stats().corrupt_dropped, 290u);
}

TEST(Impairment, TruncationBecomesLossOnThePacketPath) {
  ImpairmentConfig cfg;
  cfg.seed = 8;
  cfg.truncate_prob = 1.0;
  Impairment imp(cfg);
  const auto p = sample_packet(1, 0);
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(imp.apply(p, 0.0).empty());  // a shorter image never parses
  EXPECT_EQ(imp.stats().truncated, 100u);
  EXPECT_EQ(imp.stats().corrupt_dropped, 100u);
}

TEST(Impairment, JitterStaysWithinBound) {
  ImpairmentConfig cfg;
  cfg.seed = 9;
  cfg.delay_jitter = 0.004;
  Impairment imp(cfg);
  bool nonzero = false;
  for (int i = 0; i < 100; ++i) {
    const auto out = imp.apply(sample_packet(0, 0), 0.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(out[0].extra_delay, 0.0);
    EXPECT_LT(out[0].extra_delay, cfg.delay_jitter);
    nonzero |= out[0].extra_delay > 0.0;
  }
  EXPECT_TRUE(nonzero);
}

TEST(Impairment, PacketPathReorderingSlipsByWholeSlots) {
  ImpairmentConfig cfg;
  cfg.seed = 10;
  cfg.reorder_prob = 1.0;
  cfg.reorder_window = 3;
  cfg.reorder_step = 0.001;
  Impairment imp(cfg);
  for (int i = 0; i < 100; ++i) {
    const auto out = imp.apply(sample_packet(0, 0), 0.0);
    ASSERT_EQ(out.size(), 1u);
    // slip in {1, 2, 3} steps
    const double slots = out[0].extra_delay / cfg.reorder_step;
    EXPECT_NEAR(slots, std::round(slots), 1e-9);
    EXPECT_GE(slots, 1.0 - 1e-9);
    EXPECT_LE(slots, 3.0 + 1e-9);
  }
  EXPECT_EQ(imp.stats().reordered, 100u);
}

TEST(Impairment, BytePathReordersWithoutLosingDatagrams) {
  // Pure reordering: every datagram survives (counting drain), order is
  // permuted, and no datagram slips more than reorder_window places.
  ImpairmentConfig cfg;
  cfg.seed = 11;
  cfg.reorder_prob = 0.5;
  cfg.reorder_window = 4;
  Impairment imp(cfg);

  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::vector<std::uint8_t>> got;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto wire =
        fec::serialize(sample_packet(i, static_cast<std::uint16_t>(i % 8)));
    sent.push_back(wire);
    for (auto& d : imp.apply_bytes(wire)) got.push_back(std::move(d.bytes));
  }
  for (auto& d : imp.drain()) got.push_back(std::move(d.bytes));

  ASSERT_EQ(got.size(), sent.size());
  auto sorted_sent = sent;
  auto sorted_got = got;
  std::sort(sorted_sent.begin(), sorted_sent.end());
  std::sort(sorted_got.begin(), sorted_got.end());
  EXPECT_EQ(sorted_got, sorted_sent);  // nothing lost, nothing invented
  EXPECT_NE(got, sent);                // but the order changed
  EXPECT_GT(imp.stats().reordered, 0u);
  EXPECT_EQ(imp.stats().delivered, sent.size());

  // A held-back datagram is released after at most reorder_window
  // successors: position displacement is bounded.
  std::map<std::vector<std::uint8_t>, std::size_t> sent_pos;
  for (std::size_t i = 0; i < sent.size(); ++i) sent_pos[sent[i]] = i;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto it = sent_pos.find(got[i]);
    ASSERT_NE(it, sent_pos.end());
    if (i > it->second) {
      EXPECT_LE(i - it->second, cfg.reorder_window + 1);
    }
  }
}

TEST(Impairment, BurstDropsComeFromTheGilbertChain) {
  ImpairmentConfig cfg;
  cfg.seed = 12;
  cfg.burst_drop_p = 0.2;
  cfg.burst_len = 3.0;
  Impairment imp(cfg);
  std::size_t delivered = 0;
  for (int i = 0; i < 2000; ++i)
    delivered += imp.apply(sample_packet(0, 0), 0.001 * i).size();
  const auto& s = imp.stats();
  EXPECT_EQ(s.dropped, 0u);  // no i.i.d. component configured
  EXPECT_GT(s.burst_dropped, 0u);
  EXPECT_EQ(s.burst_dropped + delivered, 2000u);
  // The chain is calibrated to a 0.2 stationary loss rate.
  EXPECT_NEAR(static_cast<double>(s.burst_dropped) / 2000.0, 0.2, 0.06);
}

TEST(Impairment, StatsAccumulateAcrossInstances) {
  ImpairmentStats total;
  ImpairmentConfig cfg;
  cfg.drop_prob = 1.0;
  Impairment a(cfg);
  Impairment b(cfg);
  (void)a.apply(sample_packet(0, 0), 0.0);
  (void)b.apply(sample_packet(0, 0), 0.0);
  (void)b.apply(sample_packet(0, 1), 0.0);
  total += a.stats();
  total += b.stats();
  EXPECT_EQ(total.processed, 3u);
  EXPECT_EQ(total.dropped, 3u);
}

// --- Control-path (NAK/POLL) faults ----------------------------------

fec::Packet control_packet(fec::PacketType type, std::uint32_t tg) {
  fec::Packet p;
  p.header.type = type;
  p.header.tg = tg;
  p.header.k = 5;
  p.header.n = 8;
  p.header.seq = tg;
  return p;
}

TEST(Impairment, ControlKnobsDoNotCountAsDataFaults) {
  ImpairmentConfig cfg;
  cfg.control_drop = 0.5;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_TRUE(cfg.control_enabled());
}

TEST(Impairment, ControlFaultsLeaveDataScheduleByteIdentical) {
  // Enabling the control knobs must not shift a single draw of the
  // data-path fault stream: the same seed yields the same data schedule
  // with control faults on or off, even with control decisions
  // interleaved between data packets.
  ImpairmentConfig plain = everything_config(1234);
  ImpairmentConfig with_control = plain;
  with_control.control_drop = 0.3;
  with_control.control_dup = 0.2;
  with_control.control_delay = 0.002;
  Impairment a(plain);
  Impairment b(with_control);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto p = sample_packet(i / 8, static_cast<std::uint16_t>(i % 8));
    const double now = 0.001 * i;
    const auto da = a.apply(p, now);
    // b additionally processes control traffic between data packets.
    (void)b.apply_control(control_packet(fec::PacketType::kPoll, i));
    const auto db = b.apply(p, now);
    (void)b.apply_control(control_packet(fec::PacketType::kNak, i));
    ASSERT_EQ(da.size(), db.size()) << "packet " << i;
    for (std::size_t j = 0; j < da.size(); ++j) {
      EXPECT_EQ(da[j].packet, db[j].packet);
      EXPECT_DOUBLE_EQ(da[j].extra_delay, db[j].extra_delay);
    }
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_GT(b.stats().control_processed, 0u);
}

TEST(Impairment, ControlScheduleIsSeedDeterministic) {
  ImpairmentConfig cfg;
  cfg.seed = 77;
  cfg.control_drop = 0.25;
  cfg.control_dup = 0.25;
  cfg.control_delay = 0.003;
  Impairment a(cfg);
  Impairment b(cfg);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto p = control_packet(
        i % 2 ? fec::PacketType::kNak : fec::PacketType::kPoll, i);
    const auto da = a.apply_control(p);
    const auto db = b.apply_control(p);
    ASSERT_EQ(da.size(), db.size()) << "packet " << i;
    for (std::size_t j = 0; j < da.size(); ++j)
      EXPECT_DOUBLE_EQ(da[j].extra_delay, db[j].extra_delay);
  }
  EXPECT_EQ(a.stats().control_dropped, b.stats().control_dropped);
  EXPECT_GT(a.stats().control_dropped, 0u);
  EXPECT_GT(a.stats().control_duplicated, 0u);
  EXPECT_GT(a.stats().control_delayed, 0u);
}

TEST(Impairment, CertainControlDropEatsControlOnly) {
  ImpairmentConfig cfg;
  cfg.control_drop = 1.0;
  Impairment imp(cfg);
  EXPECT_TRUE(imp.apply_control(control_packet(fec::PacketType::kPoll, 0))
                  .empty());
  // Data traffic is untouched by control knobs.
  const auto p = sample_packet(0, 1);
  const auto out = imp.apply(p, 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet, p);
  EXPECT_EQ(imp.stats().control_processed, 1u);
  EXPECT_EQ(imp.stats().control_dropped, 1u);
  EXPECT_EQ(imp.stats().dropped, 0u);
}

TEST(Impairment, CertainControlDupDoublesEveryControlPacket) {
  ImpairmentConfig cfg;
  cfg.control_dup = 1.0;
  Impairment imp(cfg);
  const auto out =
      imp.apply_control(control_packet(fec::PacketType::kNak, 3));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].packet, out[1].packet);
  EXPECT_EQ(imp.stats().control_duplicated, 1u);
  EXPECT_EQ(imp.stats().control_delivered, 2u);
}

TEST(Impairment, BytePathDivertsControlDatagramsByWireType) {
  // On the UDP byte path the first wire byte is the packet type: POLL
  // and NAK datagrams take the control policy, DATA/PARITY the data one.
  ImpairmentConfig cfg;
  cfg.control_drop = 1.0;
  Impairment imp(cfg);
  const auto poll_wire =
      fec::serialize(control_packet(fec::PacketType::kPoll, 0));
  ASSERT_EQ(poll_wire[0], 2u);
  EXPECT_TRUE(imp.apply_bytes(poll_wire).empty());
  const auto data_wire = fec::serialize(sample_packet(0, 1));
  EXPECT_EQ(imp.apply_bytes(data_wire).size(), 1u);
  EXPECT_EQ(imp.stats().control_dropped, 1u);
  EXPECT_EQ(imp.stats().dropped, 0u);
}

}  // namespace
}  // namespace pbl::net
