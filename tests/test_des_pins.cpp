// Exact pins of the discrete-event protocol simulators' output.
//
// Each case runs one seeded session and compares every integer counter
// of its stats (rendered into one line, so a mismatch prints the whole
// new line) and its completion time against values recorded from the
// simulators before their unread options were pruned (the NP cases
// were re-recorded once NpSession ran the shared NP core,
// protocol/np_core.hpp, on the drivers' stop-and-wait schedule).  NP
// sessions also pin their wire bytes: CRC-32 chained over the header and payload of
// every packet the sender and receivers put on the channel, the rule
// test_udp_differential uses for the reactor drivers.  Any change that
// moves one packet, one RNG draw or one event time of a pinned session
// fails here; a deliberate change re-records the pins and says why.
//
// Seeds are fixed (never chaos_seed): the point is the exact schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fec/packet.hpp"
#include "loss/loss_model.hpp"
#include "protocol/arq_nofec.hpp"
#include "protocol/layered_protocol.hpp"
#include "protocol/np_protocol.hpp"
#include "util/crc32.hpp"

namespace pbl::protocol {
namespace {

struct WireDigest {
  std::uint32_t crc = 0;
  std::uint64_t packets = 0;
};

struct NpRun {
  NpStats stats;
  WireDigest wire;
};

NpRun run_np(const loss::LossModel& model, std::size_t receivers,
             std::size_t tgs, const NpConfig& cfg, std::uint64_t seed) {
  NpRun run;
  NpSession session(model, receivers, tgs, cfg, seed);
  session.set_wire_tap([&run](const fec::Packet& p) {
    // The frame's own CRC trailer is left out: chaining a CRC over data
    // followed by that data's CRC always ends in the same state.
    const auto bytes = fec::serialize(p);
    const std::span<const std::uint8_t> frame(bytes);
    run.wire.crc =
        crc32(frame.first(bytes.size() - fec::kCrcWireSize), run.wire.crc);
    ++run.wire.packets;
  });
  run.stats = session.run();
  return run;
}

std::string counters(const net::ImpairmentStats& s) {
  std::ostringstream o;
  o << "imp=" << s.processed << '/' << s.dropped << '/' << s.burst_dropped
    << '/' << s.duplicated << '/' << s.corrupted << '/' << s.corrupt_dropped
    << '/' << s.truncated << '/' << s.reordered << '/' << s.delivered
    << " ctl=" << s.control_processed << '/' << s.control_dropped << '/'
    << s.control_duplicated << '/' << s.control_delayed << '/'
    << s.control_delivered;
  return o.str();
}

std::string counters(const PartialDeliveryReport& r) {
  std::ostringstream o;
  o << "report=" << r.complete << '/' << r.deadline_expired << '/'
    << r.evictions << '/' << r.units_failed << '/' << r.poll_retries << '/'
    << r.nak_retries;
  return o.str();
}

std::string counters(const NpStats& s) {
  std::ostringstream o;
  o << "data=" << s.data_sent << " parity=" << s.parity_sent
    << " proactive=" << s.proactive_sent << " polls=" << s.polls_sent
    << " naks=" << s.naks_sent << " suppressed=" << s.naks_suppressed
    << " dups=" << s.duplicate_receptions
    << " deliveries=" << s.packet_deliveries
    << " encoded=" << s.parities_encoded << " decoded=" << s.packets_decoded
    << " completed=" << s.tgs_completed << " failed=" << s.tgs_failed
    << " delivered=" << s.all_delivered << " acks=" << s.acks_sent << '/'
    << s.acks_received << " retries=" << s.poll_retries << '/'
    << s.nak_retries << " evictions=" << s.evictions
    << " crashed=" << s.sender_crashed << " stale=" << s.stale_rejected
    << " skipped=" << s.resumed_tgs_skipped << ' ' << counters(s.impairment)
    << ' ' << counters(s.report);
  return o.str();
}

std::string counters(const LayeredStats& s) {
  std::ostringstream o;
  o << "blocks=" << s.blocks_sent << " data=" << s.data_sent
    << " parity=" << s.parity_sent << " padding=" << s.padding_sent
    << " naks=" << s.naks_sent << " suppressed=" << s.naks_suppressed
    << " dups=" << s.duplicate_deliveries << " decoded=" << s.packets_decoded
    << " delivered=" << s.all_delivered << " acks=" << s.acks_sent << '/'
    << s.acks_received << " retries=" << s.poll_retries << '/'
    << s.nak_retries << " late=" << s.late_naks
    << " evictions=" << s.evictions
    << " unconfirmed=" << s.blocks_unconfirmed << ' '
    << counters(s.impairment) << ' ' << counters(s.report);
  return o.str();
}

std::string counters(const ArqStats& s) {
  std::ostringstream o;
  o << "data=" << s.data_sent << " retx=" << s.retransmissions
    << " polls=" << s.polls_sent << " naks=" << s.naks_sent
    << " suppressed=" << s.naks_suppressed
    << " dups=" << s.duplicate_receptions << " delivered=" << s.all_delivered;
  return o.str();
}

void expect_wire(const NpRun& run, WireDigest want) {
  EXPECT_EQ(run.wire.packets, want.packets);
  EXPECT_EQ(run.wire.crc, want.crc)
      << std::hex << "got 0x" << run.wire.crc;
}

NpConfig small_np() {
  NpConfig cfg;
  cfg.k = 8;
  cfg.h = 40;
  cfg.packet_len = 64;
  return cfg;
}

NpConfig reliable_np() {
  NpConfig cfg = small_np();
  cfg.reliable_control = true;
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  return cfg;
}

// ---- NP ---------------------------------------------------------------

TEST(DesPins, NpNakOnlyBernoulli) {
  // Slotting and damping under independent loss: the Fig 13 reference.
  loss::BernoulliLossModel model(0.08);
  const auto run = run_np(model, 20, 6, small_np(), 101);
  EXPECT_EQ(counters(run.stats),
            "data=48 parity=18 proactive=0 polls=15 naks=52 suppressed=13 "
            "dups=250 deliveries=1210 encoded=18 decoded=78 completed=6 "
            "failed=0 delivered=1 acks=0/0 retries=0/0 evictions=0 "
            "crashed=0 stale=0 skipped=0 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=0/0/0/0/0 report=1/0/0/0/0/0");
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 0.9850000000000001);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.11750000000000001);
  expect_wire(run, {0x62a97be6u, 133});
}

TEST(DesPins, NpNakOnlyGilbert) {
  const auto model =
      loss::GilbertLossModel::from_packet_stats(0.05, 3.0, 0.001);
  const auto run = run_np(model, 15, 6, small_np(), 202);
  EXPECT_EQ(counters(run.stats),
            "data=48 parity=28 proactive=0 polls=13 naks=11 suppressed=7 "
            "dups=349 deliveries=1069 encoded=28 decoded=46 completed=6 "
            "failed=0 delivered=1 acks=0/0 retries=0/0 evictions=0 "
            "crashed=0 stale=0 skipped=0 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=0/0/0/0/0 report=1/0/0/0/0/0");
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 0.86499999999999999);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.097499999999999989);
  expect_wire(run, {0xd2a6c793u, 100});
}

TEST(DesPins, NpReliableUnderControlAndDataImpairment) {
  loss::BernoulliLossModel model(0.05);
  NpConfig cfg = reliable_np();
  cfg.impairment.seed = 303;
  cfg.impairment.control_drop = 0.1;
  cfg.impairment.control_dup = 0.1;
  cfg.impairment.control_delay = 0.002;
  cfg.impairment.dup_prob = 0.05;
  cfg.impairment.corrupt_prob = 0.02;
  cfg.impairment.delay_jitter = 0.001;
  cfg.impairment.reorder_prob = 0.1;
  cfg.impairment.reorder_window = 3;
  const auto run = run_np(model, 8, 5, cfg, 303);
  EXPECT_EQ(counters(run.stats),
            "data=40 parity=8 proactive=0 polls=15 naks=14 suppressed=7 "
            "dups=52 deliveries=372 encoded=8 decoded=23 completed=5 "
            "failed=0 delivered=1 acks=93/90 retries=4/0 evictions=0 "
            "crashed=0 stale=0 skipped=0 imp=366/0/0/14/8/8/0/39/372 "
            "ctl=325/39/24/310/310 report=1/0/0/0/4/0");
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 1.1166733042730386);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.11546215702221016);
  expect_wire(run, {0xeb3f93afu, 170});
}

TEST(DesPins, NpReliableEvictsReceiversSilencedByControlLoss) {
  // Control loss heavy enough that some receivers' answers are lost for
  // grace_rounds consecutive rounds: eviction fires, every TG still
  // closes, and the report says degraded, not complete.
  loss::BernoulliLossModel model(0.05);
  NpConfig cfg = small_np();
  cfg.reliable_control = true;
  cfg.retry.grace_rounds = 2;
  cfg.retry.max_retries = 6;
  cfg.impairment.seed = 404;
  cfg.impairment.control_drop = 0.35;
  const auto run = run_np(model, 6, 4, cfg, 404);
  EXPECT_GT(run.stats.evictions, 0u);
  EXPECT_FALSE(run.stats.report.complete);
  EXPECT_EQ(counters(run.stats),
            "data=32 parity=4 proactive=0 polls=13 naks=5 suppressed=0 "
            "dups=17 deliveries=209 encoded=4 decoded=7 completed=4 "
            "failed=0 delivered=1 acks=42/28 retries=5/0 evictions=3 "
            "crashed=0 stale=0 skipped=0 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=150/59/0/0/91 report=0/0/3/0/5/0");
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 0.90307988557608665);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.14355633072420942);
  expect_wire(run, {0x4da7e07eu, 96});
}

TEST(DesPins, NpProactiveAdaptive) {
  loss::BernoulliLossModel model(0.1);
  NpConfig cfg = small_np();
  cfg.proactive = 3;
  cfg.adaptive = true;
  const auto run = run_np(model, 30, 10, cfg, 505);
  EXPECT_EQ(counters(run.stats),
            "data=80 parity=7 proactive=24 polls=16 naks=12 suppressed=0 "
            "dups=607 deliveries=3007 encoded=31 decoded=241 completed=10 "
            "failed=0 delivered=1 acks=0/0 retries=0/0 evictions=0 "
            "crashed=0 stale=0 skipped=0 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=0/0/0/0/0 report=1/0/0/0/0/0");
  EXPECT_DOUBLE_EQ(run.stats.final_proactive, 3.0);
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 1.0949999999999989);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.058899999999999883);
  expect_wire(run, {0xa31b37aeu, 139});
}

TEST(DesPins, NpResumedLifeThatCrashes) {
  // A second incarnation: one TG carried in complete, one with parity
  // already spent, receiver priors, proactive parity, and a crash after
  // the 60th transmission.
  loss::BernoulliLossModel model(0.1);
  NpConfig cfg = reliable_np();
  cfg.proactive = 1;
  cfg.incarnation = 1;
  cfg.resume_completed = {true, false, false, false, false, false};
  cfg.resume_parities = {0, 2, 0, 0, 0, 0};
  cfg.resume.receiver_decoded.assign(4, std::vector<bool>(6, false));
  cfg.resume.receiver_decoded[0] = {true, true, false, false, false, false};
  cfg.resume.receiver_decoded[1] = {true, false, false, false, false, false};
  cfg.crash_after_tx = 60;
  std::vector<std::size_t> completed;
  cfg.on_tg_completed = [&completed](std::size_t tg) {
    completed.push_back(tg);
  };
  const auto run = run_np(model, 4, 6, cfg, 606);
  EXPECT_TRUE(run.stats.sender_crashed);
  EXPECT_EQ(counters(run.stats),
            "data=40 parity=7 proactive=5 polls=8 naks=4 suppressed=0 "
            "dups=34 deliveries=185 encoded=12 decoded=17 completed=4 "
            "failed=0 delivered=0 acks=28/28 retries=0/0 evictions=0 "
            "crashed=1 stale=0 skipped=1 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=0/0/0/0/0 report=0/0/0/0/0/0");
  EXPECT_EQ(completed, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(run.stats.completion_time, 0.35575115620906012);
  EXPECT_DOUBLE_EQ(run.stats.mean_tg_latency, 0.073687789052265015);
  expect_wire(run, {0xffd765ddu, 92});
}

// ---- layered ----------------------------------------------------------

TEST(DesPins, LayeredNakOnly) {
  loss::BernoulliLossModel model(0.1);
  LayeredConfig cfg;
  cfg.k = 7;
  cfg.h = 2;
  cfg.packet_len = 64;
  LayeredSession session(model, 12, 60, cfg, 707);
  const auto stats = session.run();
  EXPECT_EQ(counters(stats),
            "blocks=12 data=77 parity=24 padding=7 naks=10 suppressed=0 "
            "dups=959 decoded=74 delivered=1 acks=0/0 retries=0/0 late=0 "
            "evictions=0 unconfirmed=0 imp=0/0/0/0/0/0/0/0/0 ctl=0/0/0/0/0 "
            "report=1/0/0/0/0/0");
  EXPECT_DOUBLE_EQ(stats.completion_time, 0.30700000000000011);
}

TEST(DesPins, LayeredReliableUnderControlLoss) {
  loss::BernoulliLossModel model(0.1);
  LayeredConfig cfg;
  cfg.k = 7;
  cfg.h = 2;
  cfg.packet_len = 64;
  cfg.reliable_control = true;
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  cfg.impairment.seed = 808;
  cfg.impairment.control_drop = 0.15;
  cfg.impairment.control_dup = 0.1;
  LayeredSession session(model, 6, 40, cfg, 808);
  const auto stats = session.run();
  EXPECT_EQ(counters(stats),
            "blocks=7 data=43 parity=14 padding=6 naks=3 suppressed=0 "
            "dups=242 decoded=28 delivered=1 acks=77/68 retries=6/2 late=3 "
            "evictions=0 unconfirmed=0 imp=0/0/0/0/0/0/0/0/0 "
            "ctl=173/21/12/0/164 report=1/0/0/0/6/2");
  EXPECT_DOUBLE_EQ(stats.completion_time, 0.47076716842391259);
}

// ---- ARQ without FEC --------------------------------------------------

TEST(DesPins, ArqNoFec) {
  loss::BernoulliLossModel model(0.05);
  ArqConfig cfg;
  cfg.k = 10;
  cfg.packet_len = 64;
  ArqSession session(model, 25, 6, cfg, 909);
  const auto stats = session.run();
  EXPECT_EQ(counters(stats),
            "data=60 retx=40 polls=39 naks=165 suppressed=0 dups=887 "
            "delivered=1");
  EXPECT_DOUBLE_EQ(stats.completion_time, 0.23649313454777104);
}

}  // namespace
}  // namespace pbl::protocol
