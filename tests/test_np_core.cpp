// The NP round machine on its own: scripted events with plain `double`
// times drive NpSenderCore, and a recording Io captures what it asks the
// engine to do.  No reactor, socket or simulator is involved, so each
// case pins one round rule under one exact event order.
#include "protocol/np_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace pbl::protocol {
namespace {

struct Recorder final : NpSenderCore::Io {
  std::vector<NpBurst> bursts;
  std::vector<fec::PacketHeader> polls;
  std::size_t ends = 0;
  std::size_t over = 0;

  void send_burst(const NpBurst& burst) override { bursts.push_back(burst); }
  bool send_poll(fec::Packet poll,
                 const std::vector<std::size_t>*) override {
    polls.push_back(poll.header);
    return true;
  }
  void send_end() override { ++ends; }
  void arm_timer(double) override {}
  void disarm_timer() override {}
  void session_over() override { ++over; }
};

/// A member's answer to the current POLL: NAK(count), or ACK when 0.
fec::PacketHeader answer(const Recorder& io, std::size_t count) {
  fec::PacketHeader h;
  h.type = fec::PacketType::kNak;
  h.tg = io.polls.back().tg;
  h.seq = io.polls.back().seq;
  h.count = static_cast<std::uint16_t>(count);
  return h;
}

struct Session {
  Recorder io;
  NpSenderCounters counters;
  std::vector<std::size_t> completed;  ///< on_tg_completed calls, in order
  std::vector<std::pair<std::size_t, std::size_t>> high_water;
  NpParams params;
  std::optional<NpSenderCore> core;

  Session(NpParams p, const NpSenderCore::Setup& setup)
      : params(std::move(p)) {
    params.on_tg_completed = [this](std::size_t tg) {
      completed.push_back(tg);
    };
    params.on_parities_sent = [this](std::size_t tg, std::size_t used) {
      high_water.emplace_back(tg, used);
    };
    core.emplace(params, setup, io, counters);
  }
};

NpParams np_params(bool reliable) {
  NpParams p;
  p.k = 4;
  p.h = 5;
  p.reliable_control = reliable;
  return p;
}

NpSenderCore::Setup sender_setup(std::size_t members, std::size_t num_tgs) {
  return {.members = members, .num_tgs = num_tgs, .poll_window = 0.1};
}

struct ReceiverRecorder final : NpReceiverCore::Io {
  std::vector<fec::PacketHeader> feedback;
  std::vector<std::size_t> decoded_tgs;

  void send_feedback(fec::Packet&& fb) override {
    feedback.push_back(fb.header);
  }
  void decoded(std::size_t tg,
               const std::vector<std::vector<std::uint8_t>>&) override {
    decoded_tgs.push_back(tg);
  }
};

TEST(NpSenderCore, LosslessTgIsKDataOnePollAndOneJournalRecord) {
  Session s(np_params(true), sender_setup(3, 1));
  s.core->start(0.0);
  ASSERT_EQ(s.io.bursts.size(), 1u);
  EXPECT_EQ(s.io.bursts[0].kind, BurstKind::kData);
  EXPECT_EQ(s.io.bursts[0].first, 0u);
  EXPECT_EQ(s.io.bursts[0].count, 4u);
  EXPECT_EQ(s.io.bursts[0].targets, nullptr);
  EXPECT_TRUE(s.io.polls.empty());  // the POLL waits for the burst

  s.core->on_burst_done(0.004, false);
  ASSERT_EQ(s.io.polls.size(), 1u);
  EXPECT_EQ(s.io.polls[0].type, fec::PacketType::kPoll);
  EXPECT_EQ(s.io.polls[0].count, 0u);
  EXPECT_DOUBLE_EQ(s.core->collect_deadline(), 0.104);

  for (std::size_t m = 0; m < 3; ++m) {
    s.core->on_feedback(0.01, m, answer(s.io, 0));
    s.core->on_feedback_drained(0.01);
    // The round closes on its last answer, not on the timeout.
    EXPECT_EQ(s.core->finished(), m == 2) << "after member " << m;
  }
  EXPECT_EQ(s.completed, (std::vector<std::size_t>{0}));
  EXPECT_EQ(s.io.polls.size(), 1u);
  EXPECT_EQ(s.io.bursts.size(), 1u);
  EXPECT_EQ(s.counters.acks_received, 3u);
  EXPECT_EQ(s.io.ends, 1u);
  EXPECT_EQ(s.io.over, 1u);
  EXPECT_TRUE(s.core->report().complete) << s.core->report().summary();
}

TEST(NpSenderCore, ServesTheLargestNakWithFreshParityUntilTheBudget) {
  Session s(np_params(false), sender_setup(3, 1));
  s.core->start(0.0);
  s.core->on_burst_done(0.004, false);
  // Round 1: three NAKs; the largest decides the repair burst.
  for (const std::size_t need : {2, 3, 1})
    s.core->on_feedback(0.01, 3, answer(s.io, need));
  s.core->on_feedback_drained(0.01);  // NAK-only rounds hold the window
  ASSERT_EQ(s.io.bursts.size(), 1u);
  s.core->on_timer(0.104);
  ASSERT_EQ(s.io.bursts.size(), 2u);
  EXPECT_EQ(s.io.bursts[1].kind, BurstKind::kParity);
  EXPECT_EQ(s.io.bursts[1].first, 0u);
  EXPECT_EQ(s.io.bursts[1].count, 3u);

  // Round 2: a stale NAK (round 1's id) is ignored; four more are asked
  // for, two fit the h = 5 budget, from fresh index 3 on.
  s.core->on_burst_done(0.107, false);
  auto stale = answer(s.io, 5);
  stale.seq = s.io.polls.front().seq;
  s.core->on_feedback(0.11, 3, stale);
  s.core->on_feedback(0.11, 3, answer(s.io, 4));
  s.core->on_timer(0.207);
  ASSERT_EQ(s.io.bursts.size(), 3u);
  EXPECT_EQ(s.io.bursts[2].first, 3u);
  EXPECT_EQ(s.io.bursts[2].count, 2u);
  EXPECT_EQ(s.high_water, (std::vector<std::pair<std::size_t, std::size_t>>{
                              {0, 3}, {0, 5}}));

  // Round 3: the budget is spent, so the TG fails and the session ends.
  s.core->on_burst_done(0.209, false);
  s.core->on_feedback(0.21, 3, answer(s.io, 1));
  s.core->on_timer(0.309);
  EXPECT_EQ(s.counters.tgs_exhausted, 1u);
  EXPECT_EQ(s.io.bursts.size(), 3u);
  EXPECT_TRUE(s.completed.empty());
  EXPECT_TRUE(s.core->finished());
}

TEST(NpSenderCore, EvictsAMemberOnlyAfterGraceRoundsOfSilence) {
  NpParams p = np_params(true);
  p.retry.grace_rounds = 2;
  Session s(p, sender_setup(2, 1));
  s.core->start(0.0);
  s.core->on_burst_done(0.004, false);
  s.core->on_feedback(0.01, 0, answer(s.io, 0));  // member 1 stays silent
  s.core->on_feedback_drained(0.01);
  s.core->on_timer(0.104);
  // One silent round: re-POLL, no eviction yet.
  EXPECT_EQ(s.counters.evictions, 0u);
  EXPECT_EQ(s.counters.poll_retries, 1u);
  ASSERT_EQ(s.io.polls.size(), 2u);
  EXPECT_GT(s.io.polls[1].seq, s.io.polls[0].seq);
  EXPECT_FALSE(s.core->finished());

  s.core->on_timer(s.core->collect_deadline());
  EXPECT_EQ(s.counters.evictions, 1u);
  EXPECT_EQ(s.core->evicted(), (std::vector<bool>{false, true}));
  EXPECT_EQ(s.completed, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(s.core->finished());
  EXPECT_FALSE(s.core->report().complete);
}

TEST(NpSenderCore, BannedStragglerStillLetsItsDeferredTgJournalOnce) {
  // A TG confirmed by the healthy members but still owed to a quarantined
  // straggler defers its journal record.  The guard then bans that
  // straggler before the catch-up pass: nobody is owed the TG any more,
  // and its record must still be written, exactly once.
  NpSenderCore::Setup setup = sender_setup(3, 2);
  setup.overload.quarantine_deficit = 1;
  Session s(np_params(true), setup);
  s.core->start(0.0);
  s.core->on_burst_done(0.004, false);
  s.core->on_feedback(0.01, 0, answer(s.io, 0));
  s.core->on_feedback(0.01, 1, answer(s.io, 0));
  s.core->on_feedback(0.01, 2, answer(s.io, 2));
  s.core->on_feedback_drained(0.01);  // member 2 falls into quarantine
  EXPECT_EQ(s.counters.members_quarantined, 1u);
  EXPECT_TRUE(s.completed.empty());  // TG 0 deferred on member 2

  ASSERT_EQ(s.io.bursts.size(), 2u);  // TG 1's data
  s.core->on_burst_done(0.108, false);
  s.core->on_banned(2);
  s.core->on_feedback(0.11, 0, answer(s.io, 0));
  s.core->on_feedback(0.11, 1, answer(s.io, 0));
  s.core->on_feedback_drained(0.11);

  EXPECT_TRUE(s.core->finished());
  auto journaled = s.completed;
  std::sort(journaled.begin(), journaled.end());
  EXPECT_EQ(journaled, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.core->report().expelled, 1u);
  EXPECT_TRUE(s.core->report().complete) << s.core->report().summary();
}

TEST(NpReceiverCore, DecodedTgIsDuplicatesAndAcksAfterItsDecoderIsReleased) {
  // Once a TG decodes the core drops its decoder.  Late DATA and PARITY
  // for it still count as received duplicates, and a POLL for it is
  // ACKed, not NAKed for k packets.
  NpParams p = np_params(true);
  p.packet_len = 16;
  const fec::RseCode code(p.k, p.k + p.h);
  std::vector<std::vector<std::uint8_t>> data(
      p.k, std::vector<std::uint8_t>(p.packet_len));
  for (std::size_t i = 0; i < p.k; ++i)
    data[i][0] = static_cast<std::uint8_t>(i);
  fec::TgEncoder enc(0, code, data);
  ReceiverRecorder io;
  NpReceiverCounters counters;
  NpReceiverCore core(code, p, {.num_tgs = 2, .poll_window = 0.1}, io,
                      counters);

  // Data 0..2 and parity 0 decode TG 0 (data 3 rebuilt).
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(core.on_packet(0.0, enc.data_packet(i)),
              NpReceiverCore::Input::kBlock);
  core.on_packet(0.0, enc.parity_packet(0));
  ASSERT_EQ(io.decoded_tgs, (std::vector<std::size_t>{0}));
  EXPECT_EQ(counters.decoded, 1u);
  EXPECT_EQ(counters.duplicates, 0u);

  core.on_packet(0.01, enc.data_packet(3));
  core.on_packet(0.01, enc.parity_packet(1));
  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  poll.header.tg = 0;
  poll.header.seq = 7;
  core.on_packet(0.02, std::move(poll));

  EXPECT_EQ(io.decoded_tgs.size(), 1u);
  EXPECT_EQ(counters.received, 6u);
  EXPECT_EQ(counters.duplicates, 2u);
  EXPECT_EQ(counters.naks_sent, 0u);
  EXPECT_EQ(counters.acks_sent, 1u);
  ASSERT_EQ(io.feedback.size(), 1u);
  EXPECT_EQ(io.feedback[0].tg, 0u);
  EXPECT_EQ(io.feedback[0].count, 0u);
  EXPECT_EQ(io.feedback[0].seq, 7u);
  EXPECT_EQ(core.done_count(), 1u);
}

}  // namespace
}  // namespace pbl::protocol
