// Loopback sessions of protocol NP on the reactor drivers: real sockets,
// real codec, injected loss, end-to-end byte verification (every
// receiver checks each decoded TG against the payload).  Every session
// suite runs once per delivery path, group and fan-out
// (udp_np_harness.hpp), and must reach the same outcomes on both.  The
// wire bytes themselves are pinned in test_udp_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/file_transfer.hpp"
#include "fec/fec_block.hpp"
#include "fec/rse_code.hpp"
#include "udp_np_harness.hpp"
#include "util/rng.hpp"

namespace pbl::server {
namespace {

using harness::random_groups;
using harness::SessionRun;
using harness::SessionSetup;
using net::UdpNpConfig;
using net::UdpNpEndReason;

UdpNpConfig small_config() {
  UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  cfg.poll_window = 0.03;
  return cfg;
}

class UdpNp : public ::testing::TestWithParam<net::UdpDelivery> {
 protected:
  net::ScopedUdpDeliveryOverride delivery_{GetParam()};
};
using UdpNpReliable = UdpNp;
using UdpNpCrash = UdpNp;

INSTANTIATE_TEST_SUITE_P(Backends, UdpNp,
                         ::testing::Values(net::UdpDelivery::kGroup,
                                           net::UdpDelivery::kFanOut),
                         harness::delivery_instance_name);
INSTANTIATE_TEST_SUITE_P(Backends, UdpNpReliable,
                         ::testing::Values(net::UdpDelivery::kGroup,
                                           net::UdpDelivery::kFanOut),
                         harness::delivery_instance_name);
INSTANTIATE_TEST_SUITE_P(Backends, UdpNpCrash,
                         ::testing::Values(net::UdpDelivery::kGroup,
                                           net::UdpDelivery::kFanOut),
                         harness::delivery_instance_name);

SessionRun run_session(const std::vector<net::TgBytes>& groups,
                       std::size_t receivers, const UdpNpConfig& cfg,
                       double inject_loss,
                       const net::ImpairmentConfig& impairment = {}) {
  SessionSetup setup;
  setup.receivers = receivers;
  setup.data_loss = inject_loss;
  setup.impairment = impairment;
  auto run = harness::run_session(groups, cfg, setup);
  EXPECT_FALSE(run.wedged) << "watchdog fired";
  return run;
}

/// Every receiver holds every TG, each byte-verified on decode.
void expect_all_delivered(const SessionRun& session) {
  for (std::size_t r = 0; r < session.receivers.size(); ++r) {
    const auto& rx = session.receivers[r];
    EXPECT_TRUE(rx.result.complete) << "receiver " << r;
    EXPECT_EQ(rx.payload_mismatches, 0u) << "receiver " << r;
  }
}

/// One session on a hand-driven clock: a reactor, the sender and three
/// receivers that drop 30 % of DATA/PARITY, wired and started, plus any
/// `extra_members` ports the test answers for itself.  Time moves only
/// when a test moves `clock`.
struct ManualSession {
  protocol::ManualClock clock;
  Reactor reactor{Reactor::Backend::kAuto, &clock};
  std::vector<net::TgBytes> groups;
  std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
  std::unique_ptr<SenderSessionDriver> sender;

  ManualSession(UdpNpConfig cfg, std::size_t tgs, std::uint64_t seed,
                const std::vector<std::uint16_t>& extra_members = {},
                double idle_timeout = 1e6)
      : groups(random_groups(tgs, cfg.k, cfg.packet_len, seed)) {
    cfg.clock = &clock;
    net::UdpSocket sender_socket;
    net::UdpGroup group;
    for (std::size_t r = 0; r < 3; ++r) {
      net::UdpSocket socket;
      group.join(socket.port());
      ReceiverSessionDriver::Options opt;
      opt.idle_timeout = idle_timeout;
      opt.data_loss = 0.3;
      opt.rng = Rng(99).split(r);
      opt.expected = &groups;
      receivers.push_back(std::make_unique<ReceiverSessionDriver>(
          reactor, std::move(socket), sender_socket.port(), tgs, cfg,
          std::move(opt), nullptr));
    }
    for (const auto port : extra_members) group.join(port);
    sender = std::make_unique<SenderSessionDriver>(
        reactor, std::move(sender_socket), group, cfg, groups, nullptr);
    for (auto& r : receivers) r->start();
    sender->start();
  }

  bool finished() const {
    for (const auto& r : receivers)
      if (!r->finished()) return false;
    return sender->finished();
  }

  /// Runs handlers until the loop sits idle for 20 ms of real time,
  /// without moving the clock.  Loopback delivery is synchronous, so an
  /// idle loop has nothing left in flight.
  void settle() {
    bool ran = true;
    while (ran) ran = reactor.poll_once(0.02);
  }
};

// The driver constructors carry the configuration checks: a code wider
// than GF(2^8), injected loss outside [0,1), an impossible impairment
// policy and a TG that does not hold k packets are all rejected before
// a session starts.

TEST_P(UdpNp, ValidatesConfiguration) {
  Reactor reactor;
  const std::vector<net::TgBytes> none;
  UdpNpConfig wide = small_config();
  wide.k = 200;
  wide.h = 100;
  net::UdpSocket rx;
  net::UdpGroup group;
  group.join(rx.port());
  EXPECT_THROW(SenderSessionDriver(reactor, net::UdpSocket(), group, wide,
                                   none, nullptr),
               std::invalid_argument);
  EXPECT_THROW(SenderSessionDriver(reactor, net::UdpSocket(), net::UdpGroup(),
                                   small_config(), none, nullptr),
               std::invalid_argument);
  ReceiverSessionDriver::Options opt;
  opt.data_loss = 1.5;
  EXPECT_THROW(ReceiverSessionDriver(reactor, net::UdpSocket(), 1, 1,
                                     small_config(), opt, nullptr),
               std::invalid_argument);
}

TEST_P(UdpNp, LosslessTransferIsExactlyK) {
  const auto groups = random_groups(3, 6, 128, 1);
  const auto session = run_session(groups, 3, small_config(), 0.0);
  EXPECT_EQ(session.sender.data_sent, 18u);
  EXPECT_EQ(session.sender.parity_sent, 0u);
  EXPECT_DOUBLE_EQ(session.sender.tx_per_packet, 1.0);
  expect_all_delivered(session);
  for (const auto& r : session.receivers) EXPECT_EQ(r.result.naks_sent, 0u);
}

TEST_P(UdpNp, RecoversFromInjectedLoss) {
  const auto groups = random_groups(4, 6, 128, 2);
  const auto session = run_session(groups, 4, small_config(), 0.2);
  EXPECT_GT(session.sender.parity_sent, 0u);
  EXPECT_GT(session.sender.naks_received, 0u);
  expect_all_delivered(session);  // bit-exact reconstruction
  for (const auto& r : session.receivers) EXPECT_GT(r.result.dropped, 0u);
}

TEST_P(UdpNp, HeavyLossStillDelivers) {
  const auto groups = random_groups(2, 6, 64, 3);
  UdpNpConfig cfg = small_config();
  cfg.packet_len = 64;
  const auto session = run_session(groups, 2, cfg, 0.45);
  expect_all_delivered(session);
}

TEST_P(UdpNp, FileTransferEndToEnd) {
  // segment_blob -> UDP multicast -> every receiver holds every TG of
  // the segmented blob, and those TGs reassemble to the blob.
  Rng rng(4);
  std::vector<std::uint8_t> blob(3000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());

  UdpNpConfig cfg = small_config();
  const auto groups64 = core::segment_blob(blob, cfg.k, cfg.packet_len);
  std::vector<net::TgBytes> groups(groups64.begin(), groups64.end());
  ASSERT_EQ(core::reassemble_blob(groups64), blob);

  const auto session = run_session(groups, 3, cfg, 0.15);
  expect_all_delivered(session);
}

TEST_P(UdpNp, ReceiverRejectsBadImpairmentConfig) {
  Reactor reactor;
  ReceiverSessionDriver::Options opt;
  opt.impairment.drop_prob = 1.5;
  EXPECT_THROW(ReceiverSessionDriver(reactor, net::UdpSocket(), 1, 1,
                                     small_config(), opt, nullptr),
               std::invalid_argument);
}

TEST_P(UdpNp, DuplicationImpairedSessionCompletesExactlyOnce) {
  // Duplication is the one fault that can hit control traffic harmlessly
  // (a duplicated POLL re-answers the same seq; the sender takes the max),
  // so completeness is still guaranteed and we can assert it.
  const auto groups = random_groups(3, 6, 128, 5);
  net::ImpairmentConfig imp;
  imp.seed = 101;
  imp.dup_prob = 0.3;
  const auto session = run_session(groups, 3, small_config(), 0.0, imp);
  expect_all_delivered(session);  // duplicates absorbed, bytes exact
  for (const auto& r : session.receivers) {
    EXPECT_GT(r.result.impairment.duplicated, 0u);
    EXPECT_GT(r.result.duplicates, 0u);  // the decoder dropped the copies
  }
}

TEST_P(UdpNp, AdversarialImpairmentTerminatesAndStaysExact) {
  // Corruption/reordering on a real socket also hits POLLs, which the
  // protocol knowingly cannot always survive (the lossy-control
  // limitation), so completion is not guaranteed here — but the session
  // must terminate, every fault must be counted, and whatever WAS
  // reconstructed must be bit-exact.
  const auto groups = random_groups(3, 6, 128, 6);
  net::ImpairmentConfig imp;
  imp.seed = 202;
  imp.dup_prob = 0.1;
  imp.corrupt_prob = 0.1;
  imp.truncate_prob = 0.05;
  imp.reorder_prob = 0.2;
  imp.reorder_window = 3;
  const auto session = run_session(groups, 3, small_config(), 0.0, imp);
  for (const auto& r : session.receivers) {
    const auto& st = r.result.impairment;
    EXPECT_GT(st.processed, 0u);
    EXPECT_GT(st.corrupted + st.truncated + st.reordered + st.duplicated, 0u);
    EXPECT_EQ(r.payload_mismatches, 0u);
  }
}

TEST_P(UdpNp, SenderRejectsWrongGroupShape) {
  Reactor reactor;
  net::UdpSocket rx;
  net::UdpGroup group;
  group.join(rx.port());
  const std::vector<net::TgBytes> bad{
      net::TgBytes(3, std::vector<std::uint8_t>(128))};
  EXPECT_THROW(SenderSessionDriver(reactor, net::UdpSocket(), group,
                                   small_config(), bad, nullptr),
               std::invalid_argument);
}

TEST_P(UdpNp, NakOnlyRoundsLastExactlyThePollWindow) {
  // NAK-only NP cannot know that every receiver has answered, so each
  // round holds the full window T of Fig 13, however early its NAKs
  // land.  On a hand-driven clock every POLL leaves at a multiple of T.
  UdpNpConfig cfg = small_config();
  ASSERT_FALSE(cfg.reliable_control);
  cfg.poll_window = 0.25;
  ManualSession session(cfg, 3, 22);
  const auto& stats = session.sender->stats();
  session.settle();
  ASSERT_EQ(stats.polls_sent, 1u);
  EXPECT_GT(stats.naks_received, 0u);  // answered, yet the round holds

  for (std::size_t round = 1; !session.finished(); ++round) {
    ASSERT_LT(round, 100u) << "session did not finish";
    const double close_at = cfg.poll_window * static_cast<double>(round);
    session.clock.set(close_at - 1e-6);
    session.settle();
    EXPECT_EQ(stats.polls_sent, round) << "round closed before T";
    session.clock.set(close_at);
    session.settle();
    if (session.sender->finished()) break;
    EXPECT_EQ(stats.polls_sent, round + 1) << "round outlived T";
  }
  session.settle();  // the end marker reaches the receivers
  ASSERT_TRUE(session.finished());
  EXPECT_GT(stats.parity_sent, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r->result().complete);
    EXPECT_EQ(r->payload_mismatches(), 0u);
  }
}

// --- Reliable control plane over real sockets ------------------------

std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

UdpNpConfig reliable_config() {
  UdpNpConfig cfg = small_config();
  cfg.reliable_control = true;
  cfg.seed = chaos_seed(301);
  // Sized for control-loss rates up to ~0.2 (docs/ROBUSTNESS.md).
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  return cfg;
}

TEST_P(UdpNpReliable, CleanSessionConfirmsEveryTgPositively) {
  const auto groups = random_groups(3, 6, 128, 7);
  const auto session = run_session(groups, 3, reliable_config(), 0.0);
  EXPECT_TRUE(session.sender.report.complete)
      << session.sender.report.summary();
  EXPECT_GE(session.sender.acks_received, 3u * 3u);
  EXPECT_EQ(session.sender.evictions, 0u);
  expect_all_delivered(session);
  for (const auto& r : session.receivers) {
    EXPECT_EQ(r.result.end_reason, UdpNpEndReason::kEndOfSession);
    EXPECT_GT(r.result.acks_sent, 0u);
  }
}

TEST_P(UdpNpReliable, SurvivesControlLossExactlyOnce) {
  // POLLs are dropped on the receivers' control path while data also
  // suffers injected loss: the retry layer must still deliver every TG
  // to every receiver exactly once, with no evictions.
  const auto groups = random_groups(3, 6, 128, 8);
  net::ImpairmentConfig imp;
  imp.seed = chaos_seed(404);
  imp.control_drop = 0.2;
  const auto session = run_session(groups, 3, reliable_config(), 0.1, imp);
  EXPECT_TRUE(session.sender.report.complete)
      << session.sender.report.summary();
  EXPECT_EQ(session.sender.evictions, 0u);
  expect_all_delivered(session);  // bit-exact, exactly once
  std::uint64_t control_dropped = 0;
  for (const auto& r : session.receivers)
    control_dropped += r.result.impairment.control_dropped;
  EXPECT_GT(control_dropped, 0u);
}

TEST_P(UdpNpReliable, CrashedReceiverIsEvictedOthersComplete) {
  const auto groups = random_groups(2, 6, 64, 9);
  UdpNpConfig cfg = reliable_config();
  cfg.packet_len = 64;
  cfg.retry.grace_rounds = 3;  // evict fast; the peer is really gone
  cfg.retry.max_retries = 6;

  SessionSetup setup;
  setup.receivers = 2;
  setup.receiver_config = [](std::size_t r, UdpNpConfig& c) {
    if (r == 1) c.crash_after_tgs = 1;  // dies after the first TG
  };
  const auto session = harness::run_session(groups, cfg, setup);
  ASSERT_FALSE(session.wedged);
  const auto& stats = session.sender;
  const auto& live = session.receivers[0];
  const auto& crashed = session.receivers[1];

  EXPECT_EQ(crashed.result.end_reason, UdpNpEndReason::kCrashed);
  EXPECT_EQ(stats.evictions, 1u);
  ASSERT_EQ(stats.report.evicted.size(), 2u);
  EXPECT_TRUE(stats.report.evicted[1]);
  EXPECT_FALSE(stats.report.complete);  // eviction = degraded exit
  EXPECT_TRUE(live.result.complete);    // the live member got everything
  EXPECT_EQ(live.payload_mismatches, 0u);
  EXPECT_GT(stats.poll_retries, 0u);  // silence forced re-POLLs first
}

TEST_P(UdpNpReliable, EndReasonDistinguishesDrainFromStall) {
  // No sender at all, on a hand-driven clock.  A receiver that already
  // holds every TG (zero of them) is just draining for the end marker:
  // it must report kDrainTimeout after protocol::drain_wait, not the
  // mid-session idle timeout.  A receiver still missing TGs whose sender
  // goes silent is a stall.
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  UdpNpConfig cfg = small_config();
  cfg.clock = &clock;
  const double drain = protocol::drain_wait(cfg, cfg.poll_window);
  ReceiverSessionDriver::Options drain_opt;
  drain_opt.idle_timeout = 5.0;
  ReceiverSessionDriver drained(reactor, net::UdpSocket(), 1, 0, cfg,
                                drain_opt, nullptr);
  ReceiverSessionDriver::Options stall_opt;
  stall_opt.idle_timeout = drain + 0.1;
  ReceiverSessionDriver stalled(reactor, net::UdpSocket(), 1, 2, cfg,
                                stall_opt, nullptr);
  drained.start();
  stalled.start();

  clock.set(drain);
  reactor.poll_once(0.0);
  ASSERT_TRUE(drained.finished());
  EXPECT_EQ(drained.result().end_reason, UdpNpEndReason::kDrainTimeout);
  EXPECT_FALSE(stalled.finished());

  clock.advance(0.1);
  reactor.poll_once(0.0);
  ASSERT_TRUE(stalled.finished());
  EXPECT_EQ(stalled.result().end_reason, UdpNpEndReason::kMidSessionSilence);
  EXPECT_FALSE(stalled.result().complete);
}

TEST(UdpNpReliable, DecodedMemberOutlastsLostRePolls) {
  // A member that holds every TG waits for the end marker.  If its ACK is
  // lost, the sender re-POLLs it at most protocol::longest_poll_gap
  // apart and evicts it after retry.grace_rounds unanswered rounds.  Here
  // the test is the sender, on a hand-driven clock: the member's ACK is
  // dropped, and so is every re-POLL but the one that opens the last
  // round before eviction, each one the longest gap after the last.  The
  // member must still be there to answer it.
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kAuto, &clock);
  UdpNpConfig cfg = reliable_config();
  cfg.clock = &clock;
  cfg.poll_window = 0.25;
  cfg.retry.grace_rounds = 3;
  const double gap = protocol::longest_poll_gap(cfg.poll_window);
  const double last = gap * static_cast<double>(cfg.retry.grace_rounds - 1);
  const auto groups = random_groups(1, cfg.k, cfg.packet_len, 41);
  const fec::RseCode code(cfg.k, cfg.k + cfg.h);
  const fec::TgEncoder enc(0, code, groups[0]);

  net::UdpSocket sender, rx_socket;
  const std::uint16_t rx_port = rx_socket.port();
  ReceiverSessionDriver::Options opt;
  opt.idle_timeout = 10.0 * gap;
  opt.expected = &groups;
  ReceiverSessionDriver member(reactor, std::move(rx_socket), sender.port(),
                               1, cfg, std::move(opt), nullptr);
  member.start();
  const auto settle = [&] {
    while (reactor.poll_once(0.02)) {
    }
  };
  const auto poll = [&](std::uint32_t tg, std::uint32_t seq) {
    fec::Packet p;
    p.header.type = fec::PacketType::kPoll;
    p.header.tg = tg;
    p.header.k = static_cast<std::uint16_t>(cfg.k);
    p.header.seq = seq;
    EXPECT_EQ(sender.send_to(rx_port, p), net::SendStatus::kSent);
  };
  const auto expect_ack = [&](std::uint32_t seq) {
    const auto dg = sender.receive_from(0.0);
    ASSERT_TRUE(dg.has_value()) << "POLL " << seq << " went unanswered";
    EXPECT_EQ(dg->packet.header.type, fec::PacketType::kNak);
    EXPECT_EQ(dg->packet.header.count, 0u);
    EXPECT_EQ(dg->packet.header.seq, seq);
  };

  for (std::size_t i = 0; i < cfg.k; ++i)
    ASSERT_EQ(sender.send_to(rx_port, enc.data_packet(i)),
              net::SendStatus::kSent);
  poll(0, 1);
  settle();
  expect_ack(1);  // the member holds every TG; this ACK is "lost"

  clock.set(last - 1e-6);
  settle();
  ASSERT_FALSE(member.finished()) << "left while the sender still POLLs";
  clock.set(last);
  poll(0, 2);
  settle();
  expect_ack(2);

  poll(net::kUdpEndOfSession, 3);
  settle();
  ASSERT_TRUE(member.finished());
  EXPECT_EQ(member.result().end_reason, UdpNpEndReason::kEndOfSession);
  EXPECT_TRUE(member.result().complete);
  EXPECT_EQ(member.payload_mismatches(), 0u);
}

/// One lossless member and the sender under reliable control on a
/// hand-driven clock, started with the sender socket's `failing`-th send
/// attempt (one sendmmsg each) failing with EAGAIN, and settled.  The 1-TG session's attempts are the
/// data burst, its POLL and then the end marker.
struct PushbackSession {
  protocol::ManualClock clock;
  Reactor reactor{Reactor::Backend::kAuto, &clock};
  UdpNpConfig cfg;
  std::vector<net::TgBytes> groups;
  std::unique_ptr<ReceiverSessionDriver> member;
  std::unique_ptr<SenderSessionDriver> sender;

  explicit PushbackSession(std::size_t failing)
      : cfg(reliable_config()),
        groups(random_groups(1, cfg.k, cfg.packet_len, 42)) {
    cfg.clock = &clock;
    net::UdpSocket sender_socket;
    net::UdpSocket rx_socket;
    net::UdpGroup group = net::UdpGroup::open();
    auto rx_group_socket = group.join(rx_socket.port());
    ReceiverSessionDriver::Options opt;
    opt.idle_timeout = 1e6;
    opt.expected = &groups;
    member = std::make_unique<ReceiverSessionDriver>(
        reactor, std::move(rx_socket), sender_socket.port(), 1, cfg,
        std::move(opt), nullptr, std::move(rx_group_socket));
    sender = std::make_unique<SenderSessionDriver>(
        reactor, std::move(sender_socket), std::move(group), cfg, groups,
        nullptr);
    sender->socket().inject_send_errno_every(EAGAIN, failing, 1);
    member->start();
    sender->start();
    settle();
    sender->socket().inject_send_errno_every(EAGAIN, 0, 1);  // that one only
  }

  void settle() {
    while (reactor.poll_once(0.02)) {
    }
  }
};

TEST_P(UdpNpReliable, PollHeldByPushbackIsAnsweredWithoutARePoll) {
  // The POLL's send attempt fails with EAGAIN.  The POLL waits in the
  // send queue for the retry timer, well inside its collect window, and
  // the member answers that first POLL: no re-POLL round is spent.
  PushbackSession s(2);
  const auto& stats = s.sender->stats();
  EXPECT_EQ(stats.would_block, 1u);
  EXPECT_EQ(stats.acks_received, 0u);
  EXPECT_FALSE(s.member->finished());

  s.clock.set(s.cfg.poll_window / 2);  // past the retry timer only
  s.settle();
  EXPECT_EQ(stats.acks_received, 1u) << "the POLL never left";
  ASSERT_TRUE(s.sender->finished());
  EXPECT_EQ(stats.poll_retries, 0u);
  EXPECT_EQ(stats.polls_sent, 1u);
  EXPECT_GT(stats.would_block, 0u);
  EXPECT_TRUE(stats.report.complete) << stats.report.summary();
  ASSERT_TRUE(s.member->finished());
  EXPECT_EQ(s.member->result().end_reason, UdpNpEndReason::kEndOfSession);
  EXPECT_EQ(s.member->payload_mismatches(), 0u);
}

TEST_P(UdpNpReliable, EndMarkerHeldByPushbackStillEndsTheSession) {
  // The end marker's send attempt fails with EAGAIN.  It waits in the
  // send queue, and the sender reports finished only once it has left.
  // The member, holding every TG, must end on the marker, not on its
  // drain_wait.
  PushbackSession s(3);
  const auto& stats = s.sender->stats();
  EXPECT_EQ(stats.acks_received, 1u);
  EXPECT_EQ(stats.would_block, 1u);
  EXPECT_FALSE(s.sender->finished()) << "finished with the end marker queued";
  EXPECT_FALSE(s.member->finished());

  s.clock.set(s.cfg.poll_window / 2);  // past the retry timer
  s.settle();
  ASSERT_TRUE(s.sender->finished());
  EXPECT_TRUE(stats.report.complete) << stats.report.summary();
  s.clock.set(2.0 * protocol::drain_wait(s.cfg, s.cfg.poll_window));
  s.settle();
  ASSERT_TRUE(s.member->finished());
  EXPECT_EQ(s.member->result().end_reason, UdpNpEndReason::kEndOfSession);
  EXPECT_TRUE(s.member->result().complete);
}

TEST_P(UdpNpReliable, RoundsCloseOnTheirLastAnswerWithoutTheClock) {
  // Reliable control closes a round once every member answered its POLL.
  // With a 1000 s window on a clock that never moves, a lossy session
  // can only finish if every round, repair rounds included, closes that
  // way: no timer ever fires.
  UdpNpConfig cfg = reliable_config();
  cfg.poll_window = 1000.0;
  ManualSession session(cfg, 4, 21);
  const double give_up = protocol::steady_clock().now() + 10.0;
  while (!session.finished() && protocol::steady_clock().now() < give_up)
    session.reactor.poll_once(0.01);
  ASSERT_TRUE(session.finished()) << "a round waited for its window";
  EXPECT_EQ(session.clock.now(), 0.0);

  const auto& stats = session.sender->stats();
  EXPECT_TRUE(stats.report.complete) << stats.report.summary();
  EXPECT_GT(stats.parity_sent, 0u);
  EXPECT_GT(stats.polls_sent, session.groups.size());  // repair rounds ran
  EXPECT_EQ(stats.poll_retries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r->result().complete);
    EXPECT_EQ(r->payload_mismatches(), 0u);
    EXPECT_EQ(r->result().end_reason, UdpNpEndReason::kEndOfSession);
  }
}

TEST_P(UdpNpReliable, LateAnswersCannotStretchRoundsPastTheCeiling) {
  // One member answers every POLL just before its round would time out,
  // so each of its samples is the largest the estimator has seen.  The
  // collect timeout stops at the collect ceiling: rounds stay
  // bounded, and the honest receivers, on the default 10 s idle budget,
  // finish cleanly however long the session runs.
  UdpNpConfig cfg = reliable_config();
  const double ceiling = protocol::collect_ceiling(cfg.poll_window);
  net::UdpSocket late;
  ManualSession session(cfg, 8, 24, {late.port()}, 10.0);
  const auto& stats = session.sender->stats();
  session.settle();

  double longest = 0.0;
  std::size_t rounds = 0;
  while (!session.finished()) {
    ASSERT_LT(rounds, 400u) << "session did not finish";
    // The newest POLL on the late member's socket is the open round: the
    // honest receivers answered it at once, so only this member is owed.
    std::optional<fec::PacketHeader> poll;
    while (auto dg = late.receive_from(0.0)) {
      const auto& hdr = dg->packet.header;
      if (hdr.type == fec::PacketType::kPoll && hdr.tg != net::kUdpEndOfSession)
        poll = hdr;
    }
    ASSERT_TRUE(poll.has_value()) << "round " << rounds << " has no POLL";
    ++rounds;
    const double timeout =
        session.sender->collect_deadline() - session.clock.now();
    ASSERT_LE(timeout, ceiling + 1e-9) << "round " << rounds;
    longest = std::max(longest, timeout);
    session.clock.set(session.sender->collect_deadline() - 1e-6);
    fec::Packet ack;
    ack.header.type = fec::PacketType::kNak;
    ack.header.incarnation = poll->incarnation;
    ack.header.tg = poll->tg;
    ack.header.seq = poll->seq;
    ack.header.index = late.port();
    late.send_to(session.sender->port(), ack);
    session.settle();
  }

  EXPECT_GT(rounds, session.groups.size());  // repair rounds ran too
  EXPECT_GT(longest, 0.9 * ceiling);  // the late answers drove it up
  EXPECT_TRUE(stats.report.complete) << stats.report.summary();
  EXPECT_EQ(stats.poll_retries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r->result().complete);
    EXPECT_EQ(r->payload_mismatches(), 0u);
    EXPECT_EQ(r->result().end_reason, UdpNpEndReason::kEndOfSession);
  }
}

TEST_P(UdpNpReliable, HopelessMemberBoundsRoundsAndCountsFailedTgs) {
  // A member that loses 97 % of DATA/PARITY cannot be repaired within
  // the parity budget.  Every round that does not finish a TG spends one
  // fresh parity or one re-POLL retry, so a TG runs at most
  // h + max_retries + 1 rounds, and each TG that fails is counted.
  const auto groups = random_groups(3, 6, 128, 12);
  const UdpNpConfig cfg = reliable_config();
  SessionSetup setup;
  setup.receivers = 2;
  setup.member_loss = {0.0, 0.97};
  const auto session = harness::run_session(groups, cfg, setup);
  ASSERT_FALSE(session.wedged) << "watchdog fired";
  const auto& stats = session.sender;
  EXPECT_LE(stats.polls_sent,
            groups.size() * (cfg.h + cfg.retry.max_retries + 1));
  EXPECT_GT(stats.tgs_exhausted + stats.tgs_unconfirmed, 0u);
  EXPECT_FALSE(stats.report.complete) << stats.report.summary();
  EXPECT_TRUE(session.receivers[0].result.complete);
  EXPECT_FALSE(session.receivers[1].result.complete);
}

// --- Crash-tolerant sessions over real sockets -----------------------

TEST_P(UdpNpCrash, SenderRestartResumesFromJournalAcrossLiveReceiver) {
  // One receiver driver runs across TWO sender lives on the same
  // reactor.  Life 1 journals its progress through core::SessionJournal
  // and dies after 10 datagrams; it is destroyed, and life 2 reopens the
  // journal on the SAME port, bumps the incarnation, skips the journaled
  // TGs and finishes the transfer.
  const std::string journal =
      ::testing::TempDir() + "pbl_udp_session_" +
      std::to_string(static_cast<unsigned long long>(chaos_seed(55))) + "_" +
      net::to_string(GetParam()) + ".log";
  const UdpNpConfig cfg = small_config();
  const auto groups = random_groups(3, cfg.k, cfg.packet_len, 11);
  const auto run = harness::run_crash_session(groups, cfg, journal);
  ASSERT_FALSE(run.session.wedged);

  EXPECT_TRUE(run.life1.crashed);
  EXPECT_LT(run.life1.data_sent, cfg.k * groups.size());
  EXPECT_FALSE(run.complete_after_life1);
  EXPECT_TRUE(run.resumed);
  EXPECT_EQ(run.incarnation, 1u);

  EXPECT_FALSE(run.session.sender.crashed);
  EXPECT_GE(run.session.sender.tgs_skipped, 1u);  // journaled, never resent
  EXPECT_TRUE(run.complete_after_life2);
  // Across both lives the receiver delivered everything exactly once.
  const auto& rx = run.session.receivers[0];
  EXPECT_TRUE(rx.result.complete);
  EXPECT_EQ(rx.payload_mismatches, 0u);
  EXPECT_EQ(rx.redelivered_prior, 0u);
  EXPECT_EQ(rx.result.end_reason, UdpNpEndReason::kEndOfSession);
}

// A guarded receiver admits only its sender's port.  Under a reorder
// impairment that holds every datagram back one slot, the foreign peer's
// first DATA frame is released by the sender's, and its second is still
// held when the session ends.  Both must be judged by their own source:
// live, and at the end-of-session flush.
TEST_P(UdpNp, GuardedReceiverRejectsHeldBackForeignFrames) {
  harness::Loop loop;
  UdpNpConfig cfg = small_config();
  cfg.clock = &loop.reactor.clock();
  cfg.guard.enabled = true;
  const auto groups = random_groups(1, cfg.k, cfg.packet_len, 31);
  const fec::RseCode code(cfg.k, cfg.k + cfg.h);
  const fec::TgEncoder enc(0, code, groups[0]);

  net::UdpSocket sender, foreign, rx_socket;
  const std::uint16_t rx_port = rx_socket.port();
  SessionSetup setup;
  setup.idle_timeout = 0.2;
  setup.impairment.reorder_prob = 1.0;
  setup.impairment.reorder_window = 1;
  auto receiver =
      harness::make_receiver(loop, {std::move(rx_socket), std::nullopt},
                             sender.port(), groups, cfg, setup, 0);
  receiver->start();
  ASSERT_EQ(foreign.send_to(rx_port, enc.data_packet(0)),
            net::SendStatus::kSent);
  ASSERT_EQ(sender.send_to(rx_port, enc.data_packet(1)),
            net::SendStatus::kSent);
  ASSERT_EQ(foreign.send_to(rx_port, enc.data_packet(2)),
            net::SendStatus::kSent);
  ASSERT_TRUE(loop.run([&] { return receiver->finished(); }));

  const auto& result = receiver->result();
  EXPECT_EQ(result.foreign_rejected, 2u);
  EXPECT_EQ(result.received, 1u);
}

TEST_P(UdpNpCrash, StaleIncarnationDatagramsAreRejected) {
  // A receiver that has already heard incarnation 1 must drop everything
  // a sender stamped with incarnation 0 — including its end-of-session
  // marker, which must NOT end the run as a clean session.  The 8-bit
  // wire field wraps: life 256 goes out as 0 and is newer than 255, while
  // a straggler from 255 is still stale once 256 was heard.
  struct Lives {
    std::uint32_t sender, receiver;
    bool stale;
  };
  for (const Lives lives :
       {Lives{0, 1, true}, Lives{255, 256, true}, Lives{256, 255, false}}) {
    SCOPED_TRACE("sender life " + std::to_string(lives.sender) +
                 ", receiver heard " + std::to_string(lives.receiver));
    UdpNpConfig cfg = small_config();  // the sender
    cfg.incarnation = lives.sender;
    const auto groups = random_groups(2, cfg.k, cfg.packet_len, 12);
    SessionSetup setup;
    setup.idle_timeout = 0.5;
    setup.receiver_config = [&lives](std::size_t, UdpNpConfig& c) {
      c.incarnation = lives.receiver;
    };
    const auto session = harness::run_session(groups, cfg, setup);
    ASSERT_FALSE(session.wedged);
    const auto& result = session.receivers[0].result;

    EXPECT_GT(session.sender.data_sent, 0u);
    if (!lives.stale) {
      EXPECT_TRUE(result.complete);
      EXPECT_EQ(result.stale_rejected, 0u);
      EXPECT_EQ(result.end_reason, UdpNpEndReason::kEndOfSession);
      continue;
    }
    EXPECT_GT(result.stale_rejected, 0u);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.received, 0u);
    EXPECT_EQ(result.end_reason, UdpNpEndReason::kMidSessionSilence);
  }
}

}  // namespace
}  // namespace pbl::server
