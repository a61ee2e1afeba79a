// Crash-tolerant sessions end to end (docs/ROBUSTNESS.md): the sender is
// killed deterministically after its Nth transmission, a new incarnation
// recovers the write-ahead journal, resumes at the first incomplete TG,
// and the session still delivers every byte exactly once.
//
// The tentpole suite is crash-at-every-packet: with the ISSUE's small
// shape (k = 4, h = 2, R = 3 receivers) the sender is killed at EVERY
// transmission index of the clean run and must complete after resuming —
// no index may lose data, deliver it twice at the application layer, or
// retransmit more than the one in-flight TG.
//
// Chaos runs (CI) perturb every seed via PBL_CHAOS_SEED; the properties
// hold for any seed.

#include "core/session_state.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/file_transfer.hpp"
#include "util/rng.hpp"

namespace pbl::core {
namespace {

std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

class CrashResumeTest : public ::testing::Test {
 protected:
  std::string temp_path() {
    path_ = ::testing::TempDir() + "pbl_session_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
    return path_;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

/// The ISSUE shape: 3 receivers, TGs of 4 data + 2 parity budget.
ResumableConfig issue_config(const std::string& journal_path) {
  ResumableConfig cfg;
  cfg.np.k = 4;
  cfg.np.h = 2;
  cfg.np.packet_len = 32;
  cfg.np.reliable_control = true;
  cfg.journal_path = journal_path;
  return cfg;
}

std::vector<TgData> random_groups(std::size_t num_tgs, std::size_t k,
                                  std::size_t packet_len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TgData> groups(num_tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(packet_len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

TEST_F(CrashResumeTest, CleanRunUsesOneIncarnation) {
  const auto cfg = issue_config(temp_path());
  loss::BernoulliLossModel model(0.0);
  const auto report = run_resumable_session(
      model, 3, random_groups(3, cfg.np.k, cfg.np.packet_len, 5), cfg,
      chaos_seed(11));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.incarnations, 1u);
  EXPECT_FALSE(report.last.sender_crashed);
  EXPECT_EQ(report.redundant_data, 0u);
  EXPECT_TRUE(report.state.all_complete());
  EXPECT_EQ(report.state.incarnation, 0u);
}

TEST_F(CrashResumeTest, CrashAtEveryPacketStillDeliversExactlyOnce) {
  const std::uint64_t seed = chaos_seed(42);
  loss::BernoulliLossModel model(0.0);
  const auto base = issue_config(temp_path());
  const auto data = random_groups(3, base.np.k, base.np.packet_len, seed);

  // The clean run's transmission count bounds the sweep: every crash
  // index inside it must be survivable, every index past it is a no-op.
  const auto clean = run_resumable_session(model, 3, data, base, seed);
  ASSERT_TRUE(clean.complete);
  const std::uint64_t total_tx = clean.last.data_sent + clean.last.parity_sent +
                                 clean.last.proactive_sent +
                                 clean.last.sender.polls_sent;
  ASSERT_GE(total_tx, 3u * base.np.k);

  for (std::uint64_t i = 0; i <= total_tx; ++i) {
    std::remove(path_.c_str());
    ResumableConfig cfg = base;
    cfg.crash_plan = {static_cast<std::size_t>(i)};
    const auto report = run_resumable_session(model, 3, data, cfg, seed);
    ASSERT_TRUE(report.complete) << "crash index " << i;
    EXPECT_EQ(report.incarnations, i < total_tx ? 2u : 1u)
        << "crash index " << i;
    // Exactly-once at the application layer, and bounded redundancy on
    // the wire: only data the crashed life sent but never CONFIRMED may
    // be retransmitted (NP is stop-and-wait, so that is the TG in
    // flight when the crash lands — never more data than the dead life
    // actually put on the wire).
    EXPECT_TRUE(report.last.all_delivered) << "crash index " << i;
    EXPECT_LE(report.redundant_data,
              std::min<std::uint64_t>(i, 3u * base.np.k))
        << "crash index " << i;
    EXPECT_TRUE(report.state.all_complete()) << "crash index " << i;
    // Journaled completions are never re-sent: in the final life every
    // TG is either skipped outright or transmitted exactly once.
    EXPECT_EQ(report.last.data_sent,
              (report.state.num_tgs - report.last.sender.tgs_skipped) *
                  base.np.k)
        << "crash index " << i;
  }
}

TEST_F(CrashResumeTest, SurvivesRepeatedCrashesUnderLoss) {
  ResumableConfig cfg;
  cfg.np.k = 8;
  cfg.np.h = 40;
  cfg.np.packet_len = 64;
  cfg.np.reliable_control = true;
  cfg.journal_path = temp_path();
  // Three lives die on schedule.  A second life dying at 20 transmissions
  // cannot finish TG 2, so the third life has at least 16 data frames to
  // send and its crash at 10 always fires, whatever the loss draws.
  cfg.crash_plan = {6, 20, 10};
  loss::BernoulliLossModel model(0.1);
  const auto report = run_resumable_session(
      model, 3, random_groups(4, cfg.np.k, cfg.np.packet_len, 9), cfg,
      chaos_seed(7));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.incarnations, 4u);
  EXPECT_EQ(report.state.incarnation, 3u);
  EXPECT_TRUE(report.state.all_complete());
  EXPECT_TRUE(report.last.all_delivered);
}

TEST_F(CrashResumeTest, CallerHooksFireAfterTheJournals) {
  // Every life runs the journal's write-ahead hooks first and then the
  // caller's np hooks: each caller hook sees its event already on disk,
  // and every TG reaches the caller once across both lives.
  ResumableConfig cfg;
  cfg.np.k = 8;
  cfg.np.h = 40;
  cfg.np.packet_len = 64;
  cfg.np.reliable_control = true;
  cfg.journal_path = temp_path();
  cfg.crash_plan = {20};
  constexpr std::size_t kTgs = 4;
  std::vector<std::size_t> completions(kTgs, 0);
  std::size_t parity_hooks = 0;
  cfg.np.on_tg_completed = [&](std::size_t tg) {
    ASSERT_LT(tg, kTgs);
    ++completions[tg];
    const auto st = peek_session_journal(cfg.journal_path);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->completed[tg])
        << "TG " << tg << " reached the caller before the journal";
  };
  cfg.np.on_parities_sent = [&](std::size_t tg, std::size_t high_water) {
    ++parity_hooks;
    const auto st = peek_session_journal(cfg.journal_path);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->parities_sent[tg], high_water) << "TG " << tg;
  };
  loss::BernoulliLossModel model(0.1);
  const auto report = run_resumable_session(
      model, 3, random_groups(kTgs, cfg.np.k, cfg.np.packet_len, 13), cfg,
      chaos_seed(17));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.incarnations, 2u);
  EXPECT_EQ(completions, std::vector<std::size_t>(kTgs, 1));
  EXPECT_GT(parity_hooks, 0u);  // 10 % loss needs repair
}

TEST_F(CrashResumeTest, ThreeLivesDeliverASegmentedFile) {
  // A file cut into TGs (segment_blob) reaches every receiver intact
  // after two scripted crashes: the third life completes.
  ResumableConfig cfg = issue_config(temp_path());
  cfg.np.h = 8;  // headroom: the lossy channel must never exhaust a TG
  cfg.crash_plan = {5, 13};
  Rng rng(chaos_seed(3));
  std::vector<std::uint8_t> blob(777);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  loss::BernoulliLossModel model(0.05);
  const auto report = run_resumable_session(
      model, 3, segment_blob(blob, cfg.np.k, cfg.np.packet_len), cfg,
      chaos_seed(21));
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.last.all_delivered);
  EXPECT_EQ(report.incarnations, 3u);
  EXPECT_EQ(report.state.incarnation, 2u);
  EXPECT_TRUE(report.state.all_complete());
}

TEST_F(CrashResumeTest, RequiresJournalPathAndData) {
  ResumableConfig cfg;
  loss::BernoulliLossModel model(0.0);
  EXPECT_THROW(run_resumable_session(model, 1, random_groups(1, 20, 16, 1),
                                     cfg, 1),
               std::invalid_argument);
  cfg.journal_path = "/tmp/pbl_unused.log";
  EXPECT_THROW(run_resumable_session(model, 1, {}, cfg, 1),
               std::invalid_argument);
}

// ---- incarnation filtering (DES unit level) ---------------------------

TEST(NpIncarnation, StalePacketsFromADeadLifeAreRejected) {
  // A receiver that has heard incarnation 2 drops everything a sender
  // stamped with incarnation 1 — the straggler scenario after a restart.
  // Lives are 8 bits on the wire: life 256 (sent as 0) follows 255 and
  // delivers, and a straggler from 255 is stale once 256 was heard.
  struct Lives {
    std::uint32_t sender, receiver;
    bool stale;
  };
  for (const Lives lives :
       {Lives{1, 2, true}, Lives{255, 256, true}, Lives{256, 255, false}}) {
    SCOPED_TRACE("sender life " + std::to_string(lives.sender) +
                 ", receivers heard " + std::to_string(lives.receiver));
    protocol::NpConfig cfg;
    cfg.k = 4;
    cfg.h = 2;
    cfg.packet_len = 32;
    cfg.incarnation = lives.sender;
    cfg.resume.receiver_incarnation = lives.receiver;
    loss::BernoulliLossModel model(0.0);
    protocol::NpSession session(model, 2, 2, cfg, chaos_seed(31));
    const auto stats = session.run();
    if (!lives.stale) {
      EXPECT_TRUE(stats.all_delivered);
      EXPECT_EQ(stats.receivers.stale_rejected, 0u);
      continue;
    }
    EXPECT_FALSE(stats.all_delivered);
    // The wire still carries the packets (packet_deliveries is a channel
    // counter), but the protocol refuses every one of them: nothing is
    // decoded, everything is counted stale.
    EXPECT_EQ(stats.receivers.decoded, 0u);
    EXPECT_GE(stats.receivers.stale_rejected, stats.packet_deliveries);
    EXPECT_GT(stats.receivers.stale_rejected, 0u);
  }
}

TEST(NpIncarnation, ResumeValidatesParityHighWater) {
  protocol::NpConfig cfg;
  cfg.k = 4;
  cfg.h = 2;
  cfg.incarnation = 1;
  cfg.resume_completed = {false, false};
  cfg.resume_parities = {0, 3};  // above the h = 2 budget
  loss::BernoulliLossModel model(0.0);
  EXPECT_THROW(protocol::NpSession(model, 1, 2, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pbl::core
