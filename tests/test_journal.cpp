// Crash-tolerance foundations: util::Journal prefix recovery and the
// core/session_state serialization + write-ahead glue it carries
// (docs/ROBUSTNESS.md).
//
// The central property is PREFIX RECOVERY: whatever bytes a crash leaves
// on disk, reopening the journal yields some prefix of the records that
// were appended, in order, unaltered — proved here by truncating a known
// log at EVERY byte offset and checking the recovered records against
// that oracle.

#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/session_state.hpp"
#include "util/rng.hpp"

namespace pbl {
namespace {

using core::ReceiverSessionState;
using core::SenderSessionState;
using core::SessionJournal;
using core::SessionRecordType;
using util::Journal;
using util::JournalConfig;
using util::JournalRecord;
using util::scan_journal;

class JournalTest : public ::testing::Test {
 protected:
  std::string temp_path() {
    path_ = ::testing::TempDir() + "pbl_journal_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
    return path_;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  static std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  static void write_bytes(const std::string& path,
                          const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A deterministic record stream with varied sizes (including empty).
  static std::vector<JournalRecord> sample_records(std::size_t count) {
    Rng rng(0x70 + count);
    std::vector<JournalRecord> records(count);
    for (std::size_t i = 0; i < count; ++i) {
      records[i].type = static_cast<std::uint32_t>(i * 7 + 1);
      records[i].payload.resize(i % 5 == 0 ? 0 : 1 + (i * 13) % 40);
      for (auto& b : records[i].payload)
        b = static_cast<std::uint8_t>(rng());
    }
    return records;
  }

  std::string path_;
};

TEST_F(JournalTest, AppendAndReopenRoundTrips) {
  const auto path = temp_path();
  const auto records = sample_records(12);
  {
    Journal j = Journal::open(path, {.sync_every = 1});
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_FALSE(j.recovered_torn_tail());
    for (const auto& rec : records) EXPECT_TRUE(j.append(rec.type, rec.payload));
    EXPECT_EQ(j.appended_records(), records.size());
  }
  Journal j = Journal::open(path);
  EXPECT_FALSE(j.recovered_torn_tail());
  ASSERT_EQ(j.recovered().size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(j.recovered()[i], records[i]) << "record " << i;
}

TEST_F(JournalTest, TruncationAtEveryByteOffsetRecoversExactPrefix) {
  // The oracle: with the full image in hand, a cut at offset c must
  // recover exactly the records whose frames fit entirely below c —
  // never a partial record, never a reordered or altered one.
  const auto path = temp_path();
  const auto records = sample_records(9);
  {
    Journal j = Journal::open(path, {.sync_every = 1});
    for (const auto& rec : records) j.append(rec.type, rec.payload);
  }
  const auto image = read_bytes(path);

  // Frame boundaries: prefix_end[i] = bytes covering the first i records.
  std::vector<std::size_t> prefix_end{util::kJournalMagicSize};
  for (const auto& rec : records)
    prefix_end.push_back(prefix_end.back() + util::kJournalFrameOverhead +
                         rec.payload.size());
  ASSERT_EQ(prefix_end.back(), image.size());

  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    std::vector<std::uint8_t> torn(image.begin(),
                                   image.begin() + static_cast<long>(cut));
    const auto scan =
        scan_journal(std::span<const std::uint8_t>(torn));
    std::size_t expect = 0;
    while (expect + 1 < prefix_end.size() && prefix_end[expect + 1] <= cut)
      ++expect;
    if (cut < util::kJournalMagicSize) {
      EXPECT_TRUE(scan.records.empty()) << "cut=" << cut;
      EXPECT_EQ(scan.valid_bytes, 0u) << "cut=" << cut;
    } else {
      ASSERT_EQ(scan.records.size(), expect) << "cut=" << cut;
      for (std::size_t i = 0; i < expect; ++i)
        EXPECT_EQ(scan.records[i], records[i]) << "cut=" << cut;
      EXPECT_EQ(scan.valid_bytes, prefix_end[expect]) << "cut=" << cut;
      EXPECT_EQ(scan.truncated, cut != prefix_end[expect]) << "cut=" << cut;
    }

    // Journal::open agrees with the pure scan AND leaves a clean file:
    // appending after recovery extends the recovered prefix.
    write_bytes(path, torn);
    Journal j = Journal::open(path, {.sync_every = 1});
    ASSERT_EQ(j.recovered().size(), cut < util::kJournalMagicSize ? 0u : expect)
        << "cut=" << cut;
    j.append(999, std::vector<std::uint8_t>{0xAB});
    Journal again = Journal::open(path);
    ASSERT_GE(again.recovered().size(), 1u) << "cut=" << cut;
    EXPECT_EQ(again.recovered().back().type, 999u) << "cut=" << cut;
    EXPECT_FALSE(again.recovered_torn_tail()) << "cut=" << cut;
  }
}

TEST_F(JournalTest, CorruptedByteInvalidatesOnlyTheSuffix) {
  const auto path = temp_path();
  const auto records = sample_records(6);
  {
    Journal j = Journal::open(path, {.sync_every = 1});
    for (const auto& rec : records) j.append(rec.type, rec.payload);
  }
  auto image = read_bytes(path);
  // Flip a byte inside record 3's frame: records 0..2 must survive.
  std::size_t off = util::kJournalMagicSize;
  for (std::size_t i = 0; i < 3; ++i)
    off += util::kJournalFrameOverhead + records[i].payload.size();
  image[off + 5] ^= 0xFF;
  const auto scan = scan_journal(std::span<const std::uint8_t>(image));
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(scan.records[i], records[i]);
}

TEST_F(JournalTest, ScanIsTotalOverArbitraryBytes) {
  Rng rng(77);
  for (std::size_t len = 0; len < 200; ++len) {
    std::vector<std::uint8_t> noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    const auto scan = scan_journal(std::span<const std::uint8_t>(noise));
    EXPECT_LE(scan.valid_bytes, noise.size());
  }
}

TEST_F(JournalTest, RefusesToClobberForeignFile) {
  const auto path = temp_path();
  write_bytes(path, {'n', 'o', 't', ' ', 'a', ' ', 'l', 'o', 'g', '\n'});
  EXPECT_THROW(Journal::open(path), std::runtime_error);
  // And the foreign bytes are untouched by the refusal.
  EXPECT_EQ(read_bytes(path).size(), 10u);
}

TEST_F(JournalTest, CompactionReplacesLogAtomically) {
  const auto path = temp_path();
  Journal j = Journal::open(path, {.sync_every = 1});
  for (const auto& rec : sample_records(20)) j.append(rec.type, rec.payload);
  const auto before = j.size_bytes();
  const std::vector<JournalRecord> snapshot{
      {42, {1, 2, 3}}, {43, {4, 5, 6, 7}}};
  j.compact(snapshot);
  EXPECT_LT(j.size_bytes(), before);
  // The journal stays open on the new file: appends land after the
  // snapshot.
  j.append(44, std::vector<std::uint8_t>{9});
  Journal again = Journal::open(path);
  ASSERT_EQ(again.recovered().size(), 3u);
  EXPECT_EQ(again.recovered()[0], snapshot[0]);
  EXPECT_EQ(again.recovered()[1], snapshot[1]);
  EXPECT_EQ(again.recovered()[2].type, 44u);
}

TEST_F(JournalTest, CrashOnAppendLeavesRecoverableTornFrame) {
  const auto path = temp_path();
  const auto records = sample_records(8);
  for (std::size_t keep = 0; keep < 14; ++keep) {
    std::remove(path_.c_str());
    {
      Journal j = Journal::open(path, {.sync_every = 1});
      j.crash_on_append(4, keep);  // 5th append dies mid-frame
      std::size_t accepted = 0;
      for (const auto& rec : records)
        accepted += j.append(rec.type, rec.payload) ? 1u : 0u;
      EXPECT_EQ(accepted, 4u) << "keep=" << keep;
      EXPECT_TRUE(j.crashed());
      // Once crashed, the journal refuses everything — like a dead fd.
      EXPECT_FALSE(j.append(1, {}));
    }
    Journal j = Journal::open(path, {.sync_every = 1});
    EXPECT_EQ(j.recovered_torn_tail(), keep != 0) << "keep=" << keep;
    ASSERT_EQ(j.recovered().size(), 4u) << "keep=" << keep;
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(j.recovered()[i], records[i]) << "keep=" << keep;
  }
}

TEST_F(JournalTest, InjectedWriteFailuresLoseOnlyTheFailedRecords) {
  // ENOSPC-style injection: every 3rd append fails but — unlike
  // crash_on_append — the journal stays USABLE.  The failed records are
  // simply not persisted; everything accepted before and after them
  // round-trips, and the failures are counted.
  const auto path = temp_path();
  const auto records = sample_records(10);
  std::vector<JournalRecord> persisted;
  {
    Journal j = Journal::open(path, {.sync_every = 1});
    j.inject_write_failure(/*every=*/3);
    for (const auto& rec : records) {
      if (j.append(rec.type, rec.payload)) persisted.push_back(rec);
    }
    EXPECT_FALSE(j.crashed());
    EXPECT_EQ(j.write_failures(), 3u);  // appends 3, 6, 9 failed
    EXPECT_EQ(persisted.size(), 7u);
  }
  Journal j = Journal::open(path, {.sync_every = 1});
  EXPECT_FALSE(j.recovered_torn_tail());
  ASSERT_EQ(j.recovered().size(), persisted.size());
  for (std::size_t i = 0; i < persisted.size(); ++i)
    EXPECT_EQ(j.recovered()[i], persisted[i]) << "record " << i;
}

TEST_F(JournalTest, InjectedShortWriteLeavesCleanPrefixOnDisk) {
  // The harsher variant: the failing append lands `partial_bytes` of its
  // frame before dying.  The injector must repair the file back to the
  // clean prefix immediately — the NEXT append extends a well-formed
  // log, and a reopen sees no torn tail at all.
  const auto path = temp_path();
  const auto records = sample_records(6);
  for (std::size_t partial : {1u, 7u, 11u}) {
    std::remove(path_.c_str());
    std::vector<JournalRecord> persisted;
    {
      Journal j = Journal::open(path, {.sync_every = 1});
      j.inject_write_failure(/*every=*/2, partial);
      for (const auto& rec : records) {
        if (j.append(rec.type, rec.payload)) persisted.push_back(rec);
      }
      EXPECT_EQ(j.write_failures(), 3u) << "partial=" << partial;
    }
    Journal j = Journal::open(path, {.sync_every = 1});
    EXPECT_FALSE(j.recovered_torn_tail()) << "partial=" << partial;
    ASSERT_EQ(j.recovered().size(), persisted.size())
        << "partial=" << partial;
    for (std::size_t i = 0; i < persisted.size(); ++i)
      EXPECT_EQ(j.recovered()[i], persisted[i])
          << "partial=" << partial << " record " << i;
  }
}

TEST_F(JournalTest, RejectsOversizedRecords) {
  const auto path = temp_path();
  Journal j = Journal::open(path, {.sync_every = 0, .max_record_bytes = 16});
  EXPECT_THROW(j.append(1, std::vector<std::uint8_t>(17)),
               std::invalid_argument);
  EXPECT_TRUE(j.append(1, std::vector<std::uint8_t>(16)));
}

// ---- session-state serialization -------------------------------------

SenderSessionState sample_sender_state() {
  SenderSessionState st;
  st.session_id = 0xDEADBEEFCAFEULL;
  st.incarnation = 3;
  st.k = 8;
  st.h = 40;
  st.packet_len = 64;
  st.num_tgs = 11;
  st.completed = {true, false, true, true, false, false,
                  true, false, false, true, false};
  st.parities_sent = {0, 5, 0, 2, 40, 1, 0, 0, 7, 0, 65535};
  return st;
}

TEST(SessionState, SenderSerializationRoundTrips) {
  const auto st = sample_sender_state();
  EXPECT_EQ(SenderSessionState::deserialize(st.serialize()), st);
}

TEST(SessionState, SenderHelpersReportProgress) {
  auto st = sample_sender_state();
  EXPECT_FALSE(st.all_complete());
  EXPECT_EQ(st.first_incomplete(), 1u);
  st.completed.assign(st.num_tgs, true);
  EXPECT_TRUE(st.all_complete());
  EXPECT_EQ(st.first_incomplete(), st.num_tgs);
}

TEST(SessionState, SenderDeserializeRejectsMalformedImages) {
  const auto image = sample_sender_state().serialize();
  // Truncation at every offset throws, never crashes or misparses.
  for (std::size_t cut = 0; cut < image.size(); ++cut)
    EXPECT_THROW(SenderSessionState::deserialize(
                     std::span<const std::uint8_t>(image.data(), cut)),
                 std::invalid_argument)
        << "cut=" << cut;
  auto trailing = image;
  trailing.push_back(0);
  EXPECT_THROW(SenderSessionState::deserialize(trailing),
               std::invalid_argument);
  auto bad_version = image;
  bad_version[0] = 99;
  EXPECT_THROW(SenderSessionState::deserialize(bad_version),
               std::invalid_argument);
  // An implausible TG count must not provoke a giant allocation.  The
  // count sits after [ver u8][sid u64][inc u32][k u32][h u32][plen u32].
  auto huge = image;
  huge[25] = 0xFF;
  huge[26] = 0xFF;
  huge[27] = 0xFF;
  huge[28] = 0x7F;
  EXPECT_THROW(SenderSessionState::deserialize(huge), std::invalid_argument);
}

TEST(SessionState, ReceiverSerializationRoundTrips) {
  ReceiverSessionState st;
  st.session_id = 17;
  st.receiver = 4;
  st.incarnation = 2;
  st.num_tgs = 9;
  st.decoded = {true, true, false, true, false, false, true, false, true};
  EXPECT_EQ(ReceiverSessionState::deserialize(st.serialize()), st);
  const auto image = st.serialize();
  for (std::size_t cut = 0; cut < image.size(); ++cut)
    EXPECT_THROW(ReceiverSessionState::deserialize(
                     std::span<const std::uint8_t>(image.data(), cut)),
                 std::invalid_argument)
        << "cut=" << cut;
}

TEST_F(JournalTest, ReceiverStateFileLeavesNoTempFileBehind) {
  // The save writes a temp file, fsyncs it, renames it over `path` and
  // fsyncs the directory; what a power cut leaves cannot be shown here.
  // A save that fails (a rename onto a directory) throws and removes its
  // temp file.
  const std::string path = temp_path();
  ReceiverSessionState st;
  st.session_id = 3;
  st.num_tgs = 3;
  st.decoded = {true, false, true};
  core::save_receiver_state_file(path, st);
  EXPECT_EQ(core::load_receiver_state_file(path), st);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  EXPECT_THROW(core::save_receiver_state_file(path, st), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SessionState, RecoverFoldsSnapshotAndDeltas) {
  auto base = sample_sender_state();
  base.completed.assign(base.num_tgs, false);
  base.parities_sent.assign(base.num_tgs, 0);

  const auto u32 = [](std::uint32_t v) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  };
  const auto tg_hw = [&u32](std::uint32_t tg, std::uint16_t hw) {
    auto p = u32(tg);
    p.push_back(static_cast<std::uint8_t>(hw));
    p.push_back(static_cast<std::uint8_t>(hw >> 8));
    return p;
  };

  std::vector<JournalRecord> records{
      {static_cast<std::uint32_t>(SessionRecordType::kSenderSnapshot),
       base.serialize()},
      {static_cast<std::uint32_t>(SessionRecordType::kTgCompleted), u32(2)},
      {static_cast<std::uint32_t>(SessionRecordType::kParityHighWater),
       tg_hw(5, 7)},
      // Stale high-water: the fold keeps the max, not the last.
      {static_cast<std::uint32_t>(SessionRecordType::kParityHighWater),
       tg_hw(5, 3)},
      {static_cast<std::uint32_t>(SessionRecordType::kIncarnation), u32(9)},
      // Unknown record types are skipped for forward compatibility.
      {0xFFFF, {1, 2, 3}},
      {static_cast<std::uint32_t>(SessionRecordType::kTgCompleted), u32(0)},
  };
  const auto st = core::recover_sender_state(records);
  EXPECT_EQ(st.incarnation, 9u);
  EXPECT_TRUE(st.completed[0]);
  EXPECT_TRUE(st.completed[2]);
  EXPECT_FALSE(st.completed[1]);
  EXPECT_EQ(st.parities_sent[5], 7u);

  EXPECT_THROW(core::recover_sender_state({}), std::runtime_error);
  EXPECT_THROW(
      core::recover_sender_state(
          {{static_cast<std::uint32_t>(SessionRecordType::kTgCompleted),
            u32(0)}}),
      std::runtime_error);
  records.push_back({static_cast<std::uint32_t>(SessionRecordType::kTgCompleted),
                     u32(base.num_tgs)});  // out of range
  EXPECT_THROW(core::recover_sender_state(records), std::invalid_argument);
}

// ---- SessionJournal: the write-ahead glue -----------------------------

TEST_F(JournalTest, SessionJournalBumpsIncarnationPerLife) {
  const auto path = temp_path();
  auto fresh = sample_sender_state();
  fresh.incarnation = 0;
  fresh.completed.assign(fresh.num_tgs, false);
  fresh.parities_sent.assign(fresh.num_tgs, 0);

  {
    SessionJournal sj(path, fresh);
    EXPECT_FALSE(sj.resumed());
    EXPECT_EQ(sj.state().incarnation, 0u);
    sj.record_tg_completed(0);
    sj.record_parities_sent(3, 4);
  }
  {
    SessionJournal sj(path, fresh);
    EXPECT_TRUE(sj.resumed());
    EXPECT_EQ(sj.state().incarnation, 1u);
    EXPECT_TRUE(sj.state().completed[0]);
    EXPECT_EQ(sj.state().parities_sent[3], 4u);
    sj.record_tg_completed(1);
    // Idempotent: a repeat completion writes nothing new.
    const auto n = sj.journal().appended_records();
    sj.record_tg_completed(1);
    sj.record_parities_sent(3, 4);  // not above high-water: ignored
    EXPECT_EQ(sj.journal().appended_records(), n);
  }
  SessionJournal sj(path, fresh);
  EXPECT_EQ(sj.state().incarnation, 2u);
  EXPECT_TRUE(sj.state().completed[1]);
}

TEST_F(JournalTest, SessionJournalRefusesShapeMismatch) {
  const auto path = temp_path();
  auto fresh = sample_sender_state();
  { SessionJournal sj(path, fresh); }
  auto other = fresh;
  other.k += 1;
  EXPECT_THROW(SessionJournal(path, other), std::runtime_error);
  other = fresh;
  other.session_id ^= 1;
  EXPECT_THROW(SessionJournal(path, other), std::runtime_error);
}

TEST_F(JournalTest, SessionJournalCheckpointCompactsLog) {
  const auto path = temp_path();
  auto fresh = sample_sender_state();
  fresh.completed.assign(fresh.num_tgs, false);
  fresh.parities_sent.assign(fresh.num_tgs, 0);
  SessionJournal::Options opts;
  opts.checkpoint_interval = 4;
  SessionJournal sj(path, fresh, opts);
  for (std::size_t tg = 0; tg < 8; ++tg) sj.record_tg_completed(tg);
  // Two checkpoints have compacted the deltas into snapshots; the log
  // never grows past interval deltas + one snapshot.
  Journal peek = Journal::open(path);
  EXPECT_LE(peek.recovered().size(), opts.checkpoint_interval + 1);
  const auto st = core::recover_sender_state(peek.recovered());
  for (std::size_t tg = 0; tg < 8; ++tg) EXPECT_TRUE(st.completed[tg]);
}

TEST_F(JournalTest, SessionJournalSurvivesCrashMidAppend) {
  const auto path = temp_path();
  auto fresh = sample_sender_state();
  fresh.incarnation = 0;
  fresh.completed.assign(fresh.num_tgs, false);
  fresh.parities_sent.assign(fresh.num_tgs, 0);
  {
    SessionJournal::Options opts;
    opts.checkpoint_interval = 0;  // keep raw deltas for the oracle
    SessionJournal sj(path, fresh, opts);
    sj.record_tg_completed(0);
    sj.journal().crash_on_append(0, 3);  // next delta tears mid-frame
    sj.record_tg_completed(1);           // lost with the crash
    sj.record_tg_completed(2);           // refused: already crashed
  }
  SessionJournal sj(path, fresh);
  EXPECT_TRUE(sj.resumed());
  EXPECT_EQ(sj.state().incarnation, 1u);
  EXPECT_TRUE(sj.state().completed[0]);   // durable before the crash
  EXPECT_FALSE(sj.state().completed[1]);  // torn: correctly forgotten
  EXPECT_FALSE(sj.state().completed[2]);
}

}  // namespace
}  // namespace pbl
