// Write-ahead journal: an append-only, CRC-framed record log that makes
// sessions crash-tolerant (docs/ROBUSTNESS.md).
//
// A process that dies mid-write leaves at most a torn tail — a record
// whose bytes were only partially flushed.  open() therefore recovers
// the longest valid PREFIX of the file and truncates the rest: every
// record is framed as [len | type | payload | crc32], and the scan stops
// at the first frame that is incomplete or fails its checksum.  The
// recovery invariant is exactly prefix semantics: whatever open()
// returns is some prefix of the records append() was called with, in
// order, with nothing altered and nothing skipped (tests/test_journal.cpp
// proves this for truncation at EVERY byte offset; fuzz/fuzz_journal.cpp
// fuzzes it).
//
// Durability is a policy knob: sync_every = 1 fsyncs after each append
// (checkpoint-grade, slow), n > 1 amortises, 0 leaves flushing to the
// OS (crash may lose the unflushed suffix — still a clean prefix).
// compact() atomically replaces the log with a caller-built snapshot via
// the classic write-temp, fsync, rename dance, so a crash during
// compaction leaves either the old log or the new one, never a hybrid.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pbl::util {

/// One journal entry: an application-defined type tag plus opaque bytes.
struct JournalRecord {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const JournalRecord&) const = default;
};

/// Result of scanning a raw journal image: the records of its longest
/// valid prefix, how many bytes that prefix spans, and whether anything
/// (torn tail, corruption, foreign bytes) was cut off after it.
struct JournalScanResult {
  std::vector<JournalRecord> records;
  std::size_t valid_bytes = 0;  ///< length of the recoverable prefix
  bool truncated = false;       ///< bytes beyond valid_bytes were discarded
};

inline constexpr std::size_t kJournalMagicSize = 8;
inline constexpr std::size_t kJournalFrameOverhead = 12;  ///< len+type+crc

/// Frames one record as it appears on disk (exposed for tests/fuzzing).
std::vector<std::uint8_t> encode_journal_record(
    std::uint32_t type, std::span<const std::uint8_t> payload);

/// Pure scan of a journal image (magic header + records): total over
/// arbitrary bytes, never throws, never reads past `bytes`.  A missing
/// or damaged magic header yields an empty result with valid_bytes == 0.
/// This is the single parsing routine — Journal::open() and the fuzz
/// harness both go through it, so fuzz coverage is recovery coverage.
JournalScanResult scan_journal(std::span<const std::uint8_t> bytes);

/// fsync the directory containing `path`, so a freshly renamed file's
/// directory entry is durable too.  Best-effort: some filesystems refuse.
void sync_parent_dir(const std::string& path);

struct JournalConfig {
  /// fsync after every Nth append; 0 = never (OS-buffered).
  std::size_t sync_every = 0;
  /// Reject any single record larger than this (a torn length field must
  /// not provoke a multi-gigabyte allocation during recovery).
  std::size_t max_record_bytes = 1u << 24;
};

/// The append-only log itself.  Move-only; the destructor closes the fd.
class Journal {
 public:
  /// Opens (or creates) the journal at `path`, recovers the valid record
  /// prefix, and truncates any torn tail so new appends extend a clean
  /// log.  Throws std::runtime_error on I/O failure or if the file
  /// exists but is not a journal (wrong magic — refuse to clobber).
  static Journal open(const std::string& path, JournalConfig config = {});

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Records recovered by open(); unchanged by later appends.
  const std::vector<JournalRecord>& recovered() const noexcept {
    return recovered_;
  }
  /// True when open() found and discarded a torn/corrupt tail.
  bool recovered_torn_tail() const noexcept { return recovered_torn_; }

  /// Appends one record; durability per JournalConfig::sync_every.
  /// Returns false iff the journal is in the crashed state (fault
  /// injection, below) — the record is then NOT persisted, mirroring a
  /// process that died before the write.
  bool append(std::uint32_t type, std::span<const std::uint8_t> payload);

  /// Atomically replaces the log's contents with `records` (write temp,
  /// fsync, rename) — snapshot+compaction.  The journal stays open on
  /// the new file.
  void compact(const std::vector<JournalRecord>& records);

  /// Forces an fsync now, regardless of policy.
  void sync();

  std::size_t size_bytes() const noexcept { return size_; }
  std::uint64_t appended_records() const noexcept { return appended_; }
  const std::string& path() const noexcept { return path_; }

  // ---- deterministic crash injection ------------------------------------
  //
  // Simulates dying MID-APPEND: the nth future append (0 = the next one)
  // writes only the first `keep_bytes` bytes of its frame and flips the
  // journal into the crashed state, where every later append is refused.
  // Recovery must then truncate the torn frame — the property the
  // crash-at-every-packet suites lean on.
  void crash_on_append(std::uint64_t nth, std::size_t keep_bytes);
  bool crashed() const noexcept { return crashed_; }

  // ---- recoverable write-failure injection ------------------------------
  //
  // Simulates a disk that intermittently refuses writes (ENOSPC-style):
  // every `every`-th append FAILS — optionally after putting the first
  // `partial_bytes` bytes of its frame on disk (a short write), which the
  // injector immediately truncates back off so the on-disk log stays a
  // clean prefix, exactly as the next open()'s torn-tail recovery would
  // leave it.  Unlike crash_on_append the journal stays usable: the
  // failed record is simply not persisted and later appends proceed.
  // every == 0 disables.  Failures are counted in write_failures().
  void inject_write_failure(std::uint64_t every, std::size_t partial_bytes = 0);
  std::uint64_t write_failures() const noexcept { return write_failures_; }

 private:
  Journal() = default;

  int fd_ = -1;
  std::string path_;
  JournalConfig cfg_;
  std::vector<JournalRecord> recovered_;
  bool recovered_torn_ = false;
  std::size_t size_ = 0;
  std::uint64_t appended_ = 0;
  std::size_t unsynced_ = 0;

  bool crashed_ = false;
  std::uint64_t crash_at_append_ = ~std::uint64_t{0};
  std::size_t crash_keep_bytes_ = 0;

  std::uint64_t fail_every_ = 0;
  std::size_t fail_partial_bytes_ = 0;
  std::uint64_t attempted_appends_ = 0;
  std::uint64_t write_failures_ = 0;
};

}  // namespace pbl::util
