// Crash-tolerant session state: what a sender must remember to survive
// its own death (docs/ROBUSTNESS.md).
//
// The durable facts are deliberately small — which TGs are confirmed
// complete, how many parities each TG has consumed, and which
// incarnation of the sender is alive — because everything else
// (encoders, decoders, timers) is reconstructible from the source data
// and the protocol.  SenderSessionState serialises those facts with a
// version byte; SessionJournal write-ahead-logs every change through
// util::Journal and folds a recovered record stream back into state.
//
// Restart protocol: each reopen of the journal bumps the incarnation and
// journals the bump BEFORE any packet of the new life is sent, so a
// receiver that has heard incarnation i can reject any straggler stamped
// < i (fec/packet.hpp's incarnation byte).  A resumed sender starts at
// the first incomplete TG and serves fresh parity indices above the
// journaled high-water mark — completed TGs are never retransmitted, and
// repair packets receivers already hold are never re-multicast.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/file_transfer.hpp"
#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "util/journal.hpp"

namespace pbl::core {

/// Journal record types used by crash-tolerant sessions (the `type` tag
/// of util::JournalRecord).  Values are wire-stable: never renumber.
enum class SessionRecordType : std::uint32_t {
  kSenderSnapshot = 1,   ///< full SenderSessionState image
  kTgCompleted = 2,      ///< delta: u32 tg confirmed complete
  kParityHighWater = 3,  ///< delta: u32 tg, u16 parities-sent high-water
  kIncarnation = 4,      ///< delta: u32 new incarnation (restart marker)
  kReceiverSnapshot = 5, ///< full ReceiverSessionState image
};

/// The sender's durable progress.  Shape fields (k, h, packet_len,
/// num_tgs, session_id) identify the session a journal belongs to; a
/// recovered journal whose shape disagrees with the caller's is refused
/// rather than silently resumed against the wrong data.
struct SenderSessionState {
  std::uint64_t session_id = 0;
  std::uint32_t incarnation = 0;
  std::uint32_t k = 0;
  std::uint32_t h = 0;
  std::uint32_t packet_len = 0;
  std::uint32_t num_tgs = 0;
  std::vector<bool> completed;              ///< per-TG confirmed complete
  std::vector<std::uint16_t> parities_sent; ///< per-TG parity high-water

  bool operator==(const SenderSessionState&) const = default;

  bool all_complete() const noexcept;
  std::size_t first_incomplete() const noexcept;  ///< num_tgs when done

  /// Versioned little-endian image (format v1).
  std::vector<std::uint8_t> serialize() const;
  /// Throws std::invalid_argument on truncated/malformed/unknown-version
  /// input; never reads past `bytes`.
  static SenderSessionState deserialize(std::span<const std::uint8_t> bytes);
};

/// A receiver's durable progress: which TGs it has decoded and the
/// highest sender incarnation it has heard (for stale rejection after
/// ITS restart).
struct ReceiverSessionState {
  std::uint64_t session_id = 0;
  std::uint32_t receiver = 0;     ///< which member this bitmap belongs to
  std::uint32_t incarnation = 0;  ///< highest sender incarnation heard
  std::uint32_t num_tgs = 0;
  std::vector<bool> decoded;

  bool operator==(const ReceiverSessionState&) const = default;

  std::vector<std::uint8_t> serialize() const;
  static ReceiverSessionState deserialize(std::span<const std::uint8_t> bytes);
};

/// Folds a recovered journal record stream into sender state: the latest
/// kSenderSnapshot, with every later delta applied in order.  Throws
/// std::runtime_error if the stream holds no snapshot (nothing to resume
/// from) and std::invalid_argument on a malformed record — the records
/// passed CRC framing, so malformation means a logic error, not line
/// noise.
SenderSessionState recover_sender_state(
    const std::vector<util::JournalRecord>& records);

/// Write-ahead glue between a protocol session and util::Journal.
///
/// Construction opens (or creates) the journal: a fresh file is seeded
/// with a snapshot of `fresh` at incarnation 0; a journal with history
/// is folded via recover_sender_state(), its shape checked against
/// `fresh`, and the incarnation bumped and journaled — all before the
/// caller sends a single packet.  The record_* methods are shaped to
/// plug straight into NpConfig::on_tg_completed / on_parities_sent.
struct SessionJournalOptions {
  /// Compact the log to a single snapshot after this many delta records
  /// (0 = never compact).
  std::size_t checkpoint_interval = 16;
  /// util::JournalConfig::sync_every for the underlying log.
  std::size_t sync_every = 1;
};

class SessionJournal {
 public:
  using Options = SessionJournalOptions;

  SessionJournal(const std::string& path, const SenderSessionState& fresh,
                 Options options = {});

  const SenderSessionState& state() const noexcept { return state_; }
  /// True when construction recovered a prior life from the journal.
  bool resumed() const noexcept { return resumed_; }

  /// Journals "TG `tg` is confirmed complete" (idempotent).
  void record_tg_completed(std::size_t tg);
  /// Journals the new parity high-water for `tg` (monotone: lower or
  /// equal marks are ignored).
  void record_parities_sent(std::size_t tg, std::size_t high_water);
  /// Forces snapshot+compaction now, resetting the delta counter.
  void checkpoint();

  /// The underlying log — exposed for fault injection
  /// (util::Journal::crash_on_append) and inspection in tests.
  util::Journal& journal() noexcept { return journal_; }

 private:
  void after_delta();

  util::Journal journal_;
  SenderSessionState state_;
  Options options_;
  std::size_t deltas_ = 0;
  bool resumed_ = false;
};

/// The journal glue both engines share.  Opens (or recovers) the
/// write-ahead journal at `path` for a session of `num_tgs` TGs shaped by
/// `params`, then resumes `params` from it: the incarnation, the
/// confirmed TGs and the parity high-water marks.  The journal's hooks go
/// ahead of `params`' own, which still fire after them.  The hooks point
/// into the returned journal, so it must outlive the session.
std::unique_ptr<SessionJournal> open_session_journal(
    const std::string& path, std::uint64_t session_id, std::size_t num_tgs,
    protocol::NpParams& params, SessionJournal::Options options = {});

/// Crash→recover→resume driver configuration.
struct ResumableConfig {
  /// Base protocol config.  Per incarnation the driver overwrites the
  /// incarnation, resume and crash fields, and runs the journal's hooks
  /// ahead of np's own.
  protocol::NpConfig np{};
  /// Where the sender's write-ahead journal lives.  Required.
  std::string journal_path;
  SessionJournal::Options journal{};
  /// Deterministic crash schedule: incarnation i dies after
  /// crash_plan[i] transmissions (entries beyond the vector: no crash).
  std::vector<std::size_t> crash_plan;
  /// Hard bound on lives before the driver gives up.
  std::size_t max_incarnations = 64;
};

/// What a multi-life session cost, across every incarnation.
struct ResumableReport {
  bool complete = false;          ///< every receiver got every byte
  std::size_t incarnations = 0;   ///< lives used (1 = never crashed)
  std::uint64_t total_data_sent = 0;
  std::uint64_t total_parity_sent = 0;
  std::uint64_t total_proactive_sent = 0;
  std::uint64_t total_polls_sent = 0;
  std::uint64_t stale_rejected = 0;
  /// Data transmissions beyond the unavoidable one-per-packet: the
  /// redundancy cost of crashing (re-sent partial TGs).
  std::uint64_t redundant_data = 0;
  double total_sim_time = 0.0;    ///< summed across lives
  protocol::NpStats last{};       ///< the final life's full statistics
  SenderSessionState state{};     ///< final journaled state
};

// ---- server-side journal discovery (src/server/) -------------------------

/// Non-destructively folds the journal at `path` into sender state: no
/// open-for-append, no incarnation bump — pure inspection, so a server
/// can decide WHETHER to resume a session before committing to it.
/// Returns std::nullopt when the file is missing, not a journal, or
/// holds no snapshot.
std::optional<SenderSessionState> peek_session_journal(
    const std::string& path);

/// Every `*.journal` file directly inside `dir`, as full paths sorted by
/// name (deterministic resume order).  A missing directory is an empty
/// list, not an error.
std::vector<std::string> list_session_journals(const std::string& dir);

/// Persists a receiver's progress to `path` atomically and durably
/// (write temp, fsync, rename, fsync the directory — a crash or power
/// cut mid-save leaves the old file or the new one, never a torn
/// hybrid).  Throws std::runtime_error on failure, leaving no temp file.
void save_receiver_state_file(const std::string& path,
                              const ReceiverSessionState& state);

/// Reads a file written by save_receiver_state_file(); std::nullopt when
/// missing or malformed (a damaged state file means "fresh receiver",
/// never a crash).
std::optional<ReceiverSessionState> load_receiver_state_file(
    const std::string& path);

/// Runs `data` through protocol NP to completion across sender crashes:
/// each life recovers the journal at `config.journal_path`, bumps the
/// incarnation, resumes at the first incomplete TG, and dies on schedule
/// (config.crash_plan) until a life survives to the end.  Receiver
/// decoded-state is threaded between lives (in the DES each incarnation
/// is a new session object; real receivers would simply have survived).
ResumableReport run_resumable_session(const loss::LossModel& loss,
                                      std::size_t receivers,
                                      std::vector<TgData> data,
                                      const ResumableConfig& config,
                                      std::uint64_t seed = 1);

}  // namespace pbl::core
