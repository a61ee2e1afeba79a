#include "core/session_state.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace pbl::core {

namespace {

constexpr std::uint8_t kSenderStateVersion = 1;
constexpr std::uint8_t kReceiverStateVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_bitmap(std::vector<std::uint8_t>& out, const std::vector<bool>& bits) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      out.push_back(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) out.push_back(acc);
}

/// Bounds-checked little-endian reader; throws instead of reading past
/// the end, so deserialize() is total over arbitrary byte strings.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    const auto b = take(4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::vector<bool> bitmap(std::size_t count) {
    const auto b = take((count + 7) / 8);
    std::vector<bool> bits(count);
    for (std::size_t i = 0; i < count; ++i)
      bits[i] = (b[i / 8] >> (i % 8)) & 1u;
    return bits;
  }
  bool done() const noexcept { return off_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (bytes_.size() - off_ < n)
      throw std::invalid_argument("session state: truncated image");
    const auto s = bytes_.subspan(off_, n);
    off_ += n;
    return s;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t off_ = 0;
};

/// A TG count bound that is generous for any real session but small
/// enough that a corrupt count cannot provoke a huge allocation.
constexpr std::uint32_t kMaxReasonableTgs = 1u << 22;

}  // namespace

bool SenderSessionState::all_complete() const noexcept {
  return first_incomplete() == num_tgs;
}

std::size_t SenderSessionState::first_incomplete() const noexcept {
  for (std::size_t i = 0; i < completed.size(); ++i)
    if (!completed[i]) return i;
  return completed.size();
}

std::vector<std::uint8_t> SenderSessionState::serialize() const {
  std::vector<std::uint8_t> out;
  out.push_back(kSenderStateVersion);
  put_u64(out, session_id);
  put_u32(out, incarnation);
  put_u32(out, k);
  put_u32(out, h);
  put_u32(out, packet_len);
  put_u32(out, num_tgs);
  put_bitmap(out, completed);
  for (const auto hw : parities_sent) put_u16(out, hw);
  return out;
}

SenderSessionState SenderSessionState::deserialize(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u8() != kSenderStateVersion)
    throw std::invalid_argument("sender state: unknown format version");
  SenderSessionState st;
  st.session_id = r.u64();
  st.incarnation = r.u32();
  st.k = r.u32();
  st.h = r.u32();
  st.packet_len = r.u32();
  st.num_tgs = r.u32();
  if (st.num_tgs > kMaxReasonableTgs)
    throw std::invalid_argument("sender state: implausible TG count");
  st.completed = r.bitmap(st.num_tgs);
  st.parities_sent.resize(st.num_tgs);
  for (auto& hw : st.parities_sent) hw = r.u16();
  if (!r.done())
    throw std::invalid_argument("sender state: trailing bytes");
  return st;
}

std::vector<std::uint8_t> ReceiverSessionState::serialize() const {
  std::vector<std::uint8_t> out;
  out.push_back(kReceiverStateVersion);
  put_u64(out, session_id);
  put_u32(out, receiver);
  put_u32(out, incarnation);
  put_u32(out, num_tgs);
  put_bitmap(out, decoded);
  return out;
}

ReceiverSessionState ReceiverSessionState::deserialize(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u8() != kReceiverStateVersion)
    throw std::invalid_argument("receiver state: unknown format version");
  ReceiverSessionState st;
  st.session_id = r.u64();
  st.receiver = r.u32();
  st.incarnation = r.u32();
  st.num_tgs = r.u32();
  if (st.num_tgs > kMaxReasonableTgs)
    throw std::invalid_argument("receiver state: implausible TG count");
  st.decoded = r.bitmap(st.num_tgs);
  if (!r.done())
    throw std::invalid_argument("receiver state: trailing bytes");
  return st;
}

SenderSessionState recover_sender_state(
    const std::vector<util::JournalRecord>& records) {
  SenderSessionState st;
  bool have_snapshot = false;
  for (const auto& rec : records) {
    switch (static_cast<SessionRecordType>(rec.type)) {
      case SessionRecordType::kSenderSnapshot:
        st = SenderSessionState::deserialize(rec.payload);
        have_snapshot = true;
        break;
      case SessionRecordType::kTgCompleted: {
        if (!have_snapshot)
          throw std::runtime_error("session journal: delta before snapshot");
        Reader r{std::span<const std::uint8_t>(rec.payload)};
        const std::uint32_t tg = r.u32();
        if (tg >= st.num_tgs)
          throw std::invalid_argument("session journal: TG out of range");
        st.completed[tg] = true;
        break;
      }
      case SessionRecordType::kParityHighWater: {
        if (!have_snapshot)
          throw std::runtime_error("session journal: delta before snapshot");
        Reader r{std::span<const std::uint8_t>(rec.payload)};
        const std::uint32_t tg = r.u32();
        const std::uint16_t hw = r.u16();
        if (tg >= st.num_tgs)
          throw std::invalid_argument("session journal: TG out of range");
        st.parities_sent[tg] = std::max(st.parities_sent[tg], hw);
        break;
      }
      case SessionRecordType::kIncarnation: {
        if (!have_snapshot)
          throw std::runtime_error("session journal: delta before snapshot");
        Reader r{std::span<const std::uint8_t>(rec.payload)};
        st.incarnation = r.u32();
        break;
      }
      case SessionRecordType::kReceiverSnapshot:
        break;  // receiver-side record: not part of the sender fold
      default:
        // Unknown types are skipped, not fatal: a newer writer may add
        // record kinds an older reader can safely ignore.
        break;
    }
  }
  if (!have_snapshot)
    throw std::runtime_error(
        "session journal: no sender snapshot — nothing to resume from");
  return st;
}

SessionJournal::SessionJournal(const std::string& path,
                               const SenderSessionState& fresh,
                               Options options)
    : journal_(util::Journal::open(
          path, util::JournalConfig{.sync_every = options.sync_every,
                                    .max_record_bytes = 1u << 24})),
      options_(options) {
  if (!journal_.recovered().empty()) {
    state_ = recover_sender_state(journal_.recovered());
    if (state_.session_id != fresh.session_id || state_.k != fresh.k ||
        state_.h != fresh.h || state_.packet_len != fresh.packet_len ||
        state_.num_tgs != fresh.num_tgs)
      throw std::runtime_error(
          "session journal: recovered state belongs to a different session "
          "(shape mismatch) — refusing to resume against the wrong data");
    resumed_ = true;
    // New life: bump the incarnation and make it durable BEFORE any
    // packet of this life is stamped with it.
    ++state_.incarnation;
    std::vector<std::uint8_t> payload;
    put_u32(payload, state_.incarnation);
    journal_.append(
        static_cast<std::uint32_t>(SessionRecordType::kIncarnation), payload);
    journal_.sync();
    return;
  }
  state_ = fresh;
  if (state_.completed.size() != state_.num_tgs)
    state_.completed.assign(state_.num_tgs, false);
  if (state_.parities_sent.size() != state_.num_tgs)
    state_.parities_sent.assign(state_.num_tgs, 0);
  journal_.append(
      static_cast<std::uint32_t>(SessionRecordType::kSenderSnapshot),
      state_.serialize());
  journal_.sync();
}

void SessionJournal::record_tg_completed(std::size_t tg) {
  if (tg >= state_.num_tgs || state_.completed[tg]) return;
  state_.completed[tg] = true;
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(tg));
  journal_.append(static_cast<std::uint32_t>(SessionRecordType::kTgCompleted),
                  payload);
  after_delta();
}

void SessionJournal::record_parities_sent(std::size_t tg,
                                          std::size_t high_water) {
  if (tg >= state_.num_tgs) return;
  const auto hw =
      static_cast<std::uint16_t>(std::min<std::size_t>(high_water, 0xffff));
  if (hw <= state_.parities_sent[tg]) return;  // monotone high-water only
  state_.parities_sent[tg] = hw;
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(tg));
  put_u16(payload, hw);
  journal_.append(
      static_cast<std::uint32_t>(SessionRecordType::kParityHighWater),
      payload);
  after_delta();
}

void SessionJournal::checkpoint() {
  journal_.compact({util::JournalRecord{
      static_cast<std::uint32_t>(SessionRecordType::kSenderSnapshot),
      state_.serialize()}});
  deltas_ = 0;
}

void SessionJournal::after_delta() {
  if (options_.checkpoint_interval == 0) return;
  if (++deltas_ >= options_.checkpoint_interval && !journal_.crashed())
    checkpoint();
}

std::unique_ptr<SessionJournal> open_session_journal(
    const std::string& path, std::uint64_t session_id, std::size_t num_tgs,
    protocol::NpParams& params, SessionJournal::Options options) {
  SenderSessionState fresh;
  fresh.session_id = session_id;
  fresh.k = static_cast<std::uint32_t>(params.k);
  fresh.h = static_cast<std::uint32_t>(params.h);
  fresh.packet_len = static_cast<std::uint32_t>(params.packet_len);
  fresh.num_tgs = static_cast<std::uint32_t>(num_tgs);
  auto journal = std::make_unique<SessionJournal>(path, fresh, options);
  const SenderSessionState& st = journal->state();
  params.incarnation = st.incarnation;
  params.resume_completed = st.completed;
  params.resume_parities = st.parities_sent;
  // Write-ahead order: the journal holds each event before anyone else
  // hears of it.
  SessionJournal* sj = journal.get();
  params.on_tg_completed = [sj, next = std::move(params.on_tg_completed)](
                               std::size_t tg) {
    sj->record_tg_completed(tg);
    if (next) next(tg);
  };
  params.on_parities_sent = [sj, next = std::move(params.on_parities_sent)](
                                std::size_t tg, std::size_t hw) {
    sj->record_parities_sent(tg, hw);
    if (next) next(tg, hw);
  };
  return journal;
}

ResumableReport run_resumable_session(const loss::LossModel& loss,
                                      std::size_t receivers,
                                      std::vector<TgData> data,
                                      const ResumableConfig& config,
                                      std::uint64_t seed) {
  if (config.journal_path.empty())
    throw std::invalid_argument("run_resumable_session: journal_path required");
  if (data.empty())
    throw std::invalid_argument("run_resumable_session: no data");

  ResumableReport report;
  std::vector<std::vector<bool>> priors;  // receiver decoded bitmaps
  std::uint32_t receiver_incarnation = 0;

  for (std::size_t life = 0; life < config.max_incarnations; ++life) {
    protocol::NpConfig np = config.np;
    const auto sj =
        open_session_journal(config.journal_path, seed, data.size(), np,
                             config.journal);
    report.incarnations = life + 1;
    np.resume.receiver_incarnation = receiver_incarnation;
    np.resume.receiver_decoded = priors;
    np.crash_after_tx = life < config.crash_plan.size()
                            ? config.crash_plan[life]
                            : protocol::kNoSenderCrash;

    protocol::NpSession session(loss, receivers, data, np, seed);
    protocol::NpStats stats = session.run();

    report.total_data_sent += stats.data_sent;
    report.total_parity_sent += stats.parity_sent;
    report.total_proactive_sent += stats.proactive_sent;
    report.total_polls_sent += stats.sender.polls_sent;
    report.stale_rejected += stats.receivers.stale_rejected;
    report.total_sim_time += stats.completion_time;

    // Real receivers outlive the sender; in the DES each life is a new
    // session object, so their decoded bitmaps thread through explicitly.
    priors = stats.report.delivered;
    receiver_incarnation = sj->state().incarnation;
    report.state = sj->state();

    const bool crashed = stats.sender_crashed;
    report.last = std::move(stats);
    if (!crashed) {
      report.complete = report.last.all_delivered &&
                        report.last.sender.tgs_exhausted == 0 &&
                        report.last.sender.tgs_unconfirmed == 0 &&
                        !report.last.report.deadline_expired;
      break;
    }
  }

  const std::uint64_t baseline =
      static_cast<std::uint64_t>(config.np.k) *
      static_cast<std::uint64_t>(data.size());
  report.redundant_data =
      report.total_data_sent > baseline ? report.total_data_sent - baseline
                                        : 0;
  return report;
}

std::optional<SenderSessionState> peek_session_journal(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  const util::JournalScanResult scan = util::scan_journal(bytes);
  if (scan.records.empty()) return std::nullopt;
  try {
    return recover_sender_state(scan.records);
  } catch (const std::exception&) {
    return std::nullopt;  // no snapshot / malformed: nothing to resume
  }
}

std::vector<std::string> list_session_journals(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".journal") continue;
    out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void save_receiver_state_file(const std::string& path,
                              const ReceiverSessionState& state) {
  const std::vector<std::uint8_t> bytes = state.serialize();
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const char* what) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string("save_receiver_state_file: ") + what +
                             " " + tmp + ": " + reason);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open");
  // Write, fsync, rename, fsync the directory: the same order as
  // util::Journal::compact, so a power cut leaves the old file or the
  // new one, never an empty or torn one.
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      fail("cannot write");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail("cannot fsync");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot rename");
  util::sync_parent_dir(path);
}

std::optional<ReceiverSessionState> load_receiver_state_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  try {
    return ReceiverSessionState::deserialize(bytes);
  } catch (const std::exception&) {
    return std::nullopt;  // damaged state file: fresh receiver
  }
}

}  // namespace pbl::core
