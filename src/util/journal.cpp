#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"

namespace pbl::util {

namespace {

// "PBLJ" + format version 1, zero-padded to 8 bytes.
constexpr std::uint8_t kMagic[kJournalMagicSize] = {'P', 'B', 'L', 'J',
                                                    '1', 0,   0,   0};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error("journal: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> read_file(int fd, const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  return bytes;
}

}  // namespace

void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  (void)::fsync(dfd);
  ::close(dfd);
}

std::vector<std::uint8_t> encode_journal_record(
    std::uint32_t type, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kJournalFrameOverhead + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, type);
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_u32(frame, crc32(frame));
  return frame;
}

JournalScanResult scan_journal(std::span<const std::uint8_t> bytes) {
  JournalScanResult result;
  if (bytes.size() < kJournalMagicSize ||
      std::memcmp(bytes.data(), kMagic, kJournalMagicSize) != 0) {
    result.truncated = !bytes.empty();
    return result;  // not (yet) a journal: nothing recoverable
  }
  std::size_t off = kJournalMagicSize;
  result.valid_bytes = off;
  while (bytes.size() - off >= kJournalFrameOverhead) {
    const std::uint32_t len = get_u32(bytes, off);
    // An implausible length is indistinguishable from garbage: stop, do
    // not trust it to address memory.
    if (len > bytes.size() || bytes.size() - off - kJournalFrameOverhead < len)
      break;
    const std::size_t body = off + 8 + len;
    if (crc32(bytes.subspan(off, 8 + len)) != get_u32(bytes, body)) break;
    JournalRecord rec;
    rec.type = get_u32(bytes, off + 4);
    rec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off + 8),
                       bytes.begin() + static_cast<std::ptrdiff_t>(body));
    result.records.push_back(std::move(rec));
    off = body + 4;
    result.valid_bytes = off;
  }
  result.truncated = result.valid_bytes != bytes.size();
  return result;
}

Journal Journal::open(const std::string& path, JournalConfig config) {
  Journal j;
  j.path_ = path;
  j.cfg_ = config;
  j.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (j.fd_ < 0) throw_errno("open", path);

  auto bytes = read_file(j.fd_, path);
  if (bytes.size() >= kJournalMagicSize &&
      std::memcmp(bytes.data(), kMagic, kJournalMagicSize) != 0)
    throw std::runtime_error("journal: '" + path +
                             "' exists but is not a journal (bad magic); "
                             "refusing to clobber it");

  if (bytes.size() < kJournalMagicSize) {
    // New file, or a crash tore even the header: start from scratch.
    if (::ftruncate(j.fd_, 0) != 0) throw_errno("ftruncate", path);
    if (::lseek(j.fd_, 0, SEEK_SET) < 0) throw_errno("lseek", path);
    write_all(j.fd_, kMagic, kJournalMagicSize, path);
    j.recovered_torn_ = !bytes.empty();
    j.size_ = kJournalMagicSize;
    return j;
  }

  auto scan = scan_journal(bytes);
  for (auto& rec : scan.records) {
    if (rec.payload.size() > config.max_record_bytes)
      throw std::runtime_error("journal: '" + path +
                               "' holds a record larger than "
                               "max_record_bytes");
  }
  if (scan.truncated) {
    if (::ftruncate(j.fd_, static_cast<off_t>(scan.valid_bytes)) != 0)
      throw_errno("ftruncate", path);
  }
  if (::lseek(j.fd_, static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0)
    throw_errno("lseek", path);
  j.recovered_ = std::move(scan.records);
  j.recovered_torn_ = scan.truncated;
  j.size_ = scan.valid_bytes;
  return j;
}

Journal::Journal(Journal&& other) noexcept { *this = std::move(other); }

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    cfg_ = other.cfg_;
    recovered_ = std::move(other.recovered_);
    recovered_torn_ = other.recovered_torn_;
    size_ = other.size_;
    appended_ = other.appended_;
    unsynced_ = other.unsynced_;
    crashed_ = other.crashed_;
    crash_at_append_ = other.crash_at_append_;
    crash_keep_bytes_ = other.crash_keep_bytes_;
    fail_every_ = other.fail_every_;
    fail_partial_bytes_ = other.fail_partial_bytes_;
    attempted_appends_ = other.attempted_appends_;
    write_failures_ = other.write_failures_;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

bool Journal::append(std::uint32_t type,
                     std::span<const std::uint8_t> payload) {
  if (crashed_) return false;
  if (payload.size() > cfg_.max_record_bytes)
    throw std::invalid_argument("journal: record exceeds max_record_bytes");
  const auto frame = encode_journal_record(type, payload);
  if (appended_ == crash_at_append_) {
    // Fault injection: die mid-write, leaving a torn frame on disk.
    const std::size_t keep = std::min(crash_keep_bytes_, frame.size());
    write_all(fd_, frame.data(), keep, path_);
    (void)::fsync(fd_);
    crashed_ = true;
    return false;
  }
  if (fail_every_ > 0 && ++attempted_appends_ % fail_every_ == 0) {
    // Injected ENOSPC-style failure: optionally land a short write, then
    // truncate it back off so the log remains the same clean prefix a
    // real short write would recover to.  The record is lost; the
    // journal lives on.
    const std::size_t partial = std::min(fail_partial_bytes_, frame.size());
    if (partial > 0) {
      write_all(fd_, frame.data(), partial, path_);
      if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0)
        throw_errno("ftruncate", path_);
      if (::lseek(fd_, static_cast<off_t>(size_), SEEK_SET) < 0)
        throw_errno("lseek", path_);
    }
    ++write_failures_;
    return false;
  }
  write_all(fd_, frame.data(), frame.size(), path_);
  size_ += frame.size();
  ++appended_;
  if (cfg_.sync_every > 0 && ++unsynced_ >= cfg_.sync_every) sync();
  return true;
}

void Journal::compact(const std::vector<JournalRecord>& records) {
  if (crashed_) return;
  const std::string tmp = path_ + ".tmp";
  const int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) throw_errno("open", tmp);
  try {
    write_all(tfd, kMagic, kJournalMagicSize, tmp);
    std::size_t total = kJournalMagicSize;
    for (const auto& rec : records) {
      const auto frame = encode_journal_record(rec.type, rec.payload);
      write_all(tfd, frame.data(), frame.size(), tmp);
      total += frame.size();
    }
    if (::fsync(tfd) != 0) throw_errno("fsync", tmp);
    if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("rename", tmp);
    sync_parent_dir(path_);
    // The journal now IS the compacted file; swap fds.
    ::close(fd_);
    fd_ = tfd;
    size_ = total;
    unsynced_ = 0;
  } catch (...) {
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw;
  }
}

void Journal::sync() {
  if (fd_ >= 0) (void)::fsync(fd_);
  unsynced_ = 0;
}

void Journal::crash_on_append(std::uint64_t nth, std::size_t keep_bytes) {
  crash_at_append_ = appended_ + nth;
  crash_keep_bytes_ = keep_bytes;
}

void Journal::inject_write_failure(std::uint64_t every,
                                   std::size_t partial_bytes) {
  fail_every_ = every;
  fail_partial_bytes_ = partial_bytes;
}

}  // namespace pbl::util
