#include "net/udp/udp_transport.hpp"

#include "net/udp/frame_stream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace pbl::net {

namespace {

// Frames per sendmmsg/recvmmsg syscall.  Large enough to amortise the
// kernel crossing, small enough that the mmsghdr scaffolding stays on
// the stack (tx) or in a modest thread-local scratch (rx).
constexpr std::size_t kTxChunk = 128;
constexpr std::size_t kRxChunk = 16;
constexpr std::size_t kMaxDatagram = 65536;

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

bool is_would_block(int err) noexcept {
  // ENOBUFS/ENOMEM: the kernel could not take the datagram right now —
  // for a lossy datagram protocol that is transient resource pressure,
  // not a broken socket; the caller defers or treats the frame as loss.
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == ENOMEM;
}

// Backend selection state.  -1 = no scoped override.  The environment
// default is resolved once (first use) so a mid-run setenv cannot split
// a session across backends.
std::atomic<int> g_backend_override{-1};

UdpBackend env_default_backend() {
  static const UdpBackend resolved = [] {
    if (const char* env = std::getenv("PBL_UDP_BACKEND")) {
      if (std::string(env) == "fallback") return UdpBackend::kFallback;
      if (std::string(env) == "batched" && udp_batched_available())
        return UdpBackend::kBatched;
    }
    return udp_batched_available() ? UdpBackend::kBatched
                                   : UdpBackend::kFallback;
  }();
  return resolved;
}

}  // namespace

std::string to_string(UdpBackend backend) {
  switch (backend) {
    case UdpBackend::kBatched: return "batched";
    case UdpBackend::kFallback: return "fallback";
  }
  return "unknown";
}

bool udp_batched_available() noexcept {
#ifdef PBL_HAVE_MMSG
  return true;
#else
  return false;
#endif
}

UdpBackend active_udp_backend() noexcept {
  const int override = g_backend_override.load(std::memory_order_acquire);
  if (override >= 0) {
    const auto requested = static_cast<UdpBackend>(override);
    if (requested == UdpBackend::kBatched && !udp_batched_available())
      return UdpBackend::kFallback;
    return requested;
  }
  return env_default_backend();
}

ScopedUdpBackendOverride::ScopedUdpBackendOverride(UdpBackend backend)
    : previous_(g_backend_override.exchange(static_cast<int>(backend),
                                            std::memory_order_acq_rel)) {}

ScopedUdpBackendOverride::~ScopedUdpBackendOverride() {
  g_backend_override.store(previous_, std::memory_order_release);
}

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "socket");
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(), "bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(), "getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_),
      impairment_(std::move(other.impairment_)),
      parsed_(std::move(other.parsed_)),
      frame_resyncs_(other.frame_resyncs_),
      frames_skipped_(other.frames_skipped_), tx_tap_(std::move(other.tx_tap_)),
      inject_errno_(other.inject_errno_), inject_count_(other.inject_count_),
      inject_every_errno_(other.inject_every_errno_),
      inject_every_(other.inject_every_), inject_burst_(other.inject_burst_),
      inject_burst_left_(other.inject_burst_left_),
      attempted_sends_(other.attempted_sends_),
      injected_failures_(other.injected_failures_) {
  other.fd_ = -1;
  other.port_ = 0;
  other.inject_count_ = 0;
  other.inject_every_ = 0;
  other.inject_burst_left_ = 0;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    impairment_ = std::move(other.impairment_);
    parsed_ = std::move(other.parsed_);
    frame_resyncs_ = other.frame_resyncs_;
    frames_skipped_ = other.frames_skipped_;
    tx_tap_ = std::move(other.tx_tap_);
    inject_errno_ = other.inject_errno_;
    inject_count_ = other.inject_count_;
    inject_every_errno_ = other.inject_every_errno_;
    inject_every_ = other.inject_every_;
    inject_burst_ = other.inject_burst_;
    inject_burst_left_ = other.inject_burst_left_;
    attempted_sends_ = other.attempted_sends_;
    injected_failures_ = other.injected_failures_;
    other.fd_ = -1;
    other.port_ = 0;
    other.inject_count_ = 0;
    other.inject_every_ = 0;
    other.inject_burst_left_ = 0;
  }
  return *this;
}

int UdpSocket::consume_injected_send() {
  if (inject_count_ > 0) {
    --inject_count_;
    ++injected_failures_;
    return inject_errno_;
  }
  if (inject_every_ > 0) {
    ++attempted_sends_;
    if (inject_burst_left_ == 0 && attempted_sends_ % inject_every_ == 0)
      inject_burst_left_ = inject_burst_;
    if (inject_burst_left_ > 0) {
      --inject_burst_left_;
      ++injected_failures_;
      return inject_every_errno_;
    }
  }
  return 0;
}

void UdpSocket::set_impairment(std::shared_ptr<Impairment> impairment) {
  impairment_ = std::move(impairment);
  parsed_.clear();
}

SendStatus UdpSocket::send_raw(std::uint16_t dest_port,
                               std::span<const std::uint8_t> bytes) {
  const sockaddr_in dest = loopback(dest_port);
  for (;;) {
    if (const int inj = consume_injected_send()) {
      if (is_would_block(inj)) return SendStatus::kWouldBlock;
      throw std::system_error(inj, std::generic_category(),
                              "sendto (injected)");
    }
    const ssize_t sent =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
    if (sent >= 0) {
      if (tx_tap_) tx_tap_(dest_port, bytes);
      return SendStatus::kSent;
    }
    if (errno == EINTR) continue;
    // Transient pushback is backpressure, not failure: callers either
    // retry (send_batch_blocking) or treat the frame as lost, which the
    // FEC/NAK machinery repairs like any other loss.
    if (is_would_block(errno)) return SendStatus::kWouldBlock;
    throw std::system_error(errno, std::generic_category(), "sendto");
  }
}

SendStatus UdpSocket::send_to(std::uint16_t dest_port,
                              const fec::Packet& packet) {
  const auto bytes = fec::serialize(packet);
  return send_raw(dest_port, bytes);
}

SendStatus UdpSocket::send_frame(std::uint16_t dest_port,
                                 std::span<const std::uint8_t> frame) {
  return send_raw(dest_port, frame);
}

BatchSendResult UdpSocket::send_batch(std::span<const FrameRef> frames) {
  BatchSendResult result;
#ifdef PBL_HAVE_MMSG
  if (active_udp_backend() == UdpBackend::kBatched) {
    while (result.sent < frames.size()) {
      const std::size_t chunk =
          std::min(kTxChunk, frames.size() - result.sent);
      sockaddr_in dests[kTxChunk];
      iovec iovs[kTxChunk];
      mmsghdr msgs[kTxChunk];
      std::memset(msgs, 0, chunk * sizeof(mmsghdr));
      for (std::size_t i = 0; i < chunk; ++i) {
        const FrameRef& f = frames[result.sent + i];
        dests[i] = loopback(f.dest_port);
        iovs[i].iov_base = const_cast<std::uint8_t*>(f.bytes.data());
        iovs[i].iov_len = f.bytes.size();
        msgs[i].msg_hdr.msg_name = &dests[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(dests[i]);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      int n;
      for (;;) {
        if (const int inj = consume_injected_send()) {
          errno = inj;
          n = -1;
        } else {
          n = ::sendmmsg(fd_, msgs, static_cast<unsigned>(chunk), 0);
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      if (n < 0) {
        result.last_errno = errno;
        if (is_would_block(errno)) {
          result.status = SendStatus::kWouldBlock;
          return result;
        }
        throw std::system_error(errno, std::generic_category(), "sendmmsg");
      }
      if (tx_tap_) {
        for (int i = 0; i < n; ++i) {
          const FrameRef& f = frames[result.sent + static_cast<std::size_t>(i)];
          tx_tap_(f.dest_port, f.bytes);
        }
      }
      result.sent += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < chunk) {
        // Kernel took a prefix of the chunk: partial send.  Report
        // would-block so the caller resumes from frames[sent].
        result.status = SendStatus::kWouldBlock;
        result.last_errno = EAGAIN;
        return result;
      }
    }
    return result;
  }
#endif
  // Portable fallback: same frames, same order, one syscall each.
  for (const FrameRef& f : frames) {
    if (send_raw(f.dest_port, f.bytes) == SendStatus::kWouldBlock) {
      result.status = SendStatus::kWouldBlock;
      result.last_errno = EAGAIN;
      return result;
    }
    ++result.sent;
  }
  return result;
}

void UdpSocket::send_batch_blocking(std::span<const FrameRef> frames) {
  std::size_t done = 0;
  while (done < frames.size()) {
    const BatchSendResult r = send_batch(frames.subspan(done));
    done += r.sent;
    if (done >= frames.size()) break;
    // Backpressure: wait for the socket to drain, then resume from the
    // first unsent frame.  Loopback drains fast; the poll keeps a
    // pathological stall from spinning.
    pollfd pfd{fd_, POLLOUT, 0};
    ::poll(&pfd, 1, 100);
  }
}

std::size_t UdpSocket::drain_ready() {
#ifdef PBL_HAVE_MMSG
  if (active_udp_backend() == UdpBackend::kBatched) {
    // Scratch shared by every socket on this thread: kRxChunk max-size
    // datagram buffers plus the mmsg scaffolding (~1 MiB/thread), wired
    // once.  recvmmsg writes only msg_len, msg_flags and msg_namelen
    // back, so a call resets just msg_namelen.
    struct RxScratch {
      std::vector<std::uint8_t> bufs =
          std::vector<std::uint8_t>(kRxChunk * kMaxDatagram);
      sockaddr_in srcs[kRxChunk]{};
      iovec iovs[kRxChunk]{};
      mmsghdr msgs[kRxChunk]{};
      RxScratch() {
        for (std::size_t i = 0; i < kRxChunk; ++i) {
          iovs[i].iov_base = bufs.data() + i * kMaxDatagram;
          iovs[i].iov_len = kMaxDatagram;
          msgs[i].msg_hdr.msg_iov = &iovs[i];
          msgs[i].msg_hdr.msg_iovlen = 1;
          msgs[i].msg_hdr.msg_name = &srcs[i];
        }
      }
    };
    thread_local RxScratch scratch;
    for (mmsghdr& m : scratch.msgs)
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    int n;
    do {
      n = ::recvmmsg(fd_, scratch.msgs, kRxChunk, MSG_DONTWAIT, nullptr);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return 0;
    // Parsed in kernel receive order — exactly the order the fallback's
    // one-at-a-time loop sees — before the next recvmmsg reuses the
    // buffers.
    for (int i = 0; i < n; ++i)
      accept_datagram(
          ntohs(scratch.srcs[i].sin_port),
          {static_cast<const std::uint8_t*>(scratch.iovs[i].iov_base),
           scratch.msgs[i].msg_len});
    return static_cast<std::size_t>(n);
  }
#endif
  std::uint8_t buf[kMaxDatagram];
  sockaddr_in src_addr{};
  socklen_t src_len = sizeof(src_addr);
  ssize_t got;
  do {
    got = ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&src_addr), &src_len);
  } while (got < 0 && errno == EINTR);
  if (got < 0) return 0;
  accept_datagram(ntohs(src_addr.sin_port),
                  {buf, static_cast<std::size_t>(got)});
  return 1;
}

void UdpSocket::accept_datagram(std::uint16_t src_port,
                                std::span<const std::uint8_t> bytes) {
  // Impairment acts per datagram, before parsing; duplicates inherit the
  // original datagram's source, and a held-back datagram keeps its own.
  if (!impairment_) return parse_datagram(src_port, bytes);
  for (const auto& d : impairment_->apply_bytes(bytes, src_port))
    parse_datagram(d.src_port, d.bytes);
}

void UdpSocket::parse_datagram(std::uint16_t src_port,
                               std::span<const std::uint8_t> bytes) {
  try {
    parsed_.push_back({src_port, fec::to_packet(fec::deserialize_view(bytes))});
  } catch (const std::invalid_argument&) {
    // Corrupted/truncated in flight — or hostile garbage.  Scan for
    // embedded sealed frames (bounded; see kSalvageLimit) and surface
    // the desync evidence through the frame_resyncs/frames_skipped
    // counters either way.
    if (bytes.size() <= kSalvageLimit) {
      FrameStreamDecoder dec;
      dec.feed(bytes);
      frame_resyncs_ += dec.resyncs();
      frames_skipped_ += dec.skipped_invalid();
      auto salvaged = dec.take();
      if (salvaged.empty()) ++frames_skipped_;
      for (auto& p : salvaged) parsed_.push_back({src_port, std::move(p)});
    } else {
      ++frames_skipped_;
    }
  }
}

std::optional<Datagram> UdpSocket::pop_parsed() {
  if (parsed_.empty()) return std::nullopt;
  Datagram d = std::move(parsed_.front());
  parsed_.pop_front();
  return d;
}

std::optional<Datagram> UdpSocket::receive_from(double timeout_s) {
  if (timeout_s == 0.0) {
    // Event-driven callers read only after readiness was reported, so
    // no clock and no poll(2): read until a packet parses or EAGAIN.
    while (parsed_.empty())
      if (drain_ready() == 0) return std::nullopt;
    return pop_parsed();
  }
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (!parsed_.empty()) return pop_parsed();
    int ms = -1;
    if (timeout_s > 0) {
      const double remaining =
          timeout_s - std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      if (remaining <= 0.0) return std::nullopt;
      ms = static_cast<int>(remaining * 1000.0);
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, ms) <= 0) return std::nullopt;
    if (drain_ready() == 0) return std::nullopt;
  }
}

std::size_t UdpSocket::receive_batch(std::vector<fec::Packet>& out,
                                     std::size_t max_packets,
                                     double timeout_s) {
  std::size_t produced = 0;
  const auto take_pending = [&] {
    for (; produced < max_packets && !parsed_.empty(); ++produced) {
      out.push_back(std::move(parsed_.front().packet));
      parsed_.pop_front();
    }
  };
  take_pending();
  if (produced >= max_packets) return produced;
  const int ms =
      timeout_s < 0 ? -1 : static_cast<int>(timeout_s * 1000.0);
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, ms) <= 0) return produced;
  drain_ready();
  take_pending();
  return produced;
}

}  // namespace pbl::net
