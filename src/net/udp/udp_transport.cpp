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
#include <cmath>
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

sockaddr_in ipv4(std::uint32_t addr, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(addr);
  return sa;
}

sockaddr_in destination(const FrameRef& frame) {
  return ipv4(frame.group != 0 ? frame.group : INADDR_LOOPBACK,
              frame.dest_port);
}

int open_udp() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  return fd;
}

void set_option(int fd, int level, int name, const void* value,
                socklen_t len, const char* what) {
  if (::setsockopt(fd, level, name, value, len) < 0)
    throw std::system_error(errno, std::generic_category(), what);
}

void set_int_option(int fd, int level, int name, int value,
                    const char* what) {
  set_option(fd, level, name, &value, sizeof(value), what);
}

bool is_would_block(int err) noexcept {
  // ENOBUFS/ENOMEM: the kernel could not take the datagram right now —
  // for a lossy datagram protocol that is transient resource pressure,
  // not a broken socket; the caller defers or treats the frame as loss.
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == ENOMEM;
}

// Delivery selection state.  -1 = no scoped override.
std::atomic<int> g_delivery_override{-1};

// Group addresses come from 239.255.0.0/16 (IPv4 local scope).  A group
// is isolated by its (address, port) pair, and the kernel hands out the
// port; the address only spreads groups apart, so a per-process counter
// seeded by the pid is enough.
std::uint32_t next_group_address() {
  static std::atomic<std::uint32_t> next{
      static_cast<std::uint32_t>(::getpid()) * 7919u};
  const std::uint32_t n = next.fetch_add(1, std::memory_order_relaxed);
  return 0xEFFF0000u | (1u + n % 0xFFFEu);
}

bool probe_group_delivery() {
  try {
    UdpGroup group = UdpGroup::open(UdpDelivery::kGroup);
    UdpGroup other = UdpGroup::open(UdpDelivery::kGroup);
    UdpSocket sender, a, b, c;
    std::optional<UdpSocket> members[] = {group.join(a.port()),
                                          group.join(b.port())};
    std::optional<UdpSocket> outsider = other.join(c.port());
    fec::Packet probe;
    probe.header.type = fec::PacketType::kPoll;
    const auto bytes = fec::serialize(probe);
    const FrameRef frame = group.to_all(bytes);
    if (sender.send_batch({&frame, 1}).sent != 1) return false;
    for (auto& m : members)
      if (!m->receive_from(0.1)) return false;
    // Anything more fails: a second copy at a member, or any copy at the
    // other group's member.  The short wait lets a straggler land.
    if (outsider->receive_from(0.002)) return false;
    for (auto& m : members)
      if (m->receive_from(0.0)) return false;
    return true;
  } catch (const std::system_error&) {
    return false;  // no multicast on lo: setsockopt, bind or send refused
  }
}

}  // namespace

std::string to_string(UdpDelivery delivery) {
  switch (delivery) {
    case UdpDelivery::kGroup: return "group";
    case UdpDelivery::kFanOut: return "fanout";
  }
  return "unknown";
}

bool udp_group_delivery_available() {
  static const bool available = probe_group_delivery();
  return available;
}

UdpDelivery active_udp_delivery() {
  if (g_delivery_override.load(std::memory_order_acquire) ==
      static_cast<int>(UdpDelivery::kFanOut))
    return UdpDelivery::kFanOut;
  return udp_group_delivery_available() ? UdpDelivery::kGroup
                                        : UdpDelivery::kFanOut;
}

ScopedUdpDeliveryOverride::ScopedUdpDeliveryOverride(UdpDelivery delivery)
    : previous_(g_delivery_override.exchange(static_cast<int>(delivery),
                                             std::memory_order_acq_rel)) {}

ScopedUdpDeliveryOverride::~ScopedUdpDeliveryOverride() {
  g_delivery_override.store(previous_, std::memory_order_release);
}

UdpGroup UdpGroup::open(UdpDelivery delivery) {
  UdpGroup group;
  if (delivery == UdpDelivery::kGroup) group.address_ = next_group_address();
  return group;
}

std::optional<UdpSocket> UdpGroup::join(std::uint16_t member_port) {
  std::optional<UdpSocket> socket;
  if (multicast()) {
    socket.emplace(UdpSocket::group_member(address_, port_));
    port_ = socket->port();
  }
  members_.push_back(member_port);
  return socket;
}

UdpSocket::UdpSocket(std::uint16_t port) : UdpSocket(Adopt{}, open_udp()) {
  bind_to(INADDR_LOOPBACK, port);
}

UdpSocket::UdpSocket(Adopt, int fd) : fd_(fd) {}

void UdpSocket::Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void UdpSocket::bind_to(std::uint32_t addr, std::uint16_t port) {
  const sockaddr_in sa = ipv4(addr, port);
  if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0)
    throw std::system_error(errno, std::generic_category(), "bind");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    throw std::system_error(errno, std::generic_category(), "getsockname");
  port_ = ntohs(bound.sin_port);
}

UdpSocket UdpSocket::group_member(std::uint32_t group, std::uint16_t port) {
  UdpSocket s(Adopt{}, open_udp());
  // Later members share the first one's port.  The first binds without
  // SO_REUSEADDR, so the kernel picks a port no live group holds, and
  // only then opens it to the members that follow.
  if (port != 0)
    set_int_option(s.fd_.get(), SOL_SOCKET, SO_REUSEADDR, 1, "SO_REUSEADDR");
  s.bind_to(group, port);
  set_int_option(s.fd_.get(), SOL_SOCKET, SO_REUSEADDR, 1, "SO_REUSEADDR");
  ip_mreqn join{};
  join.imr_multiaddr.s_addr = htonl(group);
  join.imr_address.s_addr = htonl(INADDR_LOOPBACK);
  set_option(s.fd_.get(), IPPROTO_IP, IP_ADD_MEMBERSHIP, &join, sizeof(join),
             "IP_ADD_MEMBERSHIP");
#ifdef IP_MULTICAST_ALL
  // Only the joined group's traffic, never another membership's.
  set_int_option(s.fd_.get(), IPPROTO_IP, IP_MULTICAST_ALL, 0,
                 "IP_MULTICAST_ALL");
#endif
  return s;
}

void UdpSocket::enable_group_send() {
  in_addr out{};
  out.s_addr = htonl(INADDR_LOOPBACK);
  set_option(fd_.get(), IPPROTO_IP, IP_MULTICAST_IF, &out, sizeof(out),
             "IP_MULTICAST_IF");
  set_int_option(fd_.get(), IPPROTO_IP, IP_MULTICAST_LOOP, 1,
                 "IP_MULTICAST_LOOP");
  group_send_ = true;
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

SendStatus UdpSocket::send_to(std::uint16_t dest_port,
                              const fec::Packet& packet) {
  const auto bytes = fec::serialize(packet);
  return send_frame(dest_port, bytes);
}

SendStatus UdpSocket::send_frame(std::uint16_t dest_port,
                                 std::span<const std::uint8_t> frame) {
  const FrameRef ref{dest_port, frame};
  return send_batch({&ref, 1}).status;
}

BatchSendResult UdpSocket::send_batch(std::span<const FrameRef> frames) {
  BatchSendResult result;
  while (result.sent < frames.size()) {
    const std::size_t chunk = std::min(kTxChunk, frames.size() - result.sent);
    sockaddr_in dests[kTxChunk];
    iovec iovs[kTxChunk];
    mmsghdr msgs[kTxChunk];
    std::memset(msgs, 0, chunk * sizeof(mmsghdr));
    for (std::size_t i = 0; i < chunk; ++i) {
      const FrameRef& f = frames[result.sent + i];
      if (f.group != 0 && !group_send_) enable_group_send();
      dests[i] = destination(f);
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
        n = ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(chunk), 0);
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    if (n < 0) {
      result.last_errno = errno;
      // Transient pushback is backpressure, not failure: callers either
      // retry (send_batch_blocking) or treat the frames as lost, which
      // the FEC/NAK machinery repairs like any other loss.
      if (is_would_block(errno)) {
        result.status = SendStatus::kWouldBlock;
        return result;
      }
      throw std::system_error(errno, std::generic_category(), "sendmmsg");
    }
    if (tx_tap_) {
      for (int i = 0; i < n; ++i)
        tx_tap_(frames[result.sent + static_cast<std::size_t>(i)]);
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

void UdpSocket::send_batch_blocking(std::span<const FrameRef> frames) {
  std::size_t done = 0;
  while (done < frames.size()) {
    const BatchSendResult r = send_batch(frames.subspan(done));
    done += r.sent;
    if (done >= frames.size()) break;
    // Backpressure: wait for the socket to drain, then resume from the
    // first unsent frame.  Loopback drains fast; the poll keeps a
    // pathological stall from spinning.
    pollfd pfd{fd_.get(), POLLOUT, 0};
    ::poll(&pfd, 1, 100);
  }
}

std::size_t UdpSocket::drain_ready() {
  // Scratch shared by every socket on this thread: kRxChunk max-size
  // datagram buffers plus the mmsg scaffolding (~1 MiB/thread), wired
  // once.  recvmmsg writes only msg_len, msg_flags and msg_namelen back,
  // so a call resets just msg_namelen.
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
  for (mmsghdr& m : scratch.msgs) m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
  int n;
  do {
    n = ::recvmmsg(fd_.get(), scratch.msgs, kRxChunk, MSG_DONTWAIT, nullptr);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return 0;
  // Parsed in kernel receive order, before the next recvmmsg reuses the
  // buffers.
  for (int i = 0; i < n; ++i)
    accept_datagram(ntohs(scratch.srcs[i].sin_port),
                    {static_cast<const std::uint8_t*>(scratch.iovs[i].iov_base),
                     scratch.msgs[i].msg_len});
  return static_cast<std::size_t>(n);
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
      // Ceil, as Reactor::wait_ready does: a sub-millisecond remainder
      // must wait, not busy-spin as timeout 0.
      ms = static_cast<int>(std::ceil(remaining * 1000.0));
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
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
      timeout_s < 0 ? -1 : static_cast<int>(std::ceil(timeout_s * 1000.0));
  pollfd pfd{fd_.get(), POLLIN, 0};
  if (::poll(&pfd, 1, ms) <= 0) return produced;
  drain_ready();
  take_pending();
  return produced;
}

}  // namespace pbl::net
