// Minimal loopback UDP transport for running the protocols over real
// sockets (server/: the session drivers and the multicast server).
//
// Multicast is real IP multicast on lo where the host delivers it: a
// UdpGroup owns a per-session (group address, port) pair, each member
// drains a receive-only socket joined to it, and the sender puts each
// frame on the wire once.  A one-time probe decides whether the host
// can (udp_group_delivery_available); where it cannot, a UdpGroup is
// just the member ports and the sender fans out one unicast copy per
// member on 127.0.0.1.  Both paths put the same bytes in front of every
// member (tests/test_udp_differential.cpp), and ScopedUdpDeliveryOverride
// pins one for a test's scope.  Feedback and catch-up repair are
// unicast on either path (docs/DATAPLANE.md, "Group delivery").
//
// Data plane: one path.  Sends go out through sendmmsg, receives come
// in through recvmmsg, a whole batch of frames per kernel crossing; a
// single frame is a batch of one.  tests/test_udp_differential.cpp pins
// the wire bytes each session puts in front of every member.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fec/packet.hpp"
#include "net/impairment.hpp"

namespace pbl::net {

/// How a sender reaches a session's members.
enum class UdpDelivery {
  kGroup,   ///< one send per frame to a per-session IP multicast group
  kFanOut,  ///< one unicast copy per member: the fallback and reference
};

std::string to_string(UdpDelivery delivery);

/// True when this host delivers IP multicast over loopback.  Probed once
/// per process, on first call: two sockets join a scratch group, one
/// frame is sent to it, and each member must receive exactly one copy
/// while a member of a second scratch group receives none.
bool udp_group_delivery_available();

/// The delivery new groups use (UdpGroup::open).  Resolution order:
/// active ScopedUdpDeliveryOverride, then kGroup when the probe passed,
/// else kFanOut.  A kGroup request on a host whose probe failed degrades
/// to kFanOut.
UdpDelivery active_udp_delivery();

/// Pins the delivery for a scope (the differential tests run each
/// session once per path).  Nestable; restores the previous state on
/// destruction.
class ScopedUdpDeliveryOverride {
 public:
  explicit ScopedUdpDeliveryOverride(UdpDelivery delivery);
  ~ScopedUdpDeliveryOverride();
  ScopedUdpDeliveryOverride(const ScopedUdpDeliveryOverride&) = delete;
  ScopedUdpDeliveryOverride& operator=(const ScopedUdpDeliveryOverride&) =
      delete;

 private:
  int previous_;
};

/// Why a send stopped.  Transient kernel pushback (EAGAIN/EWOULDBLOCK/
/// ENOBUFS) is backpressure, not failure: the caller retries after the
/// socket drains.  Hard errors still throw std::system_error.
enum class SendStatus {
  kSent,
  kWouldBlock,
};

/// One frame of a batch: pre-serialized wire bytes and their destination,
/// 127.0.0.1:dest_port, or group:dest_port when `group` is set.  The
/// bytes are borrowed — arena frames or any stable buffer.
struct FrameRef {
  std::uint16_t dest_port = 0;
  std::span<const std::uint8_t> bytes;
  std::uint32_t group = 0;  ///< IPv4 multicast group, host order; 0 = unicast
};

/// Outcome of a (possibly partial) batch send.  `sent` frames — always a
/// prefix of the batch — reached the kernel; when status is kWouldBlock
/// the caller resumes from frames[sent] once the socket is writable.
struct BatchSendResult {
  std::size_t sent = 0;
  SendStatus status = SendStatus::kSent;
  int last_errno = 0;  ///< errno that stopped the batch, 0 if none
};

/// A parsed packet together with the kernel-reported source port of the
/// datagram that carried it.  On the loopback topology the source port
/// IS the peer identity, so this is what feedback admission (PeerGuard,
/// the feedback_addr_mismatch cross-check) keys on.
struct Datagram {
  std::uint16_t src_port = 0;
  fec::Packet packet;
};

class UdpSocket {
 public:
  /// Malformed datagrams up to this size are run through
  /// FrameStreamDecoder to salvage embedded valid frames.  The
  /// byte-by-byte resync scan is O(size * frame) in the worst case, so a
  /// hostile peer flooding max-size garbage must not buy that work:
  /// larger junk is just counted (frames_skipped) and dropped.
  static constexpr std::size_t kSalvageLimit = 4096;

  /// Observes every frame the socket actually hands to the kernel, in
  /// send order (destination + wire bytes); a group frame is seen once.
  /// The differential tests record the tap of each delivery path and
  /// require the per-member streams byte-identical.
  using TxTap = std::function<void(const FrameRef&)>;

  /// Binds a UDP socket to 127.0.0.1:port (0 picks an ephemeral port).
  /// Throws std::system_error on failure.
  explicit UdpSocket(std::uint16_t port = 0);

  UdpSocket(UdpSocket&&) noexcept = default;
  UdpSocket& operator=(UdpSocket&&) noexcept = default;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// The raw descriptor, for event-loop registration (server/reactor).
  /// The socket still owns it; callers must not close it.
  int fd() const noexcept { return fd_.get(); }

  /// Sends a packet to 127.0.0.1:dest_port.  Returns kWouldBlock on
  /// transient kernel pushback (EAGAIN/EWOULDBLOCK/ENOBUFS) instead of
  /// throwing — for a lossy datagram protocol that is just loss, and the
  /// FEC/NAK machinery above already repairs it.  Hard errors throw.
  SendStatus send_to(std::uint16_t dest_port, const fec::Packet& packet);

  /// Sends pre-framed wire bytes (serialize()/write_*_frame output).
  SendStatus send_frame(std::uint16_t dest_port,
                        std::span<const std::uint8_t> frame);

  /// Hands a batch of frames to the kernel, one sendmmsg per chunk.
  /// Stops at the first would-block; `sent` frames (a prefix) are on the
  /// wire.  Hard errors throw.
  BatchSendResult send_batch(std::span<const FrameRef> frames);

  /// send_batch with partial-send resume: polls the socket writable and
  /// retries until every frame is sent — backpressure slows the caller
  /// instead of failing it.  (The reactor drivers use send_batch and
  /// defer on a timer instead; they must never park the loop thread.)
  void send_batch_blocking(std::span<const FrameRef> frames);

  /// Waits up to `timeout_s` for a datagram and returns it with its
  /// kernel-reported source port — the hostile-peer defenses key on where
  /// bytes actually came from, not on what the header claims.  Returns
  /// std::nullopt on timeout.  Malformed datagrams are dropped silently
  /// (the poll loop keeps waiting for the rest of the timeout), so
  /// nullopt always means "nothing arrived", even under impairment.
  ///
  /// receive_from(0.0) is the event-driven read: no clock read and no
  /// poll(2), just non-blocking reads until a packet parses or the
  /// kernel reports EAGAIN, so nullopt means the socket is empty.
  std::optional<Datagram> receive_from(double timeout_s);

  /// Batched receive: drains queued datagrams, then waits up to
  /// `timeout_s` for the socket once and pulls everything readable in a
  /// single recvmmsg.  Parsed packets are appended to `out`, at most
  /// `max_packets`; returns how many.
  std::size_t receive_batch(std::vector<fec::Packet>& out,
                            std::size_t max_packets, double timeout_s);

  /// Routes every received datagram through an adversarial Impairment
  /// before parsing: drops, duplicates, bit corruption, truncation and
  /// holdback reordering all happen on the raw bytes, exercising the
  /// real fec::deserialize path.  Impairment is applied per datagram in
  /// receive order.  Pass nullptr to remove (queued packets are
  /// discarded either way).
  void set_impairment(std::shared_ptr<Impairment> impairment);

  /// Installs a tap observing every frame sent (nullptr to remove).
  void set_tx_tap(TxTap tap) { tx_tap_ = std::move(tap); }

  /// Test hook: the next `count` send syscall attempts fail with
  /// errno = err instead of reaching the kernel.  Injecting EAGAIN /
  /// ENOBUFS exercises the backpressure path deterministically.
  void inject_send_errno(int err, std::size_t count) {
    inject_errno_ = err;
    inject_count_ = count;
  }

  /// Fault-injection hook for sustained pushback: every `every`-th send
  /// syscall attempt opens a window of `burst` consecutive failures with
  /// errno = err (EAGAIN/ENOBUFS model a stalled socket, ENOMEM a
  /// starved kernel — all treated as backpressure).  every == 0 disables.
  /// Deterministic: keyed off the socket's own attempt counter.
  void inject_send_errno_every(int err, std::size_t every,
                               std::size_t burst) {
    inject_every_errno_ = err;
    inject_every_ = every;
    inject_burst_ = burst == 0 ? 1 : burst;
    inject_burst_left_ = 0;
  }

  /// Send attempts failed by either injection hook since construction —
  /// the server folds this into the fault_injected_send metric.
  std::uint64_t injected_send_failures() const noexcept {
    return injected_failures_;
  }

  /// Corruption-driven desync evidence from the receive path.  A
  /// datagram that fails the whole-datagram parse is run through a
  /// FrameStreamDecoder to salvage any embedded valid frames (a hostile
  /// peer may concatenate garbage around a sealed frame); every one-byte
  /// resynchronisation slide and every skipped frame is counted here and
  /// surfaces in the session metrics as frame_resyncs/frames_skipped.
  std::uint64_t frame_resyncs() const noexcept { return frame_resyncs_; }
  std::uint64_t frames_skipped() const noexcept { return frames_skipped_; }

 private:
  friend class UdpGroup;

  /// A receive-only member socket of `group`: bound to group:port (port
  /// 0 = let the kernel pick one nobody holds), SO_REUSEADDR set after
  /// the bind so later members can share it, joined on 127.0.0.1 with
  /// IP_MULTICAST_ALL off.
  static UdpSocket group_member(std::uint32_t group, std::uint16_t port);

  /// Owns the descriptor, so the moves are the defaults: closed on
  /// destruction and when overwritten by a move, -1 once moved from.
  class Fd {
   public:
    explicit Fd(int fd) noexcept : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
    Fd& operator=(Fd&& other) noexcept {
      if (this != &other) {
        reset();
        fd_ = std::exchange(other.fd_, -1);
      }
      return *this;
    }
    int get() const noexcept { return fd_; }

   private:
    void reset() noexcept;
    int fd_;
  };

  struct Adopt {};
  /// Owns `fd`, not yet bound.
  UdpSocket(Adopt, int fd);
  /// Binds to addr:port and records the port the kernel assigned.
  void bind_to(std::uint32_t addr, std::uint16_t port);
  /// Points group sends out of 127.0.0.1 with loopback delivery on; run
  /// once, before the socket's first group frame.
  void enable_group_send();
  /// Injection gate in front of each sendmmsg: returns the errno this
  /// attempt must fail with, or 0 to let the real syscall run.
  int consume_injected_send();
  /// One non-blocking recvmmsg; each datagram is parsed into parsed_
  /// straight from the receive buffer.  Returns the number of raw
  /// datagrams read.
  std::size_t drain_ready();
  /// Runs one received datagram through the impairment, if any, and
  /// parses what comes out.
  void accept_datagram(std::uint16_t src_port,
                       std::span<const std::uint8_t> bytes);
  /// Parses one datagram into parsed_: directly, or by salvaging the
  /// sealed frames embedded in it.
  void parse_datagram(std::uint16_t src_port,
                      std::span<const std::uint8_t> bytes);
  std::optional<Datagram> pop_parsed();

  Fd fd_;
  std::uint16_t port_ = 0;
  std::shared_ptr<Impairment> impairment_;
  std::deque<Datagram> parsed_;  // received, parsed, awaiting delivery
  std::uint64_t frame_resyncs_ = 0;
  std::uint64_t frames_skipped_ = 0;
  TxTap tx_tap_;
  int inject_errno_ = 0;
  std::size_t inject_count_ = 0;
  int inject_every_errno_ = 0;
  std::size_t inject_every_ = 0;
  std::size_t inject_burst_ = 0;
  std::size_t inject_burst_left_ = 0;
  std::uint64_t attempted_sends_ = 0;
  std::uint64_t injected_failures_ = 0;
  bool group_send_ = false;  ///< enable_group_send has run
};

/// A session's multicast group: the member ports the sender tracks (the
/// reliable control plane addresses per-member state by join order) and,
/// under group delivery, the (group address, port) pair every member's
/// group socket is joined to.  A default-constructed group is fan-out.
class UdpGroup {
 public:
  UdpGroup() = default;

  /// A group for `delivery`.  kGroup takes a fresh group address; its
  /// port is fixed by the first join, whose bind runs without
  /// SO_REUSEADDR so the kernel cannot hand out a port a live group
  /// holds.
  static UdpGroup open(UdpDelivery delivery = active_udp_delivery());

  /// Registers the member whose unicast socket is bound to
  /// `member_port` (its identity: the source the sender's guard checks
  /// and the destination of catch-up repair).  Under group delivery it
  /// also returns the member's receive-only group socket, which the
  /// member must drain; on a fan-out group it returns nullopt.  Throws
  /// std::system_error if the group socket cannot be made.
  std::optional<UdpSocket> join(std::uint16_t member_port);

  /// True under group delivery: a frame to every member is one send.
  bool multicast() const noexcept { return address_ != 0; }

  /// The one frame that reaches every member (multicast() only).
  FrameRef to_all(std::span<const std::uint8_t> bytes) const {
    return {port_, bytes, address_};
  }

  std::size_t size() const noexcept { return members_.size(); }

  /// Member ports in join order — the reliable control plane addresses
  /// per-member state (ACKs, liveness, eviction) by this index.
  const std::vector<std::uint16_t>& members() const noexcept {
    return members_;
  }

 private:
  std::vector<std::uint16_t> members_;
  std::uint32_t address_ = 0;  ///< group address, host order; 0 = fan-out
  std::uint16_t port_ = 0;     ///< group port, fixed by the first join
};

}  // namespace pbl::net
