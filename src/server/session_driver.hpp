// Protocol NP over real UDP sockets (net/udp/udp_np.hpp), as event-driven
// session endpoints for the reactor.  A driver never blocks: the reactor
// feeds it readability events and timer expiries, so thousands of
// concurrent sessions share one thread.
//
// The round logic is not here: each driver runs a protocol::NpSenderCore
// or NpReceiverCore (protocol/np_core.hpp), the same state machine the
// discrete-event NpSession runs.  A driver adds what sockets need:
// draining them, PeerGuard admission and keyed control frames, the burst
// engine (pacer, arena, load shedding, flush timer), reactor timers,
// group versus catch-up fan-out, idle and drain clocks, and the crash
// and loss faults.  Time comes exclusively from the injected clock in
// UdpNpConfig::clock, so the drivers can be unit-tested on a ManualClock
// by pumping events by hand.  tests/test_udp_differential.cpp pins their
// wire bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fec/fec_block.hpp"
#include "net/pacer.hpp"
#include "net/udp/packet_arena.hpp"
#include "net/udp/udp_np.hpp"
#include "protocol/np_core.hpp"
#include "server/reactor.hpp"

namespace pbl::server {

/// Non-blocking sender: drives one NP session (k data per TG, POLL/NAK
/// rounds, parity repair) from reactor callbacks.  `groups` must outlive
/// the driver — the server owns the payload so it can verify receivers
/// against it after the drivers are gone.
class SenderSessionDriver : private protocol::NpSenderCore::Io {
 public:
  SenderSessionDriver(Reactor& reactor, net::UdpSocket socket,
                      net::UdpGroup group, const net::UdpNpConfig& config,
                      const std::vector<net::TgBytes>& groups,
                      std::function<void()> on_finished);
  ~SenderSessionDriver();
  SenderSessionDriver(const SenderSessionDriver&) = delete;
  SenderSessionDriver& operator=(const SenderSessionDriver&) = delete;

  void start();
  /// Force-stop for drain: unregisters from the reactor immediately, no
  /// end-of-session marker (the journal is the handoff to the next
  /// life).  Does NOT invoke on_finished — the caller is the one
  /// stopping and does its own bookkeeping.
  void stop();

  bool finished() const noexcept { return finished_; }
  bool stopped() const noexcept { return stopped_; }
  const net::UdpNpSenderStats& stats() const noexcept { return stats_; }
  /// TGs confirmed complete this life (journal hook count).
  std::uint64_t tgs_completed() const noexcept { return stats_.tgs_completed; }
  /// Clock time at which the open collect phase times out unless every
  /// gating member answers first.
  double collect_deadline() const noexcept { return core_.collect_deadline(); }
  std::uint16_t port() const noexcept { return socket_.port(); }
  /// The session socket, exposed so overload tests and the server's
  /// fault plan can install send-errno injection on a live driver.
  net::UdpSocket& socket() noexcept { return socket_; }
  std::uint64_t injected_send_failures() const noexcept {
    return socket_.injected_send_failures();
  }
  std::uint64_t arena_canary_violations() const noexcept {
    return arena_->canary_violations();
  }
  /// Receive-path desync evidence (see UdpSocket::frame_resyncs).
  std::uint64_t frame_resyncs() const noexcept {
    return socket_.frame_resyncs();
  }
  std::uint64_t frames_skipped() const noexcept {
    return socket_.frames_skipped();
  }

 private:
  // protocol::NpSenderCore::Io
  void send_burst(const protocol::NpBurst& burst) override;
  /// Best-effort send of a control packet (POLLs and the end marker);
  /// false once the crash fault has fired.
  bool send_poll(fec::Packet packet,
                 const std::vector<std::size_t>* targets) override;
  void send_end() override;
  void arm_timer(double when) override;
  void disarm_timer() override;
  void session_over() override;

  void on_readable();
  /// Feeds every queued datagram that passes admission to the core.
  void drain_feedback();
  void on_window_expired();
  /// The crash fault: true once crash_after_sends sends were made.
  bool crash_fired();
  /// Appends the frame's destinations: one group frame (or one unicast
  /// copy per member on a fan-out group), or one copy per target member.
  void fan_out(std::span<const std::uint8_t> frame,
               const std::vector<std::size_t>* targets,
               std::vector<net::FrameRef>& out) const;
  /// The burst engine: stages frames as the pacer and arena allow,
  /// flushes them with non-blocking send_batch, and on pushback or
  /// exhaustion defers itself on a reactor timer instead of blocking —
  /// the reactor thread is never parked in a socket wait.
  void pump_burst();
  void on_burst_complete();
  void arm_flush_timer(double when);
  void disarm_flush_timer();
  std::size_t member_of(std::uint16_t port) const;

  Reactor& reactor_;
  net::UdpSocket socket_;
  net::UdpGroup group_;
  net::UdpNpConfig cfg_;
  const std::vector<net::TgBytes>& groups_;
  fec::RseCode code_;
  const protocol::Clock& clk_;
  std::function<void()> on_finished_;
  net::UdpNpSenderStats stats_;
  protocol::NpSenderCore core_;

  bool started_ = false;
  bool finished_ = false;
  bool stopped_ = false;
  bool fd_registered_ = false;
  std::size_t sends_ = 0;
  Reactor::TimerId window_timer_ = 0;
  bool timer_armed_ = false;

  // Resumable burst engine (pump_burst).  DATA/PARITY frames are written
  // in place into arena slabs and batched per burst.
  std::unique_ptr<net::PacketArena> arena_;
  std::vector<net::FrameRef> burst_;
  std::optional<fec::TgEncoder> encoder_;
  protocol::NpBurst spec_;        ///< the burst in flight
  bool bursting_ = false;
  net::Pacer pacer_;
  std::size_t stage_next_ = 0;    ///< next logical packet to stage
  std::size_t stage_count_ = 0;   ///< logical packets in this burst
  std::size_t burst_sent_ = 0;    ///< FrameRefs already on the wire
  double stall_since_ = -1.0;     ///< when sustained pushback began
  Reactor::TimerId flush_timer_ = 0;
  bool flush_timer_armed_ = false;

  // Hostile-peer defense (net/peer_guard.hpp; null when guard off).
  std::unique_ptr<net::PeerGuard> guard_;
  std::uint32_t ctl_seq_ = 0;    ///< nonce for authenticated POLL frames
  std::uint64_t group_key_ = 0;  ///< sender->group control-frame key
};

/// Non-blocking receiver endpoint, with resume support for the server's
/// restart path — a receiver that
/// "survived" a sender restart is reconstructed from its persisted
/// decoded bitmap.  TGs the sender's journal had confirmed complete are
/// never re-multicast, so DATA/PARITY arriving for one is counted as a
/// redelivery violation (exactly-once audit).  TGs this receiver decoded
/// but the sender never confirmed ARE legitimately re-sent by the next
/// life; those are suppressed as ordinary duplicates, not violations.
class ReceiverSessionDriver : private protocol::NpReceiverCore::Io {
 public:
  struct Options {
    double idle_timeout = 10.0;     ///< mid-session silence budget [s]
    double data_loss = 0.0;         ///< injected DATA/PARITY drop prob
    Rng rng{1};                     ///< drives injected loss
    net::ImpairmentConfig impairment{};  ///< byte-level wire faults
    /// Resume: TGs decoded in a prior life (empty = fresh receiver).  The
    /// TGs the sender's journal confirmed are the config's
    /// resume_completed: a subset of what every member decoded, and the
    /// only TGs whose reappearance is an exactly-once violation.
    std::vector<bool> resume_decoded;
    /// Resume: highest sender incarnation heard in the prior life.
    std::uint32_t resume_incarnation = 0;
    /// When set, every decoded TG is compared against these bytes and
    /// mismatches counted (end-to-end integrity under impairment).
    const std::vector<net::TgBytes>* expected = nullptr;
  };

  /// `socket` is the member's unicast socket: its port is the member's
  /// identity, and catch-up repair arrives on it.  `group_socket` is its
  /// socket on the session's multicast group (net::UdpGroup::join), left
  /// empty on a fan-out group.  on_readable drains both.
  ReceiverSessionDriver(
      Reactor& reactor, net::UdpSocket socket, std::uint16_t sender_port,
      std::size_t num_tgs, const net::UdpNpConfig& config, Options options,
      std::function<void()> on_finished,
      std::optional<net::UdpSocket> group_socket = std::nullopt);
  ~ReceiverSessionDriver();
  ReceiverSessionDriver(const ReceiverSessionDriver&) = delete;
  ReceiverSessionDriver& operator=(const ReceiverSessionDriver&) = delete;

  void start();
  /// Force-stop for drain: finalizes the result with the current state
  /// (end reason kMidSessionSilence unless already complete) without
  /// invoking on_finished.
  void stop();

  bool finished() const noexcept { return finished_; }
  const net::UdpNpReceiverResult& result() const noexcept { return result_; }
  /// DATA/PARITY received for TGs the sender journal had confirmed —
  /// must stay 0 for a correct resume (confirmed TGs are never
  /// re-multicast).
  std::uint64_t redelivered_prior() const noexcept {
    return result_.redelivered_prior;
  }
  std::uint64_t payload_mismatches() const noexcept {
    return payload_mismatches_;
  }
  /// Decoded bitmap (prior + this life), for persistence across drains.
  std::vector<bool> decoded_bitmap() const { return core_.done(); }
  std::uint32_t incarnation_heard() const noexcept {
    return core_.incarnation();
  }
  std::size_t tgs_done() const noexcept { return core_.done_count(); }
  std::uint16_t port() const noexcept { return socket_.port(); }
  /// Receive-path desync evidence (see UdpSocket::frame_resyncs), summed
  /// over the unicast and group sockets.
  std::uint64_t frame_resyncs() const noexcept;
  std::uint64_t frames_skipped() const noexcept;

 private:
  // protocol::NpReceiverCore::Io
  void send_feedback(fec::Packet&& feedback) override;
  void decoded(std::size_t tg,
               const std::vector<std::vector<std::uint8_t>>& data) override;

  /// Readiness of the unicast socket (`unicast`) or the group socket.
  void on_readable(bool unicast);
  /// Handles every datagram queued on `socket`.
  void drain(net::UdpSocket& socket);
  void on_wake();
  void handle_packet(fec::Packet&& packet);
  void finish(net::UdpNpEndReason reason);
  void unregister_fds();
  void reschedule(double next_due);
  double idle_deadline() const;

  Reactor& reactor_;
  net::UdpSocket socket_;
  std::optional<net::UdpSocket> group_socket_;
  std::uint16_t sender_port_;
  std::size_t num_tgs_;
  net::UdpNpConfig cfg_;
  Options opt_;
  fec::RseCode code_;
  const protocol::Clock& clk_;
  std::function<void()> on_finished_;
  std::shared_ptr<net::Impairment> impairment_;
  net::UdpNpReceiverResult result_;
  protocol::NpReceiverCore core_;

  std::uint64_t payload_mismatches_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool fd_registered_ = false;
  double last_rx_ = 0.0;
  // Hostile-peer defense (guard knobs; zero-cost when off).
  std::uint32_t fbseq_ = 0;      ///< monotone per-feedback anti-replay seq
  std::uint64_t member_key_ = 0; ///< tags this member's feedback
  std::uint64_t group_key_ = 0;  ///< verifies sender control frames
  Reactor::TimerId wake_timer_ = 0;
  bool timer_armed_ = false;
  double armed_at_ = 0.0;
};

}  // namespace pbl::server
