// Protocol NP over real UDP sockets (net/udp/udp_np.hpp), as event-driven
// session endpoints for the reactor.  A driver owns nothing but its
// state machine and never blocks: the reactor feeds it readability
// events and timer expiries, so thousands of concurrent sessions share
// one thread.
//
// The sender holds one round machine: begin_next_tg, then POLL(i,s),
// then after_window's decision (NAK(i,l) -> l fresh parities ->
// POLL again, re-POLL, or close the TG).  Quarantine catch-up runs
// through the same machine after the main pass; a catch-up TG gates on
// its stragglers, skips the data burst and unicasts to them.
//
// Features: reliable-control ACK/liveness/eviction, rounds that close on
// their last answer, seeded re-POLL and NAK-retransmit backoff, session
// deadlines, incarnation stamping and stale rejection, journal
// write-ahead hooks, parity high-water resume, crash fault injection,
// and the overload and hostile-peer knobs.  Time
// comes exclusively from the injected clock in UdpNpConfig::clock, so
// the drivers can be unit-tested on a ManualClock by pumping events by
// hand.  tests/test_udp_differential.cpp pins their wire bytes.
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
#include "server/reactor.hpp"

namespace pbl::server {

/// Non-blocking sender: drives one NP session (k data per TG, POLL/NAK
/// rounds, parity repair) from reactor callbacks.  `groups` must outlive
/// the driver — the server owns the payload so it can verify receivers
/// against it after the drivers are gone.
class SenderSessionDriver {
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
  std::uint64_t tgs_completed() const noexcept { return tgs_completed_; }
  /// Clock time at which the open collect phase times out unless every
  /// gating member answers first.
  double collect_deadline() const noexcept { return collect_deadline_; }
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
  /// What the in-flight burst carries — determines the frame writer and
  /// what happens when the burst completes.
  enum class BurstPhase { kNone, kData, kParity };

  void on_readable();
  void drain_feedback();
  void on_window_expired();
  /// Starts the next TG of the work list: the main pass in TG order,
  /// then the catch-up pass.  A main-pass TG opens with its data burst,
  /// a catch-up TG straight with its POLL.
  void begin_next_tg();
  /// Builds the catch-up work list once the main pass is done.
  void start_catch_up();
  /// Sends the round's POLL and opens its collect phase: the timeout is
  /// min(poll_window + max_backoff, max(poll_window, SRTT + 4·RTTVAR))
  /// + the re-POLL pad, clamped by the deadline.
  void send_poll();
  /// True once every member gating this round answered its POLL: the
  /// live non-quarantined members, or the catch-up targets.
  bool all_answered() const;
  void after_window();  // the post-collect decision logic
  /// Journals the TG's new parity high-water, then bursts `l` fresh
  /// parities.
  void serve_parity(std::size_t l);
  void finish_session();
  /// Ends the session as deadline-expired if the deadline has passed.
  bool end_if_deadline_passed(double now);
  /// The crash fault: true once crash_after_sends sends were made.
  bool crash_fired();
  /// Best-effort send of a control packet; false once the crash fault
  /// has fired.
  bool send_control(fec::Packet packet);
  /// Appends the frame's destinations: one group frame (or one unicast
  /// copy per member on a fan-out group), or the catch-up targets
  /// (cu_targets_) while catch-up runs.
  void fan_out(std::span<const std::uint8_t> frame,
               std::vector<net::FrameRef>& out) const;
  /// Opens a resumable burst of `count` logical packets and pumps it.
  void start_burst(BurstPhase phase, std::size_t count);
  /// The burst engine: stages frames as the pacer and arena allow,
  /// flushes them with non-blocking send_batch, and on pushback or
  /// exhaustion defers itself on a reactor timer instead of blocking —
  /// the reactor thread is never parked in a socket wait.
  void pump_burst();
  void on_burst_complete();
  void arm_flush_timer(double when);
  void disarm_flush_timer();
  void arm_window_timer(double window);
  void disarm_timer();
  /// True when every member gating the round acked: the live
  /// non-quarantined members, or the catch-up targets still owed.
  bool confirmed() const;
  /// True when member `m` gates main-pass rounds: live (not evicted),
  /// not quarantined and not expelled.
  bool gates(std::size_t m) const;
  /// True for TGs a prior life confirmed complete (never re-sent).
  bool resumed(std::size_t tg) const;
  /// True when member `m` is a live quarantined member lacking `tg`.
  bool owed(std::size_t m, std::size_t tg) const;
  /// True when no member is owed the current TG — only then may its
  /// completion be journaled (exactly-once).
  bool tg_fully_delivered() const;
  void complete_current_tg();
  /// Service-deficit accounting: once an acked quorum exists, laggards
  /// accrue deficit and cross into quarantine at the configured bound.
  void update_quarantine();
  std::size_t member_of(std::uint16_t port) const;
  /// Marks members the guard has banned as expelled (sticky) — the round
  /// closer and the final report stop waiting for them.
  void refresh_expulsions();

  Reactor& reactor_;
  net::UdpSocket socket_;
  net::UdpGroup group_;
  net::UdpNpConfig cfg_;
  const std::vector<net::TgBytes>& groups_;
  fec::RseCode code_;
  const protocol::Clock& clk_;
  std::function<void()> on_finished_;

  net::UdpNpSenderStats stats_;
  std::uint64_t tgs_completed_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool stopped_ = false;
  bool fd_registered_ = false;

  // Session-wide state.
  std::uint32_t round_id_ = 0;
  std::size_t sends_ = 0;
  // Zero-copy burst path: DATA/PARITY frames are written in place into
  // arena slabs and batched per burst (see pump_burst).
  std::unique_ptr<net::PacketArena> arena_;
  std::vector<net::FrameRef> burst_;
  std::vector<bool> evicted_;
  std::vector<std::size_t> silent_;
  std::vector<std::vector<bool>> delivered_;
  protocol::Deadline deadline_;
  /// Round id of each member's last answer (ACK or NAK echoing it).
  std::vector<std::uint32_t> answered_;
  protocol::RttEstimator answer_rtt_;  ///< POLL -> answer latency
  double poll_sent_at_ = 0.0;
  double collect_deadline_ = 0.0;

  // Per-TG round state.
  std::size_t tg_ = 0;
  std::optional<fec::TgEncoder> encoder_;
  std::vector<bool> acked_;
  std::vector<bool> heard_;
  std::optional<protocol::Backoff> poll_backoff_;
  std::size_t parities_used_ = 0;
  double window_pad_ = 0.0;
  std::size_t repair_rounds_ = 0;  ///< parity bursts served for this TG
  std::size_t l_ = 0;  ///< max NAK count collected this round
  Reactor::TimerId window_timer_ = 0;
  bool timer_armed_ = false;

  // Resumable burst engine (pump_burst).
  net::Pacer pacer_;
  BurstPhase burst_phase_ = BurstPhase::kNone;
  std::size_t stage_next_ = 0;    ///< next logical packet to stage
  std::size_t stage_count_ = 0;   ///< logical packets in this burst
  std::size_t burst_sent_ = 0;    ///< FrameRefs already on the wire
  std::size_t parity_base_ = 0;   ///< first parity index of this burst
  double stall_since_ = -1.0;     ///< when sustained pushback began
  Reactor::TimerId flush_timer_ = 0;
  bool flush_timer_armed_ = false;

  // Quarantine and parity-only catch-up (net/overload.hpp).
  std::vector<std::size_t> parity_high_;  ///< per-TG parity high-water
  std::vector<std::size_t> deficit_;      ///< rounds behind an acked quorum
  std::vector<bool> quarantined_;
  /// Confirmed TGs whose journal record waits on a straggler.
  std::vector<bool> deferred_;
  std::size_t round_naks_ = 0;  ///< NAKs admitted this round (budget)
  bool catchup_ = false;  ///< the main pass is done; catch-up runs
  std::vector<std::size_t> cu_tgs_;  ///< catch-up TGs left; next at the back
  std::vector<std::size_t> cu_targets_;  ///< members served this TG

  // Hostile-peer defense (net/peer_guard.hpp; null when guard off).
  std::unique_ptr<net::PeerGuard> guard_;
  std::vector<bool> expelled_;   ///< banned members, exempt from rounds
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
class ReceiverSessionDriver {
 public:
  struct Options {
    double idle_timeout = 10.0;     ///< mid-session silence budget [s]
    double data_loss = 0.0;         ///< injected DATA/PARITY drop prob
    Rng rng{1};                     ///< drives injected loss
    net::ImpairmentConfig impairment{};  ///< byte-level wire faults
    /// Resume: TGs decoded in a prior life (empty = fresh receiver).
    std::vector<bool> resume_decoded;
    /// Resume: TGs the SENDER's journal confirmed complete.  A strict
    /// subset of what every member decoded (confirmation implies an ACK
    /// implies a decode), and the only TGs whose reappearance is an
    /// exactly-once violation.
    std::vector<bool> resume_confirmed;
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
    return redelivered_prior_;
  }
  std::uint64_t payload_mismatches() const noexcept {
    return payload_mismatches_;
  }
  /// Decoded bitmap (prior + this life), for persistence across drains.
  std::vector<bool> decoded_bitmap() const;
  std::uint32_t incarnation_heard() const noexcept { return known_inc_; }
  std::size_t tgs_done() const noexcept { return done_count_; }
  std::uint16_t port() const noexcept { return socket_.port(); }
  /// Receive-path desync evidence (see UdpSocket::frame_resyncs), summed
  /// over the unicast and group sockets.
  std::uint64_t frame_resyncs() const noexcept;
  std::uint64_t frames_skipped() const noexcept;

 private:
  /// Readiness of the unicast socket (`unicast`) or the group socket.
  void on_readable(bool unicast);
  /// Handles every datagram queued on `socket`.
  void drain(net::UdpSocket& socket);
  void on_wake();
  void handle_packet(fec::Packet&& packet);
  void accept_block_packet(fec::Packet&& packet);
  /// Exactly-once audit for DATA/PARITY of a TG decoded in a prior life:
  /// counts it (a redelivery violation if the journal confirmed the TG,
  /// a duplicate otherwise) and returns true; false for a live TG.
  bool absorbed_by_prior(std::uint32_t tg);
  void send_feedback(std::uint32_t tg, std::size_t count, std::uint32_t seq);
  /// Sends the armed NAK: its first send (a POLL answer, possibly after
  /// a suppression slot) or a retransmission; disarms it once nothing is
  /// needed or the retransmit budget is spent.
  void send_pending_nak();
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
  std::uint64_t redelivered_prior_ = 0;
  std::uint64_t payload_mismatches_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool fd_registered_ = false;

  std::vector<fec::TgDecoder> decoders_;
  std::vector<bool> done_;
  std::vector<bool> prior_;      ///< decoded before this life (resume)
  std::vector<bool> confirmed_;  ///< journal-confirmed before this life
  std::size_t done_count_ = 0;
  std::vector<std::unique_ptr<protocol::Backoff>> nak_backoffs_;
  bool nak_pending_ = false;
  /// The pending NAK has never been sent — under suppression it sits in
  /// its slot delay and repair arriving first cancels it entirely.
  bool nak_first_ = false;
  Rng supp_rng_{1};  ///< seeds the suppression slot draws
  std::uint32_t nak_tg_ = 0;
  std::uint32_t nak_round_ = 0;
  double nak_retry_at_ = 0.0;
  std::uint8_t known_inc_ = 0;
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
