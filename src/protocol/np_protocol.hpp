// Protocol NP: the paper's hybrid-ARQ reliable multicast protocol
// (Section 5.1), run end-to-end on the discrete-event simulator.
//
// The round logic is the NP cores' (np_core.hpp), the same state machine
// the reactor drivers run over real sockets; NpSession is the simulated
// engine around them.  The sender multicasts the k data packets of a
// transmission group, one every `delta`, then a POLL(i), and waits:
// stop-and-wait per TG.  A receiver that cannot yet reconstruct TG i
// draws a slot delay keyed to how much it misses (nak_suppression.hpp)
// and then multicasts NAK(i, l); a receiver that overhears a NAK asking
// for at least as much as it needs stays silent (damping), so ideally
// one NAK per round survives.  When the collect window — the POLL's
// downlink, k + 1 slots and the NAK's uplink — closes, the sender
// serves the largest l it heard with l fresh parities followed by a new
// POLL(i).  A TG is complete when a round closes with no NAK.
//
// Unlike the idealised models, this runs the real RSE codec on real bytes
// and verifies the reconstruction, counts duplicate receptions, encode/
// decode operations, NAKs sent and suppressed, and completion time.
//
// NpConfig is NP's parameters (NpParams, documented in np_core.hpp) plus
// the simulated network's: spacing, slot, delay, impairment, the
// receivers' priors and the crash fault.  NpSession hands it to the cores
// as it is.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fec/fec_block.hpp"
#include "fec/rse_code.hpp"
#include "loss/loss_model.hpp"
#include "net/channel.hpp"
#include "protocol/np_core.hpp"

namespace pbl::protocol {

/// "Sender never crashes" sentinel for NpConfig::crash_after_tx.
inline constexpr std::size_t kNoSenderCrash = static_cast<std::size_t>(-1);

/// What the receivers carry into a restarted sender's next life.  The
/// sender's own progress is NpParams' incarnation and resume vectors; in
/// the DES each life is a fresh NpSession object while real receivers
/// would have survived the sender's death, so their state is threaded
/// through here explicitly.
struct NpResume {
  /// What the receivers had seen before the restart (stale-packet
  /// filtering starts from here rather than from zero).
  std::uint32_t receiver_incarnation = 0;
  /// Receiver priors: decoded-TG bitmaps per receiver (may be empty =
  /// all receivers start cold).  A primed receiver answers POLLs for
  /// those TGs from its bitmap (ACK under reliable control, silence
  /// otherwise) instead of NAKing for content it already delivered.
  std::vector<std::vector<bool>> receiver_decoded;
};

/// The DES engine's configuration: NP's parameters (paper defaults k = 20,
/// h = 100, 256-byte packets) plus the simulated network's.
struct NpConfig : NpParams {
  NpConfig() {
    k = 20;
    h = 100;
    packet_len = 256;
  }

  double delta = 0.001;        ///< packet send spacing [s]
  /// Ts: NAK suppression slot size [s].  A round collects NAKs for
  /// 2·delay + (k + 1)·Ts, the slowest slotted NAK's round trip.
  double slot = 0.005;
  double delay = 0.010;        ///< one-way propagation delay [s]

  /// Adversarial impairment of the DATA down-path (reorder, duplication,
  /// corruption, truncation, jitter, burst drops); disabled by default.
  /// The control knobs (impairment.control_*) additionally impair the
  /// NAK/POLL paths — see MulticastChannel::set_impairment.
  net::ImpairmentConfig impairment{};

  /// The receivers' state from before a sender restart (default: cold).
  NpResume resume{};

  /// Deterministic crash injection: the sender process "dies" after its
  /// Nth channel transmission (data, parity or poll — counted in emit
  /// order), falling silent mid-session exactly like a killed process:
  /// nothing further is sent, heard, or journaled.  kNoSenderCrash
  /// disables.  The session still runs to quiescence so surviving
  /// receivers' state can be harvested for the next incarnation.
  std::size_t crash_after_tx = kNoSenderCrash;

  /// Parities sent proactively with each TG's data ("a" in Section 3.2):
  /// trades bandwidth for fewer feedback rounds and lower latency.
  std::size_t proactive = 0;
  /// Adapt `proactive` per TG from the losses the NAKs reveal: after each
  /// completed TG the sender re-plans a so that, at the estimated loss
  /// rate, P(no retransmission round) >= 0.9 (adaptive hybrid ARQ; the
  /// paper's Section 4.1 discussion of measurement-based adaptation).
  bool adaptive = false;
};

struct NpStats {
  std::uint64_t data_sent = 0;
  std::uint64_t parity_sent = 0;       ///< reactive (NAK-triggered) parities
  std::uint64_t proactive_sent = 0;    ///< parities sent with the data
  double final_proactive = 0.0;        ///< `a` in use after the last TG
  std::uint64_t polls_sent = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_suppressed = 0;
  std::uint64_t duplicate_receptions = 0;  ///< across all receivers
  std::uint64_t packet_deliveries = 0;     ///< data/parity receptions, all receivers
  std::uint64_t parities_encoded = 0;      ///< sender-side encode operations
  std::uint64_t packets_decoded = 0;       ///< receiver-side reconstructions
  std::uint64_t tgs_completed = 0;
  std::uint64_t tgs_failed = 0;            ///< parity budget exhausted
  double completion_time = 0.0;            ///< when the last receiver finished
  double mean_tg_latency = 0.0;            ///< mean time from a TG's first data
                                           ///< packet to its last receiver decoding
  double p95_tg_latency = 0.0;             ///< 95th percentile of the same
  bool all_delivered = false;              ///< every receiver got every byte intact
  double tx_per_packet = 0.0;              ///< (data+parity)/(k * num_tgs), E[M]
  net::ImpairmentStats impairment{};       ///< channel fault counters (zero when clean)

  // Reliable-control accounting (all zero unless reliable_control).
  std::uint64_t acks_sent = 0;      ///< per-receiver TG acknowledgements
  std::uint64_t acks_received = 0;  ///< ACKs that reached the sender
  std::uint64_t poll_retries = 0;   ///< re-POLLs after unconfirmed rounds
  std::uint64_t nak_retries = 0;    ///< receiver NAK retransmissions
  std::uint64_t evictions = 0;      ///< receivers evicted for silence
  /// Structured degradation outcome; filled on every exit path.
  PartialDeliveryReport report{};

  // Crash-recovery accounting.
  bool sender_crashed = false;        ///< crash_after_tx fired this run
  std::uint64_t stale_rejected = 0;   ///< packets dropped: dead incarnation
  std::uint64_t resumed_tgs_skipped = 0;  ///< TGs carried in complete
};

/// One sender, `receivers` receivers, `num_tgs` groups of random data —
/// or caller-supplied groups (for real file transfer, see
/// core/file_transfer.hpp).
class NpSession {
 public:
  NpSession(const loss::LossModel& loss, std::size_t receivers,
            std::size_t num_tgs, const NpConfig& config,
            std::uint64_t seed = 1);

  /// Transmits the given groups: data[i] must hold exactly config.k
  /// packets of config.packet_len bytes (check_tg_shape).
  NpSession(const loss::LossModel& loss, std::size_t receivers,
            std::vector<std::vector<std::vector<std::uint8_t>>> data,
            const NpConfig& config, std::uint64_t seed = 1);
  ~NpSession();

  NpSession(const NpSession&) = delete;
  NpSession& operator=(const NpSession&) = delete;

  /// Runs to quiescence and returns the collected statistics.
  NpStats run();

  /// Observes every packet the session puts on the wire, in order and
  /// before loss (net::MulticastChannel::set_wire_tap); install before
  /// run().  Used by the protocol-invariant tests.
  void set_wire_tap(std::function<void(const fec::Packet&)> tap);

  /// The data the sender transmitted (for external verification).
  const std::vector<std::vector<std::vector<std::uint8_t>>>& source_data() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbl::protocol
