// Lossy multicast channel for the discrete-event simulator.
//
// Forward direction (sender -> receivers): every receiver has an
// independent LossProcess drawn from the configured LossModel; a multicast
// delivers to each receiver that does not lose the packet, after a fixed
// propagation delay.  Feedback direction (receiver -> group): NAKs are
// multicast to the sender AND all other receivers (needed for NAK
// suppression); the paper's analysis assumes control packets are never
// lost, which holds unless set_impairment configures control faults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fec/packet.hpp"
#include "loss/loss_model.hpp"
#include "net/impairment.hpp"
#include "sim/simulator.hpp"

namespace pbl::net {

struct ChannelStats {
  std::uint64_t data_multicasts = 0;     ///< packets the sender put on the wire
  std::uint64_t data_deliveries = 0;     ///< per-receiver successful deliveries
  std::uint64_t data_drops = 0;          ///< per-receiver losses
  std::uint64_t feedback_multicasts = 0; ///< NAK/POLL transmissions
};

class MulticastChannel {
 public:
  /// receiver_handler(receiver, packet) runs at delivery time;
  /// sender_handler(from_receiver, packet) runs when feedback reaches the
  /// sender.  Handlers are installed after construction.
  MulticastChannel(sim::Simulator& sim, const loss::LossModel& model,
                   std::size_t receivers, double delay);

  using ReceiverHandler =
      std::function<void(std::size_t receiver, const fec::Packet&)>;
  using SenderHandler =
      std::function<void(std::size_t from, const fec::Packet&)>;

  void set_receiver_handler(ReceiverHandler h) { on_receiver_ = std::move(h); }
  void set_sender_handler(SenderHandler h) { on_sender_ = std::move(h); }

  /// Observes every packet put on the wire, in transmission order and
  /// before any loss is applied — for protocol-invariant tests and
  /// debugging.  Pass nullptr to remove.
  using WireTap = std::function<void(const fec::Packet&)>;
  void set_wire_tap(WireTap tap) { tap_ = std::move(tap); }

  /// Installs adversarial impairment (reorder/dup/corrupt/truncate/jitter/
  /// burst drops) on the DATA down-path.  Each receiver gets an
  /// independent Impairment seeded from config.seed and its index, so a
  /// given (config, seed) reproduces the exact delivery schedule.
  ///
  /// When the config's control knobs (control_drop/control_dup/
  /// control_delay) are set, the CONTROL paths are impaired too, from
  /// RNG streams independent of the data-path ones: one per receiver for
  /// the POLL down-path and overheard NAKs, plus one for the NAK/ACK
  /// up-path to the sender.  With the control knobs at zero the control
  /// paths stay clean (the paper's lossless-feedback assumption).  Call
  /// before any traffic; a fully disabled config removes everything.
  void set_impairment(const ImpairmentConfig& config);

  /// Sum of the per-receiver impairment fault counters (zeros when no
  /// impairment is installed).
  ImpairmentStats impairment_stats() const;

  std::size_t receivers() const noexcept { return processes_.size(); }

  /// Sender -> all receivers, subject to per-receiver loss.
  void multicast_down(const fec::Packet& packet);

  /// Sender -> all receivers on the control path (POLLs): lossless (the
  /// paper's assumption) unless control faults are configured.
  void multicast_control_down(const fec::Packet& packet);

  /// Receiver `from` -> sender and all other receivers (feedback path).
  void multicast_up(std::size_t from, const fec::Packet& packet);

  /// Receiver `from` -> sender only (per-receiver ACKs of the reliable
  /// control mode; other receivers never see it, so it cannot perturb
  /// NAK suppression).  Subject to the control up-path impairment.
  void unicast_up(std::size_t from, const fec::Packet& packet);

  const ChannelStats& stats() const noexcept { return stats_; }

 private:
  /// The sender leg of the feedback path, shared by multicast_up and
  /// unicast_up: clean, or through the control up-path policy.
  void unicast_up_impl(std::size_t from, const fec::Packet& packet);
  /// The receiver leg of the control paths (POLLs down, overheard NAKs):
  /// clean, or through receiver r's control policy.
  void control_to_receiver(std::size_t r, const fec::Packet& packet);

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<loss::LossProcess>> processes_;
  std::vector<std::unique_ptr<Impairment>> impairments_;  // empty = clean
  /// Control-path policies: [r] = down/overhear path to receiver r,
  /// [receivers()] = up path to the sender.  Empty = clean control.
  std::vector<std::unique_ptr<Impairment>> control_impairments_;
  double delay_;
  ReceiverHandler on_receiver_;
  SenderHandler on_sender_;
  WireTap tap_;
  ChannelStats stats_;
};

}  // namespace pbl::net
