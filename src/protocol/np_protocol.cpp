#include "protocol/np_protocol.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "protocol/np_core.hpp"

namespace pbl::protocol {

using fec::Packet;
using fec::PacketType;

// The simulated engine around the NP cores: a send pump that spaces
// frames by `delta`, one receiver core per receiver, multicast NAKs
// handed to the other receivers' cores as overheard, and the stats and
// latency accounting.  Every protocol decision is the cores'.
struct NpSession::Impl final : NpSenderCore::Io {
  struct Receiver final : NpReceiverCore::Io {
    Receiver(Impl& session, std::size_t index, NpReceiverCore::Setup setup)
        : s(session), r(index),
          core(session.code, session.cfg, std::move(setup), *this,
               session.stats.receivers) {}

    /// NAKs are multicast (other receivers overhear them for damping);
    /// an ACK goes to the sender alone.
    void send_feedback(Packet&& feedback) override {
      if (feedback.header.count > 0)
        s.channel.multicast_up(r, feedback);
      else
        s.channel.unicast_up(r, feedback);
    }
    void decoded(std::size_t tg,
                 const std::vector<std::vector<std::uint8_t>>& data) override {
      s.on_decoded(tg, data, core.done_count() == s.num_tgs);
    }

    Impl& s;
    std::size_t r;
    NpReceiverCore core;
    sim::EventId timer = sim::kInvalidEvent;
  };

  Impl(const loss::LossModel& loss, std::size_t receivers, std::size_t num_tgs,
       const NpConfig& config, std::uint64_t seed,
       std::vector<std::vector<std::vector<std::uint8_t>>> provided)
      : cfg(config), num_receivers(receivers), num_tgs(num_tgs), sim(seed),
        code(config.k, config.k + config.h),
        channel(sim, loss, receivers, config.delay),
        // The collect window covers the slowest slotted NAK: the POLL's
        // downlink, slot k (a receiver needing one packet) and the NAK's
        // uplink.
        window(2.0 * config.delay +
               static_cast<double>(config.k + 1) * config.slot),
        sender(cfg,
               {.members = receivers,
                .num_tgs = num_tgs,
                .poll_window = window,
                .seed = seed,
                .proactive = cfg.proactive,
                .adaptive = cfg.adaptive},
               *this, stats.sender) {
    // The code, the channel and the cores check NP's parameters; the
    // receivers' priors are this engine's own.
    if (!cfg.resume.receiver_decoded.empty() &&
        cfg.resume.receiver_decoded.size() != receivers)
      throw std::invalid_argument(
          "NpSession: resume.receiver_decoded needs one bitmap per receiver");

    if (provided.empty()) {
      // Random source data, one TG at a time.
      Rng data_rng(seed ^ 0xabcdef12345ULL);
      source.resize(num_tgs);
      for (std::size_t i = 0; i < num_tgs; ++i) {
        source[i].resize(cfg.k);
        for (auto& pkt : source[i]) {
          pkt.resize(cfg.packet_len);
          for (auto& b : pkt) b = static_cast<std::uint8_t>(data_rng());
        }
      }
    } else {
      source = std::move(provided);
    }
    check_tg_shape(cfg, source);
    encoders.reserve(num_tgs);
    for (std::size_t i = 0; i < num_tgs; ++i)
      encoders.emplace_back(static_cast<std::uint32_t>(i), code, source[i]);

    rx.reserve(receivers);
    const auto& priors = cfg.resume.receiver_decoded;
    for (std::size_t r = 0; r < receivers; ++r)
      rx.push_back(std::make_unique<Receiver>(
          *this, r,
          NpReceiverCore::Setup{
              .num_tgs = num_tgs,
              .poll_window = window,
              .slot = cfg.slot,
              .rng = Rng(seed).split(0x1000 + r),
              .prior_decoded = priors.empty() ? std::vector<bool>{}
                                              : priors[r],
              .incarnation = cfg.resume.receiver_incarnation}));
    // Receivers that hold a TG from a prior life count toward its
    // all-receivers-done latency mark.
    tg_done.assign(num_tgs, 0);
    first_send.assign(num_tgs, -1.0);
    latency.assign(num_tgs, -1.0);
    for (const auto& rec : rx)
      for (std::size_t i = 0; i < num_tgs; ++i)
        if (rec->core.done()[i]) ++tg_done[i];

    if (cfg.impairment.enabled() || cfg.impairment.control_enabled())
      channel.set_impairment(cfg.impairment);
    channel.set_receiver_handler(
        [this](std::size_t r, const Packet& p) { on_receiver_packet(r, p); });
    channel.set_sender_handler([this](std::size_t r, const Packet& p) {
      if (sender.finished()) return;  // a finished or dead sender hears nothing
      sender.on_feedback(sim.now(), r, p.header);
      sender.on_feedback_drained(sim.now());
    });
  }

  // ---- sender engine -----------------------------------------------------

  void send_burst(const NpBurst& b) override {
    burst = b;
    burst_sent = 0;
    schedule_pump();
  }

  /// The pump sends one frame per `delta`; the slot after the last frame
  /// reports the burst done, so the POLL that follows is spaced too.
  void schedule_pump() {
    sim.schedule_at(std::max(sim.now(), last_send + cfg.delta), [this] {
      if (burst_sent == burst.count) {
        sender.on_burst_done(sim.now(), false);
        return;
      }
      const std::size_t i = burst.first + burst_sent;
      auto& enc = encoders[burst.tg];
      if (!transmit(burst.kind == BurstKind::kData ? enc.data_packet(i)
                                                   : enc.parity_packet(i))) {
        sender.on_burst_done(sim.now(), true);
        return;
      }
      ++burst_sent;
      schedule_pump();
    });
  }

  bool send_poll(Packet poll, const std::vector<std::size_t>*) override {
    return transmit(std::move(poll));
  }

  void send_end() override {}  // receivers quiesce on their own

  void arm_timer(double when) override {
    disarm_timer();
    sender_timer = sim.schedule_at(when, [this] {
      sender_timer = sim::kInvalidEvent;
      sender.on_timer(sim.now());
    });
  }

  void disarm_timer() override {
    if (sender_timer == sim::kInvalidEvent) return;
    sim.cancel(sender_timer);
    sender_timer = sim::kInvalidEvent;
  }

  void session_over() override { disarm_timer(); }

  /// Puts one frame on the channel; false once the crash fault fired
  /// (the sender dies BEFORE its (N+1)th transmission leaves).
  bool transmit(Packet p) {
    if (cfg.crash_after_tx != kNoSenderCrash && tx_count >= cfg.crash_after_tx) {
      stats.sender_crashed = true;
      return false;
    }
    ++tx_count;
    last_send = sim.now();
    // Every downstream packet carries the sender's incarnation so a dead
    // incarnation's stragglers are recognisable at the receivers.
    p.header.incarnation = static_cast<std::uint8_t>(cfg.incarnation);
    if (p.header.type == PacketType::kPoll) {
      channel.multicast_control_down(p);
      return true;
    }
    if (p.header.type == PacketType::kData) {
      if (first_send[p.header.tg] < 0.0) first_send[p.header.tg] = sim.now();
      ++stats.data_sent;
    } else if (burst.kind == BurstKind::kProactive) {
      ++stats.proactive_sent;
    } else {
      ++stats.parity_sent;
    }
    channel.multicast_down(p);
    return true;
  }

  // ---- receivers ---------------------------------------------------------

  void on_receiver_packet(std::size_t r, const Packet& p) {
    auto& rec = *rx[r];
    if (p.header.type == PacketType::kNak) {
      // Another receiver's NAK: damping — except in reliable mode, where
      // a suppressed receiver is indistinguishable from a crashed one, so
      // everyone answers (reliability costs feedback traffic).
      if (!cfg.reliable_control)
        rec.core.on_overheard_nak(p.header.tg, p.header.count);
    } else {
      rec.core.on_packet(sim.now(), Packet(p));
    }
    sync_timer(rec);
  }

  /// Keeps receiver r's simulator event on its core's NAK due time.
  void sync_timer(Receiver& rec) {
    if (rec.timer != sim::kInvalidEvent) {
      sim.cancel(rec.timer);
      rec.timer = sim::kInvalidEvent;
    }
    const double due = rec.core.nak_due();
    if (due == std::numeric_limits<double>::infinity()) return;
    rec.timer = sim.schedule_at(std::max(due, sim.now()), [this, &rec] {
      rec.timer = sim::kInvalidEvent;
      rec.core.on_timer(sim.now());
      sync_timer(rec);
    });
  }

  /// A receiver decoded `tg` (`all` once it holds every TG).
  void on_decoded(std::size_t tg,
                  const std::vector<std::vector<std::uint8_t>>& data,
                  bool all) {
    if (data != source[tg]) corrupted = true;
    // Resumed TGs that were never (re)sent this life have no first_send;
    // their latency belongs to the incarnation that actually sent them.
    if (++tg_done[tg] >= num_receivers && first_send[tg] >= 0.0 &&
        latency[tg] < 0.0)
      latency[tg] = sim.now() - first_send[tg];
    if (all) stats.completion_time = std::max(stats.completion_time, sim.now());
  }

  // ---- run -----------------------------------------------------------------

  NpStats run() {
    sender.start(sim.now());
    sim.run();
    for (const auto& enc : encoders)
      stats.parities_encoded += enc.parities_encoded();
    bool all = !corrupted;
    for (const auto& rec : rx)
      if (rec->core.done_count() != num_tgs) all = false;
    stats.packet_deliveries = channel.stats().data_deliveries;
    stats.impairment = channel.impairment_stats();
    std::vector<double> latencies;
    for (const double l : latency)
      if (l >= 0.0) latencies.push_back(l);
    if (!latencies.empty()) {
      double sum = 0.0;
      for (const double l : latencies) sum += l;
      stats.mean_tg_latency = sum / static_cast<double>(latencies.size());
      std::sort(latencies.begin(), latencies.end());
      stats.p95_tg_latency =
          latencies[std::min(latencies.size() - 1,
                             static_cast<std::size_t>(
                                 0.95 * static_cast<double>(latencies.size())))];
    }
    stats.all_delivered = all;
    stats.final_proactive = static_cast<double>(sender.proactive());
    stats.tx_per_packet =
        static_cast<double>(stats.data_sent + stats.parity_sent +
                            stats.proactive_sent) /
        (static_cast<double>(cfg.k) * static_cast<double>(num_tgs));
    // The outcome on every exit path — complete, degraded, or
    // deadline-expired alike.
    auto& rep = stats.report;
    for (const auto& rec : rx) rep.delivered.push_back(rec->core.done());
    rep.evicted = sender.evicted();
    rep.deadline_expired = sender.report().deadline_expired;
    rep.complete = all && stats.sender.evictions == 0 &&
                   stats.sender.tgs_exhausted == 0 &&
                   stats.sender.tgs_unconfirmed == 0 && !rep.deadline_expired;
    return stats;
  }

  NpConfig cfg;
  std::size_t num_receivers;
  std::size_t num_tgs;
  sim::Simulator sim;
  fec::RseCode code;
  net::MulticastChannel channel;
  double window;
  // The sender core counts into stats.sender and every receiver core
  // into stats.receivers, which so holds their sum.
  NpStats stats;
  NpSenderCore sender;

  std::vector<std::vector<std::vector<std::uint8_t>>> source;
  std::vector<fec::TgEncoder> encoders;
  std::vector<std::unique_ptr<Receiver>> rx;

  // Send pump.
  NpBurst burst;
  std::size_t burst_sent = 0;
  double last_send = -1e9;
  std::size_t tx_count = 0;  // transmissions so far (crash countdown)
  sim::EventId sender_timer = sim::kInvalidEvent;

  // Latency accounting, per TG.
  std::vector<std::size_t> tg_done;  // receivers holding the TG
  std::vector<double> first_send;    // when its first data packet left
  std::vector<double> latency;       // set once every receiver holds it
  bool corrupted = false;
};

NpSession::NpSession(const loss::LossModel& loss, std::size_t receivers,
                     std::size_t num_tgs, const NpConfig& config,
                     std::uint64_t seed)
    : impl_(std::make_unique<Impl>(
          loss, receivers, num_tgs, config, seed,
          std::vector<std::vector<std::vector<std::uint8_t>>>{})) {}

NpSession::NpSession(const loss::LossModel& loss, std::size_t receivers,
                     std::vector<std::vector<std::vector<std::uint8_t>>> data,
                     const NpConfig& config, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(loss, receivers, data.size(), config, seed,
                                   std::move(data))) {}

NpSession::~NpSession() = default;

NpStats NpSession::run() { return impl_->run(); }

void NpSession::set_wire_tap(std::function<void(const fec::Packet&)> tap) {
  impl_->channel.set_wire_tap(std::move(tap));
}

const std::vector<std::vector<std::vector<std::uint8_t>>>&
NpSession::source_data() const {
  return impl_->source;
}

}  // namespace pbl::protocol
