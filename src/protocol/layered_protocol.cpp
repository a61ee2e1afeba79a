#include "protocol/layered_protocol.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "fec/fec_block.hpp"
#include "fec/rse_code.hpp"
#include "net/channel.hpp"
#include "protocol/nak_suppression.hpp"
#include "sim/simulator.hpp"

namespace pbl::protocol {

using fec::Packet;
using fec::PacketType;

namespace {

constexpr std::uint64_t kPadSeq = ~std::uint64_t{0};

void put_seq(std::vector<std::uint8_t>& frame, std::uint64_t seq) {
  for (int i = 0; i < 8; ++i)
    frame.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
}

std::uint64_t read_seq(const std::vector<std::uint8_t>& frame) {
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i)
    seq |= static_cast<std::uint64_t>(frame[static_cast<std::size_t>(i)])
           << (8 * i);
  return seq;
}

std::vector<std::uint8_t> bitmap_of(const std::vector<bool>& missing) {
  std::vector<std::uint8_t> bytes((missing.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < missing.size(); ++i)
    if (missing[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return bytes;
}

bool bit_at(const std::vector<std::uint8_t>& bytes, std::size_t i) {
  return i / 8 < bytes.size() && (bytes[i / 8] >> (i % 8)) & 1u;
}

}  // namespace

struct LayeredSession::Impl {
  Impl(const loss::LossModel& loss, std::size_t receivers,
       std::size_t num_packets, const LayeredConfig& config,
       std::uint64_t seed)
      : cfg(config), num_packets(num_packets), session_seed(seed), sim(seed),
        code(config.k, config.k + config.h),
        channel(sim, loss, receivers, config.delay) {
    if (receivers == 0)
      throw std::invalid_argument("LayeredSession: receivers >= 1");
    if (num_packets == 0)
      throw std::invalid_argument("LayeredSession: num_packets >= 1");
    if (config.k + config.h > 255)
      throw std::invalid_argument("LayeredSession: k + h must be <= 255");
    if (config.reliable_control) config.retry.validate();

    Rng data_rng(seed ^ 0x1a7e6edULL);
    originals.resize(num_packets);
    for (auto& pkt : originals) {
      pkt.resize(cfg.packet_len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(data_rng());
    }

    queued_flag.assign(num_packets, true);
    for (std::uint64_t s = 0; s < num_packets; ++s) queue.push_back(s);

    rx.resize(receivers);
    for (std::size_t r = 0; r < receivers; ++r) {
      rx[r].delivered.assign(num_packets, false);
      rx[r].rng = Rng(seed).split(0x4000 + r);
    }

    if (cfg.reliable_control) {
      evicted.assign(receivers, false);
      silent_rounds.assign(receivers, 0);
    }

    if (cfg.impairment.enabled() || cfg.impairment.control_enabled())
      channel.set_impairment(cfg.impairment);

    channel.set_receiver_handler(
        [this](std::size_t r, const Packet& p) { on_receiver_packet(r, p); });
    channel.set_sender_handler(
        [this](std::size_t r, const Packet& p) { on_sender_feedback(r, p); });
  }

  // ---- sender ------------------------------------------------------------

  struct BlockState {
    std::vector<std::uint64_t> seqs;        // slot -> original seq (or kPadSeq)
    std::vector<std::uint8_t> nak_union;    // union of this round's bitmaps
    bool closed = false;

    // Reliable-control state (sized only when reliable_control).
    std::vector<bool> responded;            // per-receiver: ACK or NAK seen
    std::unique_ptr<Backoff> poll_backoff;  // re-POLL budget for this block
  };

  /// Sends the next block if enough packets are queued — or a padded
  /// final block once nothing more can arrive.
  void try_form_block() {
    if (sending) return;
    if (queue.empty()) return;
    if (queue.size() < cfg.k && outstanding_blocks > 0) return;  // wait

    BlockState block;
    block.seqs.reserve(cfg.k);
    std::vector<std::vector<std::uint8_t>> framed;
    framed.reserve(cfg.k);
    Rng pad_rng(blocks.size() ^ 0x9a9ULL);
    for (std::size_t i = 0; i < cfg.k; ++i) {
      std::uint64_t seq = kPadSeq;
      if (!queue.empty()) {
        seq = queue.front();
        queue.pop_front();
        queued_flag[seq] = false;
      }
      block.seqs.push_back(seq);
      std::vector<std::uint8_t> frame;
      frame.reserve(8 + cfg.packet_len);
      put_seq(frame, seq);
      if (seq != kPadSeq) {
        frame.insert(frame.end(), originals[seq].begin(), originals[seq].end());
      } else {
        frame.resize(8 + cfg.packet_len, 0);
        ++stats.padding_sent;  // counted at formation; sent exactly once
      }
      framed.push_back(std::move(frame));
    }
    const auto block_id = static_cast<std::uint32_t>(blocks.size());
    if (cfg.reliable_control) {
      block.responded.assign(rx.size(), false);
      block.poll_backoff = std::make_unique<Backoff>(
          cfg.retry, Rng(session_seed).split(0x9100000000ULL + block_id));
    }
    blocks.push_back(std::move(block));
    encoders.emplace_back(block_id, code, std::move(framed));
    ++outstanding_blocks;
    ++stats.blocks_sent;
    sending = true;
    send_slot(block_id, 0);
  }

  void send_slot(std::uint32_t block_id, std::size_t slot) {
    const std::size_t n = cfg.k + cfg.h;
    if (slot < n) {
      const Packet p = slot < cfg.k
                           ? encoders[block_id].data_packet(slot)
                           : encoders[block_id].parity_packet(slot - cfg.k);
      if (slot < cfg.k) {
        if (blocks[block_id].seqs[slot] != kPadSeq) ++stats.data_sent;
      } else {
        ++stats.parity_sent;
      }
      channel.multicast_down(p);
      sim.schedule_in(cfg.delta, [this, block_id, slot] {
        send_slot(block_id, slot + 1);
      });
      return;
    }
    // Block done: poll (manifest rides in the control payload).
    send_poll(block_id);
    sending = false;
    sim.schedule_in(cfg.delta, [this] { try_form_block(); });
  }

  void send_poll(std::uint32_t block_id) {
    const std::size_t n = cfg.k + cfg.h;
    Packet poll;
    poll.header.type = PacketType::kPoll;
    poll.header.tg = block_id;
    poll.header.k = static_cast<std::uint16_t>(cfg.k);
    poll.header.n = static_cast<std::uint16_t>(n);
    poll.header.count = static_cast<std::uint16_t>(n);
    for (const std::uint64_t seq : blocks[block_id].seqs)
      put_seq(poll.payload, seq);
    poll.header.payload_len = static_cast<std::uint32_t>(poll.payload.size());
    channel.multicast_control_down(poll);

    const double window = 2.0 * cfg.delay +
                          (static_cast<double>(n) + 1.0) * cfg.slot;
    if (cfg.reliable_control) {
      sim.schedule_in(window,
                      [this, block_id] { on_block_window_closed(block_id); });
    } else {
      sim.schedule_in(window, [this, block_id] { close_block(block_id); });
    }
  }

  // ---- reliable control plane (sender side) ------------------------------

  bool all_responded(std::uint32_t block_id) const {
    const auto& block = blocks[block_id];
    for (std::size_t r = 0; r < rx.size(); ++r)
      if (!evicted[r] && !block.responded[r]) return false;
    return true;
  }

  void evict(std::size_t r) {
    if (evicted[r]) return;
    evicted[r] = true;
    ++stats.evictions;
  }

  /// Reliable mode's round close: a block only closes once every live
  /// receiver has answered its POLL (with a NAK or an ACK); silent
  /// receivers age toward eviction and unanswered rounds are re-POLLed
  /// under the block's backoff until the budget runs out.
  void on_block_window_closed(std::uint32_t block_id) {
    auto& block = blocks[block_id];
    if (block.closed) return;
    if (all_responded(block_id)) {
      close_block(block_id);
      return;
    }
    for (std::size_t r = 0; r < rx.size(); ++r) {
      if (evicted[r] || block.responded[r]) continue;
      if (++silent_rounds[r] >= cfg.retry.grace_rounds) evict(r);
    }
    if (all_responded(block_id)) {
      close_block(block_id);
      return;
    }
    if (block.poll_backoff->exhausted()) {
      // Degrade, don't spin: the block closes unconfirmed, which the
      // late-NAK path and the final report make visible.
      ++stats.blocks_unconfirmed;
      close_block(block_id);
      return;
    }
    ++stats.poll_retries;
    sim.schedule_in(block.poll_backoff->next(), [this, block_id] {
      if (!blocks[block_id].closed) send_poll(block_id);
    });
  }

  void close_block(std::uint32_t block_id) {
    auto& block = blocks[block_id];
    block.closed = true;
    --outstanding_blocks;
    // Re-enqueue every original the round's NAKs named.
    for (std::size_t i = 0; i < cfg.k; ++i) {
      if (!bit_at(block.nak_union, i)) continue;
      const std::uint64_t seq = block.seqs[i];
      if (seq == kPadSeq || queued_flag[seq]) continue;
      queued_flag[seq] = true;
      queue.push_back(seq);
    }
    try_form_block();
  }

  void on_sender_feedback(std::size_t from, const Packet& p) {
    if (p.header.type != PacketType::kNak) return;
    if (p.header.tg >= blocks.size()) return;  // corrupt/foreign feedback
    auto& block = blocks[p.header.tg];
    bool any_bit = false;
    for (const std::uint8_t b : p.payload) any_bit |= b != 0;
    if (cfg.reliable_control && from < rx.size()) {
      // Any feedback proves the receiver alive and answers this block's
      // round, whether it names missing slots or confirms (empty bitmap).
      silent_rounds[from] = 0;
      if (!evicted[from]) block.responded[from] = true;
      if (!any_bit) ++stats.acks_received;
    }
    if (block.closed) {
      // Late NAK: with a reliable control plane this is a real repair
      // request whose earlier copies were lost, not stale noise — the
      // named originals ride in a future block.
      if (!cfg.reliable_control || !any_bit) return;
      ++stats.late_naks;
      bool requeued = false;
      for (std::size_t i = 0; i < cfg.k; ++i) {
        if (!bit_at(p.payload, i)) continue;
        const std::uint64_t seq = block.seqs[i];
        if (seq == kPadSeq || queued_flag[seq]) continue;
        queued_flag[seq] = true;
        queue.push_back(seq);
        requeued = true;
      }
      if (requeued) try_form_block();
      return;
    }
    if (block.nak_union.size() < p.payload.size())
      block.nak_union.resize(p.payload.size(), 0);
    for (std::size_t i = 0; i < p.payload.size(); ++i)
      block.nak_union[i] |= p.payload[i];
  }

  // ---- receivers ----------------------------------------------------------

  struct Receiver {
    std::vector<std::optional<fec::TgDecoder>> decoders;  // per block
    std::vector<bool> delivered;
    std::size_t delivered_count = 0;
    std::vector<std::unique_ptr<NakTimer>> timers;        // per block
    std::vector<std::vector<std::uint8_t>> pending_bitmap;  // per block
    Rng rng;

    // Reliable-control state, all per block and lazily sized (see
    // ensure_reliable_arrays).
    std::vector<char> poll_seen;
    std::vector<std::vector<std::uint64_t>> manifest;  // empty until polled
    std::vector<std::vector<bool>> held;  // data slots observed on the wire
    std::vector<sim::EventId> watchdog;   // fires if a block's POLL is lost
    std::vector<std::unique_ptr<Backoff>> retry_backoff;
    std::vector<sim::EventId> retry_event;  // pending NAK retransmit
  };

  void ensure_reliable_arrays(Receiver& rec, std::uint32_t b) {
    if (rec.poll_seen.size() > b) return;
    rec.poll_seen.resize(b + 1, 0);
    rec.manifest.resize(b + 1);
    rec.held.resize(b + 1);
    rec.watchdog.resize(b + 1, sim::kInvalidEvent);
    rec.retry_backoff.resize(b + 1);
    rec.retry_event.resize(b + 1, sim::kInvalidEvent);
  }

  /// Data slots of block `b` that receiver `r` still needs: by content
  /// once the manifest is known, by held wire slots before that (the
  /// conservative fallback a lost POLL forces).
  std::vector<bool> compute_missing(std::size_t r, std::uint32_t b) {
    auto& rec = rx[r];
    ensure_reliable_arrays(rec, b);
    std::vector<bool> missing(cfg.k, false);
    auto& dec = decoder(r, b);
    if (dec.decodable()) return missing;  // everything recoverable locally
    if (!rec.manifest[b].empty()) {
      for (std::size_t i = 0; i < cfg.k; ++i) {
        const std::uint64_t seq = rec.manifest[b][i];
        if (seq == kPadSeq || rec.delivered[seq]) continue;
        missing[i] = true;
      }
    } else {
      auto& held = rec.held[b];
      if (held.size() < cfg.k) held.resize(cfg.k, false);
      for (std::size_t i = 0; i < cfg.k; ++i) missing[i] = !held[i];
    }
    return missing;
  }

  /// Multicasts receiver r's NAK naming the data slots of block `b` set
  /// in `bitmap`.
  void send_nak(std::size_t r, std::uint32_t b,
                std::vector<std::uint8_t> bitmap) {
    ++stats.naks_sent;
    Packet nak;
    nak.header.type = PacketType::kNak;
    nak.header.tg = b;
    nak.payload = std::move(bitmap);
    nak.header.payload_len = static_cast<std::uint32_t>(nak.payload.size());
    channel.multicast_up(r, nak);
  }

  /// The empty-bitmap ACK: unicast, so other receivers' damping never
  /// sees it.
  void send_ack(std::size_t r, std::uint32_t b) {
    ++stats.acks_sent;
    Packet ack;
    ack.header.type = PacketType::kNak;
    ack.header.tg = b;
    ack.header.count = 0;
    ack.header.payload_len = 0;
    channel.unicast_up(r, ack);
  }

  void cancel_retry(std::size_t r, std::uint32_t b) {
    auto& rec = rx[r];
    if (rec.retry_event.size() <= b) return;
    auto& ev = rec.retry_event[b];
    if (ev != sim::kInvalidEvent) {
      sim.cancel(ev);
      ev = sim::kInvalidEvent;
    }
  }

  /// A NAK for block `b` is in flight; if its repair does not show up
  /// (in a future block, by content) it is retransmitted under backoff
  /// until nothing is missing or the budget runs out.
  void arm_retry(std::size_t r, std::uint32_t b) {
    auto& rec = rx[r];
    ensure_reliable_arrays(rec, b);
    cancel_retry(r, b);
    auto& bo = rec.retry_backoff[b];
    if (!bo)
      bo = std::make_unique<Backoff>(
          cfg.retry, Rng(session_seed).split(
                         0x7000000000ULL +
                         (static_cast<std::uint64_t>(r) << 32) + b));
    if (bo->exhausted()) return;
    const double wait = 2.0 * cfg.delay + bo->next();
    rec.retry_event[b] = sim.schedule_in(wait, [this, r, b] {
      rx[r].retry_event[b] = sim::kInvalidEvent;
      const auto missing = compute_missing(r, b);
      if (std::none_of(missing.begin(), missing.end(),
                       [](bool m) { return m; }))
        return;
      ++stats.nak_retries;
      send_nak(r, b, bitmap_of(missing));
      arm_retry(r, b);
    });
  }

  /// Fires when a block's shards were seen but its POLL never arrived:
  /// the receiver opens the feedback round itself with an unsolicited
  /// NAK for the wire slots it is missing.
  void on_watchdog(std::size_t r, std::uint32_t b) {
    auto& rec = rx[r];
    rec.watchdog[b] = sim::kInvalidEvent;
    if (rec.poll_seen[b]) return;
    const auto missing = compute_missing(r, b);
    if (std::none_of(missing.begin(), missing.end(),
                     [](bool m) { return m; }))
      return;
    send_nak(r, b, bitmap_of(missing));
    arm_retry(r, b);
  }

  fec::TgDecoder& decoder(std::size_t r, std::uint32_t block_id) {
    auto& rec = rx[r];
    if (rec.decoders.size() <= block_id) rec.decoders.resize(block_id + 1);
    if (!rec.decoders[block_id])
      rec.decoders[block_id].emplace(block_id, code, 8 + cfg.packet_len);
    return *rec.decoders[block_id];
  }

  void deliver(std::size_t r, const std::vector<std::uint8_t>& frame) {
    const std::uint64_t seq = read_seq(frame);
    if (seq == kPadSeq) return;
    auto& rec = rx[r];
    if (rec.delivered[seq]) {
      ++stats.duplicate_deliveries;
      return;
    }
    // Byte-exact verification of the delivered content.
    if (!std::equal(frame.begin() + 8, frame.end(), originals[seq].begin(),
                    originals[seq].end()))
      corrupted = true;
    rec.delivered[seq] = true;
    if (++rec.delivered_count == num_packets)
      stats.completion_time = std::max(stats.completion_time, sim.now());
  }

  void on_receiver_packet(std::size_t r, const Packet& p) {
    // Block ids grow with blocks.size() and all per-block arrays are
    // indexed by them, so an adversarial channel must not be able to
    // reach this switch with an id we never issued (decoder() would
    // otherwise allocate a multi-gigabyte vector for a corrupt tg).
    if (p.header.tg >= blocks.size()) return;
    switch (p.header.type) {
      case PacketType::kData:
      case PacketType::kParity: {
        // Wrong block shape or frame size: not a shard of this session.
        if (p.header.index >= cfg.k + cfg.h ||
            p.payload.size() != 8 + cfg.packet_len)
          return;
        if (cfg.reliable_control) {
          auto& rec = rx[r];
          const std::uint32_t b = p.header.tg;
          ensure_reliable_arrays(rec, b);
          if (p.header.index < cfg.k) {
            auto& held = rec.held[b];
            if (held.size() < cfg.k) held.resize(cfg.k, false);
            held[p.header.index] = true;
          }
          // A shard announces the block; if its POLL never shows up the
          // watchdog opens the feedback round from this side.  The wait
          // covers the rest of the block, the POLL round trip, and the
          // widest NAK backoff, plus one retry quantum of slack.
          if (!rec.poll_seen[b] && rec.watchdog[b] == sim::kInvalidEvent) {
            const double n = static_cast<double>(cfg.k + cfg.h);
            const double wait = n * cfg.delta + 2.0 * cfg.delay +
                                (n + 1.0) * cfg.slot + kInitialBackoff;
            rec.watchdog[b] =
                sim.schedule_in(wait, [this, r, b] { on_watchdog(r, b); });
          }
        }
        auto& dec = decoder(r, p.header.tg);
        const bool was_decodable = dec.decodable();
        if (!dec.add(p)) return;
        if (p.header.type == PacketType::kData) deliver(r, p.payload);
        if (!was_decodable && dec.decodable()) {
          const auto& rebuilt = dec.reconstruct();
          stats.packets_decoded += dec.decoded_packets();
          for (const auto& frame : rebuilt) deliver(r, frame);
        }
        break;
      }
      case PacketType::kPoll:
        on_poll(r, p);
        break;
      case PacketType::kNak: {
        // Damping: cancel our pending NAK iff the overheard bitmap covers
        // everything we miss from this block.
        auto& rec = rx[r];
        const std::uint32_t b = p.header.tg;
        if (rec.timers.size() <= b || !rec.timers[b] ||
            !rec.timers[b]->pending())
          return;
        bool covered = true;
        const auto& mine = rec.pending_bitmap[b];
        for (std::size_t i = 0; i < cfg.k && covered; ++i)
          if (bit_at(mine, i) && !bit_at(p.payload, i)) covered = false;
        if (covered) {
          rec.timers[b]->disarm();
          ++stats.naks_suppressed;
        }
        break;
      }
    }
  }

  void on_poll(std::size_t r, const Packet& poll) {
    if (poll.payload.size() < cfg.k * 8) return;  // manifest incomplete
    auto& rec = rx[r];
    const std::uint32_t b = poll.header.tg;
    // Missing = data slots whose CONTENT (by the manifest) we lack.
    std::vector<bool> missing(cfg.k, false);
    std::size_t count = 0;
    auto& dec = decoder(r, b);
    const bool decoded = dec.decodable();
    std::vector<std::uint64_t> seqs(cfg.k, kPadSeq);
    for (std::size_t i = 0; i < cfg.k; ++i) {
      std::uint64_t seq = 0;
      for (int byte = 0; byte < 8; ++byte)
        seq |= static_cast<std::uint64_t>(
                   poll.payload[i * 8 + static_cast<std::size_t>(byte)])
               << (8 * byte);
      seqs[i] = seq;
      if (seq == kPadSeq) continue;
      if (decoded || rec.delivered[seq]) continue;
      missing[i] = true;
      ++count;
    }
    if (cfg.reliable_control) {
      ensure_reliable_arrays(rec, b);
      rec.poll_seen[b] = 1;
      rec.manifest[b] = std::move(seqs);
      if (rec.watchdog[b] != sim::kInvalidEvent) {
        sim.cancel(rec.watchdog[b]);
        rec.watchdog[b] = sim::kInvalidEvent;
      }
      if (count == 0) {
        // Reliable mode answers every POLL: silence is reserved for the
        // dead.
        cancel_retry(r, b);
        send_ack(r, b);
        return;
      }
    }
    if (count == 0) return;

    if (rec.timers.size() <= b) {
      rec.timers.resize(b + 1);
      rec.pending_bitmap.resize(b + 1);
    }
    rec.pending_bitmap[b] = bitmap_of(missing);
    if (!rec.timers[b]) {
      rec.timers[b] = std::make_unique<NakTimer>(sim, [this, r, b](std::size_t) {
        send_nak(r, b, rx[r].pending_bitmap[b]);
        // If this NAK (or its repair) is lost, retransmit under backoff.
        if (cfg.reliable_control) arm_retry(r, b);
      });
    }
    rec.timers[b]->arm(count,
                       nak_backoff(poll.header.count, count, cfg.slot, rec.rng));
  }

  // ---- run ----------------------------------------------------------------

  LayeredStats run() {
    try_form_block();
    if (cfg.reliable_control && cfg.retry.session_deadline > 0.0) {
      sim.run(cfg.retry.session_deadline);
      if (!sim.queue().empty()) {
        stats.report.deadline_expired = true;
        sim.queue().clear();
      }
    } else {
      sim.run();
    }
    bool all = !corrupted;
    for (const auto& rec : rx)
      if (rec.delivered_count != num_packets) all = false;
    stats.all_delivered = all;
    stats.impairment = channel.impairment_stats();
    const auto n = static_cast<double>(num_packets);
    stats.tx_per_packet =
        static_cast<double>(stats.data_sent + stats.parity_sent +
                            stats.padding_sent) /
        n;
    stats.rm_tx_per_packet = static_cast<double>(stats.data_sent) / n;
    build_report();
    return stats;
  }

  /// Fills LayeredStats::report on every exit path.
  void build_report() {
    auto& rep = stats.report;
    rep.delivered.assign(rx.size(), std::vector<bool>(num_packets, false));
    for (std::size_t r = 0; r < rx.size(); ++r)
      for (std::size_t u = 0; u < num_packets; ++u)
        rep.delivered[r][u] = rx[r].delivered[u];
    rep.evicted.assign(rx.size(), false);
    for (std::size_t r = 0; r < evicted.size(); ++r)
      rep.evicted[r] = evicted[r];
    rep.complete = stats.all_delivered && stats.evictions == 0 &&
                   stats.blocks_unconfirmed == 0 && !rep.deadline_expired;
  }

  LayeredConfig cfg;
  std::size_t num_packets;
  std::uint64_t session_seed;
  sim::Simulator sim;
  fec::RseCode code;
  net::MulticastChannel channel;

  std::vector<std::vector<std::uint8_t>> originals;
  std::deque<std::uint64_t> queue;
  std::vector<bool> queued_flag;
  std::vector<BlockState> blocks;
  std::vector<fec::TgEncoder> encoders;
  std::size_t outstanding_blocks = 0;
  bool sending = false;

  std::vector<Receiver> rx;
  bool corrupted = false;

  // Reliable-control liveness (sized only when reliable_control).
  std::vector<bool> evicted;
  std::vector<std::size_t> silent_rounds;

  LayeredStats stats;
};

LayeredSession::LayeredSession(const loss::LossModel& loss,
                               std::size_t receivers, std::size_t num_packets,
                               const LayeredConfig& config, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(loss, receivers, num_packets, config,
                                   seed)) {}

LayeredSession::~LayeredSession() = default;

LayeredStats LayeredSession::run() { return impl_->run(); }

}  // namespace pbl::protocol
