#include "protocol/arq_nofec.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "fec/packet.hpp"
#include "net/channel.hpp"
#include "protocol/nak_suppression.hpp"
#include "sim/simulator.hpp"

namespace pbl::protocol {

using fec::Packet;
using fec::PacketType;

namespace {

/// Bitmap helpers: bit i of the NAK payload marks original i as missing.
std::vector<std::uint8_t> to_bitmap(const std::vector<bool>& missing) {
  std::vector<std::uint8_t> bytes((missing.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < missing.size(); ++i)
    if (missing[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return bytes;
}

bool bit_set(const std::vector<std::uint8_t>& bytes, std::size_t i) {
  return i / 8 < bytes.size() && (bytes[i / 8] >> (i % 8)) & 1u;
}

}  // namespace

struct ArqSession::Impl {
  Impl(const loss::LossModel& loss, std::size_t receivers, std::size_t num_tgs,
       const ArqConfig& config, std::uint64_t seed)
      : cfg(config), num_tgs(num_tgs), sim(seed),
        channel(sim, loss, receivers, config.delay) {
    if (receivers == 0) throw std::invalid_argument("ArqSession: receivers >= 1");
    if (num_tgs == 0) throw std::invalid_argument("ArqSession: num_tgs >= 1");

    tg_state.resize(num_tgs);
    rx.resize(receivers);
    for (std::size_t r = 0; r < receivers; ++r) {
      rx[r].have.assign(num_tgs, std::vector<bool>(cfg.k, false));
      rx[r].missing_count.assign(num_tgs, cfg.k);
      rx[r].poll_round.assign(num_tgs, 0);
      rx[r].nak_event.assign(num_tgs, sim::kInvalidEvent);
      rx[r].done_count = 0;
      rx[r].rng = Rng(seed).split(0x2000 + r);
    }

    channel.set_receiver_handler(
        [this](std::size_t r, const Packet& p) { on_receiver_packet(r, p); });
    channel.set_sender_handler(
        [this](std::size_t r, const Packet& p) { on_sender_feedback(r, p); });
  }

  struct TgState {
    std::uint32_t round = 0;  // feedback round (POLLs and NAKs carry it)
    sim::EventId deadline = sim::kInvalidEvent;
    bool serving = false;
  };

  // ---- sender ----------------------------------------------------------

  void schedule_send() {
    if (send_scheduled) return;
    if (urgent.empty() && next_tg >= num_tgs) return;
    const double at = std::max(sim.now(), last_send_time + cfg.delta);
    send_scheduled = true;
    sim.schedule_at(at, [this] {
      send_scheduled = false;
      send_next();
    });
  }

  void send_next() {
    last_send_time = sim.now();
    if (!urgent.empty()) {
      Packet p = std::move(urgent.front());
      urgent.pop_front();
      emit(p);
    } else if (next_tg < num_tgs) {
      emit(make_data(next_tg, next_index, /*retx=*/false));
      if (++next_index == cfg.k) {
        urgent.push_back(make_poll(next_tg, cfg.k));
        next_index = 0;
        ++next_tg;
      }
    }
    schedule_send();
  }

  Packet make_data(std::size_t tg, std::size_t i, bool retx) const {
    Packet p;
    p.header.type = PacketType::kData;
    p.header.tg = static_cast<std::uint32_t>(tg);
    p.header.index = static_cast<std::uint16_t>(i);
    p.header.k = static_cast<std::uint16_t>(cfg.k);
    p.header.n = static_cast<std::uint16_t>(cfg.k);
    p.header.count = retx ? 1 : 0;  // marks repair transmissions
    return p;
  }

  Packet make_poll(std::size_t tg, std::size_t s) {
    Packet p;
    p.header.type = PacketType::kPoll;
    p.header.tg = static_cast<std::uint32_t>(tg);
    p.header.k = static_cast<std::uint16_t>(cfg.k);
    p.header.count = static_cast<std::uint16_t>(s);
    p.header.seq = ++tg_state[tg].round;  // stale NAKs are filtered by round
    return p;
  }

  void emit(const Packet& p) {
    if (p.header.type == PacketType::kData) {
      if (p.header.count)
        ++stats.retransmissions;
      else
        ++stats.data_sent;
      channel.multicast_down(p);
      return;
    }
    ++stats.polls_sent;
    channel.multicast_control_down(p);
    arm_poll_deadline(p.header.tg, p.header.count);
  }

  void arm_poll_deadline(std::size_t tg, std::size_t s) {
    auto& st = tg_state[tg];
    st.serving = false;
    if (st.deadline != sim::kInvalidEvent) sim.cancel(st.deadline);
    const double window =
        2.0 * cfg.delay + (static_cast<double>(s) + 1.0) * cfg.slot;
    st.deadline = sim.schedule_in(window, [this, tg] {
      tg_state[tg].deadline = sim::kInvalidEvent;
    });
  }

  void on_sender_feedback(std::size_t /*from*/, const Packet& p) {
    if (p.header.type != PacketType::kNak) return;
    const std::size_t tg = p.header.tg;
    auto& st = tg_state[tg];
    if (st.serving) return;
    if (p.header.seq != st.round) return;  // stale NAK from an earlier round
    if (st.deadline != sim::kInvalidEvent) {
      sim.cancel(st.deadline);
      st.deadline = sim::kInvalidEvent;
    }
    st.serving = true;
    std::size_t count = 0;
    for (std::size_t i = 0; i < cfg.k; ++i) {
      if (bit_set(p.payload, i)) {
        urgent.push_back(make_data(tg, i, /*retx=*/true));
        ++count;
      }
    }
    urgent.push_back(make_poll(tg, count));
    schedule_send();
  }

  // ---- receivers -------------------------------------------------------

  struct Receiver {
    std::vector<std::vector<bool>> have;    // per TG, per packet
    std::vector<std::size_t> missing_count; // per TG
    std::vector<std::uint32_t> poll_round;  // latest POLL round per TG
    std::vector<sim::EventId> nak_event;    // pending NAK per TG
    std::size_t done_count = 0;
    Rng rng;
  };

  void on_receiver_packet(std::size_t r, const Packet& p) {
    auto& rec = rx[r];
    const std::size_t tg = p.header.tg;
    switch (p.header.type) {
      case PacketType::kData: {
        auto& have = rec.have[tg];
        if (have[p.header.index]) {
          ++stats.duplicate_receptions;
          return;
        }
        have[p.header.index] = true;
        if (--rec.missing_count[tg] == 0) {
          cancel_nak(r, tg);
          if (++rec.done_count == num_tgs)
            stats.completion_time = std::max(stats.completion_time, sim.now());
        }
        break;
      }
      case PacketType::kPoll:
        rec.poll_round[tg] = p.header.seq;
        on_poll(r, tg, p.header.count);
        break;
      case PacketType::kNak: {
        // Damping: suppress own NAK iff the overheard one covers our
        // whole missing set.
        if (rec.nak_event[tg] == sim::kInvalidEvent) return;
        bool covered = true;
        for (std::size_t i = 0; i < cfg.k && covered; ++i)
          if (!rec.have[tg][i] && !bit_set(p.payload, i)) covered = false;
        if (covered) {
          cancel_nak(r, tg);
          ++stats.naks_suppressed;
        }
        break;
      }
      case PacketType::kParity:
        throw std::logic_error("ArqSession: unexpected parity packet");
    }
  }

  void cancel_nak(std::size_t r, std::size_t tg) {
    if (rx[r].nak_event[tg] != sim::kInvalidEvent) {
      sim.cancel(rx[r].nak_event[tg]);
      rx[r].nak_event[tg] = sim::kInvalidEvent;
    }
  }

  void on_poll(std::size_t r, std::size_t tg, std::size_t s) {
    auto& rec = rx[r];
    const std::size_t l = rec.missing_count[tg];
    if (l == 0) return;
    cancel_nak(r, tg);
    const double backoff = nak_backoff(s, l, cfg.slot, rec.rng);
    rec.nak_event[tg] = sim.schedule_in(backoff, [this, r, tg] {
      rx[r].nak_event[tg] = sim::kInvalidEvent;
      ++stats.naks_sent;
      Packet nak;
      nak.header.type = PacketType::kNak;
      nak.header.tg = static_cast<std::uint32_t>(tg);
      std::vector<bool> missing(cfg.k);
      for (std::size_t i = 0; i < cfg.k; ++i) missing[i] = !rx[r].have[tg][i];
      nak.payload = to_bitmap(missing);
      nak.header.count =
          static_cast<std::uint16_t>(rx[r].missing_count[tg]);
      nak.header.seq = rx[r].poll_round[tg];  // answers this round's POLL
      nak.header.payload_len = static_cast<std::uint32_t>(nak.payload.size());
      channel.multicast_up(r, nak);
    });
  }

  ArqStats run() {
    schedule_send();
    sim.run();
    bool all = true;
    for (const auto& rec : rx)
      if (rec.done_count != num_tgs) all = false;
    stats.all_delivered = all;
    stats.tx_per_packet =
        static_cast<double>(stats.data_sent + stats.retransmissions) /
        (static_cast<double>(cfg.k) * static_cast<double>(num_tgs));
    return stats;
  }

  ArqConfig cfg;
  std::size_t num_tgs;
  sim::Simulator sim;
  net::MulticastChannel channel;

  std::vector<TgState> tg_state;
  std::deque<Packet> urgent;
  std::size_t next_tg = 0;
  std::size_t next_index = 0;
  double last_send_time = -1e9;
  bool send_scheduled = false;

  std::vector<Receiver> rx;
  ArqStats stats;
};

ArqSession::ArqSession(const loss::LossModel& loss, std::size_t receivers,
                       std::size_t num_tgs, const ArqConfig& config,
                       std::uint64_t seed)
    : impl_(std::make_unique<Impl>(loss, receivers, num_tgs, config, seed)) {}

ArqSession::~ArqSession() = default;

ArqStats ArqSession::run() { return impl_->run(); }

}  // namespace pbl::protocol
