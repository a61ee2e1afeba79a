#include "net/impairment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pbl::net {

ImpairmentStats& ImpairmentStats::operator+=(const ImpairmentStats& o) noexcept {
  processed += o.processed;
  dropped += o.dropped;
  burst_dropped += o.burst_dropped;
  duplicated += o.duplicated;
  corrupted += o.corrupted;
  corrupt_dropped += o.corrupt_dropped;
  truncated += o.truncated;
  reordered += o.reordered;
  delivered += o.delivered;
  control_processed += o.control_processed;
  control_dropped += o.control_dropped;
  control_duplicated += o.control_duplicated;
  control_delayed += o.control_delayed;
  control_delivered += o.control_delivered;
  return *this;
}

namespace {

void validate_prob(double p, const char* name) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument(std::string("Impairment: ") + name +
                                " must be in [0, 1]");
}

}  // namespace

Impairment::Impairment(const ImpairmentConfig& config)
    : cfg_(config), rng_(config.seed),
      // A split() substream, NOT a reseed: the control stream must be
      // independent of rng_'s draw sequence so enabling control faults
      // leaves the data-path schedule of this seed byte-identical.
      control_rng_(Rng(config.seed).split(0xc0117401ULL)) {
  validate_prob(cfg_.drop_prob, "drop_prob");
  validate_prob(cfg_.dup_prob, "dup_prob");
  validate_prob(cfg_.corrupt_prob, "corrupt_prob");
  validate_prob(cfg_.truncate_prob, "truncate_prob");
  validate_prob(cfg_.reorder_prob, "reorder_prob");
  validate_prob(cfg_.control_drop, "control_drop");
  validate_prob(cfg_.control_dup, "control_dup");
  if (cfg_.control_delay < 0.0)
    throw std::invalid_argument("Impairment: control_delay must be >= 0");
  if (cfg_.delay_jitter < 0.0)
    throw std::invalid_argument("Impairment: delay_jitter must be >= 0");
  if (cfg_.reorder_step < 0.0)
    throw std::invalid_argument("Impairment: reorder_step must be >= 0");
  if (cfg_.burst_drop_p != 0.0) {
    validate_prob(cfg_.burst_drop_p, "burst_drop_p");
    burst_ = loss::GilbertLossModel::from_packet_stats(
                 cfg_.burst_drop_p, cfg_.burst_len, cfg_.burst_delta)
                 .make_process(rng_.split(0x6275727374ULL), 0);
  }
}

bool Impairment::pre_drop(double now) {
  if (burst_ && burst_->lost(now)) {
    ++stats_.burst_dropped;
    return true;
  }
  if (cfg_.drop_prob > 0.0 && rng_.bernoulli(cfg_.drop_prob)) {
    ++stats_.dropped;
    return true;
  }
  return false;
}

void Impairment::corrupt_bytes(std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  const std::size_t flips = 1 + static_cast<std::size_t>(rng_.below(4));
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t pos = static_cast<std::size_t>(rng_.below(bytes.size()));
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
  }
}

void Impairment::truncate_bytes(std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  bytes.resize(static_cast<std::size_t>(rng_.below(bytes.size())));
}

std::vector<Impairment::Delivery> Impairment::apply(const fec::Packet& packet,
                                                    double now) {
  ++stats_.processed;
  std::vector<Delivery> out;
  if (pre_drop(now)) return out;

  std::size_t copies = 1;
  if (cfg_.dup_prob > 0.0 && rng_.bernoulli(cfg_.dup_prob)) {
    ++stats_.duplicated;
    copies = 2;
  }

  for (std::size_t c = 0; c < copies; ++c) {
    Delivery d;
    // Damage is applied to the real wire bytes; the parse decides whether
    // the damaged copy survives (it virtually never does — the CRC and
    // the semantic header checks turn corruption into loss).
    const bool corrupt =
        cfg_.corrupt_prob > 0.0 && rng_.bernoulli(cfg_.corrupt_prob);
    const bool truncate =
        cfg_.truncate_prob > 0.0 && rng_.bernoulli(cfg_.truncate_prob);
    if (corrupt || truncate) {
      auto bytes = fec::serialize(packet);
      if (corrupt) {
        ++stats_.corrupted;
        corrupt_bytes(bytes);
      }
      if (truncate) {
        ++stats_.truncated;
        truncate_bytes(bytes);
      }
      try {
        d.packet = fec::deserialize(bytes);
      } catch (const std::invalid_argument&) {
        ++stats_.corrupt_dropped;
        continue;  // corruption became loss, as the contract requires
      }
    } else {
      d.packet = packet;
    }
    if (cfg_.delay_jitter > 0.0) d.extra_delay += rng_.uniform() * cfg_.delay_jitter;
    if (cfg_.reorder_window > 0 && cfg_.reorder_prob > 0.0 &&
        rng_.bernoulli(cfg_.reorder_prob)) {
      ++stats_.reordered;
      d.extra_delay += cfg_.reorder_step *
                       static_cast<double>(1 + rng_.below(cfg_.reorder_window));
    }
    ++stats_.delivered;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<Impairment::Delivery> Impairment::apply_control(
    const fec::Packet& packet) {
  ++stats_.control_processed;
  std::vector<Delivery> out;
  if (cfg_.control_drop > 0.0 && control_rng_.bernoulli(cfg_.control_drop)) {
    ++stats_.control_dropped;
    return out;
  }
  std::size_t copies = 1;
  if (cfg_.control_dup > 0.0 && control_rng_.bernoulli(cfg_.control_dup)) {
    ++stats_.control_duplicated;
    copies = 2;
  }
  for (std::size_t c = 0; c < copies; ++c) {
    Delivery d;
    d.packet = packet;
    if (cfg_.control_delay > 0.0) {
      d.extra_delay = control_rng_.uniform() * cfg_.control_delay;
      ++stats_.control_delayed;
    }
    ++stats_.control_delivered;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<Impairment::ByteDelivery> Impairment::apply_bytes(
    std::span<const std::uint8_t> bytes, std::uint16_t src_port) {
  // On the byte path control datagrams are recognisable by the wire type
  // (byte 0: 2 = POLL, 3 = NAK).  With control faults configured they are
  // diverted to the control policy (drop/dup only; extra delay has no
  // meaning for a datagram already received); with the control knobs at
  // zero they flow through the data-path faults unchanged, preserving the
  // pre-existing byte schedules per seed.
  const auto copy = [&] {
    return ByteDelivery{{bytes.begin(), bytes.end()}, src_port};
  };
  std::vector<ByteDelivery> out;
  // One slot of forward progress for the reorder queue, whatever happens
  // to the current datagram: even a control datagram occupies a receive
  // slot whether or not it survives.
  for (auto& h : held_)
    if (h.release_after > 0) --h.release_after;

  if (cfg_.control_enabled() && bytes.size() >= 1 &&
      (bytes[0] == 2 || bytes[0] == 3)) {
    ++stats_.control_processed;
    if (!(cfg_.control_drop > 0.0 &&
          control_rng_.bernoulli(cfg_.control_drop))) {
      std::size_t copies = 1;
      if (cfg_.control_dup > 0.0 && control_rng_.bernoulli(cfg_.control_dup)) {
        ++stats_.control_duplicated;
        copies = 2;
      }
      for (std::size_t c = 0; c < copies; ++c) {
        ++stats_.control_delivered;
        out.push_back(copy());
      }
    } else {
      ++stats_.control_dropped;
    }
    release_expired(out);
    return out;
  }

  ++stats_.processed;
  // Drop decisions use the packet counter as the burst clock: datagrams
  // have no timestamps, so the chain advances one burst_delta per packet.
  const double now =
      static_cast<double>(stats_.processed) * cfg_.burst_delta;
  if (!pre_drop(now)) {
    std::size_t copies = 1;
    if (cfg_.dup_prob > 0.0 && rng_.bernoulli(cfg_.dup_prob)) {
      ++stats_.duplicated;
      copies = 2;
    }
    for (std::size_t c = 0; c < copies; ++c) {
      ByteDelivery d = copy();
      if (cfg_.corrupt_prob > 0.0 && rng_.bernoulli(cfg_.corrupt_prob)) {
        ++stats_.corrupted;
        corrupt_bytes(d.bytes);
      }
      if (cfg_.truncate_prob > 0.0 && rng_.bernoulli(cfg_.truncate_prob)) {
        ++stats_.truncated;
        truncate_bytes(d.bytes);
      }
      if (cfg_.reorder_window > 0 && cfg_.reorder_prob > 0.0 &&
          rng_.bernoulli(cfg_.reorder_prob)) {
        ++stats_.reordered;
        held_.push_back(
            {std::move(d), 1 + static_cast<std::size_t>(
                                   rng_.below(cfg_.reorder_window))});
      } else {
        ++stats_.delivered;
        out.push_back(std::move(d));
      }
    }
  }
  release_expired(out);
  return out;
}

void Impairment::release_expired(std::vector<ByteDelivery>& out) {
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->release_after == 0) {
      ++stats_.delivered;
      out.push_back(std::move(it->datagram));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<Impairment::ByteDelivery> Impairment::drain() {
  std::vector<ByteDelivery> out;
  for (auto& h : held_) {
    ++stats_.delivered;
    out.push_back(std::move(h.datagram));
  }
  held_.clear();
  return out;
}

}  // namespace pbl::net
