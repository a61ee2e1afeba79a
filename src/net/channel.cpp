#include "net/channel.hpp"

#include <stdexcept>
#include <utility>

namespace pbl::net {

MulticastChannel::MulticastChannel(sim::Simulator& sim,
                                   const loss::LossModel& model,
                                   std::size_t receivers, double delay)
    : sim_(&sim), delay_(delay) {
  if (receivers == 0)
    throw std::invalid_argument("MulticastChannel: need at least one receiver");
  if (delay < 0.0)
    throw std::invalid_argument("MulticastChannel: negative delay");
  processes_.reserve(receivers);
  for (std::size_t r = 0; r < receivers; ++r)
    processes_.push_back(model.make_process(sim.rng().split(r), r));
}

void MulticastChannel::set_impairment(const ImpairmentConfig& config) {
  impairments_.clear();
  control_impairments_.clear();
  if (config.enabled()) {
    impairments_.reserve(processes_.size());
    for (std::size_t r = 0; r < processes_.size(); ++r) {
      ImpairmentConfig per = config;
      // Independent but reproducible per-receiver fault streams.
      std::uint64_t sm = config.seed ^ (0x696d7061697221ULL + r);
      per.seed = splitmix64(sm);
      impairments_.push_back(std::make_unique<Impairment>(per));
    }
  }
  if (config.control_enabled()) {
    // One policy per control leg: receivers() down/overhear paths plus
    // the up path to the sender.  Seeds are derived with a different
    // tweak than the data policies, so data and control faults never
    // share a stream even for the same receiver.
    control_impairments_.reserve(processes_.size() + 1);
    for (std::size_t r = 0; r <= processes_.size(); ++r) {
      ImpairmentConfig per = config;
      std::uint64_t sm = config.seed ^ (0xc0117401f00dULL + r);
      per.seed = splitmix64(sm);
      control_impairments_.push_back(std::make_unique<Impairment>(per));
    }
  }
}

ImpairmentStats MulticastChannel::impairment_stats() const {
  ImpairmentStats total;
  for (const auto& imp : impairments_) total += imp->stats();
  for (const auto& imp : control_impairments_) total += imp->stats();
  return total;
}

void MulticastChannel::multicast_down(const fec::Packet& packet) {
  if (tap_) tap_(packet);
  ++stats_.data_multicasts;
  const double t = sim_->now();
  for (std::size_t r = 0; r < processes_.size(); ++r) {
    if (processes_[r]->lost(t)) {
      ++stats_.data_drops;
      continue;
    }
    if (impairments_.empty()) {
      ++stats_.data_deliveries;
      sim_->schedule_in(delay_, [this, r, packet] {
        if (on_receiver_) on_receiver_(r, packet);
      });
      continue;
    }
    auto deliveries = impairments_[r]->apply(packet, t);
    if (deliveries.empty()) {
      ++stats_.data_drops;  // the impairment ate every copy
      continue;
    }
    for (auto& d : deliveries) {
      ++stats_.data_deliveries;
      sim_->schedule_in(delay_ + d.extra_delay,
                        [this, r, p = std::move(d.packet)] {
                          if (on_receiver_) on_receiver_(r, p);
                        });
    }
  }
}

void MulticastChannel::multicast_control_down(const fec::Packet& packet) {
  if (tap_) tap_(packet);
  ++stats_.feedback_multicasts;
  for (std::size_t r = 0; r < processes_.size(); ++r)
    control_to_receiver(r, packet);
}

void MulticastChannel::multicast_up(std::size_t from,
                                    const fec::Packet& packet) {
  if (from >= processes_.size())
    throw std::out_of_range("MulticastChannel: bad receiver index");
  if (tap_) tap_(packet);
  ++stats_.feedback_multicasts;
  unicast_up_impl(from, packet);
  for (std::size_t r = 0; r < processes_.size(); ++r)
    if (r != from) control_to_receiver(r, packet);
}

void MulticastChannel::control_to_receiver(std::size_t r,
                                           const fec::Packet& packet) {
  if (control_impairments_.empty()) {
    sim_->schedule_in(delay_, [this, r, packet] {
      if (on_receiver_) on_receiver_(r, packet);
    });
    return;
  }
  for (auto& d : control_impairments_[r]->apply_control(packet)) {
    sim_->schedule_in(delay_ + d.extra_delay,
                      [this, r, p = std::move(d.packet)] {
                        if (on_receiver_) on_receiver_(r, p);
                      });
  }
}

void MulticastChannel::unicast_up(std::size_t from, const fec::Packet& packet) {
  if (from >= processes_.size())
    throw std::out_of_range("MulticastChannel: bad receiver index");
  if (tap_) tap_(packet);
  ++stats_.feedback_multicasts;
  unicast_up_impl(from, packet);
}

void MulticastChannel::unicast_up_impl(std::size_t from,
                                       const fec::Packet& packet) {
  if (control_impairments_.empty()) {
    sim_->schedule_in(delay_, [this, from, packet] {
      if (on_sender_) on_sender_(from, packet);
    });
    return;
  }
  auto& up = control_impairments_[processes_.size()];
  for (auto& d : up->apply_control(packet)) {
    sim_->schedule_in(delay_ + d.extra_delay,
                      [this, from, p = std::move(d.packet)] {
                        if (on_sender_) on_sender_(from, p);
                      });
  }
}

}  // namespace pbl::net
