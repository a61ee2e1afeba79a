#include "protocol/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pbl::protocol {

void RetryConfig::validate() const {
  if (session_deadline < 0.0)
    throw std::invalid_argument("RetryConfig: session_deadline must be >= 0");
}

Backoff::Backoff(const RetryConfig& config, Rng rng)
    : cfg_(config), rng_(rng) {
  cfg_.validate();
}

double Backoff::next() {
  if (exhausted()) throw std::logic_error("Backoff: retry budget exhausted");
  const double base =
      std::min(kMaxBackoff,
               kInitialBackoff * std::pow(kBackoffMultiplier,
                                          static_cast<double>(attempts_)));
  ++attempts_;
  // Symmetric jitter desynchronises retries without changing the mean.
  return base * (1.0 + kBackoffJitter * (2.0 * rng_.uniform() - 1.0));
}

double Deadline::remaining(double now) const noexcept {
  if (!bounded()) return std::numeric_limits<double>::infinity();
  return std::max(0.0, expires_at() - now);
}

void RttEstimator::sample(double rtt) noexcept {
  if (samples_++ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2.0;
    return;
  }
  rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
  srtt_ = 0.875 * srtt_ + 0.125 * rtt;
}

double RttEstimator::timeout(double floor, double ceiling) const noexcept {
  if (empty()) return floor;
  return std::min(ceiling, std::max(floor, srtt_ + 4.0 * rttvar_));
}

namespace {
class ProcessSteadyClock final : public Clock {
 public:
  double now() const override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};
}  // namespace

const Clock& steady_clock() noexcept {
  static const ProcessSteadyClock clock;
  return clock;
}

double PartialDeliveryReport::completion_fraction() const noexcept {
  std::size_t total = 0;
  std::size_t got = 0;
  for (const auto& row : delivered) {
    total += row.size();
    for (const bool b : row) got += b ? 1 : 0;
  }
  if (total == 0) return complete ? 1.0 : 0.0;
  return static_cast<double>(got) / static_cast<double>(total);
}

std::string PartialDeliveryReport::summary() const {
  std::string s = complete ? "complete" : "partial";
  s += " (" + std::to_string(completion_fraction() * 100.0) + "% delivered";
  if (deadline_expired) s += ", deadline expired";
  const auto evictions = std::count(evicted.begin(), evicted.end(), true);
  if (evictions) s += ", " + std::to_string(evictions) + " evicted";
  if (expelled) s += ", " + std::to_string(expelled) + " expelled";
  return s + ")";
}

}  // namespace pbl::protocol
