// Control-plane reliability primitives: seeded exponential backoff with
// jitter, retry budgets, monotonic deadlines, and the structured
// PartialDeliveryReport every degraded session exit returns.
//
// The paper assumes NAKs and POLLs always arrive; these pieces are what
// the protocols need once that assumption is dropped (docs/ROBUSTNESS.md).
// Everything is deterministic: a Backoff draws its jitter from an explicit
// Rng substream, so a fixed seed reproduces the exact retry schedule —
// in simulation the delays feed sim::EventQueue, over UDP they feed
// timers on the session's injected Clock (steady_clock() by default).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pbl::protocol {

/// The backoff schedule's shape, shared by every retry in both engines.
inline constexpr double kInitialBackoff = 0.05;    ///< first retry delay [s]
inline constexpr double kBackoffMultiplier = 2.0;  ///< growth per retry
inline constexpr double kMaxBackoff = 0.4;         ///< delay ceiling [s]
/// Symmetric jitter fraction: d *= 1 + kBackoffJitter * (2u - 1).
inline constexpr double kBackoffJitter = 0.1;

struct RetryConfig {
  std::size_t max_retries = 8;    ///< retry budget per unit (TG/block/NAK)
  std::size_t grace_rounds = 3;   ///< unanswered polls before eviction
  double session_deadline = 0.0;  ///< total session budget [s]; 0 = unbounded

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// Deterministic jittered exponential backoff: delay i (0-based) is
/// min(kMaxBackoff, kInitialBackoff * kBackoffMultiplier^i) *
/// (1 + kBackoffJitter * (2u - 1)), u uniform in [0, 1) from the Rng
/// handed in at construction.  The schedule depends only on the rng
/// state — bit-reproducible; the config sets the retry budget.
class Backoff {
 public:
  Backoff() : Backoff(RetryConfig{}, Rng(1)) {}
  Backoff(const RetryConfig& config, Rng rng);

  /// True once the retry budget is spent; next() must not be called then.
  bool exhausted() const noexcept { return attempts_ >= cfg_.max_retries; }

  /// Delay before the next retry [s]; consumes one unit of budget.
  double next();

  std::size_t attempts() const noexcept { return attempts_; }
  void reset() noexcept { attempts_ = 0; }

 private:
  RetryConfig cfg_;
  Rng rng_;
  std::size_t attempts_ = 0;
};

/// Monotonic deadline on whatever clock the caller runs (sim time or a
/// Clock's now()).  A budget <= 0 means unbounded.
class Deadline {
 public:
  Deadline() = default;
  Deadline(double start, double budget) : start_(start), budget_(budget) {}

  bool bounded() const noexcept { return budget_ > 0.0; }
  double expires_at() const noexcept { return start_ + budget_; }
  bool expired(double now) const noexcept {
    return bounded() && now >= expires_at();
  }
  /// Seconds left (clamped at 0); a huge value when unbounded.
  double remaining(double now) const noexcept;

 private:
  double start_ = 0.0;
  double budget_ = 0.0;
};

/// RFC 6298 round-trip estimator (SRTT and RTTVAR, gains 1/8 and 1/4),
/// fed with POLL→answer latencies.  Karn's rule is unnecessary where every
/// request carries a fresh id its answers echo: each sample is unambiguous.
/// The timeout is clamped from above too: a peer that always answers just
/// before the timeout feeds samples that ratchet SRTT + 4·RTTVAR upward
/// without end, so without a ceiling it could stretch every round at will.
class RttEstimator {
 public:
  void sample(double rtt) noexcept;
  bool empty() const noexcept { return samples_ == 0; }
  double srtt() const noexcept { return srtt_; }
  double rttvar() const noexcept { return rttvar_; }
  /// min(ceiling, max(floor, SRTT + 4·RTTVAR)); just `floor` before the
  /// first sample.  `ceiling` must not be below `floor`.
  double timeout(double floor, double ceiling) const noexcept;

 private:
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// Injectable time source.  Every wall-clock read a protocol component
/// makes — retry deadlines, poll windows, drain/idle timeouts — goes
/// through ONE Clock, so two timers in the same session can never skew
/// against each other, and tests can drive state machines
/// deterministically with a ManualClock instead of sleeping.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double now() const = 0;
};

/// The process-wide monotonic clock (std::chrono::steady_clock seconds),
/// the one wall-clock reader.  Components take `const Clock*` defaulting
/// to nullptr == this one.
const Clock& steady_clock() noexcept;

/// Hand-advanced clock for deterministic timer tests: time moves only
/// when the test says so.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(double start = 0.0) noexcept : t_(start) {}
  double now() const noexcept override { return t_; }
  void advance(double dt) noexcept { t_ += dt; }
  void set(double t) noexcept { t_ = t; }

 private:
  double t_;
};

/// Structured outcome of a session that may have degraded rather than
/// completed: who got what, who was evicted, and what ended it.  Every
/// exit path of a reliable-control session is total and fills one of
/// these — budget exhaustion and deadline expiry are reported, never
/// thrown or spun on.  The counts behind the outcome (evictions, failed
/// units, retries) stay in the engine's own counters.
struct PartialDeliveryReport {
  bool complete = false;          ///< every receiver delivered every unit
  bool deadline_expired = false;  ///< the session Deadline ended the run
  /// delivered[r][u]: receiver r completed unit u (TG for NP/UDP,
  /// application packet for layered).
  std::vector<std::vector<bool>> delivered;
  std::vector<bool> evicted;      ///< receivers evicted for silence

  // Hostile-peer outcome (net/peer_guard.hpp; zero on unguarded runs).
  /// Members banished for hostile behaviour (PeerGuard ban).  An
  /// expelled member is exempt from the completeness requirement:
  /// `complete` means every NON-expelled receiver delivered every unit.
  std::uint64_t expelled = 0;

  /// Fraction of (receiver, unit) pairs delivered; 1.0 when complete.
  double completion_fraction() const noexcept;

  /// One-line human-readable summary for logs and test failure messages.
  std::string summary() const;
};

}  // namespace pbl::protocol
