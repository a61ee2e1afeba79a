// Batched loss sampling: exact binomial draws and 64-lane Bernoulli masks.
//
// The per-receiver path asks every receiver "did you lose this packet?" —
// one PRNG draw per receiver-packet, O(R) per transmission.  Under
// spatially independent loss the per-transmission loss pattern of a whole
// word of 64 receivers is (count ~ Binomial(64, p), placement uniform), so
// the batched engine draws loss *counts* and places them, spending O(1 +
// 64 p) draws per 64 receivers instead of 64.
//
// Everything here is exact (no normal/Poisson approximation):
//   * sample_binomial — inverse-CDF by pmf recurrence when n*min(p,q) is
//     small, the BTPE rejection algorithm (Kachitvichyanukul & Schmeiser,
//     CACM 1988) otherwise.  BTPE's final acceptance test compares against
//     the true pmf (Stirling series through the 1/k^9 term), so it is
//     exact to double precision.
//   * BinomialDist — a fixed-(n, p) distribution; small n additionally
//     gets a Vose alias table built from the exact pmf: one uniform pair
//     per draw regardless of n*p.
//   * MaskSampler — 64 i.i.d. Bernoulli(p) bits per call: count from the
//     Binomial(64, p) alias table, placement by rejection on 6-bit chunks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "util/rng.hpp"

namespace pbl::loss {

/// One exact Binomial(n, p) draw.  p must be in [0, 1].
std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p);

/// Exact Binomial(n, p) with per-instance precomputation.  For n <= 128 a
/// Vose alias table over the exact pmf makes draws O(1); larger n routes
/// to sample_binomial's inverse-CDF / BTPE paths.
class BinomialDist {
 public:
  BinomialDist(std::uint64_t n, double p);

  std::uint64_t n() const noexcept { return n_; }
  double p() const noexcept { return p_; }

  std::uint64_t operator()(Rng& rng) const;

 private:
  std::uint64_t n_;
  double p_;
  // Alias table (n <= kAliasMax only): outcome j with probability pmf(j).
  static constexpr std::uint64_t kAliasMax = 128;
  std::unique_ptr<std::uint32_t[]> alias_;
  std::unique_ptr<double[]> accept_;
};

/// 64 i.i.d. Bernoulli(p) bits per call (bit set = packet lost), for
/// word-at-a-time loss application: received = active & ~lost_mask().
/// p = 0 and p = 1 short-circuit without touching the Rng.
class MaskSampler {
 public:
  explicit MaskSampler(double p);

  double p() const noexcept { return p_; }

  std::uint64_t lost_mask(Rng& rng) const;

 private:
  /// Places `count` distinct set bits uniformly in a 64-bit word.
  static std::uint64_t place_bits(Rng& rng, unsigned count);

  double p_;
  bool invert_ = false;  // sample the rarer side, flip on the way out
  std::unique_ptr<BinomialDist> count_;  // Binomial(64, min(p, 1-p))
};

}  // namespace pbl::loss
