// Packed-bitmap receiver state for population-scale simulation.
//
// The round engine (protocol/batch_rounds.cpp) keeps per-TG receiver
// state as bit-planes over a contiguous shard of the population: plane i,
// bit r answers "does receiver r hold original i" (or "is receiver r's
// deficit >= i", depending on the scheme).  All per-round aggregation —
// NAK counts, decode sets, pending originals — becomes word-wide AND/OR
// plus popcount, so a round costs O(R/64) words instead of O(R) objects.
//
// Invariant: bits past the shard size are zero in every plane, always.
// Every mutator re-establishes it, so popcount-based aggregation never
// counts ghost receivers in the partial last word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbl::sim {

/// Fixed-size packed bit vector with the zero-tail invariant.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t bits, bool ones = false)
      : bits_(bits), words_((bits + 63) / 64, 0) {
    if (ones) fill(true);
  }

  std::size_t bits() const noexcept { return bits_; }
  std::size_t num_words() const noexcept { return words_.size(); }
  std::uint64_t* data() noexcept { return words_.data(); }
  const std::uint64_t* data() const noexcept { return words_.data(); }
  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }

  /// All-ones for full words, the partial mask for the last word.
  std::uint64_t live_mask(std::size_t w) const noexcept {
    const std::size_t full = bits_ / 64;
    if (w < full) return ~std::uint64_t{0};
    const unsigned rem = static_cast<unsigned>(bits_ % 64);
    return rem == 0 ? 0 : (~std::uint64_t{0} >> (64 - rem));
  }

  void set(std::size_t i) noexcept { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void reset(std::size_t i) noexcept { words_[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
  bool test(std::size_t i) const noexcept {
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void fill(bool value) noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] = value ? live_mask(w) : 0;
  }

  std::size_t count() const noexcept;
  bool any() const noexcept;
  bool none() const noexcept { return !any(); }
  bool all() const noexcept { return count() == bits_; }

  BitVec& operator|=(const BitVec& o) noexcept;
  BitVec& operator&=(const BitVec& o) noexcept;
  /// this &= ~o (set difference).
  BitVec& andnot(const BitVec& o) noexcept;

  bool operator==(const BitVec& o) const noexcept {
    return bits_ == o.bits_ && words_ == o.words_;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Per-TG receiver state for a contiguous shard [first, first + receivers)
/// of the population, as `planes` bit-planes over the shard's receivers.
class ReceiverShard {
 public:
  ReceiverShard(std::size_t first_receiver, std::size_t receivers,
                std::size_t planes, bool ones = false);

  std::size_t first_receiver() const noexcept { return first_; }
  std::size_t receivers() const noexcept { return receivers_; }
  std::size_t num_planes() const noexcept { return planes_.size(); }

  BitVec& plane(std::size_t i) noexcept { return planes_[i]; }
  const BitVec& plane(std::size_t i) const noexcept { return planes_[i]; }

  /// Popcount NAK aggregation: receivers of this shard holding / missing
  /// a bit in plane i.
  std::size_t holders(std::size_t i) const noexcept {
    return planes_[i].count();
  }
  std::size_t missing(std::size_t i) const noexcept {
    return receivers_ - holders(i);
  }

  /// Max over this shard's receivers of the number of planes NOT holding
  /// them (the shard's worst per-receiver deficit when planes are
  /// originals).  Scalar-equivalent reference: tests/test_receiver_shard.
  std::size_t max_missing() const noexcept;

  void fill(bool value) noexcept {
    for (auto& p : planes_) p.fill(value);
  }

  /// Structural merge of two adjacent shards (hi.first_receiver() must be
  /// lo.first_receiver() + lo.receivers(); plane counts must match) into
  /// one shard covering both ranges.  Handles non-word-aligned splits.
  static ReceiverShard merge(const ReceiverShard& lo, const ReceiverShard& hi);

 private:
  std::size_t first_ = 0;
  std::size_t receivers_ = 0;
  std::vector<BitVec> planes_;
};

}  // namespace pbl::sim
