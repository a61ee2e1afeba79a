// Systematic Reed-Solomon erasure (RSE) codec over GF(2^8), following
// Rizzo '97 / McAuley '90 as referenced by the paper (Section 2).
//
// Encoding: c = G * d where G is the n x k systematic generator (identity
// on top).  The first k coded packets ARE the data packets, so receivers
// that lose nothing never decode (paper, Section 2.1).  Packets of P bytes
// are coded as P parallel GF(2^8) streams (Section 2.2, "multiple parallel
// RSE encodings").
//
// Decoding: any k of the n packets suffice.  With l data packets lost,
// the decoder takes l received parities, subtracts the k - l surviving
// data packets' share from them (the syndromes, l*(k-l) region ops),
// inverts the l x l block of G that couples those parities to the lost
// packets (O(l^3) scalar work) and applies it (l^2 region ops): l*k
// region ops in all, so the work is proportional to the number of
// losses l (Section 2.1).
//
// Every code of one (k, n) shares one immutable generator, built once
// per process the first time that shape is constructed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gf/gf.hpp"
#include "gf/matrix.hpp"

namespace pbl::fec {

/// A received fragment of an FEC block: its position and its bytes.
struct Shard {
  std::size_t index = 0;                 ///< position in [0, n)
  std::span<const std::uint8_t> data{};  ///< packet contents, all equal length
};

/// A received parity shard whose buffer the decoder may overwrite.
struct ParityShard {
  std::size_t index = 0;           ///< block index in [k, n)
  std::span<std::uint8_t> data{};  ///< packet contents; garbage after decode
};

class RseCode {
 public:
  /// Creates a (k, n) systematic code; requires 0 < k <= n <= 255.
  /// O(1) once a code of that shape exists: the generator is shared.
  RseCode(std::size_t k, std::size_t n);

  std::size_t k() const noexcept { return k_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t h() const noexcept { return n_ - k_; }

  /// Computes parity packet j (block index k + j) from the k data packets.
  /// All spans must have the same length; `out` is overwritten.
  void encode_parity(std::size_t j,
                     std::span<const std::span<const std::uint8_t>> data,
                     std::span<std::uint8_t> out) const;

  /// Computes all h parities.  `parity[j]` receives parity j.
  void encode(std::span<const std::span<const std::uint8_t>> data,
              std::span<const std::span<std::uint8_t>> parity) const;

  /// Reconstructs the k data packets from any >= k received shards with
  /// distinct indices.  `out[i]` receives data packet i (each of the k
  /// spans must be packet-length).  Shards present among the received
  /// data packets are copied, unless `out[i]` already is that shard's
  /// buffer; only missing ones are decoded.
  /// Throws std::invalid_argument on insufficient/duplicate shards.
  void decode(std::span<const Shard> received,
              std::span<const std::span<std::uint8_t>> out) const;

  /// Rebuilds the data packets listed in `lost` (distinct indices < k)
  /// from the others and the first lost.size() shards of `parity`
  /// (distinct indices in [k, n)).  `data[i]` is data packet i; only the
  /// lost ones are written.  The used parity buffers hold the syndromes
  /// afterwards, so no scratch is allocated.  All spans must have the
  /// same length.  Throws std::invalid_argument on bad indices, too few
  /// parities or mismatched lengths.
  void decode_in_place(std::span<const std::span<std::uint8_t>> data,
                       std::span<const std::size_t> lost,
                       std::span<const ParityShard> parity) const;

  /// Generator matrix row for block index i (size k); exposed for tests.
  std::span<const gf::Sym> generator_row(std::size_t i) const {
    return generator_->row(i);
  }

 private:
  std::size_t k_;
  std::size_t n_;
  const gf::Gf256& gf_;
  const gf::Matrix* generator_;  // n x k, top k x k identity; shared
};

}  // namespace pbl::fec
