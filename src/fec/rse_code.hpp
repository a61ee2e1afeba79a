// Systematic Reed-Solomon erasure (RSE) codec over GF(2^8), following
// Rizzo '97 / McAuley '90 as referenced by the paper (Section 2).
//
// Encoding: c = G * d where G is the n x k systematic generator (identity
// on top).  The first k coded packets ARE the data packets, so receivers
// that lose nothing never decode (paper, Section 2.1).  Packets of P bytes
// are coded as P parallel GF(2^8) streams (Section 2.2, "multiple parallel
// RSE encodings").
//
// Decoding: any k of the n packets suffice.  The decoder inverts the k x k
// submatrix of G given by the surviving indices and reconstructs only the
// missing data packets, so the work is proportional to the number of
// losses l (Section 2.1).
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

class RseCode {
 public:
  /// Creates a (k, n) systematic code; requires 0 < k <= n <= 255.
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

  /// Generator matrix row for block index i (size k); exposed for tests.
  std::span<const gf::Sym> generator_row(std::size_t i) const {
    return generator_.row(i);
  }

 private:
  std::size_t k_;
  std::size_t n_;
  const gf::Gf256& gf_;
  gf::Matrix generator_;  // n x k, top k x k identity
};

}  // namespace pbl::fec
