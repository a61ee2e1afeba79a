// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for wire-level
// integrity of serialised packets.  RSE is an erasure code: it can repair
// packets that are MISSING but silently mis-decodes if a corrupted packet
// is fed in, so the transport must turn corruption into erasure — that is
// this checksum's job.
//
// It runs over every frame on both ends of the data path (seal_frame on
// the sender, deserialize_view on each receiver), so it is a per-byte
// kernel like the GF region ops (docs/KERNELS.md):
//
//   bytewise — one table lookup per byte; the reference, and the path
//              constant evaluation takes
//   slice16  — sixteen compile-time tables, 16 bytes per step; portable
//   pclmul   — x86-64 carry-less-multiply folding (crc32_pclmul.cpp)
//
// crc32() dispatches once, at first use, to the last entry of
// detail::crc32_kernels(): the fastest kernel compiled in and supported
// by the running CPU.  There is no override: every kernel yields the same
// value, and the tests drive each one through that list.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace pbl {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}
inline constexpr auto kCrc32Table = make_crc32_table();

/// The byte-at-a-time reference every kernel is tested against.
constexpr std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes,
                                       std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : bytes)
    c = kCrc32Table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// One CRC-32 implementation; `update` has crc32()'s contract (chainable
/// through `seed`) for any length and alignment.
struct Crc32Kernel {
  const char* name;  ///< "bytewise", "slice16", "pclmul"
  std::uint32_t (*update)(std::uint32_t seed, const std::uint8_t* bytes,
                          std::size_t len);
};

/// Kernels compiled in AND supported by the running CPU, in ascending
/// preference order; crc32() uses the last one.
std::span<const Crc32Kernel* const> crc32_kernels();

/// crc32() at run time: the preferred kernel, resolved once.
std::uint32_t crc32_dispatch(std::uint32_t seed, const std::uint8_t* bytes,
                             std::size_t len);
}  // namespace detail

/// CRC-32 of `bytes`; chainable via the `seed` parameter (pass a previous
/// result to continue a running checksum).
constexpr std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                              std::uint32_t seed = 0) {
  if (std::is_constant_evaluated()) return detail::crc32_bytewise(bytes, seed);
  return detail::crc32_dispatch(seed, bytes.data(), bytes.size());
}

}  // namespace pbl
