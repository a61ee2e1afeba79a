// Fuzz target: fec::deserialize over arbitrary byte strings.
//
// Contract under test (fec/packet.hpp): every input either throws
// std::invalid_argument or yields a Packet that (a) re-serialises to the
// exact input bytes and (b) satisfies the DATA/PARITY header invariants
// (0 < k <= n, index < n, DATA index < k, PARITY index >= k).  Any other
// exception escapes (crash), and oracle violations trap.  The dispatched
// CRC-32 kernel must also agree with the bytewise reference on every
// input, whole and chained at its midpoint.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "fec/packet.hpp"
#include "util/crc32.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using pbl::fec::PacketType;
  const std::span<const std::uint8_t> bytes{data, size};
  const std::uint32_t want = pbl::detail::crc32_bytewise(bytes);
  if (pbl::crc32(bytes) != want) __builtin_trap();
  if (pbl::crc32(bytes.subspan(size / 2), pbl::crc32(bytes.first(size / 2))) !=
      want)
    __builtin_trap();
  try {
    const pbl::fec::Packet p = pbl::fec::deserialize({data, size});
    const auto again = pbl::fec::serialize(p);
    if (again.size() != size || !std::equal(again.begin(), again.end(), data))
      __builtin_trap();  // accepted input must round-trip byte-identically
    const auto& h = p.header;
    if (h.payload_len != p.payload.size()) __builtin_trap();
    if (h.type == PacketType::kData || h.type == PacketType::kParity) {
      if (h.k == 0 || h.k > h.n || h.index >= h.n) __builtin_trap();
      if (h.type == PacketType::kData && h.index >= h.k) __builtin_trap();
      if (h.type == PacketType::kParity && h.index < h.k) __builtin_trap();
    }
  } catch (const std::invalid_argument&) {
    // rejected input: the documented failure mode
  }
  return 0;
}
