// Portable slice-by-16 CRC-32 kernel and the once-only dispatcher.  The
// x86-64 PCLMULQDQ folding loop lives in crc32_pclmul.cpp so that only
// that file is compiled with -mpclmul -msse4.1.
#include "util/crc32.hpp"

namespace pbl::detail {

namespace {

// kSlice16[j][b]: the CRC register contribution of byte b followed by j
// zero bytes.  Row 0 is the bytewise table; row j advances row j-1 by one
// more byte.
constexpr auto make_slice16_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  t[0] = kCrc32Table;
  for (std::size_t j = 1; j < 16; ++j)
    for (std::size_t b = 0; b < 256; ++b)
      t[j][b] = (t[j - 1][b] >> 8) ^ kCrc32Table[t[j - 1][b] & 0xFFu];
  return t;
}
constexpr auto kSlice16 = make_slice16_tables();

// Little-endian word assembled from bytes: endian-independent, and one
// unaligned load on little-endian targets.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint32_t lookup4(std::size_t row, std::uint32_t w) {
  return kSlice16[row][w & 0xFFu] ^ kSlice16[row - 1][(w >> 8) & 0xFFu] ^
         kSlice16[row - 2][(w >> 16) & 0xFFu] ^ kSlice16[row - 3][w >> 24];
}

/// Advances the raw (pre-inverted) CRC register over `len` bytes.
std::uint32_t slice16_raw(std::uint32_t c, const std::uint8_t* p,
                          std::size_t len) {
  for (; len >= 16; p += 16, len -= 16) {
    // Byte j of the block still has 15 - j bytes to travel: row 15 - j.
    c = lookup4(15, c ^ load_le32(p)) ^ lookup4(11, load_le32(p + 4)) ^
        lookup4(7, load_le32(p + 8)) ^ lookup4(3, load_le32(p + 12));
  }
  for (; len > 0; ++p, --len) c = kCrc32Table[(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

std::uint32_t bytewise_update(std::uint32_t seed, const std::uint8_t* bytes,
                              std::size_t len) {
  return crc32_bytewise({bytes, len}, seed);
}

std::uint32_t slice16_update(std::uint32_t seed, const std::uint8_t* bytes,
                             std::size_t len) {
  return ~slice16_raw(~seed, bytes, len);
}

constexpr Crc32Kernel kBytewise{"bytewise", bytewise_update};
constexpr Crc32Kernel kSlice16Kernel{"slice16", slice16_update};

}  // namespace

#if defined(PBL_CRC32_HAVE_PCLMUL)
/// Defined in crc32_pclmul.cpp: folds `len` bytes (len >= 64, a multiple
/// of 16) into the raw CRC register.
std::uint32_t crc32_pclmul_fold(std::uint32_t c, const std::uint8_t* p,
                                std::size_t len);

namespace {

std::uint32_t pclmul_update(std::uint32_t seed, const std::uint8_t* bytes,
                            std::size_t len) {
  std::uint32_t c = ~seed;
  if (len >= 64) {
    const std::size_t folded = len & ~std::size_t{15};
    c = crc32_pclmul_fold(c, bytes, folded);
    bytes += folded;
    len -= folded;
  }
  return ~slice16_raw(c, bytes, len);  // short input, or the < 16 B tail
}

constexpr Crc32Kernel kPclmulKernel{"pclmul", pclmul_update};

}  // namespace
#endif

std::span<const Crc32Kernel* const> crc32_kernels() {
  static const auto list = [] {
    static const Crc32Kernel* slots[3];
    std::size_t count = 0;
    slots[count++] = &kBytewise;
    slots[count++] = &kSlice16Kernel;
#if defined(PBL_CRC32_HAVE_PCLMUL)
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
      slots[count++] = &kPclmulKernel;
#endif
    return std::span<const Crc32Kernel* const>(slots, count);
  }();
  return list;
}

std::uint32_t crc32_dispatch(std::uint32_t seed, const std::uint8_t* bytes,
                             std::size_t len) {
  static const auto update = crc32_kernels().back()->update;
  return update(seed, bytes, len);
}

}  // namespace pbl::detail
