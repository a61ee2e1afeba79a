// x86-64 CRC-32 by carry-less multiplication (PCLMULQDQ), after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009).  Compiled with -mpclmul -msse4.1 on this
// file only; crc32.cpp selects it after __builtin_cpu_supports confirms
// both at run time.
//
// In the reflected bit order a 128-bit lane A = (lo, hi) folds forward
// over D bits as lo·K1 ⊕ hi·K2, where K1, K2 are x^(D+32), x^(D-32) mod
// P, bit-reflected.  Four lanes fold 512 bits per step, collapse into one
// lane, fold the remaining 16-byte blocks, then reduce 128 → 64 → 32 bits
// and finish with a Barrett reduction by P.  All constants are the
// paper's for the IEEE polynomial P = 0x104C11DB7.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace pbl::detail {

namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next: moves acc forward by the distance k
// encodes and adds the block that sits there.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

}  // namespace

std::uint32_t crc32_pclmul_fold(std::uint32_t c, const std::uint8_t* p,
                                std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512 b
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128 b
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);               // 64 b
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  __m128i x = fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold(x, k3k4, load(p));

  // 128 → 64 bits: the low qword moves forward over the high one.
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
  // 64 → 32 bits.
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
      _mm_srli_si128(x, 4));
  // Barrett reduction: q = floor(x·µ / x^32), remainder x ⊕ q·P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

}  // namespace pbl::detail
