// Differential test suite for the GF(2^8) SIMD kernel layer.
//
// Every kernel compiled into this binary (scalar, and whichever of
// ssse3/avx2/neon the build + CPU provide) is driven through its function
// pointers directly and checked byte-for-byte against the generic
// GaloisField(8) log/antilog reference — a kernel variant cannot pass by
// being merely self-consistent.  Coverage per kernel and per op:
//
//   * all 256 coefficients (including the c == 0 and c == 1 fast paths)
//   * lengths {0, 1, 15, 16, 17, 64, 1024, 1500}: empty, sub-vector,
//     one-off-vector-boundary, and packet-sized regions with tails
//   * unaligned dst/src offsets {0, 1, 7}, equal and mixed
//   * dst == src aliasing
//   * guard bytes around dst to catch out-of-bounds writes even without
//     ASan (CI additionally runs this binary under ASan + UBSan)
//
// The dispatcher itself (auto selection, PBL_GF_KERNEL override,
// ScopedKernelOverride) is tested at the bottom.
#include "gf/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gf/gf.hpp"
#include "util/rng.hpp"

namespace pbl::gf::kern {

// gtest prints a pointer parameter as its address, which ASLR changes on
// every run and which then lands in the ctest name that
// gtest_discover_tests records.  Print the kernel's name instead, so the
// test names are the same from build to build.
void PrintTo(const Kernel* k, std::ostream* os) { *os << k->name; }

namespace {

constexpr std::size_t kLengths[] = {0, 1, 15, 16, 17, 64, 1024, 1500};
// (dst offset, src offset) pairs: equal alignments plus mixed ones.
constexpr std::pair<std::size_t, std::size_t> kOffsets[] = {
    {0, 0}, {1, 1}, {7, 7}, {0, 7}, {7, 1}};
constexpr std::uint8_t kGuard = 0xC5;
constexpr std::size_t kGuardLen = 32;

const GaloisField& reference_field() {
  static const GaloisField f(8);
  return f;
}

/// A byte region with guard zones before and after, at a chosen offset
/// from a 64-byte-aligned base so every kernel sees genuinely unaligned
/// heads and tails.
struct GuardedBuffer {
  GuardedBuffer(std::size_t len, std::size_t offset, std::uint64_t seed)
      : storage(kGuardLen + offset + len + kGuardLen + 64) {
    Rng rng(seed);
    for (auto& b : storage) b = kGuard;
    data = storage.data();
    data += 64 - (reinterpret_cast<std::uintptr_t>(data) % 64);  // align base
    data += kGuardLen + offset;
    for (std::size_t i = 0; i < len; ++i)
      data[i] = static_cast<std::uint8_t>(rng());
    size = len;
  }

  bool guards_intact() const {
    const std::uint8_t* lo = data - kGuardLen;
    const std::uint8_t* mid = data;
    const std::uint8_t* hi = data + size;
    return std::all_of(lo, mid, [](std::uint8_t b) { return b == kGuard; }) &&
           std::all_of(hi, hi + kGuardLen,
                       [](std::uint8_t b) { return b == kGuard; });
  }

  std::vector<std::uint8_t> storage;
  std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

class KernelDifferentialTest : public ::testing::TestWithParam<const Kernel*> {
};

TEST_P(KernelDifferentialTest, MulAddMatchesReferenceField) {
  const Kernel& k = *GetParam();
  const GaloisField& f = reference_field();
  for (unsigned c = 0; c < 256; ++c) {
    for (const std::size_t len : kLengths) {
      for (const auto& [doff, soff] : kOffsets) {
        GuardedBuffer dst(len, doff, 1000 + c);
        GuardedBuffer src(len, soff, 2000 + c);
        std::vector<std::uint8_t> expect(dst.data, dst.data + len);
        for (std::size_t i = 0; i < len; ++i)
          expect[i] = static_cast<std::uint8_t>(
              expect[i] ^ f.mul(c, src.data[i]));
        k.mul_add(dst.data, src.data, len, static_cast<std::uint8_t>(c));
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), dst.data))
            << k.name << " mul_add c=" << c << " len=" << len
            << " doff=" << doff << " soff=" << soff;
        ASSERT_TRUE(dst.guards_intact())
            << k.name << " mul_add wrote out of bounds: c=" << c
            << " len=" << len << " doff=" << doff;
      }
    }
  }
}

TEST_P(KernelDifferentialTest, MulAssignMatchesReferenceField) {
  const Kernel& k = *GetParam();
  const GaloisField& f = reference_field();
  for (unsigned c = 0; c < 256; ++c) {
    for (const std::size_t len : kLengths) {
      for (const auto& [doff, soff] : kOffsets) {
        GuardedBuffer dst(len, doff, 3000 + c);
        GuardedBuffer src(len, soff, 4000 + c);
        std::vector<std::uint8_t> expect(len);
        for (std::size_t i = 0; i < len; ++i)
          expect[i] = static_cast<std::uint8_t>(f.mul(c, src.data[i]));
        k.mul_assign(dst.data, src.data, len, static_cast<std::uint8_t>(c));
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), dst.data))
            << k.name << " mul_assign c=" << c << " len=" << len
            << " doff=" << doff << " soff=" << soff;
        ASSERT_TRUE(dst.guards_intact())
            << k.name << " mul_assign wrote out of bounds: c=" << c
            << " len=" << len << " doff=" << doff;
      }
    }
  }
}

TEST_P(KernelDifferentialTest, AliasedDstEqualsSrc) {
  const Kernel& k = *GetParam();
  const GaloisField& f = reference_field();
  for (unsigned c = 0; c < 256; ++c) {
    for (const std::size_t len : {std::size_t{17}, std::size_t{1024}}) {
      // mul_add with dst == src must read each byte before overwriting it:
      // the expected result is orig[i] ^ c*orig[i].
      GuardedBuffer buf(len, 1, 5000 + c);
      std::vector<std::uint8_t> orig(buf.data, buf.data + len);
      k.mul_add(buf.data, buf.data, len, static_cast<std::uint8_t>(c));
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(buf.data[i],
                  static_cast<std::uint8_t>(orig[i] ^ f.mul(c, orig[i])))
            << k.name << " aliased mul_add c=" << c << " i=" << i;
      ASSERT_TRUE(buf.guards_intact());

      GuardedBuffer buf2(len, 7, 6000 + c);
      std::vector<std::uint8_t> orig2(buf2.data, buf2.data + len);
      k.mul_assign(buf2.data, buf2.data, len, static_cast<std::uint8_t>(c));
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(buf2.data[i], static_cast<std::uint8_t>(f.mul(c, orig2[i])))
            << k.name << " aliased mul_assign c=" << c << " i=" << i;
      ASSERT_TRUE(buf2.guards_intact());
    }
  }
}

TEST_P(KernelDifferentialTest, ZeroAndOneFastPaths) {
  const Kernel& k = *GetParam();
  const std::size_t len = 100;
  GuardedBuffer dst(len, 1, 1);
  GuardedBuffer src(len, 3, 2);
  const std::vector<std::uint8_t> before(dst.data, dst.data + len);

  k.mul_add(dst.data, src.data, len, 0);  // must be a strict no-op
  EXPECT_TRUE(std::equal(before.begin(), before.end(), dst.data));

  k.mul_add(dst.data, src.data, len, 1);  // plain xor
  for (std::size_t i = 0; i < len; ++i)
    ASSERT_EQ(dst.data[i], static_cast<std::uint8_t>(before[i] ^ src.data[i]));

  k.mul_assign(dst.data, src.data, len, 1);  // plain copy
  EXPECT_TRUE(std::equal(src.data, src.data + len, dst.data));

  k.mul_assign(dst.data, src.data, len, 0);  // zero fill
  EXPECT_TRUE(std::all_of(dst.data, dst.data + len,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(dst.guards_intact());
}

// Two kernels must agree with each other on long random regions (cheap
// cross-check on top of the reference-field comparison above).
TEST_P(KernelDifferentialTest, AgreesWithScalarKernelOnRandomRegions) {
  const Kernel& k = *GetParam();
  const Kernel* scalar = kernel_by_name("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.below(4096);
    const auto c = static_cast<std::uint8_t>(rng());
    GuardedBuffer a(len, rng.below(8), 100 + trial);
    GuardedBuffer src(len, rng.below(8), 200 + trial);
    std::vector<std::uint8_t> b(a.data, a.data + len);
    k.mul_add(a.data, src.data, len, c);
    scalar->mul_add(b.data(), src.data, len, c);
    ASSERT_TRUE(std::equal(b.begin(), b.end(), a.data))
        << k.name << " disagrees with scalar at len=" << len
        << " c=" << unsigned{c};
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, KernelDifferentialTest,
    ::testing::ValuesIn(available_kernels().begin(), available_kernels().end()),
    [](const ::testing::TestParamInfo<const Kernel*>& info) {
      return std::string(info.param->name);
    });

// ------------------------------------------------------------- dispatch

TEST(KernelDispatch, ScalarIsAlwaysAvailableAndFirst) {
  const auto all = available_kernels();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front()->name, "scalar");
  std::set<std::string> names;
  for (const Kernel* k : all) {
    ASSERT_NE(k, nullptr);
    ASSERT_NE(k->mul_add, nullptr);
    ASSERT_NE(k->mul_assign, nullptr);
    names.insert(k->name);
  }
  EXPECT_EQ(names.size(), all.size()) << "kernel names must be unique";
}

TEST(KernelDispatch, LookupByName) {
  for (const Kernel* k : available_kernels())
    EXPECT_EQ(kernel_by_name(k->name), k);
  EXPECT_EQ(kernel_by_name("no-such-kernel"), nullptr);
  EXPECT_EQ(kernel_by_name(""), nullptr);
}

TEST(KernelDispatch, ResolvePolicy) {
  const Kernel* best = available_kernels().back();
  EXPECT_EQ(resolve_kernel(nullptr), best);
  EXPECT_EQ(resolve_kernel("auto"), best);
  EXPECT_STREQ(resolve_kernel("scalar")->name, "scalar");
  // Unknown or unavailable requests fall back to auto instead of failing.
  EXPECT_EQ(resolve_kernel("bogus"), best);
  for (const char* name : {"ssse3", "avx2", "neon"}) {
    const Kernel* r = resolve_kernel(name);
    ASSERT_NE(r, nullptr);
    if (kernel_by_name(name) != nullptr)
      EXPECT_STREQ(r->name, name) << "available kernel must be selectable";
    else
      EXPECT_EQ(r, best) << "unavailable kernel must fall back to auto";
  }
}

TEST(KernelDispatch, EnvironmentOverrideIsHonoured) {
  // The CI kernel-matrix job runs this binary under several PBL_GF_KERNEL
  // values; verify the startup resolution matches the documented policy.
  EXPECT_EQ(&active_kernel(), resolve_kernel(std::getenv("PBL_GF_KERNEL")));
}

TEST(KernelDispatch, ScopedOverrideForcesAndRestores) {
  const Kernel* before = &active_kernel();
  for (const Kernel* k : available_kernels()) {
    ScopedKernelOverride force(*k);
    EXPECT_EQ(&active_kernel(), k);
    EXPECT_STREQ(Gf256::kernel_name(), k->name);
  }
  EXPECT_EQ(&active_kernel(), before);
}

TEST(KernelDispatch, Gf256RoutesThroughActiveKernel) {
  const auto& gf = Gf256::instance();
  Rng rng(7);
  std::vector<std::uint8_t> src(777);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::vector<std::vector<std::uint8_t>> results;
  for (const Kernel* k : available_kernels()) {
    ScopedKernelOverride force(*k);
    std::vector<std::uint8_t> dst(src.size(), 0x5A);
    gf.mul_add(dst.data(), src.data(), src.size(), 0xA7);
    gf.mul_assign(dst.data(), dst.data(), dst.size(), 0x33);
    results.push_back(std::move(dst));
  }
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_EQ(results[i], results[0])
        << "Gf256 under " << available_kernels()[i]->name
        << " differs from scalar";
  // And the composite matches direct table arithmetic.
  for (std::size_t i = 0; i < src.size(); ++i)
    ASSERT_EQ(results[0][i],
              gf.mul(0x33, static_cast<std::uint8_t>(0x5A ^ gf.mul(0xA7, src[i]))));
}

// --------------------------------------------------- GF(2^16) region ops

TEST(WideKernel, MulAddU16MatchesSymbolwiseReference) {
  const GaloisField f(16);
  Rng rng(11);
  for (const std::size_t symbols : {std::size_t{1}, std::size_t{8},
                                    std::size_t{33}, std::size_t{750}}) {
    const std::size_t bytes = 2 * symbols;
    for (int trial = 0; trial < 8; ++trial) {
      const Sym c = static_cast<Sym>(rng.below(65536));
      std::vector<std::uint8_t> src(bytes), dst(bytes), expect(bytes);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng());
      for (auto& b : dst) b = static_cast<std::uint8_t>(rng());
      expect = dst;
      for (std::size_t i = 0; i < bytes; i += 2) {
        const Sym s = static_cast<Sym>(src[i]) | (static_cast<Sym>(src[i + 1]) << 8);
        const Sym p = f.mul(c, s);
        expect[i] ^= static_cast<std::uint8_t>(p);
        expect[i + 1] ^= static_cast<std::uint8_t>(p >> 8);
      }
      mul_add_u16(f, dst.data(), src.data(), bytes, c);
      ASSERT_EQ(dst, expect) << "c=" << c << " symbols=" << symbols;
    }
  }
}

TEST(WideKernel, MulAssignU16MatchesSymbolwiseReference) {
  const GaloisField f(16);
  Rng rng(12);
  const std::size_t bytes = 2 * 500;
  for (int trial = 0; trial < 16; ++trial) {
    const Sym c = static_cast<Sym>(rng.below(65536));
    std::vector<std::uint8_t> src(bytes), dst(bytes, 0xEE), expect(bytes);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng());
    for (std::size_t i = 0; i < bytes; i += 2) {
      const Sym s = static_cast<Sym>(src[i]) | (static_cast<Sym>(src[i + 1]) << 8);
      const Sym p = f.mul(c, s);
      expect[i] = static_cast<std::uint8_t>(p);
      expect[i + 1] = static_cast<std::uint8_t>(p >> 8);
    }
    mul_assign_u16(f, dst.data(), src.data(), bytes, c);
    ASSERT_EQ(dst, expect) << "c=" << c;
  }
  // c == 0 zero-fills; aliasing dst == src is allowed.
  std::vector<std::uint8_t> buf(bytes, 0xAB);
  mul_assign_u16(f, buf.data(), buf.data(), bytes, 0);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

}  // namespace
}  // namespace pbl::gf::kern
