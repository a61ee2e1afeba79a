#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace pbl {

namespace detail {
// Names the kernel in test output instead of printing the pointer.
void PrintTo(const Crc32Kernel* k, std::ostream* os) { *os << k->name; }
}  // namespace detail

namespace {

using detail::Crc32Kernel;

std::uint32_t crc_of(std::string_view s) {
  return crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value.
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("abc"), 0x352441C2u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  const std::string_view s = "parity-based loss recovery";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
  const std::uint32_t whole = crc32({bytes, s.size()});
  const std::uint32_t part = crc32({bytes + 10, s.size() - 10},
                                   crc32({bytes, 10}));
  EXPECT_EQ(part, whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(1);
  std::vector<std::uint8_t> data(256);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t original = crc32(data);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t byte = rng.below(data.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.below(8));
    data[byte] ^= bit;
    EXPECT_NE(crc32(data), original);
    data[byte] ^= bit;
  }
}

TEST(Crc32, ConstexprUsable) {
  constexpr std::array<std::uint8_t, 3> arr{1, 2, 3};
  constexpr std::uint32_t c = crc32(std::span<const std::uint8_t>(arr));
  static_assert(c != 0);
  EXPECT_EQ(c, crc32(std::span<const std::uint8_t>(arr)));
}

TEST(Crc32, DispatchesToThePreferredKernel) {
  const auto kernels = detail::crc32_kernels();
  ASSERT_GE(kernels.size(), 2u);
  EXPECT_STREQ(kernels.front()->name, "bytewise");
  EXPECT_STREQ(kernels[1]->name, "slice16");
  std::vector<std::uint8_t> data(1426);
  Rng rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(crc32(data, 7),
            kernels.back()->update(7, data.data(), data.size()));
}

// Every compiled-in, CPU-supported kernel against the bytewise reference.
class Crc32KernelTest : public ::testing::TestWithParam<const Crc32Kernel*> {
};

TEST_P(Crc32KernelTest, MatchesReferenceAtEveryLengthOffsetAndSeed) {
  const Crc32Kernel& k = *GetParam();
  constexpr std::size_t kMaxLen = 4096;
  constexpr std::size_t kOffsets = 16;
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  Rng rng(11);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
    for (std::size_t off = 0; off < kOffsets; ++off) {
      const std::uint8_t* base = buf.data() + off;
      // The reference grows one byte at a time by chaining, so the sweep
      // over every length stays linear in kMaxLen.
      std::uint32_t want = seed;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        if (len > 0) want = detail::crc32_bytewise({base + len - 1, 1}, want);
        const std::uint32_t got = k.update(seed, base, len);
        if (got != want) {
          ADD_FAILURE() << k.name << ": len " << len << " offset " << off
                        << " seed " << seed << ": got " << got << " want "
                        << want;
          return;
        }
      }
    }
  }
}

TEST_P(Crc32KernelTest, ChainsAtEverySplitOfAFrame) {
  const Crc32Kernel& k = *GetParam();
  std::vector<std::uint8_t> frame(1426);  // a bulk-workload wire frame
  Rng rng(3);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = detail::crc32_bytewise(frame);
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    const std::uint32_t head = k.update(0, frame.data(), cut);
    ASSERT_EQ(k.update(head, frame.data() + cut, frame.size() - cut), whole)
        << k.name << ": split at " << cut;
  }
}

TEST_P(Crc32KernelTest, KnownVectors) {
  const Crc32Kernel& k = *GetParam();
  const auto check = [&](std::string_view s) {
    return k.update(0, reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size());
  };
  EXPECT_EQ(check("123456789"), 0xCBF43926u);
  EXPECT_EQ(check(""), 0x00000000u);
  // 64 B of zeros: the shortest input the folding kernel folds.
  const std::vector<std::uint8_t> zeros(64);
  EXPECT_EQ(k.update(0, zeros.data(), zeros.size()), 0x758D6336u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, Crc32KernelTest,
    ::testing::ValuesIn(detail::crc32_kernels().begin(),
                        detail::crc32_kernels().end()),
    [](const ::testing::TestParamInfo<const Crc32Kernel*>& info) {
      return std::string(info.param->name);
    });

}  // namespace
}  // namespace pbl
