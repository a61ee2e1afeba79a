#include "fec/rse_code.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "gf/kernels.hpp"
#include "gf/matrix.hpp"
#include "util/rng.hpp"

namespace pbl::fec {
namespace {

std::vector<std::vector<std::uint8_t>> random_packets(std::size_t count,
                                                      std::size_t len,
                                                      Rng& rng) {
  std::vector<std::vector<std::uint8_t>> pkts(count);
  for (auto& p : pkts) {
    p.resize(len);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  return pkts;
}

std::vector<std::span<const std::uint8_t>> views_of(
    const std::vector<std::vector<std::uint8_t>>& pkts) {
  return {pkts.begin(), pkts.end()};
}

struct Shape {
  std::size_t k;
  std::size_t n;
};

/// Encodes, erases all but the shards at `keep` (block indices), decodes,
/// and checks every data packet is reconstructed bit-exactly.
void round_trip(const RseCode& code, std::size_t len,
                const std::vector<std::size_t>& keep, Rng& rng) {
  const auto data = random_packets(code.k(), len, rng);
  std::vector<std::vector<std::uint8_t>> parity(code.h(),
                                                std::vector<std::uint8_t>(len));
  {
    std::vector<std::span<std::uint8_t>> pviews(parity.begin(), parity.end());
    code.encode(views_of(data), pviews);
  }
  std::vector<Shard> shards;
  for (const std::size_t idx : keep) {
    ASSERT_LT(idx, code.n());
    shards.push_back(
        {idx, idx < code.k() ? std::span<const std::uint8_t>(data[idx])
                             : std::span<const std::uint8_t>(parity[idx - code.k()])});
  }
  std::vector<std::vector<std::uint8_t>> out(code.k(),
                                             std::vector<std::uint8_t>(len));
  std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
  code.decode(shards, oviews);
  for (std::size_t i = 0; i < code.k(); ++i)
    EXPECT_EQ(out[i], data[i]) << "packet " << i;
}

TEST(RseCode, ValidatesParameters) {
  EXPECT_THROW(RseCode(0, 5), std::invalid_argument);
  EXPECT_THROW(RseCode(5, 4), std::invalid_argument);
  EXPECT_THROW(RseCode(6, 5), std::invalid_argument);
  EXPECT_THROW(RseCode(10, 256), std::invalid_argument);
  EXPECT_NO_THROW(RseCode(10, 255));
  EXPECT_NO_THROW(RseCode(5, 5));  // pure replication-free, h = 0
}

TEST(RseCode, ShapeIsCheckedBeforeTheGeneratorIsBuilt) {
  // The codec's own messages, not the Vandermonde construction's: a bad
  // shape is refused before any generator is built or cached.
  const auto message_of = [](std::size_t k, std::size_t n) {
    try {
      RseCode code(k, n);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message_of(0, 5), "RseCode: need 0 < k <= n");
  EXPECT_EQ(message_of(5, 4), "RseCode: need 0 < k <= n");
  EXPECT_EQ(message_of(10, 256),
            "RseCode: GF(2^8) limits the block to n <= 255");
}

TEST(RseCode, CodesOfOneShapeShareTheGenerator) {
  const RseCode a(16, 48), b(16, 48), other(16, 64);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(a.generator_row(i).data(), b.generator_row(i).data()) << i;
    EXPECT_NE(a.generator_row(i).data(), other.generator_row(i).data()) << i;
  }
}

TEST(RseCode, ConcurrentConstructionBuildsOneGeneratorPerShape) {
  // Shapes no other test here constructs, so the threads race to build
  // them.  Every thread must see one generator per shape, with the bytes
  // of a freshly built one.
  constexpr std::array<Shape, 3> kShapes{{{37, 101}, {50, 130}, {11, 200}}};
  constexpr std::size_t kThreads = 8;
  std::array<std::array<const gf::Sym*, 3>, kThreads> rows{};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t s = 0; s < kShapes.size(); ++s) {
        const std::size_t pick = (s + t) % kShapes.size();  // varied order
        const RseCode code(kShapes[pick].k, kShapes[pick].n);
        rows[t][pick] = code.generator_row(0).data();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t s = 0; s < kShapes.size(); ++s) {
    const auto [k, n] = kShapes[s];
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(rows[t][s], rows[0][s]) << "shape " << s << " thread " << t;
    const RseCode code(k, n);
    const auto fresh = gf::Matrix::systematic_generator(
        gf::Gf256::instance().field(), n, k);
    ASSERT_EQ(code.generator_row(0).data(), rows[0][s]);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = code.generator_row(i);
      const auto expect = fresh.row(i);
      EXPECT_TRUE(std::equal(row.begin(), row.end(), expect.begin(),
                             expect.end()))
          << "shape " << s << " row " << i;
    }
  }
}

TEST(RseCode, AllDataReceivedNeedsNoDecoding) {
  RseCode code(5, 8);
  Rng rng(1);
  std::vector<std::size_t> keep{0, 1, 2, 3, 4};
  round_trip(code, 100, keep, rng);
}

TEST(RseCode, ParityOnlyDecoding) {
  RseCode code(3, 8);
  Rng rng(2);
  round_trip(code, 64, {3, 4, 5}, rng);  // only parities survive
  round_trip(code, 64, {5, 6, 7}, rng);
}

TEST(RseCode, MixedShardsDecode) {
  RseCode code(7, 10);
  Rng rng(3);
  round_trip(code, 256, {0, 2, 4, 6, 7, 8, 9}, rng);
}

TEST(RseCode, ExtraShardsAreFine) {
  RseCode code(4, 8);
  Rng rng(4);
  round_trip(code, 32, {0, 1, 4, 5, 6, 7}, rng);  // 6 shards for k = 4
}

TEST(RseCode, SingleSymbolPackets) {
  RseCode code(5, 9);
  Rng rng(5);
  round_trip(code, 1, {4, 5, 6, 7, 8}, rng);
}

TEST(RseCode, RejectsInsufficientShards) {
  RseCode code(5, 8);
  Rng rng(6);
  const auto data = random_packets(5, 16, rng);
  std::vector<Shard> shards{{0, data[0]}, {1, data[1]}};
  std::vector<std::vector<std::uint8_t>> out(5, std::vector<std::uint8_t>(16));
  std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
  EXPECT_THROW(code.decode(shards, oviews), std::invalid_argument);
}

TEST(RseCode, RejectsDuplicateShards) {
  RseCode code(3, 6);
  Rng rng(7);
  const auto data = random_packets(3, 16, rng);
  std::vector<Shard> shards{{0, data[0]}, {0, data[0]}, {1, data[1]}};
  std::vector<std::vector<std::uint8_t>> out(3, std::vector<std::uint8_t>(16));
  std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
  EXPECT_THROW(code.decode(shards, oviews), std::invalid_argument);
}

TEST(RseCode, RejectsMismatchedLengths) {
  RseCode code(2, 4);
  std::vector<std::uint8_t> a(16), b(8);
  std::vector<Shard> shards{{0, a}, {1, b}};
  std::vector<std::vector<std::uint8_t>> out(2, std::vector<std::uint8_t>(16));
  std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
  EXPECT_THROW(code.decode(shards, oviews), std::invalid_argument);
}

TEST(RseCode, DecodeInPlaceRebuildsLostPacketsAndChecksItsInputs) {
  const RseCode code(4, 7);
  Rng rng(11);
  const auto data = random_packets(4, 16, rng);
  std::vector<std::vector<std::uint8_t>> parity(3, std::vector<std::uint8_t>(16));
  for (std::size_t j = 0; j < 3; ++j)
    code.encode_parity(j, views_of(data), parity[j]);
  auto out = data;
  out[1].assign(16, 0);
  out[3].assign(16, 0);
  const std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
  const std::vector<std::size_t> lost{1, 3};
  const auto decode = [&](std::vector<std::size_t> lost_idx,
                          std::vector<ParityShard> shards) {
    code.decode_in_place(oviews, lost_idx, shards);
  };
  EXPECT_THROW(decode({1, 4}, {{4, parity[0]}, {5, parity[1]}}),
               std::invalid_argument);  // lost index >= k
  EXPECT_THROW(decode({1, 1}, {{4, parity[0]}, {5, parity[1]}}),
               std::invalid_argument);  // duplicate lost index
  EXPECT_THROW(decode(lost, {{4, parity[0]}}),
               std::invalid_argument);  // fewer parities than losses
  EXPECT_THROW(decode(lost, {{4, parity[0]}, {4, parity[1]}}),
               std::invalid_argument);  // duplicate parity index
  EXPECT_THROW(decode(lost, {{2, parity[0]}, {7, parity[1]}}),
               std::invalid_argument);  // parity index outside [k, n)
  std::vector<std::uint8_t> short_parity(8);
  EXPECT_THROW(decode(lost, {{4, parity[0]}, {5, short_parity}}),
               std::invalid_argument);  // length mismatch
  // Parities 5 and 6, the third shard unused.
  decode(lost, {{5, parity[1]}, {6, parity[2]}, {4, parity[0]}});
  EXPECT_EQ(out, data);
}

TEST(RseCode, EncodeParityIndexChecked) {
  RseCode code(4, 6);
  Rng rng(8);
  const auto data = random_packets(4, 8, rng);
  std::vector<std::uint8_t> out(8);
  EXPECT_THROW(code.encode_parity(2, views_of(data), out),
               std::invalid_argument);
  EXPECT_NO_THROW(code.encode_parity(1, views_of(data), out));
}

TEST(RseCode, GeneratorRowsAreSystematic) {
  RseCode code(5, 9);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto row = code.generator_row(i);
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_EQ(row[j], i == j ? 1u : 0u);
  }
}

TEST(RseCode, ParityIsDeterministic) {
  RseCode code(4, 7);
  Rng rng(9);
  const auto data = random_packets(4, 128, rng);
  std::vector<std::uint8_t> p1(128), p2(128);
  code.encode_parity(0, views_of(data), p1);
  code.encode_parity(0, views_of(data), p2);
  EXPECT_EQ(p1, p2);
}

/// Property sweep: every (k, h) shape with random erasure patterns.

class RseErasureSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RseErasureSweep, RandomErasuresAlwaysRecoverable) {
  const auto [k, n] = GetParam();
  RseCode code(k, n);
  Rng rng(k * 1000 + n);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (int trial = 0; trial < 12; ++trial) {
    // Random surviving set of exactly k shards.
    for (std::size_t i = 0; i < k; ++i)
      std::swap(all[i], all[i + rng.below(n - i)]);
    std::vector<std::size_t> keep(all.begin(), all.begin() + k);
    std::sort(keep.begin(), keep.end());
    round_trip(code, 33, keep, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RseErasureSweep,
    ::testing::Values(Shape{1, 2}, Shape{2, 3}, Shape{3, 6}, Shape{7, 8},
                      Shape{7, 10}, Shape{7, 14}, Shape{20, 22}, Shape{20, 27},
                      Shape{100, 107}, Shape{100, 120}, Shape{64, 255}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "k" + std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(RseCode, ExhaustiveMdsPropertySmallCode) {
  // For a small code, EVERY k-subset of the n coded packets must decode:
  // the Maximum Distance Separable property, checked exhaustively.
  const std::size_t k = 3, n = 6;
  RseCode code(k, n);
  Rng rng(99);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        round_trip(code, 17, {a, b, c}, rng);
      }
    }
  }
}

// ---- golden vectors ----------------------------------------------------
//
// Byte-exact (k=7, h=3) parity fixture for a fixed seed payload, frozen
// at a state where the scalar kernel was verified against the generic
// GaloisField reference.  The differential kernel suite proves all
// kernels compute the same field; this test pins the *code construction*
// (Vandermonde systematic generator, coefficient order, primitive
// polynomial 0x11D), so a change that is self-consistent but breaks wire
// compatibility cannot pass silently.
TEST(RseCode, GoldenParityVectorsK7H3) {
  const std::size_t k = 7, h = 3, len = 32;
  Rng rng(0x60D5EEDULL);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
  for (auto& p : data) for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  static constexpr std::array<std::array<std::uint8_t, 32>, 3> kGolden{{
    {0xC0, 0x90, 0x89, 0x21, 0x3A, 0xB2, 0xC3, 0x59, 0x96, 0xAB, 0xC7, 0xBA,
     0x53, 0xE4, 0x25, 0x60, 0x1B, 0x58, 0xFC, 0xDF, 0xF7, 0xB2, 0x49, 0xDC,
     0xB7, 0x0D, 0x36, 0xCD, 0x29, 0x32, 0xAD, 0x96},
    {0x9F, 0x3B, 0xAE, 0xD7, 0xDC, 0x1F, 0x6D, 0xE7, 0xD8, 0x22, 0x47, 0x5C,
     0xBA, 0xCA, 0x9C, 0xED, 0x8A, 0x02, 0x4B, 0x9F, 0xEE, 0x3C, 0x8D, 0x97,
     0xD2, 0xB5, 0x84, 0x3A, 0x49, 0x03, 0x4E, 0xC6},
    {0xA6, 0xB9, 0x38, 0x04, 0x54, 0x0C, 0xB5, 0x4A, 0x9B, 0x68, 0x5E, 0x29,
     0xE7, 0x6A, 0x08, 0x82, 0x35, 0x45, 0x04, 0xA6, 0x44, 0x2A, 0x9B, 0x87,
     0xE8, 0x74, 0x10, 0x0B, 0x57, 0xAD, 0x4C, 0x3E},
  }};
  RseCode code(k, k + h);
  // Every compiled-in kernel must reproduce the committed bytes exactly.
  for (const gf::kern::Kernel* kern : gf::kern::available_kernels()) {
    gf::kern::ScopedKernelOverride force(*kern);
    for (std::size_t j = 0; j < h; ++j) {
      std::vector<std::uint8_t> out(len);
      code.encode_parity(j, views_of(data), out);
      const std::vector<std::uint8_t> expect(kGolden[j].begin(),
                                             kGolden[j].end());
      EXPECT_EQ(out, expect) << "kernel=" << kern->name << " parity " << j;
    }
  }
}

// ---- randomized round-trip matrix, swept under scalar and auto kernels

struct MatrixCase {
  Shape shape;
  const char* kernel;  // "scalar" or "auto" (resolved at runtime)
};

class RseKernelMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RseKernelMatrix, RoundTripFromExactlyKSurvivors) {
  const auto [shape, kernel_request] = GetParam();
  const auto [k, n] = shape;
  gf::kern::ScopedKernelOverride force(
      *gf::kern::resolve_kernel(kernel_request));
  RseCode code(k, n);
  Rng rng(0xABCD + k * 31 + n);
  std::vector<std::size_t> all(n);
  for (const std::size_t len : {std::size_t{1}, std::size_t{16},
                                std::size_t{1500}}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::iota(all.begin(), all.end(), std::size_t{0});
      for (std::size_t i = 0; i < k; ++i)  // random k-subset (partial shuffle)
        std::swap(all[i], all[i + rng.below(n - i)]);
      std::vector<std::size_t> keep(all.begin(), all.begin() + k);
      std::sort(keep.begin(), keep.end());
      round_trip(code, len, keep, rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesTimesKernels, RseKernelMatrix,
    ::testing::Values(MatrixCase{{1, 2}, "scalar"}, MatrixCase{{1, 2}, "auto"},
                      MatrixCase{{7, 14}, "scalar"}, MatrixCase{{7, 14}, "auto"},
                      MatrixCase{{20, 25}, "scalar"}, MatrixCase{{20, 25}, "auto"},
                      MatrixCase{{100, 120}, "scalar"},
                      MatrixCase{{100, 120}, "auto"},
                      MatrixCase{{200, 255}, "scalar"},
                      MatrixCase{{200, 255}, "auto"}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return "k" + std::to_string(info.param.shape.k) + "n" +
             std::to_string(info.param.shape.n) + "_" + info.param.kernel;
    });

TEST(RseCode, MaximalLossWithinBudgetRecovers) {
  // Lose exactly h = n - k packets, the worst recoverable case.
  RseCode code(7, 14);
  Rng rng(10);
  round_trip(code, 50, {7, 8, 9, 10, 11, 12, 13}, rng);  // all data lost
}

// ---- differential: the l x l solve against a dense k x k inverse --------

/// Reference decoder: the data packets lost from `keep` (sorted block
/// indices, at least k), as (G_S)^{-1} y_S over S = the received data
/// shards, then parities in index order up to k, byte by byte.
std::vector<std::vector<std::uint8_t>> dense_reference_decode(
    const RseCode& code, const std::vector<std::size_t>& keep,
    const std::vector<std::vector<std::uint8_t>>& coded) {
  const auto& gf = gf::Gf256::instance();
  gf::Matrix g(gf.field(), code.n(), code.k());
  for (std::size_t i = 0; i < code.n(); ++i)
    for (std::size_t j = 0; j < code.k(); ++j)
      g.at(i, j) = code.generator_row(i)[j];
  const std::vector<std::size_t> rows(keep.begin(), keep.begin() + code.k());
  const gf::Matrix dec = g.select_rows(rows).inverted();
  const std::size_t len = coded[0].size();
  std::vector<std::vector<std::uint8_t>> out(code.k());
  for (std::size_t i = 0; i < code.k(); ++i) {
    if (std::binary_search(rows.begin(), rows.end(), i)) {
      out[i] = coded[i];
      continue;
    }
    out[i].assign(len, 0);
    for (std::size_t j = 0; j < code.k(); ++j) {
      const auto c = static_cast<std::uint8_t>(dec.at(i, j));
      for (std::size_t b = 0; b < len; ++b)
        out[i][b] ^= gf.mul(c, coded[rows[j]][b]);
    }
  }
  return out;
}

/// Decodes `keep` under every available kernel and compares each result
/// with dense_reference_decode, and the reference with the data.
void expect_decode_matches_dense_inverse(
    const RseCode& code, const std::vector<std::size_t>& keep,
    const std::vector<std::vector<std::uint8_t>>& coded) {
  const auto expect = dense_reference_decode(code, keep, coded);
  for (std::size_t i = 0; i < code.k(); ++i)
    ASSERT_EQ(expect[i], coded[i]) << "reference, packet " << i;
  std::vector<Shard> shards;
  for (const std::size_t idx : keep) shards.push_back({idx, coded[idx]});
  const std::size_t len = coded[0].size();
  for (const gf::kern::Kernel* kern : gf::kern::available_kernels()) {
    gf::kern::ScopedKernelOverride force(*kern);
    std::vector<std::vector<std::uint8_t>> out(code.k(),
                                               std::vector<std::uint8_t>(len));
    const std::vector<std::span<std::uint8_t>> oviews(out.begin(), out.end());
    code.decode(shards, oviews);
    for (std::size_t i = 0; i < code.k(); ++i)
      ASSERT_EQ(out[i], expect[i])
          << "kernel=" << kern->name << " k=" << code.k() << " n="
          << code.n() << " packet " << i;
  }
}

/// All n packets of a random block of `len`-byte packets.
std::vector<std::vector<std::uint8_t>> random_codeword(const RseCode& code,
                                                       std::size_t len,
                                                       Rng& rng) {
  auto coded = random_packets(code.k(), len, rng);
  coded.resize(code.n(), std::vector<std::uint8_t>(len));
  const std::vector<std::span<const std::uint8_t>> data(
      coded.begin(), coded.begin() + static_cast<std::ptrdiff_t>(code.k()));
  for (std::size_t j = 0; j < code.h(); ++j)
    code.encode_parity(j, data, coded[code.k() + j]);
  return coded;
}

// 67 bytes: two 32-byte SIMD blocks and a scalar tail.
constexpr std::size_t kDiffLen = 67;

TEST(RseDifferential, EveryKSubsetMatchesDenseInverse) {
  for (const Shape shape : {Shape{3, 5}, Shape{4, 8}, Shape{6, 10}}) {
    const RseCode code(shape.k, shape.n);
    Rng rng(shape.k * 100 + shape.n);
    const auto coded = random_codeword(code, kDiffLen, rng);
    std::size_t subsets = 0;
    for (std::uint32_t mask = 0; mask < (1u << shape.n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) != shape.k) continue;
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < shape.n; ++i)
        if (mask & (1u << i)) keep.push_back(i);
      expect_decode_matches_dense_inverse(code, keep, coded);
      ++subsets;
    }
    EXPECT_GT(subsets, 0u);
  }
}

TEST(RseDifferential, RandomErasuresAtWorkloadShapesMatchDenseInverse) {
  // The end-to-end workloads' (k, n): bulk, many, repair, hardened.
  for (const Shape shape :
       {Shape{32, 64}, Shape{8, 24}, Shape{16, 64}, Shape{16, 48}}) {
    const RseCode code(shape.k, shape.n);
    Rng rng(0xD1FF + shape.k * 1000 + shape.n);
    std::vector<std::size_t> all(shape.n);
    for (int pattern = 0; pattern < 1000; ++pattern) {
      // Anywhere from exactly k to all n survive.
      const std::size_t survivors =
          shape.k + rng.below(shape.n - shape.k + 1);
      std::iota(all.begin(), all.end(), std::size_t{0});
      for (std::size_t i = 0; i < survivors; ++i)
        std::swap(all[i], all[i + rng.below(shape.n - i)]);
      std::vector<std::size_t> keep(all.begin(), all.begin() + survivors);
      std::sort(keep.begin(), keep.end());
      const auto coded = random_codeword(code, kDiffLen, rng);
      expect_decode_matches_dense_inverse(code, keep, coded);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace pbl::fec
