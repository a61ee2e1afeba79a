// Google-benchmark microbenchmarks of the GF(2^8) arithmetic and the RSE
// codec hot paths (per-parity encode, worst-case decode, matrix
// inversion; code construction and l-loss decode at the end-to-end
// workloads' shapes).  Complements fig01_codec_throughput, which reports the
// paper's packets/s metric.
//
// The per-kernel sweeps (BM_Kernel*, BM_EncodeKernelSweep) register one
// benchmark per available SIMD kernel so the scalar/ssse3/avx2/neon
// speedups land in the reported numbers; bytes_per_second in the output
// is the per-kernel throughput.  Compare e.g.
//   BM_KernelMulAdd/scalar/1024  vs  BM_KernelMulAdd/avx2/1024
// (docs/KERNELS.md records measured ratios; the acceptance floor is 4x).
// BM_Crc32/<kernel>/<len> does the same for the CRC-32 kernels that seal
// and check every wire frame (1426 B is a bulk-workload frame).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fec/rse_code.hpp"
#include "gf/gf.hpp"
#include "gf/kernels.hpp"
#include "gf/matrix.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using pbl::Rng;
using pbl::fec::RseCode;
using pbl::fec::Shard;
using pbl::gf::Gf256;

std::vector<std::vector<std::uint8_t>> random_packets(std::size_t count,
                                                      std::size_t len) {
  Rng rng(1);
  std::vector<std::vector<std::uint8_t>> pkts(count);
  for (auto& p : pkts) {
    p.resize(len);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  return pkts;
}

void BM_GfMulAdd(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto& gf = Gf256::instance();
  std::vector<std::uint8_t> dst(len, 0x11), src(len, 0x37);
  for (auto _ : state) {
    gf.mul_add(dst.data(), src.data(), len, 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_GfMulAdd)->Arg(256)->Arg(1024)->Arg(8192);

void BM_EncodeParity(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t len = 1024;
  RseCode code(k, k + 8 <= 255 ? k + 8 : 255);
  const auto data = random_packets(k, len);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::uint8_t> out(len);
  std::size_t j = 0;
  for (auto _ : state) {
    code.encode_parity(j, views, out);
    j = (j + 1) % code.h();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * len));
}
BENCHMARK(BM_EncodeParity)->Arg(7)->Arg(20)->Arg(100);

void BM_DecodeWorstCase(benchmark::State& state) {
  // All h = k/2 losses hit data packets: maximal reconstruction work.
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t h = k / 2;
  const std::size_t len = 1024;
  RseCode code(k, k + h);
  const auto data = random_packets(k, len);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(h,
                                                std::vector<std::uint8_t>(len));
  for (std::size_t j = 0; j < h; ++j) code.encode_parity(j, views, parity[j]);
  std::vector<Shard> shards;
  for (std::size_t i = h; i < k; ++i) shards.push_back({i, data[i]});
  for (std::size_t j = 0; j < h; ++j) shards.push_back({k + j, parity[j]});
  std::vector<std::vector<std::uint8_t>> out(k, std::vector<std::uint8_t>(len));
  for (auto _ : state) {
    std::vector<std::span<std::uint8_t>> ov(out.begin(), out.end());
    code.decode(shards, ov);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DecodeWorstCase)->Arg(8)->Arg(20)->Arg(100);

void BM_MatrixInvert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pbl::gf::GaloisField field(8);
  const auto g = pbl::gf::Matrix::systematic_generator(field, 2 * n, n);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = n + i;  // parity rows
  const auto sub = g.select_rows(rows);
  for (auto _ : state) {
    auto inv = sub.inverted();
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_MatrixInvert)->Arg(7)->Arg(20)->Arg(100);

// ---- at the end-to-end workloads' shapes --------------------------------
//
// (k, n, packet_len) of bench/e2e's bulk, many, repair and hardened.
// BM_RseCodeConstruct is what every session driver pays once per code;
// BM_DecodeLosses is one TG's decode with l lost data packets, survivors
// in place (as TgDecoder::reconstruct hands them over), parities 0..l-1.

void BM_RseCodeConstruct(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    RseCode code(k, n);
    benchmark::DoNotOptimize(code.generator_row(n - 1).data());
  }
}
BENCHMARK(BM_RseCodeConstruct)
    ->ArgNames({"k", "n"})
    ->Args({32, 64})
    ->Args({8, 24})
    ->Args({16, 64})
    ->Args({16, 48});

void BM_DecodeLosses(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto len = static_cast<std::size_t>(state.range(2));
  const auto l = static_cast<std::size_t>(state.range(3));
  const RseCode code(k, n);
  auto out = random_packets(k, len);
  std::vector<std::vector<std::uint8_t>> parity(l,
                                                std::vector<std::uint8_t>(len));
  {
    const std::vector<std::span<const std::uint8_t>> views(out.begin(),
                                                           out.end());
    for (std::size_t j = 0; j < l; ++j) code.encode_parity(j, views, parity[j]);
  }
  // Lose data packets 0, k/l, 2k/l, ...: spread over the group.
  std::vector<bool> lost(k, false);
  for (std::size_t j = 0; j < l; ++j) lost[j * k / l] = true;
  std::vector<Shard> shards;
  for (std::size_t i = 0; i < k; ++i)
    if (!lost[i]) shards.push_back({i, out[i]});
  for (std::size_t j = 0; j < l; ++j) shards.push_back({k + j, parity[j]});
  const std::vector<std::span<std::uint8_t>> ov(out.begin(), out.end());
  for (auto _ : state) {
    code.decode(shards, ov);
    benchmark::DoNotOptimize(out[0].data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(l * len));
}
BENCHMARK(BM_DecodeLosses)
    ->ArgNames({"k", "n", "len", "l"})
    ->ArgsProduct({{32}, {64}, {1400}, {1, 2}})
    ->ArgsProduct({{8}, {24}, {64}, {1, 2}})
    ->ArgsProduct({{16}, {64}, {512}, {1, 2}})
    ->ArgsProduct({{16}, {48}, {512}, {1, 2}});

// ---- per-kernel sweeps -------------------------------------------------

void BM_KernelMulAdd(benchmark::State& state, const pbl::gf::kern::Kernel* k,
                     std::size_t len) {
  std::vector<std::uint8_t> dst(len, 0x11), src(len, 0x37);
  for (auto _ : state) {
    k->mul_add(dst.data(), src.data(), len, 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_KernelMulAssign(benchmark::State& state,
                        const pbl::gf::kern::Kernel* k, std::size_t len) {
  std::vector<std::uint8_t> dst(len), src(len, 0x37);
  for (auto _ : state) {
    k->mul_assign(dst.data(), src.data(), len, 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_EncodeKernelSweep(benchmark::State& state,
                          const pbl::gf::kern::Kernel* kern, std::size_t k,
                          std::size_t h, std::size_t len) {
  const pbl::gf::kern::ScopedKernelOverride force(*kern);
  RseCode code(k, k + h);
  const auto data = random_packets(k, len);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(h,
                                                std::vector<std::uint8_t>(len));
  std::vector<std::span<std::uint8_t>> pviews(parity.begin(), parity.end());
  for (auto _ : state) {
    code.encode(views, pviews);
    benchmark::DoNotOptimize(parity.data());
  }
  // Source bytes coded per iteration (the paper's Fig. 1 denominator).
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * len));
}

void BM_Crc32(benchmark::State& state, const pbl::detail::Crc32Kernel* k,
              std::size_t len) {
  const auto frame = random_packets(1, len).front();
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = k->update(crc, frame.data(), frame.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void register_kernel_sweeps() {
  for (const pbl::detail::Crc32Kernel* k : pbl::detail::crc32_kernels())
    for (const std::size_t len : {64u, 1426u, 4096u})
      benchmark::RegisterBenchmark(("BM_Crc32/" + std::string(k->name) + "/" +
                                    std::to_string(len))
                                       .c_str(),
                                   BM_Crc32, k, len);

  for (const pbl::gf::kern::Kernel* k : pbl::gf::kern::available_kernels()) {
    const std::string name(k->name);
    for (const std::size_t len : {64u, 256u, 1024u, 1500u, 8192u}) {
      benchmark::RegisterBenchmark(
          ("BM_KernelMulAdd/" + name + "/" + std::to_string(len)).c_str(),
          BM_KernelMulAdd, k, len);
      benchmark::RegisterBenchmark(
          ("BM_KernelMulAssign/" + name + "/" + std::to_string(len)).c_str(),
          BM_KernelMulAssign, k, len);
    }
    struct Shape {
      std::size_t k, h;
    };
    for (const Shape s : {Shape{7, 3}, Shape{20, 5}, Shape{100, 20}}) {
      for (const std::size_t len : {256u, 1024u}) {
        benchmark::RegisterBenchmark(
            ("BM_EncodeKernelSweep/" + name + "/k" + std::to_string(s.k) +
             "h" + std::to_string(s.h) + "/" + std::to_string(len))
                .c_str(),
            BM_EncodeKernelSweep, k, s.k, s.h, len);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_sweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
