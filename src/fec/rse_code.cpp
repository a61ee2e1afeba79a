#include "fec/rse_code.hpp"

#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace pbl::fec {

namespace {

/// The generator of the (k, n) code, shared by every code of that shape.
/// The shape is checked first, so a bad one never enters the cache.  A
/// shape's generator is built once, under the lock, and kept for the
/// life of the process (a handful of shapes, a few KiB each).
const gf::Matrix& shared_generator(std::size_t k, std::size_t n) {
  if (k == 0 || k > n) throw std::invalid_argument("RseCode: need 0 < k <= n");
  if (n > 255)
    throw std::invalid_argument("RseCode: GF(2^8) limits the block to n <= 255");
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<const gf::Matrix>>
      cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{k, n}];
  if (!slot)
    slot = std::make_unique<const gf::Matrix>(gf::Matrix::systematic_generator(
        gf::Gf256::instance().field(), n, k));
  return *slot;
}

void check_equal_lengths(std::span<const std::span<const std::uint8_t>> data) {
  for (std::size_t i = 1; i < data.size(); ++i)
    if (data[i].size() != data[0].size())
      throw std::invalid_argument("RseCode: packets must have equal length");
}

}  // namespace

RseCode::RseCode(std::size_t k, std::size_t n)
    : k_(k), n_(n), gf_(gf::Gf256::instance()),
      generator_(&shared_generator(k, n)) {}

void RseCode::encode_parity(std::size_t j,
                            std::span<const std::span<const std::uint8_t>> data,
                            std::span<std::uint8_t> out) const {
  if (j >= h()) throw std::invalid_argument("RseCode: parity index out of range");
  if (data.size() != k_) throw std::invalid_argument("RseCode: need k data packets");
  check_equal_lengths(data);
  if (!data.empty() && out.size() != data[0].size())
    throw std::invalid_argument("RseCode: output length mismatch");
  // The first contribution assigns instead of accumulating (mul_assign
  // with c == 0 zero-fills), saving a clear pass over the output.
  const auto row = generator_->row(k_ + j);
  gf_.mul_assign(out.data(), data[0].data(), out.size(),
                 static_cast<std::uint8_t>(row[0]));
  for (std::size_t i = 1; i < k_; ++i) {
    gf_.mul_add(out.data(), data[i].data(), out.size(),
                static_cast<std::uint8_t>(row[i]));
  }
}

void RseCode::encode(std::span<const std::span<const std::uint8_t>> data,
                     std::span<const std::span<std::uint8_t>> parity) const {
  if (parity.size() != h())
    throw std::invalid_argument("RseCode: need h parity buffers");
  for (std::size_t j = 0; j < h(); ++j) encode_parity(j, data, parity[j]);
}

void RseCode::decode(std::span<const Shard> received,
                     std::span<const std::span<std::uint8_t>> out) const {
  if (out.size() != k_) throw std::invalid_argument("RseCode: need k output buffers");
  if (received.size() < k_)
    throw std::invalid_argument("RseCode: need at least k shards to decode");

  // Select k shards, preferring data shards (they copy through for free).
  std::vector<const Shard*> chosen;
  chosen.reserve(k_);
  std::vector<bool> index_seen(n_, false);
  for (const auto& s : received) {
    if (s.index >= n_) throw std::invalid_argument("RseCode: shard index out of range");
    if (index_seen[s.index]) throw std::invalid_argument("RseCode: duplicate shard");
    index_seen[s.index] = true;
  }
  for (const auto& s : received)
    if (s.index < k_ && chosen.size() < k_) chosen.push_back(&s);
  const std::size_t data_chosen = chosen.size();
  for (const auto& s : received)
    if (s.index >= k_ && chosen.size() < k_) chosen.push_back(&s);

  const std::size_t len = chosen[0]->data.size();
  for (const auto* s : chosen)
    if (s->data.size() != len)
      throw std::invalid_argument("RseCode: packets must have equal length");
  for (const auto& o : out)
    if (o.size() != len)
      throw std::invalid_argument("RseCode: output length mismatch");

  // Received data packets copy through (unless already in place).
  for (std::size_t c = 0; c < data_chosen; ++c) {
    const Shard& s = *chosen[c];
    const auto& dst = out[s.index];
    if (dst.data() != s.data.data()) std::memcpy(dst.data(), s.data.data(), len);
  }
  if (data_chosen == k_)
    return;  // nothing lost: no decoding required (paper, Section 2.1)

  std::vector<std::size_t> lost;
  lost.reserve(k_ - data_chosen);
  for (std::size_t i = 0; i < k_; ++i)
    if (!index_seen[i]) lost.push_back(i);
  // The received parities are read-only, so the syndromes go to a copy.
  std::vector<std::uint8_t> scratch(lost.size() * len);
  std::vector<ParityShard> parity(lost.size());
  for (std::size_t a = 0; a < lost.size(); ++a) {
    const Shard& s = *chosen[data_chosen + a];
    parity[a] = {s.index, {scratch.data() + a * len, len}};
    std::memcpy(parity[a].data.data(), s.data.data(), len);
  }
  decode_in_place(out, lost, parity);
}

void RseCode::decode_in_place(std::span<const std::span<std::uint8_t>> data,
                              std::span<const std::size_t> lost,
                              std::span<const ParityShard> parity) const {
  if (data.size() != k_) throw std::invalid_argument("RseCode: need k data buffers");
  const std::size_t l = lost.size();
  if (parity.size() < l)
    throw std::invalid_argument("RseCode: need a parity shard per lost packet");
  const std::size_t len = data[0].size();
  for (const auto& d : data)
    if (d.size() != len)
      throw std::invalid_argument("RseCode: packets must have equal length");
  std::array<bool, 255> is_lost{};
  for (const std::size_t i : lost) {
    if (i >= k_ || is_lost[i])
      throw std::invalid_argument("RseCode: bad lost data index");
    is_lost[i] = true;
  }
  std::array<bool, 255> parity_seen{};
  for (std::size_t a = 0; a < l; ++a) {
    const ParityShard& p = parity[a];
    if (p.index < k_ || p.index >= n_ || parity_seen[p.index])
      throw std::invalid_argument("RseCode: bad parity shard index");
    if (p.data.size() != len)
      throw std::invalid_argument("RseCode: packets must have equal length");
    parity_seen[p.index] = true;
  }
  if (l == 0) return;

  // Parity row J_a reads y = P_{J_a,D} x_D + P_{J_a,L} x_L.  Adding the
  // survivors' share leaves the syndrome s_a = P_{J_a,L} x_L.
  for (std::size_t a = 0; a < l; ++a) {
    const auto row = generator_->row(parity[a].index);
    std::uint8_t* s = parity[a].data.data();
    for (std::size_t i = 0; i < k_; ++i)
      if (!is_lost[i])
        gf_.mul_add(s, data[i].data(), len, static_cast<std::uint8_t>(row[i]));
  }

  // x_L = (P_{J,L})^{-1} s: an l x l inverse (any l x l block of the
  // parity rows is invertible, the MDS property), applied in l^2 ops.
  gf::Matrix coupling(gf_.field(), l, l);
  for (std::size_t a = 0; a < l; ++a) {
    const auto row = generator_->row(parity[a].index);
    for (std::size_t b = 0; b < l; ++b) coupling.at(a, b) = row[lost[b]];
  }
  const gf::Matrix inv = coupling.inverted();
  for (std::size_t b = 0; b < l; ++b) {
    std::uint8_t* dst = data[lost[b]].data();
    gf_.mul_assign(dst, parity[0].data.data(), len,
                   static_cast<std::uint8_t>(inv.at(b, 0)));
    for (std::size_t a = 1; a < l; ++a)
      gf_.mul_add(dst, parity[a].data.data(), len,
                  static_cast<std::uint8_t>(inv.at(b, a)));
  }
}

}  // namespace pbl::fec
