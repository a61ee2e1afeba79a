#include "fec/fec_block.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace pbl::fec {

TgEncoder::TgEncoder(std::uint32_t tg_id, const RseCode& code,
                     std::vector<std::vector<std::uint8_t>> data)
    : tg_id_(tg_id), code_(&code), data_(std::move(data)),
      views_(data_.begin(), data_.end()) {
  if (data_.size() != code_->k())
    throw std::invalid_argument("TgEncoder: need exactly k data packets");
  for (const auto& d : data_)
    if (d.size() != data_[0].size())
      throw std::invalid_argument("TgEncoder: packets must have equal length");
}

Packet TgEncoder::data_packet(std::size_t i) const {
  if (i >= code_->k()) throw std::out_of_range("TgEncoder: data index");
  Packet p;
  p.header.type = PacketType::kData;
  p.header.tg = tg_id_;
  p.header.index = static_cast<std::uint16_t>(i);
  p.header.k = static_cast<std::uint16_t>(code_->k());
  p.header.n = static_cast<std::uint16_t>(code_->n());
  p.payload = data_[i];
  p.header.payload_len = static_cast<std::uint32_t>(p.payload.size());
  return p;
}

Packet TgEncoder::parity_packet(std::size_t j) {
  if (j >= code_->h()) throw std::out_of_range("TgEncoder: parity index");
  Packet p;
  p.header.type = PacketType::kParity;
  p.header.tg = tg_id_;
  p.header.index = static_cast<std::uint16_t>(code_->k() + j);
  p.header.k = static_cast<std::uint16_t>(code_->k());
  p.header.n = static_cast<std::uint16_t>(code_->n());
  p.payload.resize(data_.empty() ? 0 : data_[0].size());
  encode_parity(j, p.payload);
  p.header.payload_len = static_cast<std::uint32_t>(p.payload.size());
  return p;
}

std::size_t TgEncoder::write_data_frame(std::size_t i, std::uint8_t incarnation,
                                        std::span<std::uint8_t> frame) const {
  if (i >= code_->k()) throw std::out_of_range("TgEncoder: data index");
  const std::size_t len = data_[i].size();
  const std::size_t total = wire_size(len);
  if (frame.size() < total)
    throw std::invalid_argument("TgEncoder: frame buffer too small");
  PacketHeader h;
  h.type = PacketType::kData;
  h.incarnation = incarnation;
  h.tg = tg_id_;
  h.index = static_cast<std::uint16_t>(i);
  h.k = static_cast<std::uint16_t>(code_->k());
  h.n = static_cast<std::uint16_t>(code_->n());
  h.payload_len = static_cast<std::uint32_t>(len);
  write_header(h, frame);
  std::memcpy(frame.data() + kHeaderWireSize, data_[i].data(), len);
  seal_frame(frame.subspan(0, total));
  return total;
}

std::size_t TgEncoder::write_parity_frame(std::size_t j,
                                          std::uint8_t incarnation,
                                          std::span<std::uint8_t> frame) {
  if (j >= code_->h()) throw std::out_of_range("TgEncoder: parity index");
  const std::size_t len = data_.empty() ? 0 : data_[0].size();
  const std::size_t total = wire_size(len);
  if (frame.size() < total)
    throw std::invalid_argument("TgEncoder: frame buffer too small");
  PacketHeader h;
  h.type = PacketType::kParity;
  h.incarnation = incarnation;
  h.tg = tg_id_;
  h.index = static_cast<std::uint16_t>(code_->k() + j);
  h.k = static_cast<std::uint16_t>(code_->k());
  h.n = static_cast<std::uint16_t>(code_->n());
  h.payload_len = static_cast<std::uint32_t>(len);
  write_header(h, frame);
  encode_parity(j, frame.subspan(kHeaderWireSize, len));
  seal_frame(frame.subspan(0, total));
  return total;
}

void TgEncoder::encode_parity(std::size_t j, std::span<std::uint8_t> out) {
  code_->encode_parity(j, views_, out);
  ++encoded_count_;
}

TgDecoder::TgDecoder(std::uint32_t tg_id, const RseCode& code,
                     std::size_t packet_len)
    : tg_id_(tg_id), code_(&code), packet_len_(packet_len),
      shards_(code.n()) {}

bool TgDecoder::admit(const Packet& packet) {
  if (packet.header.tg != tg_id_) return false;
  if (packet.header.type != PacketType::kData &&
      packet.header.type != PacketType::kParity)
    return false;
  const std::size_t idx = packet.header.index;
  if (idx >= code_->n())
    throw std::invalid_argument("TgDecoder: packet index out of range");
  if (packet.payload.size() != packet_len_)
    throw std::invalid_argument("TgDecoder: payload length mismatch");
  if (shards_[idx] || result_) {
    ++duplicates_;
    return false;
  }
  return true;
}

bool TgDecoder::add(const Packet& packet) {
  if (!admit(packet)) return false;
  shards_[packet.header.index] = packet.payload;
  ++received_count_;
  return true;
}

bool TgDecoder::add(Packet&& packet) {
  if (!admit(packet)) return false;
  shards_[packet.header.index] = std::move(packet.payload);
  ++received_count_;
  return true;
}

std::size_t TgDecoder::needed() const noexcept {
  const std::size_t k = code_->k();
  return received_count_ >= k ? 0 : k - received_count_;
}

const std::vector<std::vector<std::uint8_t>>& TgDecoder::reconstruct() {
  if (result_) return *result_;
  if (!decodable())
    throw std::logic_error("TgDecoder: not enough packets to reconstruct");

  // Each received data shard moves into the reconstruction, so its bytes
  // stay in the buffer add(Packet&&) took.  Only the l missing packets
  // get fresh buffers, and the solve runs in the parity shards this
  // decoder owns: they become the syndromes, which every missing packet
  // reads, so none of them can double as an output.
  const std::size_t k = code_->k();
  std::vector<std::vector<std::uint8_t>> out(k);
  std::vector<std::size_t> lost;
  for (std::size_t i = 0; i < k; ++i) {
    if (shards_[i]) {
      out[i] = std::move(*shards_[i]);
    } else {
      out[i].resize(packet_len_);
      lost.push_back(i);
    }
  }
  std::vector<ParityShard> parity;
  parity.reserve(lost.size());
  for (std::size_t i = k; i < shards_.size() && parity.size() < lost.size(); ++i)
    if (shards_[i]) parity.push_back({i, *shards_[i]});
  const std::vector<std::span<std::uint8_t>> views(out.begin(), out.end());
  code_->decode_in_place(views, lost, parity);

  decoded_packets_ += lost.size();
  result_ = std::move(out);
  // The shards are spent: parity buffers go, and result_ now marks every
  // later packet of the block a duplicate.
  for (auto& shard : shards_) shard.reset();
  return *result_;
}

}  // namespace pbl::fec
