// Transmission-group encoder/decoder state machines.
//
// TgEncoder owns the k data packets of one transmission group and produces
// DATA/PARITY packets on demand, encoding each parity when it is asked
// for (no protocol sends the same parity twice, so none is cached).
// TgDecoder accumulates any
// packets of the block and reconstructs the group as soon as k distinct
// packets have arrived (Section 2.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/packet.hpp"
#include "fec/rse_code.hpp"

namespace pbl::fec {

class TgEncoder {
 public:
  /// `data` must contain exactly k equal-length packets.
  TgEncoder(std::uint32_t tg_id, const RseCode& code,
            std::vector<std::vector<std::uint8_t>> data);
  // Move-only: the encode views point into the packets' buffers, which a
  // move hands over and a copy would not.
  TgEncoder(const TgEncoder&) = delete;
  TgEncoder& operator=(const TgEncoder&) = delete;
  TgEncoder(TgEncoder&&) noexcept = default;
  TgEncoder& operator=(TgEncoder&&) noexcept = default;

  std::uint32_t tg_id() const noexcept { return tg_id_; }
  std::size_t k() const noexcept { return code_->k(); }
  std::size_t n() const noexcept { return code_->n(); }

  /// DATA packet for data index i < k.
  Packet data_packet(std::size_t i) const;

  /// PARITY packet for parity index j < h (block index k + j), encoded
  /// by this call.
  Packet parity_packet(std::size_t j);

  /// Frames DATA packet i directly into `frame` (header + payload + CRC,
  /// byte-identical to serialize(data_packet(i)) with the incarnation
  /// stamped).  Returns the bytes written.  The zero-copy send path:
  /// arena frames are framed in place, no intermediate Packet/vector.
  std::size_t write_data_frame(std::size_t i, std::uint8_t incarnation,
                               std::span<std::uint8_t> frame) const;

  /// Frames PARITY j (block index k + j) directly into `frame`: the GF
  /// kernels encode it straight into the frame's payload region, so the
  /// parity bytes are never materialised anywhere else.  Byte-identical
  /// to serialize(parity_packet(j)) with the incarnation stamped; counts
  /// toward parities_encoded() exactly like parity_packet().  Returns the
  /// bytes written.
  std::size_t write_parity_frame(std::size_t j, std::uint8_t incarnation,
                                 std::span<std::uint8_t> frame);

  /// Wire size of any frame of this group (all packets share one
  /// payload length).
  std::size_t frame_wire_size() const noexcept {
    return wire_size(data_.empty() ? 0 : data_[0].size());
  }

  /// Number of parity encodes so far (for processing-cost accounting).
  std::size_t parities_encoded() const noexcept { return encoded_count_; }

 private:
  /// Encodes parity j of this group into `out` and counts it.
  void encode_parity(std::size_t j, std::span<std::uint8_t> out);

  std::uint32_t tg_id_;
  const RseCode* code_;
  std::vector<std::vector<std::uint8_t>> data_;
  std::vector<std::span<const std::uint8_t>> views_;  // of data_, for encode
  std::size_t encoded_count_ = 0;
};

class TgDecoder {
 public:
  TgDecoder(std::uint32_t tg_id, const RseCode& code, std::size_t packet_len);

  std::uint32_t tg_id() const noexcept { return tg_id_; }

  /// Feeds a DATA or PARITY packet of this block.  Duplicate or foreign
  /// packets are ignored (returns false); fresh packets return true.
  bool add(const Packet& packet);
  /// As add(const Packet&), but a fresh packet's payload is moved into
  /// the shard instead of copied (the receive path's last copy).
  bool add(Packet&& packet);

  std::size_t received() const noexcept { return received_count_; }
  /// Number of additional packets needed to reconstruct: max(0, k - received).
  std::size_t needed() const noexcept;
  bool decodable() const noexcept { return received_count_ >= code_->k(); }

  /// Number of duplicate/ignored packets seen (unnecessary receptions,
  /// a metric the paper tracks in Section 2.1).
  std::size_t duplicates() const noexcept { return duplicates_; }

  /// Reconstructs and returns the k data packets; requires decodable().
  /// Received data payloads move into the result (a packet given to
  /// add(Packet&&) keeps its buffer); only the l lost packets are
  /// allocated and decoded.  The shards are released afterwards, and
  /// every later packet of the block counts as a duplicate.  Idempotent;
  /// subsequent calls return the cached reconstruction.
  const std::vector<std::vector<std::uint8_t>>& reconstruct();

  /// Number of data packets that were actually rebuilt by RSE decoding
  /// (l in the paper; the per-receiver decode cost is proportional to it).
  std::size_t decoded_packets() const noexcept { return decoded_packets_; }

 private:
  /// True when `packet` is a fresh shard of this block; counts
  /// duplicates and throws on an out-of-range index or wrong length.
  bool admit(const Packet& packet);

  std::uint32_t tg_id_;
  const RseCode* code_;
  std::size_t packet_len_;
  std::vector<std::optional<std::vector<std::uint8_t>>> shards_;  // size n
  std::size_t received_count_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t decoded_packets_ = 0;
  std::optional<std::vector<std::vector<std::uint8_t>>> result_;
};

}  // namespace pbl::fec
