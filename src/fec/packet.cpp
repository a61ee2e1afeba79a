#include "fec/packet.hpp"

#include <cstring>
#include <stdexcept>

#include "util/crc32.hpp"

namespace pbl::fec {

std::string to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kParity: return "PARITY";
    case PacketType::kPoll: return "POLL";
    case PacketType::kNak: return "NAK";
  }
  return "UNKNOWN";
}

namespace {

void put_u16_at(std::span<std::uint8_t> out, std::size_t off, std::uint16_t v) {
  out[off] = static_cast<std::uint8_t>(v);
  out[off + 1] = static_cast<std::uint8_t>(v >> 8);
}
void put_u32_at(std::span<std::uint8_t> out, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>(b[off] | (b[off + 1] << 8));
}
std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

}  // namespace

void write_header(const PacketHeader& header, std::span<std::uint8_t> out) {
  if (out.size() < kHeaderWireSize)
    throw std::invalid_argument("packet: header buffer too small");
  out[0] = static_cast<std::uint8_t>(header.type);
  out[1] = header.incarnation;
  put_u32_at(out, 2, header.tg);
  put_u16_at(out, 6, header.index);
  put_u16_at(out, 8, header.k);
  put_u16_at(out, 10, header.n);
  put_u16_at(out, 12, header.count);
  put_u32_at(out, 14, header.seq);
  put_u32_at(out, 18, header.payload_len);
}

void seal_frame(std::span<std::uint8_t> frame) {
  if (frame.size() < kHeaderWireSize + kCrcWireSize)
    throw std::invalid_argument("packet: frame too small to seal");
  const std::size_t body = frame.size() - kCrcWireSize;
  if (get_u32(frame, 18) != body - kHeaderWireSize)
    throw std::invalid_argument("packet: frame size != header payload_len");
  put_u32_at(frame, body, crc32(frame.subspan(0, body)));
}

std::size_t serialize_into(const Packet& packet, std::span<std::uint8_t> out) {
  const std::size_t total = wire_size(packet.payload.size());
  if (out.size() < total)
    throw std::invalid_argument("packet: serialize buffer too small");
  PacketHeader hdr = packet.header;
  hdr.payload_len = static_cast<std::uint32_t>(packet.payload.size());
  write_header(hdr, out);
  if (!packet.payload.empty())  // POLL/NAK/end markers carry no payload
    std::memcpy(out.data() + kHeaderWireSize, packet.payload.data(),
                packet.payload.size());
  seal_frame(out.subspan(0, total));
  return total;
}

std::vector<std::uint8_t> serialize(const Packet& packet) {
  std::vector<std::uint8_t> out(wire_size(packet.payload.size()));
  serialize_into(packet, out);
  return out;
}

PacketView deserialize_view(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderWireSize + kCrcWireSize)
    throw std::invalid_argument("packet: truncated header");
  const std::size_t body = bytes.size() - kCrcWireSize;
  if (crc32(bytes.subspan(0, body)) != get_u32(bytes, body))
    throw std::invalid_argument("packet: CRC mismatch");
  return parse_sealed_frame(bytes);
}

PacketView parse_sealed_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderWireSize + kCrcWireSize)
    throw std::invalid_argument("packet: truncated header");
  bytes = bytes.subspan(0, bytes.size() - kCrcWireSize);
  PacketView p;
  const std::uint8_t type = bytes[0];
  if (type > static_cast<std::uint8_t>(PacketType::kNak))
    throw std::invalid_argument("packet: unknown type");
  p.header.type = static_cast<PacketType>(type);
  p.header.incarnation = bytes[1];
  p.header.tg = get_u32(bytes, 2);
  p.header.index = get_u16(bytes, 6);
  p.header.k = get_u16(bytes, 8);
  p.header.n = get_u16(bytes, 10);
  p.header.count = get_u16(bytes, 12);
  p.header.seq = get_u32(bytes, 14);
  p.header.payload_len = get_u32(bytes, 18);
  if (bytes.size() != kHeaderWireSize + p.header.payload_len)
    throw std::invalid_argument("packet: payload length mismatch");
  // Semantic validation: a CRC-valid but inconsistent block address must
  // not reach protocol state (it would index decoder arrays out of range
  // or feed the erasure code a shard it cannot hold).  The (k, index, n)
  // invariants only bind the block-addressed types; POLL/NAK reuse these
  // fields for round bookkeeping.
  if (p.header.type == PacketType::kData ||
      p.header.type == PacketType::kParity) {
    if (p.header.k == 0 || p.header.k > p.header.n)
      throw std::invalid_argument("packet: invalid block shape (k > n)");
    if (p.header.index >= p.header.n)
      throw std::invalid_argument("packet: block index out of range");
    if (p.header.type == PacketType::kData && p.header.index >= p.header.k)
      throw std::invalid_argument("packet: DATA index in parity range");
    if (p.header.type == PacketType::kParity && p.header.index < p.header.k)
      throw std::invalid_argument("packet: PARITY index in data range");
  }
  p.payload = bytes.subspan(kHeaderWireSize);
  return p;
}

Packet to_packet(const PacketView& view) {
  Packet p;
  p.header = view.header;
  p.payload.assign(view.payload.begin(), view.payload.end());
  return p;
}

Packet deserialize(std::span<const std::uint8_t> bytes) {
  return to_packet(deserialize_view(bytes));
}

}  // namespace pbl::fec
