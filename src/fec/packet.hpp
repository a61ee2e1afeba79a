// Wire-level packet representation shared by the simulated channel and the
// UDP transport.
//
// A transmission group (TG) of k data packets plus its h = n - k parities
// forms an FEC block (paper, Section 2.1).  DATA and PARITY packets carry
// (tg, index) addressing within the block: index < k for data, index in
// [k, n) for parity.  POLL and NAK implement protocol NP's feedback
// (Section 5.1): POLL(i, s) solicits feedback after s packets were sent
// for TG i; NAK(i, l) reports that l more packets are needed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pbl::fec {

enum class PacketType : std::uint8_t {
  kData = 0,
  kParity = 1,
  kPoll = 2,
  kNak = 3,
};

std::string to_string(PacketType t);

struct PacketHeader {
  PacketType type = PacketType::kData;
  /// Sender incarnation: bumped each time a crashed sender restarts from
  /// its journal (core/session_state.hpp).  Receivers remember the
  /// newest incarnation they have seen and drop packets from earlier
  /// ones — a dead incarnation's in-flight traffic must not pollute
  /// rounds of its successor.  The journal counts lives in 32 bits and
  /// the wire carries the low 8, so lives compare by RFC 1982 serial
  /// arithmetic (protocol::stale_incarnation): life 256 goes out as 0
  /// and is newer than 255.  Incarnation 0 is the first life of a
  /// session, so the field is wire-compatible with the old always-zero
  /// reserved byte.
  std::uint8_t incarnation = 0;
  std::uint32_t tg = 0;      ///< transmission-group id
  std::uint16_t index = 0;   ///< position in the FEC block (data: <k, parity: [k,n))
  std::uint16_t k = 0;       ///< TG size
  std::uint16_t n = 0;       ///< FEC block size
  std::uint16_t count = 0;   ///< POLL: packets sent this round (s); NAK: packets needed (l)
  std::uint32_t seq = 0;     ///< global send sequence number
  std::uint32_t payload_len = 0;

  bool operator==(const PacketHeader&) const = default;
};

struct Packet {
  PacketHeader header;
  std::vector<std::uint8_t> payload;

  bool operator==(const Packet&) const = default;
};

inline constexpr std::size_t kHeaderWireSize = 22;
inline constexpr std::size_t kCrcWireSize = 4;

/// Wire size of a frame carrying `payload_len` payload bytes.
constexpr std::size_t wire_size(std::size_t payload_len) noexcept {
  return kHeaderWireSize + payload_len + kCrcWireSize;
}

/// Non-owning parse result: the header plus a span into the input buffer.
/// The payload view aliases the bytes handed to deserialize_view and is
/// only valid while they live — the zero-copy receive path's contract.
struct PacketView {
  PacketHeader header;
  std::span<const std::uint8_t> payload;
};

/// Writes the fixed 22-byte wire header into out[0, kHeaderWireSize).
/// The payload bytes and the CRC trailer are the caller's job (see
/// seal_frame) — this is the primitive the zero-copy encode path uses to
/// pre-frame arena buffers before the GF kernels write the payload in
/// place.  Throws std::invalid_argument if out is too small.
void write_header(const PacketHeader& header, std::span<std::uint8_t> out);

/// Computes the CRC-32 over frame[0, size-4) and writes it into the last
/// four bytes.  `frame` must be exactly wire_size(payload_len) for the
/// payload_len already written in its header.  The final step of in-place
/// framing: write_header + payload bytes + seal_frame ==
/// serialize(packet), byte for byte.
void seal_frame(std::span<std::uint8_t> frame);

/// Serialises the packet into a caller-provided buffer (no allocation);
/// returns the bytes written (wire_size(payload.size())).  Throws
/// std::invalid_argument if out is too small.
std::size_t serialize_into(const Packet& packet, std::span<std::uint8_t> out);

/// Serialises header + payload + CRC-32 trailer into a flat byte buffer
/// (fixed-layout little-endian; the UDP transport's wire format).
std::vector<std::uint8_t> serialize(const Packet& packet);

/// Non-owning variant of deserialize(): same validation, same throwing
/// contract, but the payload is returned as a view into `bytes` instead
/// of a copy.  The batched receive path parses frames in place with this
/// and copies only what protocol state actually keeps.
PacketView deserialize_view(std::span<const std::uint8_t> bytes);

/// deserialize_view() minus the CRC check, for callers that verified the
/// trailer themselves (FrameStreamDecoder): the header and block-shape
/// validation of a sealed frame, so each frame costs one CRC pass.
/// Throws std::invalid_argument like deserialize_view.
PacketView parse_sealed_frame(std::span<const std::uint8_t> frame);

/// The owning copy of a parsed view: the one payload copy on receive.
Packet to_packet(const PacketView& view);

/// Parses a buffer produced by serialize(); throws std::invalid_argument
/// on truncated, inconsistent or corrupted (CRC mismatch) input.  The
/// erasure code can only repair MISSING packets, so corruption must be
/// turned into loss here.  Beyond the CRC, DATA/PARITY headers are
/// validated semantically (k >= 1, k <= n, index < n, DATA index < k,
/// PARITY index >= k): a CRC-valid but inconsistent block address never
/// reaches protocol state.  Incarnation filtering is protocol policy,
/// not framing: any incarnation parses.
Packet deserialize(std::span<const std::uint8_t> bytes);

}  // namespace pbl::fec
