#include "net/udp/frame_stream.hpp"

#include <stdexcept>

#include "util/crc32.hpp"

namespace pbl::net {

namespace {
std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}
}  // namespace

void FrameStreamDecoder::feed(std::span<const std::uint8_t> segment) {
  buf_.insert(buf_.end(), segment.begin(), segment.end());
  parse();
}

std::vector<fec::Packet> FrameStreamDecoder::take() {
  std::vector<fec::Packet> packets(
      std::make_move_iterator(out_.begin()),
      std::make_move_iterator(out_.end()));
  out_.clear();
  return packets;
}

void FrameStreamDecoder::parse() {
  constexpr std::size_t kMin = fec::kHeaderWireSize + fec::kCrcWireSize;
  std::size_t pos = 0;
  while (buf_.size() - pos >= kMin) {
    const std::span<const std::uint8_t> view{buf_.data() + pos,
                                             buf_.size() - pos};
    const std::size_t payload_len = get_u32(view, 18);
    const std::size_t total = fec::wire_size(payload_len);
    if (total > kMaxFrameBytes) {
      // Implausible length: not a frame start.  Slide one byte.
      ++pos;
      ++resyncs_;
      continue;
    }
    if (view.size() < total) break;  // frame still arriving
    const std::span<const std::uint8_t> frame = view.first(total);
    const std::uint32_t stored = get_u32(frame, total - fec::kCrcWireSize);
    if (pbl::crc32(frame.first(total - fec::kCrcWireSize)) != stored) {
      // Unsealed bytes: damage or mid-frame garbage.  Slide one byte —
      // a real frame may start inside the span we just rejected.
      ++pos;
      ++resyncs_;
      continue;
    }
    try {
      out_.push_back(fec::to_packet(fec::parse_sealed_frame(frame)));
      ++frames_emitted_;
    } catch (const std::invalid_argument&) {
      // Sealed by somebody, but not a packet of ours (bad type byte or
      // block-shape invariants): skip the whole frame.
      ++skipped_invalid_;
    }
    pos += total;
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace pbl::net
