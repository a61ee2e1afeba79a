#include "fec/fec_block.hpp"

#include <gtest/gtest.h>

#include "fec/packet.hpp"
#include "util/rng.hpp"

namespace pbl::fec {
namespace {

std::vector<std::vector<std::uint8_t>> random_data(std::size_t k,
                                                   std::size_t len,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> d(k);
  for (auto& p : d) {
    p.resize(len);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  return d;
}

TEST(Packet, SerializeRoundTrip) {
  Packet p;
  p.header.type = PacketType::kParity;
  p.header.tg = 12345;
  p.header.index = 9;
  p.header.k = 7;
  p.header.n = 10;
  p.header.count = 3;
  p.header.seq = 777;
  p.payload = {1, 2, 3, 4, 5};
  p.header.payload_len = 5;
  const auto bytes = serialize(p);
  EXPECT_EQ(bytes.size(), kHeaderWireSize + 5 + kCrcWireSize);
  const Packet q = deserialize(bytes);
  EXPECT_EQ(p, q);
}

TEST(Packet, DeserializeRejectsTruncated) {
  Packet p;
  p.payload = {1, 2, 3};
  auto bytes = serialize(p);
  bytes.pop_back();
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
  EXPECT_THROW(deserialize(std::vector<std::uint8_t>(3)), std::invalid_argument);
}

TEST(Packet, DeserializeRejectsUnknownType) {
  Packet p;
  auto bytes = serialize(p);
  bytes[0] = 0x7F;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
}

TEST(Packet, CorruptionDetectedByCrc) {
  Packet p;
  p.payload = {9, 8, 7, 6};
  p.header.payload_len = 4;
  auto bytes = serialize(p);
  // Flip one payload bit: must be rejected, not silently accepted.
  bytes[kHeaderWireSize + 1] ^= 0x10;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
  // Header corruption is caught too.
  auto bytes2 = serialize(p);
  bytes2[3] ^= 0x01;
  EXPECT_THROW(deserialize(bytes2), std::invalid_argument);
}

TEST(Packet, TrailerCorruptionDetected) {
  Packet p;
  p.payload = {1};
  p.header.payload_len = 1;
  auto bytes = serialize(p);
  bytes.back() ^= 0xFF;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
}

TEST(Packet, FuzzDeserializeNeverCrashes) {
  // Random byte soup must either parse or throw invalid_argument — never
  // crash, hang or return garbage silently (the CRC catches the rest).
  Rng rng(123);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> buf(rng.below(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    try {
      (void)deserialize(buf);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // expected for almost every input
    }
  }
  // A 32-bit CRC makes random acceptance vanishingly unlikely.
  EXPECT_EQ(accepted, 0);
}

TEST(Packet, FuzzMutatedRealPacketsRejectedOrEqual) {
  Packet p;
  p.header.type = PacketType::kData;
  p.header.tg = 7;
  p.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  p.header.payload_len = 8;
  const auto good = serialize(p);
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = good;
    const std::size_t pos = rng.below(mutated.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.below(8));
    mutated[pos] ^= bit;
    try {
      const Packet q = deserialize(mutated);
      // Only possible if the flip cancelled out — it cannot for 1 bit.
      ADD_FAILURE() << "single-bit corruption accepted at byte " << pos;
      (void)q;
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Packet, TypeNames) {
  EXPECT_EQ(to_string(PacketType::kData), "DATA");
  EXPECT_EQ(to_string(PacketType::kParity), "PARITY");
  EXPECT_EQ(to_string(PacketType::kPoll), "POLL");
  EXPECT_EQ(to_string(PacketType::kNak), "NAK");
}

TEST(TgEncoder, ValidatesInput) {
  RseCode code(4, 7);
  EXPECT_THROW(TgEncoder(0, code, random_data(3, 10, 1)), std::invalid_argument);
  auto bad = random_data(4, 10, 1);
  bad[2].resize(5);
  EXPECT_THROW(TgEncoder(0, code, std::move(bad)), std::invalid_argument);
}

TEST(TgEncoder, DataPacketsCarryHeaderAndPayload) {
  RseCode code(4, 7);
  const auto data = random_data(4, 10, 2);
  TgEncoder enc(42, code, data);
  for (std::size_t i = 0; i < 4; ++i) {
    const Packet p = enc.data_packet(i);
    EXPECT_EQ(p.header.type, PacketType::kData);
    EXPECT_EQ(p.header.tg, 42u);
    EXPECT_EQ(p.header.index, i);
    EXPECT_EQ(p.header.k, 4u);
    EXPECT_EQ(p.header.n, 7u);
    EXPECT_EQ(p.payload, data[i]);
  }
  EXPECT_THROW(enc.data_packet(4), std::out_of_range);
}

TEST(TgEncoder, LazyParityEncoding) {
  RseCode code(4, 7);
  TgEncoder enc(0, code, random_data(4, 10, 3));
  EXPECT_EQ(enc.parities_encoded(), 0u);
  const Packet p0 = enc.parity_packet(0);
  EXPECT_EQ(enc.parities_encoded(), 1u);
  EXPECT_EQ(p0.header.index, 4u);
  EXPECT_EQ(p0.header.type, PacketType::kParity);
  // Nothing is cached: asking again encodes again, to the same bytes.
  const Packet p0again = enc.parity_packet(0);
  EXPECT_EQ(enc.parities_encoded(), 2u);
  EXPECT_EQ(p0.payload, p0again.payload);
  EXPECT_THROW(enc.parity_packet(3), std::out_of_range);
}

TEST(TgDecoder, ReconstructsFromMixedPackets) {
  RseCode code(4, 8);
  const auto data = random_data(4, 20, 5);
  TgEncoder enc(7, code, data);
  TgDecoder dec(7, code, 20);

  EXPECT_EQ(dec.needed(), 4u);
  EXPECT_TRUE(dec.add(enc.data_packet(1)));
  EXPECT_TRUE(dec.add(enc.parity_packet(0)));
  EXPECT_EQ(dec.needed(), 2u);
  EXPECT_FALSE(dec.decodable());
  EXPECT_TRUE(dec.add(enc.parity_packet(2)));
  EXPECT_TRUE(dec.add(enc.data_packet(3)));
  EXPECT_TRUE(dec.decodable());
  EXPECT_EQ(dec.needed(), 0u);

  const auto& out = dec.reconstruct();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], data[i]);
  EXPECT_EQ(dec.decoded_packets(), 2u);  // packets 0 and 2 were rebuilt
}

TEST(TgDecoder, ReconstructionKeepsTheReceivedDataBuffers) {
  RseCode code(6, 10);
  const auto data = random_data(6, 32, 11);
  TgEncoder enc(3, code, data);
  TgDecoder dec(3, code, 32);

  // Data 0, 2, 3 and 5 arrive; 1 and 4 are lost and rebuilt from
  // parities 1 and 3.
  std::vector<const std::uint8_t*> buffers(6, nullptr);
  for (std::size_t i : {0u, 2u, 3u, 5u}) {
    Packet p = enc.data_packet(i);
    buffers[i] = p.payload.data();
    ASSERT_TRUE(dec.add(std::move(p)));
  }
  ASSERT_TRUE(dec.add(enc.parity_packet(1)));
  ASSERT_TRUE(dec.add(enc.parity_packet(3)));

  const auto& out = dec.reconstruct();
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i], data[i]) << "packet " << i;
    if (buffers[i]) {
      EXPECT_EQ(out[i].data(), buffers[i]) << "packet " << i;
    }
  }
  EXPECT_EQ(dec.decoded_packets(), 2u);
}

TEST(TgDecoder, DuplicatesCountedAndIgnored) {
  RseCode code(3, 5);
  TgEncoder enc(1, code, random_data(3, 8, 6));
  TgDecoder dec(1, code, 8);
  EXPECT_TRUE(dec.add(enc.data_packet(0)));
  EXPECT_FALSE(dec.add(enc.data_packet(0)));
  EXPECT_EQ(dec.duplicates(), 1u);
  EXPECT_EQ(dec.received(), 1u);
}

TEST(TgDecoder, ForeignPacketsIgnored) {
  RseCode code(3, 5);
  TgEncoder enc(2, code, random_data(3, 8, 7));
  TgDecoder dec(1, code, 8);
  EXPECT_FALSE(dec.add(enc.data_packet(0)));  // wrong TG id
  Packet poll;
  poll.header.type = PacketType::kPoll;
  poll.header.tg = 1;
  EXPECT_FALSE(dec.add(poll));  // control packets don't carry block data
  EXPECT_EQ(dec.received(), 0u);
}

TEST(TgDecoder, ReconstructBeforeDecodableThrows) {
  RseCode code(3, 5);
  TgDecoder dec(0, code, 8);
  EXPECT_THROW(dec.reconstruct(), std::logic_error);
}

TEST(TgDecoder, PacketsAfterReconstructionAreDuplicates) {
  RseCode code(2, 4);
  TgEncoder enc(0, code, random_data(2, 8, 8));
  TgDecoder dec(0, code, 8);
  dec.add(enc.data_packet(0));
  dec.add(enc.data_packet(1));
  (void)dec.reconstruct();
  EXPECT_FALSE(dec.add(enc.parity_packet(0)));
  EXPECT_EQ(dec.duplicates(), 1u);
}

TEST(TgDecoder, LengthMismatchRejected) {
  RseCode code(2, 4);
  TgEncoder enc(0, code, random_data(2, 8, 9));
  TgDecoder dec(0, code, 16);
  EXPECT_THROW(dec.add(enc.data_packet(0)), std::invalid_argument);
}

TEST(TgDecoder, ReconstructIsIdempotent) {
  RseCode code(2, 4);
  const auto data = random_data(2, 8, 10);
  TgEncoder enc(0, code, data);
  TgDecoder dec(0, code, 8);
  dec.add(enc.parity_packet(0));
  dec.add(enc.parity_packet(1));
  const auto& first = dec.reconstruct();
  const auto& second = dec.reconstruct();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first[0], data[0]);
  EXPECT_EQ(first[1], data[1]);
}

}  // namespace
}  // namespace pbl::fec
