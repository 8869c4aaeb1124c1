#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

namespace pem::net {
namespace {

Message Make(AgentId from, AgentId to, uint32_t type, size_t payload_size,
             uint32_t seed) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  std::mt19937 gen(seed);
  m.payload.resize(payload_size);
  for (uint8_t& b : m.payload) b = static_cast<uint8_t>(gen());
  return m;
}

TEST(FrameCodec, RoundTripAcrossPayloadSizes) {
  // Empty, tiny, typical-ciphertext, and >64 KiB payloads all survive
  // encode -> decode bit-exactly, and consume exactly FramedSize.
  const size_t sizes[] = {0,    1,     7,      32,     1000,
                          4096, 65536, 70'000, 200'000};
  uint32_t seed = 1;
  for (size_t size : sizes) {
    const Message m = Make(3, 9, 0x5045'0001, size, seed++);
    const std::vector<uint8_t> wire = EncodeFrame(m);
    ASSERT_EQ(wire.size(), FramedSize(m));
    const FrameDecodeResult r = DecodeFrame(wire);
    ASSERT_EQ(r.status, FrameDecodeStatus::kFrame) << size;
    EXPECT_EQ(r.consumed, wire.size());
    EXPECT_TRUE(r.frame == m) << size;
  }
}

TEST(FrameCodec, RoundTripsBroadcastAndEdgeIds) {
  for (AgentId to : {kBroadcast, AgentId{0}, AgentId{1 << 20}}) {
    const Message m = Make(0, to, ~uint32_t{0}, 5, 42);
    const FrameDecodeResult r = DecodeFrame(EncodeFrame(m));
    ASSERT_EQ(r.status, FrameDecodeStatus::kFrame);
    EXPECT_TRUE(r.frame == m);
  }
}

TEST(FrameCodec, EveryTruncationNeedsMoreNotGarbage) {
  const Message m = Make(1, 2, 77, 33, 9);
  const std::vector<uint8_t> wire = EncodeFrame(m);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const FrameDecodeResult r =
        DecodeFrame(std::span<const uint8_t>(wire.data(), cut));
    EXPECT_EQ(r.status, FrameDecodeStatus::kNeedMore) << "cut at " << cut;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(FrameCodec, CorruptLengthRejected) {
  const Message m = Make(1, 2, 77, 33, 10);
  std::vector<uint8_t> wire = EncodeFrame(m);
  // Flip a length byte: the header checksum no longer matches.
  wire[0] ^= 0x01;
  EXPECT_EQ(DecodeFrame(wire).status, FrameDecodeStatus::kCorrupt);
}

TEST(FrameCodec, InsaneLengthWithForgedChecksumRejected) {
  // Even a header whose checksum is internally consistent is rejected
  // when the length prefix exceeds the codec bound.
  const uint32_t len = kMaxFramePayloadBytes + 1;
  uint8_t header[kFrameHeaderBytes];
  const uint32_t fields[5] = {len, 1, 2, 77,
                              FrameHeaderChecksum(len, 1, 2, 77)};
  std::memcpy(header, fields, sizeof header);
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(header, sizeof header)).status,
            FrameDecodeStatus::kCorrupt);
}

TEST(FrameCodec, CorruptTypeOrSenderRejected) {
  const Message m = Make(4, 5, 123, 16, 11);
  for (size_t byte : {size_t{4}, size_t{8}, size_t{12}, size_t{16}}) {
    std::vector<uint8_t> wire = EncodeFrame(m);
    wire[byte] ^= 0x40;
    EXPECT_EQ(DecodeFrame(wire).status, FrameDecodeStatus::kCorrupt) << byte;
  }
}

TEST(FrameDecoderStream, ReassemblesChunkedFrameSequence) {
  // Several frames, fed in awkward chunk sizes, pop out in order.
  std::vector<Message> msgs;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    msgs.push_back(Make(i, i + 1, static_cast<uint32_t>(100 + i),
                        static_cast<size_t>(17 * i * i), 20 + i));
    AppendFrame(stream, msgs.back());
  }
  FrameDecoder dec;
  std::vector<Message> out;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < stream.size()) {
    const size_t n = std::min(chunk, stream.size() - pos);
    dec.Feed(std::span<const uint8_t>(stream.data() + pos, n));
    pos += n;
    chunk = chunk * 2 + 3;  // uneven chunking crosses every boundary
    while (auto m = dec.Next()) out.push_back(std::move(*m));
  }
  ASSERT_EQ(out.size(), msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_TRUE(out[i] == msgs[i]) << i;
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderStream, OneBytePerFeedReassembles) {
  // The stream worst case, distilled: it arrives one byte at a
  // time, so every header and payload boundary is split.  Next() must
  // stay kNeedMore-silent until each frame completes, then pop it
  // bit-exactly.
  std::vector<Message> msgs;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    msgs.push_back(Make(i, 2 - i, static_cast<uint32_t>(7 + i),
                        static_cast<size_t>(i * 41), 60 + i));
    AppendFrame(stream, msgs.back());
  }
  FrameDecoder dec;
  std::vector<Message> out;
  for (const uint8_t b : stream) {
    dec.Feed(std::span<const uint8_t>(&b, 1));
    while (auto m = dec.Next()) out.push_back(std::move(*m));
  }
  ASSERT_EQ(out.size(), msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_TRUE(out[i] == msgs[i]) << i;
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderStream, ManyFramesInOneFeedAllPop) {
  // The opposite extreme: one recv() pulls a whole burst of
  // coalesced frames; a single Feed must yield every one, in order.
  constexpr int kFrames = 40;
  std::vector<Message> msgs;
  std::vector<uint8_t> stream;
  for (int i = 0; i < kFrames; ++i) {
    msgs.push_back(Make(0, 1, static_cast<uint32_t>(i),
                        static_cast<size_t>(i % 9), 80 + i));
    AppendFrame(stream, msgs.back());
  }
  FrameDecoder dec;
  dec.Feed(stream);
  for (int i = 0; i < kFrames; ++i) {
    const std::optional<Message> m = dec.Next();
    ASSERT_TRUE(m.has_value()) << i;
    EXPECT_TRUE(*m == msgs[static_cast<size_t>(i)]) << i;
  }
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderStreamDeath, CorruptStreamAborts) {
  const Message m = Make(1, 2, 3, 8, 30);
  std::vector<uint8_t> wire = EncodeFrame(m);
  wire[12] ^= 0xFF;  // corrupt the type field
  FrameDecoder dec;
  dec.Feed(wire);
  EXPECT_DEATH((void)dec.Next(), "corrupt");
}

TEST(FrameCodec, OverheadConstantMatchesTransportAccounting) {
  // The codec is the source of truth for the 20-byte header the
  // transports charge per message.
  EXPECT_EQ(FramedSize(size_t{0}), kFrameHeaderBytes);
  EXPECT_EQ(FramedSize(Message{}), kFrameHeaderBytes);
}

}  // namespace
}  // namespace pem::net
