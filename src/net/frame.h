// Canonical wire framing: the single definition of what one Message
// costs and looks like on a byte stream.
//
// Layout (all integers little-endian):
//
//   [u32 payload_len | i32 from | i32 to | u32 type | u32 check] payload
//
// `check` is an FNV-1a digest of the 16 preceding header bytes, so a
// corrupted or misaligned length prefix is rejected instead of making
// the decoder swallow garbage as a giant payload.  Every transport
// backend accounts exactly FramedSize(msg) bytes per delivered copy;
// the forked backends additionally put these literal bytes on their
// wires, which is what lets test_transcript_parity assert that the
// in-process bus and the forked backends carry identical traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/message.h"

namespace pem::net {

inline constexpr size_t kFrameHeaderBytes = 20;
// Sanity bound on a decoded length prefix; no protocol message comes
// within orders of magnitude of it.
inline constexpr uint32_t kMaxFramePayloadBytes = uint32_t{1} << 28;

// FNV-1a over the 16 header bytes preceding the check field.
uint32_t FrameHeaderChecksum(uint32_t payload_len, AgentId from, AgentId to,
                             uint32_t type);

constexpr size_t FramedSize(size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}
inline size_t FramedSize(const Message& m) { return FramedSize(m.payload.size()); }

// Appends the framed encoding of `m` to `out`.
void AppendFrame(std::vector<uint8_t>& out, const Message& m);
std::vector<uint8_t> EncodeFrame(const Message& m);

enum class FrameDecodeStatus {
  kFrame,     // one complete frame decoded
  kNeedMore,  // buffer holds only a frame prefix — feed more bytes
  kCorrupt,   // header checksum mismatch or insane length prefix
};

struct FrameDecodeResult {
  FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
  Message frame;        // valid when status == kFrame
  size_t consumed = 0;  // bytes consumed from the buffer front
};

// Decodes at most one frame from the front of `buf`.
FrameDecodeResult DecodeFrame(std::span<const uint8_t> buf);

// Streaming reassembly of a frame sequence (one per socket direction).
// Feed() appends raw bytes; Pop() and Next() take complete frames in
// order.  Pop() is the untrusted-input path: it reports a corrupt
// stream as kCorrupt (leaving the bad bytes buffered — a stream cannot
// resynchronize past them, so the caller stops reading it).  Next() is
// for streams that come from our own encoder, where corruption is a
// programming error: it aborts on it.
class FrameDecoder {
 public:
  void Feed(std::span<const uint8_t> bytes);
  // Moves the next complete frame into `out` on kFrame.
  FrameDecodeStatus Pop(Message& out);
  std::optional<Message> Next();
  size_t buffered_bytes() const { return buf_.size() - off_; }

 private:
  std::vector<uint8_t> buf_;
  size_t off_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace pem::net
