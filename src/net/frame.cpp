#include "net/frame.h"

#include <cstring>

#include "util/error.h"

namespace pem::net {
namespace {

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

uint32_t FrameHeaderChecksum(uint32_t payload_len, AgentId from, AgentId to,
                             uint32_t type) {
  uint8_t h[16];
  PutU32(h, payload_len);
  PutU32(h + 4, static_cast<uint32_t>(from));
  PutU32(h + 8, static_cast<uint32_t>(to));
  PutU32(h + 12, type);
  uint32_t x = 2166136261u;  // FNV-1a
  for (uint8_t b : h) {
    x ^= b;
    x *= 16777619u;
  }
  return x;
}

void AppendFrame(std::vector<uint8_t>& out, const Message& m) {
  PEM_CHECK(m.payload.size() <= kMaxFramePayloadBytes,
            "frame payload exceeds the codec bound");
  const uint32_t len = static_cast<uint32_t>(m.payload.size());
  uint8_t header[kFrameHeaderBytes];
  PutU32(header, len);
  PutU32(header + 4, static_cast<uint32_t>(m.from));
  PutU32(header + 8, static_cast<uint32_t>(m.to));
  PutU32(header + 12, m.type);
  PutU32(header + 16, FrameHeaderChecksum(len, m.from, m.to, m.type));
  out.insert(out.end(), header, header + kFrameHeaderBytes);
  out.insert(out.end(), m.payload.begin(), m.payload.end());
}

std::vector<uint8_t> EncodeFrame(const Message& m) {
  std::vector<uint8_t> out;
  out.reserve(FramedSize(m));
  AppendFrame(out, m);
  return out;
}

FrameDecodeResult DecodeFrame(std::span<const uint8_t> buf) {
  FrameDecodeResult r;
  if (buf.size() < kFrameHeaderBytes) return r;  // kNeedMore
  const uint32_t len = GetU32(buf.data());
  const AgentId from = static_cast<AgentId>(GetU32(buf.data() + 4));
  const AgentId to = static_cast<AgentId>(GetU32(buf.data() + 8));
  const uint32_t type = GetU32(buf.data() + 12);
  const uint32_t check = GetU32(buf.data() + 16);
  if (check != FrameHeaderChecksum(len, from, to, type) ||
      len > kMaxFramePayloadBytes) {
    r.status = FrameDecodeStatus::kCorrupt;
    return r;
  }
  if (buf.size() < FramedSize(len)) return r;  // kNeedMore
  r.status = FrameDecodeStatus::kFrame;
  r.frame.from = from;
  r.frame.to = to;
  r.frame.type = type;
  r.frame.payload.assign(buf.begin() + kFrameHeaderBytes,
                         buf.begin() + static_cast<ptrdiff_t>(FramedSize(len)));
  r.consumed = FramedSize(len);
  return r;
}

void FrameDecoder::Feed(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameDecodeStatus FrameDecoder::Pop(Message& out) {
  FrameDecodeResult r = DecodeFrame(std::span<const uint8_t>(buf_).subspan(off_));
  if (r.status != FrameDecodeStatus::kFrame) return r.status;
  off_ += r.consumed;
  if (off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  } else if (off_ >= (size_t{1} << 16)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(off_));
    off_ = 0;
  }
  out = std::move(r.frame);
  return FrameDecodeStatus::kFrame;
}

std::optional<Message> FrameDecoder::Next() {
  Message m;
  const FrameDecodeStatus status = Pop(m);
  if (status == FrameDecodeStatus::kNeedMore) return std::nullopt;
  PEM_CHECK(status == FrameDecodeStatus::kFrame,
            "frame stream corrupt (encoder/decoder mismatch)");
  return m;
}

}  // namespace pem::net
