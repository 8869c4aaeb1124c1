// Binary wire format helpers.
//
// All protocol payloads (Paillier ciphertexts, garbled tables, OT group
// elements) are serialized through ByteWriter/ByteReader so the message
// bus can count real on-the-wire bytes for the Table-I bandwidth
// reproduction.  Format: little-endian fixed-width integers,
// length-prefixed blobs.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace pem::net {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Bytes(std::span<const uint8_t> b) {
    U32(static_cast<uint32_t>(b.size()));
    Raw(b.data(), b.size());
  }
  void Str(const std::string& s) {
    Bytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  // resize + memcpy rather than vector::insert: GCC 12 misreads the
  // inlined insert as a -Wstringop-overflow.  Same bytes either way.
  void Raw(const void* p, size_t n) {
    if (n == 0) return;  // an empty span may carry a null data()
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  // Non-owning view: `data` must outlive the reader (binding a
  // temporary here dangles).
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8() { return ReadRaw<uint8_t>(); }
  uint32_t U32() { return ReadRaw<uint32_t>(); }
  uint64_t U64() { return ReadRaw<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::vector<uint8_t> Bytes() {
    std::optional<std::vector<uint8_t>> b = TryBytes();
    PEM_CHECK(b.has_value(), "ByteReader: truncated blob");
    return std::move(*b);
  }
  std::string Str() {
    std::vector<uint8_t> b = Bytes();
    return std::string(b.begin(), b.end());
  }

  // Non-aborting variants for parsing untrusted input (key material
  // from peers, a child's window report): nullopt on truncation instead
  // of PEM_CHECK.
  std::optional<uint8_t> TryU8() { return TryRaw<uint8_t>(); }
  std::optional<uint32_t> TryU32() { return TryRaw<uint32_t>(); }
  std::optional<uint64_t> TryU64() { return TryRaw<uint64_t>(); }
  std::optional<double> TryF64() { return TryRaw<double>(); }
  std::optional<std::vector<uint8_t>> TryBytes() {
    const std::optional<uint32_t> n = TryU32();
    if (!n || *n > remaining()) return std::nullopt;
    std::vector<uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + *n);
    pos_ += *n;
    return out;
  }
  std::optional<std::string> TryStr() {
    const std::optional<std::vector<uint8_t>> b = TryBytes();
    if (!b) return std::nullopt;
    return std::string(b->begin(), b->end());
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T ReadRaw() {
    PEM_CHECK(pos_ + sizeof(T) <= data_.size(), "ByteReader: truncated");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::optional<T> TryRaw() {
    if (remaining() < sizeof(T)) return std::nullopt;
    return ReadRaw<T>();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace pem::net
