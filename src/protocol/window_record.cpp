#include "protocol/window_record.h"

#include <string>
#include <type_traits>

namespace pem::protocol {
namespace {

// One codec per field type; WindowRecord::Visit decides the order.  Get
// inverts Put, and returns false instead of aborting on any byte
// sequence Put cannot produce.
static_assert(std::is_same_v<size_t, uint64_t>, "trade indices travel as u64");

void Put(net::ByteWriter& w, int v) { w.U32(static_cast<uint32_t>(v)); }
void Put(net::ByteWriter& w, bool v) { w.U8(v ? 1 : 0); }
void Put(net::ByteWriter& w, uint64_t v) { w.U64(v); }
void Put(net::ByteWriter& w, double v) { w.F64(v); }
void Put(net::ByteWriter& w, const std::string& v) { w.Str(v); }
template <typename E>
  requires std::is_enum_v<E>
void Put(net::ByteWriter& w, E v) {
  w.U8(static_cast<uint8_t>(v));
}

void Put(net::ByteWriter& w, const Trade& t) {
  Put(w, t.seller_index);
  Put(w, t.buyer_index);
  Put(w, t.energy_kwh);
  Put(w, t.payment);
}

void Put(net::ByteWriter& w, const ProtocolFault& f) {
  Put(w, f.cheater);
  Put(w, f.cheat);
  Put(w, f.window);
  Put(w, f.detail);
}

template <typename T>
void Put(net::ByteWriter& w, const std::vector<T>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const T& x : v) Put(w, x);
}

void Put(net::ByteWriter& w, const AuditOutcome& a) {
  Put(w, a.audited);
  Put(w, a.auditor);
  Put(w, a.faults);
}

template <typename T, typename U>
bool Take(const std::optional<U>& in, T& out) {
  if (in) out = static_cast<T>(*in);
  return in.has_value();
}

// Enums and bools travel as one byte; a byte past the last valid value
// is malformed.
template <typename T>
bool GetByte(net::ByteReader& r, T& v, T last) {
  const std::optional<uint8_t> b = r.TryU8();
  return b && *b <= static_cast<uint8_t>(last) && Take(b, v);
}

bool Get(net::ByteReader& r, int& v) { return Take(r.TryU32(), v); }
bool Get(net::ByteReader& r, bool& v) { return GetByte(r, v, true); }
bool Get(net::ByteReader& r, uint64_t& v) { return Take(r.TryU64(), v); }
bool Get(net::ByteReader& r, double& v) { return Take(r.TryF64(), v); }
bool Get(net::ByteReader& r, std::string& v) { return Take(r.TryStr(), v); }
bool Get(net::ByteReader& r, market::MarketType& v) {
  return GetByte(r, v, market::MarketType::kNoMarket);
}
bool Get(net::ByteReader& r, CheatClass& v) {
  return GetByte(r, v, CheatClass::kStaleReport);  // the last class
}

bool Get(net::ByteReader& r, Trade& t) {
  return Get(r, t.seller_index) && Get(r, t.buyer_index) &&
         Get(r, t.energy_kwh) && Get(r, t.payment);
}

bool Get(net::ByteReader& r, ProtocolFault& f) {
  return Get(r, f.cheater) && Get(r, f.cheat) && Get(r, f.window) &&
         Get(r, f.detail);
}

template <typename T>
bool Get(net::ByteReader& r, std::vector<T>& v) {
  const std::optional<uint32_t> n = r.TryU32();
  // Every element takes at least one byte, so a count beyond the bytes
  // left is a lie; rejecting it first bounds the allocation below.
  if (!n || *n > r.remaining()) return false;
  v.resize(*n);
  for (T& x : v) {
    if (!Get(r, x)) return false;
  }
  return true;
}

bool Get(net::ByteReader& r, AuditOutcome& a) {
  return Get(r, a.audited) && Get(r, a.auditor) && Get(r, a.faults);
}

// Each visited field's encoding, in Visit order.
std::vector<std::vector<uint8_t>> FieldBytes(const WindowRecord& record) {
  std::vector<std::vector<uint8_t>> out;
  record.Visit([&out](std::string_view, const auto& field) {
    net::ByteWriter w;
    Put(w, field);
    out.push_back(w.Take());
  });
  return out;
}

}  // namespace

void EncodeRecord(const WindowRecord& record, net::ByteWriter& w) {
  record.Visit([&w](std::string_view, const auto& field) { Put(w, field); });
}

std::optional<WindowRecord> DecodeRecord(net::ByteReader& r) {
  WindowRecord record;
  bool ok = true;
  record.Visit(
      [&](std::string_view, auto& field) { ok = ok && Get(r, field); });
  if (!ok) return std::nullopt;
  return record;
}

std::vector<std::string_view> DiffRecords(const WindowRecord& a,
                                          const WindowRecord& b) {
  // The encoding is injective per field (doubles by their bits), so
  // comparing encodings is the bitwise comparison.
  const std::vector<std::vector<uint8_t>> fa = FieldBytes(a);
  const std::vector<std::vector<uint8_t>> fb = FieldBytes(b);
  std::vector<std::string_view> names;
  size_t i = 0;
  a.Visit([&](std::string_view name, const auto&) {
    if (fa[i] != fb[i]) names.push_back(name);
    ++i;
  });
  return names;
}

}  // namespace pem::protocol
