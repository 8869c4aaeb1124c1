// WindowRecord: one declaration, walked by Visit.
//
// The control-channel codec, the children's bitwise cross-check and the
// day-level parity diff all walk WindowRecord::Visit, so these rows
// drive every check from that same list: for every visited field, a
// perturbed copy must encode differently and be named by DiffRecords —
// a field the codec or the diff skipped would fail here, with no
// per-field test to forget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "protocol/window_record.h"

namespace pem::protocol {
namespace {

using Names = std::vector<std::string_view>;

// Every field non-default, trades and audit faults included.
WindowRecord Populated() {
  WindowRecord r;
  r.window = 17;
  r.type = market::MarketType::kGeneral;
  r.price = 0.3125;
  r.supply_total = 2.5;
  r.demand_total = 1.75;
  r.num_sellers = 2;
  r.num_buyers = 3;
  r.buyer_cost_pem = 0.55;
  r.grid_interaction_pem = 1.25;
  r.trades = {{0, 1, 0.5, 0.15}, {3, 2, 0.25, 0.08}};
  r.bus_bytes = 4242;
  r.rng_cursor = 987654;
  r.audit.audited = true;
  r.audit.auditor = 4;
  r.audit.faults = {{2, CheatClass::kCommitmentMismatch, 17, "opening"},
                    {3, CheatClass::kReplayedFrame, 17, "stale domain"}};
  r.runtime_seconds = 0.0625;
  return r;
}

std::vector<uint8_t> Encode(const WindowRecord& r) {
  net::ByteWriter w;
  EncodeRecord(r, w);
  return w.Take();
}

// Perturbations of one field value; each must be caught.  Containers
// are perturbed in size and in every member of an element, so a diff
// that compared only sizes (or only some members) would fail.
std::vector<int> Perturb(int v) { return {v + 1, -v}; }
std::vector<uint64_t> Perturb(uint64_t v) { return {v + 1, v ^ (1ULL << 63)}; }
std::vector<double> Perturb(double v) {
  return {std::nextafter(v, 1e9), -v};
}
std::vector<market::MarketType> Perturb(market::MarketType v) {
  return {v == market::MarketType::kGeneral ? market::MarketType::kExtreme
                                            : market::MarketType::kGeneral};
}
std::vector<std::vector<Trade>> Perturb(const std::vector<Trade>& v) {
  std::vector<std::vector<Trade>> out(6, v);
  out[0].pop_back();
  out[1].push_back(v.front());
  ++out[2].back().seller_index;
  ++out[3].back().buyer_index;
  out[4].back().energy_kwh = std::nextafter(v.back().energy_kwh, 1e9);
  out[5].back().payment = -v.back().payment;
  return out;
}
std::vector<AuditOutcome> Perturb(const AuditOutcome& v) {
  std::vector<AuditOutcome> out(7, v);
  out[0].audited = !v.audited;
  ++out[1].auditor;
  out[2].faults.pop_back();
  ++out[3].faults.back().cheater;
  out[4].faults.back().cheat = CheatClass::kKeyEquivocation;
  ++out[5].faults.back().window;
  out[6].faults.back().detail += "!";
  return out;
}

// `base` with the visited field `name` set to `value`.
template <typename T>
WindowRecord WithField(const WindowRecord& base, std::string_view name,
                       const T& value) {
  WindowRecord copy = base;
  copy.Visit([&](std::string_view n, auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, T>) {
      if (n == name) field = value;
    }
  });
  return copy;
}

TEST(WindowRecord, VisitNamesEachFieldOnce) {
  std::set<std::string_view> names;
  size_t visited = 0;
  Populated().Visit([&](std::string_view name, const auto&) {
    names.insert(name);
    ++visited;
  });
  EXPECT_EQ(names.size(), visited);
  EXPECT_EQ(names.count("runtime_seconds"), 0u);
}

TEST(WindowRecord, EveryVisitedFieldRoundTripsAndIsDiffed) {
  const WindowRecord base = Populated();
  const std::vector<uint8_t> bytes = Encode(base);
  net::ByteReader r(bytes);
  const std::optional<WindowRecord> decoded = DecodeRecord(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(DiffRecords(base, *decoded), Names{});
  EXPECT_EQ(Encode(*decoded), bytes);

  size_t perturbations = 0;
  base.Visit([&](std::string_view name, const auto& value) {
    for (const auto& other : Perturb(value)) {
      const WindowRecord copy = WithField(base, name, other);
      // Unequal to the cross-check, named by the parity diff...
      EXPECT_EQ(DiffRecords(base, copy), Names{name});
      EXPECT_EQ(DiffRecords(copy, base), Names{name});
      // ...and visible on the wire, where it survives the round trip.
      const std::vector<uint8_t> copy_bytes = Encode(copy);
      EXPECT_NE(copy_bytes, bytes) << name;
      net::ByteReader cr(copy_bytes);
      const std::optional<WindowRecord> back = DecodeRecord(cr);
      ASSERT_TRUE(back.has_value()) << name;
      EXPECT_EQ(DiffRecords(copy, *back), Names{}) << name;
      ++perturbations;
    }
  });
  EXPECT_GE(perturbations, 13u);
}

TEST(WindowRecord, RuntimeIsNotPartOfTheOutcome) {
  const WindowRecord base = Populated();
  WindowRecord slower = base;
  slower.runtime_seconds *= 2;
  EXPECT_EQ(DiffRecords(base, slower), Names{});
  EXPECT_EQ(Encode(slower), Encode(base));
}

TEST(WindowRecord, DoublesCompareByBits) {
  const WindowRecord base = Populated();
  // 0.0 == -0.0 as values, but a child that reports -0.0 did not run
  // the same arithmetic.
  WindowRecord zero = base;
  zero.price = 0.0;
  WindowRecord negative_zero = base;
  negative_zero.price = -0.0;
  EXPECT_EQ(DiffRecords(zero, negative_zero), Names{"price"});
  // NaN != NaN as values, yet two children that both computed the same
  // NaN agree.
  WindowRecord nan = base;
  nan.price = std::numeric_limits<double>::quiet_NaN();
  const WindowRecord same_nan = nan;
  EXPECT_EQ(DiffRecords(nan, same_nan), Names{});
  WindowRecord other_nan = nan;
  uint64_t bits = 0;
  std::memcpy(&bits, &nan.price, sizeof bits);
  bits ^= 1;  // another payload, still a NaN
  std::memcpy(&other_nan.price, &bits, sizeof bits);
  ASSERT_TRUE(std::isnan(other_nan.price));
  EXPECT_EQ(DiffRecords(nan, other_nan), Names{"price"});
}

}  // namespace
}  // namespace pem::protocol
