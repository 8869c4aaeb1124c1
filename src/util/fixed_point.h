// Fixed-point encoding of market quantities (kWh, cents/kWh, utility
// parameters) into signed 64-bit integers, and from there into the
// Paillier plaintext group.
//
// All homomorphic aggregation in Protocols 2-4 operates on these
// fixed-point integers; the scale is a market-wide constant so sums and
// comparisons of encoded values equal encoded sums/comparisons of the
// underlying reals (up to quantization).
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace pem {

// Default scale: micro-units.  1 kWh -> 1'000'000 units.  Chosen so a
// 300-home market over a day stays far below 2^63 (EXPERIMENTS.md,
// "Ablations", has the scale ablation).
inline constexpr int64_t kFixedPointScale = 1'000'000;

class FixedPoint {
 public:
  FixedPoint() = default;

  // Encodes a real quantity.  Rounds to nearest unit.
  static FixedPoint FromDouble(double v, int64_t scale = kFixedPointScale);

  // Wraps an already-scaled raw value.
  static FixedPoint FromRaw(int64_t raw, int64_t scale = kFixedPointScale);

  double ToDouble() const;
  int64_t raw() const { return raw_; }
  int64_t scale() const { return scale_; }

  bool IsZero() const { return raw_ == 0; }
  bool IsNegative() const { return raw_ < 0; }

  FixedPoint operator+(const FixedPoint& o) const;
  FixedPoint operator-(const FixedPoint& o) const;
  FixedPoint operator-() const;
  bool operator==(const FixedPoint& o) const = default;
  auto operator<=>(const FixedPoint& o) const {
    PEM_CHECK(scale_ == o.scale_, "fixed-point scale mismatch");
    return raw_ <=> o.raw_;
  }

  std::string ToString() const;

 private:
  FixedPoint(int64_t raw, int64_t scale) : raw_(raw), scale_(scale) {}

  int64_t raw_ = 0;
  int64_t scale_ = kFixedPointScale;
};

// Rounded integer division helper used by the Protocol-4 reciprocal
// trick: computes round(num / den) with den > 0.
int64_t RoundDiv(int64_t num, int64_t den);

}  // namespace pem
