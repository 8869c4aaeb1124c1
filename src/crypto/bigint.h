// RAII big-integer type over GMP's mpz_t.
//
// This is the arithmetic substrate for the Paillier cryptosystem.  The
// wrapper keeps GMP's C API out of the rest of the codebase and adds
// the pieces GMP does not ship: CSPRNG-driven uniform sampling and
// prime generation, and fixed-width big-endian serialization for the
// wire.
#pragma once

#include <gmp.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/rng.h"

namespace pem::crypto {

class BigInt {
 public:
  BigInt() { mpz_init(z_); }
  BigInt(int64_t v) { mpz_init(z_); *this = v; }  // NOLINT(implicit)
  BigInt(const BigInt& o) { mpz_init_set(z_, o.z_); }
  BigInt(BigInt&& o) noexcept {
    mpz_init(z_);
    mpz_swap(z_, o.z_);
  }
  BigInt& operator=(const BigInt& o) {
    if (this != &o) mpz_set(z_, o.z_);
    return *this;
  }
  BigInt& operator=(BigInt&& o) noexcept {
    if (this != &o) mpz_swap(z_, o.z_);
    return *this;
  }
  BigInt& operator=(int64_t v);
  ~BigInt() { mpz_clear(z_); }

  // --- construction helpers -------------------------------------------
  static BigInt FromDecString(const std::string& s);
  static BigInt FromHexString(const std::string& s);
  // Big-endian, unsigned.
  static BigInt FromBytes(std::span<const uint8_t> bytes);

  // Uniform in [0, bound) via rejection sampling.  bound > 0.
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);
  // Uniform with exactly `bits` bits (top bit set).
  static BigInt RandomBits(int bits, Rng& rng);
  // Random probable prime with exactly `bits` bits (top two bits set so
  // products of two such primes have exactly 2*bits bits).
  static BigInt RandomPrime(int bits, Rng& rng);

  // --- arithmetic ------------------------------------------------------
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator/(const BigInt& o) const;  // floor division, o != 0
  BigInt operator%(const BigInt& o) const;  // non-negative remainder
  BigInt operator-() const;

  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o);

  // Modular arithmetic (all mod > 0; results in [0, mod)).
  BigInt AddMod(const BigInt& o, const BigInt& mod) const;
  BigInt SubMod(const BigInt& o, const BigInt& mod) const;
  BigInt MulMod(const BigInt& o, const BigInt& mod) const;
  BigInt PowMod(const BigInt& exp, const BigInt& mod) const;
  // Returns inverse mod `mod`; aborts if not invertible (callers check
  // gcd first where the input is adversarial).
  BigInt InvMod(const BigInt& mod) const;
  bool IsInvertibleMod(const BigInt& mod) const;

  BigInt Gcd(const BigInt& o) const;
  BigInt Lcm(const BigInt& o) const;
  BigInt Abs() const;
  // Integer square root (floor).
  BigInt Sqrt() const;

  bool IsProbablePrime(int reps = 30) const;

  // --- comparisons -----------------------------------------------------
  int Compare(const BigInt& o) const { return mpz_cmp(z_, o.z_); }
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  bool IsZero() const { return mpz_sgn(z_) == 0; }
  bool IsNegative() const { return mpz_sgn(z_) < 0; }

  // --- conversions -----------------------------------------------------
  // Number of bits in |value| (0 for value 0).
  size_t BitLength() const;
  // Fits in int64 and returns it; aborts otherwise.
  int64_t ToInt64() const;
  bool FitsInt64() const;
  double ToDouble() const { return mpz_get_d(z_); }

  std::string ToDecString() const;
  std::string ToHexString() const;
  // Big-endian, minimal length (empty for 0).  Sign is NOT encoded.
  std::vector<uint8_t> ToBytes() const;
  // Big-endian, left-padded with zeros to `width` bytes.
  std::vector<uint8_t> ToBytesPadded(size_t width) const;

  // Escape hatch for GMP interop inside the crypto module.
  mpz_srcptr raw() const { return z_; }
  mpz_ptr raw() { return z_; }

 private:
  mpz_t z_;
};

}  // namespace pem::crypto
