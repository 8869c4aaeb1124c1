#include "crypto/bigint.h"

#include <cstring>

#include "util/error.h"

namespace pem::crypto {

BigInt& BigInt::operator=(int64_t v) {
  if (v >= 0) {
    mpz_set_ui(z_, static_cast<unsigned long>(v));
  } else {
    // Avoid UB on INT64_MIN: negate in unsigned space.
    mpz_set_ui(z_, static_cast<unsigned long>(~static_cast<uint64_t>(v) + 1));
    mpz_neg(z_, z_);
  }
  return *this;
}

BigInt BigInt::FromDecString(const std::string& s) {
  BigInt r;
  PEM_CHECK(mpz_set_str(r.z_, s.c_str(), 10) == 0, "bad decimal string");
  return r;
}

BigInt BigInt::FromHexString(const std::string& s) {
  BigInt r;
  PEM_CHECK(mpz_set_str(r.z_, s.c_str(), 16) == 0, "bad hex string");
  return r;
}

BigInt BigInt::FromBytes(std::span<const uint8_t> bytes) {
  BigInt r;
  if (!bytes.empty()) mpz_import(r.z_, bytes.size(), 1, 1, 1, 0, bytes.data());
  return r;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  PEM_CHECK(mpz_sgn(bound.z_) > 0, "RandomBelow: bound must be positive");
  const size_t bits = mpz_sizeinbase(bound.z_, 2);
  const size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  // Rejection sampling: mask the top byte down to `bits` bits, retry
  // until the draw lands below the bound.  Expected < 2 iterations.
  const unsigned top_mask =
      bits % 8 == 0 ? 0xFFu : ((1u << (bits % 8)) - 1u);
  for (;;) {
    rng.Fill(buf);
    buf[0] &= static_cast<uint8_t>(top_mask);
    BigInt candidate = FromBytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::RandomBits(int bits, Rng& rng) {
  PEM_CHECK(bits > 0, "RandomBits: bits must be positive");
  const size_t nbytes = (static_cast<size_t>(bits) + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  rng.Fill(buf);
  const unsigned top_mask =
      bits % 8 == 0 ? 0xFFu : ((1u << (bits % 8)) - 1u);
  buf[0] &= static_cast<uint8_t>(top_mask);
  // Force the top bit so the result has exactly `bits` bits.
  const unsigned top_bit = bits % 8 == 0 ? 0x80u : (1u << ((bits - 1) % 8));
  buf[0] |= static_cast<uint8_t>(top_bit);
  return FromBytes(buf);
}

BigInt BigInt::RandomPrime(int bits, Rng& rng) {
  for (;;) {
    if (std::optional<BigInt> p = PrimeFrom(RandomBits(bits, rng), bits)) {
      return std::move(*p);
    }
  }
}

std::optional<BigInt> BigInt::PrimeFrom(const BigInt& candidate, int bits) {
  PEM_CHECK(bits >= 8, "RandomPrime: need at least 8 bits");
  BigInt p = candidate;
  // Set the second-highest bit so p*q for two b-bit primes is exactly
  // 2b bits (standard RSA/Paillier keygen practice).
  mpz_setbit(p.z_, static_cast<mp_bitcnt_t>(bits - 2));
  mpz_setbit(p.z_, 0);  // odd
  if (p.IsProbablePrime()) return p;
  // Walk forward from the candidate rather than redrawing: cheaper,
  // still uniform enough for key generation.
  mpz_nextprime(p.z_, p.z_);
  if (p.BitLength() == static_cast<size_t>(bits)) return p;
  return std::nullopt;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt r;
  mpz_add(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::operator-(const BigInt& o) const {
  BigInt r;
  mpz_sub(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::operator*(const BigInt& o) const {
  BigInt r;
  mpz_mul(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::operator/(const BigInt& o) const {
  PEM_CHECK(mpz_sgn(o.z_) != 0, "division by zero");
  BigInt r;
  mpz_fdiv_q(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::operator%(const BigInt& o) const {
  PEM_CHECK(mpz_sgn(o.z_) != 0, "mod by zero");
  BigInt r;
  mpz_mod(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::operator-() const {
  BigInt r;
  mpz_neg(r.z_, z_);
  return r;
}

BigInt& BigInt::operator+=(const BigInt& o) {
  mpz_add(z_, z_, o.z_);
  return *this;
}
BigInt& BigInt::operator-=(const BigInt& o) {
  mpz_sub(z_, z_, o.z_);
  return *this;
}
BigInt& BigInt::operator*=(const BigInt& o) {
  mpz_mul(z_, z_, o.z_);
  return *this;
}

BigInt BigInt::AddMod(const BigInt& o, const BigInt& mod) const {
  BigInt r;
  mpz_add(r.z_, z_, o.z_);
  mpz_mod(r.z_, r.z_, mod.z_);
  return r;
}
BigInt BigInt::SubMod(const BigInt& o, const BigInt& mod) const {
  BigInt r;
  mpz_sub(r.z_, z_, o.z_);
  mpz_mod(r.z_, r.z_, mod.z_);
  return r;
}
BigInt BigInt::MulMod(const BigInt& o, const BigInt& mod) const {
  BigInt r;
  mpz_mul(r.z_, z_, o.z_);
  mpz_mod(r.z_, r.z_, mod.z_);
  return r;
}
BigInt BigInt::PowMod(const BigInt& exp, const BigInt& mod) const {
  PEM_CHECK(mpz_sgn(mod.z_) > 0, "PowMod: modulus must be positive");
  BigInt r;
  if (mpz_sgn(exp.z_) < 0) {
    BigInt inv = InvMod(mod);
    BigInt pos_exp = -exp;
    mpz_powm(r.z_, inv.z_, pos_exp.z_, mod.z_);
  } else {
    mpz_powm(r.z_, z_, exp.z_, mod.z_);
  }
  return r;
}
BigInt BigInt::InvMod(const BigInt& mod) const {
  BigInt r;
  PEM_CHECK(mpz_invert(r.z_, z_, mod.z_) != 0, "InvMod: not invertible");
  return r;
}
bool BigInt::IsInvertibleMod(const BigInt& mod) const {
  BigInt g;
  mpz_gcd(g.z_, z_, mod.z_);
  return mpz_cmp_ui(g.z_, 1) == 0;
}

BigInt BigInt::Gcd(const BigInt& o) const {
  BigInt r;
  mpz_gcd(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::Lcm(const BigInt& o) const {
  BigInt r;
  mpz_lcm(r.z_, z_, o.z_);
  return r;
}
BigInt BigInt::Abs() const {
  BigInt r;
  mpz_abs(r.z_, z_);
  return r;
}
BigInt BigInt::Sqrt() const {
  PEM_CHECK(mpz_sgn(z_) >= 0, "Sqrt of negative");
  BigInt r;
  mpz_sqrt(r.z_, z_);
  return r;
}

bool BigInt::IsProbablePrime(int reps) const {
  return mpz_probab_prime_p(z_, reps) != 0;
}

size_t BigInt::BitLength() const {
  if (IsZero()) return 0;
  return mpz_sizeinbase(z_, 2);
}

bool BigInt::FitsInt64() const {
  static const BigInt kMin = []() {
    BigInt v = 1;
    mpz_mul_2exp(v.raw(), v.raw(), 63);
    mpz_neg(v.raw(), v.raw());
    return v;
  }();
  static const BigInt kMax = []() {
    BigInt v = 1;
    mpz_mul_2exp(v.raw(), v.raw(), 63);
    mpz_sub_ui(v.raw(), v.raw(), 1);
    return v;
  }();
  return *this >= kMin && *this <= kMax;
}

int64_t BigInt::ToInt64() const {
  PEM_CHECK(FitsInt64(), "ToInt64: value out of range");
  const bool neg = IsNegative();
  BigInt abs = Abs();
  uint64_t mag = 0;
  // Export up to 8 bytes big-endian.
  std::vector<uint8_t> bytes = abs.ToBytes();
  for (uint8_t b : bytes) mag = (mag << 8) | b;
  // Negate in unsigned space: mag can be 2^63 (INT64_MIN), whose
  // two's-complement cast is fine but whose int64 negation overflows.
  return neg ? static_cast<int64_t>(-mag) : static_cast<int64_t>(mag);
}

std::string BigInt::ToDecString() const {
  char* s = mpz_get_str(nullptr, 10, z_);
  std::string out(s);
  void (*freefn)(void*, size_t);
  mp_get_memory_functions(nullptr, nullptr, &freefn);
  freefn(s, out.size() + 1);
  return out;
}

std::string BigInt::ToHexString() const {
  char* s = mpz_get_str(nullptr, 16, z_);
  std::string out(s);
  void (*freefn)(void*, size_t);
  mp_get_memory_functions(nullptr, nullptr, &freefn);
  freefn(s, out.size() + 1);
  return out;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  PEM_CHECK(!IsNegative(), "ToBytes: negative values not supported");
  if (IsZero()) return {};
  const size_t nbytes = (BitLength() + 7) / 8;
  std::vector<uint8_t> out(nbytes);
  size_t written = 0;
  mpz_export(out.data(), &written, 1, 1, 1, 0, z_);
  out.resize(written);
  return out;
}

std::vector<uint8_t> BigInt::ToBytesPadded(size_t width) const {
  std::vector<uint8_t> raw = ToBytes();
  PEM_CHECK(raw.size() <= width, "ToBytesPadded: value too wide");
  std::vector<uint8_t> out(width, 0);
  std::memcpy(out.data() + (width - raw.size()), raw.data(), raw.size());
  return out;
}

}  // namespace pem::crypto
