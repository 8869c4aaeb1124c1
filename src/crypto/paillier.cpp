#include "crypto/paillier.h"

#include <iterator>
#include <mutex>
#include <string_view>

#include "crypto/hash.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "util/error.h"
#include "util/parallel.h"

namespace pem::crypto {
namespace {

// L(x) = (x - 1) / d, defined on x ≡ 1 (mod d).
BigInt LFunction(const BigInt& x, const BigInt& d) {
  return (x - BigInt(1)) / d;
}

// Digits of the fixed-base table: h_s^r is assembled from base-16
// digits of r, one table entry h_s^(16^i) per digit position.
constexpr int kDigitBits = 4;
constexpr unsigned kDigitMax = (1u << kDigitBits) - 1;

uint8_t Digit(const BigInt& r, size_t i) {
  // GMP_NUMB_BITS is a multiple of 4, so no digit straddles two limbs.
  constexpr size_t kPerLimb = GMP_NUMB_BITS / kDigitBits;
  const mp_limb_t limb =
      mpz_getlimbn(r.raw(), static_cast<mp_size_t>(i / kPerLimb));
  return static_cast<uint8_t>((limb >> ((i % kPerLimb) * kDigitBits)) &
                              kDigitMax);
}

// x = SHA-256-expand(tag || attempt || n) mod n, widened by 128 bits so
// the reduction is statistically uniform; the first unit x wins.  A
// public function of n, so every holder of the key derives the same h
// without it ever being sent.
BigInt HashToUnit(const BigInt& n, int key_bits) {
  static constexpr std::string_view kTag = "pem/paillier/djn-base/v1";
  const std::vector<uint8_t> n_bytes = n.ToBytes();
  const size_t width = static_cast<size_t>(key_bits) / 8 + 16;
  for (uint32_t attempt = 0;; ++attempt) {
    std::vector<uint8_t> stream;
    for (uint32_t block = 0; stream.size() < width; ++block) {
      std::vector<uint8_t> in(kTag.begin(), kTag.end());
      for (uint32_t v : {attempt, block}) {
        for (int s = 24; s >= 0; s -= 8) {
          in.push_back(static_cast<uint8_t>(v >> s));
        }
      }
      in.insert(in.end(), n_bytes.begin(), n_bytes.end());
      const Sha256Digest d = Sha256(in);
      stream.insert(stream.end(), d.bytes.begin(), d.bytes.end());
    }
    stream.resize(width);
    BigInt x = BigInt::FromBytes(stream) % n;
    if (x.IsInvertibleMod(n)) return x;
  }
}

// GeneratePaillierKeyPair calls on this thread.
thread_local uint64_t t_keygens = 0;

// The retry stream's seed: the first 8 bytes of SHA-256 over both
// candidates, each length-prefixed.
uint64_t RetrySeed(const PaillierPrimeCandidates& c) {
  net::ByteWriter w;
  w.Bytes(c.p.ToBytes());
  w.Bytes(c.q.ToBytes());
  const Sha256Digest d = Sha256(w.Take());
  uint64_t seed = 0;
  for (size_t i = 0; i < 8; ++i) seed = seed << 8 | d.bytes[i];
  return seed;
}

}  // namespace

struct PaillierPublicKey::FixedBase {
  std::once_flag once;
  BigInt h_s;
  std::vector<BigInt> table;
  BigInt top;  // h_s^(16^table.size())
};

PaillierPublicKey::PaillierPublicKey(BigInt n, int key_bits)
    : n_(std::move(n)),
      key_bits_(key_bits),
      fixed_base_(std::make_shared<FixedBase>()) {
  n2_ = n_ * n_;
}

int PaillierPublicKey::randomness_bits() const {
  const int lambda = key_bits_ < 2048 ? 80 : key_bits_ < 3072 ? 112 : 128;
  return 4 * lambda;
}

const PaillierPublicKey::FixedBase& PaillierPublicKey::fixed_base() const {
  PEM_CHECK(fixed_base_ != nullptr, "Paillier key has no modulus");
  FixedBase& fb = *fixed_base_;
  std::call_once(fb.once, [&] {
    // h = -x^2 mod n: a square (negated), so h_s = h^n generates a
    // subgroup of the n-th residues (Damgard-Jurik-Nielsen, 4.2).
    const BigInt x = HashToUnit(n_, key_bits_);
    const BigInt h = n_ - x.MulMod(x, n_);
    fb.h_s = h.PowMod(n_, n2_);
    const size_t digits =
        static_cast<size_t>(randomness_bits() + kDigitBits - 1) / kDigitBits;
    fb.table.resize(digits);
    fb.table[0] = fb.h_s;
    for (size_t i = 1; i < digits; ++i) {
      BigInt& t = fb.table[i];
      t = fb.table[i - 1];
      for (int s = 0; s < kDigitBits; ++s) t = t.MulMod(t, n2_);
    }
    fb.top = fb.table.back();
    for (int s = 0; s < kDigitBits; ++s) fb.top = fb.top.MulMod(fb.top, n2_);
  });
  return fb;
}

const BigInt& PaillierPublicKey::randomness_base() const {
  return fixed_base().h_s;
}

BigInt PaillierPublicKey::EncodeSigned(int64_t v) const {
  if (v >= 0) return BigInt(v);
  // n + v (v < 0) rather than n - (-v): negating INT64_MIN overflows.
  return n_ + BigInt(v);
}

int64_t PaillierPublicKey::DecodeSigned(const BigInt& m) const {
  const BigInt half = n_ / BigInt(2);
  // m - n is the negative representative; converting it directly (not
  // via -|n - m|) keeps INT64_MIN decodable.
  if (m > half) return (m - n_).ToInt64();
  return m.ToInt64();
}

PaillierCiphertext PaillierPublicKey::Encrypt(const BigInt& m, Rng& rng) const {
  PEM_CHECK(!m.IsNegative() && m < n_, "Paillier plaintext out of range");
  return EncryptWithRandomness(m, SampleRandomness(rng));
}

PaillierCiphertext PaillierPublicKey::EncryptSigned(int64_t v, Rng& rng) const {
  return Encrypt(EncodeSigned(v), rng);
}

PaillierCiphertext PaillierPublicKey::EncryptWithRandomness(
    const BigInt& m, const BigInt& r) const {
  return EncryptWithFactor(m, RandomnessFactor(r));
}

BigInt PaillierPublicKey::SampleRandomness(Rng& rng) const {
  // r uniform in [1, 2^l): l random bits, redrawn on the (2^-l) zero.
  const int bits = randomness_bits();
  std::vector<uint8_t> buf((static_cast<size_t>(bits) + 7) / 8);
  for (;;) {
    rng.Fill(buf);
    if (bits % 8 != 0) buf[0] &= static_cast<uint8_t>((1u << (bits % 8)) - 1);
    BigInt r = BigInt::FromBytes(buf);
    if (!r.IsZero()) return r;
  }
}

bool PaillierPublicKey::IsRandomness(const BigInt& r) const {
  return !r.IsNegative() && !r.IsZero() &&
         r.BitLength() <= static_cast<size_t>(randomness_bits());
}

BigInt PaillierPublicKey::RandomnessFactor(const BigInt& r) const {
  PEM_CHECK(IsRandomness(r), "encryption randomness must be in [1, 2^l)");
  return TablePow(r);
}

BigInt PaillierPublicKey::TablePow(const BigInt& r) const {
  const FixedBase& fb = fixed_base();
  // Fixed-base exponentiation (Brickell-Gordon-McCurley-Wilson): with
  // r = sum d_i 16^i, h_s^r = prod_{j=15..1} (prod_{d_i >= j} T_i), so
  // one running product b collects the entries with digit j on pass j
  // and acc multiplies b in after every pass.  At most ceil(l/4) + 15
  // multiplications mod n^2, and no squarings.
  std::vector<uint8_t> digits(fb.table.size());
  for (size_t i = 0; i < digits.size(); ++i) digits[i] = Digit(r, i);
  // In-place GMP calls on BigInts: one product buffer, no temporaries.
  BigInt acc(1), b(1), t;
  bool started = false;
  for (unsigned j = kDigitMax; j >= 1; --j) {
    for (size_t i = 0; i < digits.size(); ++i) {
      if (digits[i] != j) continue;
      mpz_mul(t.raw(), b.raw(), fb.table[i].raw());
      mpz_tdiv_r(b.raw(), t.raw(), n2_.raw());
      started = true;
    }
    if (!started) continue;  // acc and b are still 1
    mpz_mul(t.raw(), acc.raw(), b.raw());
    mpz_tdiv_r(acc.raw(), t.raw(), n2_.raw());
  }
  return acc;
}

BigInt PaillierPublicKey::OpeningFactor(const BigInt& r) const {
  PEM_CHECK(!r.IsNegative() &&
                r.BitLength() <= static_cast<size_t>(randomness_bits() +
                                                     key_bits_),
            "opening randomness must be in [0, 2^(l + key_bits))");
  const FixedBase& fb = fixed_base();
  BigInt acc = TablePow(r);
  // A sum of k draws exceeds the table by about log2(k) bits: the high
  // part is a short exponent of the next power past the table.
  BigInt high;
  mpz_tdiv_q_2exp(high.raw(), r.raw(),
                  static_cast<mp_bitcnt_t>(fb.table.size() * kDigitBits));
  if (!high.IsZero()) acc = acc.MulMod(fb.top.PowMod(high, n2_), n2_);
  return acc;
}

PaillierCiphertext PaillierPublicKey::EncryptOpening(
    const PaillierOpening& o) const {
  return EncryptWithFactor(o.m, o.f.MulMod(OpeningFactor(o.r), n2_));
}

PaillierOpening PaillierPublicKey::AddOpenings(const PaillierOpening& a,
                                               const PaillierOpening& b) const {
  return PaillierOpening{a.m.AddMod(b.m, n_), a.r + b.r, a.f.MulMod(b.f, n2_)};
}

PaillierOpening PaillierPublicKey::ScaleOpening(const PaillierOpening& o,
                                                const BigInt& k) const {
  PEM_CHECK(!k.IsNegative(), "opening scalar must be non-negative");
  // Without pooled factors f is 1; skip the exponentiation then.
  const BigInt one(1);
  return PaillierOpening{o.m.MulMod(k, n_), o.r * k,
                         o.f == one ? one : o.f.PowMod(k, n2_)};
}

BigInt PaillierPublicKey::SampleRandomnessFactor(Rng& rng) const {
  return RandomnessFactor(SampleRandomness(rng));
}

PaillierCiphertext PaillierPublicKey::EncryptWithFactor(
    const BigInt& m, const BigInt& factor) const {
  PEM_CHECK(!m.IsNegative() && m < n_, "Paillier plaintext out of range");
  const BigInt gm = (BigInt(1) + m * n_) % n2_;
  return PaillierCiphertext{gm.MulMod(factor, n2_)};
}

PaillierCiphertext PaillierPublicKey::EncryptZero(Rng& rng) const {
  return Encrypt(BigInt(0), rng);
}

PaillierCiphertext PaillierPublicKey::Add(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  return PaillierCiphertext{a.value.MulMod(b.value, n2_)};
}

PaillierCiphertext PaillierPublicKey::ScalarMul(const PaillierCiphertext& c,
                                                const BigInt& k) const {
  if (k.IsNegative()) {
    // c^{-|k|}: invert the ciphertext group element then exponentiate.
    const BigInt inv = c.value.InvMod(n2_);
    return PaillierCiphertext{inv.PowMod(-k, n2_)};
  }
  return PaillierCiphertext{c.value.PowMod(k, n2_)};
}

PaillierPrivateKey::PaillierPrivateKey(const PaillierPublicKey& pk, BigInt p,
                                       BigInt q)
    : pk_(pk), p_(std::move(p)), q_(std::move(q)) {
  // g = n + 1, so (1 + n)^x = 1 + x*n mod n^2 and every L value below
  // is a product: L(g^lambda mod n^2) = lambda mod n, and
  // L_p(g^(p-1) mod p^2) = (p-1)*q = -q mod p (likewise for q).  No
  // exponentiation is needed; test_paillier keeps the generic formulas
  // as the oracle.
  k_.lambda = (p_ - BigInt(1)).Lcm(q_ - BigInt(1));
  k_.mu = k_.lambda.InvMod(pk_.n());
  k_.hp = (p_ - q_ % p_).InvMod(p_);
  k_.hq = (q_ - p_ % q_).InvMod(q_);

  // CRT tables: decrypt mod p^2 and q^2 then recombine.
  p2_ = p_ * p_;
  q2_ = q_ * q_;
  q_inv_mod_p_ = q_.InvMod(p_);
}

BigInt PaillierPrivateKey::DecryptPlain(const PaillierCiphertext& c) const {
  const BigInt u = c.value.PowMod(k_.lambda, pk_.n_squared());
  return LFunction(u, pk_.n()).MulMod(k_.mu, pk_.n());
}

BigInt PaillierPrivateKey::DecryptCrt(const PaillierCiphertext& c) const {
  const BigInt p1 = p_ - BigInt(1);
  const BigInt q1 = q_ - BigInt(1);
  // m_p = L_p(c^{p-1} mod p^2) * hp mod p
  const BigInt mp =
      LFunction((c.value % p2_).PowMod(p1, p2_), p_).MulMod(k_.hp, p_);
  const BigInt mq =
      LFunction((c.value % q2_).PowMod(q1, q2_), q_).MulMod(k_.hq, q_);
  // Garner recombination: m = mq + q * ((mp - mq) * q^-1 mod p).
  const BigInt diff = mp.SubMod(mq % p_, p_);
  const BigInt h = diff.MulMod(q_inv_mod_p_, p_);
  return (mq + q_ * h) % pk_.n();
}

BigInt PaillierPrivateKey::Decrypt(const PaillierCiphertext& c) const {
  PEM_CHECK(!c.value.IsNegative() && c.value < pk_.n_squared(),
            "Paillier ciphertext out of range");
  return use_crt_ ? DecryptCrt(c) : DecryptPlain(c);
}

int64_t PaillierPrivateKey::DecryptSigned(const PaillierCiphertext& c) const {
  return pk_.DecodeSigned(Decrypt(c));
}

PaillierCrtEncryptor::PaillierCrtEncryptor(const PaillierPublicKey& pk,
                                           const PaillierPrivateKey& sk)
    : PaillierCrtEncryptor(sk) {
  PEM_CHECK(pk == sk.public_key(),
            "CRT encryptor: public key does not match the private key");
}

PaillierPrimeCandidates DrawPaillierPrimeCandidates(int key_bits, Rng& rng) {
  PEM_CHECK(key_bits >= 128 && key_bits % 2 == 0,
            "key_bits must be even and >= 128");
  PaillierPrimeCandidates c;
  c.p = BigInt::RandomBits(key_bits / 2, rng);
  c.q = BigInt::RandomBits(key_bits / 2, rng);
  return c;
}

PaillierKeyPair GeneratePaillierKeyPair(int key_bits, Rng& rng) {
  const PaillierPrimeCandidates c = DrawPaillierPrimeCandidates(key_bits, rng);
  ++t_keygens;
  const int prime_bits = key_bits / 2;
  std::optional<BigInt> p = BigInt::PrimeFrom(c.p, prime_bits);
  std::optional<BigInt> q = BigInt::PrimeFrom(c.q, prime_bits);
  if (!p.has_value() || !q.has_value() || *p == *q) {
    DeterministicRng retry(RetrySeed(c));
    if (!p.has_value()) p = BigInt::RandomPrime(prime_bits, retry);
    while (!q.has_value() || *q == *p) {
      q = BigInt::RandomPrime(prime_bits, retry);
    }
  }
  // Both primes lie in [3/4 * 2^b, 2^b) for b = key_bits / 2, so n has
  // exactly key_bits bits, and neither divides the other's p - 1: n is
  // prime to (p-1)(q-1), which keeps L well-defined.
  BigInt n = *p * *q;
  PEM_CHECK(n.BitLength() == static_cast<size_t>(key_bits) &&
                n.Gcd((*p - BigInt(1)) * (*q - BigInt(1))) == BigInt(1),
            "Paillier primes out of range");
  PaillierPublicKey pub(std::move(n), key_bits);
  PaillierPrivateKey priv(pub, std::move(*p), std::move(*q));
  return PaillierKeyPair{std::move(pub), std::move(priv)};
}

uint64_t PaillierKeygensOnThisThread() { return t_keygens; }

std::vector<uint8_t> PaillierPublicKey::Serialize() const {
  net::ByteWriter w;
  w.U32(static_cast<uint32_t>(key_bits_));
  w.Bytes(n_.ToBytes());
  return w.Take();
}

Result<PaillierPublicKey> PaillierPublicKey::Deserialize(
    std::span<const uint8_t> bytes) {
  // Length checks first: the payload may come from an untrusted peer.
  if (bytes.size() < 8) {
    return Error(ErrorCode::kSerialization, "public key: truncated");
  }
  net::ByteReader r(bytes);
  const uint32_t key_bits = r.U32();
  if (key_bits < 128 || key_bits > 1u << 16 || key_bits % 2 != 0) {
    return Error(ErrorCode::kSerialization, "public key: bad key_bits");
  }
  const std::optional<std::vector<uint8_t>> n_bytes = r.TryBytes();
  if (!n_bytes.has_value() || n_bytes->size() > (key_bits + 7) / 8) {
    return Error(ErrorCode::kSerialization, "public key: bad modulus size");
  }
  const BigInt n = BigInt::FromBytes(*n_bytes);
  if (n.BitLength() != key_bits) {
    return Error(ErrorCode::kSerialization,
                 "public key: modulus width mismatch");
  }
  if (!r.AtEnd()) {
    return Error(ErrorCode::kSerialization, "public key: trailing bytes");
  }
  return PaillierPublicKey(n, static_cast<int>(key_bits));
}

void PaillierRandomnessPool::AttachCrtEncryptor(
    const PaillierCrtEncryptor& enc) {
  PEM_CHECK(enc.public_key().n() == pk_.n(),
            "CRT encryptor attached to a pool for a different modulus");
}

void PaillierRandomnessPool::Refill(size_t target, Rng& rng,
                                    unsigned threads) {
  if (factors_.size() >= target) return;
  // Phase 1 (sequential): draw every r — the only RNG consumer — so the
  // factor sequence does not depend on how phase 2 is scheduled.
  std::vector<BigInt> rs(target - factors_.size());
  for (BigInt& r : rs) r = pk_.SampleRandomness(rng);
  // Phase 2 (fan-out): the exponentiations.  Computed into a local
  // buffer and appended only on success: if ParallelFor throws (worker
  // exception, or thread spawn failing under resource exhaustion), the
  // pool must not be left holding default-constructed zero "factors"
  // that TakeFactor would hand out as randomness.
  std::vector<BigInt> computed(rs.size());
  ParallelFor(0, rs.size(), threads,
              [&](size_t i) { computed[i] = pk_.RandomnessFactor(rs[i]); });
  factors_.insert(factors_.end(),
                  std::make_move_iterator(computed.begin()),
                  std::make_move_iterator(computed.end()));
}

std::optional<BigInt> PaillierRandomnessPool::TakeFactor() {
  if (factors_.empty()) return std::nullopt;
  BigInt f = std::move(factors_.back());
  factors_.pop_back();
  return f;
}

PaillierRandomnessPool& PaillierPoolRegistry::PoolFor(
    const PaillierPublicKey& pk) {
  for (const auto& pool : pools_) {
    if (pool->public_key().n() == pk.n()) return *pool;
  }
  pools_.push_back(std::make_unique<PaillierRandomnessPool>(pk));
  return *pools_.back();
}

void PaillierPoolRegistry::RefillAll(size_t target, Rng& rng,
                                     unsigned threads) {
  // Pools refill in registration order; each pool's r draws are
  // sequential, so the sequences match the serial overload whatever
  // `threads` is.
  for (const auto& pool : pools_) pool->Refill(target, rng, threads);
}

void PaillierPoolRegistry::RefillAll(size_t target, Rng& rng,
                                     const net::ExecutionPolicy& policy) {
  RefillAll(target, rng, policy.worker_count());
}

}  // namespace pem::crypto
