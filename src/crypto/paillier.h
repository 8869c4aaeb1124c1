// Paillier cryptosystem (Paillier, Eurocrypt '99).
//
// The additively homomorphic building block of Protocols 2-4:
//   Enc(a) * Enc(b)  =  Enc(a + b)      (ciphertext multiplication)
//   Enc(a) ^ k       =  Enc(a * k)      (scalar exponentiation)
//
// Plaintexts live in Z_n; market quantities are signed fixed-point
// integers mapped into [0, n) with the upper half representing negative
// values.  Decryption uses the standard CRT acceleration (can be
// disabled for the ablation bench).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/rng.h"
#include "util/error.h"

namespace pem::net {
struct ExecutionPolicy;  // net/transport.h
}

namespace pem::crypto {

// A Paillier ciphertext: an element of Z_{n^2}.  Serialized as
// fixed-width big-endian bytes (2 * key_bytes).
struct PaillierCiphertext {
  BigInt value;

  bool operator==(const PaillierCiphertext& o) const { return value == o.value; }
};

class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  PaillierPublicKey(BigInt n, int key_bits);

  // Encrypts m in [0, n).
  PaillierCiphertext Encrypt(const BigInt& m, Rng& rng) const;
  // Encrypts a signed 64-bit value using the half-range encoding.
  PaillierCiphertext EncryptSigned(int64_t v, Rng& rng) const;

  // Deterministic encryption with caller-supplied randomness r
  // (invertible mod n).  Used by the verifiable-contribution check
  // (re-encrypt and compare) and by the randomness pool.
  PaillierCiphertext EncryptWithRandomness(const BigInt& m,
                                           const BigInt& r) const;
  // Samples encryption randomness r: uniform in [1, n), invertible.
  // Cheap (no exponentiation) — protocol code draws r sequentially in
  // its prepare phase and defers the r^n work to EncryptWithRandomness
  // inside a compute-phase worker.
  BigInt SampleRandomness(Rng& rng) const;
  // The expensive half of encryption: r^n mod n^2 for fresh random r.
  // Precomputable offline; see PaillierRandomnessPool.
  BigInt SampleRandomnessFactor(Rng& rng) const;
  // Assembles a ciphertext from a plaintext and a precomputed factor.
  PaillierCiphertext EncryptWithFactor(const BigInt& m,
                                       const BigInt& rn_factor) const;

  // Homomorphic addition of plaintexts.
  PaillierCiphertext Add(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) const;
  // Homomorphic plaintext * scalar (scalar may be negative).
  PaillierCiphertext ScalarMul(const PaillierCiphertext& c,
                               const BigInt& k) const;
  // Fresh randomness; plaintext unchanged.  Semi-honest ring
  // aggregation does not strictly need this but tests exercise it.
  PaillierCiphertext Rerandomize(const PaillierCiphertext& c, Rng& rng) const;

  // Encryption of zero, useful as an aggregation identity.
  PaillierCiphertext EncryptZero(Rng& rng) const;

  // Maps a signed value into Z_n (negative -> n - |v|).
  BigInt EncodeSigned(int64_t v) const;
  // Inverse of EncodeSigned.
  int64_t DecodeSigned(const BigInt& m) const;

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n2_; }
  int key_bits() const { return key_bits_; }
  // Serialized ciphertext width in bytes.
  size_t ciphertext_bytes() const { return (static_cast<size_t>(key_bits_) * 2 + 7) / 8; }

  // Wire format: key_bits (u32) || n (length-prefixed bytes).
  std::vector<uint8_t> Serialize() const;
  static Result<PaillierPublicKey> Deserialize(
      std::span<const uint8_t> bytes);

  bool operator==(const PaillierPublicKey& o) const {
    return n_ == o.n_ && key_bits_ == o.key_bits_;
  }

 private:
  BigInt n_;
  BigInt n2_;
  BigInt g_;  // fixed to n + 1 (standard, enables the fast L-function path)
  int key_bits_ = 0;
};

class PaillierCrtEncryptor;

class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  PaillierPrivateKey(const PaillierPublicKey& pk, BigInt p, BigInt q);

  BigInt Decrypt(const PaillierCiphertext& c) const;
  int64_t DecryptSigned(const PaillierCiphertext& c) const;

  // Toggle CRT decryption (ablation: bench/ablation_crt).
  void set_use_crt(bool use_crt) { use_crt_ = use_crt; }
  bool use_crt() const { return use_crt_; }

  const PaillierPublicKey& public_key() const { return pk_; }

  // Wire format: public key || p || q.  Handle with care — this is the
  // secret key; intended for agent-local persistence only.
  std::vector<uint8_t> Serialize() const;
  static Result<PaillierPrivateKey> Deserialize(
      std::span<const uint8_t> bytes);

 private:
  friend class PaillierCrtEncryptor;  // reads p_, q_ for the CRT tables

  BigInt DecryptPlain(const PaillierCiphertext& c) const;
  BigInt DecryptCrt(const PaillierCiphertext& c) const;

  PaillierPublicKey pk_;
  BigInt p_, q_;
  BigInt lambda_;  // lcm(p-1, q-1)
  BigInt mu_;      // (L(g^lambda mod n^2))^-1 mod n
  // CRT precomputation.
  BigInt p2_, q2_;        // p^2, q^2
  BigInt hp_, hq_;        // per-prime mu values
  BigInt q_inv_mod_p_;    // CRT (Garner) recombination coefficient
  bool use_crt_ = true;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

// Generates a fresh key pair with an n of exactly `key_bits` bits.
// key_bits must be even and >= 128 (tests use small keys; deployments
// use 1024+).
PaillierKeyPair GeneratePaillierKeyPair(int key_bits, Rng& rng);

// Owner-side CRT acceleration of the encryption hot spot.
//
// The expensive half of Paillier encryption is r^n mod n^2.  An agent
// encrypting under its OWN key knows p and q, so it can compute the
// factor mod p^2 and q^2 separately and Garner-recombine; because p
// divides the reduced exponent n mod p(p-1), each side further splits
// into a half-width exponent at modulus p plus a half-width exponent
// at modulus p^2 (see RandomnessFactor) — ~2x cheaper at 512-bit keys
// growing to ~3x+ at 2048-bit, the encryption-side analog of the CRT
// decryption the private key already uses.  The result is
// BIT-IDENTICAL to PaillierPublicKey::SampleRandomnessFactor /
// EncryptWithRandomness for the same (m, r), so swapping the fast path
// in changes no wire byte (asserted by the crypto parity tests).
class PaillierCrtEncryptor {
 public:
  PaillierCrtEncryptor() = default;
  // Builds the CRT tables from the owner's private key.
  explicit PaillierCrtEncryptor(const PaillierPrivateKey& sk);
  // As above, but asserts `sk` actually opens `pk` — constructing an
  // encryptor for somebody else's public key is always a bug (death
  // test in tests/crypto/test_paillier.cpp).
  PaillierCrtEncryptor(const PaillierPublicKey& pk,
                       const PaillierPrivateKey& sk);

  // r^n mod n^2 via the CRT path; r must be a unit mod n.  Equal, bit
  // for bit, to r.PowMod(n, n_squared).
  BigInt RandomnessFactor(const BigInt& r) const;

  // Drop-in replacements for the PaillierPublicKey entry points, so
  // protocol code and the randomness pool can route through the owner
  // fast path transparently.
  BigInt SampleRandomnessFactor(Rng& rng) const;
  PaillierCiphertext EncryptWithRandomness(const BigInt& m,
                                           const BigInt& r) const;
  PaillierCiphertext Encrypt(const BigInt& m, Rng& rng) const;
  PaillierCiphertext EncryptSigned(int64_t v, Rng& rng) const;

  const PaillierPublicKey& public_key() const { return pk_; }

 private:
  PaillierPublicKey pk_;
  BigInt p_, q_;          // the prime factors of n
  BigInt p2_, q2_;        // p^2, q^2
  BigInt t_p_, t_q_;      // (n mod p(p-1)) / p and (n mod q(q-1)) / q
  BigInt q2_inv_mod_p2_;  // Garner recombination coefficient mod n^2
};

// Precomputed encryption randomness for one public key.
//
// Paillier encryption costs one n-bit exponentiation (r^n mod n^2)
// that does not depend on the plaintext.  The paper exploits this:
// "the encryption and decryption are independently executed in
// parallel during idle time", which is why Fig. 5(b)'s runtime barely
// moves with the key size.  Refill() is the idle-time phase; Encrypt*
// then costs one multiplication.  See bench/ablation_precompute.
//
// Refill is phased like the protocol engine: every r is drawn
// sequentially from the caller's RNG, then the exponentiations fan out
// across `threads` workers — so the factor sequence (and therefore
// every wire transcript downstream of the pool) is invariant under the
// thread count and under the owner-CRT toggle.
class PaillierRandomnessPool {
 public:
  explicit PaillierRandomnessPool(PaillierPublicKey pk) : pk_(std::move(pk)) {}

  // Offline: precompute factors until `target` are available.  The
  // threaded overload fans the r^n exponentiations out over up to
  // `threads` workers; the factor sequence is identical for any count.
  void Refill(size_t target, Rng& rng) { Refill(target, rng, 1); }
  void Refill(size_t target, Rng& rng, unsigned threads);

  // Attaches the key owner's CRT encryptor: subsequent refills compute
  // each factor mod p^2/q^2 instead of mod n^2.  Same factor bits, so
  // pooled ciphertexts are unchanged.  The encryptor must match this
  // pool's modulus.
  void AttachCrtEncryptor(PaillierCrtEncryptor enc);
  bool has_crt_encryptor() const { return crt_.has_value(); }

  size_t available() const { return factors_.size(); }
  const PaillierPublicKey& public_key() const { return pk_; }

  // Online: consumes a precomputed factor; falls back to fresh
  // randomness when the pool is dry (correct either way).
  PaillierCiphertext Encrypt(const BigInt& m, Rng& rng);
  PaillierCiphertext EncryptSigned(int64_t v, Rng& rng);

  // Pops one precomputed factor, or nullopt when the pool is dry.
  // Used by the phase-parallel engine to assign factors to ring
  // members in a deterministic sequential order before the compute
  // phase fans out.
  std::optional<BigInt> TakeFactor();

 private:
  PaillierPublicKey pk_;
  std::optional<PaillierCrtEncryptor> crt_;
  std::vector<BigInt> factors_;
};

// Pools keyed by public key (modulus), shared across protocol runs so
// idle-time refills amortize over many trading windows.
class PaillierPoolRegistry {
 public:
  // Returns the pool for `pk`, creating it on first use.
  PaillierRandomnessPool& PoolFor(const PaillierPublicKey& pk);

  // Registers the key owner with the pool for sk's public key
  // (creating the pool if needed), so idle-time refills run the CRT
  // fast path.  Idempotent.
  void AttachOwner(const PaillierPrivateKey& sk);

  // Idle-time maintenance: tops every known pool up to `target`.  The
  // threaded/policy overloads fan each pool's exponentiations out; all
  // r draws stay sequential (pools in registration order), so the
  // factor sequences match the serial overload exactly.
  void RefillAll(size_t target, Rng& rng) { RefillAll(target, rng, 1u); }
  void RefillAll(size_t target, Rng& rng, unsigned threads);
  // Convenience: workers from the run's execution policy (the same
  // knob that sizes the protocol compute phases).
  void RefillAll(size_t target, Rng& rng, const net::ExecutionPolicy& policy);

  size_t pool_count() const { return pools_.size(); }

 private:
  std::vector<std::unique_ptr<PaillierRandomnessPool>> pools_;
};

}  // namespace pem::crypto
