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
//
// Encryption uses the short-randomness variant of Damgard, Jurik and
// Nielsen ("A generalization of Paillier's public-key system with
// applications to electronic voting", IJIS 2010, section 4.2):
//   Enc(m) = (1 + n)^m * h_s^r  mod n^2,   h_s = h^n mod n^2,
// with r a uniform nonzero exponent of l = 4*lambda bits (lambda the
// key's NIST SP 800-57 security level).  Every holder of the key
// derives the same h from n alone by hashing, so the public-key wire
// format is still key_bits || n.  h_s^r is an n-th residue, so
// decryption and the homomorphism are those of textbook Paillier.
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

// What a ciphertext opens to: c = (1 + m*n) * f * h_s^r mod n^2, with
// m in [0, n) its plaintext, r >= 0 a sum of encryption randomness and
// f a product of precomputed factors h_s^r' (1 when none).  Openings
// add and scale like the ciphertexts they open, so whoever fixed every
// share's randomness can rebuild an aggregate's exact bytes
// (PaillierPublicKey::EncryptOpening) and read its plaintext without
// the private key.
struct PaillierOpening {
  BigInt m;
  BigInt r;
  BigInt f{1};
};

class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  PaillierPublicKey(BigInt n, int key_bits);

  // Encrypts m in [0, n).
  PaillierCiphertext Encrypt(const BigInt& m, Rng& rng) const;
  // Encrypts a signed 64-bit value using the half-range encoding.
  PaillierCiphertext EncryptSigned(int64_t v, Rng& rng) const;

  // Deterministic encryption with caller-supplied randomness r (see
  // IsRandomness).  Used by the verifiable-contribution check
  // (re-encrypt and compare) and by ring encryptions whose slot drew
  // fresh randomness.
  PaillierCiphertext EncryptWithRandomness(const BigInt& m,
                                           const BigInt& r) const;
  // Samples encryption randomness r: uniform in [1, 2^l).  Cheap (no
  // exponentiation) — protocol code draws r sequentially in its prepare
  // phase and defers the h_s^r work to EncryptWithRandomness inside a
  // compute-phase worker.
  BigInt SampleRandomness(Rng& rng) const;
  // True iff r is valid encryption randomness: 0 < r < 2^l.  The one
  // predicate every r taken from outside this class goes through.
  bool IsRandomness(const BigInt& r) const;
  // The expensive half of encryption: h_s^r mod n^2, from the key's
  // fixed-base table.  Aborts unless IsRandomness(r).
  BigInt RandomnessFactor(const BigInt& r) const;
  // RandomnessFactor of fresh randomness.  Precomputable offline; see
  // PaillierRandomnessPool.
  BigInt SampleRandomnessFactor(Rng& rng) const;
  // Assembles a ciphertext from a plaintext and a precomputed factor.
  PaillierCiphertext EncryptWithFactor(const BigInt& m,
                                       const BigInt& factor) const;

  // The ciphertext `o` opens: bit for bit the product of the
  // ciphertexts whose openings were combined into it.
  PaillierCiphertext EncryptOpening(const PaillierOpening& o) const;
  // The opening of Add(a, b), given openings of a and b.
  PaillierOpening AddOpenings(const PaillierOpening& a,
                              const PaillierOpening& b) const;
  // The opening of ScalarMul(c, k) for k >= 0, given c's opening.
  PaillierOpening ScaleOpening(const PaillierOpening& o,
                               const BigInt& k) const;

  // Homomorphic addition of plaintexts.
  PaillierCiphertext Add(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) const;
  // Homomorphic plaintext * scalar (scalar may be negative).
  PaillierCiphertext ScalarMul(const PaillierCiphertext& c,
                               const BigInt& k) const;
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
  // l, the bit length of encryption randomness: 4 * lambda with lambda
  // = 80 below 2048-bit keys, 112 below 3072, else 128 (NIST SP 800-57
  // part 1, table 2).  The best known attack on a short exponent is
  // Pollard's kangaroo at ~2^(l/2) group operations, so 4*lambda keeps
  // it at 2^(2*lambda), above the lambda the modulus itself offers.
  int randomness_bits() const;
  // h_s = h^n mod n^2 for the hash-derived h (see RandomnessFactor).
  const BigInt& randomness_base() const;

  // Wire format: key_bits (u32) || n (length-prefixed bytes).
  std::vector<uint8_t> Serialize() const;
  static Result<PaillierPublicKey> Deserialize(
      std::span<const uint8_t> bytes);

  bool operator==(const PaillierPublicKey& o) const {
    return n_ == o.n_ && key_bits_ == o.key_bits_;
  }

 private:
  // h_s, its 4-bit fixed-base table h_s^(16^i), i < ceil(l / 4), and
  // the next power past the table, h_s^(16^ceil(l / 4)).
  // Built on first use, once, however many copies of the key share it
  // and whichever thread gets there first; a key that only travels
  // (a deserialized announcement) never pays for it.
  struct FixedBase;
  const FixedBase& fixed_base() const;
  // h_s^(r mod 16^ceil(l / 4)): the table's digits of r.
  BigInt TablePow(const BigInt& r) const;
  // h_s^r for the summed randomness of an opening: any r in
  // [0, 2^(l + key_bits)), through the same table as RandomnessFactor
  // (whose [1, 2^l) check stays as it is).
  BigInt OpeningFactor(const BigInt& r) const;

  BigInt n_;
  BigInt n2_;
  int key_bits_ = 0;
  std::shared_ptr<FixedBase> fixed_base_;  // shared by copies of the key
};

class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  PaillierPrivateKey(const PaillierPublicKey& pk, BigInt p, BigInt q);

  BigInt Decrypt(const PaillierCiphertext& c) const;
  int64_t DecryptSigned(const PaillierCiphertext& c) const;

  // What decryption precomputes from (p, q).  With g = n + 1 each has a
  // closed form: lambda = lcm(p-1, q-1), mu = lambda^-1 mod n,
  // hp = (-q)^-1 mod p and hq = (-p)^-1 mod q.
  struct Constants {
    BigInt lambda;
    BigInt mu;  // (L(g^lambda mod n^2))^-1 mod n
    BigInt hp;  // (L_p(g^(p-1) mod p^2))^-1 mod p
    BigInt hq;  // (L_q(g^(q-1) mod q^2))^-1 mod q
  };
  const Constants& constants() const { return k_; }

  // Toggle CRT decryption (ablation: bench/ablation_crt).
  void set_use_crt(bool use_crt) { use_crt_ = use_crt; }
  bool use_crt() const { return use_crt_; }

  const PaillierPublicKey& public_key() const { return pk_; }

 private:
  BigInt DecryptPlain(const PaillierCiphertext& c) const;
  BigInt DecryptCrt(const PaillierCiphertext& c) const;

  PaillierPublicKey pk_;
  BigInt p_, q_;
  Constants k_;
  // CRT precomputation.
  BigInt p2_, q2_;        // p^2, q^2
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

// The owner's encryptor.  It once computed r^n mod p^2 and mod q^2
// and recombined; the fixed-base table path is faster than that, so
// every call now forwards to the public key, bit for bit.  Kept for
// callers that still name it.
class PaillierCrtEncryptor {
 public:
  PaillierCrtEncryptor() = default;
  explicit PaillierCrtEncryptor(const PaillierPrivateKey& sk)
      : pk_(sk.public_key()) {}
  // As above, but asserts `sk` actually opens `pk` — constructing an
  // encryptor for somebody else's public key is always a bug (death
  // test in tests/crypto/test_paillier.cpp).
  PaillierCrtEncryptor(const PaillierPublicKey& pk,
                       const PaillierPrivateKey& sk);

  BigInt RandomnessFactor(const BigInt& r) const {
    return pk_.RandomnessFactor(r);
  }
  BigInt SampleRandomnessFactor(Rng& rng) const {
    return pk_.SampleRandomnessFactor(rng);
  }
  PaillierCiphertext EncryptWithRandomness(const BigInt& m,
                                           const BigInt& r) const {
    return pk_.EncryptWithRandomness(m, r);
  }
  PaillierCiphertext Encrypt(const BigInt& m, Rng& rng) const {
    return pk_.Encrypt(m, rng);
  }
  PaillierCiphertext EncryptSigned(int64_t v, Rng& rng) const {
    return pk_.EncryptSigned(v, rng);
  }

  const PaillierPublicKey& public_key() const { return pk_; }

 private:
  PaillierPublicKey pk_;
};

// Precomputed encryption randomness for one public key.
//
// Paillier encryption costs one exponentiation (h_s^r mod n^2) that
// does not depend on the plaintext.  The paper exploits this: "the
// encryption and decryption are independently executed in parallel
// during idle time", which is why Fig. 5(b)'s runtime barely moves
// with the key size.  Refill() is the idle-time phase; an encryption
// then costs one multiplication, EncryptWithFactor of a TakeFactor().
// See bench/ablation_precompute.
//
// Refill is phased like the protocol engine: every r is drawn
// sequentially from the caller's RNG, then the exponentiations fan out
// across `threads` workers — so the factor sequence (and therefore
// every wire transcript downstream of the pool) is invariant under the
// thread count.
class PaillierRandomnessPool {
 public:
  explicit PaillierRandomnessPool(PaillierPublicKey pk) : pk_(std::move(pk)) {}

  // Offline: precompute factors until `target` are available.  The
  // threaded overload fans the exponentiations out over up to
  // `threads` workers; the factor sequence is identical for any count.
  void Refill(size_t target, Rng& rng) { Refill(target, rng, 1); }
  void Refill(size_t target, Rng& rng, unsigned threads);

  // Checks that `enc` belongs to this pool's modulus.  Refills take
  // the same path with or without it.
  void AttachCrtEncryptor(const PaillierCrtEncryptor& enc);

  size_t available() const { return factors_.size(); }
  const PaillierPublicKey& public_key() const { return pk_; }

  // Pops one precomputed factor, or nullopt when the pool is dry (the
  // caller then draws fresh randomness).  Used by the phase-parallel
  // engine to assign factors to ring members in a deterministic
  // sequential order before the compute phase fans out.
  std::optional<BigInt> TakeFactor();

 private:
  PaillierPublicKey pk_;
  std::vector<BigInt> factors_;
};

// Pools keyed by public key (modulus), shared across protocol runs so
// idle-time refills amortize over many trading windows.
class PaillierPoolRegistry {
 public:
  // Returns the pool for `pk`, creating it on first use.
  PaillierRandomnessPool& PoolFor(const PaillierPublicKey& pk);

  // PoolFor(sk.public_key()): makes sure the owner's pool exists.
  // Idempotent.
  void AttachOwner(const PaillierPrivateKey& sk) {
    (void)PoolFor(sk.public_key());
  }

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
