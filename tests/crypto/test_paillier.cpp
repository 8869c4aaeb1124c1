#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "crypto/hash.h"
#include "crypto/rng.h"
#include "net/transport.h"
#include "util/parallel.h"

namespace pem::crypto {
namespace {

// 256-bit keys keep the unit tests fast; the parameterized suite below
// also exercises 512-bit.  Production sizes are covered by the benches.
PaillierKeyPair TestKeys(int bits = 256, uint64_t seed = 1) {
  DeterministicRng rng(seed);
  return GeneratePaillierKeyPair(bits, rng);
}

TEST(Paillier, KeyGenerationProducesExactModulusWidth) {
  const PaillierKeyPair kp = TestKeys(256);
  EXPECT_EQ(kp.pub.n().BitLength(), 256u);
  EXPECT_EQ(kp.pub.key_bits(), 256);
  EXPECT_EQ(kp.pub.ciphertext_bytes(), 64u);
}

TEST(Paillier, EncryptDecryptRoundTrip) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(2);
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{42},
                    int64_t{1} << 40, int64_t{123456789}}) {
    const PaillierCiphertext ct = kp.pub.Encrypt(BigInt(m), rng);
    EXPECT_EQ(kp.priv.Decrypt(ct).ToInt64(), m) << m;
  }
}

TEST(Paillier, SignedEncodingRoundTrip) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(3);
  for (int64_t m : {int64_t{0}, int64_t{5}, int64_t{-5}, int64_t{-1},
                    int64_t{1} << 50, -(int64_t{1} << 50)}) {
    const PaillierCiphertext ct = kp.pub.EncryptSigned(m, rng);
    EXPECT_EQ(kp.priv.DecryptSigned(ct), m) << m;
  }
}

TEST(Paillier, EncryptionIsProbabilistic) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(4);
  const PaillierCiphertext a = kp.pub.Encrypt(BigInt(7), rng);
  const PaillierCiphertext b = kp.pub.Encrypt(BigInt(7), rng);
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(kp.priv.Decrypt(a), kp.priv.Decrypt(b));
}

TEST(Paillier, HomomorphicAddition) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(5);
  const PaillierCiphertext a = kp.pub.Encrypt(BigInt(1234), rng);
  const PaillierCiphertext b = kp.pub.Encrypt(BigInt(8766), rng);
  EXPECT_EQ(kp.priv.Decrypt(kp.pub.Add(a, b)).ToInt64(), 10000);
}

TEST(Paillier, HomomorphicAdditionWithNegatives) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(6);
  const PaillierCiphertext a = kp.pub.EncryptSigned(-500, rng);
  const PaillierCiphertext b = kp.pub.EncryptSigned(200, rng);
  EXPECT_EQ(kp.priv.DecryptSigned(kp.pub.Add(a, b)), -300);
}

TEST(Paillier, ScalarMultiplication) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(7);
  const PaillierCiphertext a = kp.pub.Encrypt(BigInt(111), rng);
  EXPECT_EQ(kp.priv.Decrypt(kp.pub.ScalarMul(a, BigInt(9))).ToInt64(), 999);
}

TEST(Paillier, ScalarMultiplicationByZeroAndOne) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(8);
  const PaillierCiphertext a = kp.pub.Encrypt(BigInt(55), rng);
  EXPECT_EQ(kp.priv.Decrypt(kp.pub.ScalarMul(a, BigInt(0))).ToInt64(), 0);
  EXPECT_EQ(kp.priv.Decrypt(kp.pub.ScalarMul(a, BigInt(1))).ToInt64(), 55);
}

TEST(Paillier, NegativeScalarMultiplication) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(9);
  const PaillierCiphertext a = kp.pub.EncryptSigned(40, rng);
  EXPECT_EQ(kp.priv.DecryptSigned(kp.pub.ScalarMul(a, BigInt(-3))), -120);
}

TEST(Paillier, EncryptZeroIsAdditiveIdentity) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(11);
  const PaillierCiphertext z = kp.pub.EncryptZero(rng);
  const PaillierCiphertext a = kp.pub.Encrypt(BigInt(31), rng);
  EXPECT_EQ(kp.priv.Decrypt(kp.pub.Add(a, z)).ToInt64(), 31);
}

TEST(Paillier, CrtAndPlainDecryptionAgree) {
  PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(12);
  for (int i = 0; i < 20; ++i) {
    const BigInt m = BigInt::RandomBelow(kp.pub.n(), rng);
    const PaillierCiphertext ct = kp.pub.Encrypt(m, rng);
    kp.priv.set_use_crt(true);
    const BigInt crt = kp.priv.Decrypt(ct);
    kp.priv.set_use_crt(false);
    const BigInt plain = kp.priv.Decrypt(ct);
    EXPECT_EQ(crt, plain);
    EXPECT_EQ(crt, m);
  }
}

TEST(Paillier, LargePlaintextNearModulus) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(13);
  const BigInt m = kp.pub.n() - BigInt(1);
  const PaillierCiphertext ct = kp.pub.Encrypt(m, rng);
  EXPECT_EQ(kp.priv.Decrypt(ct), m);
}

TEST(Paillier, SignedDecodeBoundary) {
  const PaillierKeyPair kp = TestKeys();
  // n-1 encodes -1 in the half-range convention.
  EXPECT_EQ(kp.pub.DecodeSigned(kp.pub.n() - BigInt(1)), -1);
  EXPECT_EQ(kp.pub.DecodeSigned(BigInt(0)), 0);
  EXPECT_EQ(kp.pub.DecodeSigned(BigInt(12345)), 12345);
}

TEST(Paillier, DistinctSeedsGiveDistinctKeys) {
  const PaillierKeyPair a = TestKeys(256, 100);
  const PaillierKeyPair b = TestKeys(256, 200);
  EXPECT_NE(a.pub.n(), b.pub.n());
}

TEST(PaillierDeath, PlaintextOutOfRangeAborts) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(14);
  EXPECT_DEATH((void)kp.pub.Encrypt(kp.pub.n(), rng), "out of range");
}

TEST(PaillierDeath, OddKeyBitsAborts) {
  DeterministicRng rng(15);
  EXPECT_DEATH((void)GeneratePaillierKeyPair(255, rng), "even");
}

// The market protocols aggregate hundreds of signed fixed-point values
// multiplicatively; this sweep checks long homomorphic chains at
// several key sizes.
class PaillierAggregation
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PaillierAggregation, LongAdditiveChainsDecryptToExactSums) {
  const auto [bits, seed] = GetParam();
  DeterministicRng rng(seed);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  int64_t expected = 0;
  PaillierCiphertext acc = kp.pub.EncryptZero(rng);
  for (int i = 0; i < 60; ++i) {
    // Mix of positive and negative contributions, like net energies.
    const int64_t v = (i % 3 == 0 ? -1 : 1) * (1000 + 37 * i);
    expected += v;
    acc = kp.pub.Add(acc, kp.pub.EncryptSigned(v, rng));
  }
  EXPECT_EQ(kp.priv.DecryptSigned(acc), expected);
}

TEST_P(PaillierAggregation, ScalarChainMatchesInt128Math) {
  const auto [bits, seed] = GetParam();
  DeterministicRng rng(seed + 1);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  const int64_t base = 123456;
  const int64_t scalar = int64_t{1} << 30;
  const PaillierCiphertext ct =
      kp.pub.ScalarMul(kp.pub.EncryptSigned(base, rng), BigInt(scalar));
  // base * 2^30 exceeds int32 but fits int64.
  EXPECT_EQ(kp.priv.DecryptSigned(ct), base * scalar);
}

INSTANTIATE_TEST_SUITE_P(
    KeySizes, PaillierAggregation,
    ::testing::Combine(::testing::Values(128, 256, 512),
                       ::testing::Values(uint64_t{17}, uint64_t{18})));

TEST(PaillierDeterministic, EncryptWithRandomnessIsReproducible) {
  const PaillierKeyPair kp = TestKeys();
  const BigInt r(12345);
  const PaillierCiphertext a = kp.pub.EncryptWithRandomness(BigInt(77), r);
  const PaillierCiphertext b = kp.pub.EncryptWithRandomness(BigInt(77), r);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(kp.priv.Decrypt(a).ToInt64(), 77);
}

TEST(PaillierDeterministic, DifferentRandomnessDifferentCiphertext) {
  const PaillierKeyPair kp = TestKeys();
  const PaillierCiphertext a =
      kp.pub.EncryptWithRandomness(BigInt(77), BigInt(111));
  const PaillierCiphertext b =
      kp.pub.EncryptWithRandomness(BigInt(77), BigInt(222));
  EXPECT_NE(a.value, b.value);
}

TEST(PaillierDeterministicDeath, NonUnitRandomnessAborts) {
  const PaillierKeyPair kp = TestKeys();
  EXPECT_DEATH((void)kp.pub.EncryptWithRandomness(BigInt(1), BigInt(0)),
               "randomness");
}

TEST(PaillierPool, RefillReachesTarget) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(30);
  PaillierRandomnessPool pool(kp.pub);
  EXPECT_EQ(pool.available(), 0u);
  pool.Refill(16, rng);
  EXPECT_EQ(pool.available(), 16u);
  pool.Refill(8, rng);  // never shrinks
  EXPECT_EQ(pool.available(), 16u);
}

TEST(PaillierPool, PooledCiphertextsDecryptCorrectly) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(31);
  PaillierRandomnessPool pool(kp.pub);
  pool.Refill(10, rng);
  for (int64_t v : {int64_t{5}, int64_t{-5}, int64_t{0}, int64_t{1} << 40}) {
    const PaillierCiphertext ct =
        kp.pub.EncryptWithFactor(kp.pub.EncodeSigned(v), *pool.TakeFactor());
    EXPECT_EQ(kp.priv.DecryptSigned(ct), v);
  }
  EXPECT_EQ(pool.available(), 6u);  // four factors consumed
}

TEST(PaillierPool, PooledEncryptionsStayProbabilistic) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(33);
  PaillierRandomnessPool pool(kp.pub);
  pool.Refill(2, rng);
  const BigInt m = kp.pub.EncodeSigned(7);
  const PaillierCiphertext a = kp.pub.EncryptWithFactor(m, *pool.TakeFactor());
  const PaillierCiphertext b = kp.pub.EncryptWithFactor(m, *pool.TakeFactor());
  EXPECT_NE(a.value, b.value);
}

TEST(PaillierPoolRegistry, OnePoolPerModulus) {
  DeterministicRng rng(34);
  const PaillierKeyPair a = GeneratePaillierKeyPair(128, rng);
  const PaillierKeyPair b = GeneratePaillierKeyPair(128, rng);
  PaillierPoolRegistry registry;
  PaillierRandomnessPool& pa1 = registry.PoolFor(a.pub);
  PaillierRandomnessPool& pb = registry.PoolFor(b.pub);
  PaillierRandomnessPool& pa2 = registry.PoolFor(a.pub);
  EXPECT_EQ(&pa1, &pa2);
  EXPECT_NE(&pa1, &pb);
  EXPECT_EQ(registry.pool_count(), 2u);
}

TEST(PaillierSerialization, PublicKeyRoundTrip) {
  const PaillierKeyPair kp = TestKeys();
  const std::vector<uint8_t> bytes = kp.pub.Serialize();
  const Result<PaillierPublicKey> back = PaillierPublicKey::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back.value(), kp.pub);
  // The deserialized key encrypts for the original private key.
  DeterministicRng rng(40);
  EXPECT_EQ(kp.priv.DecryptSigned(back.value().EncryptSigned(-99, rng)), -99);
}

TEST(PaillierSerialization, RejectsTruncatedPublicKey) {
  const PaillierKeyPair kp = TestKeys();
  std::vector<uint8_t> bytes = kp.pub.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(PaillierPublicKey::Deserialize(bytes).ok());
  EXPECT_FALSE(PaillierPublicKey::Deserialize({}).ok());
}

TEST(PaillierSerialization, RejectsWidthMismatch) {
  const PaillierKeyPair kp = TestKeys();
  std::vector<uint8_t> bytes = kp.pub.Serialize();
  bytes[0] = 0x00;  // claim a different key_bits
  bytes[1] = 0x02;  // 512
  EXPECT_FALSE(PaillierPublicKey::Deserialize(bytes).ok());
}

TEST(PaillierSerialization, RejectsTrailingGarbage) {
  const PaillierKeyPair kp = TestKeys();
  std::vector<uint8_t> bytes = kp.pub.Serialize();
  bytes.push_back(0xFF);
  EXPECT_FALSE(PaillierPublicKey::Deserialize(bytes).ok());
}

TEST(PaillierPoolRegistry, RefillAllTopsUpEveryPool) {
  DeterministicRng rng(35);
  const PaillierKeyPair a = GeneratePaillierKeyPair(128, rng);
  const PaillierKeyPair b = GeneratePaillierKeyPair(128, rng);
  PaillierPoolRegistry registry;
  (void)registry.PoolFor(a.pub);
  (void)registry.PoolFor(b.pub);
  registry.RefillAll(5, rng);
  EXPECT_EQ(registry.PoolFor(a.pub).available(), 5u);
  EXPECT_EQ(registry.PoolFor(b.pub).available(), 5u);
}

// --- the owner's encryptor (known-answer parity) ---------------------
//
// PaillierCrtEncryptor forwards to the public key's one factor path.
// For the SAME (m, r) it must produce ciphertexts byte-for-byte
// identical to the public path, and the factor must be h_s^r mod n^2,
// at every key size the protocols use.

// 2^e.
BigInt TwoTo(int e) {
  BigInt x;
  mpz_setbit(x.raw(), static_cast<mp_bitcnt_t>(e));
  return x;
}

class PaillierCrtParity : public ::testing::TestWithParam<int> {};

TEST_P(PaillierCrtParity, KnownAnswerByteParityAndRoundTrip) {
  const int bits = GetParam();
  DeterministicRng rng(1000 + static_cast<uint64_t>(bits));
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  const PaillierCrtEncryptor crt(kp.pub, kp.priv);

  // Fixed (m, r) pairs, deterministic functions of the key: r starts
  // from n/7 cut to the randomness length.
  const BigInt n = kp.pub.n();
  const BigInt r_bound = TwoTo(kp.pub.randomness_bits());
  const std::vector<BigInt> plaintexts = {BigInt(0), BigInt(1),
                                          n - BigInt(1), n / BigInt(3)};
  BigInt r = (n / BigInt(7)) % r_bound;
  for (const BigInt& m : plaintexts) {
    ASSERT_TRUE(kp.pub.IsRandomness(r));
    // The factor itself must be h_s^r...
    EXPECT_EQ(crt.RandomnessFactor(r),
              kp.pub.randomness_base().PowMod(r, kp.pub.n_squared()));
    // ...and the assembled ciphertext must match bit for bit.
    const PaillierCiphertext pub_ct = kp.pub.EncryptWithRandomness(m, r);
    const PaillierCiphertext crt_ct = crt.EncryptWithRandomness(m, r);
    EXPECT_EQ(crt_ct.value, pub_ct.value);
    const std::vector<uint8_t> pub_bytes =
        pub_ct.value.ToBytesPadded(kp.pub.ciphertext_bytes());
    const std::vector<uint8_t> crt_bytes =
        crt_ct.value.ToBytesPadded(kp.pub.ciphertext_bytes());
    EXPECT_EQ(crt_bytes, pub_bytes);
    // Serialized form round-trips to the same ciphertext and plaintext.
    const PaillierCiphertext back{BigInt::FromBytes(crt_bytes)};
    EXPECT_EQ(back.value, pub_ct.value);
    EXPECT_EQ(kp.priv.Decrypt(back), m);
    r = r + BigInt(1);  // a different r for the next pair
  }
}

TEST_P(PaillierCrtParity, SampledFactorsMatchFullWidthPath) {
  const int bits = GetParam();
  DeterministicRng rng(2000 + static_cast<uint64_t>(bits));
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  const PaillierCrtEncryptor crt(kp.priv);
  // Both entry points consume the RNG identically (one r draw), so the
  // same seed must yield the same factor stream.
  DeterministicRng rng_pub(9);
  DeterministicRng rng_crt(9);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(crt.SampleRandomnessFactor(rng_crt),
              kp.pub.SampleRandomnessFactor(rng_pub));
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierCrtParity,
                         ::testing::Values(128, 256, 512, 1024));

TEST(PaillierCrt, EncryptionsDecryptAndStayProbabilistic) {
  const PaillierKeyPair kp = TestKeys();
  const PaillierCrtEncryptor crt(kp.priv);
  DeterministicRng rng(60);
  for (int64_t v : {int64_t{0}, int64_t{7}, int64_t{-7}, int64_t{1} << 40,
                    -(int64_t{1} << 40)}) {
    EXPECT_EQ(kp.priv.DecryptSigned(crt.EncryptSigned(v, rng)), v) << v;
  }
  const PaillierCiphertext a = crt.Encrypt(BigInt(5), rng);
  const PaillierCiphertext b = crt.Encrypt(BigInt(5), rng);
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(kp.priv.Decrypt(a), kp.priv.Decrypt(b));
}

TEST(PaillierCrt, InteroperatesWithHomomorphicOps) {
  const PaillierKeyPair kp = TestKeys();
  const PaillierCrtEncryptor crt(kp.priv);
  DeterministicRng rng(61);
  // Owner-encrypted and publicly-encrypted ciphertexts mix freely.
  const PaillierCiphertext sum = kp.pub.Add(crt.EncryptSigned(-200, rng),
                                            kp.pub.EncryptSigned(1200, rng));
  EXPECT_EQ(kp.priv.DecryptSigned(sum), 1000);
}

TEST(PaillierCrtDeath, MismatchedPublicKeyAborts) {
  const PaillierKeyPair a = TestKeys(128, 81);
  const PaillierKeyPair b = TestKeys(128, 82);
  EXPECT_DEATH((void)PaillierCrtEncryptor(a.pub, b.priv), "does not match");
}

TEST(PaillierCrtDeath, NonUnitRandomnessAborts) {
  const PaillierKeyPair kp = TestKeys();
  const PaillierCrtEncryptor crt(kp.priv);
  EXPECT_DEATH((void)crt.EncryptWithRandomness(BigInt(1), BigInt(0)),
               "randomness");
  // One bit longer than the randomness length: the table has no entry
  // for its top digit.
  EXPECT_DEATH((void)crt.EncryptWithRandomness(
                   BigInt(1), TwoTo(kp.pub.randomness_bits())),
               "randomness");
}

// --- short-randomness encryption (Damgard-Jurik-Nielsen) -------------
//
// Enc(m) = (1+n)^m * h_s^r with r of l bits and h_s derived from n by
// hashing.  The fixed-base table must agree with a plain h_s^r, every
// copy of a key must derive the same h_s, and the lazy table must come
// out the same however many threads race to build it.

TEST(PaillierDjn, RandomnessLengthFollowsTheKeySize) {
  // The table is never built here: n = 101 is no Paillier modulus,
  // and the length is a function of key_bits alone.
  EXPECT_EQ(PaillierPublicKey(BigInt(101), 1024).randomness_bits(), 320);
  EXPECT_EQ(PaillierPublicKey(BigInt(101), 2046).randomness_bits(), 320);
  EXPECT_EQ(PaillierPublicKey(BigInt(101), 2048).randomness_bits(), 448);
  EXPECT_EQ(PaillierPublicKey(BigInt(101), 3072).randomness_bits(), 512);
}

TEST(PaillierDjn, TableFactorEqualsPowModAtEveryKeySize) {
  for (int bits : {128, 256, 512, 1024, 2048}) {
    DeterministicRng rng(3000 + static_cast<uint64_t>(bits));
    const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
    const int l = kp.pub.randomness_bits();
    const BigInt& h_s = kp.pub.randomness_base();
    const BigInt& n2 = kp.pub.n_squared();
    const std::vector<BigInt> rs = {BigInt(1), BigInt(15), BigInt(16),
                                    TwoTo(l) - BigInt(1),
                                    kp.pub.SampleRandomness(rng)};
    for (const BigInt& r : rs) {
      EXPECT_EQ(kp.pub.RandomnessFactor(r), h_s.PowMod(r, n2))
          << bits << " bits, r = " << r.ToHexString();
    }
    // h_s is an n-th residue, so it encrypts zero.
    EXPECT_TRUE(kp.priv.Decrypt(PaillierCiphertext{h_s}).IsZero()) << bits;
  }
}

TEST(PaillierDjn, SampledRandomnessIsShortAndNonzero) {
  const PaillierKeyPair kp = TestKeys();
  const int l = kp.pub.randomness_bits();
  DeterministicRng rng(3100);
  size_t longest = 0;
  for (int i = 0; i < 64; ++i) {
    const BigInt r = kp.pub.SampleRandomness(rng);
    EXPECT_TRUE(kp.pub.IsRandomness(r));
    longest = std::max(longest, r.BitLength());
  }
  EXPECT_GT(longest, static_cast<size_t>(l - 8));  // uniform, not small
  EXPECT_FALSE(kp.pub.IsRandomness(BigInt(0)));
  EXPECT_FALSE(kp.pub.IsRandomness(BigInt(-1)));
  EXPECT_TRUE(kp.pub.IsRandomness(TwoTo(l) - BigInt(1)));
  EXPECT_FALSE(kp.pub.IsRandomness(TwoTo(l)));
}

TEST(PaillierDjn, DeserializedCopiesEncryptIdentically) {
  // Nothing but key_bits || n goes on the wire, so two peers that each
  // parse the announcement must derive the owner's h_s on their own.
  const PaillierKeyPair kp = TestKeys(512, 3200);
  const std::vector<uint8_t> wire = kp.pub.Serialize();
  const Result<PaillierPublicKey> a = PaillierPublicKey::Deserialize(wire);
  const Result<PaillierPublicKey> b = PaillierPublicKey::Deserialize(wire);
  ASSERT_TRUE(a.ok() && b.ok());
  DeterministicRng rng(3201);
  for (int64_t v : {int64_t{0}, int64_t{-7}, int64_t{1} << 40}) {
    const BigInt m = kp.pub.EncodeSigned(v);
    const BigInt r = kp.pub.SampleRandomness(rng);
    const PaillierCiphertext ct_a = a.value().EncryptWithRandomness(m, r);
    EXPECT_EQ(ct_a, b.value().EncryptWithRandomness(m, r)) << v;
    EXPECT_EQ(ct_a, kp.pub.EncryptWithRandomness(m, r)) << v;
    EXPECT_EQ(kp.priv.DecryptSigned(ct_a), v);
  }
}

TEST(PaillierDjn, ConcurrentFirstUseBuildsOneTable) {
  // A fresh copy whose table nobody has built: four workers race to
  // use it first.  Every worker must see the same complete table.
  const PaillierKeyPair kp = TestKeys(512, 3300);
  const Result<PaillierPublicKey> fresh =
      PaillierPublicKey::Deserialize(kp.pub.Serialize());
  ASSERT_TRUE(fresh.ok());
  const PaillierPublicKey& pk = fresh.value();
  DeterministicRng rng(3301);
  std::vector<BigInt> rs;
  for (int i = 0; i < 8; ++i) rs.push_back(pk.SampleRandomness(rng));
  std::vector<std::vector<BigInt>> seen(4);
  ParallelFor(0, seen.size(), 4, [&](size_t w) {
    for (const BigInt& r : rs) seen[w].push_back(pk.RandomnessFactor(r));
  });
  for (size_t w = 1; w < seen.size(); ++w) EXPECT_EQ(seen[w], seen[0]) << w;
  for (size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(seen[0][i],
              kp.pub.randomness_base().PowMod(rs[i], pk.n_squared()));
  }
}

TEST(PaillierDjn, PinnedCiphertextKnownAnswer) {
  // SHA-256 over the padded bytes of eight ciphertexts under a seeded
  // 1024-bit key.  The walls above compare one path with another; this
  // row pins the scheme itself: the hash-to-base derivation, the
  // randomness length and draw, and the factor.
  DeterministicRng key_rng(2021);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(1024, key_rng);
  DeterministicRng rng(2022);
  std::vector<uint8_t> bytes;
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{1} << 40, -(int64_t{1} << 40), int64_t{123456789},
                    std::numeric_limits<int64_t>::min()}) {
    const PaillierCiphertext ct = kp.pub.EncryptSigned(v, rng);
    ASSERT_EQ(kp.priv.DecryptSigned(ct), v);
    const std::vector<uint8_t> b =
        ct.value.ToBytesPadded(kp.pub.ciphertext_bytes());
    bytes.insert(bytes.end(), b.begin(), b.end());
  }
  EXPECT_EQ(Sha256(bytes).Hex(),
            "00bbc3dbd29883a700070607017d88243e6c9f04635a2a2d2adc346402443d57");
}

// --- refill determinism -----------------------------------------------
//
// The concurrent-refill invariant: the pooled factor sequence — and so
// every transcript downstream of the pool — is identical whatever the
// worker count, and whether or not an owner's encryptor is attached.

std::vector<BigInt> DrainFactors(PaillierRandomnessPool& pool) {
  std::vector<BigInt> out;
  while (std::optional<BigInt> f = pool.TakeFactor()) {
    out.push_back(std::move(*f));
  }
  return out;
}

TEST(PaillierPool, RefillThreadCountInvariant) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng serial_rng(90);
  PaillierRandomnessPool serial_pool(kp.pub);
  serial_pool.Refill(24, serial_rng);
  const std::vector<BigInt> expected = DrainFactors(serial_pool);
  ASSERT_EQ(expected.size(), 24u);
  for (unsigned threads : {1u, 2u, 8u}) {
    DeterministicRng rng(90);
    PaillierRandomnessPool pool(kp.pub);
    pool.Refill(24, rng, threads);
    EXPECT_EQ(DrainFactors(pool), expected) << threads << " threads";
  }
}

TEST(PaillierPool, CrtRefillProducesIdenticalFactors) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng full_rng(91);
  PaillierRandomnessPool full_pool(kp.pub);
  full_pool.Refill(12, full_rng);

  DeterministicRng crt_rng(91);
  PaillierRandomnessPool crt_pool(kp.pub);
  crt_pool.AttachCrtEncryptor(PaillierCrtEncryptor(kp.priv));
  crt_pool.Refill(12, crt_rng, /*threads=*/4);

  EXPECT_EQ(DrainFactors(crt_pool), DrainFactors(full_pool));
}

TEST(PaillierPool, IncrementalRefillKeepsEarlierFactors) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(92);
  PaillierRandomnessPool pool(kp.pub);
  pool.Refill(4, rng, 2);
  EXPECT_EQ(pool.available(), 4u);
  pool.Refill(10, rng, 2);  // tops up, never recomputes
  EXPECT_EQ(pool.available(), 10u);
  // The first refill's factors must survive verbatim — a same-seed pool
  // stopped at 4 pins down their values.  DrainFactors pops from the
  // back, so the earliest-inserted factors are the drain's tail.
  DeterministicRng pinned_rng(92);
  PaillierRandomnessPool pinned(kp.pub);
  pinned.Refill(4, pinned_rng, 2);
  const std::vector<BigInt> first_four = DrainFactors(pinned);
  const std::vector<BigInt> all = DrainFactors(pool);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(std::vector<BigInt>(all.end() - 4, all.end()), first_four);
}

TEST(PaillierPoolRegistry, RefillAllThreadAndPolicyInvariant) {
  // Two pools so the sequential cross-pool draw order is exercised.
  const PaillierKeyPair a = TestKeys(128, 93);
  const PaillierKeyPair b = TestKeys(128, 94);

  const auto run = [&](auto refill) {
    PaillierPoolRegistry reg;
    (void)reg.PoolFor(a.pub);
    (void)reg.PoolFor(b.pub);
    reg.AttachOwner(a.priv);  // mixed: one owner-attached pool, one not
    DeterministicRng rng(95);
    refill(reg, rng);
    std::vector<BigInt> all = DrainFactors(reg.PoolFor(a.pub));
    std::vector<BigInt> bs = DrainFactors(reg.PoolFor(b.pub));
    all.insert(all.end(), bs.begin(), bs.end());
    return all;
  };

  const std::vector<BigInt> serial = run(
      [](PaillierPoolRegistry& reg, Rng& rng) { reg.RefillAll(8, rng); });
  ASSERT_EQ(serial.size(), 16u);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run([threads](PaillierPoolRegistry& reg, Rng& rng) {
                reg.RefillAll(8, rng, threads);
              }),
              serial)
        << threads << " threads";
  }
  // The ExecutionPolicy overload is the same computation.
  EXPECT_EQ(run([](PaillierPoolRegistry& reg, Rng& rng) {
              reg.RefillAll(8, rng, net::ExecutionPolicy::Parallel(8));
            }),
            serial);
}

TEST(PaillierPoolRegistry, AttachOwnerIsIdempotentAndCreatesPool) {
  const PaillierKeyPair kp = TestKeys(128, 96);
  PaillierPoolRegistry reg;
  reg.AttachOwner(kp.priv);  // creates the pool
  EXPECT_EQ(reg.pool_count(), 1u);
  EXPECT_EQ(reg.PoolFor(kp.pub).public_key(), kp.pub);
  reg.AttachOwner(kp.priv);  // no duplicate pool
  EXPECT_EQ(reg.pool_count(), 1u);
}

TEST(PaillierPoolDeath, MismatchedCrtEncryptorAborts) {
  const PaillierKeyPair a = TestKeys(128, 97);
  const PaillierKeyPair b = TestKeys(128, 98);
  PaillierRandomnessPool pool(a.pub);
  EXPECT_DEATH(pool.AttachCrtEncryptor(PaillierCrtEncryptor(b.priv)),
               "different modulus");
}

// --- signed-encoding edges --------------------------------------------

TEST(Paillier, SignedEncodingHalfRangeBoundary) {
  // EncodeSigned/DecodeSigned are pure modular-arithmetic maps, so a
  // tiny (cryptographically useless) modulus makes the ±n/2 boundary
  // reachable: n = 101, half = 50.
  const PaillierPublicKey pk(BigInt(101), 8);
  EXPECT_EQ(pk.EncodeSigned(50), BigInt(50));
  EXPECT_EQ(pk.DecodeSigned(BigInt(50)), 50);  // m == half is positive
  EXPECT_EQ(pk.EncodeSigned(-50), BigInt(51));
  EXPECT_EQ(pk.DecodeSigned(BigInt(51)), -50);  // m == half+1 wraps negative
  EXPECT_EQ(pk.EncodeSigned(-1), BigInt(100));
  EXPECT_EQ(pk.DecodeSigned(BigInt(100)), -1);
  for (int64_t v = -50; v <= 50; ++v) {
    EXPECT_EQ(pk.DecodeSigned(pk.EncodeSigned(v)), v) << v;
  }
}

TEST(Paillier, SignedEncodingInt64Extremes) {
  const PaillierKeyPair kp = TestKeys();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // Raw mapping round-trips (INT64_MIN's magnitude is not a valid
  // int64, so both directions need the unsigned-space handling).
  for (int64_t v : {kMax, kMax - 1, kMin, kMin + 1}) {
    EXPECT_EQ(kp.pub.DecodeSigned(kp.pub.EncodeSigned(v)), v) << v;
  }
  EXPECT_EQ(kp.pub.EncodeSigned(kMin), kp.pub.n() - (BigInt(kMax) + BigInt(1)));
  // And so does the full encrypt/decrypt pipeline, through both the
  // public key and the owner's encryptor.
  DeterministicRng rng(99);
  const PaillierCrtEncryptor crt(kp.priv);
  for (int64_t v : {kMax, kMin}) {
    EXPECT_EQ(kp.priv.DecryptSigned(kp.pub.EncryptSigned(v, rng)), v) << v;
    EXPECT_EQ(kp.priv.DecryptSigned(crt.EncryptSigned(v, rng)), v) << v;
  }
}

// --- dry-pool behavior ------------------------------------------------

TEST(PaillierPool, TakeFactorDrainsThenReportsDry) {
  const PaillierKeyPair kp = TestKeys();
  DeterministicRng rng(36);
  PaillierRandomnessPool pool(kp.pub);
  EXPECT_EQ(pool.TakeFactor(), std::nullopt);  // never refilled
  pool.Refill(2, rng);
  EXPECT_TRUE(pool.TakeFactor().has_value());
  EXPECT_TRUE(pool.TakeFactor().has_value());
  EXPECT_EQ(pool.TakeFactor(), std::nullopt);  // dry again
  EXPECT_EQ(pool.available(), 0u);
}

// The private key's constants come from closed forms that hold for
// g = n + 1 (see PaillierPrivateKey's constructor).  The generic
// formulas, each an exponentiation and an L, stay here as the oracle.
// The key is built from two drawn primes, so the oracle knows them.
class PaillierKeygenClosedForm : public ::testing::TestWithParam<int> {};

TEST_P(PaillierKeygenClosedForm, MatchesGenericFormula) {
  const int bits = GetParam();
  DeterministicRng rng(3500 + static_cast<uint64_t>(bits));
  const BigInt p = BigInt::RandomPrime(bits / 2, rng);
  const BigInt q = BigInt::RandomPrime(bits / 2, rng);
  ASSERT_NE(p, q);
  const PaillierPublicKey pub(p * q, bits);
  ASSERT_EQ(pub.n().BitLength(), static_cast<size_t>(bits));
  const PaillierKeyPair kp{pub, PaillierPrivateKey(pub, p, q)};
  const BigInt n = kp.pub.n();
  const BigInt n2 = kp.pub.n_squared();
  const BigInt g = n + BigInt(1);
  const auto L = [](const BigInt& x, const BigInt& d) {
    return (x - BigInt(1)) / d;
  };

  const BigInt lambda = (p - BigInt(1)).Lcm(q - BigInt(1));
  const BigInt mu = L(g.PowMod(lambda, n2), n).InvMod(n);
  const BigInt p2 = p * p;
  const BigInt q2 = q * q;
  const BigInt hp = L((g % p2).PowMod(p - BigInt(1), p2), p).InvMod(p);
  const BigInt hq = L((g % q2).PowMod(q - BigInt(1), q2), q).InvMod(q);

  const PaillierPrivateKey::Constants& k = kp.priv.constants();
  EXPECT_EQ(k.lambda, lambda);
  EXPECT_EQ(k.mu, mu);
  EXPECT_EQ(k.hp, hp);
  EXPECT_EQ(k.hq, hq);
  // Both decryption paths still invert encryption under them.
  PaillierPrivateKey plain = kp.priv;
  plain.set_use_crt(false);
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-7}, int64_t{1} << 40}) {
    const PaillierCiphertext c = kp.pub.EncryptSigned(v, rng);
    EXPECT_EQ(kp.priv.DecryptSigned(c), v);
    EXPECT_EQ(plain.DecryptSigned(c), v);
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierKeygenClosedForm,
                         ::testing::Values(512, 1024, 2048));

}  // namespace
}  // namespace pem::crypto
