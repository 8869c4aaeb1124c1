#include "protocol/verifiable.h"

#include <gtest/gtest.h>

namespace pem::protocol {
namespace {

crypto::PaillierKeyPair TestKeys() {
  crypto::DeterministicRng rng(1);
  return crypto::GeneratePaillierKeyPair(256, rng);
}

// The audit's verdict on `r` under the domain its own witness names.
bool IsHonest(const crypto::PaillierPublicKey& pk, const VerifiableResult& r) {
  return JudgeContribution(pk, r.contribution, r.witness, r.witness.domain) ==
         ContributionVerdict::kHonest;
}

TEST(Verifiable, HonestContributionVerifies) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(2);
  const VerifiableResult r =
      MakeVerifiableContribution(kp.pub, 123456, rng);
  EXPECT_TRUE(IsHonest(kp.pub, r));
  // The ciphertext really encrypts the blinded value.
  EXPECT_EQ(kp.priv.DecryptSigned(r.contribution.ciphertext), 123456);
}

TEST(Verifiable, NegativeBlindedValueSupported) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(3);
  const VerifiableResult r = MakeVerifiableContribution(kp.pub, -42, rng);
  EXPECT_TRUE(IsHonest(kp.pub, r));
}

TEST(Verifiable, LyingAboutValueIsDetected) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(4);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 1000, rng);
  r.witness.blinded_value = 2000;  // claim a different input post hoc
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, SwappedCiphertextIsDetected) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(5);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 1000, rng);
  // Substitute a ciphertext of the right value but wrong randomness
  // (i.e., not the one committed to).
  r.contribution.ciphertext = kp.pub.EncryptSigned(1000, rng);
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, WrongRandomnessWitnessIsDetected) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(6);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 77, rng);
  r.witness.encryption_randomness =
      r.witness.encryption_randomness + crypto::BigInt(1);
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, TamperedBlinderIsDetected) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(7);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 77, rng);
  r.witness.blinder[0] ^= 1;
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, ZeroRandomnessWitnessRejectedSafely) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(8);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 5, rng);
  r.witness.encryption_randomness = crypto::BigInt(0);
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, OversizedRandomnessWitnessIsMisEncryptedNotAnAbort) {
  // A contributor commits to an r one bit longer than the key's
  // randomness length.  The commitment opens, and re-encryption must
  // refuse the r as a verdict: it may not reach the fixed-base table,
  // which aborts on it.
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(16);
  const uint64_t domain = AuditDomain(5, 2);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 321, rng, domain);
  crypto::BigInt oversized = r.witness.encryption_randomness;
  mpz_setbit(oversized.raw(),
             static_cast<mp_bitcnt_t>(kp.pub.randomness_bits()));
  ASSERT_EQ(oversized.BitLength(),
            static_cast<size_t>(kp.pub.randomness_bits()) + 1);
  r.witness.encryption_randomness = oversized;
  r.contribution.commitment = CommitWitness(r.witness);
  EXPECT_EQ(JudgeContribution(kp.pub, r.contribution, r.witness, domain),
            ContributionVerdict::kMisEncrypted);
  EXPECT_FALSE(IsHonest(kp.pub, r));
}

TEST(Verifiable, AuditedValueIsBlindedNotRaw) {
  // The audit reveals value + nonce, never the raw net energy: with a
  // fresh uniform nonce the opened value is itself uniform.  Here we
  // just document the intended usage pattern end to end.
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(9);
  const int64_t net_energy = -1'500'000;           // secret
  const int64_t nonce = 987'654'321;               // secret, per window
  const int64_t blinded = -net_energy + nonce;     // what Protocol 2 sends
  const VerifiableResult r =
      MakeVerifiableContribution(kp.pub, blinded, rng);
  ASSERT_TRUE(IsHonest(kp.pub, r));
  EXPECT_EQ(r.witness.blinded_value, blinded);
  EXPECT_NE(r.witness.blinded_value, -net_energy);
}

TEST(Verifiable, DistinctContributionsDistinctCommitments) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(10);
  const VerifiableResult a = MakeVerifiableContribution(kp.pub, 5, rng);
  const VerifiableResult b = MakeVerifiableContribution(kp.pub, 5, rng);
  EXPECT_NE(a.contribution.commitment, b.contribution.commitment);
  EXPECT_NE(a.contribution.ciphertext.value, b.contribution.ciphertext.value);
}

// --- audit-domain binding and verdict classification ------------------

TEST(Verifiable, AuditDomainBindsWindowAndAgent) {
  EXPECT_NE(AuditDomain(3, 1), AuditDomain(3, 2));
  EXPECT_NE(AuditDomain(3, 1), AuditDomain(4, 1));
  EXPECT_EQ(AuditDomain(3, 1), AuditDomain(3, 1));
}

TEST(Verifiable, JudgeAcceptsHonestContribution) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(11);
  const uint64_t domain = AuditDomain(5, 2);
  const VerifiableResult r =
      MakeVerifiableContribution(kp.pub, 321, rng, domain);
  EXPECT_EQ(JudgeContribution(kp.pub, r.contribution, r.witness, domain),
            ContributionVerdict::kHonest);
}

TEST(Verifiable, JudgeNamesReplayedDomain) {
  // A self-consistent contribution replayed from window 4 fails only
  // the domain binding when window 5's audit expects its own domain.
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(12);
  const VerifiableResult stale =
      MakeVerifiableContribution(kp.pub, 321, rng, AuditDomain(4, 2));
  EXPECT_EQ(JudgeContribution(kp.pub, stale.contribution, stale.witness,
                              AuditDomain(5, 2)),
            ContributionVerdict::kReplayedDomain);
}

TEST(Verifiable, JudgeNamesCommitmentMismatch) {
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(13);
  const uint64_t domain = AuditDomain(5, 2);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 321, rng, domain);
  r.contribution.commitment.digest.bytes[0] ^= 0x01;
  EXPECT_EQ(JudgeContribution(kp.pub, r.contribution, r.witness, domain),
            ContributionVerdict::kCommitmentMismatch);
}

TEST(Verifiable, JudgeNamesMisEncryption) {
  // Ciphertext encrypts value+1 under the committed randomness: the
  // opening succeeds, the re-encryption check convicts.
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(14);
  const uint64_t domain = AuditDomain(5, 2);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 321, rng, domain);
  r.contribution.ciphertext = kp.pub.EncryptWithRandomness(
      kp.pub.EncodeSigned(322), r.witness.encryption_randomness);
  EXPECT_EQ(JudgeContribution(kp.pub, r.contribution, r.witness, domain),
            ContributionVerdict::kMisEncrypted);
}

TEST(Verifiable, JudgeChecksCommitmentBeforeEncryption) {
  // Both the commitment and the ciphertext are bad: the verdict names
  // the commitment — fixed check order keeps every replica's fault
  // detail identical.
  const crypto::PaillierKeyPair kp = TestKeys();
  crypto::DeterministicRng rng(15);
  const uint64_t domain = AuditDomain(5, 2);
  VerifiableResult r = MakeVerifiableContribution(kp.pub, 321, rng, domain);
  r.contribution.commitment.digest.bytes[0] ^= 0x01;
  r.contribution.ciphertext = kp.pub.EncryptWithRandomness(
      kp.pub.EncodeSigned(322), r.witness.encryption_randomness);
  EXPECT_EQ(JudgeContribution(kp.pub, r.contribution, r.witness, domain),
            ContributionVerdict::kCommitmentMismatch);
}

}  // namespace
}  // namespace pem::protocol
