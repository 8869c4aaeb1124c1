#include "protocol/verifiable.h"

#include <cstring>

namespace pem::protocol {
namespace {

// Commitment preimage: domain || blinded value || randomness bytes.
// The domain rides in the preimage (not alongside it) so a replayed
// witness cannot be re-bound to the current window without breaking
// the opening.  domain == 0 reproduces the legacy preimage layout
// prefixed with eight zero bytes, which is fine: the commitment is
// opaque either way.
std::vector<uint8_t> WitnessBytes(uint64_t domain, int64_t blinded_value,
                                  const crypto::BigInt& randomness) {
  std::vector<uint8_t> out(16);
  std::memcpy(out.data(), &domain, 8);
  std::memcpy(out.data() + 8, &blinded_value, 8);
  const std::vector<uint8_t> r = randomness.ToBytes();
  out.insert(out.end(), r.begin(), r.end());
  return out;
}

}  // namespace

crypto::Commitment CommitWitness(const ContributionWitness& witness) {
  return crypto::Commit(WitnessBytes(witness.domain, witness.blinded_value,
                                     witness.encryption_randomness),
                        witness.blinder);
}

VerifiableResult MakeVerifiableContribution(
    const crypto::PaillierPublicKey& pk, int64_t blinded_value,
    crypto::Rng& rng, uint64_t domain) {
  // Sample the encryption randomness explicitly so it can be retained.
  const crypto::BigInt r = pk.SampleRandomness(rng);

  VerifiableResult result;
  result.witness.blinded_value = blinded_value;
  result.witness.domain = domain;
  result.witness.encryption_randomness = r;
  rng.Fill(result.witness.blinder);

  result.contribution.ciphertext =
      pk.EncryptWithRandomness(pk.EncodeSigned(blinded_value), r);
  result.contribution.commitment = CommitWitness(result.witness);
  return result;
}

namespace {

bool OpensCommitment(const VerifiableContribution& contribution,
                     const ContributionWitness& witness) {
  crypto::CommitmentOpening opening;
  opening.value = WitnessBytes(witness.domain, witness.blinded_value,
                               witness.encryption_randomness);
  opening.blinder = witness.blinder;
  return crypto::VerifyOpening(contribution.commitment, opening);
}

bool ReEncryptsToCiphertext(const crypto::PaillierPublicKey& pk,
                            const VerifiableContribution& contribution,
                            const ContributionWitness& witness) {
  if (!pk.IsRandomness(witness.encryption_randomness)) return false;
  const crypto::PaillierCiphertext expected = pk.EncryptWithRandomness(
      pk.EncodeSigned(witness.blinded_value), witness.encryption_randomness);
  return expected.value == contribution.ciphertext.value;
}

}  // namespace

bool VerifyContribution(const crypto::PaillierPublicKey& pk,
                        const VerifiableContribution& contribution,
                        const ContributionWitness& witness) {
  return OpensCommitment(contribution, witness) &&
         ReEncryptsToCiphertext(pk, contribution, witness);
}

ContributionVerdict JudgeContribution(
    const crypto::PaillierPublicKey& pk,
    const VerifiableContribution& contribution,
    const ContributionWitness& witness, uint64_t expected_domain) {
  if (!OpensCommitment(contribution, witness)) {
    return ContributionVerdict::kCommitmentMismatch;
  }
  if (!ReEncryptsToCiphertext(pk, contribution, witness)) {
    return ContributionVerdict::kMisEncrypted;
  }
  // Self-consistent but bound to another (window, agent) slot: a
  // replayed contribution from an earlier window.
  if (witness.domain != expected_domain) {
    return ContributionVerdict::kReplayedDomain;
  }
  return ContributionVerdict::kHonest;
}

}  // namespace pem::protocol
