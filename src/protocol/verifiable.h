// Verifiable ring contributions — the §VI malicious-model extension.
//
// In the semi-honest protocols an agent could silently contribute a
// ciphertext of the wrong value.  Here each agent also publishes a
// commitment to (blinded contribution, encryption randomness); a
// randomly selected auditor (random selection is the paper's
// collusion-resistance lever) may later demand the opening, re-encrypt
// deterministically, and compare against the ciphertext that actually
// entered the aggregation.
//
// Privacy is preserved by auditing the *blinded* contribution
// (value + nonce, as in Protocol 2): the opening reveals nothing about
// the raw net energy as long as the window nonce stays secret.
#pragma once

#include "crypto/commitment.h"
#include "crypto/paillier.h"

namespace pem::protocol {

// What the contributor publishes alongside its ciphertext.
struct VerifiableContribution {
  crypto::PaillierCiphertext ciphertext;
  crypto::Commitment commitment;
};

// What the contributor keeps, and hands to the auditor on demand.
// `domain` binds the commitment to one (window, agent) slot: a witness
// whose commitment only opens under an old window's domain is a REPLAY,
// distinguishable from a value lie — the audit round builds domains via
// AuditDomain below.
struct ContributionWitness {
  int64_t blinded_value = 0;
  uint64_t domain = 0;
  crypto::BigInt encryption_randomness;
  std::array<uint8_t, 32> blinder{};
};

// Canonical domain tag for one agent's contribution in one window.
constexpr uint64_t AuditDomain(int window, int agent) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(window)) << 32) |
         static_cast<uint32_t>(agent);
}

// Encrypts `blinded_value` with fresh (retained) randomness and
// commits to (domain, value, randomness).
struct VerifiableResult {
  VerifiableContribution contribution;
  ContributionWitness witness;
};
VerifiableResult MakeVerifiableContribution(
    const crypto::PaillierPublicKey& pk, int64_t blinded_value,
    crypto::Rng& rng, uint64_t domain = 0);

// The commitment to (domain, value, randomness) under the witness's
// blinder: what MakeVerifiableContribution publishes.
crypto::Commitment CommitWitness(const ContributionWitness& witness);

// The auditor's check: the witness opens the commitment AND
// re-encrypting with the witness randomness reproduces the ciphertext.
bool VerifyContribution(const crypto::PaillierPublicKey& pk,
                        const VerifiableContribution& contribution,
                        const ContributionWitness& witness);

// Graded verdict for the audit round: WHICH check failed names the
// cheat class.  Checked in order — a witness for the wrong domain that
// is otherwise self-consistent is a replay; one whose opening fails is
// a commitment/ciphertext mismatch; one that opens but re-encrypts to
// a different ciphertext entered the ring mis-encrypted.
enum class ContributionVerdict {
  kHonest,
  kReplayedDomain,      // opens, re-encrypts, but under a stale domain
  kCommitmentMismatch,  // the witness does not open the commitment
  kMisEncrypted,        // opens, but re-encryption != ring ciphertext
};
ContributionVerdict JudgeContribution(
    const crypto::PaillierPublicKey& pk,
    const VerifiableContribution& contribution,
    const ContributionWitness& witness, uint64_t expected_domain);

}  // namespace pem::protocol
