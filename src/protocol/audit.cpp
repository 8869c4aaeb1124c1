#include "protocol/audit.h"

#include <string>

#include "net/frame.h"
#include "protocol/key_directory.h"
#include "protocol/verifiable.h"
#include "util/error.h"

namespace pem::protocol {
namespace {

// SplitMix64 finalizer: derives independent deterministic side streams
// from (seed, window[, agent]).
uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t x = a + 0x9e37'79b9'7f4a'7c15ULL * (b + 0x632b'e59b'd9b4'e019ULL);
  x ^= x >> 30;
  x *= 0xbf58'476d'1ce4'e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d0'49bb'1331'11ebULL;
  x ^= x >> 31;
  return x;
}

// The audit side streams derive from (policy.seed, window[, agent])
// through MixSeed.  These streams are independent of the protocol RNG
// by construction, so running (or skipping) an audit draw never shifts
// an honest agent's randomness schedule.
uint64_t AgentStreamSeed(uint64_t seed, int window, net::AgentId agent) {
  return MixSeed(
      MixSeed(seed, static_cast<uint64_t>(static_cast<int64_t>(window))),
      static_cast<uint64_t>(static_cast<int64_t>(agent)));
}

// The audited quantity: the nonce-blinded net energy, the same blinding
// Protocol 2 applies to ring contributions.  The opening reveals
// value + nonce only, so the audit costs no privacy while the nonce
// stays secret.
int64_t BlindedContribution(const Party& p) { return p.net_raw() + p.nonce(); }

// Builds one participant's (possibly cheating) contribution.  Honest
// bytes depend only on (policy.seed, window, agent, blinded value), so
// a cheater elsewhere in the roster cannot perturb them.
VerifiableResult BuildContribution(const ProtocolContext& ctx,
                                   const crypto::PaillierPublicKey& pk,
                                   const Party& p) {
  const AuditPolicy& policy = ctx.config.audit;
  const CheatPlan& plan = ctx.config.cheat;
  const bool cheating = plan.ActiveFor(p.id(), ctx.window);
  const int64_t blinded = BlindedContribution(p);

  if (cheating && plan.cheat == CheatClass::kReplayedFrame) {
    // Replay: re-publish the previous window's contribution verbatim —
    // stale domain, stale randomness stream.  Self-consistent, so only
    // the domain binding can catch it.
    crypto::DeterministicRng stale(
        AgentStreamSeed(policy.seed, ctx.window - 1, p.id()));
    return MakeVerifiableContribution(pk, blinded, stale,
                                      AuditDomain(ctx.window - 1, p.id()));
  }

  crypto::DeterministicRng rng(
      AgentStreamSeed(policy.seed, ctx.window, p.id()));
  VerifiableResult vr = MakeVerifiableContribution(
      pk, blinded, rng, AuditDomain(ctx.window, p.id()));
  if (cheating && plan.cheat == CheatClass::kMisEncryptedContribution) {
    // The ciphertext entering the ring encrypts value+1 under the
    // committed randomness; commitment and witness stay honest.
    vr.contribution.ciphertext = pk.EncryptWithRandomness(
        pk.EncodeSigned(blinded + 1), vr.witness.encryption_randomness);
  }
  if (cheating && plan.cheat == CheatClass::kCommitmentMismatch) {
    // Publish a commitment the witness cannot open.
    vr.contribution.commitment.digest.bytes[0] ^= 0x01;
  }
  return vr;
}

}  // namespace

AuditOutcome RunAuditRound(ProtocolContext& ctx, std::span<Party> parties) {
  const AuditPolicy& policy = ctx.config.audit;
  AuditOutcome outcome;
  if (!policy.enabled) return outcome;

  // Active market participants only: off-market (and churned-out)
  // parties neither contribute to rings nor get audited.
  std::vector<size_t> participants;
  for (size_t i = 0; i < parties.size(); ++i) {
    if (parties[i].active() && parties[i].role() != grid::Role::kOffMarket) {
      participants.push_back(i);
    }
  }
  if (participants.size() < 2) return outcome;

  // Window coin flip + auditor draw, from the window side stream.
  crypto::DeterministicRng side(
      MixSeed(policy.seed, static_cast<uint64_t>(
                               static_cast<int64_t>(ctx.window))));
  if (policy.audit_one_in > 1) {
    const int64_t draw =
        crypto::BigInt::RandomBelow(
            crypto::BigInt(static_cast<int64_t>(policy.audit_one_in)), side)
            .ToInt64();
    if (draw != 0) return outcome;
  }
  size_t auditor_idx = participants.front();
  bool pinned = false;
  if (policy.fixed_auditor >= 0) {
    for (size_t i : participants) {
      if (parties[i].id() == policy.fixed_auditor) {
        auditor_idx = i;
        pinned = true;
        break;
      }
    }
  }
  if (!pinned) auditor_idx = PickRandomIndex(participants, side);

  Party& auditor = parties[auditor_idx];
  outcome.audited = true;
  outcome.auditor = auditor.id();

  // The auditor announces the key contributions encrypt under.  (May
  // throw ProtocolError if the announcer equivocates — that cheat is
  // woven into the key material and cannot be survived by exclusion.)
  AnnounceKey(ctx, auditor);
  const crypto::PaillierPublicKey& pk = auditor.public_key();

  // Round 1: every audited participant publishes ciphertext +
  // commitment (agent order — the deterministic script order every
  // backend replays).
  struct Slot {
    net::AgentId agent = -1;
    VerifiableContribution published;
    ContributionWitness witness;  // retained contributor-side
  };
  std::vector<Slot> slots;
  for (size_t i : participants) {
    if (i == auditor_idx) continue;
    Party& p = parties[i];
    Slot slot;
    slot.agent = p.id();
    VerifiableResult vr = BuildContribution(ctx, pk, p);
    slot.witness = vr.witness;

    net::ByteWriter w;
    WriteCiphertext(w, pk, vr.contribution.ciphertext);
    w.Bytes(vr.contribution.commitment.digest.bytes);
    ctx.ep(p.id()).Send(auditor.id(), kMsgAuditContribution, w.Take());

    net::Message m = ExpectMessage(ctx.ep(auditor.id()), kMsgAuditContribution);
    PEM_CHECK(m.from == p.id(), "audit: contribution from unexpected agent");
    net::ByteReader r(m.payload);
    slot.published.ciphertext = ReadCiphertext(r);
    const std::vector<uint8_t> digest = r.Bytes();
    PEM_CHECK(digest.size() == slot.published.commitment.digest.bytes.size(),
              "audit: malformed commitment digest");
    std::copy(digest.begin(), digest.end(),
              slot.published.commitment.digest.bytes.begin());
    slots.push_back(std::move(slot));
  }

  // Round 2: demand -> witness -> judgment, one agent at a time.  The
  // verdict for each agent is a pure function of published bytes, the
  // witness bytes, and the ledger, so every replaying process derives
  // the same fault list.
  std::vector<uint8_t> verdicts(static_cast<size_t>(ctx.num_agents()),
                                static_cast<uint8_t>(CheatClass::kNone));
  for (Slot& slot : slots) {
    const uint64_t expected_domain = AuditDomain(ctx.window, slot.agent);
    {
      net::ByteWriter w;
      w.U64(expected_domain);
      ctx.ep(auditor.id()).Send(slot.agent, kMsgAuditDemand, w.Take());
    }
    ExpectMessage(ctx.ep(slot.agent), kMsgAuditDemand);

    // The contributor attests its cumulative sent-byte count as of the
    // moment before this witness goes out; cheat class 4 forges it.
    uint64_t claimed = ctx.ep(slot.agent).stats().bytes_sent;
    if (ctx.config.cheat.ActiveFor(slot.agent, ctx.window) &&
        ctx.config.cheat.cheat == CheatClass::kForgedByteCount) {
      claimed += 7;
    }
    {
      net::ByteWriter w;
      w.U64(slot.witness.domain);
      w.I64(slot.witness.blinded_value);
      w.Bytes(slot.witness.encryption_randomness.ToBytes());
      w.Bytes(slot.witness.blinder);
      w.U64(claimed);
      ctx.ep(slot.agent).Send(auditor.id(), kMsgAuditWitness, w.Take());
    }

    net::Message m = ExpectMessage(ctx.ep(auditor.id()), kMsgAuditWitness);
    PEM_CHECK(m.from == slot.agent, "audit: witness from unexpected agent");
    net::ByteReader r(m.payload);
    ContributionWitness witness;
    witness.domain = r.U64();
    witness.blinded_value = r.I64();
    witness.encryption_randomness = crypto::BigInt::FromBytes(r.Bytes());
    const std::vector<uint8_t> blinder = r.Bytes();
    PEM_CHECK(blinder.size() == witness.blinder.size(),
              "audit: malformed witness blinder");
    std::copy(blinder.begin(), blinder.end(), witness.blinder.begin());
    const uint64_t attested = r.U64();
    PEM_CHECK(r.AtEnd(), "audit: trailing witness bytes");

    // Byte attestation first: the auditor holds the ledger's view of
    // the sender (every backend accounts FramedSize per delivered
    // copy), minus the witness frame that just arrived.
    const uint64_t ledger_sent = ctx.ep(slot.agent).stats().bytes_sent -
                                 net::FramedSize(m.payload.size());
    CheatClass cheat = CheatClass::kNone;
    std::string detail;
    if (attested != ledger_sent) {
      cheat = CheatClass::kForgedByteCount;
      detail = "attested bytes_sent " + std::to_string(attested) +
               " != ledger " + std::to_string(ledger_sent);
    } else {
      switch (JudgeContribution(pk, slot.published, witness,
                                expected_domain)) {
        case ContributionVerdict::kHonest:
          break;
        case ContributionVerdict::kReplayedDomain:
          cheat = CheatClass::kReplayedFrame;
          detail = "witness domain " + std::to_string(witness.domain) +
                   " != expected " + std::to_string(expected_domain);
          break;
        case ContributionVerdict::kCommitmentMismatch:
          cheat = CheatClass::kCommitmentMismatch;
          detail = "witness does not open the published commitment";
          break;
        case ContributionVerdict::kMisEncrypted:
          cheat = CheatClass::kMisEncryptedContribution;
          detail = "re-encryption does not reproduce the ring ciphertext";
          break;
      }
    }
    if (cheat != CheatClass::kNone) {
      verdicts[static_cast<size_t>(slot.agent)] = static_cast<uint8_t>(cheat);
      outcome.faults.push_back(
          ProtocolFault{slot.agent, cheat, ctx.window, std::move(detail)});
    }
  }

  // Round 3: fixed-size verdict broadcast (one byte per agent,
  // cheat-invariant size) so honest transcripts stay byte-identical in
  // shape; everyone applies the exclusions.
  ctx.ep(auditor.id()).Send(net::kBroadcast, kMsgAuditVerdict, verdicts);
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a == auditor.id()) continue;
    ExpectMessage(ctx.ep(a), kMsgAuditVerdict);
  }
  for (const ProtocolFault& f : outcome.faults) {
    for (Party& p : parties) {
      if (p.id() == f.cheater) p.Exclude();
    }
  }
  return outcome;
}

}  // namespace pem::protocol
