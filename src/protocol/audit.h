// §VI active-cheater audit round.
//
// At the top of a window (when PemConfig::audit enables it and the
// seeded coin flip selects the window), one market participant is
// chosen as auditor.  Every other participant publishes a verifiable
// contribution — a Paillier encryption of its blinded net energy under
// the auditor's key plus a commitment binding (window, agent, value,
// randomness) — and, on demand, opens the witness.  The auditor
// re-encrypts and compares, cross-checks the attested byte count
// against the traffic ledger, and broadcasts a per-agent verdict.  A
// guilty agent is excluded on the spot: the window re-forms its
// coalitions around the survivors and completes without the cheater.
//
// Determinism contract.  ALL audit randomness comes from side streams
// keyed by (policy.seed, window[, agent]) — never from the protocol
// RNG — and inactive parties keep consuming their BeginWindow draws.
// Consequence: an honest agent's wire bytes are identical whether or
// not anybody cheats, which is what the adversarial wall's
// byte-identity rows assert.  The cheat plan lives in PemConfig, so
// forked backends replay the same misbehavior in every child and each
// independent process derives the identical verdict.
#pragma once

#include <span>
#include <vector>

#include "protocol/context.h"
#include "protocol/fault.h"

namespace pem::protocol {

// What the audit round concluded; carried in the window's WindowRecord
// so every backend's reports can be cross-checked.
struct AuditOutcome {
  bool audited = false;      // did an audit round run this window?
  net::AgentId auditor = -1; // who audited (-1 when not audited)
  std::vector<ProtocolFault> faults;  // detected cheats, agent order
};

// Runs the audit round over the active market participants.  Excludes
// detected cheaters from `parties` (Party::Exclude) and returns the
// structured outcome.  No-op (audited == false) when auditing is
// disabled, the coin flip skips the window, or fewer than two
// participants are on the market.  Throws ProtocolError only for
// cheats that cannot be survived by exclusion (key equivocation inside
// the auditor's broadcast).
AuditOutcome RunAuditRound(ProtocolContext& ctx, std::span<Party> parties);

}  // namespace pem::protocol
