// Protocol-level fault taxonomy: the cheat classes an active adversary
// can attempt inside a window, and the structured fault that names the
// cheater when the audit machinery catches one.
//
// The transport layer already latches net::TransportFault for crashed
// peers and severed wires; this is its protocol-layer twin for agents
// that stay alive but DEVIATE — a mis-encrypted ring contribution, a
// commitment that does not open, a replayed contribution from an old
// window, a byte count that disagrees with the TrafficLedger, a key
// equivocation.  A detected cheat either ends the window with a
// ProtocolError naming the cheater (equivocation, forged reports) or —
// the audit path — excludes the cheater and lets the honest survivors
// complete the window, with the fault carried in the window result.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "util/error.h"

namespace pem::protocol {

// Every way an agent can actively deviate that this repo detects.
enum class CheatClass : uint8_t {
  kNone = 0,
  // The ciphertext entering the ring does not encrypt the committed
  // blinded value under the committed randomness.
  kMisEncryptedContribution = 1,
  // The witness does not open the published commitment.
  kCommitmentMismatch = 2,
  // A stale contribution replayed from an earlier window (wrong audit
  // domain), or a frame replayed/injected at the transport layer.
  kReplayedFrame = 3,
  // The byte count an agent attests disagrees with the TrafficLedger.
  kForgedByteCount = 4,
  // Two different public keys announced for the same epoch.
  kKeyEquivocation = 5,
  // A child's window report diverges from the canonical ledger or from
  // its peers (parent-side RunForkedWindow cross-check).
  kForgedReport = 6,
  // A child's report echoes a window other than the one the parent
  // commanded — a replayed/stale report, which the window-id echo in
  // each report's WindowRecord exists to reject.
  kStaleReport = 7,
};

inline const char* CheatClassName(CheatClass c) {
  switch (c) {
    case CheatClass::kNone: return "none";
    case CheatClass::kMisEncryptedContribution:
      return "mis_encrypted_contribution";
    case CheatClass::kCommitmentMismatch: return "commitment_mismatch";
    case CheatClass::kReplayedFrame: return "replayed_frame";
    case CheatClass::kForgedByteCount: return "forged_byte_count";
    case CheatClass::kKeyEquivocation: return "key_equivocation";
    case CheatClass::kForgedReport: return "forged_report";
    case CheatClass::kStaleReport: return "stale_report";
  }
  return "unknown";
}

// A detected deviation, naming the cheater.  `detail` is built from
// deterministic inputs only, so every independent process derives the
// identical fault (RunForkedWindow compares them bit for bit).
struct ProtocolFault {
  net::AgentId cheater = -1;
  CheatClass cheat = CheatClass::kNone;
  int window = -1;
  std::string detail;
};

// Thrown when a cheat cannot be survived by exclusion (the equivocated
// key is already woven into the window, a child's report is forged) —
// the protocol-layer analogue of net::TransportError.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(ProtocolFault fault)
      : std::runtime_error(std::string("protocol_violation: agent ") +
                           std::to_string(fault.cheater) + " [" +
                           CheatClassName(fault.cheat) +
                           "]: " + fault.detail),
        fault_(std::move(fault)) {}

  const ProtocolFault& fault() const { return fault_; }

 private:
  ProtocolFault fault_;
};

// The adversarial twin of AgentSupervisor::SeverWireForTest: a scripted
// misbehavior one agent executes at one window.  It lives inside
// PemConfig so a forked backend copies it into EVERY child — each
// child's deterministic shadow script then includes the cheater's real
// perturbed bytes, and every independent process derives the identical
// verdict.  Defaults to "nobody cheats", which is byte-for-byte the
// honest protocol.
struct CheatPlan {
  net::AgentId cheater = -1;
  CheatClass cheat = CheatClass::kNone;
  int window = -1;  // fire at exactly this window; -1 = never

  bool ActiveFor(net::AgentId agent, int window_now) const {
    return cheat != CheatClass::kNone && agent == cheater &&
           window_now == window;
  }
};

// §VI active-cheater auditing: each window a seeded coin flip decides
// whether an audit round runs; a deterministic draw (or the pinned
// test knob) selects the auditor, every market participant publishes a
// verifiable contribution, and the auditor demands witness openings.
// The audit draws all of its randomness from side streams keyed by
// (seed, window[, agent]) — never from the protocol RNG — so honest
// agents' wire bytes are identical whether or not a cheater is present.
struct AuditPolicy {
  bool enabled = false;
  uint64_t seed = 0x5045'4155'4449'5421ULL;  // "PEAUDIT!"
  // Audit roughly one window in `audit_one_in` (1 = every window).
  uint32_t audit_one_in = 1;
  // Test knob: pin the auditor instead of drawing it, so byte-identity
  // comparisons across rosters keep the same auditor.  -1 = draw.
  net::AgentId fixed_auditor = -1;
};

}  // namespace pem::protocol
