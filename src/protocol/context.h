// Shared protocol machinery: execution context, message tags, and the
// Paillier ring-aggregation pattern that Protocols 2-4 all build on.
//
// Execution model.  Every ring aggregation runs the flat ring of the
// paper in three phases:
//   1. prepare  (sequential)  — fix each member's encryption
//      randomness: a pooled h_s^r factor when a PaillierRandomnessPool
//      is attached and non-dry, otherwise a fresh r drawn from the
//      context RNG.  Every process fixes every member's, so each
//      share's opening (crypto::PaillierOpening) is known everywhere;
//   2. compute  (policy-driven) — encrypt the shares of the members
//      this process acts for (net::Transport::Acts: every member on
//      the in-process bus, its own agent in a forked child); with
//      ExecutionPolicy::threads > 1 the ciphertexts are computed by
//      pem::ParallelFor workers (util/parallel.h, the engine's one
//      compute fan-out), mirroring the paper's one-container-per-agent
//      deployment;
//   3. forward  (sequential)  — the ring-multiply/forward pass over
//      the transport, hop by hop, ending at the final recipient.
// Because all randomness is fixed in phase 1 and all sends happen in
// phase 3, the wire transcript is byte-identical whatever the policy —
// test_transcript_parity asserts exactly this.
//
// Who computes a ciphertext frame (WriteRingCiphertext).  A process
// that acts for the sender computes it honestly from the ciphertext
// the sender holds; one that acts only for the receiver rebuilds the
// same bytes from the opening with one fixed-base exponentiation (and
// a forked child's transport byte-matches them against the wire); one
// that acts for neither posts a zero-filled frame of the same width to
// its shadow script.  Only the key owner's process decrypts
// (OwnerDecrypt); every other process reads the plaintext from the
// opening.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "protocol/party.h"

namespace pem::protocol {

class KeyDirectory;
class WindowScheduler;

// Message type tags.  The high half namespaces the subsystem ("PE").
inline constexpr uint32_t kMsgRingHop = 0x5045'0001;
inline constexpr uint32_t kMsgRingFinal = 0x5045'0002;
inline constexpr uint32_t kMsgMarketCase = 0x5045'0003;
inline constexpr uint32_t kMsgPrice = 0x5045'0004;
inline constexpr uint32_t kMsgEncTotal = 0x5045'0005;
inline constexpr uint32_t kMsgRatioCipher = 0x5045'0006;
inline constexpr uint32_t kMsgRatioBroadcast = 0x5045'0007;
inline constexpr uint32_t kMsgEnergyTransfer = 0x5045'0008;
inline constexpr uint32_t kMsgPayment = 0x5045'0009;
inline constexpr uint32_t kMsgPublicKey = 0x5045'000A;
// Audit round (protocol/audit.h); 0x5045'0010/11 are the coin flip's.
inline constexpr uint32_t kMsgAuditContribution = 0x5045'0012;
inline constexpr uint32_t kMsgAuditDemand = 0x5045'0013;
inline constexpr uint32_t kMsgAuditWitness = 0x5045'0014;
inline constexpr uint32_t kMsgAuditVerdict = 0x5045'0015;

struct ProtocolContext {
  // Per-agent transport handles, indexed by AgentId.  Protocol code
  // never sees the whole Transport: every Send/Receive goes through
  // the endpoint of the agent performing it, so a step cannot read
  // another agent's inbox — the property that keeps the socket
  // backend's per-agent channels honest.  The driver builds this span
  // once per community via Transport::endpoints().
  std::span<net::Endpoint> endpoints;
  crypto::Rng& rng;
  const PemConfig& config;
  // Optional idle-time encryption-randomness pools (see
  // PaillierRandomnessPool).  When set, ring encryptions draw from the
  // pool; when null or dry, they fall back to fresh randomness.
  crypto::PaillierPoolRegistry* pools = nullptr;
  // Serial vs. phase-parallel execution (transport choice + compute
  // workers).  Defaults to the serial engine.
  net::ExecutionPolicy policy;
  // Appended members default so every existing aggregate initializer
  // (endpoints, rng, config[, pools, policy]) stays valid.
  //
  // Unread: perfbench still sets it (ROADMAP item 20).
  KeyDirectory* directory = nullptr;
  // The window RunPemWindow is currently executing (set by it); the
  // audit round and the cheat plan key off this.
  int window = 0;
  // Unread: perfbench still sets it (ROADMAP item 20).
  WindowScheduler* scheduler = nullptr;

  // The handle of the agent currently acting.
  net::Endpoint& ep(net::AgentId id) const {
    PEM_CHECK(id >= 0 && static_cast<size_t>(id) < endpoints.size(),
              "ProtocolContext: agent id out of range");
    return endpoints[static_cast<size_t>(id)];
  }
  int num_agents() const { return static_cast<int>(endpoints.size()); }
};

// --- phase primitives -------------------------------------------------

// Phase-1 product: one planned encryption with its randomness fixed.
struct EncryptionSlot {
  int64_t value = 0;
  // Exactly one of the two is set: a pooled h_s^r factor, or fresh r.
  std::optional<crypto::BigInt> pooled_factor;
  crypto::BigInt randomness;
  // Whether this process computes the ciphertext in phase 2: it acts
  // for the member the slot encrypts for.  Other slots stay openings.
  bool acts = true;
};

// Sequentially fixes the randomness for one encryption of `value`
// under `pk` (pool pop, else fresh draw from ctx.rng).
EncryptionSlot PrepareEncryption(ProtocolContext& ctx,
                                 const crypto::PaillierPublicKey& pk,
                                 int64_t value);

// The opening of the slot's ciphertext.
crypto::PaillierOpening OpenSlot(const crypto::PaillierPublicKey& pk,
                                 const EncryptionSlot& slot);

// Phase-2 work for a single prepared slot.  Thread-safe for distinct
// slots; callers embedding extra per-item work in their own fan-out
// (e.g. Protocol 4's ScalarMul) use this directly.
crypto::PaillierCiphertext ComputeEncryption(
    const crypto::PaillierPublicKey& pk, const EncryptionSlot& slot);

// Computes slots[i] -> out[i] for every slot this process acts for,
// under the context policy: ParallelFor across workers when
// policy.threads > 1, a plain loop otherwise; other entries stay
// empty.  The result is independent of the worker count because every
// slot's randomness was fixed in phase 1.
std::vector<crypto::PaillierCiphertext> ComputeEncryptions(
    const ProtocolContext& ctx, const crypto::PaillierPublicKey& pk,
    std::span<const EncryptionSlot> slots);

// A ciphertext as this process holds it: the bytes, meaningful only
// where the process acts for the agent holding them, and the opening,
// known everywhere.
struct RingCiphertext {
  crypto::PaillierCiphertext ct;
  crypto::PaillierOpening opening;
};

// Where the bytes of a ciphertext frame from `from` to `to` come from
// in this process (see the top of this header).
enum class FrameSource {
  kSender,   // acts for the sender: the ciphertext it holds
  kOpening,  // acts only for the receiver: rebuilt from the opening
  kNone,     // acts for neither: zero-filled
};
FrameSource SourceOfFrame(const ProtocolContext& ctx, net::AgentId from,
                          net::AgentId to);

// Writes `c` as the ciphertext of a frame from `from` to `to`, taking
// its bytes from SourceOfFrame.  Same width on every path.
void WriteRingCiphertext(net::ByteWriter& w, const ProtocolContext& ctx,
                         const crypto::PaillierPublicKey& pk,
                         net::AgentId from, net::AgentId to,
                         const RingCiphertext& c);

// The plaintext of `ct` under `owner`'s key, whose opening's plaintext
// is `opened`.  Only the owner's process decrypts, and checks the
// result against `opened`; every other process returns `opened`.
// Protocol code reaches a private key through this alone.
crypto::BigInt OwnerDecrypt(const ProtocolContext& ctx, const Party& owner,
                            const crypto::PaillierCiphertext& ct,
                            const crypto::BigInt& opened);
int64_t OwnerDecryptSigned(const ProtocolContext& ctx, const Party& owner,
                           const RingCiphertext& c);

// --- ring aggregation -------------------------------------------------

// Index lists into the parties span, built once per window
// (Protocol 1, line 4).
struct Coalitions {
  std::vector<size_t> sellers;
  std::vector<size_t> buyers;
};
Coalitions FormCoalitions(std::span<const Party> parties);

// Uniform draw from `candidates` (protocol-level random agent choice).
size_t PickRandomIndex(std::span<const size_t> candidates, crypto::Rng& rng);

// Ciphertext wire helpers: fixed-width big-endian (2 * key bytes).
void WriteCiphertext(net::ByteWriter& w, const crypto::PaillierPublicKey& pk,
                     const crypto::PaillierCiphertext& ct);
crypto::PaillierCiphertext ReadCiphertext(net::ByteReader& r);

// Paillier ring aggregation (the Lines 2-10 pattern of Protocol 2):
// each member of `ring` (indices into `parties`, in forwarding order)
// encrypts value_of(party) under `pk` and multiplies it into the
// running ciphertext, forwarding hop-by-hop over the bus; the last
// member sends the product to `final_recipient`, who is returned the
// ciphertext of Σ value_of with its opening.  Every hop's bytes are
// accounted.  Runs the three-phase schedule described at the top of
// this header.
RingCiphertext RingAggregate(
    ProtocolContext& ctx, const crypto::PaillierPublicKey& pk,
    std::span<Party> parties, std::span<const size_t> ring,
    const std::function<int64_t(const Party&)>& value_of,
    net::AgentId final_recipient);

// Pops the endpoint's next message, asserting the expected type.
net::Message ExpectMessage(net::Endpoint& ep, uint32_t expected_type);

// Announces the aggregator's public key to the coalition peers that
// must encrypt under it (Protocol 1, line 2 amortizes this; we send it
// per window so the bandwidth accounting is conservative).
void BroadcastPublicKey(ProtocolContext& ctx, const Party& owner);

// Protocol 1, lines 1-2, for an elected aggregator: makes sure `owner`'s
// key exists, then BroadcastPublicKey.  The process that acts for the
// owner generates the pair on first use.  Any other process takes the
// same draw from ctx.rng (crypto::DrawPaillierPrimeCandidates), drops
// it, and learns the public key from the announcement its own agent
// receives (Transport::Peek).  It then replays the broadcast from that
// key, so its agent's copy is still byte-matched against the script.
// The copy the equivocation cheat doctors is undone first, so every
// process learns the honest key.
void AnnounceKey(ProtocolContext& ctx, Party& owner);

}  // namespace pem::protocol
