// Per-agent protocol state.
//
// A Party owns exactly the data the paper calls private: its window
// state (g, l, b), utility parameter k, battery coefficient ε, its
// Paillier key pair, and the per-window blinding nonce.  Protocol code
// is written so that another party's fields are never read directly —
// all cross-party information flows through bus messages.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"
#include "grid/types.h"
#include "market/params.h"
#include "net/message.h"
#include "protocol/fault.h"
#include "protocol/topology.h"
#include "util/fixed_point.h"

namespace pem::protocol {

struct PemConfig {
  int key_bits = 1024;
  crypto::SecureCompareConfig compare;  // 64-bit comparator by default
  // Blinding nonces r_i are drawn uniformly from [0, nonce_bound).
  int64_t nonce_bound = int64_t{1} << 40;
  // The integer K of Protocol 4's reciprocal trick.
  int64_t ratio_scale = int64_t{1} << 40;
  // Idle-time precomputation of Paillier encryption randomness (the
  // paper's "executed in parallel during idle time" optimization that
  // flattens Fig. 5(b)'s key-size lines).  When enabled, the
  // simulation refills pools between windows, outside the per-window
  // runtime measurement.
  bool precompute_encryption = false;
  size_t encryption_pool_target = 1024;
  // No effect: encryption has one path (crypto/paillier.h), which
  // outran the owner-side CRT encryption this switch used to select.
  // Kept so configurations that still set it compile.
  bool crt_encryption = true;
  // NOTE: compute-phase parallelism is no longer configured here; it
  // moved to net::ExecutionPolicy (transport kind + worker count),
  // threaded through ProtocolContext/SimulationConfig.
  // §VI collusion resistance: select the decrypting agents (Hr1, Hr2,
  // Hb, Hs) by a jointly-random commit-reveal coin flip within the
  // candidate coalition instead of trusting a single source of
  // randomness.  Costs O(m^2) small messages per selection.
  bool collusion_resistant_selection = false;
  // §VI active-cheater auditing (protocol/audit.h runs it at the top
  // of every window when enabled) and the scripted misbehavior the
  // adversarial test wall injects.  Both live here — inside the config
  // that forked backends copy into every child — so each independent
  // process replays the same audit and the same cheat, and the window
  // verdict is derived identically everywhere.
  AuditPolicy audit;
  CheatPlan cheat;
  // Aggregation plan shape (protocol/topology.h): the flat ring of the
  // paper, or a k-ary hierarchy of sub-rings whose leaders re-aggregate
  // up the tree.  Market outcomes are bit-identical either way (the
  // plan invariants in topology.h); only the wire shape — and the
  // critical-path hop count — changes.  Lives here so forked backends
  // copy it into every child and all processes derive the same plan.
  TopologyConfig topology;
  market::MarketParams market;
};

class Party {
 public:
  Party(net::AgentId id, grid::AgentParams params) : id_(id), params_(params) {}

  net::AgentId id() const { return id_; }
  const grid::AgentParams& params() const { return params_; }
  grid::Role role() const { return role_; }

  // Dynamic membership.  An inactive party (left the community, or
  // excluded as a detected cheater) classifies as kOffMarket at every
  // BeginWindow until reactivated — coalitions and rings re-form around
  // it automatically.  BeginWindow still consumes the same RNG draws
  // for inactive parties, so a roster change never shifts another
  // agent's randomness stream (what keeps honest transcripts
  // byte-identical across rosters).
  bool active() const { return active_; }
  void SetActive(bool active) { active_ = active; }
  // Detected cheater: banned from the market for the rest of the day
  // (until a churn event explicitly re-admits it).  Takes effect
  // immediately — the role flips to kOffMarket mid-window so the
  // re-formed coalitions exclude it.
  void Exclude() {
    active_ = false;
    role_ = grid::Role::kOffMarket;
  }

  // Loads the window state: quantizes the net energy and draws the
  // blinding nonce for this window.
  void BeginWindow(const grid::WindowState& state, int64_t nonce_bound,
                   crypto::Rng& rng);

  const grid::WindowState& state() const { return state_; }
  // Quantized sn_i as a fixed-point raw integer (µkWh).
  int64_t net_raw() const { return net_raw_; }
  double net_kwh() const {
    return FixedPoint::FromRaw(net_raw_).ToDouble();
  }
  int64_t nonce() const { return nonce_; }

  // Fixed-point raws of the two Private Pricing aggregands.
  int64_t PreferenceRaw() const;   // k_i
  int64_t SupplyTermRaw() const;   // g_i + 1 + ε_i*b_i - b_i

  // Lazily generates this party's Paillier key pair.  The paper has
  // every agent generate keys at setup (Protocol 1, lines 1-2); we
  // defer to first use since only the randomly chosen aggregators'
  // keys are ever exercised in a window.
  const crypto::PaillierKeyPair& EnsureKeys(int key_bits, crypto::Rng& rng);
  bool HasKeys() const { return keys_.has_value(); }
  const crypto::PaillierPublicKey& public_key() const;
  const crypto::PaillierPrivateKey& private_key() const;

 private:
  net::AgentId id_;
  grid::AgentParams params_;
  grid::WindowState state_;
  grid::Role role_ = grid::Role::kOffMarket;
  bool active_ = true;
  int64_t net_raw_ = 0;
  int64_t nonce_ = 0;
  std::optional<crypto::PaillierKeyPair> keys_;
};

}  // namespace pem::protocol
