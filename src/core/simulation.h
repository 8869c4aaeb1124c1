// Day-long market simulation driver.
//
// Feeds a CommunityTrace through the market window by window, with a
// choice of engine:
//   * kPlaintext — the clearing oracle (fast; used for the Fig. 4/6
//     trading-performance figures, provably equal to the crypto path by
//     the integration tests);
//   * kCrypto    — the full PEM protocol stack over the message bus
//     (used for the Fig. 5 runtime and Table I bandwidth figures).
//
// Battery state evolves every window; with window_stride > 1 the
// market itself runs on a sampled subset (the protocol benches use
// this to keep full-day sweeps tractable — see EXPERIMENTS.md).
//
// Every crypto backend takes one path through a day: a parent prepass
// resolves the batteries and the baselines, then one loop runs the
// sampled windows one at a time, either on the in-process bus or
// lock-step through the forked agents.  Either way each window is
// begun, run and followed by the idle-time refill on a replica of the
// protocol state (the parent's own, or each child's fork copy).
#pragma once

#include <vector>

#include "grid/trace.h"
#include "market/baseline.h"
#include "market/clearing.h"
#include "net/transport.h"
#include "protocol/pem_protocol.h"

namespace pem::core {

enum class Engine { kPlaintext, kCrypto };

// Dynamic membership: one roster change, applied when the simulation
// reaches `window` (before that window's market runs).  A leave
// deactivates the party — it classifies kOffMarket, coalitions and
// rings re-form deterministically around the survivors, and its key
// directory binding is retired; a join (re-)activates it.  Every
// window with at least one event advances the key directory epoch, so
// a rejoining agent may announce a fresh key without tripping the
// equivocation check.  Inactive parties keep consuming their
// BeginWindow randomness draws, so churn never shifts another agent's
// stream (the roster-invariance the adversarial wall asserts).
struct ChurnEvent {
  int window = 0;
  net::AgentId agent = -1;
  bool join = false;  // false: leave
};

struct SimulationConfig {
  Engine engine = Engine::kPlaintext;
  protocol::PemConfig pem;
  // Crypto engine execution model: which Transport backend carries the
  // frames and how many workers the protocol compute phases use.  The
  // default is the serial engine; ExecutionPolicy::Parallel(n) selects
  // the phase-parallel engine on the same in-process bus, and
  // ExecutionPolicy::Process() forks one OS process per agent like the
  // paper's per-container deployment — each child runs its own agent's
  // side of every phase over its inherited socketpair end, the parent
  // routes frames and collects results, and bus_bytes are literal
  // cross-process socket bytes (Shm() is the same model over
  // shared-memory rings).  Each forked backend runs with its default
  // options.
  // The wire transcript and market outcomes are policy-invariant
  // (asserted by test_transcript_parity's three-way serial/process/shm
  // matrix, the serial bus at 1 and 4 threads).
  // The between-window randomness-pool refill
  // (pem.precompute_encryption) fans out across the same worker count —
  // the paper's "executed in parallel during idle time" — without
  // affecting the factor order.
  net::ExecutionPolicy policy;
  // Optional tap on every delivered bus message (crypto engine only);
  // used for transcript comparison and debugging.  The callback may
  // run under the transport's lock, so it must not call back into the
  // bus — copy what you need from the Message instead.
  net::Transport::Observer bus_observer;
  // Run the market only on windows where window >= window_offset and
  // (window - window_offset) % stride == 0.  The offset lets sampled
  // runs skip the inactive early-morning windows.
  int window_stride = 1;
  int window_offset = 0;
  // Unread: perfbench still sets it (ROADMAP item 20).
  int windows_in_flight = 1;
  // Record each home's resolved WindowState (needed by the utility
  // figure); costs memory on big traces.
  bool record_states = false;
  uint64_t crypto_seed = 1;  // DeterministicRng seed for the crypto path
  // Membership churn schedule, applied in window order (crypto engine;
  // forked backends replay it inside every child so all processes
  // agree on the roster).  Agents named here must exist in the trace —
  // churn changes who participates, never the community size — and
  // each event's window must lie within the day; RunSimulation aborts
  // otherwise.
  std::vector<ChurnEvent> churn;
};

// perfbench still names the record through this layer (ROADMAP item 20).
using WindowRecord = protocol::WindowRecord;

struct SimulationResult {
  std::vector<protocol::WindowRecord> windows;  // one per *executed* window
  // The grid-only baseline of each executed window (aligned with
  // `windows`): the Fig. 6c/6d comparison the market is measured by.
  std::vector<market::BaselineOutcome> baselines;
  // resolved_states[w][h]; populated when record_states is set (indexed
  // by executed-window position, aligned with `windows`).
  std::vector<std::vector<grid::WindowState>> resolved_states;

  // The sum of the executed windows' runtime_seconds.
  double total_runtime_seconds = 0.0;
  uint64_t total_bus_bytes = 0;

  double AverageRuntimeSeconds() const;
  double AverageBusBytes() const;
};

SimulationResult RunSimulation(const grid::CommunityTrace& trace,
                               const SimulationConfig& config);

}  // namespace pem::core
