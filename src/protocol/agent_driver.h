// Per-process protocol driver: ONE agent's side of a trading window.
//
// On the in-process bus a single thread simulates every agent.
// Under net::ProcessTransport each forked child owns exactly one agent:
// it replays the deterministic protocol script (everything public —
// coalition formation, ring orders, elections — plus the shadow of the
// other agents' steps, all derived from the fork-time state snapshot
// and the shared seeded RNG), while its own agent's sends and receives
// are real kernel socketpair I/O, byte-verified against the script (see
// net/process_transport.h).  The child computes only its own agent's
// Paillier work: it encrypts its own ring shares, rebuilds the
// ciphertext frames it receives from their openings, posts zero-filled
// frames between other agents, and decrypts only under its own key
// (protocol/context.h).  The SAME RunPemWindow code path therefore
// drives every backend; what AgentDriver adds is the per-child command
// loop, the per-window report, and the parent side (RunForkedWindow)
// that runs the window lock-step and cross-checks every child's view
// of it.
//
// Determinism contract: the context RNG must be a seeded deterministic
// generator (RunSimulation uses DeterministicRng) — with a system RNG
// the children's scripts would diverge at the first random draw, and
// the byte-verification in the child transport would fail loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "protocol/pem_protocol.h"

namespace pem::net {
// Supervision control plane (net/agent_supervisor.h).  Only referenced
// through references here, so the protocol layer's public surface
// depends on no concrete transport backend — pem_lint's layering rule
// keeps it that way; the .cpp includes the real header.
class AgentSupervisor;
class ControlChannel;
}  // namespace pem::net

namespace pem::protocol {

// One agent's view of a finished window, shipped to the parent over the
// control channel.  The protocol makes the record public knowledge by
// its last step (prices and cases are broadcast, trades are pairwise
// messages the script derives for everyone), so all children must
// report identical records — RunForkedWindow asserts exactly that.
// The record's window echoes the kCtlCmdRun payload, and the parent
// rejects a mismatch (a replayed report from a prior window must never
// be merged silently).
struct AgentReport {
  WindowRecord record;
  // This agent's own per-window counter delta (canonical shadow
  // ledger); the parent asserts it equals the literal socket bytes its
  // router moved for this agent.
  net::TrafficStats self_stats;
};

std::vector<uint8_t> EncodeAgentReport(const AgentReport& report);
// nullopt on a malformed payload (see DecodeRecord) or trailing bytes.
std::optional<AgentReport> DecodeAgentReport(std::span<const uint8_t> bytes);

// Runs inside a forked child: executes this agent's side of each window
// the parent schedules, reports the result, and says goodbye on
// Shutdown (the ProcessTransport::ChildMain contract).
class AgentDriver {
 public:
  struct Callbacks {
    // Loads window `w`'s inputs into the parties (trace resolution,
    // BeginWindow); must mirror the parent's own per-window evolution
    // exactly, including the windows the sampling skips.
    std::function<void(int window)> begin_window;
    // Idle-time work after a window (randomness-pool refill); runs
    // outside the reported runtime, like RunSimulation's refill.
    std::function<void(int window)> after_window;
  };

  // `parties` is this child's fork-copied snapshot; `self` names the
  // one agent whose wire I/O is real.
  AgentDriver(net::AgentId self, ProtocolContext& ctx,
              std::span<Party> parties, Callbacks callbacks);

  // One window of this agent's side; also usable in-process (tests).
  AgentReport RunWindow(int window);

  // Command loop: kCtlCmdRun (payload: i32 window) runs a window and
  // writes its report; kCtlCmdShutdown writes Done and returns the
  // number of windows executed.
  int Serve(net::ControlChannel& ctl);

 private:
  net::AgentId self_;
  ProtocolContext& ctx_;
  std::span<Party> parties_;
  Callbacks callbacks_;
};

// Parent side of one window: snapshots the router's per-agent stats,
// commands window `window` from every child (kCtlCmdRun), reads one
// report from each and merges them, asserting
//  (a) each record is a decodable report — anything else (another
//      tag, a malformed payload) is a kForgedReport fault naming its
//      sender;
//  (b) each report answers the commanded window — a stale echo (a
//      replayed report, or a child that lost sync) is a structured
//      kStaleReport fault naming the agent;
//  (c) all children agree on every visited record field, bit for bit
//      — a divergence is a kForgedReport fault;
//  (d) accounting closes: each child's attested delta equals the
//      literal wire bytes the router relayed for it in this window,
//      and their sum is the canonical ledger delta.
// Returns the agreed record, its runtime_seconds stamped from dispatch
// to the window's last report (IPC included, the ledger sync and wire
// cross-check excluded).  A divergence is an ACTIVE cheat (a child
// forging or replaying its report), so it surfaces as a ProtocolError
// naming the deviating agent, not an abort.
WindowRecord RunForkedWindow(net::AgentSupervisor& agents, int window);

}  // namespace pem::protocol
