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
// drives all four backends; what AgentDriver adds is the per-child
// command loop, the per-window report, and the parent-side collector
// that cross-checks every child's view of the window.
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
#include "util/stopwatch.h"

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
// report identical records — CollectWindowReportsBatch asserts exactly
// that.  The record's window echoes the kCtlCmdRun payload: with
// several windows in flight the echo is what keys each report to its
// command, and the parent rejects a mismatch (a slow or replayed report
// from a prior window must never be merged silently).
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

// Parent side of a batch of pipelined windows: for each entry of
// `windows` (the commanded order) reads one report from every child,
// keyed and verified by the echoed window id, and merges them,
// asserting
//  (a) each record is a decodable report — anything else (another
//      tag, a malformed payload) is a kForgedReport fault naming its
//      sender;
//  (b) each report answers the commanded window — a stale echo is a
//      structured kStaleReport fault naming the agent;
//  (c) all children agree on every visited record field, bit for bit
//      — a divergence is a kForgedReport fault;
//  (d) accounting closes over the batch: each child's summed attested
//      deltas equal the literal wire bytes the router relayed for it
//      since `stats_before`, and the attested per-window totals sum to
//      the canonical ledger delta.  (Per-window router snapshots are
//      meaningless mid-batch — later in-flight windows' frames are
//      already moving — so the wire cross-check closes at batch
//      granularity; a one-window batch is exactly the per-window
//      check.)
// `stats_before` is the router's per-agent snapshot taken when the
// batch was dispatched.  Returns one record per entry of `windows`;
// `since` (optional) stamps each record's runtime_seconds as its window
// completes, so windows in flight share the batch's wall clock and
// callers charge a batch once (the max), never the sum.  A divergence
// is an ACTIVE cheat (a child forging or replaying its report), so it
// surfaces as a ProtocolError naming the deviating agent, not an abort.
std::vector<WindowRecord> CollectWindowReportsBatch(
    net::AgentSupervisor& transport,
    std::span<const net::TrafficStats> stats_before,
    std::span<const int> windows, const Stopwatch* since = nullptr);

}  // namespace pem::protocol
