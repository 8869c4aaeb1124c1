// Per-process protocol driver: ONE agent's side of a trading window.
//
// On the in-process bus a single thread simulates every agent.
// Under net::ProcessTransport each forked child owns exactly one agent:
// it replays the deterministic protocol script (everything public —
// coalition formation, ring orders, elections — plus the shadow of the
// other agents' steps, all derived from the fork-time state snapshot
// and the shared seeded RNG), while its own agent's sends and receives
// are real kernel socketpair I/O, byte-verified against the script (see
// net/process_transport.h).  The SAME RunPemWindow code path therefore
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
// control channel.  The protocol makes every field public knowledge by
// its last step (prices and cases are broadcast, trades are pairwise
// messages the script derives for everyone), so all children must
// report identical values — CollectWindowReports asserts exactly that.
struct WindowReport {
  // The window this report answers, echoed from the kCtlCmdRun payload.
  // The parent rejects a mismatch (a slow or replayed report from a
  // prior window must never be merged silently) — and with several
  // windows in flight the echo is what keys each report to its
  // command.  -1 until RunWindow fills it.
  int window = -1;
  market::MarketType type = market::MarketType::kNoMarket;
  double price = 0.0;
  double supply_total = 0.0;
  double demand_total = 0.0;
  double buyer_total_cost = 0.0;
  double grid_import_kwh = 0.0;
  double grid_export_kwh = 0.0;
  int num_sellers = 0;
  int num_buyers = 0;
  std::vector<Trade> trades;
  double runtime_seconds = 0.0;  // this child's wall clock for the window
  uint64_t bus_bytes = 0;        // canonical ledger delta for the window
  // crypto::Rng::Cursor() after the window's last draw.  Every child
  // replays the same deterministic stream, so the cursors must agree
  // bit-for-bit — and the serial-vs-batched parity wall compares them
  // across schedules to prove batching never reorders a draw.
  uint64_t rng_cursor = 0;
  // §VI audit outcome: derived identically by every replaying child
  // (the cheat plan is part of the fork-copied config), so it joins the
  // fields CollectWindowReports requires bit-level agreement on.
  AuditOutcome audit;
  // This agent's own per-window counter delta (canonical shadow ledger);
  // the parent asserts it equals the literal socket bytes its router
  // moved for this agent.
  net::TrafficStats self_stats;
};

// The public fields of `window`'s report, filled from one finished
// window (self_stats stays zero).  AgentDriver::RunWindow and the
// in-process engine of core::RunSimulation both report through it.
WindowReport MakeWindowReport(int window, const PemWindowResult& result,
                              std::span<const Party> parties);

std::vector<uint8_t> EncodeWindowReport(const WindowReport& report);
WindowReport DecodeWindowReport(std::span<const uint8_t> bytes);

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

  net::AgentId self() const { return self_; }

  // One window of this agent's side; also usable in-process (tests).
  WindowReport RunWindow(int window);

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

// One collected window of a (possibly pipelined) batch: the merged,
// cross-checked report plus the parent-side wall clock from the
// batch's dispatch to this window's last report.  Overlapping windows
// share that span, so callers charge a batch's elapsed time once (the
// max over the batch), never the sum.
struct CollectedWindow {
  int window = -1;
  WindowReport report;
  double parent_seconds = 0.0;
};

// Parent side of a batch of pipelined windows: for each entry of
// `windows` (the commanded order) reads one report from every child,
// keyed and verified by the echoed window id, and merges them,
// asserting
//  (a) each report answers the commanded window — a stale echo is a
//      structured kStaleReport fault naming the agent;
//  (b) all children agree on every public field (including the rng
//      cursor) — a divergence is a kForgedReport fault;
//  (c) accounting closes over the batch: each child's summed attested
//      deltas equal the literal wire bytes the router relayed for it
//      since `stats_before`, and the attested per-window totals sum to
//      the canonical ledger delta.  (Per-window router snapshots are
//      meaningless mid-batch — later in-flight windows' frames are
//      already moving — so the wire cross-check closes at batch
//      granularity; a one-window batch is exactly the per-window
//      check.)
// `stats_before` is the router's per-agent snapshot taken when the
// batch was dispatched; `since` (optional) stamps each window's
// parent_seconds as it completes.  A divergence is an ACTIVE cheat (a
// child forging or replaying its report), so it surfaces as a
// ProtocolError naming the deviating agent, not an abort.
std::vector<CollectedWindow> CollectWindowReportsBatch(
    net::AgentSupervisor& transport,
    std::span<const net::TrafficStats> stats_before,
    std::span<const int> windows, const Stopwatch* since = nullptr);

// One-window wrapper (the serial loop's collector): collects
// `expected_window` and returns the merged report — the batch
// collector with a single outstanding window.
WindowReport CollectWindowReports(
    net::AgentSupervisor& transport,
    std::span<const net::TrafficStats> stats_before, int expected_window);

}  // namespace pem::protocol
