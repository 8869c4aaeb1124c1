// Batched multi-window scheduling for the forked backends: the parent
// keeps up to windows_in_flight kCtlCmdRun commands outstanding per
// child and collects the reports as they complete, keyed by the window
// id each report echoes.
//
// The protocol is interactive: mid-window decryptions drive control
// flow, and consecutive windows are coupled through the shared RNG
// cursor, the cached keys, and the churn/election schedule.  So the
// scheduler must NOT reorder any randomness draw or any send — the
// wire transcript of every window has to stay bit-identical to the
// serial loop's (the serial-vs-batched parity wall asserts prices,
// trades, per-window ledger bytes, AND rng cursors).  Each child still
// executes its windows strictly in order (its per-pair frame streams —
// and therefore every transcript byte — are untouched), but child i's
// window w+1 compute overlaps child j's window w tail instead of idling
// behind the slowest straggler — the idle-time overlap of the paper's
// Fig. 5 runtime story.
//
// In-process days run window after window; their compute fans out
// through pem::ParallelFor (util/parallel.h) inside each window.
// windows_in_flight = 1 keeps one command outstanding: the serial loop.
#pragma once

#include <span>
#include <vector>

#include "protocol/agent_driver.h"

namespace pem::protocol {

class WindowScheduler {
 public:
  struct Options {
    // Upper bound on sampled windows in flight; >= 1.
    int windows_in_flight = 1;
    // Unread: perfbench still sets it (ROADMAP item 20).
    unsigned threads = 1;
  };

  explicit WindowScheduler(Options opts);

  // Always false: perfbench still reads it (ROADMAP item 20).
  bool fused() const { return false; }

  // Groups the sampled windows into consecutive batches of at most
  // windows_in_flight, preserving order.  The drivers dispatch one
  // batch at a time so battery/churn/rng evolution between batches
  // stays identical to the serial loop's.
  static std::vector<std::vector<int>> PlanBatches(
      std::span<const int> sampled, int windows_in_flight);

  // Forked-backend batch: pipelines one kCtlCmdRun per window to every
  // child, then collects and cross-checks the reports window by window
  // (CollectWindowReportsBatch), stamping each record's runtime with
  // the span from dispatch of the WHOLE batch to that window's last
  // report.  Returns one record per entry of `windows`, in order.
  std::vector<WindowRecord> RunForkedBatch(net::AgentSupervisor& transport,
                                           std::span<const int> windows);

 private:
  int windows_in_flight_ = 1;
};

}  // namespace pem::protocol
