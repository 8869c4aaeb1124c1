// Batched multi-window scheduling (ROADMAP: the throughput lever for
// heavy-traffic serving, where many windows are in flight at once).
//
// The protocol is interactive: mid-window decryptions drive control
// flow, and consecutive windows are coupled through the shared RNG
// cursor, the cached keys, and the churn/election schedule.  So the
// scheduler must NOT reorder any randomness draw or any send — the
// wire transcript of every window has to stay bit-identical to the
// serial loop's (the serial-vs-batched parity wall asserts prices,
// trades, per-window ledger bytes, AND rng cursors).  What CAN be
// fused is the compute work the prepare/compute/forward phasing made
// explicit, and the scheduler exploits it differently per engine:
//
//  * In-process engine: every compute phase of the in-flight windows
//    fans out over ONE persistent worker team instead of forking and
//    joining a fresh pem::ParallelFor pool per call — the same
//    amortization RingAggregateBatch applies to Private Pricing's two
//    sums, lifted from "two lanes of one aggregation" to "every
//    compute phase of every in-flight window".  Randomness stays
//    phase-1-sequential and sends stay phase-3-sequential, so the
//    transcript cannot move.
//
//  * Forked backends: the parent pipelines up to windows_in_flight
//    kCtlCmdRun commands per child and collects the reports as they
//    complete, keyed by the window id each report now echoes.  Each
//    child still executes its windows strictly in order (its per-pair
//    frame streams — and therefore every transcript byte — are
//    untouched), but child i's window w+1 compute overlaps child j's
//    window w tail instead of idling behind the slowest straggler —
//    the idle-time overlap of the paper's Fig. 5 runtime story.
//
// windows_in_flight = 1 degenerates to exactly today's serial loop in
// both modes (no team is spawned, one command is outstanding).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "protocol/agent_driver.h"

namespace pem::protocol {

class WindowScheduler {
 public:
  struct Options {
    // Upper bound on sampled windows in flight; >= 1.
    int windows_in_flight = 1;
    // Compute workers for the fused fan-outs (ExecutionPolicy::
    // worker_count() in the drivers).  <= 1 means compute stays serial
    // and no team is spawned.
    unsigned threads = 1;
  };

  explicit WindowScheduler(Options opts);
  ~WindowScheduler();

  WindowScheduler(const WindowScheduler&) = delete;
  WindowScheduler& operator=(const WindowScheduler&) = delete;

  int windows_in_flight() const { return windows_in_flight_; }
  unsigned threads() const { return threads_; }

  // True when the scheduler actually fuses compute phases (batching
  // requested AND parallel compute requested).  Call sites route their
  // fan-outs through ParallelFor() below exactly when this holds;
  // otherwise they keep the per-call pem::ParallelFor pool, so the
  // degenerate configuration is bit-for-bit today's engine.
  bool fused() const { return windows_in_flight_ > 1 && threads_ > 1; }

  // pem::ParallelFor's contract over the persistent team: invokes
  // fn(i) for i in [begin, end) across the workers, blocks until all
  // iterations complete, and rethrows the first exception a worker
  // captured (remaining iterations are abandoned).  The team survives
  // a throwing job — the next call runs on the same workers — so one
  // window's failure cannot corrupt its in-flight siblings.  Not
  // reentrant: fn must not call back into the same scheduler.  With no
  // team (fused() false) the loop runs serially on the caller.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

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
  void WorkerLoop(unsigned worker);

  int windows_in_flight_ = 1;
  unsigned threads_ = 1;

  // Persistent team state.  A job is published under mu_ by bumping
  // generation_; workers stride over [job_begin_, job_end_) and the
  // last one out wakes the caller.  The first exception is captured
  // under mu_ and rethrown on the calling thread, like
  // pem::ParallelFor.
  std::vector<std::thread> team_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  bool stopping_ = false;
  size_t job_begin_ = 0;
  size_t job_end_ = 0;
  const std::function<void(size_t)>* job_fn_ = nullptr;
  unsigned active_workers_ = 0;
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};
};

}  // namespace pem::protocol
