#include "protocol/window_scheduler.h"

#include <algorithm>
#include <cstddef>

#include "net/agent_supervisor.h"
#include "net/serialize.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pem::protocol {

WindowScheduler::WindowScheduler(Options opts)
    : windows_in_flight_(opts.windows_in_flight),
      threads_(opts.threads == 0 ? 1 : opts.threads) {
  PEM_CHECK(windows_in_flight_ >= 1,
            "window scheduler: windows_in_flight must be >= 1");
  if (!fused()) return;
  team_.reserve(threads_);
  try {
    for (unsigned w = 0; w < threads_; ++w) {
      team_.emplace_back([this, w] { WorkerLoop(w); });
    }
  } catch (...) {
    // std::thread construction can throw; stop and join what started
    // rather than std::terminate-ing past joinable threads.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : team_) t.join();
    throw;
  }
}

WindowScheduler::~WindowScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : team_) t.join();
}

void WindowScheduler::WorkerLoop(unsigned worker) {
  uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_work_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    const size_t begin = job_begin_;
    const size_t end = job_end_;
    const std::function<void(size_t)>* fn = job_fn_;
    lock.unlock();
    // Strided assignment, like pem::ParallelFor: contiguous chunks
    // would serialize when the per-iteration cost is skewed.
    for (size_t i = begin + worker; i < end; i += threads_) {
      if (failed_.load(std::memory_order_relaxed)) break;
      try {
        (*fn)(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> elock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_relaxed);
        break;
      }
    }
    lock.lock();
    if (--active_workers_ == 0) cv_done_.notify_one();
  }
}

void WindowScheduler::ParallelFor(size_t begin, size_t end,
                                  const std::function<void(size_t)>& fn) {
  if (end <= begin) return;
  if (team_.empty() || end - begin == 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    PEM_CHECK(active_workers_ == 0,
              "window scheduler: ParallelFor is not reentrant");
    job_begin_ = begin;
    job_end_ = end;
    job_fn_ = &fn;
    first_error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    active_workers_ = threads_;
    ++generation_;
    cv_work_.notify_all();
    cv_done_.wait(lock, [&] { return active_workers_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
    job_fn_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

std::vector<std::vector<int>> WindowScheduler::PlanBatches(
    std::span<const int> sampled, int windows_in_flight) {
  PEM_CHECK(windows_in_flight >= 1,
            "window scheduler: windows_in_flight must be >= 1");
  std::vector<std::vector<int>> batches;
  const size_t width = static_cast<size_t>(windows_in_flight);
  for (size_t i = 0; i < sampled.size(); i += width) {
    const size_t end = std::min(sampled.size(), i + width);
    batches.emplace_back(sampled.begin() + static_cast<ptrdiff_t>(i),
                         sampled.begin() + static_cast<ptrdiff_t>(end));
  }
  return batches;
}

std::vector<WindowRecord> WindowScheduler::RunForkedBatch(
    net::AgentSupervisor& transport, std::span<const int> windows) {
  PEM_CHECK(!windows.empty(), "window scheduler: empty forked batch");
  PEM_CHECK(windows.size() <= static_cast<size_t>(windows_in_flight_),
            "window scheduler: batch exceeds windows_in_flight");
  const int n = transport.num_agents();
  std::vector<net::TrafficStats> stats_before;
  stats_before.reserve(static_cast<size_t>(n));
  for (net::AgentId a = 0; a < n; ++a) {
    stats_before.push_back(transport.stats(a));
  }
  const Stopwatch timer;
  // Pipelined dispatch: every child gets the whole batch up front and
  // works through it in order; the parent only blocks in collection.
  for (const int w : windows) {
    net::ByteWriter cmd;
    cmd.U32(static_cast<uint32_t>(w));
    transport.CommandAll(net::kCtlCmdRun, cmd.Take());
  }
  return CollectWindowReportsBatch(transport, stats_before, windows, &timer);
}

}  // namespace pem::protocol
