#include "protocol/window_scheduler.h"

#include <algorithm>
#include <cstddef>

#include "net/agent_supervisor.h"
#include "net/serialize.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pem::protocol {

WindowScheduler::WindowScheduler(Options opts)
    : windows_in_flight_(opts.windows_in_flight) {
  PEM_CHECK(windows_in_flight_ >= 1,
            "window scheduler: windows_in_flight must be >= 1");
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
