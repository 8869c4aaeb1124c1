// Ablation: batched multi-window scheduling (windows_in_flight).
//
// The paper's Fig. 5 runtime story leaves idle time on the table
// between windows: the serial loop finishes window w everywhere before
// window w+1 draws its first byte.  protocol::WindowScheduler keeps up
// to windows_in_flight sampled windows in flight — in-process the
// compute phases of a batch share one persistent worker team (no
// per-phase thread spawn/join), on the forked backends the parent
// pipelines kCtlCmdRun dispatch so the children overlap whole windows.
// Randomness and sends stay sequential per window, so the transcript
// is bit-identical to the serial loop's (the serial-vs-batched parity
// wall in tests/integration/test_transcript_parity.cpp).
//
// This bench sweeps windows_in_flight x engine and reports crypto
// throughput, the attributed total (charged once per batch), and the
// sum of per-window spans — the gap between the last two is exactly
// the overlap the batching buys.  Bytes per window are printed to make
// the invariance visible in the artifact.
//
// `--json` emits one JSON object per row (JSON lines) for the CI bench
// artifact instead of the human table.
#include <cstdio>
#include <cstring>

#include "core/simulation.h"
#include "grid/trace.h"
#include "net/transport.h"

int main(int argc, char** argv) {
  using namespace pem;

  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (!json) {
    std::printf("=== Ablation: batched multi-window scheduling ===\n");
    std::printf("%12s %8s %10s %12s %12s %12s %14s\n", "backend", "threads",
                "in_flight", "windows/s", "total_s", "span_sum_s",
                "B/window");
  }

  grid::TraceConfig tc;
  tc.num_homes = 8;
  tc.windows_per_day = 6;
  tc.seed = 13;
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(tc);

  struct Row {
    const char* backend;
    net::ExecutionPolicy policy;
  };
  const Row rows[] = {
      // In-process fused compute: batching amortizes the per-fan-out
      // thread spawn/join onto one persistent team.
      {"serial x4", net::ExecutionPolicy::Parallel(4)},
      // Forked + pipelined dispatch: children overlap whole windows.
      {"process", net::ExecutionPolicy::Process()},
  };

  for (const Row& row : rows) {
    for (int in_flight : {1, 2, 4, 8}) {
      core::SimulationConfig cfg;
      cfg.engine = core::Engine::kCrypto;
      cfg.pem.key_bits = 128;
      cfg.policy = row.policy;
      cfg.windows_in_flight = in_flight;
      const core::SimulationResult r = core::RunSimulation(trace, cfg);

      const double windows = static_cast<double>(r.windows.size());
      double span_sum = 0.0;
      for (const core::WindowRecord& rec : r.windows) {
        span_sum += rec.runtime_seconds;
      }
      const double total = r.total_runtime_seconds;
      const double windows_per_s = total > 0 ? windows / total : 0.0;
      const double bytes_per_window =
          windows > 0 ? r.AverageBusBytes() : 0.0;

      if (json) {
        std::printf(
            "{\"bench\":\"ablation_batch\",\"backend\":\"%s\","
            "\"threads\":%u,\"windows_in_flight\":%d,"
            "\"windows_per_sec\":%.3f,\"total_runtime_seconds\":%.4f,"
            "\"window_span_sum_seconds\":%.4f,\"bytes_per_window\":%.1f}\n",
            row.backend, row.policy.worker_count(), in_flight, windows_per_s,
            total, span_sum, bytes_per_window);
      } else {
        std::printf("%12s %8u %10d %12.2f %12.4f %12.4f %14.1f\n",
                    row.backend, row.policy.worker_count(), in_flight,
                    windows_per_s, total, span_sum, bytes_per_window);
      }
    }
  }
  if (!json) {
    std::printf(
        "\ntakeaway: bytes per window are identical down the whole column "
        "(batching moves WHEN work runs, never what goes on the wire); on "
        "multi-core hosts total_s drops below span_sum_s as windows overlap "
        "— on a 1-core CI runner the two stay close and the win is the "
        "amortized thread spawn/join alone\n");
  }
  return 0;
}
