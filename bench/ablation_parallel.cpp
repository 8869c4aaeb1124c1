// Ablation: the phase-parallel protocol engine.
//
// The paper runs each agent in its own container on an 8-core host, so
// the n ring encryptions of Protocols 2-4 happen concurrently; the
// serial engine times them sequentially, which is why its Fig. 5(a)
// numbers are ~8x the paper's.  This bench sweeps the worker count on
// the in-process bus, then the forked backends, and reports each
// configuration's per-window runtime and its speedup over the serial
// baseline.  The wire transcript is identical across all rows (see
// test_transcript_parity); only the wall clock moves.
#include <cstdio>

#include "bench/common.h"
#include "net/transport.h"
#include "util/parallel.h"

int main(int argc, char** argv) {
  using namespace pem;
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  const int homes = flags.homes > 0 ? flags.homes : 200;
  const int key_bits = 2048;

  bench::PrintHeader("Ablation",
                     "phase-parallel engine (2048-bit, n=200 default)");
  const grid::CommunityTrace trace = bench::MakeTrace(homes, flags.windows);

  const unsigned hw = DefaultThreads();
  // Always include 8 (the paper's core count) so the printed takeaway
  // has its reference row; add the machine's own count when bigger.
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (static_cast<int>(hw) > 8) thread_counts.push_back(static_cast<int>(hw));

  std::printf("%12s %10s %24s %10s\n", "transport", "threads",
              "avg runtime/window (s)", "speedup");
  double serial_baseline = 0.0;
  for (const int threads : thread_counts) {
    const net::ExecutionPolicy policy = net::ExecutionPolicy::Parallel(threads);
    const bench::CryptoWindowCost cost = bench::MeasureCryptoWindows(
        trace, key_bits, flags.samples, policy);
    if (threads == 1) serial_baseline = cost.avg_runtime_seconds;
    const double speedup = cost.avg_runtime_seconds > 0.0
                               ? serial_baseline / cost.avg_runtime_seconds
                               : 0.0;
    std::printf("%12s %10d %24.3f %9.2fx\n",
                net::TransportKindName(policy.transport_kind), threads,
                cost.avg_runtime_seconds, speedup);
  }
  // Forked backends: one OS process per agent, frames over real
  // socketpairs (process) or loopback TCP connections (tcp) through
  // the parent router.  Swept at a smaller community: each child
  // re-derives the full deterministic schedule (shadow compute) while
  // performing only its own wire I/O, so the point of these backends
  // is deployment realism — literal cross-process / network Table-I
  // bytes, real fork/IPC/TCP cost in the wall clock — not speedup.
  const int process_homes = homes < 12 ? homes : 12;
  const grid::CommunityTrace process_trace =
      bench::MakeTrace(process_homes, flags.windows);
  std::printf("\nforked backends (n=%d, one OS process per agent):\n",
              process_homes);
  std::printf("%12s %10s %24s %16s\n", "transport", "threads",
              "avg runtime/window (s)", "avg bytes/window");
  for (const net::TransportKind kind :
       {net::TransportKind::kProcess, net::TransportKind::kTcp}) {
    for (const int threads : {1, 4}) {
      const bench::CryptoWindowCost cost = bench::MeasureCryptoWindows(
          process_trace, key_bits, flags.samples,
          net::ExecutionPolicy{kind, threads});
      std::printf("%12s %10d %24.3f %16.0f\n", net::TransportKindName(kind),
                  threads, cost.avg_runtime_seconds, cost.avg_bus_bytes);
    }
  }

  std::printf(
      "\n(this machine reports %u hardware threads)\n"
      "takeaway: the compute phase (one r^n exponentiation per ring member)\n"
      "scales down with workers until the sequential forward pass and the GC\n"
      "comparison dominate — the paper's ~1 s/window on 8 ARM cores is\n"
      "consistent with the 8-thread point on comparable hardware; the\n"
      "forked backends (fork-per-agent socketpairs, and loopback\n"
      "TCP with rendezvous + TCP_NODELAY) pay the syscall + frame-codec\n"
      "cost of a real per-container deployment plus shadow re-derivation\n"
      "per child — their bytes, not their wall clock, are the\n"
      "paper-faithful number\n",
      hw);
  return 0;
}
