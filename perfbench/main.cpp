// pembench — the PEM window benchmark.
//
//   pembench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans FILE]
//
// --trace 0 runs the workload's day through core::RunSimulation,
// untraced, and prints the end-to-end metrics; --trace 1 is the
// separate traced run that prints the per-layer metrics (traced.cpp)
// and writes its spans to FILE.  Both check every executed window
// against the plaintext clearing oracle and exit 1 when any window
// fails the gate.  README.md defines every metric and workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "traced.h"
#include "workload.h"

namespace pembench {
namespace {

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  const Inputs in = MakeInputs(w, seed, DayWindows(w, seconds));
  const int sampled = SampledWindowCount(in);
  const double setup_s = MeasureSetup(in);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t executed = 0;
  uint64_t bytes = 0;
  int mix[3] = {0, 0, 0};
  double busy_s = 0.0;
  std::vector<double> market_window_s;
  std::vector<uint64_t> first_pass_bytes;

  const double cpu0 = SelfCpuSeconds() + ChildrenCpuSeconds();
  const Stopwatch run;
  double last_pass_s = 0.0;
  int passes = 0;
  // Closed loop over whole days: another day only while it fits.
  while (passes == 0 || run.ElapsedSeconds() + last_pass_s <= seconds) {
    ++passes;
    TrafficTap tap;
    core::SimulationConfig cfg = in.config;
    cfg.bus_observer = tap.Observer();
    core::SimulationResult result;
    const Stopwatch pass;
    try {
      result = core::RunSimulation(in.trace, cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pass %d failed: %s\n", passes, e.what());
      attempted += static_cast<uint64_t>(sampled);
      failed += static_cast<uint64_t>(sampled);
      break;
    }
    last_pass_s = pass.ElapsedSeconds();
    busy_s += last_pass_s - setup_s;

    const auto observed = tap.Split(result.windows);
    if (!observed) std::fprintf(stderr, "wire capture does not split\n");
    for (size_t i = 0; i < result.windows.size(); ++i) {
      const core::WindowRecord& rec = result.windows[i];
      ++attempted;
      ++executed;
      bytes += rec.bus_bytes;
      ++mix[static_cast<int>(rec.type)];
      if (rec.type != market::MarketType::kNoMarket) {
        market_window_s.push_back(rec.runtime_seconds);
      }
      std::string why;
      if (!observed ||
          !CheckWindow(in.trace, in.config, rec, result.resolved_states[i],
                       &(*observed)[i], &why)) {
        ++failed;
        if (!why.empty()) std::fprintf(stderr, "gate: %s\n", why.c_str());
      }
      if (passes == 1) first_pass_bytes.push_back(rec.bus_bytes);
    }
    if (result.windows.size() != static_cast<size_t>(sampled)) {
      std::fprintf(stderr, "pass %d executed %zu of %d windows\n", passes,
                   result.windows.size(), sampled);
      const uint64_t missing = static_cast<uint64_t>(sampled) -
                               std::min<uint64_t>(sampled, result.windows.size());
      attempted += missing;
      failed += missing;
    }
  }
  const double cpu_s = SelfCpuSeconds() + ChildrenCpuSeconds() - cpu0;
  const double peak_rss_kib =
      std::max(ProcStatusKib("VmHWM"), ChildrenMaxRssKib());

  // Every backend accounts identical bytes for an identical transcript,
  // so each forked workload must reproduce, window by window, the bus
  // bytes of one untimed in-process day on the serial bus; the two
  // forked workloads then agree exactly with each other too.
  if (w.forked() && failed == 0) {
    core::SimulationConfig cfg = in.config;
    cfg.policy = net::ExecutionPolicy::Serial();
    const core::SimulationResult ref = core::RunSimulation(in.trace, cfg);
    for (size_t i = 0; i < first_pass_bytes.size(); ++i) {
      if (i >= ref.windows.size() ||
          ref.windows[i].bus_bytes != first_pass_bytes[i]) {
        std::fprintf(stderr, "window %zu: bus bytes differ from the serial "
                     "bus\n", i);
        ++failed;
      }
    }
  }

  const Tail tail = TailOf(market_window_s);
  const double n_exec = static_cast<double>(std::max<uint64_t>(executed, 1));
  std::printf("workload %s seed %llu: %d days of %d windows (over all "
              "days: general %d, extreme %d, no-market %d), setup reps %d\n",
              w.name, static_cast<unsigned long long>(seed), passes, sampled,
              mix[0], mix[1], mix[2], kSetupRepetitions);
  std::printf("window_s_tail is p%.1f of %zu market windows (%zu beyond)\n",
              tail.percentile, market_window_s.size(), tail.beyond);
  std::printf("failed_window_ratio %.6g (%llu of %llu)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"window_s_p50", Median(market_window_s), "s"},
      {"window_s_tail", tail.value, "s"},
      {"windows_per_s", busy_s > 0 ? static_cast<double>(executed) / busy_s : 0,
       "1/s"},
      {"cpu_s_per_window", cpu_s / n_exec, "s"},
      {"bytes_per_home",
       2.0 * static_cast<double>(bytes) / (w.homes * n_exec), "B"},
      {"peak_rss_mb", peak_rss_kib / 1024.0, "MiB"},
  };
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "pembench: %s\nusage: pembench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\nworkloads:",
               why);
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace pembench

int main(int argc, char** argv) {
  using namespace pembench;
  std::string workload;
  std::string spans;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) return Usage("unknown workload");
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage("--seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }
  try {
    return trace == 1
               ? RunTraced(*w, static_cast<uint64_t>(seed), seconds, spans)
               : RunEndToEnd(*w, static_cast<uint64_t>(seed), seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pembench: %s\n", e.what());
    return 1;
  }
}
