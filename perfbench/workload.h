// Shared pieces of pembench: the named workloads and their seeded
// inputs, the observer tap that recovers each window's frames and
// trades from the wire, the plaintext-oracle correctness gate, and
// the small statistics, resource and output helpers both run modes
// use.  Everything here sits outside src/: the benchmark drives the
// library through its public headers only.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "grid/trace.h"
#include "net/transport.h"
#include "util/stopwatch.h"

namespace pembench {

namespace core = pem::core;
namespace crypto = pem::crypto;
namespace grid = pem::grid;
namespace market = pem::market;
namespace net = pem::net;
namespace protocol = pem::protocol;
using pem::Stopwatch;

// One benchmark workload: a community, a key size and an execution
// model.  Every workload is closed-loop: one benchmark process runs the
// sampled windows back to back (or windows_in_flight at once).
struct Workload {
  const char* name = "";
  int homes = 0;
  int key_bits = 0;
  net::ExecutionPolicy policy;
  bool precompute = false;
  size_t pool_target = 0;
  int windows_in_flight = 1;
  // Nominal seconds one sampled window costs on the reference host in
  // its slow regime (README.md).  Sizes a day so that it fits in
  // --seconds; never measured at run time, so a seed and a run length
  // always select the same windows.
  double nominal_window_s = 1.0;

  bool forked() const;
};

// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The generated inputs of one run: the community's day trace and a
// crypto-engine config that samples evenly spaced windows from the
// daylight span (first to last window in which a market forms).
struct Inputs {
  grid::TraceConfig trace_config;
  grid::CommunityTrace trace;
  core::SimulationConfig config;
};

// Samples `windows` (>= 1) windows from the daylight span; `seed`
// draws the crypto seed.
Inputs MakeInputs(const Workload& w, uint64_t seed, int windows);

// How many windows a day of `w` samples so that it fills `seconds`
// at the workload's nominal window cost (at least 4).
int DayWindows(const Workload& w, double seconds);
// The number of windows inputs.config samples.
int SampledWindowCount(const Inputs& inputs);

// Zero-window repetitions behind setup_s; the median is reported.
inline constexpr int kSetupRepetitions = 51;

// Workload start to the first window, measured from outside: trace
// generation plus RunSimulation of the same configuration with no
// sampled window (transport construction, fork and shm mapping,
// parties, battery resolution through the day).  The median of
// kSetupRepetitions runs.
double MeasureSetup(const Inputs& inputs);

// Wire traffic of one pass, captured through SimulationConfig's
// bus_observer and split into windows afterwards.
struct ObservedTrade {
  net::AgentId seller = -1;
  net::AgentId buyer = -1;
  double energy_kwh = 0.0;
  double payment = 0.0;
  bool has_energy = false;
  bool has_payment = false;
};

struct ObservedWindow {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  std::vector<ObservedTrade> trades;
};

class TrafficTap {
 public:
  // The observer to install; it records into this tap.  The tap must
  // outlive every transport the observer is installed on.
  net::Transport::Observer Observer();

  // Splits the captured frames into the records' windows by their
  // framed sizes: windows run in order on every workload, so window
  // i's frames are the next records[i].bus_bytes bytes of the
  // capture.  Returns nullopt when the capture does not split exactly.
  std::optional<std::vector<ObservedWindow>> Split(
      const std::vector<core::WindowRecord>& records) const;

  // Frame payload sizes, for the transport frame-rate probe.
  std::vector<uint64_t> PayloadSizes() const;

 private:
  struct Frame {
    net::AgentId from = -1;
    net::AgentId to = -1;
    uint32_t type = 0;
    uint64_t payload = 0;
    double value = 0.0;  // energy or payment, for the two trade tags
  };
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
};

// The correctness gate of one executed window: `record` (and, when
// given, the trades seen on the wire) against market::ClearMarket on
// the same resolved states.  On a miss, writes the reason to `why`.
bool CheckWindow(const grid::CommunityTrace& trace,
                 const core::SimulationConfig& config,
                 const core::WindowRecord& record,
                 const std::vector<grid::WindowState>& states,
                 const ObservedWindow* observed, std::string* why);

// --- statistics -------------------------------------------------------

double Median(std::vector<double> v);
// The highest percentile of `v` with at least 10 samples above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

// --- process resources ------------------------------------------------

// User + system CPU seconds of this process, and of its waited-for
// children.
double SelfCpuSeconds();
double ChildrenCpuSeconds();
// A /proc/self/status field in KiB ("VmHWM", "VmPeak"); 0 if absent.
double ProcStatusKib(const char* field);
double ChildrenMaxRssKib();

// --- output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Prints every metric as a human line, then the one-line JSON result
// that is the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace pembench
