#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "market/clearing.h"
#include "net/frame.h"
#include "net/serialize.h"
#include "protocol/context.h"

namespace pembench {

namespace {

Workload MakeWorkload(const char* name, int homes, int key_bits,
                      net::ExecutionPolicy policy, double nominal_window_s) {
  Workload w;
  w.name = name;
  w.homes = homes;
  w.key_bits = key_bits;
  w.policy = policy;
  w.nominal_window_s = nominal_window_s;
  return w;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> out;
  // The paper's Fig. 5(a) key size on one core: modexp and garbled
  // compare are nearly the whole window.
  out.push_back(MakeWorkload("serial-2048", 32, 2048,
                             net::ExecutionPolicy::Serial(), 1.40));
  // The idle-time mode: pooled encryptions inside the window, the r^n
  // work moved into the between-window refill, on the worker team and
  // the locked bus.
  Workload pooled = MakeWorkload("pooled-parallel-2048", 32, 2048,
                                 net::ExecutionPolicy::Parallel(4), 0.33);
  pooled.precompute = true;
  pooled.pool_target = 64;
  pooled.windows_in_flight = 4;
  out.push_back(pooled);
  // The per-container deployment: socketpairs and the parent's router,
  // and the shm rings that bypass it.
  Workload process = MakeWorkload("forked-process-1024", 8, 1024,
                                  net::ExecutionPolicy::Process(1), 0.30);
  out.push_back(process);
  Workload shm = MakeWorkload("forked-shm-1024", 8, 1024,
                              net::ExecutionPolicy::Shm(1), 0.30);
  out.push_back(shm);
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

constexpr int kWindowsPerDay = 720;

// The community is the trace generator's default day, the same for
// every seed, so runs on different seeds measure the same market
// windows; the seed draws the protocol randomness (keys, nonces,
// elections).
grid::TraceConfig TraceConfigFor(const Workload& w) {
  grid::TraceConfig cfg;
  cfg.num_homes = w.homes;
  cfg.windows_per_day = kWindowsPerDay;
  return cfg;
}

// The crypto path carries quantities as fixed-point integers (µkWh,
// and ratios scaled by 2^40), so it matches the double-precision oracle
// to a few parts in 10^7; the gate allows 2 parts in 10^6.
bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 + 2e-6 * std::max(std::fabs(a), std::fabs(b));
}

const char* TypeName(market::MarketType t) {
  switch (t) {
    case market::MarketType::kGeneral: return "general";
    case market::MarketType::kExtreme: return "extreme";
    case market::MarketType::kNoMarket: return "no-market";
  }
  return "?";
}

}  // namespace

bool Workload::forked() const {
  return policy.transport_kind == net::TransportKind::kProcess ||
         policy.transport_kind == net::TransportKind::kShm ||
         policy.transport_kind == net::TransportKind::kTcp;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const Workload& w : Workloads()) out.emplace_back(w.name);
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, int windows) {
  Inputs in;
  in.trace_config = TraceConfigFor(w);
  in.trace = grid::GenerateCommunityTrace(in.trace_config);

  // The daylight span: the first to the last window in which the
  // plaintext oracle forms a market.
  core::SimulationConfig plain;
  plain.engine = core::Engine::kPlaintext;
  const core::SimulationResult day = core::RunSimulation(in.trace, plain);
  int first = -1;
  int last = -1;
  for (const core::WindowRecord& r : day.windows) {
    if (r.type == market::MarketType::kNoMarket) continue;
    if (first < 0) first = r.window;
    last = r.window;
  }
  if (first < 0) throw std::runtime_error("trace has no market window");

  // `windows` evenly spaced windows from the first market window; the
  // trace ends at the last sampled one, so the day has no trailing
  // evening (no-market, 0 s) windows.
  const int span = last - first + 1;
  const int count = std::min(windows, span);
  const int stride = span / count;
  in.trace.windows_per_day = first + (count - 1) * stride + 1;

  core::SimulationConfig& c = in.config;
  c.engine = core::Engine::kCrypto;
  c.pem.key_bits = w.key_bits;
  c.pem.precompute_encryption = w.precompute;
  if (w.precompute) c.pem.encryption_pool_target = w.pool_target;
  c.policy = w.policy;
  c.windows_in_flight = w.windows_in_flight;
  c.window_offset = first;
  c.window_stride = stride;
  c.record_states = true;
  c.crypto_seed = seed * 0x9E3779B97F4A7C15ull + 1;
  return in;
}

int DayWindows(const Workload& w, double seconds) {
  return std::max(4, static_cast<int>(seconds / w.nominal_window_s + 0.5));
}

int SampledWindowCount(const Inputs& inputs) {
  const core::SimulationConfig& c = inputs.config;
  return (inputs.trace.windows_per_day - 1 - c.window_offset) /
             c.window_stride +
         1;
}

double MeasureSetup(const Inputs& inputs) {
  core::SimulationConfig zero = inputs.config;
  zero.window_offset = inputs.trace.windows_per_day;  // samples no window
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const Stopwatch sw;
    grid::CommunityTrace trace =
        grid::GenerateCommunityTrace(inputs.trace_config);
    trace.windows_per_day = inputs.trace.windows_per_day;
    const core::SimulationResult r = core::RunSimulation(trace, zero);
    if (!r.windows.empty()) throw std::runtime_error("set-up ran a window");
    samples.push_back(sw.ElapsedSeconds());
  }
  return Median(samples);
}

// --- TrafficTap -------------------------------------------------------

net::Transport::Observer TrafficTap::Observer() {
  return [this](const net::Message& m) {
    Frame f;
    f.from = m.from;
    f.to = m.to;
    f.type = m.type;
    f.payload = m.payload.size();
    if (m.type == protocol::kMsgEnergyTransfer ||
        m.type == protocol::kMsgPayment) {
      net::ByteReader r(m.payload);
      (void)r.U32();
      f.value = r.F64();
    }
    const std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(f);
  };
}

std::optional<std::vector<ObservedWindow>> TrafficTap::Split(
    const std::vector<core::WindowRecord>& records) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObservedWindow> out(records.size());
  size_t next = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    ObservedWindow& win = out[i];
    // Trade messages keyed by (seller, buyer): the energy transfer
    // goes seller -> buyer, the payment buyer -> seller.
    std::map<std::pair<net::AgentId, net::AgentId>, size_t> trade_at;
    auto trade = [&](net::AgentId seller, net::AgentId buyer) -> ObservedTrade& {
      auto [it, fresh] = trade_at.try_emplace({seller, buyer}, win.trades.size());
      if (fresh) win.trades.push_back(ObservedTrade{seller, buyer});
      return win.trades[it->second];
    };
    while (win.bytes < records[i].bus_bytes && next < frames_.size()) {
      const Frame& f = frames_[next++];
      win.bytes += net::FramedSize(f.payload);
      ++win.frames;
      if (f.type == protocol::kMsgEnergyTransfer) {
        ObservedTrade& t = trade(f.from, f.to);
        if (t.has_energy) return std::nullopt;
        t.energy_kwh = f.value;
        t.has_energy = true;
      } else if (f.type == protocol::kMsgPayment) {
        ObservedTrade& t = trade(f.to, f.from);
        if (t.has_payment) return std::nullopt;
        t.payment = f.value;
        t.has_payment = true;
      }
    }
    if (win.bytes != records[i].bus_bytes) return std::nullopt;
  }
  if (next != frames_.size()) return std::nullopt;
  return out;
}

std::vector<uint64_t> TrafficTap::PayloadSizes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(frames_.size());
  for (const Frame& f : frames_) out.push_back(f.payload);
  return out;
}

// --- correctness gate -------------------------------------------------

bool CheckWindow(const grid::CommunityTrace& trace,
                 const core::SimulationConfig& config,
                 const core::WindowRecord& record,
                 const std::vector<grid::WindowState>& states,
                 const ObservedWindow* observed, std::string* why) {
  char buf[256];
  auto fail = [&](const char* what, double got, double want) {
    std::snprintf(buf, sizeof(buf), "window %d: %s %.9g, oracle %.9g",
                  record.window, what, got, want);
    *why = buf;
    return false;
  };
  std::vector<market::AgentWindowInput> inputs(states.size());
  for (size_t h = 0; h < states.size(); ++h) {
    inputs[h] = market::AgentWindowInput{trace.homes[h].params, states[h]};
  }
  const market::MarketOutcome oracle =
      market::ClearMarket(inputs, config.pem.market);

  if (record.type != oracle.type) {
    std::snprintf(buf, sizeof(buf), "window %d: market %s, oracle %s",
                  record.window, TypeName(record.type), TypeName(oracle.type));
    *why = buf;
    return false;
  }
  if (!Near(record.price, oracle.price)) {
    return fail("price", record.price, oracle.price);
  }
  if (!Near(record.supply_total, oracle.supply_total)) {
    return fail("supply", record.supply_total, oracle.supply_total);
  }
  if (!Near(record.demand_total, oracle.demand_total)) {
    return fail("demand", record.demand_total, oracle.demand_total);
  }
  if (record.num_sellers != oracle.CountRole(grid::Role::kSeller)) {
    return fail("sellers", record.num_sellers,
                oracle.CountRole(grid::Role::kSeller));
  }
  if (record.num_buyers != oracle.CountRole(grid::Role::kBuyer)) {
    return fail("buyers", record.num_buyers,
                oracle.CountRole(grid::Role::kBuyer));
  }
  if (!Near(record.buyer_cost_pem, oracle.buyer_total_cost)) {
    return fail("buyer cost", record.buyer_cost_pem, oracle.buyer_total_cost);
  }
  if (!Near(record.grid_interaction_pem, oracle.GridInteraction())) {
    return fail("grid interaction", record.grid_interaction_pem,
                oracle.GridInteraction());
  }
  if (observed == nullptr) return true;

  // Trades: one per (seller, buyer) pair of a formed market, each
  // moving the oracle's pairwise allocation at the window price.
  size_t expected = 0;
  if (oracle.type != market::MarketType::kNoMarket) {
    expected = static_cast<size_t>(oracle.CountRole(grid::Role::kSeller)) *
               static_cast<size_t>(oracle.CountRole(grid::Role::kBuyer));
  }
  if (observed->trades.size() != expected) {
    return fail("trade count", static_cast<double>(observed->trades.size()),
                static_cast<double>(expected));
  }
  for (const ObservedTrade& t : observed->trades) {
    if (!t.has_energy || !t.has_payment) {
      return fail("half-delivered trade with seller", t.seller, -1);
    }
    const double want = market::PairwiseAllocation(oracle, t.seller, t.buyer);
    if (want <= 0.0 || !Near(t.energy_kwh, want)) {
      return fail("trade energy", t.energy_kwh, want);
    }
    if (!Near(t.payment, oracle.price * want)) {
      return fail("trade payment", t.payment, oracle.price * want);
    }
  }
  return true;
}

// --- statistics -------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // The sample at rank n-11 (0-based) has exactly ten above it; with
  // ten or fewer samples no percentile qualifies, so report the max.
  const size_t rank = n > 10 ? n - 11 : n - 1;
  t.value = v[rank];
  t.beyond = n - 1 - rank;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

// --- process resources ------------------------------------------------

namespace {

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

double SelfCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ChildrenCpuSeconds() { return CpuSeconds(RUSAGE_CHILDREN); }

double ProcStatusKib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

double ChildrenMaxRssKib() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// --- output -----------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pembench
