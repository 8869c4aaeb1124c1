#include "core/simulation.h"

#include <memory>

#include "crypto/rng.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "protocol/agent_driver.h"
#include "util/error.h"

namespace pem::core {

double SimulationResult::AverageRuntimeSeconds() const {
  if (windows.empty()) return 0.0;
  return total_runtime_seconds / static_cast<double>(windows.size());
}

double SimulationResult::AverageBusBytes() const {
  if (windows.empty()) return 0.0;
  return static_cast<double>(total_bus_bytes) /
         static_cast<double>(windows.size());
}

namespace {

// Resolves window `w` for every home, advancing the battery dynamics.
// Shared by the parent prepass and every protocol replica, so all of
// them evolve bit-identical window state.
std::vector<grid::WindowState> ResolveCommunityWindow(
    const grid::CommunityTrace& trace, int w,
    std::vector<grid::Battery>& batteries) {
  const int num_homes = trace.num_homes();
  std::vector<grid::WindowState> states(static_cast<size_t>(num_homes));
  for (int h = 0; h < num_homes; ++h) {
    states[static_cast<size_t>(h)] = trace.ResolveWindow(h, w, batteries);
  }
  return states;
}

bool WindowSampled(const SimulationConfig& config, int w) {
  return w >= config.window_offset &&
         (w - config.window_offset) % config.window_stride == 0;
}

std::vector<market::AgentWindowInput> BuildWindowInputs(
    const grid::CommunityTrace& trace,
    std::span<const grid::WindowState> states) {
  const int num_homes = trace.num_homes();
  std::vector<market::AgentWindowInput> inputs(static_cast<size_t>(num_homes));
  for (int h = 0; h < num_homes; ++h) {
    inputs[static_cast<size_t>(h)] = market::AgentWindowInput{
        trace.homes[static_cast<size_t>(h)].params,
        states[static_cast<size_t>(h)]};
  }
  return inputs;
}

// The protocol state a crypto day evolves: the seeded rng, the parties
// and their cached keys, the randomness pools and the batteries.  The
// in-process engine drives one replica; under a forked backend every
// child drives its own fork copy through its AgentDriver callbacks.
// Both call the same two hooks in the same order, so all replicas
// evolve identical state from the shared seed.
class ProtocolReplica {
 public:
  ProtocolReplica(const grid::CommunityTrace& trace,
                  const SimulationConfig& config)
      : trace_(trace),
        config_(config),
        rng_(config.crypto_seed),
        batteries_(trace.MakeBatteries()) {
    parties_.reserve(static_cast<size_t>(trace.num_homes()));
    for (int h = 0; h < trace.num_homes(); ++h) {
      parties_.emplace_back(static_cast<net::AgentId>(h),
                            trace.homes[static_cast<size_t>(h)].params);
    }
  }

  protocol::ProtocolContext Context(std::span<net::Endpoint> endpoints) {
    return {endpoints,
            rng_,
            config_.pem,
            config_.pem.precompute_encryption ? &pools_ : nullptr,
            config_.policy};
  }

  std::span<protocol::Party> parties() { return parties_; }

  // Advances the roster and the battery dynamics through window `w`
  // (the windows the sampling skips included), then draws every
  // party's window randomness.  Inactive parties still draw, so churn
  // never shifts another agent's stream.
  void Begin(int w) {
    PEM_CHECK(w >= next_window_, "simulation: windows begun out of order");
    for (; next_window_ <= w; ++next_window_) {
      ApplyChurn(next_window_);
      states_ = ResolveCommunityWindow(trace_, next_window_, batteries_);
    }
    for (size_t h = 0; h < parties_.size(); ++h) {
      parties_[h].BeginWindow(states_[h], config_.pem.nonce_bound, rng_);
    }
  }

  // Idle-time phase after a window: tops the pools back up so the next
  // window's encryptions are one multiplication each.  The window may
  // have elected new aggregators (and minted their keys), so their
  // pools are registered first.  The refill fans out across the
  // policy's workers without moving the factor order.
  void Refill() {
    if (!config_.pem.precompute_encryption) return;
    for (const protocol::Party& p : parties_) {
      if (p.HasKeys()) (void)pools_.PoolFor(p.public_key());
    }
    pools_.RefillAll(config_.pem.encryption_pool_target, rng_, config_.policy);
  }

 private:
  void ApplyChurn(int w) {
    for (const ChurnEvent& e : config_.churn) {
      if (e.window != w) continue;
      parties_[static_cast<size_t>(e.agent)].SetActive(e.join);
    }
  }

  const grid::CommunityTrace& trace_;
  const SimulationConfig& config_;
  crypto::DeterministicRng rng_;
  std::vector<protocol::Party> parties_;
  crypto::PaillierPoolRegistry pools_;
  std::vector<grid::Battery> batteries_;
  int next_window_ = 0;
  std::vector<grid::WindowState> states_;
};

// Forks one agent process per home on the policy's backend (inherited
// socketpairs or shared-memory rings), each with its default options.
// Each child serves the parent's window commands with an AgentDriver
// over its fork copy of `replica`; the parent never runs protocol code
// — it schedules windows, routes frames and merges the reports (see
// protocol/agent_driver.h).
std::unique_ptr<net::AgentSupervisor> LaunchAgents(
    int num_homes, const SimulationConfig& config, ProtocolReplica& replica) {
  net::AgentSupervisor::ChildMain child_main =
      [&replica](net::AgentId self, net::Transport& wire,
                 net::ControlChannel& ctl) -> int {
    std::vector<net::Endpoint> endpoints = wire.endpoints();
    protocol::ProtocolContext ctx = replica.Context(endpoints);
    protocol::AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&replica](int w) { replica.Begin(w); };
    callbacks.after_window = [&replica](int) { replica.Refill(); };
    protocol::AgentDriver driver(self, ctx, replica.parties(), callbacks);
    driver.Serve(ctl);
    return 0;
  };

  if (config.policy.transport_kind == net::TransportKind::kShm) {
    return std::make_unique<net::ShmTransport>(num_homes, child_main);
  }
  return std::make_unique<net::ProcessTransport>(num_homes, child_main);
}

// The parent's prepass: battery dynamics advance through every
// window, and each sampled window gets its baseline (the plaintext
// engine clears its market right here).  The crypto replicas re-resolve
// their own batteries, so nothing else reads this state.  Returns the
// sampled windows, in order.
std::vector<int> Prepass(const grid::CommunityTrace& trace,
                         const SimulationConfig& config,
                         SimulationResult& result) {
  std::vector<int> sampled;
  std::vector<grid::Battery> batteries = trace.MakeBatteries();
  for (int w = 0; w < trace.windows_per_day; ++w) {
    std::vector<grid::WindowState> states =
        ResolveCommunityWindow(trace, w, batteries);
    if (!WindowSampled(config, w)) continue;
    const std::vector<market::AgentWindowInput> inputs =
        BuildWindowInputs(trace, states);
    result.baselines.push_back(
        market::ComputeBaseline(inputs, config.pem.market));
    if (config.engine == Engine::kPlaintext) {
      const market::MarketOutcome o =
          market::ClearMarket(inputs, config.pem.market);
      protocol::WindowRecord& rec = result.windows.emplace_back();
      rec.window = w;
      rec.type = o.type;
      rec.price = o.price;
      rec.supply_total = o.supply_total;
      rec.demand_total = o.demand_total;
      rec.num_sellers = o.CountRole(grid::Role::kSeller);
      rec.num_buyers = o.CountRole(grid::Role::kBuyer);
      rec.buyer_cost_pem = o.buyer_total_cost;
      rec.grid_interaction_pem = o.GridInteraction();
    }
    if (config.record_states) {
      result.resolved_states.push_back(std::move(states));
    }
    sampled.push_back(w);
  }
  return sampled;
}

}  // namespace

SimulationResult RunSimulation(const grid::CommunityTrace& trace,
                               const SimulationConfig& config) {
  PEM_CHECK(config.window_stride >= 1, "window stride must be >= 1");
  PEM_CHECK(config.window_offset >= 0, "window offset must be >= 0");
  PEM_CHECK(config.policy.transport_kind != net::TransportKind::kTcp,
            "simulation: TransportKind::kTcp selects no backend");
  for (const ChurnEvent& e : config.churn) {
    PEM_CHECK(e.agent >= 0 && e.agent < trace.num_homes(),
              "churn event names an agent outside the trace");
    PEM_CHECK(e.window >= 0 && e.window < trace.windows_per_day,
              "churn event window lies outside the day");
  }
  config.pem.market.Validate();

  SimulationResult result;
  if (config.engine == Engine::kPlaintext) {
    (void)Prepass(trace, config, result);
    return result;
  }

  // Crypto engine.  The replica exists before any fork, so every child
  // inherits the same snapshot: the shared seed is what lets n
  // independent processes re-derive one deterministic schedule.
  ProtocolReplica replica(trace, config);
  const bool forked =
      config.policy.transport_kind != net::TransportKind::kSerialBus;
  std::unique_ptr<net::AgentSupervisor> agents;
  std::unique_ptr<net::Transport> bus;
  std::vector<net::Endpoint> endpoints;
  if (forked) {
    agents = LaunchAgents(trace.num_homes(), config, replica);
    if (config.bus_observer) agents->SetObserver(config.bus_observer);
  } else {
    bus = net::MakeTransport(config.policy.transport_kind, trace.num_homes());
    if (config.bus_observer) bus->SetObserver(config.bus_observer);
    endpoints = bus->endpoints();
  }
  // The prepass runs after the fork, so the children inherit none of
  // its records and start up while it runs.
  const std::vector<int> sampled = Prepass(trace, config, result);
  // One window at a time.  In-process, every agent's side runs on this
  // thread through the same replica hooks a forked child's AgentDriver
  // calls, and the idle-time refill stays outside the window's time;
  // forked, the children run the window lock-step and the parent
  // cross-checks their reports.
  for (const int w : sampled) {
    protocol::WindowRecord rec;
    if (forked) {
      rec = protocol::RunForkedWindow(*agents, w);
    } else {
      protocol::ProtocolContext ctx = replica.Context(endpoints);
      replica.Begin(w);
      rec = protocol::RunPemWindow(ctx, replica.parties(), w).record;
      replica.Refill();
    }
    result.total_runtime_seconds += rec.runtime_seconds;
    result.total_bus_bytes += rec.bus_bytes;
    result.windows.push_back(std::move(rec));
  }
  if (agents) agents->Shutdown();
  return result;
}

}  // namespace pem::core
