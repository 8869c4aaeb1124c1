#include "core/simulation.h"

#include <algorithm>
#include <memory>

#include "crypto/rng.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "net/tcp_transport.h"
#include "protocol/agent_driver.h"
#include "protocol/key_directory.h"
#include "protocol/window_scheduler.h"
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

// A WindowRecord pre-filled with the window's baseline outcome.
WindowRecord BaselineRecord(int w,
                            std::span<const market::AgentWindowInput> inputs,
                            const SimulationConfig& config) {
  const market::BaselineOutcome baseline =
      market::ComputeBaseline(inputs, config.pem.market);
  WindowRecord rec;
  rec.window = w;
  rec.buyer_cost_baseline = baseline.buyer_total_cost;
  rec.grid_interaction_baseline = baseline.GridInteraction();
  return rec;
}

// The plaintext oracle's outcome in the report shape the crypto engine
// produces, so one function fills every record.
protocol::WindowReport ClearingReport(int w, const market::MarketOutcome& o) {
  protocol::WindowReport report;
  report.window = w;
  report.type = o.type;
  report.price = o.price;
  report.supply_total = o.supply_total;
  report.demand_total = o.demand_total;
  report.buyer_total_cost = o.buyer_total_cost;
  report.grid_import_kwh = o.grid_import_kwh;
  report.grid_export_kwh = o.grid_export_kwh;
  report.num_sellers = o.CountRole(grid::Role::kSeller);
  report.num_buyers = o.CountRole(grid::Role::kBuyer);
  return report;
}

// Copies a finished window's public outcome into its record (all but
// runtime_seconds, which depends on how the engine charges time).
void FillRecord(WindowRecord& rec, const protocol::WindowReport& report) {
  PEM_CHECK(rec.window == report.window, "simulation: window mismatch");
  rec.type = report.type;
  rec.price = report.price;
  rec.num_sellers = report.num_sellers;
  rec.num_buyers = report.num_buyers;
  rec.supply_total = report.supply_total;
  rec.demand_total = report.demand_total;
  rec.buyer_cost_pem = report.buyer_total_cost;
  rec.grid_interaction_pem = report.grid_import_kwh + report.grid_export_kwh;
  rec.bus_bytes = report.bus_bytes;
  rec.rng_cursor = report.rng_cursor;
  rec.audit = report.audit;
}

// The protocol state a crypto day evolves: the seeded rng, the parties
// and their cached keys, the randomness pools, the key directory and
// the batteries.  The in-process engine drives one replica; under a
// forked backend every child drives its own fork copy through its
// AgentDriver callbacks.  Both call the same two hooks in the same
// order, so all replicas evolve identical state from the shared seed.
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
            config_.policy,
            &directory_};
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
  // have elected new aggregators (and minted their keys), so owners
  // are registered first and the refill exponentiates mod p^2/q^2.
  // The refill fans out across the policy's workers without moving
  // the factor order.
  void Refill() {
    if (!config_.pem.precompute_encryption) return;
    if (config_.pem.crt_encryption) {
      for (const protocol::Party& p : parties_) {
        if (p.HasKeys()) pools_.AttachOwner(p.private_key());
      }
    }
    pools_.RefillAll(config_.pem.encryption_pool_target, rng_, config_.policy);
  }

 private:
  // Every window with an event advances the key directory epoch once,
  // so a rejoining agent may announce a fresh key.
  void ApplyChurn(int w) {
    bool epoch_advanced = false;
    for (const ChurnEvent& e : config_.churn) {
      if (e.window != w) continue;
      if (!epoch_advanced) {
        directory_.AdvanceEpoch();
        epoch_advanced = true;
      }
      parties_[static_cast<size_t>(e.agent)].SetActive(e.join);
      if (!e.join) directory_.Retire(e.agent);
    }
  }

  const grid::CommunityTrace& trace_;
  const SimulationConfig& config_;
  crypto::DeterministicRng rng_;
  std::vector<protocol::Party> parties_;
  crypto::PaillierPoolRegistry pools_;
  protocol::KeyDirectory directory_;
  std::vector<grid::Battery> batteries_;
  int next_window_ = 0;
  std::vector<grid::WindowState> states_;
};

// Forks one agent process per home on the policy's backend (inherited
// socketpairs, a loopback TCP rendezvous, or shared-memory rings).
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

  const net::TransportOptions& topts = config.policy.transport;
  if (config.policy.transport_kind == net::TransportKind::kTcp) {
    net::TcpTransport::Options opts;
    opts.watchdog_ms = topts.watchdog_ms;
    opts.host = topts.tcp_host;
    opts.port = topts.tcp_port;
    return std::make_unique<net::TcpTransport>(num_homes, child_main,
                                               std::move(opts));
  }
  if (config.policy.transport_kind == net::TransportKind::kShm) {
    net::ShmTransport::Options opts;
    opts.watchdog_ms = topts.watchdog_ms;
    opts.ring_bytes = topts.shm_ring_bytes;
    return std::make_unique<net::ShmTransport>(num_homes, child_main, opts);
  }
  net::ProcessTransport::Options opts;
  opts.watchdog_ms = topts.watchdog_ms;
  return std::make_unique<net::ProcessTransport>(num_homes, child_main, opts);
}

// One batch on the in-process bus: every agent's side of each window
// runs on this thread, through the same replica hooks a forked child's
// AgentDriver calls.  A window is charged its own protocol time; the
// idle-time refill stays outside it.
std::vector<protocol::CollectedWindow> RunInProcessBatch(
    ProtocolReplica& replica, std::span<net::Endpoint> endpoints,
    protocol::WindowScheduler& scheduler, std::span<const int> batch) {
  protocol::ProtocolContext ctx = replica.Context(endpoints);
  // Fused batches share one persistent worker team across every
  // compute phase; otherwise each phase keeps its per-call pool.
  ctx.scheduler = scheduler.fused() ? &scheduler : nullptr;
  std::vector<protocol::CollectedWindow> out;
  out.reserve(batch.size());
  for (const int w : batch) {
    replica.Begin(w);
    const protocol::PemWindowResult result =
        protocol::RunPemWindow(ctx, replica.parties(), w);
    protocol::CollectedWindow cw;
    cw.window = w;
    cw.report = protocol::MakeWindowReport(w, result, replica.parties());
    cw.parent_seconds = result.runtime_seconds;
    replica.Refill();
    out.push_back(std::move(cw));
  }
  return out;
}

// The parent's prepass: battery dynamics advance through every
// window, and each sampled window gets its baseline record (the
// plaintext engine clears its market right here).  The crypto replicas
// re-resolve their own batteries, so nothing else reads this state.
// Returns the sampled windows, in order.
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
    WindowRecord rec = BaselineRecord(w, inputs, config);
    if (config.engine == Engine::kPlaintext) {
      FillRecord(rec, ClearingReport(
                          w, market::ClearMarket(inputs, config.pem.market)));
    }
    result.windows.push_back(std::move(rec));
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
  PEM_CHECK(config.windows_in_flight >= 1, "windows_in_flight must be >= 1");
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
  // Batches keep up to windows_in_flight sampled windows in flight:
  // in-process they share one compute team, forked they pipeline the
  // run commands so the children overlap.  A forked parent computes
  // nothing, so it spawns no team (and no thread ever precedes a fork).
  protocol::WindowScheduler scheduler(
      {config.windows_in_flight, forked ? 1u : config.policy.worker_count()});
  size_t next = 0;
  for (const std::vector<int>& batch : protocol::WindowScheduler::PlanBatches(
           sampled, config.windows_in_flight)) {
    const std::vector<protocol::CollectedWindow> collected =
        forked ? scheduler.RunForkedBatch(*agents, batch)
               : RunInProcessBatch(replica, endpoints, scheduler, batch);
    double batch_seconds = 0.0;
    for (const protocol::CollectedWindow& cw : collected) {
      WindowRecord& rec = result.windows[next++];
      FillRecord(rec, cw.report);
      rec.runtime_seconds = cw.parent_seconds;
      // In-process windows run one after another, so their times add
      // up.  Forked windows in flight share the batch's wall clock
      // (dispatch to each window's last report, IPC included), so the
      // day charges each batch once, its max; the sum would
      // double-count the overlap.
      batch_seconds = forked ? std::max(batch_seconds, cw.parent_seconds)
                             : batch_seconds + cw.parent_seconds;
      result.total_bus_bytes += rec.bus_bytes;
    }
    result.total_runtime_seconds += batch_seconds;
  }
  if (agents) agents->Shutdown();
  return result;
}

}  // namespace pem::core
