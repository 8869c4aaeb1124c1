#include "core/simulation.h"

#include "crypto/rng.h"
#include "net/process_transport.h"
#include "protocol/key_directory.h"
#include "net/serialize.h"
#include "net/shm_transport.h"
#include "net/tcp_transport.h"
#include "protocol/agent_driver.h"
#include "protocol/window_scheduler.h"
#include "util/error.h"
#include "util/stopwatch.h"

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
// Shared by the main loop, the process-mode parent, and the forked
// children, so all three evolve bit-identical window state.
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

// Applies the roster changes scheduled for window `w`.  Runs for EVERY
// window (sampled or not, and inside each forked child's catch-up
// loop), so the roster and directory epoch evolve identically in the
// parent and in all n independent replays.
void ApplyChurn(const SimulationConfig& config, int w,
                std::span<protocol::Party> parties,
                protocol::KeyDirectory& directory) {
  bool epoch_advanced = false;
  for (const ChurnEvent& e : config.churn) {
    if (e.window != w) continue;
    if (!epoch_advanced) {
      directory.AdvanceEpoch();
      epoch_advanced = true;
    }
    for (protocol::Party& p : parties) {
      if (p.id() == e.agent) p.SetActive(e.join);
    }
    if (!e.join) directory.Retire(e.agent);
  }
}

// The public per-window bookkeeping both engine drivers share.
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

// One OS process per agent (ExecutionPolicy::Process() over inherited
// socketpairs, ExecutionPolicy::Tcp() over a loopback TCP rendezvous).
// The parent never runs protocol code: it schedules windows over the
// control channels, routes the children's frames, and merges their
// reports; each child executes its own agent's side of every phase
// against the state snapshot it inherited at fork time (see
// protocol/agent_driver.h for the execution model).
SimulationResult RunSimulationProcess(const grid::CommunityTrace& trace,
                                      const SimulationConfig& config) {
  const int num_homes = trace.num_homes();
  SimulationResult result;

  std::vector<grid::Battery> batteries = trace.MakeBatteries();

  // Template protocol state.  Created before the fork so every child
  // inherits the same snapshot: the shared seed is what lets n
  // independent processes re-derive one deterministic schedule.
  crypto::DeterministicRng rng(config.crypto_seed);
  std::vector<protocol::Party> parties;
  parties.reserve(static_cast<size_t>(num_homes));
  for (int h = 0; h < num_homes; ++h) {
    parties.emplace_back(static_cast<net::AgentId>(h),
                         trace.homes[static_cast<size_t>(h)].params);
  }
  crypto::PaillierPoolRegistry pools;
  // Fork-copied like the parties: every child maintains its own replica
  // of the key directory, which stays identical across all n replicas
  // because registrations follow the deterministic script.
  protocol::KeyDirectory directory;

  net::ProcessTransport::ChildMain child_main =
      [&trace, &config, &rng, &parties, &pools, &batteries, &directory](
          net::AgentId self, net::Transport& wire,
          net::ControlChannel& ctl) -> int {
    // Everything captured by reference is this child's fork copy; the
    // parent's own copies diverge freely after the fork.
    std::vector<net::Endpoint> endpoints = wire.endpoints();
    protocol::ProtocolContext ctx{
        endpoints, rng, config.pem,
        config.pem.precompute_encryption ? &pools : nullptr, config.policy,
        &directory};
    int next_window = 0;
    std::vector<grid::WindowState> states;
    protocol::AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&](int w) {
      PEM_CHECK(w >= next_window,
                "process child: windows scheduled out of order");
      // Battery dynamics — and the churn schedule — advance through the
      // skipped windows too, mirroring the parent loop exactly.
      for (; next_window <= w; ++next_window) {
        ApplyChurn(config, next_window, parties, directory);
        states = ResolveCommunityWindow(trace, next_window, batteries);
      }
      for (size_t h = 0; h < parties.size(); ++h) {
        parties[h].BeginWindow(states[h], config.pem.nonce_bound, rng);
      }
    };
    callbacks.after_window = [&](int) {
      if (!config.pem.precompute_encryption) return;
      // Idle-time pool refill, same as the in-process engine (outside
      // the reported per-window runtime).
      if (config.pem.crt_encryption) {
        for (const protocol::Party& p : parties) {
          if (p.HasKeys()) pools.AttachOwner(p.private_key());
        }
      }
      pools.RefillAll(config.pem.encryption_pool_target, rng, config.policy);
    };
    protocol::AgentDriver driver(self, ctx, parties, callbacks);
    driver.Serve(ctl);
    return 0;
  };

  const net::TransportOptions& topts = config.policy.transport;
  std::unique_ptr<net::AgentSupervisor> transport_owner;
  if (config.policy.transport_kind == net::TransportKind::kTcp) {
    net::TcpTransport::Options opts;
    opts.watchdog_ms = topts.watchdog_ms;
    opts.host = topts.tcp_host;
    opts.port = topts.tcp_port;
    opts.verify_frames = topts.tcp_verify_frames;
    transport_owner = std::make_unique<net::TcpTransport>(
        num_homes, child_main, std::move(opts));
  } else if (config.policy.transport_kind == net::TransportKind::kShm) {
    net::ShmTransport::Options opts;
    opts.watchdog_ms = topts.watchdog_ms;
    opts.ring_bytes = topts.shm_ring_bytes;
    transport_owner = std::make_unique<net::ShmTransport>(
        num_homes, child_main, opts);
  } else {
    net::ProcessTransport::Options opts;
    opts.watchdog_ms = topts.watchdog_ms;
    transport_owner =
        std::make_unique<net::ProcessTransport>(num_homes, child_main, opts);
  }
  net::AgentSupervisor& transport = *transport_owner;
  if (config.bus_observer) transport.SetObserver(config.bus_observer);

  // Prepass (parent-side bookkeeping only — the children replay their
  // own catch-up loops): battery dynamics AND the churn schedule
  // advance through every window, mirroring the in-process loop
  // exactly — skipping churn here let the parent's roster/epoch
  // bookkeeping drift from the children's under churn + stride.  The
  // sampled windows come out with their baseline records pre-built, so
  // the dispatch loop below touches no parent state mid-batch.
  struct PendingWindow {
    int window = 0;
    WindowRecord rec;
    std::vector<grid::WindowState> states;
  };
  std::vector<PendingWindow> pending;
  std::vector<int> sampled;
  for (int w = 0; w < trace.windows_per_day; ++w) {
    ApplyChurn(config, w, parties, directory);
    std::vector<grid::WindowState> states =
        ResolveCommunityWindow(trace, w, batteries);
    if (!WindowSampled(config, w)) continue;

    const std::vector<market::AgentWindowInput> inputs =
        BuildWindowInputs(trace, states);
    PendingWindow p;
    p.window = w;
    p.rec = BaselineRecord(w, inputs, config);
    if (config.record_states) p.states = std::move(states);
    pending.push_back(std::move(p));
    sampled.push_back(w);
  }

  // Batched dispatch: up to windows_in_flight kCtlCmdRun commands are
  // pipelined per child; each child still executes its windows in
  // order (per-window transcripts stay bit-identical to the serial
  // loop), but children overlap with each other across the batch.
  protocol::WindowScheduler scheduler({config.windows_in_flight, 1});
  size_t next = 0;
  for (const std::vector<int>& batch :
       protocol::WindowScheduler::PlanBatches(sampled,
                                              config.windows_in_flight)) {
    const std::vector<protocol::CollectedWindow> collected =
        scheduler.RunForkedBatch(transport, batch);
    double batch_seconds = 0.0;
    for (const protocol::CollectedWindow& cw : collected) {
      PendingWindow& p = pending[next++];
      PEM_CHECK(p.window == cw.window, "simulation: batch window mismatch");
      WindowRecord rec = std::move(p.rec);
      const protocol::WindowReport& report = cw.report;
      rec.type = report.type;
      rec.price = report.price;
      rec.num_sellers = report.num_sellers;
      rec.num_buyers = report.num_buyers;
      rec.supply_total = report.supply_total;
      rec.demand_total = report.demand_total;
      rec.buyer_cost_pem = report.buyer_total_cost;
      rec.grid_interaction_pem =
          report.grid_import_kwh + report.grid_export_kwh;
      // End-to-end wall clock in the parent: batch dispatch to this
      // window's slowest child, IPC included.  In-flight windows share
      // the span, so the day total charges each batch once (its max) —
      // never the sum, which would double-count the overlap.
      rec.runtime_seconds = cw.parent_seconds;
      rec.bus_bytes = report.bus_bytes;
      rec.rng_cursor = report.rng_cursor;
      rec.audit = report.audit;
      if (cw.parent_seconds > batch_seconds) batch_seconds = cw.parent_seconds;
      result.total_bus_bytes += rec.bus_bytes;
      result.windows.push_back(std::move(rec));
      if (config.record_states) {
        result.resolved_states.push_back(std::move(p.states));
      }
    }
    result.total_runtime_seconds += batch_seconds;
  }
  transport.Shutdown();
  return result;
}

}  // namespace

SimulationResult RunSimulation(const grid::CommunityTrace& trace,
                               const SimulationConfig& config) {
  PEM_CHECK(config.window_stride >= 1, "window stride must be >= 1");
  PEM_CHECK(config.window_offset >= 0, "window offset must be >= 0");
  PEM_CHECK(config.windows_in_flight >= 1, "windows_in_flight must be >= 1");
  config.pem.market.Validate();

  if (config.engine == Engine::kCrypto &&
      (config.policy.transport_kind == net::TransportKind::kProcess ||
       config.policy.transport_kind == net::TransportKind::kTcp ||
       config.policy.transport_kind == net::TransportKind::kShm)) {
    return RunSimulationProcess(trace, config);
  }

  const int num_homes = trace.num_homes();
  SimulationResult result;

  std::vector<grid::Battery> batteries = trace.MakeBatteries();

  // Crypto-engine state persists across windows (keys are cached).
  // The transport backend is chosen by the execution policy: the
  // serial FIFO bus, or the mutex-guarded bus that tolerates sends
  // from compute-phase workers.
  crypto::DeterministicRng rng(config.crypto_seed);
  std::unique_ptr<net::Transport> bus;
  std::vector<net::Endpoint> endpoints;
  std::vector<protocol::Party> parties;
  crypto::PaillierPoolRegistry pools;
  protocol::KeyDirectory directory;
  // Batched scheduling, in-process realization: one persistent worker
  // team shared by every compute phase of the in-flight windows (the
  // fork/join amortization), engaged through ctx.scheduler only when
  // fused — windows_in_flight = 1 leaves the per-call ParallelFor
  // pools, i.e. exactly the pre-batching engine.
  protocol::WindowScheduler scheduler(
      {config.windows_in_flight, config.policy.worker_count()});
  if (config.engine == Engine::kCrypto) {
    bus = net::MakeTransport(config.policy.transport_kind, num_homes);
    if (config.bus_observer) bus->SetObserver(config.bus_observer);
    // Protocol code acts through per-agent handles only; the whole
    // transport stays here in the driver.
    endpoints = bus->endpoints();
    parties.reserve(static_cast<size_t>(num_homes));
    for (int h = 0; h < num_homes; ++h) {
      parties.emplace_back(static_cast<net::AgentId>(h),
                           trace.homes[static_cast<size_t>(h)].params);
    }
  }

  for (int w = 0; w < trace.windows_per_day; ++w) {
    // Battery dynamics (and roster churn) advance every window
    // regardless of sampling.
    if (config.engine == Engine::kCrypto) {
      ApplyChurn(config, w, parties, directory);
    }
    std::vector<grid::WindowState> states =
        ResolveCommunityWindow(trace, w, batteries);
    if (!WindowSampled(config, w)) continue;

    const std::vector<market::AgentWindowInput> inputs =
        BuildWindowInputs(trace, states);
    WindowRecord rec = BaselineRecord(w, inputs, config);

    if (config.engine == Engine::kPlaintext) {
      const market::MarketOutcome outcome =
          market::ClearMarket(inputs, config.pem.market);
      rec.type = outcome.type;
      rec.price = outcome.price;
      rec.num_sellers = outcome.CountRole(grid::Role::kSeller);
      rec.num_buyers = outcome.CountRole(grid::Role::kBuyer);
      rec.supply_total = outcome.supply_total;
      rec.demand_total = outcome.demand_total;
      rec.buyer_cost_pem = outcome.buyer_total_cost;
      rec.grid_interaction_pem = outcome.GridInteraction();
    } else {
      for (int h = 0; h < num_homes; ++h) {
        parties[static_cast<size_t>(h)].BeginWindow(
            states[static_cast<size_t>(h)], config.pem.nonce_bound, rng);
      }
      protocol::ProtocolContext ctx{endpoints, rng, config.pem,
                                    config.pem.precompute_encryption
                                        ? &pools
                                        : nullptr,
                                    config.policy, &directory};
      ctx.scheduler = scheduler.fused() ? &scheduler : nullptr;
      const protocol::PemWindowResult out =
          protocol::RunPemWindow(ctx, parties, w);
      if (config.pem.precompute_encryption) {
        // Idle-time phase: top the pools back up between windows, so
        // the next window's encryptions are one multiplication each.
        // Deliberately outside the per-window runtime measurement.
        // The window may have elected new aggregators (and thus minted
        // new keys/pools); registering the owners first lets the
        // refill exponentiate mod p^2/q^2 instead of mod n^2.
        if (config.pem.crt_encryption) {
          for (const protocol::Party& p : parties) {
            if (p.HasKeys()) pools.AttachOwner(p.private_key());
          }
        }
        // The refill fans out across the policy's compute workers;
        // factor order (and every later transcript byte) is invariant
        // under the worker count.
        pools.RefillAll(config.pem.encryption_pool_target, rng,
                        config.policy);
      }
      rec.type = out.type;
      rec.price = out.price;
      rec.supply_total = out.supply_total;
      rec.demand_total = out.demand_total;
      for (const protocol::Party& p : parties) {
        if (p.role() == grid::Role::kSeller) ++rec.num_sellers;
        if (p.role() == grid::Role::kBuyer) ++rec.num_buyers;
      }
      rec.buyer_cost_pem = out.buyer_total_cost;
      rec.grid_interaction_pem = out.GridInteraction();
      rec.runtime_seconds = out.runtime_seconds;
      rec.bus_bytes = out.bus_bytes;
      rec.rng_cursor = out.rng_cursor;
      rec.audit = out.audit;
      result.total_runtime_seconds += out.runtime_seconds;
      result.total_bus_bytes += out.bus_bytes;
    }

    result.windows.push_back(rec);
    if (config.record_states) {
      result.resolved_states.push_back(std::move(states));
    }
  }
  return result;
}

}  // namespace pem::core
