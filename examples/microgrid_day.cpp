// A full trading day for a synthetic 120-home microgrid community.
//
// Generates a UMass-style one-day trace, runs the plaintext market
// engine over all 720 one-minute windows (provably identical output to
// the crypto protocols — see tests/integration), and reports the
// community-level benefits the paper's Fig. 6 quantifies: buyer
// savings, seller revenue uplift, and reduced grid interaction.
// Writes the trace and the per-window series next to the binary.
//
// Build & run:  ./build/examples/microgrid_day [num_homes]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/simulation.h"
#include "protocol/topology.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace pem;
  const int homes = argc > 1 ? std::atoi(argv[1]) : 120;

  grid::TraceConfig trace_cfg;
  trace_cfg.num_homes = homes;
  trace_cfg.windows_per_day = 720;
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(trace_cfg);
  trace.SaveCsv("microgrid_day_trace.csv");
  std::printf("generated %d homes x %d windows (saved to "
              "microgrid_day_trace.csv)\n\n",
              trace.num_homes(), trace.windows_per_day);

  core::SimulationConfig cfg;
  const core::SimulationResult r = core::RunSimulation(trace, cfg);

  CsvWriter csv("microgrid_day_series.csv",
                {"window", "price_cents", "sellers", "buyers", "cost_pem",
                 "cost_baseline", "grid_pem", "grid_baseline"});
  double cost_pem = 0, cost_base = 0, grid_pem = 0, grid_base = 0;
  int general = 0, extreme = 0, closed = 0;
  for (size_t i = 0; i < r.windows.size(); ++i) {
    const protocol::WindowRecord& rec = r.windows[i];
    const market::BaselineOutcome& baseline = r.baselines[i];
    csv.Row({CsvWriter::Num(int64_t{rec.window}),
             CsvWriter::Num(rec.price * 100),
             CsvWriter::Num(int64_t{rec.num_sellers}),
             CsvWriter::Num(int64_t{rec.num_buyers}),
             CsvWriter::Num(rec.buyer_cost_pem),
             CsvWriter::Num(baseline.buyer_total_cost),
             CsvWriter::Num(rec.grid_interaction_pem),
             CsvWriter::Num(baseline.GridInteraction())});
    cost_pem += rec.buyer_cost_pem;
    cost_base += baseline.buyer_total_cost;
    grid_pem += rec.grid_interaction_pem;
    grid_base += baseline.GridInteraction();
    switch (rec.type) {
      case market::MarketType::kGeneral: ++general; break;
      case market::MarketType::kExtreme: ++extreme; break;
      case market::MarketType::kNoMarket: ++closed; break;
    }
  }

  std::printf("market cases : %d general, %d extreme, %d closed\n", general,
              extreme, closed);
  std::printf("buyer cost   : $%.1f with PEM vs $%.1f baseline (%.1f%% saved)\n",
              cost_pem, cost_base, 100 * (1 - cost_pem / cost_base));
  std::printf("grid traffic : %.1f kWh with PEM vs %.1f kWh baseline "
              "(%.1f%% reduced)\n",
              grid_pem, grid_base, 100 * (1 - grid_pem / grid_base));
  std::printf("series saved to microgrid_day_series.csv\n");

  // --- coda: the same market as a true distributed deployment ---------
  // Eight of the homes, three midday windows, one forked OS process per
  // home: every agent runs only its own side of Protocols 1-4 over its
  // inherited socketpair, and the bytes below are literal cross-process
  // socket traffic routed by the parent — the paper's per-container
  // deployment on one host.
  grid::TraceConfig small_cfg = trace_cfg;
  small_cfg.num_homes = homes < 8 ? homes : 8;
  const grid::CommunityTrace small = grid::GenerateCommunityTrace(small_cfg);
  core::SimulationConfig pcfg;
  pcfg.engine = core::Engine::kCrypto;
  pcfg.pem.key_bits = 512;
  pcfg.policy = net::ExecutionPolicy::Process();
  pcfg.window_offset = small.windows_per_day / 2;  // midday: active market
  pcfg.window_stride = small.windows_per_day / 6;  // three sampled windows
  const core::SimulationResult pr = core::RunSimulation(small, pcfg);
  std::printf("\nfork-per-agent deployment (%d homes, %zu midday windows, "
              "512-bit keys):\n",
              small.num_homes(), pr.windows.size());
  std::printf("  avg window : %.3f s end-to-end, %.0f bytes on the wire\n",
              pr.AverageRuntimeSeconds(), pr.AverageBusBytes());

  // The same market again over shared memory: the same forked processes, but
  // every frame now travels through a per-pair ring mapped into both
  // address spaces — zero kernel copies, no router hop.  The parent's
  // snoop cursor taps the rings for accounting, so the byte count must
  // still equal the socketpair run's exactly.
  pcfg.policy = net::ExecutionPolicy::Shm();
  const core::SimulationResult sr = core::RunSimulation(small, pcfg);
  std::printf("shm deployment (same homes and windows, zero-copy rings):\n");
  std::printf("  avg window : %.3f s end-to-end, %.0f bytes through shared "
              "memory\n",
              sr.AverageRuntimeSeconds(), sr.AverageBusBytes());
  std::printf("  byte parity: %s\n",
              sr.total_bus_bytes == pr.total_bus_bytes ? "exact" : "DIVERGED");

  // Finally the topology knob: the same windows with every ring
  // aggregation planned as a fanout-2 hierarchy of sub-rings
  // (PemConfig::topology) instead of one flat ring.  The critical path
  // shrinks from n-1 sequential hops toward log n, the wire grows a
  // few leader-delivery frames — and the market outcome must not move
  // by a cent (the plan invariants of protocol/topology.h).
  core::SimulationConfig hcfg = pcfg;
  hcfg.policy = net::ExecutionPolicy::Serial();
  const core::SimulationResult flat_run = core::RunSimulation(small, hcfg);
  hcfg.pem.topology.kind = protocol::TopologyKind::kHierarchical;
  hcfg.pem.topology.fanout = 2;
  const core::SimulationResult hier_run = core::RunSimulation(small, hcfg);
  std::vector<size_t> all(static_cast<size_t>(small.num_homes()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const int flat_hops =
      protocol::AggregationTopology::Flat(all).CriticalPathHops();
  const int hier_hops =
      protocol::AggregationTopology::Build(all, hcfg.pem.topology, 0)
          .CriticalPathHops();
  bool same_market = flat_run.windows.size() == hier_run.windows.size();
  for (size_t w = 0; same_market && w < flat_run.windows.size(); ++w) {
    same_market = flat_run.windows[w].price == hier_run.windows[w].price &&
                  flat_run.windows[w].type == hier_run.windows[w].type;
  }
  std::printf("hierarchical aggregation (fanout 2, same homes and windows):\n");
  std::printf("  critical path: %d sequential hops vs %d flat (full ring)\n",
              hier_hops, flat_hops);
  std::printf("  wire bytes   : %llu vs %llu flat (leader-delivery frames)\n",
              static_cast<unsigned long long>(hier_run.total_bus_bytes),
              static_cast<unsigned long long>(flat_run.total_bus_bytes));
  std::printf("  market parity: %s\n",
              same_market ? "identical prices and cases" : "DIVERGED");
  return 0;
}
