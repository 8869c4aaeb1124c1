// Storm day: solar collapse + EV surge + membership churn, audited.
//
// A thunderstorm rolls over the community mid-afternoon: rooftop solar
// collapses to a few percent of clear-sky output at exactly the moment
// a wave of commuter EVs comes home and plugs in.  One home loses its
// connection in the storm and rejoins after the front passes; another
// stays dark for the rest of the day.  The §VI audit machinery runs
// throughout — the seeded coin flip picks audit windows, an auditor is
// drawn, every participant proves its ring contribution — so the table
// below shows what a hostile-weather day costs on the wire with
// cheater detection armed (the Table I bandwidth columns, per window).
//
// Build & run:  ./build/examples/example_storm_day
#include <cstdio>
#include <vector>

#include "core/simulation.h"
#include "protocol/fault.h"

int main() {
  using namespace pem;

  // Eight homes, eight 2-hour windows (06:00 .. 22:00).  The generated
  // trace supplies per-home panels/loads/preferences; the storm is
  // edited in on top of it.
  grid::TraceConfig tc;
  tc.num_homes = 8;
  tc.windows_per_day = 8;
  tc.seed = 20200807;
  grid::CommunityTrace trace = grid::GenerateCommunityTrace(tc);

  // Windows 3-5 (midday into afternoon): the storm front.  Solar
  // collapses to 5% of clear-sky output; from window 4 the EV surge
  // adds 60 Wh of charging load at half the homes.
  for (int h = 0; h < trace.num_homes(); ++h) {
    for (int w = 3; w <= 5; ++w) {
      trace.homes[static_cast<size_t>(h)]
          .observations[static_cast<size_t>(w)]
          .generation_kwh *= 0.05;
    }
    if (h % 2 == 0) {
      for (int w = 4; w <= 6; ++w) {
        trace.homes[static_cast<size_t>(h)]
            .observations[static_cast<size_t>(w)]
            .load_kwh += 0.060;
      }
    }
  }

  core::SimulationConfig cfg;
  cfg.engine = core::Engine::kCrypto;
  cfg.pem.key_bits = 512;  // demo speed; use 2048 in deployments
  cfg.pem.audit.enabled = true;
  cfg.pem.audit.audit_one_in = 2;  // audit roughly every other window
  // The storm takes home 4 offline just as the front arrives; it
  // rejoins (fresh key, next directory epoch) two windows later.  Home
  // 6's service drop fails at the peak and stays dead all day.  Rings
  // and coalitions re-form deterministically around the survivors.
  cfg.churn = {{3, 4, false}, {5, 6, false}, {5, 4, true}};

  const core::SimulationResult r = core::RunSimulation(trace, cfg);

  std::printf("storm day: %d homes, %d windows, 512-bit keys, audits "
              "armed (1-in-%u)\n\n",
              trace.num_homes(), trace.windows_per_day,
              cfg.pem.audit.audit_one_in);
  std::printf("%-7s %-9s %9s %4s %4s %10s %9s  %s\n", "window", "market",
              "c/kWh", "sell", "buy", "bytes", "runtime", "audit");
  uint64_t audited = 0;
  for (const protocol::WindowRecord& rec : r.windows) {
    const char* type = rec.type == market::MarketType::kGeneral ? "general"
                       : rec.type == market::MarketType::kExtreme
                           ? "extreme"
                           : "closed";
    char audit_col[32];
    if (rec.audit.audited) {
      ++audited;
      std::snprintf(audit_col, sizeof audit_col, "auditor %d",
                    rec.audit.auditor);
    } else {
      std::snprintf(audit_col, sizeof audit_col, "-");
    }
    std::printf("%-7d %-9s %9.1f %4d %4d %10llu %7.0f ms  %s\n", rec.window,
                type, rec.price * 100, rec.num_sellers, rec.num_buyers,
                static_cast<unsigned long long>(rec.bus_bytes),
                rec.runtime_seconds * 1000, audit_col);
    for (const protocol::ProtocolFault& f : rec.audit.faults) {
      std::printf("        !! agent %d convicted: %s\n", f.cheater,
                  protocol::CheatClassName(f.cheat));
    }
  }

  std::printf("\ntotal   %10.0f ms end-to-end, %llu bytes on the bus\n",
              r.total_runtime_seconds * 1000,
              static_cast<unsigned long long>(r.total_bus_bytes));
  std::printf("audited %llu of %zu windows; every proof opened clean — the "
              "honest community paid the audit bandwidth and nothing "
              "else.\n",
              static_cast<unsigned long long>(audited), r.windows.size());
  std::printf("churn: home 4 dropped in the storm (window 3) and rejoined "
              "with a fresh key (window 5); home 6 stayed offline from "
              "window 5 on.\n");
  return 0;
}
