// Fig. 6(b): utility of two representative sellers with preference
// parameters k = 20 and k = 40 across the day, with PEM (selling at
// the market price p*) vs. without PEM (selling to the grid at pb_g).
//
// The two tracked sellers are synthetic panels large enough to stay
// net producers whenever the sun is up, mirroring the paper's "agents
// which are sellers in all 720 trading windows".
#include "bench/common.h"

#include <cmath>

#include "market/incentives.h"

int main(int argc, char** argv) {
  using namespace pem;
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  const int homes = flags.homes > 0 ? flags.homes : 200;

  bench::PrintHeader("Fig. 6(b)", "tracked seller utility, k = 20 and 40");
  grid::CommunityTrace trace = bench::MakeTrace(homes, flags.windows);
  // Replace homes 0 and 1 with the tracked sellers: big panels, no
  // battery, paper's preference parameters.
  for (int i = 0; i < 2; ++i) {
    grid::HomeTrace& h = trace.homes[static_cast<size_t>(i)];
    h.params.preference_k = i == 0 ? 20.0 : 40.0;
    h.params.battery_capacity_kwh = 0.0;
    h.params.battery_rate_kwh = 0.0;
    // A guaranteed oversized panel (6 kW clear-sky bell) and a light
    // load, so the agent is a net seller whenever the sun is up.
    const int m = flags.windows;
    for (int w = 0; w < m; ++w) {
      const double x = static_cast<double>(w) / m;            // 0..1 over the day
      const double bell = std::pow(std::max(0.0, std::sin(M_PI * x)), 1.5);
      grid::WindowObservation& o = h.observations[static_cast<size_t>(w)];
      o.generation_kwh = 6.0 * bell * (12.0 / m);
      o.load_kwh *= 0.3;
    }
  }

  core::SimulationConfig cfg;
  cfg.record_states = true;
  const core::SimulationResult r = core::RunSimulation(trace, cfg);
  const market::MarketParams& mp = cfg.pem.market;

  CsvWriter csv(flags.out_dir + "/fig6b_utility.csv",
                {"window", "u_k20_pem", "u_k20_nopem", "u_k40_pem",
                 "u_k40_nopem"});
  std::printf("%8s %12s %12s %12s %12s\n", "window", "k=20 PEM", "k=20 base",
              "k=40 PEM", "k=40 base");
  double gain20 = 0, gain40 = 0;
  for (size_t w = 0; w < r.windows.size(); ++w) {
    const protocol::WindowRecord& rec = r.windows[w];
    // A seller trades at p* with PEM; at the grid buyback price
    // without.  Windows where the tracked agent is not a net seller
    // (or no market forms) price both cases at pb — the comparison is
    // only about *selling* surplus, as in the paper's figure.
    const bool market_open = rec.type != market::MarketType::kNoMarket;
    // Utility is evaluated at the metered load (Eq. 4 on the trace
    // data).  The paper's best-response load (Eq. 15) is inconsistent
    // for k = 20/40 — it would make these agents net consumers — see
    // the erratum note in EXPERIMENTS.md.
    double u[2][2];
    for (int i = 0; i < 2; ++i) {
      const grid::WindowState& st = r.resolved_states[w][static_cast<size_t>(i)];
      const grid::AgentParams& params =
          trace.homes[static_cast<size_t>(i)].params;
      const double pem_price = (market_open && st.NetEnergy() > 0)
                                   ? rec.price
                                   : mp.buyback_price;
      // Eq. 4 evaluated on instantaneous power (kW): the paper's
      // utility scale (0-40 for k=20/40) implies kW-scale arguments,
      // not per-minute kWh (see EXPERIMENTS.md).
      const double to_kw = 60.0;
      for (int c = 0; c < 2; ++c) {
        const double price = c == 0 ? pem_price : mp.buyback_price;
        u[i][c] = market::SellerUtility(
            params.preference_k, st.load_kwh * to_kw, params.battery_epsilon,
            st.battery_kwh * to_kw, price, st.generation_kwh * to_kw);
      }
    }
    gain20 += u[0][0] - u[0][1];
    gain40 += u[1][0] - u[1][1];
    csv.Row({CsvWriter::Num(int64_t{rec.window}), CsvWriter::Num(u[0][0]),
             CsvWriter::Num(u[0][1]), CsvWriter::Num(u[1][0]),
             CsvWriter::Num(u[1][1])});
    if (rec.window % 60 == 0) {
      std::printf("%8d %12.2f %12.2f %12.2f %12.2f\n", rec.window, u[0][0],
                  u[0][1], u[1][0], u[1][1]);
    }
  }
  std::printf(
      "\ncumulative utility gain with PEM: k=20: %.1f, k=40: %.1f\n"
      "expected shape: PEM utility >= no-PEM utility in every window; the "
      "k=40 improvement exceeds the k=20 one (paper Fig. 6b)\n",
      gain20, gain40);
  return 0;
}
