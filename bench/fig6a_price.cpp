// Fig. 6(a): the trading price across all 720 windows for 200 smart
// homes, against the grid purchase price, regular retail price, and
// the PEM band [pl, ph].  Prices printed in cents/kWh like the paper.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace pem;
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  const int homes = flags.homes > 0 ? flags.homes : 200;

  bench::PrintHeader("Fig. 6(a)", "trading price across the day (cents/kWh)");
  const grid::CommunityTrace trace = bench::MakeTrace(homes, flags.windows);
  core::SimulationConfig cfg;  // plaintext oracle == protocol output
  const core::SimulationResult r = core::RunSimulation(trace, cfg);
  const market::MarketParams& mp = cfg.pem.market;

  CsvWriter csv(flags.out_dir + "/fig6a_price.csv",
                {"window", "price_cents", "market_type"});
  std::printf("%8s %14s %10s\n", "window", "price (c/kWh)", "market");
  int at_retail = 0, at_floor = 0, at_ceiling = 0, interior = 0;
  for (const protocol::WindowRecord& rec : r.windows) {
    const char* type =
        rec.type == market::MarketType::kGeneral
            ? "general"
            : rec.type == market::MarketType::kExtreme ? "extreme" : "none";
    csv.Row({CsvWriter::Num(int64_t{rec.window}),
             CsvWriter::Num(rec.price * 100.0), type});
    if (rec.window % 60 == 0) {
      std::printf("%8d %14.1f %10s\n", rec.window, rec.price * 100.0, type);
    }
    if (rec.type == market::MarketType::kNoMarket) {
      ++at_retail;
    } else if (rec.price <= mp.price_floor + 1e-9) {
      ++at_floor;
    } else if (rec.price >= mp.price_ceiling - 1e-9) {
      ++at_ceiling;
    } else {
      ++interior;
    }
  }
  std::printf(
      "\nband: grid purchase %.0f, lower %.0f, upper %.0f, retail %.0f "
      "(cents/kWh)\nwindows at retail (no market): %d, at floor: %d, "
      "interior: %d, at ceiling: %d\n"
      "expected shape: retail price at the edges of the day, floor-bounded "
      "midday (paper Fig. 6a)\n",
      mp.buyback_price * 100, mp.price_floor * 100, mp.price_ceiling * 100,
      mp.retail_price * 100, at_retail, at_floor, interior, at_ceiling);
  return 0;
}
