// Fig. 4: sizes of the seller and buyer coalitions across the 720
// one-minute trading windows of the day (300 smart homes).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace pem;
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  const int homes = flags.homes > 0 ? flags.homes : 300;

  bench::PrintHeader("Fig. 4", "coalition sizes vs. trading windows");
  const grid::CommunityTrace trace = bench::MakeTrace(homes, flags.windows);

  core::SimulationConfig cfg;  // plaintext engine
  const core::SimulationResult r = core::RunSimulation(trace, cfg);

  CsvWriter csv(flags.out_dir + "/fig4_coalitions.csv",
                {"window", "buyers", "sellers"});
  std::printf("%8s %8s %8s\n", "window", "buyers", "sellers");
  int peak_sellers = 0, peak_buyers = 0;
  for (const protocol::WindowRecord& rec : r.windows) {
    csv.Row({CsvWriter::Num(int64_t{rec.window}),
             CsvWriter::Num(int64_t{rec.num_buyers}),
             CsvWriter::Num(int64_t{rec.num_sellers})});
    if (rec.window % 60 == 0) {  // print every hour to keep stdout short
      std::printf("%8d %8d %8d\n", rec.window, rec.num_buyers,
                  rec.num_sellers);
    }
    peak_sellers = std::max(peak_sellers, rec.num_sellers);
    peak_buyers = std::max(peak_buyers, rec.num_buyers);
  }
  std::printf(
      "\nsummary: %d homes; peak buyers = %d, peak sellers = %d\n"
      "expected shape: buyers dominate the edges of the day, sellers peak "
      "midday (paper Fig. 4)\n",
      homes, peak_buyers, peak_sellers);
  return 0;
}
