// Fig. 6(d): energy exchanged with the main grid per trading window,
// with and without PEM (200 homes).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace pem;
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  const int homes = flags.homes > 0 ? flags.homes : 200;

  bench::PrintHeader("Fig. 6(d)", "interaction with the main grid (kWh)");
  const grid::CommunityTrace trace = bench::MakeTrace(homes, flags.windows);
  core::SimulationConfig cfg;
  const core::SimulationResult r = core::RunSimulation(trace, cfg);

  CsvWriter csv(flags.out_dir + "/fig6d_grid_interaction.csv",
                {"window", "interaction_pem", "interaction_nopem"});
  std::printf("%8s %14s %14s\n", "window", "with PEM", "without PEM");
  double total_pem = 0, total_base = 0;
  for (size_t i = 0; i < r.windows.size(); ++i) {
    const protocol::WindowRecord& rec = r.windows[i];
    const double baseline = r.baselines[i].GridInteraction();
    csv.Row({CsvWriter::Num(int64_t{rec.window}),
             CsvWriter::Num(rec.grid_interaction_pem),
             CsvWriter::Num(baseline)});
    total_pem += rec.grid_interaction_pem;
    total_base += baseline;
    if (rec.window % 60 == 0) {
      std::printf("%8d %14.3f %14.3f\n", rec.window,
                  rec.grid_interaction_pem, baseline);
    }
  }
  std::printf(
      "\nday totals: %.1f kWh with PEM vs %.1f kWh without (%.1f%% reduced)\n"
      "expected shape: the with-PEM curve sits below the without-PEM curve, "
      "with the largest gap midday when local trading absorbs the most "
      "energy (paper Fig. 6d)\n",
      total_pem, total_base, 100.0 * (1.0 - total_pem / total_base));
  return 0;
}
