// Synthetic one-day community trace.
//
// Stands in for the UMass Smart* dataset the paper uses (300 homes'
// solar generation + load over one day).  Each home
// gets its own panel capacity, load shape, utility preference k_i,
// battery and seed, so roles churn across windows the way Fig. 4 shows.
// Traces round-trip through CSV for the examples.
#pragma once

#include <string>
#include <vector>

#include "grid/battery.h"
#include "grid/types.h"
#include "util/sim_random.h"

namespace pem::grid {

struct HomeTrace {
  AgentParams params;
  // One observation per window.
  std::vector<WindowObservation> observations;
};

struct CommunityTrace {
  int windows_per_day = 0;
  std::vector<HomeTrace> homes;

  int num_homes() const { return static_cast<int>(homes.size()); }

  // Resolves window `w` for home `h` by running its battery policy;
  // `batteries` carries state of charge across windows and must have
  // one entry per home (created by MakeBatteries()).
  WindowState ResolveWindow(int home, int window,
                            std::vector<Battery>& batteries) const;

  std::vector<Battery> MakeBatteries() const;

  // CSV round-trip: header row, then one row per (home, window).
  void SaveCsv(const std::string& path) const;
  static CommunityTrace LoadCsv(const std::string& path);
};

struct TraceConfig {
  int num_homes = 300;
  int windows_per_day = 720;
  uint64_t seed = 20200425;  // paper's arXiv date, for flavor

  // Population heterogeneity.  Calibrated so market supply generally
  // stays below market demand (the paper's standing assumption:
  // "renewable energy cannot feed all the load in current practice"),
  // with sellers still peaking midday as in Fig. 4.
  double min_panel_kw = 0.8;
  double max_panel_kw = 3.5;
  // Fraction of homes with no panel at all (pure consumers).
  double no_panel_fraction = 0.30;
  // Fraction of homes with a battery; capacities sampled in
  // [min_battery_kwh, max_battery_kwh].
  double battery_fraction = 0.4;
  double min_battery_kwh = 2.0;
  double max_battery_kwh = 10.0;
  double battery_rate_kw = 2.0;  // converted to kWh/window internally
  // Preference parameter k_i range (see Fig. 6(a) calibration note in
  // EXPERIMENTS.md).
  double min_preference_k = 0.6;
  double max_preference_k = 1.4;
  double min_epsilon = 0.85;
  double max_epsilon = 0.95;
};

// Deterministic for a given config (seeded per home).
CommunityTrace GenerateCommunityTrace(const TraceConfig& config);

}  // namespace pem::grid
