// Vehicle-to-Grid (V2G) extension (paper §VI, "Generalization of
// PEM"): electric vehicles join the market as agents whose only local
// resource is the battery.
//
// A commuter EV is a buyer while charging (morning, at the office) and
// a seller in the evening peak, discharging part of its pack into the
// neighborhood at the PEM price instead of letting homes draw from the
// grid at retail.  This example runs the *real cryptographic
// protocols* for three evening windows on a mixed fleet+homes market.
//
// Build & run:  ./build/examples/v2g_fleet
#include <cstdio>
#include <vector>

#include "crypto/rng.h"
#include "net/bus.h"
#include "protocol/pem_protocol.h"

namespace {

struct FleetAgent {
  const char* name;
  bool is_ev;
  double generation_kwh, load_kwh, battery_kwh, k;
};

}  // namespace

int main() {
  using namespace pem;

  // Evening windows (~18:00): no solar, high household load, EVs home
  // with packs charged midday.
  const std::vector<std::vector<FleetAgent>> evening_windows = {
      {
          {"ev-taxi-1", true, 0.0, 0.002, -0.080, 1.0},  // discharging 80 Wh
          {"ev-sedan-2", true, 0.0, 0.002, -0.050, 1.0},
          {"home-1", false, 0.0, 0.035, 0.0, 0.9},
          {"home-2", false, 0.0, 0.045, 0.0, 1.0},
          {"home-3", false, 0.0, 0.030, 0.0, 1.1},
          {"home-4", false, 0.0, 0.055, 0.0, 1.0},
      },
      {
          {"ev-taxi-1", true, 0.0, 0.002, -0.070, 1.0},
          {"ev-sedan-2", true, 0.0, 0.002, -0.060, 1.0},
          {"home-1", false, 0.0, 0.040, 0.0, 0.9},
          {"home-2", false, 0.0, 0.040, 0.0, 1.0},
          {"home-3", false, 0.0, 0.035, 0.0, 1.1},
          {"home-4", false, 0.0, 0.050, 0.0, 1.0},
      },
      {
          // Later: packs depleted, EVs stop selling; grid takes over.
          {"ev-taxi-1", true, 0.0, 0.002, 0.000, 1.0},
          {"ev-sedan-2", true, 0.0, 0.002, -0.010, 1.0},
          {"home-1", false, 0.0, 0.038, 0.0, 0.9},
          {"home-2", false, 0.0, 0.042, 0.0, 1.0},
          {"home-3", false, 0.0, 0.036, 0.0, 1.1},
          {"home-4", false, 0.0, 0.048, 0.0, 1.0},
      },
  };

  protocol::PemConfig config;
  config.key_bits = 512;  // demo speed; use 2048 in deployments
  crypto::SystemRng& rng = crypto::SystemRng::Instance();

  double ev_revenue = 0.0, home_cost = 0.0, home_cost_baseline = 0.0;
  for (size_t w = 0; w < evening_windows.size(); ++w) {
    const auto& fleet = evening_windows[w];
    net::MessageBus bus(static_cast<int>(fleet.size()));
    std::vector<net::Endpoint> agents = bus.endpoints();
    std::vector<protocol::Party> parties;
    for (size_t i = 0; i < fleet.size(); ++i) {
      grid::AgentParams params;
      params.preference_k = fleet[i].k;
      params.battery_epsilon = 0.9;
      parties.emplace_back(static_cast<net::AgentId>(i), params);
      grid::WindowState st;
      st.generation_kwh = fleet[i].generation_kwh;
      st.load_kwh = fleet[i].load_kwh;
      st.battery_kwh = fleet[i].battery_kwh;
      parties.back().BeginWindow(st, config.nonce_bound, rng);
    }
    protocol::ProtocolContext ctx{agents, rng, config};
    const protocol::PemWindowResult out = protocol::RunPemWindow(ctx, parties);

    std::printf("window %zu: %s, price %.1f c/kWh, %zu trades\n", w,
                out.record.type == market::MarketType::kGeneral
                    ? "general"
                    : out.record.type == market::MarketType::kExtreme ? "extreme"
                                                               : "no market",
                out.record.price * 100, out.record.trades.size());
    for (size_t i = 0; i < fleet.size(); ++i) {
      if (fleet[i].is_ev) {
        ev_revenue += out.money_received[i];
      } else {
        home_cost += out.money_paid[i];
        const double deficit = fleet[i].load_kwh + fleet[i].battery_kwh -
                               fleet[i].generation_kwh;
        if (deficit > 0) {
          home_cost_baseline += config.market.retail_price * deficit;
        }
      }
    }
  }

  std::printf("\nfleet revenue from V2G trading : $%.4f\n", ev_revenue);
  std::printf("home cost with V2G market      : $%.4f\n", home_cost);
  std::printf("home cost buying from the grid : $%.4f (%.1f%% saved)\n",
              home_cost_baseline,
              100 * (1 - home_cost / home_cost_baseline));
  std::printf("\nEVs earned above the %.0f c/kWh buyback price while homes "
              "paid below the %.0f c/kWh retail price — the §VI win-win.\n",
              config.market.buyback_price * 100,
              config.market.retail_price * 100);
  return 0;
}
