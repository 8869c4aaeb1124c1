// Quickstart: one privacy-preserving trading window among five homes.
//
// Shows the minimal public-API flow:
//   1. describe each agent's private window data (generation, load,
//      battery action, utility parameter),
//   2. run the full PEM protocol stack (Protocols 1-4) over the
//      byte-counting message bus,
//   3. read the public outcome: market case, clearing price, pairwise
//      trades, and what each agent paid/earned.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "crypto/rng.h"
#include "net/bus.h"
#include "protocol/pem_protocol.h"

int main() {
  using namespace pem;

  // --- 1. Five homes, one minute of smart-meter data ------------------
  struct Home {
    const char* name;
    double generation_kwh, load_kwh, battery_kwh, preference_k;
  };
  const Home homes[] = {
      {"solar-roof-A", 0.060, 0.020, 0.010, 0.9},   // seller (charging)
      {"solar-roof-B", 0.045, 0.015, 0.000, 1.1},   // seller
      {"apartment-C", 0.000, 0.030, 0.000, 1.0},    // buyer
      {"apartment-D", 0.005, 0.040, 0.000, 1.0},    // buyer
      {"ev-garage-E", 0.000, 0.010, 0.020, 1.0},    // buyer (EV charging)
  };

  net::MessageBus bus(5);
  // Each home acts through its own per-agent handle; the bus itself
  // stays with the driver.
  std::vector<net::Endpoint> agents = bus.endpoints();
  crypto::SystemRng& rng = crypto::SystemRng::Instance();
  protocol::PemConfig config;
  config.key_bits = 1024;

  std::vector<protocol::Party> parties;
  for (int i = 0; i < 5; ++i) {
    grid::AgentParams params;
    params.preference_k = homes[i].preference_k;
    params.battery_epsilon = 0.9;
    parties.emplace_back(i, params);
    grid::WindowState st;
    st.generation_kwh = homes[i].generation_kwh;
    st.load_kwh = homes[i].load_kwh;
    st.battery_kwh = homes[i].battery_kwh;
    parties.back().BeginWindow(st, config.nonce_bound, rng);
  }

  // --- 2. Run the window ----------------------------------------------
  protocol::ProtocolContext ctx{agents, rng, config};
  const protocol::PemWindowResult out = protocol::RunPemWindow(ctx, parties);

  // --- 3. Inspect the public outcome ----------------------------------
  const char* market =
      out.record.type == market::MarketType::kGeneral
          ? "general (demand > supply; Stackelberg price)"
          : out.record.type == market::MarketType::kExtreme
                ? "extreme (supply >= demand; floor price)"
                : "no market";
  std::printf("market case : %s\n", market);
  std::printf("price       : %.1f cents/kWh  (band [%.0f, %.0f])\n",
              out.record.price * 100, config.market.price_floor * 100,
              config.market.price_ceiling * 100);
  std::printf("supply/demand: %.3f / %.3f kWh\n\n", out.record.supply_total,
              out.record.demand_total);

  std::printf("trades:\n");
  for (const protocol::Trade& t : out.record.trades) {
    std::printf("  %-12s -> %-12s  %7.4f kWh  for %6.4f $\n",
                homes[t.seller_index].name, homes[t.buyer_index].name,
                t.energy_kwh, t.payment);
  }
  std::printf("\nper-home settlement:\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  %-12s  role=%-7s  paid %6.4f $  received %6.4f $\n",
                homes[i].name,
                parties[i].role() == grid::Role::kSeller
                    ? "seller"
                    : parties[i].role() == grid::Role::kBuyer ? "buyer"
                                                              : "off",
                out.money_paid[i], out.money_received[i]);
  }
  std::printf(
      "\nprotocol cost: %.3f s, %llu bytes on the wire "
      "(all private inputs stayed encrypted)\n",
      out.record.runtime_seconds, static_cast<unsigned long long>(out.record.bus_bytes));
  return 0;
}
