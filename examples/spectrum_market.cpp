// Divisible-resource generalization (paper §VI): the PEM machinery
// allocating kWh among homes works unchanged for spectrum among radio
// operators — "the allocation of spectrum in cognitive radio networks,
// and the WiFi & LTE sharing".
//
// Units: "generation" = licensed-but-idle MHz an operator can lease
// out this scheduling epoch; "load" = MHz of subscriber demand;
// prices in $ per MHz-epoch.  Primary operators with slack lease to
// oversubscribed virtual operators at a Stackelberg price between the
// regulator's floor and the commercial ceiling — all without revealing
// anyone's utilization, which is competitive information.
//
// Build & run:  ./build/examples/spectrum_market
#include <cstdio>

#include "crypto/rng.h"
#include "net/transport.h"
#include "protocol/pem_protocol.h"

int main() {
  using namespace pem;

  struct Operator {
    const char* name;
    double idle_mhz;    // lease supply
    double demand_mhz;  // subscriber demand beyond owned spectrum
    double k;           // willingness to keep spectrum as margin
  };
  const Operator operators[] = {
      {"primary-A", 24.0, 6.0, 0.8},   // 18 MHz to lease
      {"primary-B", 30.0, 14.0, 1.2},  // 16 MHz to lease
      {"virtual-C", 0.0, 12.0, 1.0},   // needs 12 MHz
      {"virtual-D", 0.0, 25.0, 1.0},   // needs 25 MHz
      {"iot-E", 0.0, 4.0, 1.0},        // needs 4 MHz
  };
  const int n = 5;

  protocol::PemConfig config;
  config.key_bits = 1024;
  // Price band: regulator floor $0.90/MHz, commercial cap $1.10/MHz,
  // carrier-grade fallback $1.20 (the "main grid" analog), residual
  // buy-back $0.80.
  config.market.retail_price = 1.20;
  config.market.buyback_price = 0.80;
  config.market.price_floor = 0.90;
  config.market.price_ceiling = 1.10;

  // One spectrum epoch over the serial in-process bus; the forked
  // backends (ExecutionPolicy::Process() and friends) run the same
  // protocol one process per operator through core::RunSimulation.
  std::unique_ptr<net::Transport> bus =
      net::MakeTransport(net::TransportKind::kSerialBus, n);
  std::vector<net::Endpoint> agents = bus->endpoints();
  crypto::SystemRng& rng = crypto::SystemRng::Instance();
  std::vector<protocol::Party> parties;
  for (int i = 0; i < n; ++i) {
    grid::AgentParams params;
    params.preference_k = operators[i].k;
    params.battery_epsilon = 0.9;  // unused (no storage in this market)
    parties.emplace_back(i, params);
    grid::WindowState st;
    st.generation_kwh = operators[i].idle_mhz;   // supply, in MHz
    st.load_kwh = operators[i].demand_mhz;       // demand, in MHz
    parties.back().BeginWindow(st, config.nonce_bound, rng);
  }

  protocol::ProtocolContext ctx{agents, rng, config};
  const protocol::PemWindowResult out = protocol::RunPemWindow(ctx, parties);

  std::printf("spectrum epoch cleared: %s market, %.2f $/MHz\n",
              out.type == market::MarketType::kGeneral ? "general" : "extreme",
              out.price);
  std::printf("leased %.1f MHz of %.1f offered (demand %.1f MHz)\n\n",
              std::min(out.supply_total, out.demand_total), out.supply_total,
              out.demand_total);
  for (const protocol::Trade& t : out.trades) {
    std::printf("  %-10s leases %5.2f MHz to %-10s for $%.2f\n",
                operators[t.seller_index].name, t.energy_kwh,
                operators[t.buyer_index].name, t.payment);
  }
  std::printf("\nresiduals: %.2f MHz drawn from the carrier-grade pool at "
              "$%.2f/MHz\n",
              out.grid_import_kwh, config.market.retail_price);
  std::printf("privacy: utilization figures never left the operators — only "
              "the ratios of Lemma 4 were revealed\n");
  return 0;
}
