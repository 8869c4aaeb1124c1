// End-to-end equivalence: the full cryptographic PEM window (Protocols
// 1-4 over the bus) must compute exactly the plaintext clearing
// outcome, across market types, population sizes, and key sizes.
#include <gtest/gtest.h>

#include "net/bus.h"

#include <numeric>

#include "grid/trace.h"
#include "market/clearing.h"
#include "protocol/pem_protocol.h"

namespace pem::protocol {
namespace {

struct Fixture {
  std::vector<Party> parties;
  std::vector<market::AgentWindowInput> inputs;
  net::MessageBus bus;
  std::vector<net::Endpoint> eps = bus.endpoints();
  crypto::DeterministicRng rng;
  PemConfig cfg;

  Fixture(const std::vector<market::AgentWindowInput>& in, uint64_t seed,
          int key_bits = 128)
      : inputs(in), bus(static_cast<int>(in.size())), rng(seed) {
    cfg.key_bits = key_bits;
    for (size_t i = 0; i < in.size(); ++i) {
      parties.emplace_back(static_cast<net::AgentId>(i), in[i].params);
      parties.back().BeginWindow(in[i].state, cfg.nonce_bound, rng);
    }
  }

  PemWindowResult Run() {
    ProtocolContext ctx{eps, rng, cfg};
    return RunPemWindow(ctx, parties);
  }
};

market::AgentWindowInput Agent(double g, double l, double b = 0.0,
                               double k = 1.0, double eps = 0.9) {
  market::AgentWindowInput in;
  in.params.preference_k = k;
  in.params.battery_epsilon = eps;
  in.state.generation_kwh = g;
  in.state.load_kwh = l;
  in.state.battery_kwh = b;
  return in;
}

void ExpectOutcomesMatch(const PemWindowResult& crypto_out,
                         const market::MarketOutcome& oracle,
                         double tol = 1e-4) {
  EXPECT_EQ(crypto_out.record.type, oracle.type);
  EXPECT_NEAR(crypto_out.record.price, oracle.price, 1e-5);
  EXPECT_NEAR(crypto_out.record.supply_total, oracle.supply_total, tol);
  EXPECT_NEAR(crypto_out.record.demand_total, oracle.demand_total, tol);
  ASSERT_EQ(crypto_out.market_sale.size(), oracle.market_sale.size());
  for (size_t i = 0; i < oracle.market_sale.size(); ++i) {
    EXPECT_NEAR(crypto_out.market_sale[i], oracle.market_sale[i], tol) << i;
    EXPECT_NEAR(crypto_out.market_purchase[i], oracle.market_purchase[i], tol)
        << i;
    EXPECT_NEAR(crypto_out.money_paid[i], oracle.money_paid[i], tol) << i;
    EXPECT_NEAR(crypto_out.money_received[i], oracle.money_received[i], tol)
        << i;
  }
  EXPECT_NEAR(crypto_out.record.buyer_cost_pem, oracle.buyer_total_cost, tol);
  EXPECT_NEAR(crypto_out.grid_import_kwh, oracle.grid_import_kwh, tol);
  EXPECT_NEAR(crypto_out.grid_export_kwh, oracle.grid_export_kwh, tol);
}

TEST(EndToEnd, GeneralMarketMatchesOracle) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(1.2, 0.3, 0.0, 0.9),  Agent(0.8, 0.2, 0.1, 1.1),
      Agent(0.0, 1.0),            Agent(0.1, 0.9),
      Agent(0.0, 0.7),
  };
  Fixture f(agents, 1);
  const PemWindowResult out = f.Run();
  ASSERT_EQ(out.record.type, market::MarketType::kGeneral);
  ExpectOutcomesMatch(out, market::ClearMarket(agents, f.cfg.market));
}

TEST(EndToEnd, ExtremeMarketMatchesOracle) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(3.0, 0.3), Agent(2.5, 0.4), Agent(0.0, 1.0), Agent(0.0, 0.5)};
  Fixture f(agents, 2);
  const PemWindowResult out = f.Run();
  ASSERT_EQ(out.record.type, market::MarketType::kExtreme);
  ExpectOutcomesMatch(out, market::ClearMarket(agents, f.cfg.market));
}

TEST(EndToEnd, NoSellersFallsBackToGrid) {
  const std::vector<market::AgentWindowInput> agents = {Agent(0.0, 1.0),
                                                        Agent(0.2, 0.8)};
  Fixture f(agents, 3);
  const PemWindowResult out = f.Run();
  EXPECT_EQ(out.record.type, market::MarketType::kNoMarket);
  EXPECT_TRUE(out.record.trades.empty());
  ExpectOutcomesMatch(out, market::ClearMarket(agents, f.cfg.market));
  EXPECT_EQ(out.record.bus_bytes, 0u);  // no protocol traffic at all
}

TEST(EndToEnd, NoBuyersFallsBackToGrid) {
  const std::vector<market::AgentWindowInput> agents = {Agent(2.0, 0.5),
                                                        Agent(1.0, 0.2)};
  Fixture f(agents, 4);
  const PemWindowResult out = f.Run();
  EXPECT_EQ(out.record.type, market::MarketType::kNoMarket);
  ExpectOutcomesMatch(out, market::ClearMarket(agents, f.cfg.market));
}

TEST(EndToEnd, OffMarketAgentsAreUntouched) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(1.0, 0.2), Agent(0.5, 0.5), Agent(0.0, 0.9)};
  Fixture f(agents, 5);
  const PemWindowResult out = f.Run();
  EXPECT_DOUBLE_EQ(out.money_paid[1], 0.0);
  EXPECT_DOUBLE_EQ(out.money_received[1], 0.0);
  EXPECT_DOUBLE_EQ(out.market_sale[1], 0.0);
}

TEST(EndToEnd, PriceClampedWindowsMatchOracle) {
  // Force floor clamping with small k sellers.
  const std::vector<market::AgentWindowInput> low_k = {
      Agent(1.0, 0.1, 0.0, 0.3), Agent(0.0, 2.0)};
  Fixture f_low(low_k, 6);
  const PemWindowResult out_low = f_low.Run();
  EXPECT_DOUBLE_EQ(out_low.record.price, f_low.cfg.market.price_floor);
  ExpectOutcomesMatch(out_low, market::ClearMarket(low_k, f_low.cfg.market));

  const std::vector<market::AgentWindowInput> high_k = {
      Agent(1.0, 0.1, 0.0, 5.0), Agent(0.0, 2.0)};
  Fixture f_high(high_k, 7);
  const PemWindowResult out_high = f_high.Run();
  EXPECT_DOUBLE_EQ(out_high.record.price, f_high.cfg.market.price_ceiling);
}

TEST(EndToEnd, BatteriesFlowThroughWholePipeline) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(2.0, 0.3, 0.5, 1.0, 0.92),   // charging seller
      Agent(0.4, 0.8, -0.2, 1.0, 0.88),  // discharging smooths a buyer
      Agent(0.0, 1.5),
  };
  Fixture f(agents, 8);
  ExpectOutcomesMatch(f.Run(), market::ClearMarket(agents, f.cfg.market));
}

TEST(EndToEnd, TradeLedgerConsistentWithAggregates) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(0.9, 0.2), Agent(0.6, 0.1), Agent(0.0, 1.1), Agent(0.0, 0.8),
      Agent(0.0, 0.6)};
  Fixture f(agents, 9);
  const PemWindowResult out = f.Run();
  double ledger_energy = 0, ledger_money = 0;
  for (const Trade& t : out.record.trades) {
    ledger_energy += t.energy_kwh;
    ledger_money += t.payment;
  }
  double sales = std::accumulate(out.market_sale.begin(),
                                 out.market_sale.end(), 0.0);
  EXPECT_NEAR(ledger_energy, sales, 1e-9);
  EXPECT_NEAR(ledger_money, out.record.price * sales, 1e-9);
}

TEST(EndToEnd, RandomMarketsSweepAgainstOracle) {
  grid::TraceConfig tcfg;
  tcfg.num_homes = 14;
  tcfg.windows_per_day = 6;
  tcfg.seed = 99;
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(tcfg);
  std::vector<grid::Battery> batteries = trace.MakeBatteries();
  for (int w = 0; w < trace.windows_per_day; ++w) {
    std::vector<market::AgentWindowInput> agents;
    for (int h = 0; h < trace.num_homes(); ++h) {
      agents.push_back(market::AgentWindowInput{
          trace.homes[static_cast<size_t>(h)].params,
          trace.ResolveWindow(h, w, batteries)});
    }
    Fixture f(agents, 100 + static_cast<uint64_t>(w));
    ExpectOutcomesMatch(f.Run(), market::ClearMarket(agents, f.cfg.market));
  }
}

class EndToEndKeySizes : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndKeySizes, OutcomeIndependentOfKeySize) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(1.1, 0.2, 0.0, 0.95), Agent(0.0, 0.9), Agent(0.0, 0.6)};
  Fixture f(agents, 42, GetParam());
  ExpectOutcomesMatch(f.Run(), market::ClearMarket(agents, f.cfg.market));
}

INSTANTIATE_TEST_SUITE_P(KeyBits, EndToEndKeySizes,
                         ::testing::Values(128, 256, 512));

TEST(EndToEnd, RuntimeAndBandwidthAreMeasured) {
  const std::vector<market::AgentWindowInput> agents = {
      Agent(1.0, 0.2), Agent(0.0, 0.9)};
  Fixture f(agents, 11);
  const PemWindowResult out = f.Run();
  EXPECT_GT(out.record.runtime_seconds, 0.0);
  EXPECT_GT(out.record.bus_bytes, 1000u);
}

}  // namespace
}  // namespace pem::protocol
