// Compile-and-smoke test for the umbrella header: everything a
// downstream user needs must be reachable through pem.h alone.
#include "pem.h"

#include <gtest/gtest.h>

namespace {

TEST(PublicApi, UmbrellaHeaderExposesCoreTypes) {
  // Market model.
  pem::market::MarketParams params;
  params.Validate();
  EXPECT_GT(pem::market::SellerUtility(1.0, 0.5, 0.9, 0.0, 1.0, 2.0), 0.0);

  // Crypto substrate.
  pem::crypto::DeterministicRng rng(1);
  const pem::crypto::PaillierKeyPair kp =
      pem::crypto::GeneratePaillierKeyPair(128, rng);
  EXPECT_EQ(kp.priv.DecryptSigned(kp.pub.EncryptSigned(-7, rng)), -7);

  // Grid simulation.
  pem::grid::TraceConfig tc;
  tc.num_homes = 3;
  tc.windows_per_day = 4;
  const pem::grid::CommunityTrace trace = pem::grid::GenerateCommunityTrace(tc);
  EXPECT_EQ(trace.num_homes(), 3);

  // Simulation driver.
  pem::core::SimulationConfig sc;
  const pem::core::SimulationResult r = pem::core::RunSimulation(trace, sc);
  EXPECT_EQ(r.windows.size(), 4u);

  // Ledger.
  pem::ledger::Ledger chain;
  EXPECT_TRUE(chain.Validate().empty());
}

TEST(PublicApi, FullWindowThroughUmbrellaHeader) {
  pem::net::MessageBus bus(3);
  std::vector<pem::net::Endpoint> eps = bus.endpoints();
  pem::crypto::DeterministicRng rng(2);
  pem::protocol::PemConfig config;
  config.key_bits = 128;
  std::vector<pem::protocol::Party> parties;
  const double nets[] = {0.5, -0.3, -0.4};
  for (int i = 0; i < 3; ++i) {
    parties.emplace_back(i, pem::grid::AgentParams{});
    pem::grid::WindowState st;
    st.generation_kwh = nets[i] > 0 ? nets[i] : 0;
    st.load_kwh = nets[i] < 0 ? -nets[i] : 0;
    parties.back().BeginWindow(st, config.nonce_bound, rng);
  }
  pem::protocol::ProtocolContext ctx{eps, rng, config};
  const pem::protocol::WindowRecord out =
      pem::protocol::RunPemWindow(ctx, parties).record;
  EXPECT_EQ(out.type, pem::market::MarketType::kGeneral);
  EXPECT_EQ(out.trades.size(), 2u);

  pem::ledger::Ledger chain;
  pem::ledger::SettlementContract contract(chain);
  EXPECT_TRUE(contract.SettleWindow(0, out).accepted);
}

}  // namespace
