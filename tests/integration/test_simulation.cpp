#include "core/simulation.h"

#include <gtest/gtest.h>

namespace pem::core {
namespace {

grid::TraceConfig SmallTrace(int homes = 16, int windows = 24) {
  grid::TraceConfig cfg;
  cfg.num_homes = homes;
  cfg.windows_per_day = windows;
  cfg.seed = 13;
  return cfg;
}

SimulationConfig FastCrypto() {
  SimulationConfig cfg;
  cfg.engine = Engine::kCrypto;
  cfg.pem.key_bits = 128;
  return cfg;
}

TEST(Simulation, PlaintextRunsEveryWindow) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(SmallTrace());
  SimulationConfig cfg;
  const SimulationResult r = RunSimulation(trace, cfg);
  ASSERT_EQ(r.windows.size(), 24u);
  for (size_t w = 0; w < r.windows.size(); ++w) {
    EXPECT_EQ(r.windows[w].window, static_cast<int>(w));
  }
}

TEST(Simulation, StrideSamplesWindows) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(SmallTrace());
  SimulationConfig cfg;
  cfg.window_stride = 6;
  const SimulationResult r = RunSimulation(trace, cfg);
  ASSERT_EQ(r.windows.size(), 4u);
  EXPECT_EQ(r.windows[1].window, 6);
}

TEST(Simulation, RecordsStatesWhenAsked) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(SmallTrace());
  SimulationConfig cfg;
  cfg.record_states = true;
  const SimulationResult r = RunSimulation(trace, cfg);
  ASSERT_EQ(r.resolved_states.size(), r.windows.size());
  EXPECT_EQ(r.resolved_states[0].size(), 16u);
}

TEST(Simulation, CoalitionSizesAreConsistent) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(SmallTrace());
  SimulationConfig cfg;
  const SimulationResult r = RunSimulation(trace, cfg);
  for (const WindowRecord& rec : r.windows) {
    EXPECT_LE(rec.num_sellers + rec.num_buyers, 16);
    if (rec.type != market::MarketType::kNoMarket) {
      EXPECT_GT(rec.num_sellers, 0);
      EXPECT_GT(rec.num_buyers, 0);
    }
  }
}

TEST(Simulation, PemNeverCostsBuyersMoreThanBaseline) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(30, 48));
  SimulationConfig cfg;
  const SimulationResult r = RunSimulation(trace, cfg);
  for (const WindowRecord& rec : r.windows) {
    EXPECT_LE(rec.buyer_cost_pem, rec.buyer_cost_baseline + 1e-9)
        << "window " << rec.window;
    EXPECT_LE(rec.grid_interaction_pem, rec.grid_interaction_baseline + 1e-9)
        << "window " << rec.window;
  }
}

TEST(Simulation, PricesRespectMarketBand) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(30, 48));
  SimulationConfig cfg;
  const SimulationResult r = RunSimulation(trace, cfg);
  const market::MarketParams& mp = cfg.pem.market;
  for (const WindowRecord& rec : r.windows) {
    if (rec.type == market::MarketType::kNoMarket) {
      EXPECT_DOUBLE_EQ(rec.price, mp.retail_price);
    } else {
      EXPECT_GE(rec.price, mp.price_floor - 1e-12);
      EXPECT_LE(rec.price, mp.price_ceiling + 1e-12);
    }
  }
}

TEST(Simulation, CryptoEngineMatchesPlaintextEngine) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(10, 6));
  SimulationConfig plain_cfg;
  const SimulationResult plain = RunSimulation(trace, plain_cfg);
  const SimulationResult crypto = RunSimulation(trace, FastCrypto());
  ASSERT_EQ(plain.windows.size(), crypto.windows.size());
  for (size_t w = 0; w < plain.windows.size(); ++w) {
    EXPECT_EQ(crypto.windows[w].type, plain.windows[w].type) << w;
    EXPECT_NEAR(crypto.windows[w].price, plain.windows[w].price, 1e-5) << w;
    EXPECT_NEAR(crypto.windows[w].buyer_cost_pem,
                plain.windows[w].buyer_cost_pem, 1e-4)
        << w;
    EXPECT_NEAR(crypto.windows[w].grid_interaction_pem,
                plain.windows[w].grid_interaction_pem, 1e-4)
        << w;
    EXPECT_EQ(crypto.windows[w].num_sellers, plain.windows[w].num_sellers);
    EXPECT_EQ(crypto.windows[w].num_buyers, plain.windows[w].num_buyers);
  }
}

TEST(Simulation, CryptoEngineAccumulatesRuntimeAndBandwidth) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(8, 4));
  const SimulationResult r = RunSimulation(trace, FastCrypto());
  EXPECT_GT(r.total_runtime_seconds, 0.0);
  EXPECT_GT(r.total_bus_bytes, 0u);
  EXPECT_GT(r.AverageRuntimeSeconds(), 0.0);
  EXPECT_GT(r.AverageBusBytes(), 0.0);
}

TEST(Simulation, DeterministicForSeed) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(8, 4));
  SimulationConfig cfg = FastCrypto();
  cfg.crypto_seed = 77;
  const SimulationResult a = RunSimulation(trace, cfg);
  const SimulationResult b = RunSimulation(trace, cfg);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].bus_bytes, b.windows[w].bus_bytes);
    EXPECT_DOUBLE_EQ(a.windows[w].price, b.windows[w].price);
  }
}

TEST(Simulation, PrecomputePoolsDoNotChangeOutcomes) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(10, 6));
  SimulationConfig plain = FastCrypto();
  SimulationConfig pooled = FastCrypto();
  pooled.pem.precompute_encryption = true;
  pooled.pem.encryption_pool_target = 64;
  const SimulationResult a = RunSimulation(trace, plain);
  const SimulationResult b = RunSimulation(trace, pooled);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(b.windows[w].type, a.windows[w].type) << w;
    EXPECT_NEAR(b.windows[w].price, a.windows[w].price, 1e-5) << w;
    EXPECT_NEAR(b.windows[w].buyer_cost_pem, a.windows[w].buyer_cost_pem,
                1e-4)
        << w;
    // The wire format is identical too: pooled encryption changes who
    // computed r^n, not what goes on the bus.
    EXPECT_EQ(b.windows[w].bus_bytes, a.windows[w].bus_bytes) << w;
  }
}

TEST(Simulation, ParallelEncryptionDoesNotChangeOutcomes) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(12, 5));
  SimulationConfig serial = FastCrypto();
  SimulationConfig parallel = FastCrypto();
  parallel.policy = net::ExecutionPolicy::Parallel(4);
  const SimulationResult a = RunSimulation(trace, serial);
  const SimulationResult b = RunSimulation(trace, parallel);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(b.windows[w].type, a.windows[w].type) << w;
    EXPECT_NEAR(b.windows[w].price, a.windows[w].price, 1e-5) << w;
    EXPECT_NEAR(b.windows[w].buyer_cost_pem, a.windows[w].buyer_cost_pem,
                1e-4)
        << w;
    // Same number of bytes: parallelism changes who computes, not what
    // is sent.
    EXPECT_EQ(b.windows[w].bus_bytes, a.windows[w].bus_bytes) << w;
  }
}

TEST(Simulation, ParallelModeIsDeterministicPerSeed) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(8, 3));
  SimulationConfig cfg = FastCrypto();
  cfg.policy = net::ExecutionPolicy::Parallel(4);
  cfg.crypto_seed = 123;
  const SimulationResult a = RunSimulation(trace, cfg);
  const SimulationResult b = RunSimulation(trace, cfg);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_DOUBLE_EQ(a.windows[w].price, b.windows[w].price);
    EXPECT_EQ(a.windows[w].bus_bytes, b.windows[w].bus_bytes);
  }
}

TEST(Simulation, WindowOffsetSkipsEarlyWindows) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(SmallTrace());
  SimulationConfig cfg;
  cfg.window_offset = 10;
  cfg.window_stride = 5;
  const SimulationResult r = RunSimulation(trace, cfg);
  ASSERT_FALSE(r.windows.empty());
  EXPECT_EQ(r.windows[0].window, 10);
  EXPECT_EQ(r.windows[1].window, 15);
}

TEST(Simulation, TransportOptionsResolveFromPolicy) {
  // One ExecutionPolicy object fully specifies a backend: the tuning in
  // policy.transport is what the forked backend RunSimulation builds
  // actually receives.  A ring size the shm backend must reject proves
  // the value arrived (the check fires before any child is forked).
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(4, 2));
  SimulationConfig cfg = FastCrypto();
  cfg.policy = net::ExecutionPolicy::Shm();
  cfg.policy.transport.shm_ring_bytes = 5000;
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "power of two");
}

TEST(SimulationDeath, BadStrideAborts) {
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(4, 2));
  SimulationConfig cfg;
  cfg.window_stride = 0;
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "stride");
}

TEST(SimulationDeath, ChurnAgentOutsideTraceAborts) {
  // Churn changes who participates, never the community size: an agent
  // the trace does not have is a config error, not a silent no-op.
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(4, 2));
  SimulationConfig cfg;
  cfg.churn = {ChurnEvent{/*window=*/0, /*agent=*/4, /*join=*/false}};
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "outside the trace");
  cfg.churn = {ChurnEvent{/*window=*/0, /*agent=*/-1, /*join=*/false}};
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "outside the trace");
}

TEST(SimulationDeath, ChurnWindowOutsideDayAborts) {
  // An event past the last window would never be applied.
  const grid::CommunityTrace trace =
      grid::GenerateCommunityTrace(SmallTrace(4, 2));
  SimulationConfig cfg;
  cfg.churn = {ChurnEvent{/*window=*/2, /*agent=*/1, /*join=*/false}};
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "outside the day");
  cfg.churn = {ChurnEvent{/*window=*/-1, /*agent=*/1, /*join=*/false}};
  EXPECT_DEATH((void)RunSimulation(trace, cfg), "outside the day");
}

}  // namespace
}  // namespace pem::core
