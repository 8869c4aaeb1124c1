#include "protocol/market_eval.h"

#include <gtest/gtest.h>

#include "net/bus.h"

namespace pem::protocol {
namespace {

PemConfig TestConfig() {
  PemConfig cfg;
  cfg.key_bits = 128;
  return cfg;
}

struct Harness {
  std::vector<Party> parties;
  net::MessageBus bus;
  std::vector<net::Endpoint> eps = bus.endpoints();
  crypto::DeterministicRng rng;

  Harness(const std::vector<double>& nets, uint64_t seed)
      : bus(static_cast<int>(nets.size())), rng(seed) {
    for (size_t i = 0; i < nets.size(); ++i) {
      parties.emplace_back(static_cast<net::AgentId>(i), grid::AgentParams{});
      grid::WindowState st;
      st.generation_kwh = nets[i] > 0 ? nets[i] : 0.0;
      st.load_kwh = nets[i] < 0 ? -nets[i] : 0.0;
      parties.back().BeginWindow(st, int64_t{1} << 30, rng);
    }
  }

  MarketEvalResult Run(const PemConfig& cfg) {
    ProtocolContext ctx{eps, rng, cfg};
    return RunPrivateMarketEvaluation(ctx, parties, FormCoalitions(parties));
  }
};

TEST(MarketEval, DetectsGeneralMarket) {
  Harness s({0.5, -1.0, -2.0}, 1);  // E_s = 0.5 < E_b = 3.0
  EXPECT_TRUE(s.Run(TestConfig()).general_market);
}

TEST(MarketEval, DetectsExtremeMarket) {
  Harness s({3.0, 1.0, -0.5}, 2);  // E_s = 4.0 >= E_b = 0.5
  EXPECT_FALSE(s.Run(TestConfig()).general_market);
}

TEST(MarketEval, EqualSupplyAndDemandIsExtreme) {
  Harness s({1.0, -1.0}, 3);  // E_s == E_b: paper defines >= as extreme
  EXPECT_FALSE(s.Run(TestConfig()).general_market);
}

TEST(MarketEval, TinyMarginDetected) {
  // One fixed-point unit (1e-6 kWh) separates the coalitions.
  Harness general({1.0, -1.000001}, 4);
  EXPECT_TRUE(general.Run(TestConfig()).general_market);
  Harness extreme({1.000001, -1.0}, 5);
  EXPECT_FALSE(extreme.Run(TestConfig()).general_market);
}

TEST(MarketEval, ChosenAgentsComeFromCorrectCoalitions) {
  Harness s({2.0, 1.5, -1.0, -3.0, -0.5}, 6);
  const MarketEvalResult r = s.Run(TestConfig());
  EXPECT_TRUE(r.hr1_seller_index == 0 || r.hr1_seller_index == 1);
  EXPECT_GE(r.hr2_buyer_index, 2u);
  EXPECT_LE(r.hr2_buyer_index, 4u);
}

TEST(MarketEval, ManyAgentsStillCorrect) {
  // 8 sellers x 0.3 = 2.4 supply, 12 buyers x 0.25 = 3.0 demand.
  std::vector<double> nets;
  for (int i = 0; i < 8; ++i) nets.push_back(0.3);
  for (int i = 0; i < 12; ++i) nets.push_back(-0.25);
  Harness s(nets, 7);
  EXPECT_TRUE(s.Run(TestConfig()).general_market);
}

TEST(MarketEval, ResultIndependentOfRandomChoices) {
  // Same market, different protocol randomness -> same verdict.
  for (uint64_t seed = 20; seed < 26; ++seed) {
    Harness s({0.4, 0.7, -0.6, -0.9}, seed);
    EXPECT_TRUE(s.Run(TestConfig()).general_market) << seed;
  }
}

TEST(MarketEval, GeneratesSubstantialTraffic) {
  Harness s({1.0, -0.5, -0.6}, 8);
  (void)s.Run(TestConfig());
  // Two aggregation rings + GC comparison + broadcasts: more than the
  // 6,323-byte secure comparison alone.
  EXPECT_GT(s.bus.total_bytes(), 6'323u);
}

TEST(MarketEvalDeath, EmptyCoalitionAborts) {
  Harness s({1.0, 2.0}, 9);  // no buyers
  PemConfig cfg = TestConfig();
  ProtocolContext ctx{s.eps, s.rng, cfg};
  EXPECT_DEATH(
      (void)RunPrivateMarketEvaluation(ctx, s.parties,
                                       FormCoalitions(s.parties)),
      "both coalitions");
}

}  // namespace
}  // namespace pem::protocol
