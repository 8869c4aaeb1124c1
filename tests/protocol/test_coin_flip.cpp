#include "protocol/coin_flip.h"

#include <gtest/gtest.h>

#include "net/bus.h"

#include <set>

#include "market/clearing.h"
#include "protocol/pem_protocol.h"

namespace pem::protocol {
namespace {

struct Harness {
  std::vector<Party> parties;
  net::MessageBus bus;
  std::vector<net::Endpoint> eps = bus.endpoints();
  crypto::DeterministicRng rng;
  PemConfig cfg;

  Harness(int n, uint64_t seed) : bus(n), rng(seed) {
    cfg.key_bits = 128;
    for (int i = 0; i < n; ++i) {
      parties.emplace_back(i, grid::AgentParams{});
      grid::WindowState st;
      st.generation_kwh = (i % 2 == 0) ? 1.0 : 0.0;
      st.load_kwh = (i % 2 == 0) ? 0.0 : 1.0;
      parties.back().BeginWindow(st, int64_t{1} << 30, rng);
    }
  }

  ProtocolContext Ctx() { return ProtocolContext{eps, rng, cfg}; }
};

std::vector<size_t> All(int n) {
  std::vector<size_t> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i)] = static_cast<size_t>(i);
  return out;
}

TEST(CoinFlip, DrawsAreDeterministicPerSeed) {
  Harness a(5, 42), b(5, 42);
  ProtocolContext ca = a.Ctx(), cb = b.Ctx();
  EXPECT_EQ(JointRandomU64(ca, a.parties, All(5)),
            JointRandomU64(cb, b.parties, All(5)));
}

TEST(CoinFlip, DifferentSeedsDiverge) {
  Harness a(5, 1), b(5, 2);
  ProtocolContext ca = a.Ctx(), cb = b.Ctx();
  EXPECT_NE(JointRandomU64(ca, a.parties, All(5)),
            JointRandomU64(cb, b.parties, All(5)));
}

TEST(CoinFlip, SingleParticipantSkipsMessaging) {
  Harness h(3, 3);
  ProtocolContext ctx = h.Ctx();
  const std::vector<size_t> solo = {1};
  (void)JointRandomU64(ctx, h.parties, solo);
  EXPECT_EQ(h.bus.total_messages(), 0u);
}

TEST(CoinFlip, QuadraticMessagePattern) {
  const int m = 4;
  Harness h(m, 4);
  ProtocolContext ctx = h.Ctx();
  (void)JointRandomU64(ctx, h.parties, All(m));
  // commit + reveal, each m*(m-1) pairwise messages.
  EXPECT_EQ(h.bus.total_messages(),
            static_cast<uint64_t>(2 * m * (m - 1)));
  // Inboxes fully drained (everything verified).
  for (int i = 0; i < m; ++i) EXPECT_FALSE(h.bus.HasMessage(i));
}

TEST(CoinFlip, OutputLooksUniformAcrossSeeds) {
  // XOR of everyone's shares mod 4: all residues should appear.
  std::set<uint64_t> seen;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Harness h(3, 100 + seed);
    ProtocolContext ctx = h.Ctx();
    seen.insert(JointRandomU64(ctx, h.parties, All(3)) % 4);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SelectAgent, RespectsCandidateSet) {
  Harness h(6, 5);
  h.cfg.collusion_resistant_selection = true;
  ProtocolContext ctx = h.Ctx();
  const std::vector<size_t> candidates = {1, 3, 5};
  for (int i = 0; i < 10; ++i) {
    const size_t pick = SelectAgent(ctx, h.parties, candidates);
    EXPECT_TRUE(pick == 1 || pick == 3 || pick == 5) << pick;
  }
}

TEST(SelectAgent, DisabledModeSendsNothing) {
  Harness h(6, 6);
  h.cfg.collusion_resistant_selection = false;
  ProtocolContext ctx = h.Ctx();
  (void)SelectAgent(ctx, h.parties, All(6));
  EXPECT_EQ(h.bus.total_messages(), 0u);
}

TEST(SelectAgent, EnabledModeExchangesCommitments) {
  Harness h(4, 7);
  h.cfg.collusion_resistant_selection = true;
  ProtocolContext ctx = h.Ctx();
  (void)SelectAgent(ctx, h.parties, All(4));
  EXPECT_GT(h.bus.total_messages(), 0u);
}

// Full-window integration: collusion-resistant selection must not
// change the market outcome, only the transcript.
TEST(SelectAgent, FullWindowOutcomeUnchanged) {
  auto run = [](bool resistant, uint64_t seed) {
    Harness h(6, seed);
    h.cfg.collusion_resistant_selection = resistant;
    ProtocolContext ctx = h.Ctx();
    return RunPemWindow(ctx, h.parties).record;
  };
  const WindowRecord plain = run(false, 9);
  const WindowRecord resistant = run(true, 9);
  EXPECT_EQ(resistant.type, plain.type);
  EXPECT_NEAR(resistant.price, plain.price, 1e-9);
  EXPECT_NEAR(resistant.buyer_cost_pem, plain.buyer_cost_pem, 1e-6);
  EXPECT_GT(resistant.bus_bytes, plain.bus_bytes);  // coin-flip traffic
}

}  // namespace
}  // namespace pem::protocol
