#include "protocol/party.h"

#include <gtest/gtest.h>

namespace pem::protocol {
namespace {

grid::AgentParams Params(double k = 1.0, double eps = 0.9) {
  grid::AgentParams p;
  p.preference_k = k;
  p.battery_epsilon = eps;
  return p;
}

grid::WindowState State(double g, double l, double b = 0.0) {
  grid::WindowState s;
  s.generation_kwh = g;
  s.load_kwh = l;
  s.battery_kwh = b;
  return s;
}

TEST(Party, BeginWindowQuantizesNetEnergy) {
  Party p(0, Params());
  crypto::DeterministicRng rng(1);
  p.BeginWindow(State(2.0, 0.5), 1 << 20, rng);
  EXPECT_EQ(p.net_raw(), 1'500'000);
  EXPECT_DOUBLE_EQ(p.net_kwh(), 1.5);
  EXPECT_EQ(p.role(), grid::Role::kSeller);
}

TEST(Party, RolesFollowNetSign) {
  Party p(0, Params());
  crypto::DeterministicRng rng(2);
  p.BeginWindow(State(0.0, 1.0), 1 << 20, rng);
  EXPECT_EQ(p.role(), grid::Role::kBuyer);
  p.BeginWindow(State(1.0, 1.0), 1 << 20, rng);
  EXPECT_EQ(p.role(), grid::Role::kOffMarket);
}

TEST(Party, BatteryEntersNetEnergy) {
  Party p(0, Params());
  crypto::DeterministicRng rng(3);
  p.BeginWindow(State(2.0, 0.5, 1.0), 1 << 20, rng);  // sn = 0.5
  EXPECT_DOUBLE_EQ(p.net_kwh(), 0.5);
}

TEST(Party, NonceWithinBound) {
  Party p(0, Params());
  crypto::DeterministicRng rng(4);
  for (int i = 0; i < 50; ++i) {
    p.BeginWindow(State(1.0, 0.5), 1000, rng);
    EXPECT_GE(p.nonce(), 0);
    EXPECT_LT(p.nonce(), 1000);
  }
}

TEST(Party, NoncesVaryAcrossWindows) {
  Party p(0, Params());
  crypto::DeterministicRng rng(5);
  p.BeginWindow(State(1.0, 0.5), int64_t{1} << 40, rng);
  const int64_t n1 = p.nonce();
  p.BeginWindow(State(1.0, 0.5), int64_t{1} << 40, rng);
  EXPECT_NE(p.nonce(), n1);
}

TEST(Party, PreferenceRawIsFixedPoint) {
  Party p(0, Params(1.25));
  EXPECT_EQ(p.PreferenceRaw(), 1'250'000);
}

TEST(Party, SupplyTermRawMatchesEquation13Denominator) {
  Party p(0, Params(1.0, 0.9));
  crypto::DeterministicRng rng(6);
  p.BeginWindow(State(2.0, 0.5, 0.4), 1 << 20, rng);
  // g + 1 + eps*b - b = 2 + 1 + 0.36 - 0.4 = 2.96
  EXPECT_EQ(p.SupplyTermRaw(), 2'960'000);
}

TEST(Party, KeysAreLazyAndCached) {
  Party p(0, Params());
  EXPECT_FALSE(p.HasKeys());
  crypto::DeterministicRng rng(7);
  const crypto::BigInt n1 = p.EnsureKeys(128, rng).n();
  EXPECT_TRUE(p.HasKeys());
  EXPECT_TRUE(p.HasPrivateKey());
  const uint64_t cursor = rng.Cursor();
  EXPECT_EQ(p.EnsureKeys(128, rng).n(), n1);  // cached, not regenerated
  EXPECT_EQ(rng.Cursor(), cursor);
}

TEST(Party, KeySizeChangeRegenerates) {
  Party p(0, Params());
  crypto::DeterministicRng rng(8);
  const crypto::BigInt n128 = p.EnsureKeys(128, rng).n();
  const crypto::BigInt n256 = p.EnsureKeys(256, rng).n();
  EXPECT_NE(n128, n256);
  EXPECT_EQ(p.public_key().key_bits(), 256);
}

TEST(PartyDeath, KeyAccessBeforeGenerationAborts) {
  Party p(0, Params());
  EXPECT_DEATH((void)p.public_key(), "no keys");
}

TEST(PartyDeath, LearnedPublicKeyHoldsNoPrivateKey) {
  Party owner(0, Params());
  crypto::DeterministicRng rng(9);
  const crypto::PaillierPublicKey pk = owner.EnsureKeys(128, rng);
  Party replica(0, Params());
  replica.LearnPublicKey(pk);
  EXPECT_TRUE(replica.HasKeys());
  EXPECT_FALSE(replica.HasPrivateKey());
  EXPECT_EQ(replica.public_key(), pk);
  EXPECT_DEATH((void)replica.private_key(), "no private key");
}

}  // namespace
}  // namespace pem::protocol
