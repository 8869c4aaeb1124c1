#include "protocol/context.h"

#include <gtest/gtest.h>

#include "net/bus.h"

#include <set>

namespace pem::protocol {
namespace {

std::vector<Party> MakeParties(const std::vector<double>& nets,
                               crypto::Rng& rng) {
  std::vector<Party> parties;
  for (size_t i = 0; i < nets.size(); ++i) {
    grid::AgentParams params;
    parties.emplace_back(static_cast<net::AgentId>(i), params);
    grid::WindowState st;
    st.generation_kwh = nets[i] > 0 ? nets[i] : 0.0;
    st.load_kwh = nets[i] < 0 ? -nets[i] : 0.0;
    parties.back().BeginWindow(st, int64_t{1} << 30, rng);
  }
  return parties;
}

PemConfig TestConfig() {
  PemConfig cfg;
  cfg.key_bits = 128;
  return cfg;
}

TEST(Coalitions, SplitsBySign) {
  crypto::DeterministicRng rng(1);
  std::vector<Party> parties = MakeParties({1.0, -1.0, 0.0, 2.0}, rng);
  const Coalitions c = FormCoalitions(parties);
  EXPECT_EQ(c.sellers, (std::vector<size_t>{0, 3}));
  EXPECT_EQ(c.buyers, (std::vector<size_t>{1}));
}

TEST(PickRandomIndex, OnlyReturnsCandidates) {
  crypto::DeterministicRng rng(2);
  const std::vector<size_t> candidates = {3, 7, 11};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const size_t pick = PickRandomIndex(candidates, rng);
    EXPECT_TRUE(pick == 3 || pick == 7 || pick == 11);
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 3u);  // all candidates eventually drawn
}

TEST(PickRandomIndexDeath, EmptyAborts) {
  crypto::DeterministicRng rng(3);
  EXPECT_DEATH((void)PickRandomIndex({}, rng), "empty");
}

TEST(CiphertextWire, RoundTrip) {
  crypto::DeterministicRng rng(4);
  const crypto::PaillierKeyPair kp = crypto::GeneratePaillierKeyPair(128, rng);
  const crypto::PaillierCiphertext ct = kp.pub.EncryptSigned(-1234, rng);
  net::ByteWriter w;
  WriteCiphertext(w, kp.pub, ct);
  EXPECT_EQ(w.size(), kp.pub.ciphertext_bytes() + 4);  // + length prefix
  net::ByteReader r(w.data());
  const crypto::PaillierCiphertext back = ReadCiphertext(r);
  EXPECT_EQ(back.value, ct.value);
  EXPECT_EQ(kp.priv.DecryptSigned(back), -1234);
}

TEST(RingAggregate, SumsAllContributions) {
  crypto::DeterministicRng rng(5);
  std::vector<Party> parties = MakeParties({1.0, 2.0, 3.0, 4.0}, rng);
  parties[0].EnsureKeys(128, rng);
  net::MessageBus bus(4);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  const std::vector<size_t> ring = {1, 2, 3};
  const RingCiphertext agg =
      RingAggregate(ctx, parties[0].public_key(), parties, ring,
                    [](const Party& p) { return p.net_raw(); },
                    parties[0].id());
  EXPECT_EQ(parties[0].private_key().DecryptSigned(agg.ct), 9'000'000);
}

TEST(RingAggregate, SingleMemberRing) {
  crypto::DeterministicRng rng(6);
  std::vector<Party> parties = MakeParties({5.0, -1.0}, rng);
  parties[1].EnsureKeys(128, rng);
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  const std::vector<size_t> ring = {0};
  const RingCiphertext agg =
      RingAggregate(ctx, parties[1].public_key(), parties, ring,
                    [](const Party& p) { return p.net_raw(); },
                    parties[1].id());
  EXPECT_EQ(parties[1].private_key().DecryptSigned(agg.ct), 5'000'000);
}

TEST(RingAggregate, HandlesNegativeContributions) {
  crypto::DeterministicRng rng(7);
  std::vector<Party> parties = MakeParties({-1.5, -2.5, 1.0}, rng);
  parties[2].EnsureKeys(128, rng);
  net::MessageBus bus(3);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  const std::vector<size_t> ring = {0, 1};
  const RingCiphertext agg =
      RingAggregate(ctx, parties[2].public_key(), parties, ring,
                    [](const Party& p) { return p.net_raw(); },
                    parties[2].id());
  EXPECT_EQ(parties[2].private_key().DecryptSigned(agg.ct), -4'000'000);
}

TEST(RingAggregate, EveryHopIsAccounted) {
  crypto::DeterministicRng rng(8);
  std::vector<Party> parties = MakeParties({1.0, 1.0, 1.0, 1.0}, rng);
  parties[0].EnsureKeys(128, rng);
  net::MessageBus bus(4);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  const std::vector<size_t> ring = {1, 2, 3};
  (void)RingAggregate(ctx, parties[0].public_key(), parties, ring,
                      [](const Party& p) { return p.net_raw(); },
                      parties[0].id());
  // Hops: 1->2, 2->3, 3->0.
  EXPECT_EQ(bus.total_messages(), 3u);
  EXPECT_GT(bus.stats(1).bytes_sent, 0u);
  EXPECT_GT(bus.stats(0).bytes_received, 0u);
}

TEST(RingAggregate, FinalRecipientInRingSkipsLastSend) {
  crypto::DeterministicRng rng(9);
  std::vector<Party> parties = MakeParties({1.0, 2.0}, rng);
  parties[1].EnsureKeys(128, rng);
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  // Ring ends at party 1, which is also the final recipient.
  const std::vector<size_t> ring = {0, 1};
  const RingCiphertext agg =
      RingAggregate(ctx, parties[1].public_key(), parties, ring,
                    [](const Party& p) { return p.net_raw(); },
                    parties[1].id());
  EXPECT_EQ(parties[1].private_key().DecryptSigned(agg.ct), 3'000'000);
  EXPECT_EQ(bus.total_messages(), 1u);  // only the 0 -> 1 hop
}

TEST(BroadcastPublicKey, ReachesAllPeers) {
  crypto::DeterministicRng rng(10);
  std::vector<Party> parties = MakeParties({1.0, -1.0, -1.0}, rng);
  parties[0].EnsureKeys(128, rng);
  net::MessageBus bus(3);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  BroadcastPublicKey(ctx, parties[0]);
  EXPECT_EQ(bus.total_messages(), 2u);
  EXPECT_FALSE(bus.HasMessage(1));  // drained by the helper
}

TEST(ExpectMessageDeath, WrongTypeAborts) {
  net::MessageBus bus(2);
  net::Endpoint receiver = bus.endpoint(1);
  bus.endpoint(0).Send(1, kMsgPrice, {});
  EXPECT_DEATH((void)ExpectMessage(receiver, kMsgRingHop), "unexpected");
}

TEST(ExpectMessageDeath, EmptyInboxAborts) {
  net::MessageBus bus(2);
  net::Endpoint receiver = bus.endpoint(0);
  EXPECT_DEATH((void)ExpectMessage(receiver, kMsgRingHop),
               "expected a message");
}

}  // namespace
}  // namespace pem::protocol
