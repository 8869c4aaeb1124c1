#include "protocol/context.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "crypto/paillier.h"
#include "net/bus.h"
#include "protocol/key_directory.h"
#include "support/partial_bus.h"

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

TEST(PrepareEncryption, DryPoolFallsBackToFreshRandomness) {
  crypto::DeterministicRng rng(32);
  const crypto::PaillierKeyPair kp = crypto::GeneratePaillierKeyPair(128, rng);
  net::MessageBus bus(1);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  crypto::PaillierPoolRegistry pools;  // never refilled
  ProtocolContext ctx{eps, rng, cfg, &pools};
  const EncryptionSlot slot = PrepareEncryption(ctx, kp.pub, 99);
  EXPECT_FALSE(slot.pooled_factor.has_value());
  EXPECT_TRUE(kp.pub.IsRandomness(slot.randomness));
  const crypto::PaillierCiphertext ct = ComputeEncryption(kp.pub, slot);
  EXPECT_EQ(kp.priv.DecryptSigned(ct), 99);
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

TEST(BroadcastPublicKey, MalformedAnnouncementNamesTheAnnouncer) {
  crypto::DeterministicRng rng(11);
  std::vector<Party> parties = MakeParties({1.0, -1.0}, rng);
  parties[0].EnsureKeys(128, rng);
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  KeyDirectory directory;
  ProtocolContext ctx{eps, rng, cfg};
  ctx.directory = &directory;
  // Well framed, but key_bits is twice the modulus width.
  const crypto::PaillierPublicKey& pk = parties[0].public_key();
  net::ByteWriter w;
  w.U32(static_cast<uint32_t>(2 * pk.key_bits()));
  w.Bytes(pk.n().ToBytes());
  eps[0].Send(1, kMsgPublicKey, w.Take());
  try {
    BroadcastPublicKey(ctx, parties[0]);
    ADD_FAILURE() << "a malformed key was registered";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.fault().cheater, 0);
    EXPECT_EQ(e.fault().cheat, CheatClass::kKeyEquivocation);
  }
  EXPECT_FALSE(directory.Has(0));
}

// AnnounceKey in a process that does not act for the owner: it takes
// the owner's draw and learns the key from its own agent's copy, which
// PartialBus serves from `copies`, the owner's frames to agent 1.
struct Learned {
  Party owner{0, grid::AgentParams{}};
  uint64_t cursor = 0;
  uint64_t keygens = 0;
};
Learned LearnFrom(std::vector<net::Message> copies, uint64_t seed) {
  crypto::DeterministicRng rng(seed);
  Learned out;
  testutil::PartialBus bus(2, {1}, std::move(copies));
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  KeyDirectory directory;
  ProtocolContext ctx{eps, rng, cfg};
  ctx.directory = &directory;
  const uint64_t before = crypto::PaillierKeygensOnThisThread();
  AnnounceKey(ctx, out.owner);
  EXPECT_FALSE(bus.HasMessage(1));  // the replayed copy was drained
  out.cursor = rng.Cursor();
  out.keygens = crypto::PaillierKeygensOnThisThread() - before;
  return out;
}

net::Message KeyCopy(std::vector<uint8_t> payload) {
  return net::Message{0, 1, kMsgPublicKey, std::move(payload)};
}

TEST(AnnounceKey, NonOwnerLearnsTheOwnersKeyWithoutSearching) {
  // The owner's own run, from the same seed.
  crypto::DeterministicRng rng(12);
  Party owner(0, grid::AgentParams{});
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const PemConfig cfg = TestConfig();
  ProtocolContext ctx{eps, rng, cfg};
  AnnounceKey(ctx, owner);
  ASSERT_TRUE(owner.HasPrivateKey());

  const Learned learned =
      LearnFrom({KeyCopy(owner.public_key().Serialize())}, 12);
  EXPECT_EQ(learned.owner.public_key(), owner.public_key());
  EXPECT_FALSE(learned.owner.HasPrivateKey());
  EXPECT_EQ(learned.cursor, rng.Cursor());
  EXPECT_EQ(learned.keygens, 0u);
}

TEST(AnnounceKey, EquivocationTargetLearnsTheHonestKey) {
  // Owner 0 doctors the last peer's copy.  The full run records every
  // copy; the target's projection learns from the doctored one, undoes
  // the doctoring, and its directory then sees both keys.
  PemConfig cfg = TestConfig();
  cfg.cheat = {0, CheatClass::kKeyEquivocation, 0};
  std::vector<net::Message> copies;
  crypto::PaillierPublicKey honest;
  {
    crypto::DeterministicRng rng(15);
    Party owner(0, grid::AgentParams{});
    net::MessageBus bus(3);
    bus.SetObserver([&copies](const net::Message& m) { copies.push_back(m); });
    std::vector<net::Endpoint> eps = bus.endpoints();
    ProtocolContext ctx{eps, rng, cfg};
    AnnounceKey(ctx, owner);  // no directory: drains without a verdict
    honest = owner.public_key();
  }
  ASSERT_EQ(copies.size(), 2u);
  ASSERT_NE(copies[1].payload, honest.Serialize());

  crypto::DeterministicRng rng(15);
  Party owner(0, grid::AgentParams{});
  testutil::PartialBus bus(3, {2}, copies);
  std::vector<net::Endpoint> eps = bus.endpoints();
  KeyDirectory directory;
  ProtocolContext ctx{eps, rng, cfg};
  ctx.directory = &directory;
  try {
    AnnounceKey(ctx, owner);
    ADD_FAILURE() << "equivocation not detected";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.fault().cheater, 0);
    EXPECT_EQ(e.fault().cheat, CheatClass::kKeyEquivocation);
  }
  EXPECT_EQ(owner.public_key(), honest);
  EXPECT_FALSE(owner.HasPrivateKey());
}

TEST(AnnounceKey, BadCopyNamesTheAnnouncer) {
  crypto::DeterministicRng rng(13);
  const crypto::PaillierPublicKey wide =
      crypto::GeneratePaillierKeyPair(256, rng).pub;
  const std::vector<net::Message> bad[] = {
      {KeyCopy({1, 2, 3})},                           // undecodable
      {KeyCopy(wide.Serialize())},                    // wrong key size
      {net::Message{0, 1, kMsgPrice, {0, 0, 0, 0}}},  // not a key
  };
  for (const std::vector<net::Message>& copies : bad) {
    try {
      (void)LearnFrom(copies, 14);
      ADD_FAILURE() << "a bad announcement was learned";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.fault().cheater, 0);
      EXPECT_EQ(e.fault().cheat, CheatClass::kKeyEquivocation);
    }
  }
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
