// Privacy-oriented transcript checks.
//
// The simulation-based MPC proofs live in the paper (§V-A); these
// tests verify the mechanical prerequisites those proofs rely on:
//   * every message type on the wire is in the protocol's declared set;
//   * no agent's plaintext private data (net energy, nonce, k_i,
//     supply term) ever appears byte-for-byte in any payload;
//   * homomorphic payloads are ciphertext-sized, not plaintext-sized;
//   * protocol randomness refreshes the transcript between windows
//     while leaving the public outcome unchanged.
#include <gtest/gtest.h>

#include "net/bus.h"

#include <cstring>
#include <set>
#include <vector>

#include "crypto/secure_compare.h"
#include "market/clearing.h"
#include "protocol/coin_flip.h"
#include "protocol/market_eval.h"
#include "protocol/pem_protocol.h"

namespace pem::protocol {
namespace {

market::AgentWindowInput Agent(double g, double l, double k = 1.0) {
  market::AgentWindowInput in;
  in.params.preference_k = k;
  in.params.battery_epsilon = 0.9;
  in.state.generation_kwh = g;
  in.state.load_kwh = l;
  return in;
}

struct RecordedRun {
  std::vector<net::Message> messages;
  PemWindowResult result;
  std::vector<int64_t> private_ints;  // per-party net_raw, nonce, k, supply
};

RecordedRun RunRecorded(const std::vector<market::AgentWindowInput>& in,
                        uint64_t seed, bool collusion_resistant = false) {
  RecordedRun run;
  net::MessageBus bus(static_cast<int>(in.size()));
  std::vector<net::Endpoint> eps = bus.endpoints();
  bus.SetObserver([&run](const net::Message& m) { run.messages.push_back(m); });
  crypto::DeterministicRng rng(seed);
  PemConfig cfg;
  cfg.key_bits = 128;
  cfg.collusion_resistant_selection = collusion_resistant;
  std::vector<Party> parties;
  for (size_t i = 0; i < in.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), in[i].params);
    parties.back().BeginWindow(in[i].state, cfg.nonce_bound, rng);
  }
  for (const Party& p : parties) {
    run.private_ints.push_back(p.net_raw());
    run.private_ints.push_back(p.nonce());
    run.private_ints.push_back(p.PreferenceRaw());
    run.private_ints.push_back(p.SupplyTermRaw());
  }
  ProtocolContext ctx{eps, rng, cfg};
  run.result = RunPemWindow(ctx, parties);
  return run;
}

bool PayloadContains(const std::vector<uint8_t>& payload, int64_t value) {
  uint8_t needle[8];
  std::memcpy(needle, &value, 8);
  if (payload.size() < 8) return false;
  for (size_t i = 0; i + 8 <= payload.size(); ++i) {
    if (std::memcmp(payload.data() + i, needle, 8) == 0) return true;
  }
  return false;
}

const std::vector<market::AgentWindowInput> kMarket = {
    Agent(1.7, 0.3, 0.83), Agent(0.9, 0.2, 1.21), Agent(0.0, 1.4),
    Agent(0.1, 0.8),       Agent(0.0, 0.6),
};

TEST(PrivacyTranscript, OnlyDeclaredMessageTypesAppear) {
  const RecordedRun run = RunRecorded(kMarket, 1);
  const std::set<uint32_t> allowed = {
      kMsgRingHop,        kMsgRingFinal,     kMsgMarketCase,
      kMsgPrice,          kMsgEncTotal,      kMsgRatioCipher,
      kMsgRatioBroadcast, kMsgEnergyTransfer, kMsgPayment,
      kMsgPublicKey,      crypto::kMsgGcOtSetup,
      crypto::kMsgGcOtChoices, crypto::kMsgGcTables,
      crypto::kMsgGcResult};
  for (const net::Message& m : run.messages) {
    EXPECT_TRUE(allowed.contains(m.type))
        << "undeclared message type 0x" << std::hex << m.type;
  }
  EXPECT_FALSE(run.messages.empty());
}

TEST(PrivacyTranscript, PlaintextPrivateValuesNeverOnTheWire) {
  const RecordedRun run = RunRecorded(kMarket, 2);
  for (const net::Message& m : run.messages) {
    for (int64_t secret : run.private_ints) {
      if (secret == 0) continue;  // zero bytes appear incidentally
      EXPECT_FALSE(PayloadContains(m.payload, secret))
          << "secret " << secret << " leaked in message type 0x" << std::hex
          << m.type;
    }
  }
}

TEST(PrivacyTranscript, HomomorphicPayloadsAreCiphertextSized) {
  const RecordedRun run = RunRecorded(kMarket, 3);
  // 128-bit key -> 32-byte ciphertexts (+4-byte length prefix).
  const size_t ct_frame = 32 + 4;
  for (const net::Message& m : run.messages) {
    if (m.type == kMsgRingHop || m.type == kMsgRingFinal ||
        m.type == kMsgEncTotal) {
      EXPECT_EQ(m.payload.size(), ct_frame) << std::hex << m.type;
    }
    if (m.type == kMsgRatioCipher) {
      EXPECT_EQ(m.payload.size(), 4 + 8 + ct_frame);
    }
  }
}

TEST(PrivacyTranscript, TranscriptRefreshesAcrossRandomness) {
  const RecordedRun a = RunRecorded(kMarket, 10);
  const RecordedRun b = RunRecorded(kMarket, 11);
  // Public outcome identical...
  EXPECT_EQ(a.result.type, b.result.type);
  EXPECT_NEAR(a.result.price, b.result.price, 1e-9);
  EXPECT_NEAR(a.result.buyer_total_cost, b.result.buyer_total_cost, 1e-6);
  // ...but the encrypted transcript differs (fresh nonces + randomness).
  bool any_hop_differs = false;
  for (const net::Message& ma : a.messages) {
    if (ma.type != kMsgRingHop) continue;
    bool matched = false;
    for (const net::Message& mb : b.messages) {
      if (mb.type == kMsgRingHop && mb.payload == ma.payload) matched = true;
    }
    if (!matched) any_hop_differs = true;
  }
  EXPECT_TRUE(any_hop_differs);
}

TEST(PrivacyTranscript, PublicOutputsAreTheOnlyPlaintext) {
  const RecordedRun run = RunRecorded(kMarket, 4);
  // kMsgPrice carries exactly one double — the public price.
  for (const net::Message& m : run.messages) {
    if (m.type == kMsgPrice) {
      ASSERT_EQ(m.payload.size(), 8u);
      double p;
      std::memcpy(&p, m.payload.data(), 8);
      EXPECT_DOUBLE_EQ(p, run.result.price);
    }
    if (m.type == kMsgMarketCase) {
      ASSERT_EQ(m.payload.size(), 1u);
    }
  }
}

TEST(PrivacyTranscript, RatiosRevealOnlyQuotients) {
  // Lemma 4: the seller coalition learns |sn_j| / E_b, never |sn_j| or
  // E_b.  Check the broadcast ratios match the public quotients and are
  // strictly inside (0, 1).
  const RecordedRun run = RunRecorded(kMarket, 5);
  ASSERT_EQ(run.result.type, market::MarketType::kGeneral);
  for (const net::Message& m : run.messages) {
    if (m.type != kMsgRatioBroadcast) continue;
    net::ByteReader r(m.payload);
    const uint32_t count = r.U32();
    for (uint32_t i = 0; i < count; ++i) {
      (void)r.U32();
      const double ratio = r.F64();
      EXPECT_GT(ratio, 0.0);
      EXPECT_LT(ratio, 1.0);
    }
  }
}

TEST(PrivacyTranscript, CollusionResistantModeLeaksNothingExtra) {
  const RecordedRun run = RunRecorded(kMarket, 7, /*collusion_resistant=*/true);
  // Coin-flip commit/reveal messages appear...
  bool saw_commit = false, saw_reveal = false;
  for (const net::Message& m : run.messages) {
    saw_commit |= (m.type == kMsgCoinCommit);
    saw_reveal |= (m.type == kMsgCoinReveal);
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_reveal);
  // ...but private values still never do.
  for (const net::Message& m : run.messages) {
    for (int64_t secret : run.private_ints) {
      if (secret == 0) continue;
      EXPECT_FALSE(PayloadContains(m.payload, secret))
          << "secret leaked in message type 0x" << std::hex << m.type;
    }
  }
}

TEST(PrivacyTranscript, NoMarketWindowsSendNothing) {
  const std::vector<market::AgentWindowInput> buyers_only = {Agent(0.0, 1.0),
                                                             Agent(0.0, 2.0)};
  const RecordedRun run = RunRecorded(buyers_only, 6);
  EXPECT_TRUE(run.messages.empty());
}

}  // namespace
}  // namespace pem::protocol
