// A window as each forked child computes it.
//
// A child acts for its own agent only (net::Transport::Acts).  It
// encrypts only that agent's ring shares, takes any ciphertext frame
// it receives from another agent from the replica's opening, posts
// zero-filled frames between two agents it does not act for, and
// decrypts only under its own key.  It generates only the keys of the
// agent it acts for and learns every other key from its announcement.
// Each row here runs a PartialBus acting for one agent, for every agent
// in turn and for none, against the full in-process run from the same
// seed, and asserts the child's view is the full run's: the same window
// record, rng cursor, per-agent ledger and public keys, and byte-equal
// frames wherever it acts for the sender or the receiver; and that it
// holds, and searched primes for, its own agent's private key alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"
#include "market/clearing.h"
#include "protocol/context.h"
#include "protocol/pem_protocol.h"
#include "support/partial_bus.h"

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

// Eight agents, four sellers and four buyers.  Supply 5.0 kWh exceeds
// demand 3.8 kWh: extreme market.
const std::vector<market::AgentWindowInput> kExtreme = {
    Agent(1.7, 0.3, 0.83), Agent(0.9, 0.2, 1.21), Agent(0.0, 1.4),
    Agent(0.1, 0.8),       Agent(0.0, 0.6),       Agent(2.2, 0.4, 1.05),
    Agent(1.3, 0.2, 0.97), Agent(0.0, 1.1),
};
// Supply 2.6 kWh below demand 4.1 kWh: general market.
const std::vector<market::AgentWindowInput> kGeneral = {
    Agent(1.0, 0.3, 0.83), Agent(0.6, 0.2, 1.21), Agent(0.0, 1.4),
    Agent(0.1, 0.8),       Agent(0.0, 0.9),       Agent(1.2, 0.4, 1.05),
    Agent(0.9, 0.2, 0.97), Agent(0.0, 1.1),
};

struct Row {
  // Pooled factors per key, or 0 for fresh randomness only.  Pooled
  // rows give every key fewer factors than a window uses, so slots mix
  // pooled factors with fresh randomness.
  int pool_factors = 0;
  bool general = false;
};

// Without a printer gtest dumps the struct's raw bytes, padding
// included, into the listed test name, which then changes between
// builds.
void PrintTo(const Row& r, std::ostream* os) {
  *os << "{" << r.pool_factors << ", " << (r.general ? "true" : "false")
      << "}";
}

std::string RowName(const ::testing::TestParamInfo<Row>& info) {
  const Row& r = info.param;
  return std::string("Flat") + (r.pool_factors > 0 ? "Pooled" : "Fresh") +
         (r.general ? "General" : "Extreme");
}

// What one run of the window leaves behind.
struct WindowRun {
  WindowRecord record;
  uint64_t cursor = 0;  // Rng::Cursor() after the window
  std::vector<net::TrafficStats> per_agent;
  std::vector<net::Message> frames;
  // Per party after the window: its public key where known, and
  // whether this run holds its private key.
  std::vector<std::optional<crypto::PaillierPublicKey>> keys;
  std::vector<bool> private_keys;
  uint64_t keygens = 0;  // prime searches the run made, setup included
};

// Runs the window in a process acting for `acting`; a projection (any
// run but the full one) takes the keys it does not own from `full`.
WindowRun RunWindow(const Row& row, std::set<net::AgentId> acting,
                    const WindowRun* full = nullptr) {
  const std::vector<market::AgentWindowInput>& market =
      row.general ? kGeneral : kExtreme;
  const int n = static_cast<int>(market.size());
  const uint64_t keygens_before = crypto::PaillierKeygensOnThisThread();
  testutil::PartialBus bus(n, acting,
                           full != nullptr ? full->frames
                                           : std::vector<net::Message>{});
  WindowRun run;
  bus.SetObserver([&run](const net::Message& m) { run.frames.push_back(m); });
  std::vector<net::Endpoint> eps = bus.endpoints();

  crypto::DeterministicRng rng(35);
  PemConfig cfg;
  cfg.key_bits = 128;
  std::vector<Party> parties;
  for (int i = 0; i < n; ++i) {
    parties.emplace_back(i, market[static_cast<size_t>(i)].params);
    parties.back().BeginWindow(market[static_cast<size_t>(i)].state,
                               cfg.nonce_bound, rng);
  }
  crypto::PaillierPoolRegistry pools;
  const bool pooled = row.pool_factors > 0;
  if (pooled) {
    // Every key up front, each minted only where its owner is acted
    // for: the same draws as AnnounceKey, without the announcements.
    for (Party& p : parties) {
      if (acting.count(p.id()) > 0) {
        (void)p.EnsureKeys(cfg.key_bits, rng);
      } else {
        (void)crypto::DrawPaillierPrimeCandidates(cfg.key_bits, rng);
        p.LearnPublicKey(*full->keys[static_cast<size_t>(p.id())]);
      }
      (void)pools.PoolFor(p.public_key());
    }
    pools.RefillAll(static_cast<size_t>(row.pool_factors), rng);
  }
  ProtocolContext ctx{eps, rng, cfg, pooled ? &pools : nullptr};
  run.record = RunPemWindow(ctx, parties).record;
  run.cursor = rng.Cursor();
  for (net::AgentId a = 0; a < n; ++a) run.per_agent.push_back(bus.stats(a));
  for (const Party& p : parties) {
    run.keys.push_back(p.HasKeys() ? std::optional(p.public_key())
                                   : std::nullopt);
    run.private_keys.push_back(p.HasPrivateKey());
  }
  run.keygens = crypto::PaillierKeygensOnThisThread() - keygens_before;
  return run;
}

// Where a frame's ciphertext starts in its payload, or -1 for frames
// that carry none.  Each ciphertext is length-prefixed (4 bytes).
int CiphertextOffset(uint32_t type) {
  switch (type) {
    case kMsgRingHop:
    case kMsgRingFinal:
    case kMsgEncTotal:
      return 4;
    case kMsgRatioCipher:
      return 4 + 8 + 4;  // member index, K, then the ciphertext
    default:
      return -1;
  }
}

bool AllZero(const std::vector<uint8_t>& bytes, size_t from) {
  for (size_t i = from; i < bytes.size(); ++i) {
    if (bytes[i] != 0) return false;
  }
  return true;
}

class ProjectedWindow : public ::testing::TestWithParam<Row> {};

TEST_P(ProjectedWindow, EachAgentAloneAndNoneMatchFullRun) {
  const Row row = GetParam();
  const WindowRun full = RunWindow(row, {0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_EQ(full.record.type, row.general ? market::MarketType::kGeneral
                                          : market::MarketType::kExtreme);

  // The full run mints every key it uses, once.
  const size_t full_keys = static_cast<size_t>(
      std::count(full.private_keys.begin(), full.private_keys.end(), true));
  EXPECT_GT(full_keys, 0u);
  EXPECT_EQ(full.keygens, full_keys);

  std::vector<std::set<net::AgentId>> projections = {{}};
  for (net::AgentId a = 0; a < 8; ++a) projections.push_back({a});
  for (const std::set<net::AgentId>& acting : projections) {
    const std::string who =
        acting.empty() ? "none" : "agent " + std::to_string(*acting.begin());
    SCOPED_TRACE(who);
    const WindowRun child = RunWindow(row, acting, &full);
    EXPECT_TRUE(DiffRecords(child.record, full.record).empty());
    EXPECT_EQ(child.cursor, full.cursor);
    EXPECT_EQ(child.per_agent, full.per_agent);

    // The projection knows every public key the full run used, holds
    // only the private keys of the agents it acts for, and ran one
    // prime search per key it holds.
    EXPECT_EQ(child.keys, full.keys);
    size_t owned = 0;
    for (size_t i = 0; i < child.private_keys.size(); ++i) {
      const bool acted = acting.count(static_cast<net::AgentId>(i)) > 0;
      EXPECT_EQ(child.private_keys[i], acted && full.private_keys[i]) << i;
      owned += child.private_keys[i] ? 1 : 0;
    }
    EXPECT_EQ(child.keygens, owned);

    ASSERT_EQ(child.frames.size(), full.frames.size());
    size_t placeholders = 0;
    for (size_t i = 0; i < full.frames.size(); ++i) {
      const net::Message& mine = child.frames[i];
      const net::Message& ref = full.frames[i];
      ASSERT_EQ(mine.type, ref.type) << i;
      ASSERT_EQ(mine.from, ref.from) << i;
      ASSERT_EQ(mine.to, ref.to) << i;
      ASSERT_EQ(mine.payload.size(), ref.payload.size()) << i;
      if (acting.count(mine.from) > 0 || acting.count(mine.to) > 0) {
        // Computed by the sender, or rebuilt from the opening for the
        // receiver: byte for byte the full run's frame either way.
        EXPECT_TRUE(mine == ref) << "frame " << i << " type " << mine.type;
        continue;
      }
      const int at = CiphertextOffset(mine.type);
      if (at < 0) continue;
      EXPECT_TRUE(AllZero(mine.payload, static_cast<size_t>(at))) << i;
      EXPECT_FALSE(AllZero(ref.payload, static_cast<size_t>(at))) << i;
      ++placeholders;
    }
    // Every projection leaves some hop between two other agents.
    EXPECT_GT(placeholders, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ProjectedWindow,
    ::testing::Values(Row{0, true}, Row{0, false}, Row{6, true},
                      Row{6, false}),
    RowName);

// The openings themselves: a ring's opening rebuilds its ciphertext
// bit for bit, and its plaintext is the decrypted sum, with pooled
// factors, fresh randomness and sums wider than the fixed-base table.
TEST(ProjectedWindowOpening, RebuildsRingCiphertextAndPlaintext) {
  crypto::DeterministicRng rng(36);
  const crypto::PaillierKeyPair kp = crypto::GeneratePaillierKeyPair(256, rng);
  const crypto::PaillierPublicKey& pk = kp.pub;
  crypto::PaillierCiphertext running;
  crypto::PaillierOpening opening;
  int64_t sum = 0;
  for (int i = 0; i < 40; ++i) {
    const int64_t v = (i % 3 == 0 ? -1 : 1) * (1000 + 17 * i);
    crypto::PaillierOpening share;
    share.m = pk.EncodeSigned(v);
    crypto::PaillierCiphertext ct;
    if (i % 4 == 1) {
      share.f = pk.SampleRandomnessFactor(rng);
      ct = pk.EncryptWithFactor(share.m, share.f);
    } else {
      share.r = pk.SampleRandomness(rng);
      ct = pk.EncryptWithRandomness(share.m, share.r);
    }
    EXPECT_EQ(pk.EncryptOpening(share).value, ct.value) << i;
    running = i == 0 ? ct : pk.Add(running, ct);
    opening = i == 0 ? share : pk.AddOpenings(opening, share);
    sum += v;
  }
  // 40 draws: the summed r runs past the table's l bits.
  EXPECT_GT(opening.r.BitLength(),
            static_cast<size_t>(pk.randomness_bits()));
  EXPECT_EQ(pk.EncryptOpening(opening).value, running.value);
  EXPECT_EQ(kp.priv.DecryptSigned(running), sum);
  EXPECT_EQ(pk.DecodeSigned(opening.m), sum);

  // Protocol 4's ratio: total^k times a fresh Enc(0).
  const crypto::BigInt k(int64_t{1} << 40);
  crypto::PaillierOpening zero;
  zero.m = crypto::BigInt(0);
  zero.r = pk.SampleRandomness(rng);
  const crypto::PaillierCiphertext ratio = pk.Add(
      pk.ScalarMul(running, k), pk.EncryptWithRandomness(zero.m, zero.r));
  const crypto::PaillierOpening ratio_opening =
      pk.AddOpenings(pk.ScaleOpening(opening, k), zero);
  EXPECT_EQ(pk.EncryptOpening(ratio_opening).value, ratio.value);
  EXPECT_EQ(kp.priv.Decrypt(ratio), ratio_opening.m);
}

}  // namespace
}  // namespace pem::protocol
