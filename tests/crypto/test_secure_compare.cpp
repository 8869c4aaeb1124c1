#include "crypto/secure_compare.h"

#include "net/bus.h"
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/hash.h"
#include "crypto/ot.h"
#include "crypto/rng.h"
#include "support/partial_bus.h"

namespace pem::crypto {
namespace {

SecureCompareConfig FastConfig(int bits = 64) {
  SecureCompareConfig cfg;
  cfg.bits = bits;
  return cfg;
}

// Two endpoints on a fresh bus — the handles the comparison runs over.
struct TwoParty {
  net::MessageBus bus;
  net::Endpoint garbler;
  net::Endpoint evaluator;

  explicit TwoParty(int n = 2, net::AgentId g = 0, net::AgentId e = 1)
      : bus(n), garbler(bus.endpoint(g)), evaluator(bus.endpoint(e)) {}

  bool Less(uint64_t x, uint64_t y, const SecureCompareConfig& cfg, Rng& rng) {
    return SecureCompareLess(garbler, x, evaluator, y, cfg, rng);
  }
};

TEST(SecureCompare, BasicOrdering) {
  TwoParty p;
  DeterministicRng rng(1);
  EXPECT_TRUE(p.Less(5, 9, FastConfig(), rng));
  EXPECT_FALSE(p.Less(9, 5, FastConfig(), rng));
  EXPECT_FALSE(p.Less(7, 7, FastConfig(), rng));
}

TEST(SecureCompare, ZeroAndMaxValues) {
  TwoParty p;
  DeterministicRng rng(2);
  const uint64_t max = ~uint64_t{0};
  EXPECT_TRUE(p.Less(0, max, FastConfig(), rng));
  EXPECT_FALSE(p.Less(max, 0, FastConfig(), rng));
  EXPECT_FALSE(p.Less(0, 0, FastConfig(), rng));
}

TEST(SecureCompare, AdjacentValues) {
  TwoParty p;
  DeterministicRng rng(3);
  for (uint64_t v : {uint64_t{1}, uint64_t{1} << 20, uint64_t{1} << 62}) {
    EXPECT_TRUE(p.Less(v - 1, v, FastConfig(), rng));
    EXPECT_FALSE(p.Less(v, v - 1, FastConfig(), rng));
  }
}

TEST(SecureCompare, RandomSweepMatchesNative) {
  TwoParty p;
  DeterministicRng rng(4);
  DeterministicRng values(5);
  for (int i = 0; i < 8; ++i) {
    const uint64_t x = values.NextU64();
    const uint64_t y = values.NextU64();
    EXPECT_EQ(p.Less(x, y, FastConfig(), rng), x < y) << x << " < " << y;
  }
}

TEST(SecureCompare, NarrowWidthConfig) {
  TwoParty p;
  DeterministicRng rng(6);
  const SecureCompareConfig cfg = FastConfig(16);
  EXPECT_TRUE(p.Less(1000, 60000, cfg, rng));
  EXPECT_FALSE(p.Less(60000, 1000, cfg, rng));
}

TEST(SecureCompare, TrafficIsAccounted) {
  TwoParty p;
  DeterministicRng rng(7);
  (void)p.Less(1, 2, FastConfig(), rng);
  // Exact bytes of the wire format: each frame is FramedSize(payload),
  // every field has a fixed width.
  //   G: [A] then [tables | 64 input labels | 64 OT corrections]
  //   E: [64 OT points B_i] then [the result bit]
  const size_t tables = GarbledTables::SerializedSize(BuildLessThanCircuit(64));
  EXPECT_EQ(tables, 64u * 32 + 1);
  const uint64_t garbler_bytes = net::FramedSize(kOtPointBytes) +
                                 net::FramedSize(tables + 64 * (16 + 16));
  const uint64_t evaluator_bytes =
      net::FramedSize(64 * kOtPointBytes) + net::FramedSize(1);
  EXPECT_EQ(garbler_bytes, 4'170u);
  EXPECT_EQ(evaluator_bytes, 2'153u);
  EXPECT_EQ(p.garbler.stats().bytes_sent, garbler_bytes);
  EXPECT_EQ(p.evaluator.stats().bytes_sent, evaluator_bytes);
  EXPECT_EQ(p.bus.total_messages(), 4u);
}

TEST(SecureCompare, PinnedTranscriptKnownAnswer) {
  // SHA-256 over the four compare frames (type, payload length,
  // payload) at fixed inputs and seed.  The parity walls only compare
  // backends with one another; this row pins the transcript itself, so
  // a codec or draw-order change to the compare shows up here.
  TwoParty p;
  std::vector<uint8_t> transcript;
  p.bus.SetObserver([&transcript](const net::Message& m) {
    uint8_t header[8];
    const auto len = static_cast<uint32_t>(m.payload.size());
    std::memcpy(header, &m.type, 4);
    std::memcpy(header + 4, &len, 4);
    transcript.insert(transcript.end(), header, header + 8);
    transcript.insert(transcript.end(), m.payload.begin(), m.payload.end());
  });
  DeterministicRng rng(2020);
  EXPECT_TRUE(p.Less(123'456'789, 987'654'321, FastConfig(), rng));
  EXPECT_EQ(p.bus.total_messages(), 4u);
  EXPECT_EQ(Sha256(transcript).Hex(),
            "274eb2e9c2062e07c0ab12795dbcd3ecb36b840a07f7b0947eb987eb72f66c19");
}

TEST(SecureCompare, ExhaustiveThreeBits) {
  // Every input pair at a narrow width, through the OT and the
  // corrections: each evaluator input bit is exercised both ways.
  TwoParty p;
  DeterministicRng rng(11);
  const SecureCompareConfig cfg = FastConfig(3);
  for (uint64_t x = 0; x < 8; ++x) {
    for (uint64_t y = 0; y < 8; ++y) {
      EXPECT_EQ(p.Less(x, y, cfg, rng), x < y) << x << " < " << y;
    }
  }
}

TEST(SecureCompare, WorksBetweenArbitraryAgentIds) {
  TwoParty p(10, /*g=*/7, /*e=*/2);
  DeterministicRng rng(8);
  EXPECT_TRUE(p.Less(3, 4, FastConfig(), rng));
  // Other agents saw no traffic.
  EXPECT_EQ(p.bus.endpoint(0).stats().messages_received, 0u);
  EXPECT_EQ(p.bus.endpoint(5).stats().bytes_sent, 0u);
}

// --- projections ---------------------------------------------------------
//
// A forked child computes only its own agent's steps (net::Transport::
// Acts): the garbler's half, the evaluator's half, or neither.  Each
// projection must leave its rng, its ledger, its frames and its result
// exactly where the full run leaves them, since the rest of the
// child's script depends on all four.

using testutil::PartialBus;

struct ComparePair {
  uint64_t x = 0;
  uint64_t y = 0;
  int bits = 64;
};

// What one run of a compare sequence leaves behind.
struct CompareRun {
  std::vector<bool> results;
  std::vector<uint64_t> cursors;  // Rng::Cursor() after each compare
  std::vector<net::TrafficStats> per_agent;
  std::vector<net::Message> frames;
};

// Runs `pairs` in order over a 3-agent bus (garbler 0, evaluator 1)
// whose process acts for `acting`, from seed `seed`.
CompareRun RunCompares(const std::vector<ComparePair>& pairs, uint64_t seed,
                       std::set<net::AgentId> acting) {
  PartialBus bus(3, std::move(acting));
  CompareRun run;
  bus.SetObserver([&run](const net::Message& m) { run.frames.push_back(m); });
  net::Endpoint g = bus.endpoint(0);
  net::Endpoint e = bus.endpoint(1);
  DeterministicRng rng(seed);
  for (const ComparePair& p : pairs) {
    run.results.push_back(
        SecureCompareLess(g, p.x, e, p.y, FastConfig(p.bits), rng));
    run.cursors.push_back(rng.Cursor());
  }
  for (net::AgentId a = 0; a < bus.num_agents(); ++a) {
    run.per_agent.push_back(bus.stats(a));
  }
  return run;
}

const std::set<net::AgentId> kGarblerOnly = {0};
const std::set<net::AgentId> kEvaluatorOnly = {1};
const std::set<net::AgentId> kNeither = {2};

// The projection acting for `acting` against the full run: equal
// results, cursors and per-agent ledgers, and results equal to x < y.
// A projection acting for an endpoint rebuilds every frame byte for
// byte; the one acting for neither zero-fills them, so its OT setup
// frames are placeholders, not points.
void ExpectProjectionMatchesFullRun(const std::vector<ComparePair>& pairs,
                                    uint64_t seed,
                                    const std::set<net::AgentId>& acting) {
  const CompareRun full = RunCompares(pairs, seed, {0, 1, 2});
  const CompareRun part = RunCompares(pairs, seed, acting);
  ASSERT_EQ(part.results.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(full.results[i], pairs[i].x < pairs[i].y) << i;
    EXPECT_EQ(part.results[i], full.results[i]) << i;
    EXPECT_EQ(part.cursors[i], full.cursors[i]) << i;
  }
  EXPECT_EQ(part.per_agent, full.per_agent);
  ASSERT_EQ(part.frames.size(), full.frames.size());
  const bool neither = acting == kNeither;
  for (size_t i = 0; i < part.frames.size(); ++i) {
    const net::Message& m = part.frames[i];
    if (!neither) {
      EXPECT_TRUE(m == full.frames[i]) << i;
      continue;
    }
    EXPECT_EQ(m.type, full.frames[i].type) << i;
    EXPECT_EQ(m.payload.size(), full.frames[i].payload.size()) << i;
    if (m.type == kMsgGcOtSetup) {
      EXPECT_EQ(m.payload, std::vector<uint8_t>(kOtPointBytes, 0)) << i;
      EXPECT_NE(full.frames[i].payload, m.payload) << i;
    }
  }
}

std::vector<ComparePair> ExhaustiveThreeBitPairs() {
  std::vector<ComparePair> pairs;
  for (uint64_t x = 0; x < 8; ++x) {
    for (uint64_t y = 0; y < 8; ++y) pairs.push_back({x, y, 3});
  }
  return pairs;
}

std::vector<ComparePair> EdgePairs() {
  const uint64_t max = ~uint64_t{0};
  return {{0, 0},
          {0, 1},
          {1, 0},
          {1, 1},
          {0, max},
          {max, 0},
          {max, max},
          {max - 1, max},
          {max, max - 1},
          {uint64_t{1} << 63, (uint64_t{1} << 63) - 1}};
}

std::vector<ComparePair> SeededRandomPairs() {
  DeterministicRng values(23);
  std::vector<ComparePair> pairs;
  for (int i = 0; i < 8; ++i) {
    const uint64_t x = values.NextU64();
    pairs.push_back({x, values.NextU64()});
    pairs.push_back({x, x});
  }
  return pairs;
}

// All three pair sets under one projection.  The projection acting for
// neither endpoint has one SecureCompareObserver row per pair set.
void ExpectProjectionMatchesFullRunOnEveryPairSet(
    const std::set<net::AgentId>& acting) {
  {
    SCOPED_TRACE("exhaustive 3-bit pairs");
    ExpectProjectionMatchesFullRun(ExhaustiveThreeBitPairs(), 21, acting);
  }
  {
    SCOPED_TRACE("64-bit edges");
    ExpectProjectionMatchesFullRun(EdgePairs(), 22, acting);
  }
  {
    SCOPED_TRACE("seeded random pairs");
    ExpectProjectionMatchesFullRun(SeededRandomPairs(), 24, acting);
  }
}

TEST(SecureCompareObserver, ExhaustiveThreeBitsMatchFullRun) {
  ExpectProjectionMatchesFullRun(ExhaustiveThreeBitPairs(), 21, kNeither);
}

TEST(SecureCompareObserver, EdgeValuesMatchFullRun) {
  ExpectProjectionMatchesFullRun(EdgePairs(), 22, kNeither);
}

TEST(SecureCompareObserver, SeededRandomPairsMatchFullRun) {
  ExpectProjectionMatchesFullRun(SeededRandomPairs(), 24, kNeither);
}

TEST(SecureCompareProjection, GarblerOnlyMatchesFullRun) {
  ExpectProjectionMatchesFullRunOnEveryPairSet(kGarblerOnly);
}

TEST(SecureCompareProjection, EvaluatorOnlyMatchesFullRun) {
  ExpectProjectionMatchesFullRunOnEveryPairSet(kEvaluatorOnly);
}

TEST(SecureCompareProjection, EachProcessRunsOnlyItsOwnHalf) {
  // P-256 multiplications per compare at b bits, fixed-base and
  // variable-base: A = aG and aA for the sender, b_iG per bit for the
  // receiver's points, b_iA per bit for the receiver's pads and aB_i
  // per bit for the sender's.  A process acting for one endpoint pays
  // that endpoint's multiplications and none of the other's.
  for (const int b : {3, 16, 64}) {
    const uint64_t n = static_cast<uint64_t>(b);
    const std::vector<std::pair<std::set<net::AgentId>, P256MulCount>> rows = {
        {kNeither, {0, 0}},
        {kGarblerOnly, {1 + n, 1 + n}},
        {kEvaluatorOnly, {1 + n, 1 + n}},
        {{0, 1, 2}, {1 + n, 1 + 2 * n}},
    };
    const uint64_t max = b == 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1;
    for (const auto& [acting, expected] : rows) {
      const P256MulCount before = P256MulsOnThisThread();
      (void)RunCompares({{max / 3, max / 2, b}}, 26, acting);
      const P256MulCount after = P256MulsOnThisThread();
      EXPECT_EQ(after.fixed_base - before.fixed_base, expected.fixed_base)
          << b << " bits, acting for " << acting.size();
      EXPECT_EQ(after.variable_base - before.variable_base,
                expected.variable_base)
          << b << " bits, acting for " << acting.size();
    }
  }
}

TEST(SecureCompareDeath, InputExceedingWidthAborts) {
  TwoParty p;
  DeterministicRng rng(9);
  const SecureCompareConfig cfg = FastConfig(8);
  EXPECT_DEATH((void)p.Less(256, 1, cfg, rng), "exceed");
}

TEST(SecureCompareDeath, SameAgentOnBothSidesAborts) {
  net::MessageBus bus(2);
  net::Endpoint a = bus.endpoint(0);
  net::Endpoint also_a = bus.endpoint(0);
  DeterministicRng rng(10);
  EXPECT_DEATH(
      (void)SecureCompareLess(a, 1, also_a, 2, FastConfig(), rng),
      "distinct");
}

// A bus that drops the last payload byte of every message of one type,
// standing in for a peer that sends a malformed message.
class TruncatingBus : public net::Transport {
 public:
  TruncatingBus(int n, uint32_t type) : bus_(n), type_(type) {}
  int num_agents() const override { return bus_.num_agents(); }
  void Send(net::Message msg) override {
    if (msg.type == type_) msg.payload.pop_back();
    bus_.Send(std::move(msg));
  }
  std::optional<net::Message> Receive(net::AgentId agent) override {
    return bus_.Receive(agent);
  }
  bool HasMessage(net::AgentId agent) const override {
    return bus_.HasMessage(agent);
  }
  net::TrafficStats stats(net::AgentId agent) const override {
    return bus_.stats(agent);
  }
  uint64_t total_bytes() const override { return bus_.total_bytes(); }
  uint64_t total_messages() const override { return bus_.total_messages(); }
  double AverageBytesPerAgent() const override {
    return bus_.AverageBytesPerAgent();
  }
  void ResetStats() override { bus_.ResetStats(); }
  void SetObserver(Observer observer) override {
    bus_.SetObserver(std::move(observer));
  }

 private:
  net::MessageBus bus_;
  uint32_t type_;
};

void CompareOverTruncatingBus(uint32_t type) {
  TruncatingBus bus(2, type);
  net::Endpoint g = bus.endpoint(0);
  net::Endpoint e = bus.endpoint(1);
  DeterministicRng rng(12);
  (void)SecureCompareLess(g, 1, e, 2, FastConfig(), rng);
}

TEST(SecureCompareDeath, WrongSizeMessageAborts) {
  // Every field has a fixed width, so each reader checks its message's
  // exact size before parsing any of it.
  EXPECT_DEATH(CompareOverTruncatingBus(kMsgGcOtSetup),
               "message 1 has the wrong size");
  EXPECT_DEATH(CompareOverTruncatingBus(kMsgGcOtChoices),
               "message 2 has the wrong size");
  EXPECT_DEATH(CompareOverTruncatingBus(kMsgGcTables),
               "message 3 has the wrong size");
  EXPECT_DEATH(CompareOverTruncatingBus(kMsgGcResult),
               "message 4 has the wrong size");
}

}  // namespace
}  // namespace pem::crypto
