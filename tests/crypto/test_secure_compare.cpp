#include "crypto/secure_compare.h"

#include "net/bus.h"
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>

#include "crypto/circuit.h"
#include "crypto/hash.h"
#include "crypto/ot.h"
#include "crypto/rng.h"

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
  // each byte string carries a u32 length prefix.
  //   G: [tables | 64 input labels | A] then [64 OT ciphertexts]
  //   E: [64 OT points B_i] then [the result bit]
  const size_t tables = BuildLessThanCircuit(64).AndGateCount() * 64 + 1;
  const uint64_t garbler_bytes =
      net::FramedSize(4 + tables + 64 * (4 + 16) + 4 + kOtPointBytes) +
      net::FramedSize(64 * (4 + kOtCiphertextBytes));
  const uint64_t evaluator_bytes =
      net::FramedSize(64 * (4 + kOtPointBytes)) + net::FramedSize(1);
  EXPECT_EQ(garbler_bytes, 11'794u);
  EXPECT_EQ(evaluator_bytes, 2'409u);
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
            "b1ff67028ac6927d2d0a331970358e1cb4a57e69a9b7bf2e271c3fa96952e4e4");
}

TEST(SecureCompare, WorksBetweenArbitraryAgentIds) {
  TwoParty p(10, /*g=*/7, /*e=*/2);
  DeterministicRng rng(8);
  EXPECT_TRUE(p.Less(3, 4, FastConfig(), rng));
  // Other agents saw no traffic.
  EXPECT_EQ(p.bus.endpoint(0).stats().messages_received, 0u);
  EXPECT_EQ(p.bus.endpoint(5).stats().bytes_sent, 0u);
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

}  // namespace
}  // namespace pem::crypto
