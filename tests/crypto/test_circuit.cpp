#include "crypto/circuit.h"

#include <gtest/gtest.h>

namespace pem::crypto {
namespace {

TEST(BitHelpers, ToBitsLsbFirst) {
  const std::vector<bool> bits = ToBits(0b1011, 4);
  ASSERT_EQ(bits.size(), 4u);
  EXPECT_TRUE(bits[0]);
  EXPECT_TRUE(bits[1]);
  EXPECT_FALSE(bits[2]);
  EXPECT_TRUE(bits[3]);
}

TEST(BitHelpers, RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xDEADBEEF},
                     ~uint64_t{0}}) {
    EXPECT_EQ(FromBits(ToBits(v, 64)), v);
  }
}

TEST(CircuitBuilder, XorGateTruthTable) {
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      CircuitBuilder cb(1, 1);
      cb.MarkOutput(cb.Xor(cb.garbler_inputs()[0], cb.evaluator_inputs()[0]));
      const Circuit c = cb.Build();
      EXPECT_EQ(c.EvalPlain({a != 0}, {b != 0})[0], (a ^ b) != 0);
    }
  }
}

TEST(CircuitBuilder, AndOrNotMuxTruthTables) {
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      CircuitBuilder cb(1, 1);
      const int32_t wa = cb.garbler_inputs()[0];
      const int32_t wb = cb.evaluator_inputs()[0];
      cb.MarkOutput(cb.And(wa, wb));
      cb.MarkOutput(cb.Or(wa, wb));
      cb.MarkOutput(cb.Not(wa));
      cb.MarkOutput(cb.Xnor(wa, wb));
      cb.MarkOutput(cb.Mux(wa, wb, cb.Not(wb)));  // a ? b : !b
      const Circuit c = cb.Build();
      const std::vector<bool> out = c.EvalPlain({a != 0}, {b != 0});
      EXPECT_EQ(out[0], (a & b) != 0);
      EXPECT_EQ(out[1], (a | b) != 0);
      EXPECT_EQ(out[2], a == 0);
      EXPECT_EQ(out[3], a == b);
      EXPECT_EQ(out[4], a ? (b != 0) : (b == 0));
    }
  }
}

TEST(LessThanCircuit, ExhaustiveFourBits) {
  const Circuit c = BuildLessThanCircuit(4);
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      const std::vector<bool> out = c.EvalPlain(ToBits(x, 4), ToBits(y, 4));
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], x < y) << x << " < " << y;
    }
  }
}

TEST(LessThanCircuit, SingleBit) {
  const Circuit c = BuildLessThanCircuit(1);
  EXPECT_FALSE(c.EvalPlain({false}, {false})[0]);
  EXPECT_TRUE(c.EvalPlain({false}, {true})[0]);
  EXPECT_FALSE(c.EvalPlain({true}, {false})[0]);
  EXPECT_FALSE(c.EvalPlain({true}, {true})[0]);
}

TEST(LessThanCircuit, SixtyFourBitEdgeCases) {
  const Circuit c = BuildLessThanCircuit(64);
  const uint64_t max = ~uint64_t{0};
  struct Case { uint64_t x, y; };
  for (const Case& t : {Case{0, 0}, Case{0, 1}, Case{1, 0}, Case{max, max},
                        Case{max - 1, max}, Case{max, max - 1},
                        Case{uint64_t{1} << 63, (uint64_t{1} << 63) - 1}}) {
    EXPECT_EQ(c.EvalPlain(ToBits(t.x, 64), ToBits(t.y, 64))[0], t.x < t.y)
        << t.x << " < " << t.y;
  }
}

TEST(LessThanCircuit, AndGateBudget) {
  // One AND per bit (see circuit.cpp): the garbled tables scale with it.
  for (int bits = 1; bits <= 64; ++bits) {
    EXPECT_EQ(BuildLessThanCircuit(bits).AndGateCount(),
              static_cast<size_t>(bits))
        << bits;
  }
}

TEST(LessThanCircuit, ExhaustiveWidthsOneToSix) {
  for (int bits = 1; bits <= 6; ++bits) {
    const Circuit c = BuildLessThanCircuit(bits);
    const uint64_t n = uint64_t{1} << bits;
    for (uint64_t x = 0; x < n; ++x) {
      for (uint64_t y = 0; y < n; ++y) {
        ASSERT_EQ(c.EvalPlain(ToBits(x, bits), ToBits(y, bits))[0], x < y)
            << bits << " bits: " << x << " < " << y;
      }
    }
  }
}

TEST(EqualityCircuit, ExhaustiveThreeBits) {
  const Circuit c = BuildEqualityCircuit(3);
  for (uint64_t x = 0; x < 8; ++x) {
    for (uint64_t y = 0; y < 8; ++y) {
      EXPECT_EQ(c.EvalPlain(ToBits(x, 3), ToBits(y, 3))[0], x == y);
    }
  }
}

TEST(AdderCircuit, ExhaustiveFourBits) {
  const Circuit c = BuildAdderCircuit(4);
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      const uint64_t sum = FromBits(c.EvalPlain(ToBits(x, 4), ToBits(y, 4)));
      EXPECT_EQ(sum, (x + y) & 0xF) << x << " + " << y;
    }
  }
}

TEST(AdderCircuit, WrapsModulo2ToTheN) {
  const Circuit c = BuildAdderCircuit(8);
  EXPECT_EQ(FromBits(c.EvalPlain(ToBits(200, 8), ToBits(100, 8))), 44u);
}

TEST(SubtractorCircuit, ExhaustiveFourBits) {
  const Circuit c = BuildSubtractorCircuit(4);
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      const uint64_t diff = FromBits(c.EvalPlain(ToBits(x, 4), ToBits(y, 4)));
      EXPECT_EQ(diff, (x - y) & 0xF) << x << " - " << y;
    }
  }
}

TEST(SubtractorCircuit, WrapsOnUnderflow) {
  const Circuit c = BuildSubtractorCircuit(8);
  EXPECT_EQ(FromBits(c.EvalPlain(ToBits(3, 8), ToBits(5, 8))), 254u);
}

TEST(SubtractorCircuit, SixteenBitSpotChecks) {
  const Circuit c = BuildSubtractorCircuit(16);
  for (uint64_t x : {uint64_t{0}, uint64_t{1}, uint64_t{40000},
                     uint64_t{65535}}) {
    for (uint64_t y : {uint64_t{0}, uint64_t{1}, uint64_t{12345},
                       uint64_t{65535}}) {
      EXPECT_EQ(FromBits(c.EvalPlain(ToBits(x, 16), ToBits(y, 16))),
                (x - y) & 0xFFFF);
    }
  }
}

TEST(MaxCircuit, ExhaustiveFourBits) {
  const Circuit c = BuildMaxCircuit(4);
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(FromBits(c.EvalPlain(ToBits(x, 4), ToBits(y, 4))),
                std::max(x, y))
          << x << "," << y;
    }
  }
}

TEST(MaxCircuit, EqualInputsReturnEither) {
  const Circuit c = BuildMaxCircuit(8);
  EXPECT_EQ(FromBits(c.EvalPlain(ToBits(77, 8), ToBits(77, 8))), 77u);
}

TEST(Circuit, AndCountMatchesGateList) {
  const Circuit c = BuildAdderCircuit(16);
  size_t manual = 0;
  for (const Gate& g : c.gates) manual += (g.type == GateType::kAnd);
  EXPECT_EQ(c.AndGateCount(), manual);
}

TEST(CircuitDeath, BadWireAborts) {
  CircuitBuilder cb(1, 1);
  EXPECT_DEATH((void)cb.Xor(0, 99), "bad wire");
}

TEST(CircuitDeath, BuildTwiceAborts) {
  CircuitBuilder cb(1, 1);
  cb.MarkOutput(cb.garbler_inputs()[0]);
  (void)cb.Build();
  EXPECT_DEATH((void)cb.Build(), "finalized");
}

TEST(CircuitDeath, InputSizeMismatchAborts) {
  const Circuit c = BuildLessThanCircuit(4);
  EXPECT_DEATH((void)c.EvalPlain({true}, ToBits(0, 4)), "mismatch");
}

// Random property sweep across widths.
class ComparatorWidths : public ::testing::TestWithParam<int> {};

TEST_P(ComparatorWidths, RandomPairsMatchNativeComparison) {
  const int bits = GetParam();
  const Circuit c = BuildLessThanCircuit(bits);
  uint64_t state = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(bits);
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const uint64_t mask = bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (int i = 0; i < 200; ++i) {
    const uint64_t x = next() & mask;
    const uint64_t y = next() & mask;
    EXPECT_EQ(c.EvalPlain(ToBits(x, bits), ToBits(y, bits))[0], x < y)
        << "bits=" << bits << " x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ComparatorWidths,
                         ::testing::Values(2, 8, 16, 31, 48, 64));

}  // namespace
}  // namespace pem::crypto
