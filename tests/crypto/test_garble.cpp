#include "crypto/garble.h"

#include <gtest/gtest.h>

#include <ostream>

#include "crypto/circuit.h"
#include "crypto/rng.h"

namespace pem::crypto {
namespace {

// Fresh 0-labels for the evaluator's inputs, as the OT would give.
std::vector<WireLabel> EvaluatorLabels(const Circuit& circuit, Rng& rng) {
  std::vector<WireLabel> labels(circuit.evaluator_inputs.size());
  for (WireLabel& l : labels) rng.Fill(l.bytes);
  return labels;
}

Garbler MakeGarbler(const Circuit& circuit, Rng& rng) {
  const std::vector<WireLabel> label0 = EvaluatorLabels(circuit, rng);
  return Garbler(circuit, DrawGarblerCoins(circuit, rng), label0);
}

// Garbles + evaluates `circuit` on (x, y) with trusted label delivery
// (no OT — that path is covered by test_secure_compare).
std::vector<bool> GarbledEval(const Circuit& circuit, uint64_t x, uint64_t y,
                              uint64_t seed) {
  DeterministicRng rng(seed);
  const Garbler g = MakeGarbler(circuit, rng);
  std::vector<WireLabel> gl, el;
  const int gbits = static_cast<int>(circuit.garbler_inputs.size());
  const int ebits = static_cast<int>(circuit.evaluator_inputs.size());
  const std::vector<bool> xb = ToBits(x, gbits);
  const std::vector<bool> yb = ToBits(y, ebits);
  for (int i = 0; i < gbits; ++i) {
    gl.push_back(g.GarblerInputLabel(static_cast<size_t>(i), xb[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < ebits; ++i) {
    const auto [l0, l1] = g.EvaluatorInputLabels(static_cast<size_t>(i));
    el.push_back(yb[static_cast<size_t>(i)] ? l1 : l0);
  }
  // Round-trip the tables through serialization, as the wire protocol does.
  GarbledTables tables =
      GarbledTables::Deserialize(g.tables().Serialize(), circuit);
  Evaluator eval(circuit, std::move(tables));
  return eval.Evaluate(gl, el);
}

TEST(Garble, SingleAndGateAllInputs) {
  CircuitBuilder cb(1, 1);
  cb.MarkOutput(cb.And(cb.garbler_inputs()[0], cb.evaluator_inputs()[0]));
  const Circuit c = cb.Build();
  for (uint64_t x = 0; x < 2; ++x) {
    for (uint64_t y = 0; y < 2; ++y) {
      EXPECT_EQ(GarbledEval(c, x, y, 1)[0], (x & y) != 0) << x << "," << y;
    }
  }
}

TEST(Garble, FreeXorGateAllInputs) {
  CircuitBuilder cb(1, 1);
  cb.MarkOutput(cb.Xor(cb.garbler_inputs()[0], cb.evaluator_inputs()[0]));
  const Circuit c = cb.Build();
  EXPECT_EQ(c.AndGateCount(), 0u);  // XOR must be free
  for (uint64_t x = 0; x < 2; ++x) {
    for (uint64_t y = 0; y < 2; ++y) {
      EXPECT_EQ(GarbledEval(c, x, y, 2)[0], ((x ^ y) & 1) != 0);
    }
  }
}

TEST(Garble, ComparatorMatchesPlainEvaluationExhaustively) {
  const Circuit c = BuildLessThanCircuit(4);
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(GarbledEval(c, x, y, 4)[0], x < y) << x << " < " << y;
    }
  }
}

TEST(Garble, SixtyFourBitComparatorRandomSweep) {
  const Circuit c = BuildLessThanCircuit(64);
  DeterministicRng rng(6);
  for (int i = 0; i < 25; ++i) {
    const uint64_t x = rng.NextU64();
    const uint64_t y = rng.NextU64();
    EXPECT_EQ(GarbledEval(c, x, y, 7 + static_cast<uint64_t>(i))[0], x < y);
  }
}

TEST(Garble, DifferentSeedsProduceDifferentTablesSameResult) {
  const Circuit c = BuildLessThanCircuit(8);
  DeterministicRng r1(10), r2(11);
  const Garbler g1 = MakeGarbler(c, r1);
  const Garbler g2 = MakeGarbler(c, r2);
  EXPECT_NE(g1.tables().Serialize(), g2.tables().Serialize());
  EXPECT_EQ(GarbledEval(c, 3, 9, 10)[0], GarbledEval(c, 3, 9, 11)[0]);
}

TEST(Garble, LabelsCarryPermuteBitConvention) {
  const Circuit c = BuildLessThanCircuit(8);
  DeterministicRng rng(12);
  const Garbler g = MakeGarbler(c, rng);
  for (size_t i = 0; i < 8; ++i) {
    const auto [l0, l1] = g.EvaluatorInputLabels(i);
    // Free-XOR forces complementary permute bits (lsb(delta) = 1).
    EXPECT_NE(l0.permute_bit(), l1.permute_bit()) << i;
    EXPECT_NE(l0, l1);
  }
}

TEST(Garble, EvaluatorZeroLabelsAreTheGivenOnes) {
  // The secure comparison hands the garbler its OT pads as the
  // evaluator's 0-labels; the 1-labels sit one offset away.
  const Circuit c = BuildLessThanCircuit(8);
  DeterministicRng rng(18);
  const std::vector<WireLabel> given = EvaluatorLabels(c, rng);
  const Garbler g(c, DrawGarblerCoins(c, rng), given);
  const WireLabel delta = given[0].Xor(g.EvaluatorInputLabels(0).second);
  for (size_t i = 0; i < given.size(); ++i) {
    const auto [l0, l1] = g.EvaluatorInputLabels(i);
    EXPECT_EQ(l0, given[i]) << i;
    EXPECT_EQ(l0.Xor(l1), delta) << i;
  }
  EXPECT_TRUE(delta.permute_bit());
}

TEST(Garble, GarblerCanDecodeOutputs) {
  CircuitBuilder cb(1, 1);
  cb.MarkOutput(cb.And(cb.garbler_inputs()[0], cb.evaluator_inputs()[0]));
  const Circuit c = cb.Build();
  DeterministicRng rng(13);
  const Garbler g = MakeGarbler(c, rng);
  Evaluator eval(c, GarbledTables::Deserialize(g.tables().Serialize(), c));
  const auto [e0, e1] = g.EvaluatorInputLabels(0);
  const std::vector<bool> out =
      eval.Evaluate({g.GarblerInputLabel(0, true)}, {e1});
  EXPECT_TRUE(out[0]);
}

TEST(GarbledTables, SerializationRoundTrip) {
  const Circuit c = BuildLessThanCircuit(16);
  DeterministicRng rng(14);
  const Garbler g = MakeGarbler(c, rng);
  const std::vector<uint8_t> bytes = g.tables().Serialize();
  EXPECT_EQ(bytes.size(), g.tables().SerializedSize());
  const GarbledTables back = GarbledTables::Deserialize(bytes, c);
  EXPECT_EQ(back.Serialize(), bytes);
}

TEST(GarbledTables, SizeIs32BytesPerAndGatePlusDecode) {
  // Half-gates: two 16-byte rows per AND gate, nothing for XOR.
  for (int bits : {1, 32, 64}) {
    const Circuit c = BuildLessThanCircuit(bits);
    DeterministicRng rng(15);
    const Garbler g = MakeGarbler(c, rng);
    EXPECT_EQ(g.tables().SerializedSize(), c.AndGateCount() * 32 + 1);
    EXPECT_EQ(g.tables().Serialize().size(),
              GarbledTables::SerializedSize(c));
  }
  // The secure comparison's 64-bit comparator: 64 gates, 2,049 bytes.
  EXPECT_EQ(GarbledTables::SerializedSize(BuildLessThanCircuit(64)), 2049u);
}

TEST(GarbledTablesDeath, TruncatedBytesAbort) {
  const Circuit c = BuildLessThanCircuit(8);
  DeterministicRng rng(16);
  const Garbler g = MakeGarbler(c, rng);
  std::vector<uint8_t> bytes = g.tables().Serialize();
  bytes.pop_back();
  EXPECT_DEATH((void)GarbledTables::Deserialize(bytes, c), "size mismatch");
}

TEST(GarbleDeath, WrongGivenLabelCountAborts) {
  const Circuit c = BuildLessThanCircuit(4);
  DeterministicRng rng(19);
  const std::vector<WireLabel> three(3);
  EXPECT_DEATH((void)Garbler(c, DrawGarblerCoins(c, rng), three),
               "evaluator label count");
}

TEST(GarbleDeath, WrongLabelCountAborts) {
  const Circuit c = BuildLessThanCircuit(4);
  DeterministicRng rng(17);
  const Garbler g = MakeGarbler(c, rng);
  Evaluator eval(c, GarbledTables::Deserialize(g.tables().Serialize(), c));
  EXPECT_DEATH((void)eval.Evaluate({}, {}), "label count");
}

// Parameterized: the comparator at three widths, garbled output ==
// plain output on random inputs.
struct GarbleCase {
  const char* name;
  int bits;
};

// Keeps the pointer bytes gtest would otherwise print out of the listed
// (and ctest-discovered) test name, so the name is the same on every run.
void PrintTo(const GarbleCase& tc, std::ostream* os) {
  *os << tc.name << " (" << tc.bits << " bits)";
}

class GarbleVsPlain : public ::testing::TestWithParam<GarbleCase> {};

TEST_P(GarbleVsPlain, GarbledEqualsPlain) {
  const GarbleCase& tc = GetParam();
  const Circuit c = BuildLessThanCircuit(tc.bits);
  DeterministicRng rng(99);
  const uint64_t mask =
      tc.bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << tc.bits) - 1);
  for (int i = 0; i < 40; ++i) {
    const uint64_t x = rng.NextU64() & mask;
    const uint64_t y = rng.NextU64() & mask;
    const std::vector<bool> plain =
        c.EvalPlain(ToBits(x, tc.bits), ToBits(y, tc.bits));
    const std::vector<bool> garbled =
        GarbledEval(c, x, y, 1000 + static_cast<uint64_t>(i));
    EXPECT_EQ(garbled, plain) << tc.name << " x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, GarbleVsPlain,
    ::testing::Values(GarbleCase{"lt1", 1}, GarbleCase{"lt8", 8},
                      GarbleCase{"lt64", 64}),
    [](const ::testing::TestParamInfo<GarbleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pem::crypto
