#include "crypto/circuit.h"

namespace pem::crypto {

size_t Circuit::AndGateCount() const {
  size_t n = 0;
  for (const Gate& g : gates) {
    if (g.type == GateType::kAnd) ++n;
  }
  return n;
}

std::vector<bool> Circuit::EvalPlain(
    const std::vector<bool>& garbler_bits,
    const std::vector<bool>& evaluator_bits) const {
  PEM_CHECK(garbler_bits.size() == garbler_inputs.size(),
            "garbler input size mismatch");
  PEM_CHECK(evaluator_bits.size() == evaluator_inputs.size(),
            "evaluator input size mismatch");
  std::vector<bool> wires(static_cast<size_t>(num_wires), false);
  for (size_t i = 0; i < garbler_inputs.size(); ++i) {
    wires[static_cast<size_t>(garbler_inputs[i])] = garbler_bits[i];
  }
  for (size_t i = 0; i < evaluator_inputs.size(); ++i) {
    wires[static_cast<size_t>(evaluator_inputs[i])] = evaluator_bits[i];
  }
  for (const Gate& g : gates) {
    const bool a = wires[static_cast<size_t>(g.a)];
    switch (g.type) {
      case GateType::kXor:
        wires[static_cast<size_t>(g.out)] =
            a ^ wires[static_cast<size_t>(g.b)];
        break;
      case GateType::kAnd:
        wires[static_cast<size_t>(g.out)] =
            a && wires[static_cast<size_t>(g.b)];
        break;
    }
  }
  std::vector<bool> out;
  out.reserve(outputs.size());
  for (int32_t w : outputs) out.push_back(wires[static_cast<size_t>(w)]);
  return out;
}

CircuitBuilder::CircuitBuilder(int garbler_bits, int evaluator_bits) {
  PEM_CHECK(garbler_bits >= 0 && evaluator_bits >= 0, "negative bundle size");
  for (int i = 0; i < garbler_bits; ++i) garbler_in_.push_back(NewWire());
  for (int i = 0; i < evaluator_bits; ++i) evaluator_in_.push_back(NewWire());
}

int32_t CircuitBuilder::NewWire() { return next_wire_++; }

int32_t CircuitBuilder::Emit(GateType t, int32_t a, int32_t b) {
  PEM_CHECK(!built_, "builder already finalized");
  PEM_CHECK(a >= 0 && a < next_wire_, "bad wire a");
  PEM_CHECK(b >= 0 && b < next_wire_, "bad wire b");
  const int32_t out = NewWire();
  gates_.push_back(Gate{t, a, b, out});
  return out;
}

int32_t CircuitBuilder::Xor(int32_t a, int32_t b) {
  return Emit(GateType::kXor, a, b);
}
int32_t CircuitBuilder::And(int32_t a, int32_t b) {
  return Emit(GateType::kAnd, a, b);
}

int32_t CircuitBuilder::LessThan(const std::vector<int32_t>& a,
                                 const std::vector<int32_t>& b) {
  PEM_CHECK(!a.empty() && a.size() == b.size(), "comparator operand widths");
  // LSB-up recurrence (Kolesnikov–Sadeghi–Schneider, CANS 2009):
  //   lt' = b_i ^ ((b_i ^ lt) & (a_i ^ lt))
  // If a_i == b_i the AND is b_i ^ lt, so lt' = lt; otherwise one AND
  // operand is 0 and lt' = b_i.  With lt = 0 below the LSB the first
  // stage is b_0 & ~a_0 = b_0 ^ (b_0 & a_0).
  int32_t lt = Xor(b[0], And(b[0], a[0]));
  for (size_t i = 1; i < a.size(); ++i) {
    lt = Xor(b[i], And(Xor(b[i], lt), Xor(a[i], lt)));
  }
  return lt;
}

void CircuitBuilder::MarkOutput(int32_t wire) {
  PEM_CHECK(wire >= 0 && wire < next_wire_, "bad output wire");
  outputs_.push_back(wire);
}

Circuit CircuitBuilder::Build() {
  PEM_CHECK(!built_, "builder already finalized");
  built_ = true;
  Circuit c;
  c.num_wires = next_wire_;
  c.garbler_inputs = garbler_in_;
  c.evaluator_inputs = evaluator_in_;
  c.outputs = std::move(outputs_);
  c.gates = std::move(gates_);
  return c;
}

Circuit BuildLessThanCircuit(int bits) {
  PEM_CHECK(bits >= 1 && bits <= 64, "bits in [1,64]");
  CircuitBuilder b(bits, bits);
  b.MarkOutput(b.LessThan(b.garbler_inputs(), b.evaluator_inputs()));
  return b.Build();
}

std::vector<bool> ToBits(uint64_t v, int bits) {
  PEM_CHECK(bits >= 1 && bits <= 64, "bits in [1,64]");
  std::vector<bool> out(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i) out[static_cast<size_t>(i)] = (v >> i) & 1;
  return out;
}

}  // namespace pem::crypto
