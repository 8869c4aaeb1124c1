// Boolean circuits for Yao garbling.
//
// Gate basis: XOR (free under free-XOR), AND (one garbled table), NOT
// (free label swap).  The builders construct the comparison circuits
// used by Private Market Evaluation plus small arithmetic circuits
// (adder, mux, equality) used by tests and extensions.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace pem::crypto {

enum class GateType : uint8_t { kXor, kAnd, kNot };

struct Gate {
  GateType type;
  int32_t a = -1;    // first input wire
  int32_t b = -1;    // second input wire (-1 for NOT)
  int32_t out = -1;  // output wire
};

// A circuit with two input bundles: the garbler's and the evaluator's.
// Wire ids are dense; inputs come first, then gate outputs.
struct Circuit {
  int32_t num_wires = 0;
  std::vector<int32_t> garbler_inputs;
  std::vector<int32_t> evaluator_inputs;
  std::vector<int32_t> outputs;
  std::vector<Gate> gates;

  size_t AndGateCount() const;
  // Evaluates in the clear; input bit vectors must match bundle sizes.
  std::vector<bool> EvalPlain(const std::vector<bool>& garbler_bits,
                              const std::vector<bool>& evaluator_bits) const;
};

// Incremental builder.  Wires are allocated by the builder; callers
// combine the primitive ops into bundles.
class CircuitBuilder {
 public:
  // Allocates the two input bundles up front (LSB-first bit order).
  CircuitBuilder(int garbler_bits, int evaluator_bits);

  int32_t Xor(int32_t a, int32_t b);
  int32_t And(int32_t a, int32_t b);
  int32_t Not(int32_t a);
  int32_t Or(int32_t a, int32_t b);   // derived: a|b = (a^b)^(a&b)
  int32_t Xnor(int32_t a, int32_t b);
  // mux: sel ? t : f
  int32_t Mux(int32_t sel, int32_t t, int32_t f);
  // [a < b] over equal-width unsigned bundles (LSB first); one AND per
  // bit.
  int32_t LessThan(const std::vector<int32_t>& a,
                   const std::vector<int32_t>& b);

  const std::vector<int32_t>& garbler_inputs() const { return garbler_in_; }
  const std::vector<int32_t>& evaluator_inputs() const { return evaluator_in_; }

  void MarkOutput(int32_t wire);
  Circuit Build();

 private:
  int32_t NewWire();
  int32_t Emit(GateType t, int32_t a, int32_t b);

  int32_t next_wire_ = 0;
  std::vector<int32_t> garbler_in_;
  std::vector<int32_t> evaluator_in_;
  std::vector<int32_t> outputs_;
  std::vector<Gate> gates_;
  bool built_ = false;
};

// ---- Prebuilt circuits ---------------------------------------------------

// [garbler_value < evaluator_value] over unsigned `bits`-bit integers.
// Single output bit.  Exactly `bits` AND gates.
Circuit BuildLessThanCircuit(int bits);

// [garbler_value == evaluator_value]; single output bit.
Circuit BuildEqualityCircuit(int bits);

// (garbler_value + evaluator_value) mod 2^bits; `bits` output wires,
// LSB first.  Ripple-carry, 1 AND per bit with the standard
// carry = c ^ ((a^c)&(b^c)) trick.
Circuit BuildAdderCircuit(int bits);

// (garbler_value - evaluator_value) mod 2^bits; `bits` output wires,
// LSB first.  Two's-complement via a + ~b + 1.
Circuit BuildSubtractorCircuit(int bits);

// max(garbler_value, evaluator_value); `bits` output wires, LSB first.
// Composes the comparator with a bit-wise mux.
Circuit BuildMaxCircuit(int bits);

// Helper: little-endian bit decomposition of a 64-bit value.
std::vector<bool> ToBits(uint64_t v, int bits);
uint64_t FromBits(const std::vector<bool>& bits);

}  // namespace pem::crypto
