// Yao garbled circuits with free-XOR, point-and-permute and half-gates.
//
// The paper evaluates secure comparison with Fairplay; this is the
// modern equivalent construction:
//   * a global offset R (lsb forced to 1) makes XOR and NOT gates free;
//   * AND gates cost two 16-byte rows (half-gates, Zahur–Rosulek–Evans,
//     EUROCRYPT 2015): the garbler hashes each input label twice, the
//     evaluator hashes its two active labels once, all with a SHA-256
//     KDF tweaked by the gate's position.
//
// Semi-honest security, matching the paper's threat model (§II-B).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/circuit.h"
#include "crypto/rng.h"

namespace pem::crypto {

struct WireLabel {
  std::array<uint8_t, 16> bytes{};

  bool permute_bit() const { return bytes[15] & 1; }
  WireLabel Xor(const WireLabel& o) const {
    WireLabel r;
    for (size_t i = 0; i < bytes.size(); ++i) r.bytes[i] = bytes[i] ^ o.bytes[i];
    return r;
  }
  bool operator==(const WireLabel&) const = default;
};

// Everything the evaluator needs, minus the input labels (those arrive
// directly for the garbler's inputs and via OT for the evaluator's).
struct GarbledTables {
  // Bytes per AND gate: the generator and evaluator half-gate rows.
  static constexpr size_t kAndBytes = 32;

  // One {T_G, T_E} row pair per AND gate, in circuit gate order.
  std::vector<std::array<WireLabel, 2>> and_tables;
  // Decode bit per circuit output wire.
  std::vector<uint8_t> output_decode;

  std::vector<uint8_t> Serialize() const;
  static GarbledTables Deserialize(std::span<const uint8_t> bytes,
                                   const Circuit& circuit);
  size_t SerializedSize() const;
  // SerializedSize() of `circuit`'s tables, known before garbling.
  static size_t SerializedSize(const Circuit& circuit);
};

// The garbler's randomness: the free-XOR offset and the 0-label of
// each of its own input wires.
struct GarblerCoins {
  WireLabel delta;                      // lsb = 1
  std::vector<WireLabel> input_label0;  // in garbler-input order
};

// Draws `circuit`'s garbler coins from `rng`: the offset, then one
// label per garbler input.  The only place that order is written down.
GarblerCoins DrawGarblerCoins(const Circuit& circuit, Rng& rng);

class Garbler {
 public:
  // Garbles `circuit` immediately.  The 0-labels of the evaluator's
  // inputs are given (the secure comparison takes them from a random
  // OT); the offset and the garbler's own input labels come from
  // `coins`.  The circuit must outlive the garbler.
  Garbler(const Circuit& circuit, const GarblerCoins& coins,
          std::span<const WireLabel> evaluator_label0);

  const GarbledTables& tables() const { return tables_; }

  // Label for the garbler's own input bit `value` at bundle index `i`.
  WireLabel GarblerInputLabel(size_t i, bool value) const;
  // Both labels for the evaluator's input at bundle index `i`; the
  // second is the first XOR the offset.
  std::pair<WireLabel, WireLabel> EvaluatorInputLabels(size_t i) const;

  // Decodes an output label back to a cleartext bit (used in tests and
  // when the garbler is the output receiver).
  bool DecodeOutput(size_t output_index, const WireLabel& label) const;

 private:
  const WireLabel& Label0(int32_t wire) const;
  WireLabel Label1(int32_t wire) const;

  const Circuit& circuit_;
  WireLabel delta_;                 // global free-XOR offset, lsb = 1
  std::vector<WireLabel> label0_;   // label for value 0, per wire
  GarbledTables tables_;
};

class Evaluator {
 public:
  Evaluator(const Circuit& circuit, GarbledTables tables);

  // Evaluates given the active labels for both input bundles, in
  // bundle order.  Returns the decoded output bits.
  std::vector<bool> Evaluate(const std::vector<WireLabel>& garbler_labels,
                             const std::vector<WireLabel>& evaluator_labels);

 private:
  const Circuit& circuit_;
  GarbledTables tables_;
};

// Half-gate hash H(label, tweak) shared by garbler and evaluator; AND
// gate k uses tweaks 2k (generator half) and 2k + 1 (evaluator half).
WireLabel GateHash(const WireLabel& label, uint64_t tweak);

}  // namespace pem::crypto
