#include "crypto/secure_compare.h"

#include <cstring>
#include <vector>

#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/ot.h"
#include "util/error.h"

namespace pem::crypto {
namespace {

constexpr size_t kLabelBytes = sizeof(WireLabel::bytes);

// Receives the next message, which must have `type` and exactly `size`
// payload bytes.
net::Message MustReceive(net::Endpoint& ep, uint32_t type, size_t size,
                         const char* wrong_size) {
  std::optional<net::Message> m = ep.Receive();
  PEM_CHECK(m.has_value(), "secure_compare: missing message");
  PEM_CHECK(m->type == type, "secure_compare: unexpected type");
  PEM_CHECK(m->payload.size() == size, wrong_size);
  return std::move(*m);
}

void Append(std::vector<uint8_t>& out, std::span<const uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// The `i`-th label of a run of labels starting at `at`.
WireLabel LabelAt(std::span<const uint8_t> bytes, size_t at, size_t i) {
  WireLabel l;
  std::memcpy(l.bytes.data(), bytes.data() + at + i * kLabelBytes,
              kLabelBytes);
  return l;
}

// All of one compare's randomness, drawn in the order the protocol
// consumes it: the OT sender key, one OT receiver key per evaluator
// bit, then the garbler's offset and input labels.
struct CompareCoins {
  OtScalar sender;
  std::vector<OtScalar> receiver;
  GarblerCoins garbler;
};

CompareCoins DrawCompareCoins(const Circuit& circuit, Rng& rng) {
  CompareCoins coins;
  coins.sender = DrawOtScalar(rng);
  coins.receiver.reserve(circuit.evaluator_inputs.size());
  for (size_t i = 0; i < circuit.evaluator_inputs.size(); ++i) {
    coins.receiver.push_back(DrawOtScalar(rng));
  }
  coins.garbler = DrawGarblerCoins(circuit, rng);
  return coins;
}

// The compare as followed by a process that acts for neither endpoint:
// the four frames at their fixed sizes, zero-filled but for the result
// bit, which the caller already knows.  They reach no wire, since only
// an agent's own process sends its frames.
bool ObserveCompare(net::Endpoint& garbler, net::Endpoint& evaluator,
                    bool less, size_t nbits, size_t msg3_size) {
  garbler.Send(evaluator.id(), kMsgGcOtSetup,
               std::vector<uint8_t>(kOtPointBytes));
  MustReceive(evaluator, kMsgGcOtSetup, kOtPointBytes,
              "secure_compare: message 1 has the wrong size");
  evaluator.Send(garbler.id(), kMsgGcOtChoices,
                 std::vector<uint8_t>(nbits * kOtPointBytes));
  MustReceive(garbler, kMsgGcOtChoices, nbits * kOtPointBytes,
              "secure_compare: message 2 has the wrong size");
  garbler.Send(evaluator.id(), kMsgGcTables, std::vector<uint8_t>(msg3_size));
  MustReceive(evaluator, kMsgGcTables, msg3_size,
              "secure_compare: message 3 has the wrong size");
  evaluator.Send(garbler.id(), kMsgGcResult,
                 {static_cast<uint8_t>(less ? 1 : 0)});
  MustReceive(garbler, kMsgGcResult, 1,
              "secure_compare: message 4 has the wrong size");
  return less;
}

}  // namespace

bool SecureCompareLess(net::Endpoint& garbler, uint64_t x,
                       net::Endpoint& evaluator, uint64_t y,
                       const SecureCompareConfig& cfg, Rng& rng) {
  PEM_CHECK(garbler.id() != evaluator.id(),
            "secure_compare: garbler and evaluator must be distinct agents");
  PEM_CHECK(cfg.bits >= 1 && cfg.bits <= 64, "bits in [1,64]");
  if (cfg.bits < 64) {
    PEM_CHECK((x >> cfg.bits) == 0 && (y >> cfg.bits) == 0,
              "inputs exceed configured bit width");
  }
  const Circuit circuit = BuildLessThanCircuit(cfg.bits);
  const size_t nbits = static_cast<size_t>(cfg.bits);
  const size_t tables_size = GarbledTables::SerializedSize(circuit);
  // Message 3: tables, then the garbler's labels, then the corrections.
  const size_t corrections_at = tables_size + nbits * kLabelBytes;
  const size_t msg3_size = corrections_at + nbits * kLabelBytes;
  // Drawn on both paths, so the caller's rng ends up in one place
  // whether or not this process computes the compare.
  const CompareCoins coins = DrawCompareCoins(circuit, rng);
  if (!garbler.acts() && !evaluator.acts()) {
    return ObserveCompare(garbler, evaluator, x < y, nbits, msg3_size);
  }

  // ---- Garbler side: open the OT batch --------------------------------
  const OtSender ot_sender(coins.sender);
  garbler.Send(evaluator.id(), kMsgGcOtSetup, ot_sender.Message1());

  // ---- Evaluator side: one OT choice per input bit --------------------
  const std::vector<bool> y_bits = ToBits(y, cfg.bits);
  const net::Message msg1 =
      MustReceive(evaluator, kMsgGcOtSetup, kOtPointBytes,
                  "secure_compare: message 1 has the wrong size");
  OtReceiver ot_receiver(msg1.payload);
  std::vector<WireLabel> pads(nbits);
  std::vector<uint8_t> m2;
  m2.reserve(nbits * kOtPointBytes);
  for (size_t i = 0; i < nbits; ++i) {
    OtReceiver::Choice choice =
        ot_receiver.Choose(y_bits[i], coins.receiver[i]);
    Append(m2, choice.b);
    pads[i].bytes = choice.pad;
  }
  evaluator.Send(garbler.id(), kMsgGcOtChoices, std::move(m2));

  // ---- Garbler side: pads -> labels, garble, send ---------------------
  const net::Message msg2 =
      MustReceive(garbler, kMsgGcOtChoices, nbits * kOtPointBytes,
                  "secure_compare: message 2 has the wrong size");
  const std::span<const uint8_t> points(msg2.payload);
  std::vector<WireLabel> label0(nbits);
  std::vector<WireLabel> pad1(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    const auto [p0, p1] = ot_sender.Pads(
        i, points.subspan(i * kOtPointBytes, kOtPointBytes));
    label0[i].bytes = p0;
    pad1[i].bytes = p1;
  }
  const Garbler g(circuit, coins.garbler, label0);
  const std::vector<bool> x_bits = ToBits(x, cfg.bits);
  std::vector<uint8_t> m3 = g.tables().Serialize();
  m3.reserve(msg3_size);
  for (size_t i = 0; i < nbits; ++i) {
    Append(m3, g.GarblerInputLabel(i, x_bits[i]).bytes);
  }
  for (size_t i = 0; i < nbits; ++i) {
    // u_i = p1_i ^ L1_i = p0_i ^ p1_i ^ R.
    Append(m3, pad1[i].Xor(g.EvaluatorInputLabels(i).second).bytes);
  }
  garbler.Send(evaluator.id(), kMsgGcTables, std::move(m3));

  // ---- Evaluator side: correct the pads, evaluate ---------------------
  const net::Message msg3 =
      MustReceive(evaluator, kMsgGcTables, msg3_size,
                  "secure_compare: message 3 has the wrong size");
  const std::span<const uint8_t> body(msg3.payload);
  std::vector<WireLabel> garbler_labels(nbits);
  std::vector<WireLabel> evaluator_labels(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    garbler_labels[i] = LabelAt(body, tables_size, i);
    evaluator_labels[i] =
        y_bits[i] ? pads[i].Xor(LabelAt(body, corrections_at, i)) : pads[i];
  }
  Evaluator eval(circuit,
                 GarbledTables::Deserialize(body.first(tables_size), circuit));
  const std::vector<bool> out = eval.Evaluate(garbler_labels, evaluator_labels);
  PEM_CHECK(out.size() == 1, "comparator must have one output");

  // ---- Share the result with the garbler ------------------------------
  evaluator.Send(garbler.id(), kMsgGcResult,
                 {static_cast<uint8_t>(out[0] ? 1 : 0)});
  const net::Message msg4 =
      MustReceive(garbler, kMsgGcResult, 1,
                  "secure_compare: message 4 has the wrong size");
  const bool result = msg4.payload[0] != 0;
  PEM_CHECK(result == out[0], "result mismatch");
  return result;
}

}  // namespace pem::crypto
