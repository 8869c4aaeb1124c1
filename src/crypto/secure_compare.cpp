#include "crypto/secure_compare.h"

#include <cstring>
#include <optional>
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
  // Drawn by every process, so the caller's rng ends up in one place
  // whichever endpoints this process acts for.
  const CompareCoins coins = DrawCompareCoins(circuit, rng);
  const bool g_acts = garbler.acts();
  const bool e_acts = evaluator.acts();
  const std::vector<bool> x_bits = ToBits(x, cfg.bits);
  const std::vector<bool> y_bits = ToBits(y, cfg.bits);

  // ---- 1. G -> E: the OT sender point A -------------------------------
  // The evaluator's process needs the sender too: to rebuild A and,
  // when it acts alone, the pads message 3 is made of.
  std::optional<OtSender> ot_sender;
  if (g_acts || e_acts) ot_sender.emplace(coins.sender);
  garbler.Send(evaluator.id(), kMsgGcOtSetup,
               ot_sender ? ot_sender->Message1()
                         : std::vector<uint8_t>(kOtPointBytes));
  const net::Message msg1 =
      MustReceive(evaluator, kMsgGcOtSetup, kOtPointBytes,
                  "secure_compare: message 1 has the wrong size");

  // ---- 2. E -> G: one OT point B_i per evaluator input bit ------------
  std::vector<WireLabel> pads(nbits);    // the evaluator's chosen pads
  std::vector<WireLabel> label0(nbits);  // p0_i, the 0-labels
  std::vector<WireLabel> pad1(nbits);    // p1_i
  std::vector<uint8_t> m2;
  m2.reserve(nbits * kOtPointBytes);
  if (e_acts) {
    OtReceiver ot_receiver(msg1.payload);
    for (size_t i = 0; i < nbits; ++i) {
      // Acting alone, the evaluator's process also takes both sender
      // pads from its own b_iA, for message 3.
      const OtReceiver::Choice choice = ot_receiver.Choose(
          y_bits[i], coins.receiver[i], g_acts ? nullptr : &*ot_sender);
      Append(m2, choice.b);
      pads[i].bytes = choice.pad;
      if (choice.sender_pads) {
        label0[i].bytes = choice.sender_pads->first;
        pad1[i].bytes = choice.sender_pads->second;
      }
    }
  } else if (g_acts) {
    for (size_t i = 0; i < nbits; ++i) {
      Append(m2, ot_sender->ReceiverPoint(y_bits[i], coins.receiver[i]));
    }
  } else {
    m2.resize(nbits * kOtPointBytes);
  }
  evaluator.Send(garbler.id(), kMsgGcOtChoices, std::move(m2));
  const net::Message msg2 =
      MustReceive(garbler, kMsgGcOtChoices, nbits * kOtPointBytes,
                  "secure_compare: message 2 has the wrong size");

  // ---- 3. G -> E: garbled tables, G's labels, OT corrections ----------
  std::vector<uint8_t> m3;
  if (g_acts) {
    const std::span<const uint8_t> points(msg2.payload);
    for (size_t i = 0; i < nbits; ++i) {
      const auto [p0, p1] = ot_sender->Pads(
          i, points.subspan(i * kOtPointBytes, kOtPointBytes));
      label0[i].bytes = p0;
      pad1[i].bytes = p1;
    }
  }
  if (g_acts || e_acts) {
    const Garbler g(circuit, coins.garbler, label0);
    m3 = g.tables().Serialize();
    m3.reserve(msg3_size);
    for (size_t i = 0; i < nbits; ++i) {
      Append(m3, g.GarblerInputLabel(i, x_bits[i]).bytes);
    }
    for (size_t i = 0; i < nbits; ++i) {
      // u_i = p1_i ^ L1_i = p0_i ^ p1_i ^ R.
      Append(m3, pad1[i].Xor(g.EvaluatorInputLabels(i).second).bytes);
    }
  } else {
    m3.resize(msg3_size);
  }
  garbler.Send(evaluator.id(), kMsgGcTables, std::move(m3));
  const net::Message msg3 =
      MustReceive(evaluator, kMsgGcTables, msg3_size,
                  "secure_compare: message 3 has the wrong size");

  // ---- 4. E -> G: the result bit --------------------------------------
  // Only the evaluator's process evaluates; any other knows the bit
  // from its replica's inputs, and the garbler's process byte-matches
  // it against the evaluator's real frame.
  bool less = x < y;
  if (e_acts) {
    const std::span<const uint8_t> body(msg3.payload);
    std::vector<WireLabel> garbler_labels(nbits);
    std::vector<WireLabel> evaluator_labels(nbits);
    for (size_t i = 0; i < nbits; ++i) {
      garbler_labels[i] = LabelAt(body, tables_size, i);
      evaluator_labels[i] =
          y_bits[i] ? pads[i].Xor(LabelAt(body, corrections_at, i)) : pads[i];
    }
    Evaluator eval(circuit, GarbledTables::Deserialize(
                                body.first(tables_size), circuit));
    const std::vector<bool> out =
        eval.Evaluate(garbler_labels, evaluator_labels);
    PEM_CHECK(out.size() == 1, "comparator must have one output");
    less = out[0];
  }
  evaluator.Send(garbler.id(), kMsgGcResult,
                 {static_cast<uint8_t>(less ? 1 : 0)});
  const net::Message msg4 =
      MustReceive(garbler, kMsgGcResult, 1,
                  "secure_compare: message 4 has the wrong size");
  const bool result = msg4.payload[0] != 0;
  PEM_CHECK(result == less, "result mismatch");
  return result;
}

}  // namespace pem::crypto
