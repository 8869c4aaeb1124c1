#include "crypto/secure_compare.h"

#include <vector>

#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/ot.h"
#include "net/serialize.h"
#include "util/error.h"

namespace pem::crypto {
namespace {

net::Message MustReceive(net::Endpoint& ep, uint32_t expected_type) {
  std::optional<net::Message> m = ep.Receive();
  PEM_CHECK(m.has_value(), "secure_compare: missing message");
  PEM_CHECK(m->type == expected_type, "secure_compare: unexpected type");
  return std::move(*m);
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

  // ---- Garbler side: garble, open the OT batch ------------------------
  Garbler g(circuit, rng);
  const std::vector<bool> x_bits = ToBits(x, cfg.bits);
  const OtSender ot_sender(rng);
  net::ByteWriter w1;
  w1.Bytes(g.tables().Serialize());
  for (size_t i = 0; i < nbits; ++i) {
    w1.Bytes(g.GarblerInputLabel(i, x_bits[i]).bytes);
  }
  w1.Bytes(ot_sender.Message1());
  garbler.Send(evaluator.id(), kMsgGcTablesAndOt1, w1.Take());

  // ---- Evaluator side: one OT choice per input bit --------------------
  const std::vector<bool> y_bits = ToBits(y, cfg.bits);
  net::Message msg1 = MustReceive(evaluator, kMsgGcTablesAndOt1);
  net::ByteReader r1(msg1.payload);
  GarbledTables tables = GarbledTables::Deserialize(r1.Bytes(), circuit);
  std::vector<WireLabel> garbler_labels(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    const std::vector<uint8_t> b = r1.Bytes();
    PEM_CHECK(b.size() == 16, "bad label size");
    std::copy(b.begin(), b.end(), garbler_labels[i].bytes.begin());
  }
  OtReceiver ot_receiver(r1.Bytes());
  PEM_CHECK(r1.AtEnd(), "trailing bytes in GC message 1");
  net::ByteWriter w2;
  for (size_t i = 0; i < nbits; ++i) {
    w2.Bytes(ot_receiver.Choose(y_bits[i], rng));
  }
  evaluator.Send(garbler.id(), kMsgGcOtResponses, w2.Take());

  // ---- Garbler side: encrypt both labels per OT -----------------------
  net::Message msg2 = MustReceive(garbler, kMsgGcOtResponses);
  net::ByteReader r2(msg2.payload);
  net::ByteWriter w3;
  for (size_t i = 0; i < nbits; ++i) {
    const std::vector<uint8_t> b_point = r2.Bytes();
    const auto [l0, l1] = g.EvaluatorInputLabels(i);
    w3.Bytes(ot_sender.Encrypt(i, b_point, l0.bytes, l1.bytes));
  }
  PEM_CHECK(r2.AtEnd(), "trailing bytes in GC message 2");
  garbler.Send(evaluator.id(), kMsgGcOtFinal, w3.Take());

  // ---- Evaluator side: decrypt labels, evaluate ------------------------
  net::Message msg3 = MustReceive(evaluator, kMsgGcOtFinal);
  net::ByteReader r3(msg3.payload);
  std::vector<WireLabel> evaluator_labels(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    evaluator_labels[i].bytes = ot_receiver.Decrypt(i, r3.Bytes());
  }
  PEM_CHECK(r3.AtEnd(), "trailing bytes in GC message 3");
  Evaluator eval(circuit, std::move(tables));
  const std::vector<bool> out = eval.Evaluate(garbler_labels, evaluator_labels);
  PEM_CHECK(out.size() == 1, "comparator must have one output");

  // ---- Share the result with the garbler ------------------------------
  net::ByteWriter w4;
  w4.U8(out[0] ? 1 : 0);
  evaluator.Send(garbler.id(), kMsgGcResult, w4.Take());
  net::Message msg4 = MustReceive(garbler, kMsgGcResult);
  net::ByteReader r4(msg4.payload);
  const bool result = r4.U8() != 0;
  PEM_CHECK(result == out[0], "result mismatch");
  return result;
}

}  // namespace pem::crypto
