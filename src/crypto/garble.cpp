#include "crypto/garble.h"

#include <cstring>

#include "crypto/hash.h"
#include "util/error.h"

namespace pem::crypto {
namespace {

constexpr uint64_t kGateHashTag = 0x4841'4C46'4743ull;  // "HALFGC"

WireLabel RandomLabel(Rng& rng) {
  WireLabel l;
  rng.Fill(l.bytes);
  return l;
}

}  // namespace

WireLabel GateHash(const WireLabel& label, uint64_t tweak) {
  uint8_t tweak_bytes[8];
  std::memcpy(tweak_bytes, &tweak, sizeof tweak_bytes);
  const Sha256Digest d = Kdf2(kGateHashTag, tweak_bytes, label.bytes);
  WireLabel out;
  std::memcpy(out.bytes.data(), d.bytes.data(), out.bytes.size());
  return out;
}

std::vector<uint8_t> GarbledTables::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(SerializedSize());
  for (const auto& table : and_tables) {
    for (const WireLabel& row : table) {
      out.insert(out.end(), row.bytes.begin(), row.bytes.end());
    }
  }
  out.insert(out.end(), output_decode.begin(), output_decode.end());
  return out;
}

size_t GarbledTables::SerializedSize() const {
  return and_tables.size() * kAndBytes + output_decode.size();
}

size_t GarbledTables::SerializedSize(const Circuit& circuit) {
  return circuit.AndGateCount() * kAndBytes + circuit.outputs.size();
}

GarbledTables GarbledTables::Deserialize(std::span<const uint8_t> bytes,
                                         const Circuit& circuit) {
  PEM_CHECK(bytes.size() == SerializedSize(circuit),
            "garbled tables: size mismatch");
  GarbledTables t;
  t.and_tables.resize(circuit.AndGateCount());
  size_t pos = 0;
  for (auto& table : t.and_tables) {
    for (WireLabel& row : table) {
      std::memcpy(row.bytes.data(), bytes.data() + pos, row.bytes.size());
      pos += row.bytes.size();
    }
  }
  t.output_decode.assign(bytes.begin() + static_cast<ptrdiff_t>(pos),
                         bytes.end());
  return t;
}

GarblerCoins DrawGarblerCoins(const Circuit& circuit, Rng& rng) {
  GarblerCoins coins;
  coins.delta = RandomLabel(rng);
  coins.delta.bytes[15] |= 1;  // point-and-permute needs lsb(delta) = 1
  coins.input_label0.reserve(circuit.garbler_inputs.size());
  for (size_t i = 0; i < circuit.garbler_inputs.size(); ++i) {
    coins.input_label0.push_back(RandomLabel(rng));
  }
  return coins;
}

Garbler::Garbler(const Circuit& circuit, const GarblerCoins& coins,
                 std::span<const WireLabel> evaluator_label0)
    : circuit_(circuit), delta_(coins.delta) {
  PEM_CHECK(evaluator_label0.size() == circuit.evaluator_inputs.size(),
            "garbler: evaluator label count");
  PEM_CHECK(coins.input_label0.size() == circuit.garbler_inputs.size(),
            "garbler: garbler label count");
  PEM_CHECK(delta_.permute_bit(), "garbler: offset lsb must be 1");

  label0_.resize(static_cast<size_t>(circuit.num_wires));
  for (size_t i = 0; i < coins.input_label0.size(); ++i) {
    label0_[static_cast<size_t>(circuit.garbler_inputs[i])] =
        coins.input_label0[i];
  }
  for (size_t i = 0; i < evaluator_label0.size(); ++i) {
    label0_[static_cast<size_t>(circuit.evaluator_inputs[i])] =
        evaluator_label0[i];
  }

  tables_.and_tables.reserve(circuit.AndGateCount());
  for (const Gate& g : circuit.gates) {
    const WireLabel& a0 = label0_[static_cast<size_t>(g.a)];
    switch (g.type) {
      case GateType::kXor: {
        const WireLabel& b0 = label0_[static_cast<size_t>(g.b)];
        label0_[static_cast<size_t>(g.out)] = a0.Xor(b0);
        break;
      }
      case GateType::kAnd: {
        const WireLabel& b0 = label0_[static_cast<size_t>(g.b)];
        const uint64_t tweak = 2 * tables_.and_tables.size();
        const bool pa = a0.permute_bit();
        const bool pb = b0.permute_bit();
        // Generator half: a & pb, with pb known to the garbler.
        const WireLabel ha0 = GateHash(a0, tweak);
        const WireLabel ha1 = GateHash(a0.Xor(delta_), tweak);
        WireLabel tg = ha0.Xor(ha1);
        if (pb) tg = tg.Xor(delta_);
        const WireLabel wg0 = pa ? ha0.Xor(tg) : ha0;
        // Evaluator half: a & (b ^ pb), with b ^ pb the permute bit the
        // evaluator sees on its b label.
        const WireLabel hb0 = GateHash(b0, tweak + 1);
        const WireLabel hb1 = GateHash(b0.Xor(delta_), tweak + 1);
        const WireLabel te = hb0.Xor(hb1).Xor(a0);
        const WireLabel we0 = pb ? hb1 : hb0;  // H(b0) ^ pb (te ^ a0)
        label0_[static_cast<size_t>(g.out)] = wg0.Xor(we0);
        tables_.and_tables.push_back({tg, te});
        break;
      }
    }
  }

  tables_.output_decode.reserve(circuit.outputs.size());
  for (int32_t w : circuit.outputs) {
    tables_.output_decode.push_back(
        static_cast<uint8_t>(label0_[static_cast<size_t>(w)].permute_bit()));
  }
}

const WireLabel& Garbler::Label0(int32_t wire) const {
  return label0_[static_cast<size_t>(wire)];
}

WireLabel Garbler::Label1(int32_t wire) const {
  return Label0(wire).Xor(delta_);
}

WireLabel Garbler::GarblerInputLabel(size_t i, bool value) const {
  PEM_CHECK(i < circuit_.garbler_inputs.size(), "garbler input index");
  const int32_t w = circuit_.garbler_inputs[i];
  return value ? Label1(w) : Label0(w);
}

std::pair<WireLabel, WireLabel> Garbler::EvaluatorInputLabels(size_t i) const {
  PEM_CHECK(i < circuit_.evaluator_inputs.size(), "evaluator input index");
  const int32_t w = circuit_.evaluator_inputs[i];
  return {Label0(w), Label1(w)};
}

Evaluator::Evaluator(const Circuit& circuit, GarbledTables tables)
    : circuit_(circuit), tables_(std::move(tables)) {
  PEM_CHECK(tables_.and_tables.size() == circuit.AndGateCount(),
            "garbled tables: AND count mismatch");
  PEM_CHECK(tables_.output_decode.size() == circuit.outputs.size(),
            "garbled tables: output decode mismatch");
}

std::vector<bool> Evaluator::Evaluate(
    const std::vector<WireLabel>& garbler_labels,
    const std::vector<WireLabel>& evaluator_labels) {
  PEM_CHECK(garbler_labels.size() == circuit_.garbler_inputs.size(),
            "garbler label count");
  PEM_CHECK(evaluator_labels.size() == circuit_.evaluator_inputs.size(),
            "evaluator label count");
  std::vector<WireLabel> active(static_cast<size_t>(circuit_.num_wires));
  for (size_t i = 0; i < garbler_labels.size(); ++i) {
    active[static_cast<size_t>(circuit_.garbler_inputs[i])] =
        garbler_labels[i];
  }
  for (size_t i = 0; i < evaluator_labels.size(); ++i) {
    active[static_cast<size_t>(circuit_.evaluator_inputs[i])] =
        evaluator_labels[i];
  }

  size_t and_index = 0;
  for (const Gate& g : circuit_.gates) {
    const WireLabel& la = active[static_cast<size_t>(g.a)];
    switch (g.type) {
      case GateType::kXor:
        active[static_cast<size_t>(g.out)] =
            la.Xor(active[static_cast<size_t>(g.b)]);
        break;
      case GateType::kAnd: {
        const WireLabel& lb = active[static_cast<size_t>(g.b)];
        const std::array<WireLabel, 2>& rows = tables_.and_tables[and_index];
        const uint64_t tweak = 2 * and_index;
        WireLabel wg = GateHash(la, tweak);
        if (la.permute_bit()) wg = wg.Xor(rows[0]);
        WireLabel we = GateHash(lb, tweak + 1);
        if (lb.permute_bit()) we = we.Xor(rows[1]).Xor(la);
        active[static_cast<size_t>(g.out)] = wg.Xor(we);
        ++and_index;
        break;
      }
    }
  }

  std::vector<bool> out;
  out.reserve(circuit_.outputs.size());
  for (size_t i = 0; i < circuit_.outputs.size(); ++i) {
    const WireLabel& l =
        active[static_cast<size_t>(circuit_.outputs[i])];
    out.push_back(l.permute_bit() ^ (tables_.output_decode[i] != 0));
  }
  return out;
}

}  // namespace pem::crypto
