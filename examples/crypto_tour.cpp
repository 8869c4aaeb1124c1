// A guided tour of the cryptographic substrate, bottom-up:
// Paillier homomorphic aggregation, the Protocol-4 reciprocal trick,
// oblivious transfer, and a garbled-circuit secure comparison — the
// exact building blocks Protocols 2-4 compose.
//
// Build & run:  ./build/examples/crypto_tour
#include <cstdio>

#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/ot.h"
#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"
#include "net/bus.h"
#include "util/fixed_point.h"

int main() {
  using namespace pem;
  using namespace pem::crypto;
  SystemRng& rng = SystemRng::Instance();

  // --- Paillier: encrypted aggregation --------------------------------
  std::printf("1) Paillier (1024-bit): homomorphic sum of net energies\n");
  const PaillierKeyPair kp = GeneratePaillierKeyPair(1024, rng);
  const int64_t nets[] = {150'000, -90'000, 42'000, -1'000};  // micro-kWh
  PaillierCiphertext acc = kp.pub.EncryptZero(rng);
  int64_t expected = 0;
  for (int64_t v : nets) {
    acc = kp.pub.Add(acc, kp.pub.EncryptSigned(v, rng));
    expected += v;
  }
  std::printf("   sum of {0.15, -0.09, 0.042, -0.001} kWh = %.3f kWh "
              "(expected %.3f)\n",
              FixedPoint::FromRaw(kp.priv.DecryptSigned(acc)).ToDouble(),
              FixedPoint::FromRaw(expected).ToDouble());

  // --- The Protocol-4 reciprocal trick ---------------------------------
  std::printf("\n2) Reciprocal trick: reveal only share/total\n");
  const int64_t total = 2'000'000, share = 350'000;  // E_b and |sn_j|
  const int64_t big_k = int64_t{1} << 40;
  const PaillierCiphertext enc_total = kp.pub.EncryptSigned(total, rng);
  const PaillierCiphertext blinded =
      kp.pub.ScalarMul(enc_total, BigInt(RoundDiv(big_k, share)));
  const double ratio =
      static_cast<double>(big_k) / kp.priv.Decrypt(blinded).ToDouble();
  std::printf("   decrypted ratio = %.6f (true share/total = %.6f)\n", ratio,
              static_cast<double>(share) / total);

  // --- Oblivious transfer ----------------------------------------------
  std::printf("\n3) 1-of-2 random oblivious transfer (Chou-Orlandi over "
              "P-256)\n");
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  const OtReceiver::Choice choice =
      receiver.Choose(/*choice=*/true, DrawOtScalar(rng));
  const auto [p0, p1] = sender.Pads(0, choice.b);
  std::printf("   sender holds pads starting 0x%02x / 0x%02x; the receiver "
              "chose bit 1 and holds 0x%02x\n"
              "   (sender never learns the choice, receiver never learns "
              "the other pad)\n",
              p0[0], p1[0], choice.pad[0]);

  // --- Garbled-circuit secure comparison -------------------------------
  std::printf("\n4) Yao garbled circuit: the millionaires' comparison\n");
  const Circuit circuit = BuildLessThanCircuit(64);
  std::printf("   64-bit comparator: %zu gates, %zu of them AND "
              "(XOR/NOT are free), %zu bytes of half-gate tables\n",
              circuit.gates.size(), circuit.AndGateCount(),
              GarbledTables::SerializedSize(circuit));
  net::MessageBus bus(2);
  net::Endpoint garbler = bus.endpoint(0);
  net::Endpoint evaluator = bus.endpoint(1);
  const SecureCompareConfig cfg;
  const uint64_t rs = 123'456'789, rb = 987'654'321;
  const bool less = SecureCompareLess(garbler, rs, evaluator, rb, cfg, rng);
  std::printf("   [R_s < R_b] = %s, using %llu bytes on the wire — this is "
              "Protocol 2's market evaluation step\n",
              less ? "true" : "false",
              static_cast<unsigned long long>(bus.total_bytes()));
  return 0;
}
