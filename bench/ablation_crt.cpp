// Ablation (see EXPERIMENTS.md): CRT acceleration of Paillier
// decryption — mod p²/q² with exponents reduced mod p-1/q-1 vs. the
// textbook L-function path.  Expected ~3-4x (the exponents halve along
// with the moduli).
//
// Encryption has no CRT row: the owner's CRT path lost to the public
// fixed-base table (crypto/paillier.h), so both now run the same code.
#include <benchmark/benchmark.h>

#include "crypto/paillier.h"
#include "crypto/rng.h"

namespace {

using namespace pem::crypto;

void BM_DecryptCrtToggle(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool use_crt = state.range(1) != 0;
  DeterministicRng rng(1);
  PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  kp.priv.set_use_crt(use_crt);
  const PaillierCiphertext ct = kp.pub.EncryptSigned(123456789, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.DecryptSigned(ct));
  }
  state.SetLabel(use_crt ? "crt" : "plain");
}
BENCHMARK(BM_DecryptCrtToggle)
    ->Args({512, 0})->Args({512, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({2048, 0})->Args({2048, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
