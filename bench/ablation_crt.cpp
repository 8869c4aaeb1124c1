// Ablation (see EXPERIMENTS.md): CRT acceleration of both halves of the
// Paillier hot path.
//
//   * Decryption: mod p²/q² with exponents reduced mod p-1/q-1 vs. the
//     textbook L-function path.  Expected ~3-4x (the exponents halve
//     along with the moduli).
//   * Encryption (owner side): the r^n randomness factor mod p²/q²
//     (with the p | e_p exponent split, see PaillierCrtEncryptor) plus
//     Garner recombination vs. the full-width mod-n² path.  Expected
//     ~2x at 512-bit growing to ~3x+ at 2048-bit, with bit-identical
//     output (asserted by tests/crypto/test_paillier.cpp's KATs).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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

// The encryption hot spot in isolation: the plaintext-independent
// r^n factor, owner CRT path vs. public full-width path, over a fixed
// set of pre-sampled r values (sampling cost excluded from both rows).
void BM_EncryptFactorCrtToggle(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool use_crt = state.range(1) != 0;
  DeterministicRng rng(2);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  const PaillierCrtEncryptor crt(kp.priv);
  std::vector<BigInt> rs;
  for (int i = 0; i < 16; ++i) rs.push_back(kp.pub.SampleRandomness(rng));
  size_t i = 0;
  for (auto _ : state) {
    const BigInt& r = rs[i];
    i = (i + 1) % rs.size();
    benchmark::DoNotOptimize(
        use_crt ? crt.RandomnessFactor(r)
                : r.PowMod(kp.pub.n(), kp.pub.n_squared()));
  }
  state.SetLabel(use_crt ? "owner-crt" : "public");
}
BENCHMARK(BM_EncryptFactorCrtToggle)
    ->Args({512, 0})->Args({512, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({2048, 0})->Args({2048, 1})
    ->Unit(benchmark::kMicrosecond);

// End-to-end signed encryption, owner CRT vs. public path (includes
// sampling and the g^m assembly, so the gap narrows vs. factor-only).
void BM_EncryptSignedCrtToggle(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool use_crt = state.range(1) != 0;
  DeterministicRng rng(3);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  const PaillierCrtEncryptor crt(kp.priv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(use_crt ? crt.EncryptSigned(-987654, rng)
                                     : kp.pub.EncryptSigned(-987654, rng));
  }
  state.SetLabel(use_crt ? "owner-crt" : "public");
}
BENCHMARK(BM_EncryptSignedCrtToggle)
    ->Args({512, 0})->Args({512, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({2048, 0})->Args({2048, 1})
    ->Unit(benchmark::kMicrosecond);

// The idle-time refill as the simulation runs it: pool topped up by
// `threads` workers, with/without the owner's CRT tables attached.
// Wall time per refill of 32 factors; the factor sequence is identical
// in every row (tests assert it), so the rows differ in speed only.
void BM_PoolRefillCrtThreads(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool use_crt = state.range(1) != 0;
  const unsigned threads = static_cast<unsigned>(state.range(2));
  DeterministicRng rng(4);
  const PaillierKeyPair kp = GeneratePaillierKeyPair(bits, rng);
  // Built once: the encryptor's setup (two divisions + one InvMod) is
  // idle-time key material, not part of the per-refill cost — charging
  // it to the CRT rows only would skew the comparison.
  const PaillierCrtEncryptor crt(kp.priv);
  for (auto _ : state) {
    PaillierRandomnessPool pool(kp.pub);
    if (use_crt) pool.AttachCrtEncryptor(crt);
    pool.Refill(32, rng, threads);
    benchmark::DoNotOptimize(pool.available());
  }
  state.SetLabel(std::string(use_crt ? "owner-crt" : "public") + "/t" +
                 std::to_string(threads));
}
BENCHMARK(BM_PoolRefillCrtThreads)
    ->Args({1024, 0, 1})->Args({1024, 0, 4})
    ->Args({1024, 1, 1})->Args({1024, 1, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
