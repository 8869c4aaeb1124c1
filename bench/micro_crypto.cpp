// Micro-benchmarks for the cryptographic substrate (google-benchmark).
// Not a paper figure; used to sanity-check where window time goes and
// to compare against the published Paillier/GC cost models.
#include <benchmark/benchmark.h>

#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/ot.h"
#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"
#include "net/bus.h"
#include "tests/support/partial_bus.h"

namespace {

using namespace pem::crypto;

const PaillierKeyPair& Keys(int bits) {
  static DeterministicRng rng(1);
  static std::map<int, PaillierKeyPair> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    it = cache.emplace(bits, GeneratePaillierKeyPair(bits, rng)).first;
  }
  return it->second;
}

void BM_PaillierKeyGen(benchmark::State& state) {
  DeterministicRng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GeneratePaillierKeyPair(static_cast<int>(state.range(0)), rng));
  }
}
BENCHMARK(BM_PaillierKeyGen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

// One-time cost per key and process: derive h_s from n and build its
// fixed-base table.  Each iteration times a fresh copy of the key,
// whose table nobody has built yet.
void BM_PaillierFixedBaseBuild(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PaillierPublicKey fresh(kp.pub.n(), kp.pub.key_bits());
    benchmark::DoNotOptimize(fresh.randomness_base());
  }
}
BENCHMARK(BM_PaillierFixedBaseBuild)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Public-key encryption with the table already built (it is built
// once per key, see BM_PaillierFixedBaseBuild).
void BM_PaillierEncrypt(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  (void)kp.pub.randomness_base();
  DeterministicRng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.EncryptSigned(123456, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// The randomness factor alone: h_s^r for an l-bit r from the table,
// next to the n-bit r^n mod n^2 that classic Paillier encryption
// spends (reference only; nothing in the library computes it).
void BM_PaillierFactor(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  const bool table = state.range(1) != 0;
  DeterministicRng rng(14);
  const BigInt short_r = kp.pub.SampleRandomness(rng);
  const BigInt full_r = BigInt::RandomBelow(kp.pub.n(), rng);
  (void)kp.pub.randomness_base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table ? kp.pub.RandomnessFactor(short_r)
              : full_r.PowMod(kp.pub.n(), kp.pub.n_squared()));
  }
  state.SetLabel(table ? "table h_s^r" : "reference r^n");
}
BENCHMARK(BM_PaillierFactor)
    ->Args({1024, 1})->Args({1024, 0})
    ->Args({2048, 1})->Args({2048, 0})
    ->Unit(benchmark::kMicrosecond);

// The idle-time pool refill (factors only), per worker count; this is
// what RunSimulation executes between windows.
void BM_PaillierPoolRefill(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  DeterministicRng rng(13);
  (void)kp.pub.randomness_base();  // key material, not refill cost
  for (auto _ : state) {
    PaillierRandomnessPool pool(kp.pub);
    pool.Refill(16, rng, threads);
    benchmark::DoNotOptimize(pool.available());
  }
}
BENCHMARK(BM_PaillierPoolRefill)
    ->Args({1024, 1})->Args({1024, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  DeterministicRng rng(3);
  const PaillierCiphertext ct = kp.pub.EncryptSigned(987654, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.DecryptSigned(ct));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  DeterministicRng rng(4);
  const PaillierCiphertext a = kp.pub.EncryptSigned(1, rng);
  const PaillierCiphertext b = kp.pub.EncryptSigned(2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.Add(a, b));
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierScalarMul(benchmark::State& state) {
  const PaillierKeyPair& kp = Keys(static_cast<int>(state.range(0)));
  DeterministicRng rng(5);
  const PaillierCiphertext a = kp.pub.EncryptSigned(7, rng);
  const BigInt k(int64_t{1} << 40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.ScalarMul(a, k));
  }
}
BENCHMARK(BM_PaillierScalarMul)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

std::vector<WireLabel> RandomLabels(size_t n, Rng& rng) {
  std::vector<WireLabel> labels(n);
  for (WireLabel& l : labels) rng.Fill(l.bytes);
  return labels;
}

void BM_GarbleComparator(benchmark::State& state) {
  const Circuit circuit =
      BuildLessThanCircuit(static_cast<int>(state.range(0)));
  DeterministicRng rng(6);
  const std::vector<WireLabel> label0 =
      RandomLabels(circuit.evaluator_inputs.size(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Garbler(circuit, DrawGarblerCoins(circuit, rng), label0));
  }
}
BENCHMARK(BM_GarbleComparator)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_EvaluateComparator(benchmark::State& state) {
  const Circuit circuit =
      BuildLessThanCircuit(static_cast<int>(state.range(0)));
  DeterministicRng rng(7);
  const std::vector<WireLabel> label0 =
      RandomLabels(circuit.evaluator_inputs.size(), rng);
  const Garbler g(circuit, DrawGarblerCoins(circuit, rng), label0);
  std::vector<WireLabel> gl, el;
  for (size_t i = 0; i < circuit.garbler_inputs.size(); ++i) {
    gl.push_back(g.GarblerInputLabel(i, i % 2 == 0));
  }
  for (size_t i = 0; i < circuit.evaluator_inputs.size(); ++i) {
    el.push_back(g.EvaluatorInputLabels(i).first);
  }
  GarbledTables tables = g.tables();
  for (auto _ : state) {
    Evaluator eval(circuit, tables);
    benchmark::DoNotOptimize(eval.Evaluate(gl, el));
  }
}
BENCHMARK(BM_EvaluateComparator)->Arg(64)->Unit(benchmark::kMicrosecond);

// One compare's worth of OT: a 64-OT P-256 batch under one sender key.
void BM_ObliviousTransferBatch(benchmark::State& state) {
  const auto count = static_cast<uint64_t>(state.range(0));
  DeterministicRng rng(8);
  for (auto _ : state) {
    const OtSender sender(DrawOtScalar(rng));
    OtReceiver receiver(sender.Message1());
    for (uint64_t i = 0; i < count; ++i) {
      const OtReceiver::Choice c =
          receiver.Choose(i % 2 == 1, DrawOtScalar(rng));
      benchmark::DoNotOptimize(sender.Pads(i, c.b));
    }
  }
}
BENCHMARK(BM_ObliviousTransferBatch)->Arg(64)->Unit(benchmark::kMillisecond);

// One compare's circuit work without the OT: garble the 64-bit
// comparator from given evaluator labels, then evaluate it.  Beside
// BM_SecureCompare64 it splits the compare's CPU between circuit and
// OT.
void BM_GarbleEvaluateLessThan64(benchmark::State& state) {
  const Circuit circuit = BuildLessThanCircuit(64);
  DeterministicRng rng(10);
  const std::vector<WireLabel> label0 =
      RandomLabels(circuit.evaluator_inputs.size(), rng);
  const std::vector<bool> x = ToBits(123456, 64);
  for (auto _ : state) {
    const Garbler g(circuit, DrawGarblerCoins(circuit, rng), label0);
    std::vector<WireLabel> gl(64);
    for (size_t i = 0; i < gl.size(); ++i) gl[i] = g.GarblerInputLabel(i, x[i]);
    Evaluator eval(circuit, g.tables());
    benchmark::DoNotOptimize(eval.Evaluate(gl, label0));
  }
}
BENCHMARK(BM_GarbleEvaluateLessThan64)->Unit(benchmark::kMicrosecond);

void BM_SecureCompare64(benchmark::State& state) {
  DeterministicRng rng(9);
  const SecureCompareConfig cfg;
  for (auto _ : state) {
    pem::net::MessageBus bus(2);
    pem::net::Endpoint garbler = bus.endpoint(0);
    pem::net::Endpoint evaluator = bus.endpoint(1);
    benchmark::DoNotOptimize(
        SecureCompareLess(garbler, 123456, evaluator, 654321, cfg, rng));
  }
}
BENCHMARK(BM_SecureCompare64)->Unit(benchmark::kMillisecond);

// One endpoint's half of BM_SecureCompare64: the bus acts for the
// garbler (agent 0) or the evaluator (agent 1) only, as that agent's
// forked child does, and rebuilds the other half's frames.
void SecureCompare64Half(benchmark::State& state, pem::net::AgentId acting) {
  DeterministicRng rng(9);
  const SecureCompareConfig cfg;
  for (auto _ : state) {
    pem::testutil::PartialBus bus(2, {acting});
    pem::net::Endpoint garbler = bus.endpoint(0);
    pem::net::Endpoint evaluator = bus.endpoint(1);
    benchmark::DoNotOptimize(
        SecureCompareLess(garbler, 123456, evaluator, 654321, cfg, rng));
  }
}

void BM_SecureCompare64GarblerHalf(benchmark::State& state) {
  SecureCompare64Half(state, 0);
}
BENCHMARK(BM_SecureCompare64GarblerHalf)->Unit(benchmark::kMillisecond);

void BM_SecureCompare64EvaluatorHalf(benchmark::State& state) {
  SecureCompare64Half(state, 1);
}
BENCHMARK(BM_SecureCompare64EvaluatorHalf)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
