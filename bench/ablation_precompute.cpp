// Ablation (see EXPERIMENTS.md): idle-time precomputation of Paillier
// encryption randomness.
//
// This reproduces the paper's explanation for Fig. 5(b): "the key size
// for encryption and decryption executed in our protocols does not
// affect the runtime (since the encryption and decryption are
// independently executed in parallel during idle time)".  The
// expensive h_s^r mod n^2 factor is plaintext-independent, so agents
// can precompute it between trading windows; the online encryption
// then costs one multiplication and the key-size lines collapse.
//
// We time a 100-contribution ring aggregation (the Protocols 2-3
// pattern) per key size, with fresh vs. pooled randomness.  A second
// sweep times the refill itself — the idle-time phase — across worker
// counts (the factor sequence is identical in every row;
// tests/crypto/test_paillier.cpp asserts it).
#include <cstdio>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

int main() {
  using namespace pem;
  using namespace pem::crypto;

  std::printf("=== Ablation: idle-time encryption precompute ===\n");
  std::printf("(100-member encrypted aggregation, online time only)\n\n");
  std::printf("%10s %18s %18s %10s\n", "key bits", "fresh (ms)",
              "pooled (ms)", "speedup");

  DeterministicRng rng(7);
  const int kMembers = 100;
  for (int key_bits : {512, 1024, 2048}) {
    const PaillierKeyPair kp = GeneratePaillierKeyPair(key_bits, rng);
    (void)kp.pub.randomness_base();  // the key's one-time table, untimed

    // Baseline: fresh randomness per encryption (the timed path of our
    // Fig. 5(b) bench).
    Stopwatch fresh_timer;
    PaillierCiphertext acc = kp.pub.EncryptSigned(0, rng);
    for (int i = 1; i < kMembers; ++i) {
      acc = kp.pub.Add(acc, kp.pub.EncryptSigned(i, rng));
    }
    const double fresh_ms = fresh_timer.ElapsedMillis();

    // Idle-time phase (untimed): precompute the randomness factors.
    PaillierRandomnessPool pool(kp.pub);
    pool.Refill(static_cast<size_t>(kMembers), rng);

    // Online phase: one modular multiplication per encryption, with a
    // pooled factor as the engine's ring encryptions take it.
    const auto pooled = [&](int64_t v) {
      return kp.pub.EncryptWithFactor(kp.pub.EncodeSigned(v),
                                      *pool.TakeFactor());
    };
    Stopwatch pooled_timer;
    PaillierCiphertext acc2 = pooled(0);
    for (int i = 1; i < kMembers; ++i) acc2 = kp.pub.Add(acc2, pooled(i));
    const double pooled_ms = pooled_timer.ElapsedMillis();

    // Sanity: both paths aggregate to the same sum.
    if (kp.priv.DecryptSigned(acc) != kp.priv.DecryptSigned(acc2)) {
      std::fprintf(stderr, "aggregation mismatch!\n");
      return 1;
    }
    std::printf("%10d %18.2f %18.2f %9.1fx\n", key_bits, fresh_ms, pooled_ms,
                fresh_ms / pooled_ms);
  }
  std::printf(
      "\ntakeaway: with idle-time precompute the online cost is nearly "
      "key-size independent — this is why the paper's Fig. 5(b) lines "
      "coincide while our timed-everything Fig. 5(b) separates by key "
      "size\n");

  // --- the idle-time phase itself: concurrent refill -----------------
  std::printf("\n=== Refill sweep: worker count ===\n");
  std::printf("(topping one pool up to 64 factors, 1024-bit key)\n\n");
  std::printf("%8s %18s %10s\n", "threads", "refill (ms)", "speedup");
  const PaillierKeyPair kp = GeneratePaillierKeyPair(1024, rng);
  (void)kp.pub.randomness_base();  // the one-time table, not refill cost
  const size_t kTarget = 64;
  double baseline_ms = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    DeterministicRng refill_rng(11);  // same r stream for every row
    PaillierRandomnessPool pool(kp.pub);
    Stopwatch timer;
    pool.Refill(kTarget, refill_rng, threads);
    const double ms = timer.ElapsedMillis();
    if (threads == 1) baseline_ms = ms;
    std::printf("%8u %18.2f %9.1fx\n", threads, ms, baseline_ms / ms);
  }
  std::printf(
      "\ntakeaway: the refill fans its exponentiations out across cores\n"
      "(this machine reports %u).  On a 1-core CI container the thread\n"
      "rows collapse to ~1x; run on a multicore host to see the scaling.\n",
      pem::DefaultThreads());
  return 0;
}
