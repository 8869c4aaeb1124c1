// Deterministic PRNG for the *simulation* side (trace generation,
// agent parameter sampling).  Cryptographic randomness lives in
// crypto/rng.h and must never be swapped for this.
#pragma once

#include <cstdint>
#include <random>

namespace pem {

class SimRandom {
 public:
  explicit SimRandom(uint64_t seed) : eng_(seed) {}

  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(eng_);
  }

  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(eng_);
  }

  bool Bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(eng_);
  }

  std::mt19937_64& engine() { return eng_; }

 private:
  std::mt19937_64 eng_;
};

}  // namespace pem
