#include "util/sim_random.h"

#include <gtest/gtest.h>

namespace pem {
namespace {

TEST(SimRandom, DeterministicForSameSeed) {
  SimRandom a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(SimRandom, DifferentSeedsDiverge) {
  SimRandom a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform(0, 1) != b.Uniform(0, 1)) ++differing;
  }
  EXPECT_GT(differing, 45);
}

TEST(SimRandom, UniformStaysInRange) {
  SimRandom rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(SimRandom, GaussianHasRoughlyCorrectMoments) {
  SimRandom rng(42);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(3.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(SimRandom, BernoulliFrequencyTracksP) {
  SimRandom rng(5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

}  // namespace
}  // namespace pem
