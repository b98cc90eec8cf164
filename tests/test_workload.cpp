// Tests for the workload generators.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/stats.hpp"
#include "util/prng.hpp"

namespace hpsum::workload {
namespace {

TEST(Workload, CancellationSetSumsToZeroInExactArithmetic) {
  const auto xs = cancellation_set(1024, 1);
  ASSERT_EQ(xs.size(), 1024u);
  // Pairwise structure: xs[i + n/2] == -xs[i].
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(xs[512 + i], -xs[i]);
    EXPECT_GE(xs[i], 0.0);
    EXPECT_LE(xs[i], 1e-3);
  }
}

TEST(Workload, CancellationSetRespectsMaxMag) {
  const auto xs = cancellation_set(100, 2, 5.0);
  for (const double x : xs) EXPECT_LE(std::fabs(x), 5.0);
}

TEST(Workload, CancellationSetOddSizeThrows) {
  EXPECT_THROW(cancellation_set(7, 1), std::invalid_argument);
}

TEST(Workload, UniformSetBoundsAndSpread) {
  const auto xs = uniform_set(100000, 3);
  const auto s = stats::summarize(xs);
  EXPECT_GE(s.min, -0.5);
  EXPECT_LT(s.max, 0.5);
  EXPECT_NEAR(s.mean, 0.0, 0.005);
  EXPECT_NEAR(s.stddev, std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Workload, WideRangeSetSpansExponents) {
  const auto xs = wide_range_set(100000, 4);
  int tiny = 0;
  int huge = 0;
  for (const double x : xs) {
    const double mag = std::fabs(x);
    EXPECT_GE(mag, std::ldexp(1.0, -223));
    EXPECT_LT(mag, std::ldexp(1.0, 192));
    if (mag < std::ldexp(1.0, -150)) ++tiny;
    if (mag > std::ldexp(1.0, 150)) ++huge;
  }
  // Log-uniform exponents: both tails must be populated.
  EXPECT_GT(tiny, 1000);
  EXPECT_GT(huge, 1000);
}

TEST(Workload, WideRangeSetHasBothSigns) {
  const auto xs = wide_range_set(10000, 5);
  const auto negs = std::count_if(xs.begin(), xs.end(),
                                  [](double x) { return x < 0; });
  EXPECT_GT(negs, 4000);
  EXPECT_LT(negs, 6000);
}

TEST(Workload, WideRangeBadExponentsThrow) {
  EXPECT_THROW(wide_range_set(10, 1, 100, 100), std::invalid_argument);
}

TEST(Workload, NbodyForceSetIsZeroMeanGaussian) {
  const auto xs = nbody_force_set(200000, 6, 1e-3);
  const auto s = stats::summarize(xs);
  EXPECT_NEAR(s.mean, 0.0, 1e-5);
  EXPECT_NEAR(s.stddev, 1e-3, 5e-5);
}

TEST(Workload, NbodyOddSizePadsWithZero) {
  const auto xs = nbody_force_set(7, 7);
  EXPECT_EQ(xs.size(), 7u);
  EXPECT_EQ(xs.back(), 0.0);
}

TEST(Workload, GeneratorsAreDeterministic) {
  EXPECT_EQ(uniform_set(100, 9), uniform_set(100, 9));
  EXPECT_EQ(cancellation_set(100, 9), cancellation_set(100, 9));
  EXPECT_EQ(wide_range_set(100, 9), wide_range_set(100, 9));
  EXPECT_NE(uniform_set(100, 9), uniform_set(100, 10));
}

TEST(Workload, ShuffleIsDeterministicPermutation) {
  auto xs = uniform_set(1000, 11);
  const auto orig = xs;
  shuffle(xs, 1);
  EXPECT_NE(xs, orig);
  EXPECT_TRUE(std::is_permutation(xs.begin(), xs.end(), orig.begin()));

  auto ys = orig;
  shuffle(ys, 1);
  EXPECT_EQ(xs, ys);  // same seed, same permutation
}

// Reference: the plain Fisher-Yates loop. shuffle() draws and prefetches
// its swap targets in batches but must give exactly this permutation.
void plain_fisher_yates(std::vector<double>& xs, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  for (std::size_t i = xs.size(); i > 1; --i) {
    const std::uint64_t j = rng.bounded(i);
    std::swap(xs[i - 1], xs[j]);
  }
}

TEST(Workload, ShuffleMatchesPlainFisherYates) {
  const std::size_t sizes[] = {0, 1, 2, 31, 32, 33, 1000, 100003};
  for (const std::size_t n : sizes) {
    for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0x9E3779B97F4A7C15ull}) {
      std::vector<double> got(n);
      for (std::size_t i = 0; i < n; ++i) got[i] = static_cast<double>(i);
      auto want = got;
      shuffle(got, seed);
      plain_fisher_yates(want, seed);
      ASSERT_EQ(got, want) << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace hpsum::workload
