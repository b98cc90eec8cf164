#include "workload/workload.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace hpsum::workload {

std::vector<double> cancellation_set(std::size_t n, std::uint64_t seed,
                                     double max_mag) {
  if (n % 2 != 0) {
    throw std::invalid_argument("cancellation_set: n must be even");
  }
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(n);
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < half; ++i) {
    xs[i] = rng.uniform(0.0, max_mag);
    xs[half + i] = -xs[i];
  }
  return xs;
}

std::vector<double> uniform_set(std::size_t n, std::uint64_t seed, double lo,
                                double hi) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

std::vector<double> wide_range_set(std::size_t n, std::uint64_t seed,
                                   int min_exp, int max_exp) {
  if (min_exp >= max_exp) {
    throw std::invalid_argument("wide_range_set: min_exp must be < max_exp");
  }
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    const auto e = static_cast<int>(
        rng.bounded(static_cast<std::uint64_t>(max_exp - min_exp)));
    const double mant = 1.0 + rng.uniform01();  // [1, 2)
    const double mag = std::ldexp(mant, min_exp + e);
    x = (rng.next() & 1) ? -mag : mag;
  }
  return xs;
}

std::vector<double> nbody_force_set(std::size_t n, std::uint64_t seed,
                                    double sigma) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    // Box-Muller: two independent normals per pair of uniforms.
    const double u1 = 1.0 - rng.uniform01();  // (0, 1]
    const double u2 = rng.uniform01();
    const double r = std::sqrt(-2.0 * std::log(u1)) * sigma;
    xs[i] = r * std::cos(2.0 * std::numbers::pi * u2);
    xs[i + 1] = r * std::sin(2.0 * std::numbers::pi * u2);
  }
  if (n % 2 != 0) xs[n - 1] = 0.0;
  return xs;
}

std::vector<double> lognormal_set(std::size_t n, std::uint64_t seed,
                                  double mu, double sigma) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Box-Muller, one normal per summand (the sine twin is discarded to
    // keep the value count independent of parity).
    const double u1 = 1.0 - rng.uniform01();  // (0, 1]
    const double u2 = rng.uniform01();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    const double mag = std::exp(mu + sigma * z);
    xs[i] = rng.uniform01() < 0.5 ? -mag : mag;
  }
  return xs;
}

DotProblem ill_conditioned_dot(std::size_t pairs, int spread_exp,
                               std::uint64_t seed) {
  if (spread_exp < 1 || spread_exp > 500) {
    throw std::invalid_argument("ill_conditioned_dot: bad spread_exp");
  }
  util::Xoshiro256ss rng(seed);
  DotProblem out;
  const std::size_t n = 2 * pairs + 1;
  out.a.reserve(n);
  out.b.reserve(n);

  // The survivor: an exactly representable tiny product.
  out.exact = 3.0 * std::ldexp(1.0, -60);
  out.a.push_back(3.0);
  out.b.push_back(std::ldexp(1.0, -60));

  for (std::size_t i = 0; i < pairs; ++i) {
    const int e = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(spread_exp)));
    const double ai = std::ldexp(1.0 + rng.uniform01(), e / 2);
    const double bi = std::ldexp(1.0 + rng.uniform01(), e - e / 2);
    out.a.push_back(ai);
    out.b.push_back(bi);
    out.a.push_back(ai);
    out.b.push_back(-bi);  // cancels the previous product exactly
  }

  // Joint shuffle: permute both vectors with the same permutation.
  for (std::size_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.bounded(i);
    std::swap(out.a[i - 1], out.a[j]);
    std::swap(out.b[i - 1], out.b[j]);
  }
  return out;
}

void shuffle(std::span<double> xs, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  // The swap targets depend on the generator alone, never on the data, so
  // a batch of them is drawn and prefetched ahead of its swaps: on arrays
  // beyond cache the random accesses then overlap instead of queueing.
  // Draws and swaps keep the plain loop's order, hence its permutation.
  constexpr std::size_t kBatch = 32;
  std::array<std::uint64_t, kBatch> js{};
  std::size_t i = xs.size();
  for (; i > kBatch; i -= kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      js[k] = rng.bounded(i - k);
      __builtin_prefetch(&xs[js[k]], 1);
    }
    for (std::size_t k = 0; k < kBatch; ++k) {
      std::swap(xs[i - 1 - k], xs[js[k]]);
    }
  }
  for (; i > 1; --i) {
    const std::uint64_t j = rng.bounded(i);
    std::swap(xs[i - 1], xs[j]);
  }
}

}  // namespace hpsum::workload
