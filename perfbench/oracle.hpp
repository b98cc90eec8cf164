// An exact-sum oracle that shares no code with the HP kernel.
//
// Every finite double is an integer multiple of 2^-1074, so a sum of
// doubles is an integer in those units. The oracle keeps that integer as
// signed base-2^32 digits held in int64 (a small superaccumulator in the
// style of Neal, arXiv:1505.05571): each summand's 53-bit mantissa is split
// over at most three digits and added without carries, and carries are
// resolved only every 2^30 summands and at the end. Rounding to double is
// done here too (round to nearest, ties to even), so the benchmark's
// reference double never depends on src/core.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace perfbench {

class ExactOracle {
 public:
  /// Adds one finite double. Throws std::invalid_argument on NaN or inf.
  void add(double x);
  void add(std::span<const double> xs) {
    for (const double x : xs) add(x);
  }
  /// The exact sum rounded once to the nearest double (ties to even).
  [[nodiscard]] double to_double();

 private:
  void normalize() noexcept;

  // 2045 bits of exponent range + 53 of mantissa + 2^30-summand headroom.
  static constexpr int kDigits = 70;
  std::array<std::int64_t, kDigits> d_{};
  std::uint64_t pending_ = 0;
};

/// Convenience: the correctly rounded exact sum of `xs`.
[[nodiscard]] double exact_sum(std::span<const double> xs);

}  // namespace perfbench
