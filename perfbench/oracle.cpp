#include "oracle.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr std::int64_t kBase = std::int64_t{1} << 32;
}  // namespace

void ExactOracle::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  const int bexp = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
  if (bexp == 0x7ff) {
    throw std::invalid_argument("oracle: non-finite summand");
  }
  // Value = mant * 2^(pos - 1074) with pos the mantissa's bit offset in
  // units of 2^-1074: subnormals sit at 0, normals at bexp - 1.
  int pos = 0;
  if (bexp != 0) {
    mant |= std::uint64_t{1} << 52;
    pos = bexp - 1;
  }
  __extension__ using U128 = unsigned __int128;
  const U128 v = static_cast<U128>(mant) << (pos % 32);
  const int i = pos / 32;
  const std::int64_t parts[3] = {
      static_cast<std::int64_t>(static_cast<std::uint32_t>(v)),
      static_cast<std::int64_t>(static_cast<std::uint32_t>(v >> 32)),
      static_cast<std::int64_t>(static_cast<std::uint32_t>(v >> 64))};
  if (bits >> 63) {
    for (int j = 0; j < 3; ++j) d_[i + j] -= parts[j];
  } else {
    for (int j = 0; j < 3; ++j) d_[i + j] += parts[j];
  }
  if (++pending_ == (std::uint64_t{1} << 30)) normalize();
}

void ExactOracle::normalize() noexcept {
  // Afterwards every digit but the top one is in [0, 2^32); the top digit
  // carries the sign of the whole sum.
  for (int i = 0; i + 1 < kDigits; ++i) {
    const std::int64_t carry = d_[i] >= 0 ? d_[i] / kBase
                                          : -((-d_[i] + kBase - 1) / kBase);
    d_[i] -= carry * kBase;
    d_[i + 1] += carry;
  }
  pending_ = 0;
}

double ExactOracle::to_double() {
  normalize();
  std::array<std::int64_t, kDigits> mag = d_;
  const bool negative = mag[kDigits - 1] < 0;
  if (negative) {
    for (auto& digit : mag) digit = -digit;
    for (int i = 0; i + 1 < kDigits; ++i) {
      const std::int64_t carry = mag[i] >= 0 ? mag[i] / kBase
                                             : -((-mag[i] + kBase - 1) / kBase);
      mag[i] -= carry * kBase;
      mag[i + 1] += carry;
    }
  }
  int top = kDigits - 1;
  while (top >= 0 && mag[top] == 0) --top;
  if (top < 0) return 0.0;
  const auto bit = [&](int b) -> std::uint64_t {
    return (static_cast<std::uint64_t>(mag[b / 32]) >> (b % 32)) & 1;
  };
  // msb: index of the highest set bit, in units of 2^-1074.
  const int msb =
      32 * top + std::bit_width(static_cast<std::uint64_t>(mag[top])) - 1;
  std::uint64_t m = 0;
  int shift = 0;  // result = m * 2^(shift - 1074)
  if (msb < 53) {
    for (int b = msb; b >= 0; --b) m = (m << 1) | bit(b);
  } else {
    for (int b = msb; b > msb - 53; --b) m = (m << 1) | bit(b);
    shift = msb - 52;
    const std::uint64_t round = bit(shift - 1);
    bool sticky = false;
    for (int b = shift - 2; b >= 0 && !sticky; --b) sticky = bit(b) != 0;
    if (round != 0 && (sticky || (m & 1) != 0)) {
      ++m;
      if (m == (std::uint64_t{1} << 53)) {
        m >>= 1;
        ++shift;
      }
    }
  }
  const double r = std::ldexp(static_cast<double>(m), shift - 1074);
  return negative ? -r : r;
}

double exact_sum(std::span<const double> xs) {
  ExactOracle o;
  o.add(xs);
  return o.to_double();
}

}  // namespace perfbench
