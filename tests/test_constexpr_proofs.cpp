// Compile-time proofs of the order-invariance contract.
//
// The HP kernels (limb arithmetic, double→HP conversion, HP addition,
// HP→double rounding) are constexpr, so the central claims of the paper can
// be checked by the compiler itself: every static_assert below is evaluated
// during constant evaluation, where signed overflow, UB casts, or
// out-of-bounds access are hard errors — a stronger guarantee than any
// runtime test. If this file compiles, the properties hold.
#include <gtest/gtest.h>

#include "core/hp_convert.hpp"
#include "core/hp_fixed.hpp"
#include "core/hp_kernel.hpp"
#include "util/limbs.hpp"

namespace {

using hpsum::HpFixed;
using hpsum::HpStatus;
namespace util = hpsum::util;

// --- Limb kernel proofs -----------------------------------------------------

constexpr bool limb_carry_chain_works() {
  util::Limb a[3] = {0, ~0ull, ~0ull};  // big-endian: msb limb first
  const util::Limb one[3] = {0, 0, 1};
  const bool carry =
      util::add_into(util::LimbSpan(a, 3), util::ConstLimbSpan(one, 3));
  // ...11111 + 1 ripples through two limbs into the third.
  return !carry && a[0] == 1 && a[1] == 0 && a[2] == 0;
}
static_assert(limb_carry_chain_works());

constexpr bool limb_carry_out_detected() {
  util::Limb a[2] = {~0ull, ~0ull};
  const util::Limb one[2] = {0, 1};
  return util::add_into(util::LimbSpan(a, 2), util::ConstLimbSpan(one, 2));
}
static_assert(limb_carry_out_detected(), "carry out of the top limb reports");

constexpr bool negate_round_trips() {
  util::Limb a[2] = {0x0123456789abcdefull, 0xfedcba9876543210ull};
  util::Limb b[2] = {a[0], a[1]};
  util::negate_twos(util::LimbSpan(b, 2));
  util::negate_twos(util::LimbSpan(b, 2));
  return a[0] == b[0] && a[1] == b[1];
}
static_assert(negate_round_trips(), "-(-x) == x in two's complement");

constexpr bool shift_inverts() {
  util::Limb a[3] = {0, 0x8000000000000001ull, 5};
  util::Limb b[3] = {a[0], a[1], a[2]};
  util::shift_left_bits(util::LimbSpan(b, 3), 7);
  util::shift_right_bits(util::LimbSpan(b, 3), 7);
  return a[0] == b[0] && a[1] == b[1] && a[2] == b[2];
}
static_assert(shift_inverts());

// --- Conversion round-trip proofs ------------------------------------------

/// double → HP → double is the identity for every value the format
/// represents exactly (paper §III.A: conversions are exact in-range).
template <int N, int K>
constexpr bool round_trips_exactly(double x) {
  const HpFixed<N, K> hp(x);
  return hp.status() == HpStatus::kOk && hp.to_double() == x;
}
static_assert(round_trips_exactly<8, 4>(0.0));
static_assert(round_trips_exactly<8, 4>(1.0));
static_assert(round_trips_exactly<8, 4>(-1.0));
static_assert(round_trips_exactly<8, 4>(1.5));
static_assert(round_trips_exactly<8, 4>(-2.25));
static_assert(round_trips_exactly<8, 4>(0x1.fffffffffffffp+52));
static_assert(round_trips_exactly<8, 4>(-0x1.fffffffffffffp+52));
static_assert(round_trips_exactly<8, 4>(1e-60));   // deep in the fraction
static_assert(round_trips_exactly<8, 4>(-1e60));   // high in the integer part
static_assert(round_trips_exactly<20, 10>(1e150));
static_assert(round_trips_exactly<20, 10>(-1e-150));
// Subnormals round-trip when the fraction reaches 2^-1074 (K*64 >= 1074):
static_assert(round_trips_exactly<18, 17>(5e-324));
static_assert(round_trips_exactly<18, 17>(-5e-324));

/// Out-of-range inputs must flag, not wrap.
template <int N, int K>
constexpr HpStatus convert_status(double x) {
  return HpFixed<N, K>(x).status();
}
static_assert(convert_status<2, 1>(1e40) == HpStatus::kConvertOverflow,
              "above 2^63 cannot convert into {2,1}");
static_assert(convert_status<8, 4>(1e-300) == HpStatus::kInexact,
              "below 2^-256 truncates and flags");
static_assert(convert_status<8, 4>(1e300) == HpStatus::kConvertOverflow);

// --- Order-invariance proofs ------------------------------------------------

/// The paper's core claim, checked by the compiler: summing in opposite
/// orders (and with interleaved cancellation) produces bit-identical HP
/// values. The double baseline provably fails on this data.
constexpr bool order_invariant_sum() {
  constexpr double xs[] = {1e16, 3.14159, -1e16, 2.71828,
                           1e-8, -12345.678, 0.5, 1e16};
  HpFixed<8, 4> fwd;
  for (const double x : xs) fwd += x;
  HpFixed<8, 4> rev;
  for (int i = 7; i >= 0; --i) rev += xs[i];
  return fwd == rev;
}
static_assert(order_invariant_sum(), "HP sums are order-invariant");

constexpr bool double_sum_is_order_sensitive() {
  constexpr double xs[] = {1e16, 3.14159, -1e16, 2.71828,
                           1e-8, -12345.678, 0.5, 1e16};
  double fwd = 0;
  // hplint-style note: this FP accumulation demonstrates the baseline
  // failure; tests/ is outside the L1 contract scope.
  for (const double x : xs) fwd += x;
  double rev = 0;
  for (int i = 7; i >= 0; --i) rev += xs[i];
  return fwd != rev;
}
static_assert(double_sum_is_order_sensitive(),
              "the same data breaks the double baseline");

/// Massive cancellation: adding y then subtracting it restores x exactly.
constexpr bool cancellation_is_exact() {
  const HpFixed<8, 4> x(3.725290298461914e-09);  // 2^-28
  HpFixed<8, 4> acc = x;
  const HpFixed<8, 4> y(1e18);
  acc += y;
  acc -= y;
  return acc == x && acc.status() == HpStatus::kOk;
}
static_assert(cancellation_is_exact());

/// Negative totals work through the two's-complement representation.
constexpr bool negative_sums_work() {
  HpFixed<6, 3> acc;
  acc += 1.0;
  acc -= 3.5;
  return acc.is_negative() && acc.to_double() == -2.5;
}
static_assert(negative_sums_work());

// --- Add-overflow proofs ----------------------------------------------------

/// Adding two values of equal sign whose sum leaves the range must set
/// kAddOverflow (paper §III.B.1's second overflow site).
constexpr bool add_overflow_detected() {
  constexpr double kBig = 4.611686018427387904e18;  // 2^62
  HpFixed<2, 1> acc(kBig);
  acc += HpFixed<2, 1>(kBig);  // 2^63 overflows the {2,1} range
  return has(acc.status(), HpStatus::kAddOverflow);
}
static_assert(add_overflow_detected());

/// ...and the wrapped value still obeys modular arithmetic: subtracting one
/// operand back recovers the other (Z/2^(64N) group structure).
constexpr bool overflow_is_modular() {
  constexpr double kBig = 4.611686018427387904e18;
  HpFixed<2, 1> acc(kBig);
  acc += HpFixed<2, 1>(kBig);
  acc -= HpFixed<2, 1>(kBig);
  return acc.to_double() == kBig;
}
static_assert(overflow_is_modular());

// --- HP → double rounding proofs -------------------------------------------

/// Ties round to even, matching IEEE-754 round-to-nearest (§III.A's single
/// final rounding).
constexpr bool rounding_ties_to_even() {
  // 2^53 + 1 is not a double; HP holds it exactly, rounding must go to 2^53
  // (even), not 2^53 + 2.
  HpFixed<8, 4> acc(9007199254740992.0);  // 2^53
  acc += 1.0;
  HpStatus st = HpStatus::kOk;
  const double r = acc.to_double(st);
  return r == 9007199254740992.0 && st == HpStatus::kOk;
}
static_assert(rounding_ties_to_even());

constexpr bool rounding_away_when_above_tie() {
  HpFixed<8, 4> acc(9007199254740992.0);  // 2^53
  acc += 1.5;
  HpStatus st = HpStatus::kOk;
  const double r = acc.to_double(st);
  return r == 9007199254740994.0 && st == HpStatus::kOk;
}
static_assert(rounding_away_when_above_tie());

// --- Scatter-add fast-path proofs ------------------------------------------

/// The fused deposit is bit-identical — limbs AND status — to the
/// reference convert+add pair. Checked by the compiler on a cancellation
/// mix that spans the fraction, the integer part, and a subnormal.
constexpr bool scatter_matches_reference() {
  constexpr double xs[] = {1e16,  3.14159, -1e16,  2.71828, 1e-8,
                           -12345.678, 0.5, 5e-324, -2.5e-310, 1e16};
  HpFixed<6, 3> fast;
  HpFixed<6, 3> ref;
  for (const double x : xs) {
    fast += x;  // scatter-add fast path
    ref.add_double_reference(x);
  }
  return fast == ref && fast.status() == ref.status();
}
static_assert(scatter_matches_reference(),
              "scatter-add is bit-identical to convert+add");

/// Carry localization: a deposit into the low limb of an all-ones
/// accumulator ripples to the top, and the inverse borrow restores it.
constexpr bool scatter_carry_chain_works() {
  util::Limb a[4] = {~0ull, ~0ull, ~0ull, ~0ull};  // -lsb
  const HpStatus up =
      hpsum::detail::scatter_add_double(a, 4, 2, 0x1p-128);  // +lsb
  if (up != HpStatus::kOk) return false;
  if (a[0] != 0 || a[1] != 0 || a[2] != 0 || a[3] != 0) return false;
  const HpStatus down = hpsum::detail::scatter_add_double(a, 4, 2, -0x1p-128);
  return down == HpStatus::kOk && a[0] == ~0ull && a[1] == ~0ull &&
         a[2] == ~0ull && a[3] == ~0ull;
}
static_assert(scatter_carry_chain_works(),
              "scatter carry/borrow ripples across every limb seam");

/// Status contract at the edges: sub-lsb truncation flags kInexact and
/// leaves the accumulator untouched; out-of-range flags kConvertOverflow.
constexpr bool scatter_status_contract_holds() {
  util::Limb a[2] = {0, 0};
  if (hpsum::detail::scatter_add_double(a, 2, 1, 0x1p-200) !=
      HpStatus::kInexact)
    return false;
  if (a[0] != 0 || a[1] != 0) return false;
  if (hpsum::detail::scatter_add_double(a, 2, 1, 0x1p64) !=
      HpStatus::kConvertOverflow)
    return false;
  return a[0] == 0 && a[1] == 0;
}
static_assert(scatter_status_contract_holds());

// --- Block-path deferral proofs -------------------------------------------

/// A deep-pending stream: 300 deposits into (2,1), more than 64n = 128,
/// stay deferred without a single flush (pending counts all of them), and
/// the flushed limbs and status still equal the scalar scatter loop.
constexpr bool deep_pending_matches_scalar() {
  constexpr int kCount = 300;
  util::Limb a[2] = {};
  hpsum::kernel::U128 pos[3] = {};
  hpsum::kernel::U128 neg[3] = {};
  int bound = hpsum::kernel::block_bound_exp(a, 2);
  int pending = 0;
  util::Limb scalar[2] = {};
  HpStatus st = HpStatus::kOk;
  HpStatus sst = HpStatus::kOk;
  for (int i = 0; i < kCount; ++i) {
    const double x = (i % 3 == 0 ? -1.0 : 1.0) * (0.75 + 0.5 * i);
    st |= hpsum::kernel::block_add(a, pos, neg, 2, 1, bound, pending, x);
    sst |= hpsum::detail::scatter_add_double(scalar, 2, 1, x);
  }
  if (pending != kCount) return false;
  hpsum::kernel::block_flush(a, pos, neg, 2, bound, pending);
  return a[0] == scalar[0] && a[1] == scalar[1] && st == sst;
}
static_assert(deep_pending_matches_scalar(),
              "more than 64n deposits defer without a flush, bit-exactly");

// The gtest body exists so the suite registers the file; the proofs above
// already ran inside the compiler.
TEST(ConstexprProofs, AllStaticAssertsHeld) { SUCCEED(); }

}  // namespace
