// hp_kernel_simd_avx2.cpp — the vectorized block deposit: an AVX2 lane
// decomposer plus the batch loop that decides WHETHER a batch may be
// vector-deposited (the fast-lane gate, the bound update, and the plane
// scatter). The lanes are 4 x u64, two steps per kWidth batch, with the
// variable 64-bit shifts (vpsllvq/vpsrlvq) that the mantissa split needs
// and baseline x86-64 lacks.
//
// Only the functions marked [[gnu::target("avx2")]] execute AVX2
// instructions; the TU itself is compiled for the baseline ISA. A TU-wide
// -mavx2 would also compile the out-of-line copies of the inline header
// functions this file uses (kernel::block_flush, trace internals) with
// VEX encodings, and the linker may keep that copy for every caller in
// the program — including the scalar path on a CPU without AVX2.

#include <immintrin.h>

#include <cstdint>
#include <span>

#include "core/hp_kernel.hpp"
#include "core/hp_kernel_simd.hpp"
#include "trace/trace.hpp"
#include "util/limbs.hpp"

namespace hpsum::kernel::simd {

namespace {

inline constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
inline constexpr std::uint64_t kBit52 = std::uint64_t{1} << 52;

/// One decomposed batch of kWidth lanes, already sign-split: a positive
/// lane has its limb words in lop/hip and zeros in lon/hin, a negative
/// lane the reverse — so the fold never branches or indexes on
/// the sign, it just sums four independent streams. The decomposer fills
/// every array unconditionally (slow lanes hold garbage); `all_fast` is
/// the only field that says whether the rest may be trusted, except
/// `pmax`, which is exact whenever all_fast is true and otherwise merely
/// small (|pmax| <= 2123), so arithmetic on it never overflows.
struct LaneBatch {
  std::uint64_t lop[kWidth];  ///< limb-li word, positive lanes (else 0)
  std::uint64_t lon[kWidth];  ///< limb-li word, negative lanes (else 0)
  std::uint64_t hip[kWidth];  ///< straddle word for limb li-1, positive
  std::uint64_t hin[kWidth];  ///< straddle word for limb li-1, negative
  std::uint64_t lq[kWidth];   ///< p >> 6: the lsb's limb offset from the bottom
  /// Batch-level plane deltas, filled ONLY when all_fast && uniform:
  /// sum_lo[s] = sum of the lo words of sign s (0 positive, 1 negative),
  /// sum_hi[s] likewise for the straddle words — exactly what the scalar
  /// loop would add to slots li+1 and li, pre-summed (a kWidth-term sum of
  /// 64-bit words sits far below the U128 ceiling), so the batch loop never
  /// re-walks the lanes in the hot case.
  U128 sum_lo[2];
  U128 sum_hi[2];
  int pmax = 0;               ///< max over lanes of the lsb position p
  bool all_fast = false;      ///< every lane normal, in-window, untruncated
  bool uniform = false;       ///< all lanes share lq[0] (one target limb pair)
};

/// The fast-lane window for an (n,k) format, in biased-exponent terms. A
/// lane is FAST iff be_lo <= biased_exp <= be_hi, which is exactly:
///   - normal and finite (be >= 1, be <= 0x7FE),
///   - whole mantissa at or above 2^(-64k): p = be-1075+64k >= 0, so the
///     deposit is exact (no kInexact truncation), and
///   - msb = p+52 <= 64n-2, below the sign bit (no kConvertOverflow).
/// A fast deposit raises no status flags, touches exactly limbs li/li-1,
/// and has msb = p+52 with the implicit leading bit — the three facts the
/// batched path needs. Everything else (zeros, subnormals, non-finite,
/// out-of-range, sub-lsb truncation) punts to the scalar kernel.
struct Window {
  int be_lo;
  int be_hi;
  int pbias;  ///< 64k - 1075: biased exponent -> signed lsb position p
};

[[nodiscard]] constexpr Window window(int n, int k) noexcept {
  Window w{};
  w.be_lo = 1075 - 64 * k;
  if (w.be_lo < 1) w.be_lo = 1;
  w.be_hi = 64 * (n - k) + 1021;
  if (w.be_hi > 0x7FE) w.be_hi = 0x7FE;
  w.pbias = 64 * k - 1075;
  return w;
}

/// Sums the four 64-bit lanes of `v` into one scalar, exactly, given every
/// lane is below 2^62 (the callers' lanes are below 2^56): two paddq steps
/// cannot wrap.
[[nodiscard, gnu::target("avx2")]] inline std::uint64_t hsum_epi64(
    __m256i v) noexcept {
  const __m128i s =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  const __m128i t = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(t));
}

/// Sums the lo words of both halves of a batch exactly: each lane is split
/// at bit 32 and the halves are summed separately (eight 32-bit pieces
/// cannot wrap a 64-bit lane), then recombined in U128.
[[nodiscard, gnu::target("avx2")]] inline U128 fold_lo(__m256i h0,
                                                       __m256i h1) noexcept {
  const __m256i m32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i lo32 = _mm256_add_epi64(_mm256_and_si256(h0, m32),
                                        _mm256_and_si256(h1, m32));
  const __m256i hi32 = _mm256_add_epi64(_mm256_srli_epi64(h0, 32),
                                        _mm256_srli_epi64(h1, 32));
  return static_cast<U128>(hsum_epi64(lo32)) +
         (static_cast<U128>(hsum_epi64(hi32)) << 32);
}

/// Decomposes kWidth doubles: biased exponent extract, in-window test,
/// mantissa split into the lo/hi limb words, branch-free sign split into
/// the four plane streams. Slow lanes produce garbage words (never
/// consumed: the batch loop punts the whole batch); `pmax` alone is exact for
/// ALL lanes because p = be + pbias stays within [-1075, 1036+64k] as a
/// signed value.
///
/// The window test uses strict compares on shifted bounds (AVX2 has no
/// 64-bit >=): be >= be_lo becomes be > be_lo-1, be <= be_hi becomes
/// be_hi+1 > be — all values are small positive integers, so the +-1 never
/// wraps. pmax, the uniformity test, and the four plane-delta sums all stay
/// in the vector domain — no per-lane extraction on the hot path. For pmax,
/// the biased exponent fits 32 bits, so an epu32 max over the 64-bit lanes
/// — whose high halves are zero — is exact. The lo words sum through
/// fold_lo; the hi straddle words are below 2^53, so they sum directly.
[[gnu::target("avx2")]] void decompose(const double* x, const Window& w,
                                       LaneBatch& b) noexcept {
  const __m256i belo = _mm256_set1_epi64x(w.be_lo - 1);
  const __m256i behi = _mm256_set1_epi64x(w.be_hi + 1);
  const __m256i pbias = _mm256_set1_epi64x(w.pbias);
  const __m256i mask52 = _mm256_set1_epi64x(static_cast<long long>(kMask52));
  const __m256i bit52 = _mm256_set1_epi64x(static_cast<long long>(kBit52));
  const __m256i c63 = _mm256_set1_epi64x(63);
  const __m256i emask = _mm256_set1_epi64x(0x7FF);
  const __m256i zero = _mm256_setzero_si256();
  __m256i okacc = _mm256_set1_epi64x(-1);
  __m256i bemax = zero;
  __m256i lq01[2];
  __m256i lop01[2];
  __m256i lon01[2];
  __m256i hip01[2];
  __m256i hin01[2];
  for (int h = 0; h < kWidth; h += 4) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + h));
    const __m256i be = _mm256_and_si256(_mm256_srli_epi64(bits, 52), emask);
    const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi64(be, belo),
                                        _mm256_cmpgt_epi64(behi, be));
    const __m256i m53 = _mm256_or_si256(_mm256_and_si256(bits, mask52), bit52);
    const __m256i p = _mm256_add_epi64(be, pbias);
    const __m256i off = _mm256_and_si256(p, c63);
    const __m256i lov = _mm256_sllv_epi64(m53, off);
    const __m256i hiv = _mm256_srlv_epi64(_mm256_srli_epi64(m53, 1),
                                          _mm256_sub_epi64(c63, off));
    // All-ones for negative lanes; sign-split the words so the fold and
    // the non-uniform per-lane path are branch-free on the sign.
    const __m256i negm = _mm256_cmpgt_epi64(zero, bits);
    const __m256i lqv = _mm256_srli_epi64(p, 6);
    const __m256i lopv = _mm256_andnot_si256(negm, lov);
    const __m256i lonv = _mm256_and_si256(negm, lov);
    const __m256i hipv = _mm256_andnot_si256(negm, hiv);
    const __m256i hinv = _mm256_and_si256(negm, hiv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.lop + h), lopv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.lon + h), lonv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.hip + h), hipv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.hin + h), hinv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.lq + h), lqv);
    okacc = _mm256_and_si256(okacc, ok);
    bemax = _mm256_max_epu32(bemax, be);
    const int half = h / 4;
    lq01[half] = lqv;
    lop01[half] = lopv;
    lon01[half] = lonv;
    hip01[half] = hipv;
    hin01[half] = hinv;
  }
  b.all_fast = _mm256_movemask_epi8(okacc) == -1;
  // Horizontal epu32 max (high 32-bit halves are zero, so they never win),
  // then back to the signed lsb position.
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(bemax),
                            _mm256_extracti128_si256(bemax, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
  b.pmax = _mm_cvtsi128_si32(m) + w.pbias;
  // uniform <=> every lq lane equals lane 0 of the first half.
  const __m256i lq0 = _mm256_permute4x64_epi64(lq01[0], 0x00);
  const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi64(lq01[0], lq0),
                                      _mm256_cmpeq_epi64(lq01[1], lq0));
  b.uniform = _mm256_movemask_epi8(eq) == -1;
  if (b.all_fast && b.uniform) {
    b.sum_lo[0] = fold_lo(lop01[0], lop01[1]);
    b.sum_lo[1] = fold_lo(lon01[0], lon01[1]);
    b.sum_hi[0] = hsum_epi64(_mm256_add_epi64(hip01[0], hip01[1]));
    b.sum_hi[1] = hsum_epi64(_mm256_add_epi64(hin01[0], hin01[1]));
  }
}

}  // namespace

/// The batched accumulate loop. Bit-identity with the scalar per-element
/// kernel::block_add loop (limbs AND sticky status) holds because:
///
///   1. Only all-fast batches are vector-deposited, and a fast deposit
///      raises no flags, so batching cannot reorder or drop status.
///   2. The batch gate takes base' = max(bound, pmax+53) and
///      pending' = pend + kWidth — exactly the state the scalar loop
///      reaches after the same kWidth elements (its base is the running
///      max of msb+1, its pending counts one per deposit). The gate
///      kernel::block_may_defer is monotone in both, so if it passes for
///      the batch it passed at every scalar intermediate too: the scalar
///      path would not have flushed inside this batch, and its deposits
///      commute in the planes. The fold below hands each plane slot
///      exactly the words the scalar loop would, just pre-summed in a
///      register, so the plane contents (not merely their totals) are
///      identical.
///   3. A batch that fails the gate is punted WHOLE, element-wise, in
///      stream order through kernel::block_add, whose flush + scatter
///      fallback is bit-identical by construction. Since the batched state
///      equals the scalar state at every batch boundary, the fallback
///      fires at the same stream position as in the scalar path.
///   4. The gate keeps pending below kBlockMaxPending and keeps
///      base + bit_width(pending) <= 64n-1, the flush exactness invariant
///      documented at kernel::block_flush.
[[gnu::target("avx2")]] HpStatus accumulate(
    util::Limb* a, U128* pos, U128* neg, int n, int k, int& bound_exp,
    int& pending, std::span<const double> xs) noexcept {
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  const Window w = window(n, k);
  const double* x = xs.data();
  const std::size_t size = xs.size();
  std::uint64_t batches = 0;
  std::uint64_t punts = 0;
  std::size_t i = 0;
  for (const std::size_t nfull = size - size % kWidth; i < nfull;
       i += kWidth) {
    LaneBatch b;
    decompose(x + i, w, b);
    if (b.all_fast) [[likely]] {
      const int base = bound > b.pmax + 53 ? bound : b.pmax + 53;
      if (kernel::block_may_defer(n, base, pend + kWidth)) [[likely]] {
        ++batches;
        if (b.uniform) [[likely]] {
          // One target limb pair: the decomposer already folded the batch
          // into four plane deltas, so the planes are touched only four
          // times, instead of paying kWidth dependent read-modify-writes
          // on the same slots.
          const int li = n - 1 - static_cast<int>(b.lq[0]);
          pos[li + 1] += b.sum_lo[0];
          pos[li] += b.sum_hi[0];
          neg[li + 1] += b.sum_lo[1];
          neg[li] += b.sum_hi[1];
        } else {
          // Lanes straddle a limb boundary: deposit per lane. The
          // sign-split arrays make this branch-free — one side of each
          // pair is zero, and adding zero to a plane slot is a no-op on
          // the plane's total.
          for (int j = 0; j < kWidth; ++j) {
            const int li = n - 1 - static_cast<int>(b.lq[j]);
            pos[li + 1] += b.lop[j];
            pos[li] += b.hip[j];
            neg[li + 1] += b.lon[j];
            neg[li] += b.hin[j];
          }
        }
        bound = base;
        pend += kWidth;
        continue;
      }
    }
    // Slow lane or bound pressure: the whole batch takes the scalar kernel,
    // in stream order, so flush points and status flags keep the scalar
    // path's exact semantics.
    ++punts;
    for (int j = 0; j < kWidth; ++j) {
      st |= kernel::block_add(a, pos, neg, n, k, bound, pend, x[i + j]);
    }
  }
  for (; i < size; ++i) {
    st |= kernel::block_add(a, pos, neg, n, k, bound, pend, x[i]);
  }
  // Telemetry once per span, not per batch: the batch loop must not pay a
  // TLS shard RMW every kWidth summands. (Punted elements were counted by
  // block_add itself; these are the vector-path totals.)
  if (batches != 0) {
    trace::count(trace::Counter::kBlockSimdBatches, batches);
    trace::count(trace::Counter::kBlockSimdDeposits,
                 batches * static_cast<std::uint64_t>(kWidth));
    trace::count(trace::Counter::kBlockDeposits,
                 batches * static_cast<std::uint64_t>(kWidth));
  }
  if (punts != 0) {
    trace::count(trace::Counter::kBlockSimdPunts, punts);
  }
  bound_exp = bound;
  pending = pend;
  return st;
}

}  // namespace hpsum::kernel::simd
