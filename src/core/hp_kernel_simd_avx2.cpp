// hp_kernel_simd_avx2.cpp — the vectorized block deposit: an AVX2 lane
// decomposer plus the batch loop that decides WHETHER a batch may be
// vector-deposited (the fast-lane gate, the bound update, the register
// run sums and the plane scatter). The lanes are 4 x u64, two steps per
// kWidth batch, with the
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

/// The straddle word's ceiling: (m53 >> 1) >> (63 - off) < 2^52.
inline constexpr std::uint64_t kStraddleMax = (std::uint64_t{1} << 52) - 1;

// A run adds two words per 64-bit lane per batch (one from each half), so
// kRunMaxBatches batches of straddle words must fit a lane without wrapping.
// The lo words are split at bit 32 first; their halves sit 20 bits lower.
static_assert(kStraddleMax <= ~std::uint64_t{0} / (2 * kRunMaxBatches),
              "a run's straddle-word lane sums must stay below 2^64");

/// One decomposed batch of kWidth lanes, held in registers as two halves
/// of 4 x u64. Slow lanes hold garbage words; `all_fast` says whether the
/// rest may be trusted, except `pmax`, which is exact whenever all_fast is
/// true and otherwise merely small (|pmax| <= 2123), so arithmetic on it
/// never overflows.
struct Batch {
  __m256i lq[2];   ///< p >> 6: the lsb's limb offset from the bottom
  __m256i lo[2];   ///< limb-li word (plane slot li+1)
  __m256i hi[2];   ///< straddle word for limb li-1 (plane slot li)
  __m256i neg[2];  ///< all-ones in negative lanes
  int pmax = 0;    ///< max over lanes of the lsb position p
  bool all_fast = false;  ///< every lane normal, in-window, untruncated
};

/// Decomposes kWidth doubles: biased exponent extract, in-window test,
/// mantissa split into the lo/hi limb words. Slow lanes produce garbage
/// words (never consumed: the batch loop punts the whole batch); `pmax`
/// alone is exact for ALL lanes because p = be + pbias stays within
/// [-1075, 1036+64k] as a signed value.
///
/// The window test uses strict compares on shifted bounds (AVX2 has no
/// 64-bit >=): be >= be_lo becomes be > be_lo-1, be <= be_hi becomes
/// be_hi+1 > be — all values are small positive integers, so the +-1 never
/// wraps. For pmax, the biased exponent fits 32 bits, so an epu32 max over
/// the 64-bit lanes — whose high halves are zero — is exact.
[[gnu::target("avx2"), gnu::always_inline]] inline void decompose(
    const double* x, const Window& w, Batch& b) noexcept {
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
  for (int h = 0; h < 2; ++h) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + 4 * h));
    const __m256i be = _mm256_and_si256(_mm256_srli_epi64(bits, 52), emask);
    okacc = _mm256_and_si256(
        okacc, _mm256_and_si256(_mm256_cmpgt_epi64(be, belo),
                                _mm256_cmpgt_epi64(behi, be)));
    bemax = _mm256_max_epu32(bemax, be);
    const __m256i m53 = _mm256_or_si256(_mm256_and_si256(bits, mask52), bit52);
    const __m256i p = _mm256_add_epi64(be, pbias);
    const __m256i off = _mm256_and_si256(p, c63);
    b.lo[h] = _mm256_sllv_epi64(m53, off);
    b.hi[h] = _mm256_srlv_epi64(_mm256_srli_epi64(m53, 1),
                                _mm256_sub_epi64(c63, off));
    b.lq[h] = _mm256_srli_epi64(p, 6);
    b.neg[h] = _mm256_cmpgt_epi64(zero, bits);
  }
  b.all_fast = _mm256_movemask_epi8(okacc) == -1;
  // Horizontal epu32 max (high 32-bit halves are zero, so they never win),
  // then back to the signed lsb position.
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(bemax),
                            _mm256_extracti128_si256(bemax, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
  b.pmax = _mm_cvtsi128_si32(m) + w.pbias;
}

/// The exact sum of the four u64 lanes of `v`: a drained run lane may sit
/// just below 2^64, so the sum is taken in U128.
[[nodiscard, gnu::target("avx2")]] inline U128 lane_sum(__m256i v) noexcept {
  alignas(32) std::uint64_t l[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(l), v);
  return static_cast<U128>(l[0]) + l[1] + l[2] + l[3];
}

/// A run: consecutive uniform batches whose lanes all target the limb pair
/// (li+1, li), summed lane-wise in registers instead of into the planes.
/// Index 0 holds the positive lanes' words, 1 the negative lanes'. The
/// planes plus the run's lanes always hold exactly what the scalar loop's
/// planes would; drain() moves the lanes into the planes.
struct Run {
  __m256i lo32[2];  ///< low 32 bits of the lo words (slot li+1)
  __m256i hi32[2];  ///< high 32 bits of the lo words (slot li+1, << 32)
  __m256i st[2];    ///< straddle words (slot li)
  int li = 0;       ///< plane slots li+1 and li; any value while empty
  int batches = 0;  ///< batches summed since the last drain
};

/// Adds a run's lane sums to plane slots li+1 and li and zeroes the run
/// (its li is kept: the next batch on the same limb pair continues it).
/// Out of line and cold: a drain is rare next to the batches it ends, and
/// inlining it at its four call sites quadrupled the loop's code and ran
/// slower on in-cache spans.
[[gnu::target("avx2"), gnu::noinline, gnu::cold]] void drain(
    Run& r, U128* pos, U128* neg) noexcept {
  if (r.batches == 0) return;
  U128* const plane[2] = {pos, neg};
  for (int s = 0; s < 2; ++s) {
    plane[s][r.li + 1] += lane_sum(r.lo32[s]) + (lane_sum(r.hi32[s]) << 32);
    plane[s][r.li] += lane_sum(r.st[s]);
    r.lo32[s] = r.hi32[s] = r.st[s] = _mm256_setzero_si256();
  }
  r.batches = 0;
}

/// Sign-splits a uniform batch's words and adds them to the run's lanes.
[[gnu::target("avx2"), gnu::always_inline]] inline void add_to_run(
    Run& r, const Batch& b) noexcept {
  const __m256i m32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  for (int h = 0; h < 2; ++h) {
    const __m256i l32 = _mm256_and_si256(b.lo[h], m32);
    const __m256i h32 = _mm256_srli_epi64(b.lo[h], 32);
    r.lo32[0] = _mm256_add_epi64(r.lo32[0], _mm256_andnot_si256(b.neg[h], l32));
    r.lo32[1] = _mm256_add_epi64(r.lo32[1], _mm256_and_si256(b.neg[h], l32));
    r.hi32[0] = _mm256_add_epi64(r.hi32[0], _mm256_andnot_si256(b.neg[h], h32));
    r.hi32[1] = _mm256_add_epi64(r.hi32[1], _mm256_and_si256(b.neg[h], h32));
    r.st[0] = _mm256_add_epi64(r.st[0], _mm256_andnot_si256(b.neg[h], b.hi[h]));
    r.st[1] = _mm256_add_epi64(r.st[1], _mm256_and_si256(b.neg[h], b.hi[h]));
  }
  ++r.batches;
}

/// Deposits a batch whose lanes straddle a limb boundary lane by lane. The
/// words are sign-split first, so this is branch-free on the sign: one side
/// of each pair is zero, and adding zero to a plane slot is a no-op.
[[gnu::target("avx2"), gnu::always_inline]] inline void deposit_lanes(
    const Batch& b, U128* pos, U128* neg, int n) noexcept {
  alignas(32) std::uint64_t lq[kWidth];
  alignas(32) std::uint64_t lop[kWidth];
  alignas(32) std::uint64_t lon[kWidth];
  alignas(32) std::uint64_t hip[kWidth];
  alignas(32) std::uint64_t hin[kWidth];
  for (int h = 0; h < 2; ++h) {
    const auto at = [h](std::uint64_t* lane) {
      return reinterpret_cast<__m256i*>(lane + 4 * h);
    };
    _mm256_store_si256(at(lq), b.lq[h]);
    _mm256_store_si256(at(lop), _mm256_andnot_si256(b.neg[h], b.lo[h]));
    _mm256_store_si256(at(lon), _mm256_and_si256(b.neg[h], b.lo[h]));
    _mm256_store_si256(at(hip), _mm256_andnot_si256(b.neg[h], b.hi[h]));
    _mm256_store_si256(at(hin), _mm256_and_si256(b.neg[h], b.hi[h]));
  }
  for (int j = 0; j < kWidth; ++j) {
    const int li = n - 1 - static_cast<int>(lq[j]);
    pos[li + 1] += lop[j];
    pos[li] += hip[j];
    neg[li + 1] += lon[j];
    neg[li] += hin[j];
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
///      commute in the planes. A uniform batch (all lanes on one limb
///      pair) adds its words to the current Run's register lanes; any
///      other batch adds them to the plane slots lane by lane. So the
///      planes plus the run hold, slot for slot, exactly the words the
///      scalar loop's planes would. The planes are read only by
///      block_flush, and the run drains into them before anything can
///      flush (before a punt and at span end), when the run's limb pair
///      changes, and every kRunMaxBatches batches, which keeps each 64-bit
///      lane sum below 2^64 (the static_assert above). Integer addition is
///      exact, so at every flush the plane contents are identical.
///   3. A batch that fails the gate is punted WHOLE, element-wise, in
///      stream order through kernel::block_add, whose flush + scatter
///      fallback is bit-identical by construction. Since bound and pending
///      equal the scalar loop's at every batch boundary, and the run has
///      drained, so the planes do too, the fallback fires at the same
///      stream position as in the scalar path and flushes the same planes.
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
  Run run;
  for (int s = 0; s < 2; ++s) {
    run.lo32[s] = run.hi32[s] = run.st[s] = _mm256_setzero_si256();
  }
  std::size_t i = 0;
  for (const std::size_t nfull = size - size % kWidth; i < nfull;
       i += kWidth) {
    Batch b;
    decompose(x + i, w, b);
    if (b.all_fast) [[likely]] {
      const int base = bound > b.pmax + 53 ? bound : b.pmax + 53;
      if (kernel::block_may_defer(n, base, pend + kWidth)) [[likely]] {
        ++batches;
        bound = base;
        pend += kWidth;
        const __m256i lq0 = _mm256_permute4x64_epi64(b.lq[0], 0x00);
        const __m256i eq =
            _mm256_and_si256(_mm256_cmpeq_epi64(b.lq[0], lq0),
                             _mm256_cmpeq_epi64(b.lq[1], lq0));
        if (_mm256_movemask_epi8(eq) != -1) {
          // Lanes straddle a limb boundary: into the planes lane by lane;
          // the run stays open.
          deposit_lanes(b, pos, neg, n);
          continue;
        }
        // Uniform: continue the run, or end it and start one on this pair.
        const int li = n - 1 - static_cast<int>(_mm_cvtsi128_si64(
                                    _mm256_castsi256_si128(lq0)));
        if (li != run.li) [[unlikely]] {
          drain(run, pos, neg);
          run.li = li;
        }
        if (run.batches == kRunMaxBatches) [[unlikely]] {
          drain(run, pos, neg);
        }
        add_to_run(run, b);
        continue;
      }
    }
    // Slow lane or bound pressure: the whole batch takes the scalar kernel,
    // in stream order, so flush points and status flags keep the scalar
    // path's exact semantics. block_add may flush, so the run drains first.
    drain(run, pos, neg);
    ++punts;
    for (int j = 0; j < kWidth; ++j) {
      st |= kernel::block_add(a, pos, neg, n, k, bound, pend, x[i + j]);
    }
  }
  drain(run, pos, neg);
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
