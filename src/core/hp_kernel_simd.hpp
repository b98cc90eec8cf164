// hp_kernel_simd — the vectorized batch-deposit path over the block planes.
//
// kernel::block_accumulate (core/hp_kernel.hpp) is the facade every span
// consumer routes through (HpFixed/HpDyn::accumulate, reduce_hp, the
// backends' whole-slice accumulators, rblas, the mpisim op). At runtime, on
// a CPU with AVX2, it dispatches here: a batch of kWidth doubles is
// decomposed in vector lanes (exponent extract, mantissa split, sign
// select) and deposited into the positive/negative carry-save planes —
// runs of batches on one limb pair are summed in registers and drained
// into the planes once per run — instead of paying the scalar decompose's
// branch tree once per summand.
//
// Configure-time choice (-DHPSUM_SIMD=...):
//
//   AUTO — when the compiler accepts -mavx2, build the AVX2 decomposer
//          (hp_kernel_simd_avx2.cpp) and use it iff the CPU reports AVX2.
//          Every other CPU, and every compiler without -mavx2, runs the
//          scalar block_add loop in kernel::block_accumulate.
//   OFF  — no vector path; active_level() reports kOff.
//
// The vectorized deposit is bit-identical to the scalar loop — limbs and
// sticky status. hp_kernel_simd_avx2.cpp holds the argument, and
// tests/test_block.cpp fuzzes the equivalence through the facade.
#pragma once

#include <span>

#include "core/hp_status.hpp"
#include "util/limbs.hpp"

// Defined PUBLIC (0 or 1) on hpsum_core by src/core/CMakeLists.txt: 1
// exactly when the AVX2 translation unit is built, so every target in the
// build agrees on the shape of the inline kernel::block_accumulate (ODR).
// The out-of-build default is the conservative scalar path.
#ifndef HPSUM_SIMD_DISPATCH
#define HPSUM_SIMD_DISPATCH 0
#endif

namespace hpsum::kernel::simd {

__extension__ using U128 = unsigned __int128;

/// Lanes per batch. Batches are processed whole: a tail shorter than
/// kWidth (and any batch with a slow lane) takes the scalar deposit.
inline constexpr int kWidth = 8;

/// Uniform batches (all lanes on one limb pair) that the AVX2 path sums in
/// registers before it drains them into the planes: the most that keeps
/// every 64-bit lane sum below 2^64 (static_assert in the AVX2 TU).
inline constexpr int kRunMaxBatches = 2048;

/// Which deposit path block_accumulate takes at runtime.
enum class Level { kOff, kAvx2 };

/// The resolved dispatch level: kAvx2 iff the build has the AVX2 path
/// (HPSUM_SIMD_DISPATCH) and the CPU reports AVX2; kOff otherwise.
[[nodiscard]] Level active_level() noexcept;

/// Stable lowercase name for exports/banners: "off", "avx2".
[[nodiscard]] const char* level_name(Level level) noexcept;

#if HPSUM_SIMD_DISPATCH
/// The AVX2 batched deposit behind kernel::block_accumulate. Same contract
/// and same state as kernel::block_add driven per element — bit-identical
/// limbs and sticky status. Executes AVX2 instructions: call it only when
/// active_level() is kAvx2 (the facade checks).
[[nodiscard, gnu::target("avx2")]] HpStatus accumulate(
    util::Limb* a, U128* pos, U128* neg, int n, int k, int& bound_exp,
    int& pending, std::span<const double> xs) noexcept;
#endif

}  // namespace hpsum::kernel::simd
