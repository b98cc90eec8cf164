// hp_kernel_simd.cpp — the runtime level check behind
// kernel::block_accumulate's dispatch. The vector path itself lives in
// hp_kernel_simd_avx2.cpp; this TU is built in every configuration so
// active_level() and level_name() stay linkable.

#include "core/hp_kernel_simd.hpp"

namespace hpsum::kernel::simd {
namespace {

[[nodiscard]] Level resolve_level() noexcept {
#if HPSUM_SIMD_DISPATCH
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kOff;
#else
  return Level::kOff;
#endif
}

// Namespace-scope so the hot path reads a plain const, not a guarded magic
// static. Level::kOff is deliberately the zero enumerator: a call that
// races static initialization (another TU's dynamic init accumulating)
// reads 0 and takes the scalar loop — slow, never wrong.
const Level g_level = resolve_level();

}  // namespace

Level active_level() noexcept { return g_level; }

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

}  // namespace hpsum::kernel::simd
