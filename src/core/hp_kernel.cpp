#include "core/hp_kernel.hpp"

#include <cassert>

namespace hpsum {

HpStatus hp_add(util::LimbSpan a, util::ConstLimbSpan b) noexcept {
  assert(a.size() == b.size());
  return detail::add_impl(a.data(), b.data(), static_cast<int>(a.size()));
}

HpStatus hp_scatter_add(util::LimbSpan limbs, const HpConfig& cfg,
                        double r) noexcept {
  assert(limbs.size() == static_cast<std::size_t>(cfg.n));
  return kernel::scatter_add(limbs.data(), cfg.n, cfg.k, r);
}

}  // namespace hpsum
