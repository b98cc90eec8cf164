// Figure 4 reproduction: runtime of the HP method (N=8, k=4; 511 precision
// bits) vs the Hallberg method at near-equivalent precision (Table 2
// parameters, stepped by summand count), summing n wide-range reals in
// [-2^191, 2^191] (smallest ±2^-223), for n = 128 .. 16M.
//
// Paper result: Hallberg slightly wins at small n (few carry-buffer bits
// wasted, no carries); HP overtakes past ~1M summands — information-content
// maximization matches carry minimization. Also prints the §IV.A
// operation-count analysis: measured per-block costs c_p, c_b and the
// eq. (6) speedup lower bound S >= (c_b/c_p) * 32/M.
//
// Flags: --nmax (default 2M; paper 16M), --trials (default 3), --seed.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "hallberg/hallberg.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

double time_hp(const std::vector<double>& xs, int trials) {
  return bench::time_min(trials, [&] {
    HpFixed<8, 4> acc;
    for (const double x : xs) acc += x;
    bench::sink(acc.to_double());
  });
}

template <int N, int M>
double time_hallberg(const std::vector<double>& xs, int trials) {
  return bench::time_min(trials, [&] {
    HallbergFixed<N, M> acc;
    for (const double x : xs) acc.add(x);
    bench::sink(acc.to_double());
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, {"nmax", "trials", "seed", "csv"});
  // The crossover the paper reports sits past 1M summands, so even the
  // scaled default sweeps to the paper's full 16M.
  const auto nmax = bench::pick(args, "nmax", 16 * 1024 * 1024, 16 * 1024 * 1024);
  const auto trials = static_cast<int>(args.get_int("trials", 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));

  bench::banner("Fig 4: HP vs Hallberg runtime at ~512-bit precision",
                "Fig 4 (§IV.A): wallclock + speedup for n = 128..16M "
                "wide-range reals");

  util::TablePrinter table({"n", "Hallberg(N,M)", "t_HP(8,4) s", "t_Hallberg s",
                            "speedup Hb/HP"});
  double cp_per_block = 0;
  double cb_per_block = 0;
  std::vector<std::int64_t> ns;
  for (std::int64_t n = 128; n <= nmax; n *= 4) ns.push_back(n);
  if (ns.empty() || ns.back() != nmax) ns.push_back(nmax);
  for (const std::int64_t n : ns) {
    const auto xs =
        workload::wide_range_set(static_cast<std::size_t>(n), seed + static_cast<std::uint64_t>(n));
    const double t_hp = time_hp(xs, trials);

    // Table 2 parameter step: pick the M whose carry buffer covers n.
    double t_hb = 0;
    const char* params = nullptr;
    if (n <= 2047) {
      t_hb = time_hallberg<10, 52>(xs, trials);
      params = "(10,52)";
    } else if (n <= (1 << 20) - 1) {
      t_hb = time_hallberg<12, 43>(xs, trials);
      params = "(12,43)";
    } else {
      t_hb = time_hallberg<14, 37>(xs, trials);
      params = "(14,37)";
    }
    table.begin_row();
    table.add_int(n);
    table.add_cell(params);
    table.add_num(t_hp, 4);
    table.add_num(t_hb, 4);
    table.add_num(t_hb / t_hp, 4);
    // Per-64-bit-block unit costs from the largest run (eq. 3).
    cp_per_block = t_hp / (static_cast<double>(n) * 8.0);
    cb_per_block = t_hb / (static_cast<double>(n) *
                           (n <= 2047 ? 10.0 : (n <= (1 << 20) - 1 ? 12.0 : 14.0)));
  }
  bench::emit_table(table, args);

  std::printf("\n--- §IV.A operation-count analysis ---\n");
  std::printf("measured per-block unit costs (largest n): c_p = %.3e s, "
              "c_b = %.3e s, ratio c_b/c_p = %.3f\n",
              cp_per_block, cb_per_block, cb_per_block / cp_per_block);
  for (const int m : {52, 43, 37}) {
    std::printf("eq.(6) lower bound at M=%d: S >= (c_b/c_p) * 32/%d = %.3f\n",
                m, m, (cb_per_block / cp_per_block) * 32.0 / m);
  }
  std::printf(
      "\nexpected shape: speedup < 1 for small n (Hallberg wins), crossing "
      "~1 near 1M and rising as M drops (eq. 6: S grows as M shrinks).\n");
  return bench::finish(args);
}
