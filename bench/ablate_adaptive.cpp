// Ablation A5: cost of runtime adaptivity (the paper's §V future work).
//
// The paper's stated flaw: the user must know the summands' dynamic range a
// priori. HpAdaptive removes that at some cost; Hallberg's add_checked is
// the other no-a-priori-knowledge strategy the paper mentions (runtime
// carry-out detection) and dismisses as expensive. This bench quantifies
// all of them against correctly pre-sized accumulators.
//
// Flags: --n (default 1M), --trials (default 3), --seed.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hp_adaptive.hpp"
#include "core/reduce.hpp"
#include "hallberg/hallberg.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

int main(int argc, char** argv) {
  using namespace hpsum;
  const bench::Args args = bench::parse_args(argc, argv, {"n", "trials", "seed", "csv"});
  const auto n = bench::pick(args, "n", 1024 * 1024, 16 * 1024 * 1024);
  const auto trials = static_cast<int>(args.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 13));

  bench::banner("Ablation A5: runtime adaptivity overhead",
                "§V future work: adaptively adjust precision at runtime vs "
                "a-priori sized formats");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);

  util::TablePrinter table({"accumulator", "ns/add", "vs pre-sized HP",
                            "growths/normalizations"});
  const double presized = bench::time_min(trials, [&] {
    bench::sink(reduce_hp<3, 2>(xs).to_double());
  });
  int growth_events = 0;
  const double adaptive = bench::time_min(trials, [&] {
    HpAdaptive acc(HpConfig{2, 1});
    for (const double x : xs) acc += x;
    growth_events = acc.growth_events();
    bench::sink(acc.to_double());
  });
  const double dyn = bench::time_min(trials, [&] {
    bench::sink(reduce_hp(xs, HpConfig{3, 2}).to_double());
  });
  std::int64_t normalizations = 0;
  const double checked = bench::time_min(trials, [&] {
    Hallberg acc(HallbergParams{10, 58});  // tiny carry buffer: 31 adds
    for (const double x : xs) acc.add_checked(x);
    normalizations = acc.normalizations();
    bench::sink(acc.to_double());
  });

  const auto row = [&](const char* label, double t, std::int64_t events) {
    table.begin_row();
    table.add_cell(label);
    table.add_num(1e9 * t / static_cast<double>(n), 4);
    table.add_num(t / presized, 3);
    table.add_int(events);
  };
  row("HpFixed<3,2> (pre-sized, compile-time)", presized, 0);
  row("HpDyn{3,2} (pre-sized, runtime loops)", dyn, 0);
  row("HpAdaptive (no a-priori knowledge)", adaptive, growth_events);
  row("Hallberg(10,58) add_checked (runtime guard)", checked, normalizations);
  bench::emit_table(table, args);
  std::printf(
      "\nreading: adaptivity costs exponent bookkeeping per add; the "
      "Hallberg runtime-guard alternative pays a full limb scan per add "
      "plus periodic normalizations — the expense the paper cites for "
      "rejecting it.\n");
  return bench::finish(args);
}
