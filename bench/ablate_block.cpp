// Ablation A2c: the carry-deferred block accumulation path.
//
// reduce_hp and every backend inner loop hand whole slices to
// BlockAccumulator (core/hp_kernel.hpp): deposits land in per-limb
// carry-save planes (one unsigned __int128 per limb per sign) and carries
// normalize once per flush instead of once per summand. The contract is
// bit-identity — limbs AND sticky status — with the element-at-a-time
// operator+=(double) loop; this bench first verifies that on every stream
// it times (exit 1 on any mismatch), then measures ns/summand for both
// paths.
//
// Flags: --n (default 4M summands), --seed, --json=PATH (write the
// BENCH_block.json schema consumed by tools/bench_smoke.py; see
// EXPERIMENTS.md), --help. The closing reading is computed from the
// measured rows; trace builds add flushes per 1M deposits and SIMD
// coverage per stream.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_kernel_simd.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

/// ns total for the block path (BlockAccumulator::accumulate over the whole
/// stream) or the scalar path (operator+= per element).
template <int N, int K>
double time_sum(const std::vector<double>& xs, bool block) {
  return bench::time_min(3, [&] {
    if (block) {
      BlockAccumulator<N, K> blk;
      blk.accumulate(std::span<const double>(xs.data(), xs.size()));
      bench::sink(HpFixed<N, K>(blk).to_double());
    } else {
      HpFixed<N, K> acc;
      for (const double x : xs) acc += x;
      bench::sink(acc.to_double());
    }
  });
}

/// What one untimed block pass over a stream did, from the trace counters
/// (all zero in HPSUM_TRACE=OFF builds).
struct BlockCounts {
  std::uint64_t deposits = 0;
  std::uint64_t flushes = 0;
  std::uint64_t simd_deposits = 0;
};

/// The ablation's precondition: the two paths agree bit for bit, limbs and
/// status, on this stream. Timing a divergent fast path would be garbage.
/// The block pass's flush and SIMD counts land in `counts`.
template <int N, int K>
bool paths_identical(const std::vector<double>& xs, BlockCounts& counts) {
  HpFixed<N, K> scalar;
  for (const double x : xs) scalar += x;
  const trace::Snapshot before = trace::snapshot();
  BlockAccumulator<N, K> blk;
  blk.accumulate(std::span<const double>(xs.data(), xs.size()));
  HpFixed<N, K> fast(blk);
  const trace::Snapshot d = trace::snapshot().delta_since(before);
  counts.deposits = d.value(trace::Counter::kBlockDeposits);
  counts.flushes = d.value(trace::Counter::kBlockNormalizes);
  counts.simd_deposits = d.value(trace::Counter::kBlockSimdDeposits);
  return fast.limbs() == scalar.limbs() && fast.status() == scalar.status();
}

struct BlockRow {
  const char* stream;
  double block_ns;
  double scalar_ns;
  BlockCounts counts;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"n", "seed", "csv", "json"});
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  bench::banner("Ablation A2c: carry-deferred block path vs scalar deposits",
                "per-limb carry-save planes normalize once per block "
                "instead of propagating a carry chain per summand");

  auto mixed = workload::uniform_set(static_cast<std::size_t>(n), seed);
  std::vector<double> positive = mixed;
  std::vector<double> negative = mixed;
  for (std::size_t i = 0; i < positive.size(); ++i) {
    positive[i] = std::abs(positive[i]);
    negative[i] = -std::abs(negative[i]);
  }

  util::TablePrinter table({"format", "stream", "block ns/add",
                            "scalar ns/add", "speedup"});
  std::vector<BlockRow> rows;
  bool all_identical = true;
  const auto row = [&](const char* label, const std::vector<double>& xs) {
    BlockCounts counts;
    if (!paths_identical<6, 3>(xs, counts)) {
      std::fprintf(stderr,
                   "ablate_block: block path diverges from scalar on the "
                   "%s stream — refusing to time a wrong kernel\n",
                   label);
      all_identical = false;
      return;
    }
    const double tb =
        1e9 * time_sum<6, 3>(xs, true) / static_cast<double>(xs.size());
    const double ts =
        1e9 * time_sum<6, 3>(xs, false) / static_cast<double>(xs.size());
    rows.push_back({label, tb, ts, counts});
    table.begin_row();
    table.add_cell("HP(6,3)");
    table.add_cell(label);
    table.add_num(tb, 4);
    table.add_num(ts, 4);
    table.add_num(ts / tb, 3);
  };
  row("all-positive", positive);
  row("all-negative", negative);
  row("mixed", mixed);
  if (!all_identical) return 1;
  bench::emit_table(table, args);
  // The reading is computed from the rows above: a stream where the block
  // path is slower than the scalar loop is reported as a loss.
  const char* level = kernel::simd::level_name(kernel::simd::active_level());
  int wins = 0;
  std::printf("\nreading (HP(6,3), simd level \"%s\"):\n", level);
  for (const auto& r : rows) {
    const double ratio = r.block_ns / r.scalar_ns;
    const bool win = ratio < 1.0;
    wins += win ? 1 : 0;
    std::printf("  %-12s block/scalar %.3f: the block path %s (%.2fx)\n",
                r.stream, ratio, win ? "wins" : "loses",
                win ? 1.0 / ratio : ratio);
  }
  std::printf("  the block path wins on %d of %zu streams\n", wins,
              rows.size());
  if constexpr (trace::enabled()) {
    for (const auto& r : rows) {
      const double deposits = static_cast<double>(r.counts.deposits);
      std::printf(
          "  %-12s %.2f flushes per 1M deposits, SIMD coverage %.3f\n",
          r.stream,
          deposits > 0 ? 1e6 * static_cast<double>(r.counts.flushes) /
                             deposits
                       : 0.0,
          deposits > 0 ? static_cast<double>(r.counts.simd_deposits) /
                             deposits
                       : 0.0);
    }
  }

  // --json=PATH: the BENCH_block.json schema (EXPERIMENTS.md) consumed by
  // tools/bench_smoke.py and the bench-smoke CI job.
  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"ablate_block\",\n"
                 "  \"format\": {\"n\": 6, \"k\": 3},\n"
                 "  \"simd\": \"%s\",\n"
                 "  \"stream_size\": %lld,\n"
                 "  \"streams\": [\n",
                 level, static_cast<long long>(n));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"stream\": \"%s\", \"block_ns_per_add\": %.4f, "
                   "\"scalar_ns_per_add\": %.4f, \"speedup\": %.4f}%s\n",
                   rows[i].stream, rows[i].block_ns, rows[i].scalar_ns,
                   rows[i].scalar_ns / rows[i].block_ns,
                   i + 1 < rows.size() ? "," : "");
    }
    double min_speedup = 1e300;
    double gate_speedup = 0.0;
    double samesign_min = 1e300;
    for (const auto& r : rows) {
      const double s = r.scalar_ns / r.block_ns;
      min_speedup = std::min(min_speedup, s);
      if (std::string(r.stream) == "mixed") {
        gate_speedup = s;
      } else {
        samesign_min = std::min(samesign_min, s);
      }
    }
    // gate_speedup (the mixed stream) carries the primary acceptance floor
    // in tools/bench_smoke.py (2.5x on SIMD builds, 1.5x scalar-only);
    // samesign_min_speedup is the worse of the all-positive/all-negative
    // streams and carries the SIMD builds' 1.3x same-sign floor.
    std::fprintf(f,
                 "  ],\n"
                 "  \"gate_stream\": \"mixed\",\n"
                 "  \"gate_speedup\": %.4f,\n"
                 "  \"samesign_min_speedup\": %.4f,\n"
                 "  \"min_speedup\": %.4f\n"
                 "}\n",
                 gate_speedup, samesign_min, min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return bench::finish(args);
}
