// exact_sum_cli — a unix filter for exact summation.
//
// Reads whitespace-separated decimal floating-point numbers from stdin and
// prints the naive double sum, the exact (HP) sum rounded to double, the
// exact decimal expansion, and an order-sensitivity audit. The HP format
// is sized automatically from the data (hp_plan).
//
//   $ seq 1000000 | awk '{print 1/$1}' | ./build/examples/exact_sum_cli
//
// Input grammar (util::read_doubles): tokens are separated by C-locale
// whitespace (space, \t, \n, \v, \f, \r; CRLF is fine) and each token is
//
//   [+|-] mantissa [(e|E) [+|-] digits]
//   mantissa = digits [. [digits]]  |  . digits
//
// i.e. what `std::cin >> double` accepts: `+1.5`, `-0`, `.5`, `5.`, `1E5`,
// `1.5e+3`. Rejected: `inf`, `nan`, hex (`0x1p3`), `1e`, `+-1`, `1,5` and
// values that overflow a double (`1e400`); values that underflow (`1e-400`)
// read as a signed zero. One deliberate difference from `cin`: a glued
// token such as `1.5-2` or `1.2.3`, which `>>` would split into two values,
// is rejected whole. Input is read in 64 KiB chunks, not all at once.
//
// The telemetry flags are the library's front door (audit/telemetry.hpp),
// shared with every bench harness: --metrics[=FILE] dumps the runtime
// telemetry snapshot (block-path deposits, carry-chain distribution,
// status raises; see docs/OBSERVABILITY.md) as JSON,
// --flight[=FILE] exports the run's timeline as Chrome trace-event JSON,
// --pulse[=FILE] streams JSONL ticks (default pulse.jsonl;
// --pulse-interval-ms=N and --pulse-prom=FILE refine it). A bare flag
// writes to stdout. --health[=FILE] evaluates the run's telemetry through
// the src/audit health rules and prints the indicator report as JSON.
//
// --shards=P additionally re-runs the reduction through the engine's
// sharded sink: P depositor threads stream the data into P engine shards
// in chunks of --snapshot-every values (default 4096) while a monitor
// thread takes live exact snapshots of the running total; the drained
// result must be bit-identical (limbs + status) to the sequential sum.
//
// Exit status: 0 on success, 1 on a token outside the grammar (the
// message names it and its 1-based position), a read error on stdin, an
// unknown flag, a flag value that does not parse (`--shards=2x`), a
// negative --shards or a --snapshot-every or --pulse-interval-ms that is
// not positive (flags are checked before stdin is read), a --pulse stream
// that cannot be opened, a failed --metrics/--flight/--health FILE write,
// or an engine-routed total that is not bit-identical to the sequential
// reference.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "audit/health.hpp"
#include "audit/telemetry.hpp"
#include "backends/scaling.hpp"
#include "core/hp_dyn.hpp"
#include "core/hp_plan.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

/// Writes the requested --metrics/--flight exports (every exit after the
/// telemetry is armed goes through here); 1 if a write failed.
int finish(const hpsum::audit::Telemetry& telemetry) {
  const std::string err = telemetry.finish("exact_sum_cli");
  std::fputs(err.c_str(), stderr);
  return err.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpsum;
  try {
    const util::Args args(argc, argv,
                          audit::with_telemetry_flags(
                              {"health", "shards", "snapshot-every"}));
    // Every flag is read and checked before stdin, so a bad value fails
    // fast with no output.
    const audit::Telemetry telemetry(args);
    const auto shards_arg = args.get_int("shards", 0);
    const auto chunk_arg = args.get_int("snapshot-every", 4096);
    if (shards_arg < 0) {
      throw std::invalid_argument(
          "--shards: expected a non-negative integer, got " +
          std::to_string(shards_arg));
    }
    if (chunk_arg <= 0) {
      throw std::invalid_argument(
          "--snapshot-every: expected a positive integer, got " +
          std::to_string(chunk_arg));
    }

    std::vector<double> xs;
    if (const auto bad = util::read_doubles(stdin, xs)) {
      if (bad->token.empty()) {
        std::fprintf(stderr, "exact_sum_cli: read error on stdin\n");
      } else {
        std::fprintf(stderr,
                     "exact_sum_cli: value %zu is not a finite decimal "
                     "number: \"%s\"\n",
                     bad->index, bad->token.c_str());
      }
      return 1;
    }

    if (const std::string err = telemetry.arm("exact_sum_cli");
        !err.empty()) {
      std::fputs(err.c_str(), stderr);
      return 1;
    }
    if (xs.empty()) {
      std::printf("no input values; sum = 0\n");
      return finish(telemetry);
    }

    const SumPlan plan = plan_for_data(xs);
    const HpConfig cfg = suggest_config(plan);
    const trace::flight::ReductionScope reduction(xs.size());
    const trace::Snapshot before_reduce = trace::snapshot();
    const HpDyn exact = reduce_hp(xs, cfg);
    const trace::Snapshot reduce_delta =
        trace::snapshot().delta_since(before_reduce);

    std::printf("values           : %zu\n", xs.size());
    std::printf("|x| range        : [%.6e, %.6e]\n", plan.min_abs,
                plan.max_abs);
    std::printf("HP format        : N=%d, k=%d (%d value bits)\n", cfg.n,
                cfg.k, precision_bits(cfg));
    std::printf("double sum       : %.17e\n", reduce_double(xs));
    std::printf("exact sum        : %.17e\n", exact.to_double());
    std::printf("exact decimal    : %s\n", exact.to_decimal_string(60).c_str());
    std::printf("status           : %s\n", to_string(exact.status()).c_str());

    const auto shards = static_cast<std::size_t>(shards_arg);
    if (shards > 0) {
      const auto chunk = static_cast<std::size_t>(chunk_arg);
      engine::ShardSet<engine::DynSum> sink(shards, engine::DynSum(cfg));
      std::atomic<bool> done{false};
      std::atomic<std::uint64_t> live_snaps{0};
      std::jthread monitor([&] {
        while (!done.load(std::memory_order_acquire)) {
          (void)sink.snapshot();  // live exact total, writers running
          live_snaps.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
      {
        const auto slices = backends::partition(xs, static_cast<int>(shards));
        std::vector<std::jthread> depositors;
        depositors.reserve(shards);
        for (std::size_t t = 0; t < shards; ++t) {
          depositors.emplace_back([&, t] {
            auto lane = sink.shard(t);
            std::span<const double> rest = slices[t];
            while (!rest.empty()) {
              const std::size_t take = rest.size() < chunk ? rest.size() : chunk;
              lane.deposit(rest.first(take));  // one publish per chunk
              rest = rest.subspan(take);
            }
          });
        }
      }  // depositors join
      done.store(true, std::memory_order_release);
      monitor.join();
      const HpDyn engine_total = sink.drain().hp;
      const bool identical = engine_total == exact &&
                             engine_total.status() == exact.status();
      std::printf("engine shards    : %zu shards, chunk %zu, %llu live "
                  "snapshots, bit-identical to sequential: %s\n",
                  shards, chunk,
                  static_cast<unsigned long long>(live_snaps.load()),
                  identical ? "yes" : "NO");
      if (!identical) return 1;
    }

    const auto report = audit::order_sensitivity(xs, exact, 64, 1);
    std::printf("order sensitivity: stddev %.3e, worst |err| %.3e over %zu "
                "shuffles\n",
                report.stddev, report.worst_abs_error, report.trials);
    if (trace::enabled()) {
      // What the exact reduction above did. Name-based lookup
      // (counter_from_name under the hood): the CLI addresses counters by
      // their stable exported names, like external consumers of the JSON
      // schema do.
      std::printf("audit telemetry  : %llu block-path deposits, "
                  "%llu status raises (inexact)\n",
                  static_cast<unsigned long long>(
                      reduce_delta.value("core.block.deposits").value_or(0)),
                  static_cast<unsigned long long>(
                      reduce_delta.value("core.status_raise.inexact")
                          .value_or(0)));
    }

    const std::string health = args.get_string("health", "");
    if (!health.empty()) {
      const std::string json = audit::health_report_json();
      if (health == "true") {
        std::fputs(json.c_str(), stdout);
      } else {
        std::FILE* f = std::fopen(health.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr,
                       "exact_sum_cli: could not write --health file %s\n",
                       health.c_str());
          (void)finish(telemetry);  // the other exports are still written
          return 1;
        }
        std::fputs(json.c_str(), f);
        std::fclose(f);
      }
    }
    return finish(telemetry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exact_sum_cli: %s\n", e.what());
    return 1;
  }
}
