// Shared helpers for the figure/table bench harnesses.
//
// Scaling policy (DESIGN.md §2): every bench runs a laptop-friendly
// problem size by default and the paper's full size under HPSUM_FULL=1
// (or explicit --n/--trials flags). Each harness prints which scale it ran
// so EXPERIMENTS.md can record the provenance of every number.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/flight.hpp"
#include "trace/pulse.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hpsum::bench {

/// The --metrics flag every bench harness accepts (add kMetricsFlag to the
/// harness's known-flags list). Bare `--metrics` dumps the telemetry
/// snapshot as JSON to stdout after the run; `--metrics=FILE` writes it to
/// FILE. No flag, no output — and in HPSUM_TRACE=OFF builds the export
/// still works but every counter reads 0.
inline constexpr const char* kMetricsFlag = "metrics";

/// The --flight flag every bench harness accepts (add kFlightFlag to the
/// harness's known-flags list). Presence arms the hpsum_flight event
/// recorder for the run (see arm_flight); after the run the recorded
/// timeline is exported: bare `--flight` prints Chrome trace-event JSON to
/// stdout, `--flight=FILE` writes it to FILE, and a FILE ending in ".bin"
/// selects the compact binary dump (decode: tools/flight2chrome.py).
inline constexpr const char* kFlightFlag = "flight";

/// The --pulse flag every bench harness accepts (add kPulseFlag,
/// kPulseIntervalFlag, and kPulsePromFlag to the harness's known-flags
/// list). Presence arms the hpsum_pulse background sampler for the run:
/// bare `--pulse` streams JSONL ticks to "pulse.jsonl",
/// `--pulse=FILE` picks the stream path. `--pulse-interval-ms=N` sets the
/// tick interval (default 250) and `--pulse-prom=FILE` additionally
/// rewrites Prometheus text exposition every tick. The HPSUM_PULSE
/// environment variable arms the sampler even without the flag.
inline constexpr const char* kPulseFlag = "pulse";
inline constexpr const char* kPulseIntervalFlag = "pulse-interval-ms";
inline constexpr const char* kPulsePromFlag = "pulse-prom";

/// Parses a harness's argv against its known-flags list without ever
/// reaching std::terminate: `--help` prints the usage line to stdout and
/// exits 0; an unknown or malformed flag prints the error and the usage
/// line to stderr and exits 2. Every bench main() starts with
/// `const util::Args args = bench::parse_args(argc, argv, {...});`.
[[nodiscard]] inline util::Args parse_args(
    int argc, char** argv, const std::vector<std::string>& known) {
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out, "usage: %s", argc > 0 ? argv[0] : "bench");
    for (const auto& flag : known) std::fprintf(out, " [--%s]", flag.c_str());
    std::fprintf(out, " [--help]\n");
  };
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      usage(stdout);
      std::exit(0);
    }
  }
  try {
    return util::Args(argc, argv, known);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(stderr);
    std::exit(2);
  }
}

/// Arms the flight recorder when --flight was given. Call right after
/// argument parsing, BEFORE the measured work, so worker threads spawned
/// later get their track labels recorded (set_track is a no-op while
/// disarmed). HPSUM_FLIGHT=1 in the environment arms it even earlier.
inline void arm_flight(const util::Args& args) {
  if (!args.get_string(kFlightFlag, "").empty()) trace::flight::arm();
}

/// Arms the pulse sampler when --pulse (or HPSUM_PULSE) was given. Call
/// right after argument parsing, BEFORE the measured work, so the stream
/// covers the whole run. Returns false only when arming was requested via
/// the flag but failed (unwritable stream path) in a trace-enabled build;
/// harnesses treat that as a fatal usage error.
[[nodiscard]] inline bool arm_pulse(const util::Args& args) {
  const std::string value = args.get_string(kPulseFlag, "");
  if (value.empty()) return trace::pulse::arm_from_env(), true;
  trace::pulse::Config cfg;
  if (value != "true") cfg.jsonl_path = value;
  const auto ms = args.get_int(kPulseIntervalFlag, 250);
  cfg.interval = std::chrono::milliseconds(ms > 0 ? ms : 250);
  cfg.prom_path = args.get_string(kPulsePromFlag, "");
  const bool ok = trace::pulse::arm(cfg);
  if (!ok && trace::enabled()) {
    std::fprintf(stderr, "error: could not start --pulse sampler on %s\n",
                 cfg.jsonl_path.c_str());
    return false;
  }
  return true;
}

/// Emits the trace snapshot if --metrics was given. Call once, after the
/// harness's last measured work. Returns false when a --metrics=FILE write
/// failed (the harness must exit nonzero so CI cannot silently lose
/// metrics; see finish()).
[[nodiscard]] inline bool emit_metrics(const util::Args& args) {
  const std::string value = args.get_string(kMetricsFlag, "");
  if (value.empty()) return true;
  // util::Args stores "true" for a bare flag; treat that as stdout.
  const std::string path = value == "true" ? "" : value;
  if (!trace::write_json(path)) {
    std::fprintf(stderr, "error: could not write --metrics file %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

/// Exports the flight recording if --flight was given. Returns false when
/// a FILE export failed (propagated to the exit status by finish()).
[[nodiscard]] inline bool emit_flight(const util::Args& args) {
  const std::string value = args.get_string(kFlightFlag, "");
  if (value.empty()) return true;
  const std::string path = value == "true" ? "" : value;
  const bool binary =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
  const bool ok = binary ? trace::flight::dump_binary(path)
                         : trace::flight::dump_chrome_json(path);
  if (!ok) {
    std::fprintf(stderr, "error: could not write --flight file %s\n",
                 path.c_str());
  }
  return ok;
}

/// Standard harness epilogue: stops the pulse sampler (final tick flushes
/// the end-of-run state), exports --metrics and --flight, and converts any
/// export failure into a nonzero exit status. Every bench main() ends with
/// `return bench::finish(args);`.
[[nodiscard]] inline int finish(const util::Args& args) {
  trace::pulse::disarm();
  const bool metrics_ok = emit_metrics(args);
  const bool flight_ok = emit_flight(args);
  return metrics_ok && flight_ok ? 0 : 1;
}

/// Problem-size selection: explicit flag > HPSUM_FULL > scaled default.
inline std::int64_t pick(const util::Args& args, const std::string& flag,
                         std::int64_t scaled, std::int64_t full) {
  const std::int64_t base = util::Args::full_scale() ? full : scaled;
  return args.get_int(flag, base);
}

/// Prints the standard bench banner.
inline void banner(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %s (HPSUM_FULL=1 for paper scale)\n\n",
              util::Args::full_scale() ? "FULL (paper)" : "scaled-down");
}

/// Prevents the optimizer from discarding a benchmarked result.
inline void sink(double v) { asm volatile("" : : "g"(v) : "memory"); }

/// Prints the table to stdout and, when --csv=PATH was given, appends its
/// CSV rendering to PATH (for plotting scripts).
inline void emit_table(const util::TablePrinter& table,
                       const util::Args& args) {
  table.print(std::cout);
  const std::string path = args.get_string("csv", "");
  if (!path.empty()) {
    std::ofstream file(path, std::ios::app);
    table.print_csv(file);
  }
}

/// Minimum wallclock over `trials` runs of `fn` (classic min-of-k to shed
/// scheduler noise on a busy host).
inline double time_min(int trials, const std::function<void()>& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    util::WallTimer timer;
    fn();
    const double s = timer.seconds();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace hpsum::bench
