// Shared helpers for the figure/table bench harnesses.
//
// Scaling policy (DESIGN.md §2): every bench runs a laptop-friendly
// problem size by default and the paper's full size under HPSUM_FULL=1
// (or explicit --n/--trials flags). Each harness prints which scale it ran
// so EXPERIMENTS.md can record the provenance of every number.
//
// Flags: parse_args() gives every harness its own flags, --help, and the
// five telemetry flags of audit/telemetry.hpp (--metrics, --flight,
// --pulse, --pulse-interval-ms, --pulse-prom), armed before the run;
// finish() writes their exports. A harness names no telemetry flag itself.
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
#include <utility>
#include <vector>

#include "audit/telemetry.hpp"
#include "trace/pulse.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hpsum::bench {

/// Prints a flag error and the usage line to stderr and exits 2.
[[noreturn]] inline void usage_error(const std::string& usage,
                                     const char* what) {
  std::fprintf(stderr, "error: %s\n%s", what, usage.c_str());
  std::exit(2);
}

/// A harness's parsed flags, telemetry included. Reads never reach
/// std::terminate: a value that does not parse (`--n=abc`) prints the
/// error and the usage line to stderr and exits 2, like an unknown flag.
class Args {
 public:
  /// Arms the telemetry the flags ask for; a pulse sampler that cannot
  /// start exits 1. Throws std::invalid_argument on a bad telemetry flag
  /// value.
  Args(util::Args args, std::string usage)
      : args_(std::move(args)), telemetry_(args_), usage_(std::move(usage)) {
    if (const std::string err = telemetry_.arm("error"); !err.empty()) {
      std::fputs(err.c_str(), stderr);
      std::exit(1);
    }
  }

  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const {
    return checked([&] { return args_.get_int(name, fallback); });
  }
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const {
    return checked([&] { return args_.get_double(name, fallback); });
  }
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const {
    return args_.get_string(name, std::move(fallback));
  }
  [[nodiscard]] const audit::Telemetry& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  template <class Read>
  auto checked(Read read) const -> decltype(read()) {
    try {
      return read();
    } catch (const std::invalid_argument& e) {
      trace::pulse::disarm();  // std::exit skips ~Telemetry
      usage_error(usage_, e.what());
    }
  }

  util::Args args_;
  audit::Telemetry telemetry_;
  std::string usage_;
};

/// Parses a harness's argv against its own flags plus the telemetry flags
/// (audit/telemetry.hpp) and arms the telemetry the flags ask for, so the
/// whole run is recorded. `--help` prints the usage line to stdout and
/// exits 0; an unknown flag or a bad value prints the error and the usage
/// line to stderr and exits 2; a pulse sampler that cannot start exits 1.
/// Every bench main() starts with
/// `const bench::Args args = bench::parse_args(argc, argv, {...});`.
[[nodiscard]] inline Args parse_args(int argc, char** argv,
                                     const std::vector<std::string>& known) {
  std::string usage = "usage: ";
  usage += argc > 0 ? argv[0] : "bench";
  for (const auto& flag : known) usage += " [--" + flag + "]";
  usage += " [--help]\n       ";
  usage += audit::kTelemetryUsage;
  usage += '\n';
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      std::fputs(usage.c_str(), stdout);
      std::exit(0);
    }
  }
  try {
    return Args(util::Args(argc, argv, audit::with_telemetry_flags(known)),
                usage);
  } catch (const std::invalid_argument& e) {
    usage_error(usage, e.what());
  }
}

/// Standard harness epilogue: stops the pulse sampler, writes the
/// --metrics and --flight exports, and turns a failed write into exit
/// status 1. Every bench main() ends with `return bench::finish(args);`.
[[nodiscard]] inline int finish(const Args& args) {
  const std::string err = args.telemetry().finish("error");
  std::fputs(err.c_str(), stderr);
  return err.empty() ? 0 : 1;
}

/// Problem-size selection: explicit flag > HPSUM_FULL > scaled default.
inline std::int64_t pick(const Args& args, const std::string& flag,
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
inline void emit_table(const util::TablePrinter& table, const Args& args) {
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
