// telemetry — the one front door for the telemetry flags.
//
// Every bench harness (through bench::parse_args / bench::finish) and
// exact_sum_cli accept the same five flags and handle them here:
//
//   --metrics[=FILE]        at exit, the trace snapshot as JSON (stdout
//                           when bare; schema in docs/OBSERVABILITY.md)
//   --flight[=FILE]         arms the flight recorder; at exit, the timeline
//                           as Chrome trace-event JSON (stdout when bare)
//   --pulse[=FILE]          arms the pulse sampler: a JSONL delta stream to
//                           FILE (default pulse.jsonl)
//   --pulse-interval-ms=N   the sampler's tick interval, N > 0 (default 250)
//   --pulse-prom=FILE       also rewrites Prometheus exposition every tick
//
// A program builds its util::Args with with_telemetry_flags(), constructs
// a Telemetry from them (which checks the values), calls arm() before the
// measured work and finish() after it, and prints what they report.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/pulse.hpp"
#include "util/cli.hpp"

namespace hpsum::audit {

/// The telemetry flag names, as util::Args knows them.
inline constexpr std::array<const char*, 5> kTelemetryFlags = {
    "metrics", "flight", "pulse", "pulse-interval-ms", "pulse-prom"};

/// The telemetry flags as a usage-line fragment.
inline constexpr const char* kTelemetryUsage =
    "[--metrics[=FILE]] [--flight[=FILE]] [--pulse[=FILE]] "
    "[--pulse-interval-ms=N] [--pulse-prom=FILE]";

/// `known` followed by kTelemetryFlags: the known-flags list a program
/// that takes the telemetry flags builds its util::Args with.
[[nodiscard]] std::vector<std::string> with_telemetry_flags(
    std::vector<std::string> known);

/// The telemetry flags of one run. Owns the pulse sampler it starts: the
/// destructor stops it, so a program that returns early with --pulse
/// armed does not leave the sampler thread unjoined.
class Telemetry {
 public:
  /// Reads the flags from `args`. Throws std::invalid_argument, naming the
  /// flag, when --pulse-interval-ms does not parse or is not positive.
  explicit Telemetry(const util::Args& args);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Arms the flight recorder (--flight) and starts the pulse sampler
  /// (--pulse). Call before the measured work: worker threads label their
  /// timeline rows only while the recorder is armed. Returns "" on
  /// success, else "<who>: could not start --pulse sampler on FILE\n" for
  /// the caller to print: the sampler failed to start in a trace-enabled
  /// build. (In an HPSUM_TRACE=OFF build the stream is the disabled header
  /// alone, which is not a failure.)
  [[nodiscard]] std::string arm(std::string_view who) const;

  /// Stops the pulse sampler (its final tick exports the end state), then
  /// writes --metrics and --flight. Returns "" on success, else one
  /// "<who>: could not write --FLAG file FILE\n" line per failed write.
  [[nodiscard]] std::string finish(std::string_view who) const;

 private:
  std::optional<std::string> metrics_;  ///< "" = stdout
  std::optional<std::string> flight_;   ///< "" = stdout
  std::optional<trace::pulse::Config> pulse_;
};

}  // namespace hpsum::audit
