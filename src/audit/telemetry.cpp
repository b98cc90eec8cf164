#include "audit/telemetry.hpp"

#include <chrono>
#include <stdexcept>

#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace hpsum::audit {

namespace {

/// A FILE-or-stdout flag: nullopt when absent, "" for stdout (util::Args
/// stores "true" for a bare flag), else the path.
std::optional<std::string> output_flag(const util::Args& args,
                                       std::string_view name) {
  const std::string value = args.get_string(name, "");
  if (value.empty()) return std::nullopt;
  return value == "true" ? std::string() : value;
}

/// The report line for a failed write; "" when `ok`.
std::string write_error(bool ok, std::string_view who, std::string_view flag,
                        const std::string& path) {
  if (ok) return {};
  return std::string(who) + ": could not write --" + std::string(flag) +
         " file " + path + "\n";
}

}  // namespace

std::vector<std::string> with_telemetry_flags(std::vector<std::string> known) {
  known.insert(known.end(), kTelemetryFlags.begin(), kTelemetryFlags.end());
  return known;
}

Telemetry::Telemetry(const util::Args& args)
    : metrics_(output_flag(args, "metrics")),
      flight_(output_flag(args, "flight")) {
  const auto interval_ms = args.get_int("pulse-interval-ms", 250);
  if (interval_ms <= 0) {
    throw std::invalid_argument(
        "--pulse-interval-ms: expected a positive integer, got " +
        std::to_string(interval_ms));
  }
  const std::string pulse = args.get_string("pulse", "");
  if (pulse.empty()) return;
  pulse_.emplace();
  if (pulse != "true") pulse_->jsonl_path = pulse;
  pulse_->interval = std::chrono::milliseconds(interval_ms);
  pulse_->prom_path = args.get_string("pulse-prom", "");
}

Telemetry::~Telemetry() {
  if (pulse_) trace::pulse::disarm();
}

std::string Telemetry::arm(std::string_view who) const {
  if (flight_) trace::flight::arm();
  if (pulse_ && !trace::pulse::arm(*pulse_) && trace::enabled()) {
    return std::string(who) + ": could not start --pulse sampler on " +
           pulse_->jsonl_path + "\n";
  }
  return {};
}

std::string Telemetry::finish(std::string_view who) const {
  trace::pulse::disarm();
  std::string errors;
  if (metrics_) {
    errors += write_error(trace::write_json(*metrics_), who, "metrics",
                          *metrics_);
  }
  if (flight_) {
    errors += write_error(trace::flight::dump_chrome_json(*flight_), who,
                          "flight", *flight_);
  }
  return errors;
}

}  // namespace hpsum::audit
