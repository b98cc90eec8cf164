// hplint fixture: L5 (raw-telemetry) — a hand-read steady_clock timing an
// event in an instrumented plane instead of a trace::flight::Span.
#include <chrono>
#include <cstdint>

#include "trace/flight.hpp"

std::int64_t bad_latency() {
  const auto t0 = std::chrono::steady_clock::now();  // line 9
  const auto dt = std::chrono::steady_clock::now() - t0;  // line 10
  return std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
}

void ok_span() {
  const hpsum::trace::flight::Span span(
      hpsum::trace::flight::EventId::kEngineSnapshot, 0, 0,
      hpsum::trace::Hist::kEngineSnapshotLatencyNs);
}
