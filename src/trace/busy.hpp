// The one PE-busy clock of every simulated driver.
//
// The scaling figures model time as max busy + merge (backends/scaling.hpp),
// so a processing element's busy time is the number they rest on. It is
// measured here and nowhere else: a BusyScope opens the event's flight
// span, reads the calling thread's CPU clock, and on close writes the
// interval into the caller's slot (seconds, for ScalingPoint/LaunchStats)
// and adds it to the subsystem's *_ns counter. Header-only; include it
// from targets that link hpsum_util.
#pragma once

#include <cstdint>

#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace hpsum::trace {

class BusyScope {
 public:
  /// Times the calling thread from here to scope exit. `slot` receives the
  /// thread-CPU seconds, `busy_ns` the same interval in nanoseconds; the
  /// span carries `id` with args `a0`/`a1`.
  BusyScope(double& slot, Counter busy_ns, flight::EventId id,
            std::uint64_t a0, std::uint64_t a1) noexcept
      : span_(id, a0, a1), slot_(slot), busy_ns_(busy_ns) {}
  ~BusyScope() {
    const std::int64_t ns = cpu_.elapsed_ns();
    slot_ = static_cast<double>(ns) * 1e-9;
    count(busy_ns_, static_cast<std::uint64_t>(ns));
  }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  // Declaration order is the timing order: the span's begin record comes
  // before the CPU clock starts and its end record after the clock is read.
  flight::Span span_;
  util::ThreadCpuTimer cpu_;
  double& slot_;
  Counter busy_ns_;
};

}  // namespace hpsum::trace
