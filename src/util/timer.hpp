// Wallclock and per-thread CPU timers.
//
// The scaling harness reports *modeled* parallel time on this single-core
// host (DESIGN.md §2): each processing element measures its own busy time
// with ThreadCpuTimer — in src/ only through trace::BusyScope
// (trace/busy.hpp) — and the harness takes the max as the critical path.
#pragma once

#include <cstdint>

namespace hpsum::util {

/// Monotonic wallclock stopwatch (CLOCK_MONOTONIC).
class WallTimer {
 public:
  WallTimer() noexcept { reset(); }

  /// Restarts the stopwatch at zero.
  void reset() noexcept { start_ns_ = now_ns(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

 private:
  static std::int64_t now_ns() noexcept;
  std::int64_t start_ns_ = 0;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// On an oversubscribed host, wallclock across threads is meaningless; the
/// CPU time each thread actually consumed is the honest per-PE cost.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() noexcept { reset(); }

  /// Restarts the stopwatch at zero.
  void reset() noexcept { start_ns_ = now_ns(); }

  /// CPU-nanoseconds this thread has consumed since construction/reset
  /// (never negative: the clock is monotone per thread).
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    return now_ns() - start_ns_;
  }

  /// The same interval in seconds.
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  static std::int64_t now_ns() noexcept;
  std::int64_t start_ns_ = 0;
};

}  // namespace hpsum::util
