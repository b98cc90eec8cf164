#include "util/timer.hpp"

#include <ctime>

namespace hpsum::util {

namespace {

std::int64_t read_ns(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t WallTimer::now_ns() noexcept { return read_ns(CLOCK_MONOTONIC); }

std::int64_t ThreadCpuTimer::now_ns() noexcept {
  return read_ns(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace hpsum::util
