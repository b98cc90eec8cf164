// Cooperative stackful fibers for the mpisim engine (docs/MPISIM.md
// §"Execution engine"). One fiber per simulated rank, one or more fibers
// per worker thread: a rank body that blocks in recv/barrier yields its
// worker instead of parking an OS thread, which is what lets mpisim::run
// scale to thousands of ranks on a handful of threads.
//
// Implementation: POSIX ucontext (makecontext/swapcontext) with the
// sanitizer fiber-switching annotations — TSan's __tsan_switch_to_fiber
// and ASan's __sanitizer_start/finish_switch_fiber — so the full test
// suite keeps running under the ASan/UBSan and TSan CI jobs. A fiber is
// resumed only from its owning worker thread; switching is invisible to
// the code running inside (thread_locals resolve to the worker).
#pragma once

#if !defined(__linux__) || !__has_include(<ucontext.h>)
#error "mpisim needs Linux ucontext fibers (makecontext/swapcontext)"
#endif

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>

namespace hpsum::mpisim::detail {

/// A suspendable execution context with its own stack. Not thread-safe:
/// resume() must always be called from the same (worker) thread, and
/// yield() only from inside the running fiber.
class Fiber {
 public:
  /// Stack bytes per fiber: 4096 ranks cost 1 GiB of (lazily touched)
  /// stacks. A heap block, so under ASan an overflowing rank body runs
  /// into the allocation's redzone and is reported.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  /// Creates a suspended fiber; `fn` starts on the first resume(). `fn`
  /// must not let exceptions escape (they cannot cross a context switch).
  explicit Fiber(std::function<void()> fn);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must not be called on a
  /// finished fiber.
  void resume();

  /// Suspends the running fiber, returning control to its resume() caller.
  static void yield();

  /// True once `fn` has returned; the fiber may not be resumed again.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  static void trampoline();

  ucontext_t ctx_{};
  ucontext_t sched_{};
  std::unique_ptr<std::byte[]> stack_;
  std::function<void()> fn_;
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;   ///< TSan fiber handle (null when not built)
  void* tsan_sched_ = nullptr;   ///< TSan handle of the resuming thread
  void* asan_sched_fake_ = nullptr;  ///< ASan fake-stack save, scheduler side
  void* asan_fiber_fake_ = nullptr;  ///< ASan fake-stack save, fiber side
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
};

}  // namespace hpsum::mpisim::detail
