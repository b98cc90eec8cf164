#include "mpisim/fiber.hpp"

#include <cassert>
#include <utility>

#if defined(__SANITIZE_THREAD__) && __has_include(<sanitizer/tsan_interface.h>)
#define HPSUM_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#else
#define HPSUM_FIBER_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#define HPSUM_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#else
#define HPSUM_FIBER_ASAN 0
#endif

namespace hpsum::mpisim::detail {

namespace {
thread_local Fiber* tl_current_fiber = nullptr;
}  // namespace

Fiber::Fiber(std::function<void()> fn)
    : stack_(new std::byte[kStackBytes]), fn_(std::move(fn)) {
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // trampoline never returns; see below
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#if HPSUM_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  assert((!started_ || finished_) &&
         "destroying a fiber that is suspended mid-body");
#if HPSUM_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* f = tl_current_fiber;
#if HPSUM_FIBER_ASAN
  // First entry: record the resuming thread's stack so yields can
  // annotate the switch back (the worker's stack does not move).
  __sanitizer_finish_switch_fiber(nullptr, &f->asan_sched_bottom_,
                                  &f->asan_sched_size_);
#endif
  f->fn_();
  f->finished_ = true;
  // With uc_link == nullptr, returning from a makecontext entry point
  // exits the thread — never return; the final yield releases control
  // for good (finished fibers are not resumed).
  for (;;) Fiber::yield();
}

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
  assert(tl_current_fiber == nullptr && "nested fibers are not supported");
  started_ = true;
  tl_current_fiber = this;
#if HPSUM_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_sched_fake_, stack_.get(),
                                 kStackBytes);
#endif
#if HPSUM_FIBER_TSAN
  tsan_sched_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&sched_, &ctx_);
#if HPSUM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_sched_fake_, nullptr, nullptr);
#endif
  tl_current_fiber = nullptr;
}

void Fiber::yield() {
  Fiber* f = tl_current_fiber;
  assert(f != nullptr && "Fiber::yield called outside a fiber");
#if HPSUM_FIBER_ASAN
  // A finishing fiber passes null so ASan releases its fake stack.
  __sanitizer_start_switch_fiber(f->finished_ ? nullptr : &f->asan_fiber_fake_,
                                 f->asan_sched_bottom_, f->asan_sched_size_);
#endif
#if HPSUM_FIBER_TSAN
  __tsan_switch_to_fiber(f->tsan_sched_, 0);
#endif
  swapcontext(&f->ctx_, &f->sched_);
#if HPSUM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(f->asan_fiber_fake_, &f->asan_sched_bottom_,
                                  &f->asan_sched_size_);
#endif
}

}  // namespace hpsum::mpisim::detail
