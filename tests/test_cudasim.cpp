// Tests for the CUDA-style execution simulator and device HP kernels.
#include "cudasim/cudasim.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/reduce.hpp"
#include "cudasim/hp_kernels.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace hpsum::cudasim {
namespace {

TEST(Cudasim, DeviceMemoryIsZeroInitialized) {
  Device dev;
  auto* p = static_cast<std::uint64_t*>(dev.dmalloc(64 * sizeof(std::uint64_t)));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(p[i], 0u);
  dev.dfree(p);
}

TEST(Cudasim, DfreeUnknownPointerThrows) {
  Device dev;
  int host_var = 0;
  EXPECT_THROW(dev.dfree(&host_var), std::invalid_argument);
}

TEST(Cudasim, BadPropsThrow) {
  DeviceProps props;
  props.max_concurrent_threads = 0;
  EXPECT_THROW(Device{props}, std::invalid_argument);
}

TEST(Cudasim, MemcpyMovesDataAndAccountsTransfer) {
  DeviceProps props;
  props.transfer_bandwidth = 1e9;  // 1 GB/s for easy math
  Device dev(props);
  const std::vector<double> host = {1.0, 2.0, 3.0};
  auto* d = static_cast<double*>(dev.dmalloc(host.size() * sizeof(double)));
  dev.memcpy_h2d(d, host.data(), host.size() * sizeof(double));
  std::vector<double> back(3, 0.0);
  dev.memcpy_d2h(back.data(), d, back.size() * sizeof(double));
  EXPECT_EQ(back, host);
  EXPECT_DOUBLE_EQ(dev.transfer_seconds(), 2.0 * 24.0 / 1e9);
  dev.reset_transfer_clock();
  EXPECT_EQ(dev.transfer_seconds(), 0.0);
}

TEST(Cudasim, LaunchCoversEveryThreadExactlyOnce) {
  Device dev;
  constexpr int kGrid = 37;
  constexpr int kBlock = 19;
  auto* slots =
      static_cast<std::uint64_t*>(dev.dmalloc(kGrid * kBlock * sizeof(std::uint64_t)));
  const auto stats = dev.launch(kGrid, kBlock, [&](const ThreadCtx& ctx) {
    EXPECT_EQ(ctx.total_threads(), kGrid * kBlock);
    dev.atomic_add_u64_native(&slots[ctx.global_id()], 1);
  });
  for (int i = 0; i < kGrid * kBlock; ++i) EXPECT_EQ(slots[i], 1u);
  EXPECT_EQ(stats.total_threads, kGrid * kBlock);
  dev.dfree(slots);
}

TEST(Cudasim, LaunchRejectsBadDims) {
  Device dev;
  EXPECT_THROW(dev.launch(0, 32, [](const ThreadCtx&) {}),
               std::invalid_argument);
  EXPECT_THROW(dev.launch(32, 0, [](const ThreadCtx&) {}),
               std::invalid_argument);
}

TEST(Cudasim, AtomicCasSemantics) {
  Device dev;
  auto* w = static_cast<std::uint64_t*>(dev.dmalloc(sizeof(std::uint64_t)));
  *w = 5;
  // Successful swap returns old value.
  EXPECT_EQ(dev.atomic_cas_u64(w, 5, 9), 5u);
  EXPECT_EQ(*w, 9u);
  // Failed swap returns current value, leaves memory unchanged.
  EXPECT_EQ(dev.atomic_cas_u64(w, 5, 100), 9u);
  EXPECT_EQ(*w, 9u);
  dev.dfree(w);
}

TEST(Cudasim, ConcurrentCasAddIsExact) {
  Device dev;
  auto* counter = static_cast<std::uint64_t*>(dev.dmalloc(sizeof(std::uint64_t)));
  const auto stats = dev.launch(64, 128, [&](const ThreadCtx&) {
    dev.atomic_add_u64_cas(counter, 3);
  });
  EXPECT_EQ(*counter, 3u * 64 * 128);
  EXPECT_EQ(stats.total_threads, 64 * 128);
  dev.dfree(counter);
}

TEST(Cudasim, AtomicAddF64MatchesExactCount) {
  Device dev;
  auto* acc = static_cast<double*>(dev.dmalloc(sizeof(double)));
  dev.launch(32, 64, [&](const ThreadCtx&) { dev.atomic_add_f64(acc, 1.0); });
  EXPECT_EQ(*acc, 2048.0);  // exact: integers below 2^53
  dev.dfree(acc);
}

TEST(Cudasim, ModeledTimeUsesOccupancyCap) {
  Device dev;  // cap 2496
  auto* sink = static_cast<std::uint64_t*>(dev.dmalloc(sizeof(std::uint64_t)));
  const auto small = dev.launch(4, 64, [&](const ThreadCtx&) {
    dev.atomic_add_u64_native(sink, 1);
  });
  // 256 threads: effective parallelism is 256.
  EXPECT_NEAR(small.modeled_kernel_time, small.busy_total / 256.0, 1e-12);
  const auto big = dev.launch(256, 128, [&](const ThreadCtx&) {
    dev.atomic_add_u64_native(sink, 1);
  });
  // 32768 threads: capped at 2496 — the Fig 7 plateau.
  EXPECT_NEAR(big.modeled_kernel_time, big.busy_total / 2496.0, 1e-12);
  dev.dfree(sink);
}

// Both launch flavours run on the one worker pool, so both must fill every
// LaunchStats field the same way and fold the same telemetry.
TEST(Cudasim, LaunchAndPhasedLaunchFillEveryStatsField) {
  Device dev;  // cap 2496
  auto* word = static_cast<std::uint64_t*>(dev.dmalloc(sizeof(std::uint64_t)));
  const auto check = [&](const auto& launch_once) {
    const trace::Snapshot before = trace::snapshot();
    const LaunchStats st = launch_once();
    const trace::Snapshot d = trace::snapshot().delta_since(before);
    EXPECT_EQ(st.total_threads, 16 * 64);
    EXPECT_GT(st.measured_wall, 0.0);
    EXPECT_GT(st.busy_total, 0.0);
    EXPECT_EQ(st.modeled_kernel_time, st.busy_total / (16.0 * 64.0));
    if constexpr (trace::enabled()) {
      EXPECT_EQ(d.value(trace::Counter::kCudasimLaunches), 1u);
      EXPECT_EQ(d.value(trace::Counter::kCudasimCasRetries), st.cas_retries);
      // Per-worker ns are summed as integers, busy_total as doubles.
      EXPECT_NEAR(static_cast<double>(d.value(trace::Counter::kCudasimBusyNs)),
                  st.busy_total * 1e9, 4.0);
    }
  };
  check([&] {
    return dev.launch(16, 64, [&](const ThreadCtx&) {
      dev.atomic_add_u64_cas(word, 1);
    });
  });
  check([&] {
    return dev.launch_phased(
        16, 64, 2, 8, [&](const ThreadCtx& ctx, std::byte* shared, int phase) {
          if (phase == 0 && ctx.thread_idx == 0) {
            EXPECT_EQ(shared[0], std::byte{0});  // zeroed per block
          }
          if (phase == 0) shared[0] = std::byte{1};
          if (phase == 1) {
            EXPECT_EQ(shared[0], std::byte{1});
          }
          dev.atomic_add_u64_cas(word, 1);
        });
  });
  EXPECT_EQ(*word, 3u * 16 * 64);  // one add per thread, then two
  dev.dfree(word);
}

TEST(Cudasim, HpAtomicKernelMatchesSequentialBitExact) {
  // The Fig 7 kernel at test scale: every thread strides the input and
  // CAS-accumulates into (thread id % 4) of 4 shared HP partials; partials
  // then combine to the sequential sum, bit for bit.
  const auto xs = workload::uniform_set(20000, 71);
  Device dev;
  constexpr int kPartials = 4;
  constexpr int kLimbs = 6;
  auto* partials = static_cast<std::uint64_t*>(
      dev.dmalloc(kPartials * kLimbs * sizeof(std::uint64_t)));
  auto* data = static_cast<double*>(dev.dmalloc(xs.size() * sizeof(double)));
  dev.memcpy_h2d(data, xs.data(), xs.size() * sizeof(double));

  const int total_threads = 16 * 32;
  std::atomic<std::uint8_t> launch_status{0};
  dev.launch(16, 32, [&](const ThreadCtx& ctx) {
    const int tid = ctx.global_id();
    HpFixed<6, 3> local;
    for (std::size_t i = static_cast<std::size_t>(tid); i < xs.size();
         i += static_cast<std::size_t>(total_threads)) {
      local.clear();
      local += data[i];
      const HpStatus st = device_hp_atomic_add(
          dev, &partials[(tid % kPartials) * kLimbs], local);
      if (st != HpStatus::kOk) {
        launch_status.fetch_or(static_cast<std::uint8_t>(st),
                               std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(static_cast<HpStatus>(
                launch_status.load(std::memory_order_relaxed)),
            HpStatus::kOk);

  HpFixed<6, 3> total;
  for (int p = 0; p < kPartials; ++p) {
    HpFixed<6, 3> part;
    std::memcpy(part.limbs().data(), &partials[p * kLimbs],
                kLimbs * sizeof(std::uint64_t));
    total += part;
  }
  EXPECT_EQ(total, (reduce_hp<6, 3>(xs)));
  dev.dfree(partials);
  dev.dfree(data);
}

TEST(Cudasim, HallbergAtomicKernelMatchesSequential) {
  const auto xs = workload::uniform_set(20000, 72);
  Device dev;
  constexpr int kLimbs = 10;
  auto* partial =
      static_cast<std::int64_t*>(dev.dmalloc(kLimbs * sizeof(std::int64_t)));

  const int total_threads = 8 * 32;
  dev.launch(8, 32, [&](const ThreadCtx& ctx) {
    const int tid = ctx.global_id();
    for (std::size_t i = static_cast<std::size_t>(tid); i < xs.size();
         i += static_cast<std::size_t>(total_threads)) {
      HallbergFixed<10, 38> local;
      local.add(xs[i]);
      device_hallberg_atomic_add(dev, partial, local);
    }
  });

  Hallberg total(HallbergParams{10, 38});
  std::memcpy(total.limbs().data(), partial, kLimbs * sizeof(std::int64_t));
  Hallberg ref(HallbergParams{10, 38});
  for (const double x : xs) ref.add(x);
  total.normalize();
  ref.normalize();
  EXPECT_EQ(total.limbs(), ref.limbs());
  dev.dfree(partial);
}

}  // namespace
}  // namespace hpsum::cudasim
