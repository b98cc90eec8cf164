// cudasim — a CUDA-style execution model (the GPU substitute).
//
// No CUDA device exists on this host, so the paper's GPU experiment (Fig 7:
// 256..32K threads accumulating into 256 shared partial sums with CAS
// atomics on a Tesla K20m) runs on this simulator (DESIGN.md §2). What it
// preserves:
//   - the programming model: kernels launched over a grid of thread blocks,
//     each virtual thread seeing (blockIdx, threadIdx, blockDim, gridDim);
//   - distinct device memory reached only through memcpy_h2d/d2h, with a
//     modeled PCIe transfer cost;
//   - REAL atomicity: device atomics are std::atomic_ref RMWs executed by a
//     preemptively scheduled worker pool, so torn updates, lost carries and
//     CAS retry storms are genuinely possible and genuinely tested;
//   - the occupancy plateau: modeled kernel time divides total thread work
//     by min(launched threads, max concurrent threads) — 2496 for the
//     K20m — which is what flattens Fig 7 beyond 2048 threads.
//
// Not modeled: __syncthreads/shared memory (the paper's kernel needs
// neither), warp divergence, memory coalescing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hpsum::cudasim {

/// Simulated device properties (defaults: Tesla K20m as in the paper).
struct DeviceProps {
  std::string name = "sim-tesla-k20m";
  /// Max resident threads (13 SMX x 192 cores on the K20m; the paper cites
  /// 2496 as the concurrency limit causing the Fig 7 plateau).
  int max_concurrent_threads = 2496;
  /// Modeled host<->device bandwidth (PCIe 2.0 x16 era), bytes/second.
  double transfer_bandwidth = 6.0e9;
  /// Host worker threads that execute blocks (the "SMX"es of the sim).
  int sim_workers = 4;
};

/// Per-virtual-thread coordinates, 1-D (all the paper's kernel needs).
struct ThreadCtx {
  int block_idx = 0;
  int thread_idx = 0;
  int block_dim = 1;
  int grid_dim = 1;

  /// blockIdx.x * blockDim.x + threadIdx.x.
  [[nodiscard]] int global_id() const noexcept {
    return block_idx * block_dim + thread_idx;
  }

  /// gridDim.x * blockDim.x.
  [[nodiscard]] int total_threads() const noexcept {
    return grid_dim * block_dim;
  }
};

/// A kernel body: invoked once per virtual thread.
using Kernel = std::function<void(const ThreadCtx&)>;

/// A cooperative kernel body: invoked once per virtual thread per phase,
/// with a per-block "shared memory" scratch area. All threads of a block
/// complete phase p before any enters phase p+1 — a __syncthreads at phase
/// granularity, which is exactly what tree-reduction kernels need.
using PhasedKernel =
    std::function<void(const ThreadCtx&, std::byte* shared, int phase)>;

/// Timing/occupancy report for one launch.
struct LaunchStats {
  double measured_wall = 0;  ///< actual host wallclock (s)
  double busy_total = 0;     ///< CPU time consumed by all workers (s)
  /// busy_total / min(total threads, max_concurrent_threads): the time a
  /// device with that much real concurrency would take.
  double modeled_kernel_time = 0;
  int total_threads = 0;
  std::uint64_t cas_retries = 0;  ///< contention observed during the launch
};

/// One simulated GPU: a device memory arena + a block-scheduling worker
/// pool + device atomic intrinsics.
class Device {
 public:
  explicit Device(DeviceProps props = {});
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceProps& props() const noexcept { return props_; }

  /// Allocates `bytes` of device memory (zero-initialized, like cudaMemset
  /// after cudaMalloc in the usual idiom). Returns an opaque device pointer
  /// valid until free()/destruction.
  [[nodiscard]] void* dmalloc(std::size_t bytes);

  /// Releases a device allocation.
  void dfree(void* ptr);

  /// Host -> device copy; adds bytes/bandwidth to transfer_seconds().
  void memcpy_h2d(void* dst, const void* src, std::size_t bytes);

  /// Device -> host copy; adds bytes/bandwidth to transfer_seconds().
  void memcpy_d2h(void* dst, const void* src, std::size_t bytes);

  /// Modeled PCIe time accumulated by all copies so far (s).
  [[nodiscard]] double transfer_seconds() const noexcept {
    return transfer_seconds_;
  }
  void reset_transfer_clock() noexcept { transfer_seconds_ = 0; }

  /// Launches `grid_dim` blocks of `block_dim` threads. Blocks are pulled
  /// by the worker pool in block order; within a block, virtual threads run
  /// in threadIdx order. Different blocks interleave preemptively, which is
  /// what makes the device atomics below meaningful.
  LaunchStats launch(int grid_dim, int block_dim, const Kernel& kernel);

  /// Cooperative launch: `phases` rounds per block with block-wide barriers
  /// between rounds and `shared_bytes` of zero-initialized per-block
  /// scratch. Blocks still run independently (no grid-wide sync), matching
  /// the CUDA model.
  LaunchStats launch_phased(int grid_dim, int block_dim, int phases,
                            std::size_t shared_bytes,
                            const PhasedKernel& kernel);

  // --- device atomic intrinsics (valid on device memory) ---------------

  /// atomicCAS on a 64-bit word: returns the old value; the swap succeeded
  /// iff old == expected. Counts retries is the caller's loop's business;
  /// use the helpers below for counted loops.
  [[nodiscard]] std::uint64_t atomic_cas_u64(std::uint64_t* addr,
                                             std::uint64_t expected,
                                             std::uint64_t desired) noexcept;

  /// CAS-loop 64-bit add (the paper's primitive: K20m-era CUDA had no
  /// 64-bit integer/double atomicAdd, everything was built on atomicCAS).
  /// Returns the pre-add value. Retries are tallied into the launch stats.
  std::uint64_t atomic_add_u64_cas(std::uint64_t* addr,
                                   std::uint64_t value) noexcept;

  /// Native fetch_add (ablation comparator).
  std::uint64_t atomic_add_u64_native(std::uint64_t* addr,
                                      std::uint64_t value) noexcept;

  /// Classic pre-Pascal double atomicAdd emulation: CAS on the bit pattern.
  double atomic_add_f64(double* addr, double value) noexcept;

 private:
  /// The one worker-pool body behind both launches: `sim_workers` threads
  /// pull blocks in order; each block zeroes its `shared_bytes` scratch and
  /// runs `phases` rounds of body(ctx, shared, phase) over its threads.
  /// Each worker's time is one trace::BusyScope (cudasim.busy_ns).
  template <class Body>
  LaunchStats run_pool(int grid_dim, int block_dim, int phases,
                       std::size_t shared_bytes, const Body& body);

  DeviceProps props_;
  std::vector<std::unique_ptr<std::byte[]>> allocations_;
  double transfer_seconds_ = 0;
  std::atomic<std::uint64_t> cas_retries_{0};
};

}  // namespace hpsum::cudasim
