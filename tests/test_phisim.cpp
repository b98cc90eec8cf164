// Tests for the offload-model simulator.
#include "phisim/phisim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "backends/accumulators.hpp"
#include "core/reduce.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace hpsum::phisim {
namespace {

TEST(Phisim, BadPropsThrow) {
  PhiProps props;
  props.max_threads = 0;
  EXPECT_THROW(OffloadDevice{props}, std::invalid_argument);
  props = PhiProps{};
  props.transfer_bandwidth = 0;
  EXPECT_THROW(OffloadDevice{props}, std::invalid_argument);
}

TEST(Phisim, ThreadCountValidation) {
  OffloadDevice dev;
  const auto xs = workload::uniform_set(100, 81);
  EXPECT_THROW((dev.offload_reduce<backends::DoubleSum>(xs, 0)),
               std::invalid_argument);
  EXPECT_THROW((dev.offload_reduce<backends::DoubleSum>(xs, 241)),
               std::invalid_argument);
  EXPECT_NO_THROW((dev.offload_reduce<backends::DoubleSum>(xs, 240)));
}

TEST(Phisim, OffloadBusyTimeCountsOnceInBackends) {
  // The device threads are backends::run_threads PEs: their time lands in
  // backends.busy_ns, and phisim keeps no second copy of it.
  EXPECT_FALSE(trace::counter_from_name("phisim.busy_ns").has_value());
  OffloadDevice dev;
  const auto xs = workload::uniform_set(40000, 84);
  const trace::Snapshot before = trace::snapshot();
  const auto point = dev.offload_reduce<backends::HpSum<6, 3>>(xs, 4);
  const trace::Snapshot d = trace::snapshot().delta_since(before);
  if constexpr (trace::enabled()) {
    EXPECT_EQ(d.value(trace::Counter::kPhisimOffloads), 1u);
    EXPECT_EQ(d.value(trace::Counter::kBackendReductions), 1u);
    const double busy_ns =
        static_cast<double>(d.value(trace::Counter::kBackendBusyNs));
    EXPECT_GE(busy_ns + 1.0, point.busy_max * 1e9);
    EXPECT_LE(busy_ns, 4.0 * point.busy_max * 1e9 + 4.0);
  } else {
    EXPECT_EQ(d.value(trace::Counter::kBackendBusyNs), 0u);
  }
}

TEST(Phisim, TransferCostIsBytesOverBandwidth) {
  PhiProps props;
  props.transfer_bandwidth = 1e9;
  OffloadDevice dev(props);
  const auto xs = workload::uniform_set(1000, 82);
  const auto point = dev.offload_reduce<backends::DoubleSum>(xs, 4);
  EXPECT_DOUBLE_EQ(point.transfer_seconds, 8000.0 / 1e9);
  EXPECT_GE(point.modeled_wall, point.transfer_seconds);
}

TEST(Phisim, HpOffloadMatchesHostSequentialAcrossThreadCounts) {
  OffloadDevice dev;
  const auto xs = workload::uniform_set(30000, 83);
  const double ref = reduce_hp<6, 3>(xs).to_double();
  for (const int threads : {1, 2, 60, 240}) {
    const auto point = dev.offload_reduce<backends::HpSum<6, 3>>(xs, threads);
    EXPECT_EQ(point.value, ref) << "threads=" << threads;
    EXPECT_EQ(point.threads, threads);
  }
}

TEST(Phisim, ModeledWallDecomposes) {
  OffloadDevice dev;
  const auto xs = workload::uniform_set(5000, 84);
  const auto point = dev.offload_reduce<backends::HpSum<6, 3>>(xs, 8);
  EXPECT_DOUBLE_EQ(point.modeled_wall,
                   point.transfer_seconds + point.busy_max + point.merge_time);
}

}  // namespace
}  // namespace hpsum::phisim
