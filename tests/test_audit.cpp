// Tests for the order-sensitivity audit, the first-divergence forensics
// (compare_limbs / forensic bundles) and the telemetry flags' front door
// (audit/telemetry.hpp).
#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/telemetry.hpp"
#include "core/hp_dyn.hpp"
#include "core/reduce.hpp"
#include "trace/flight.hpp"
#include "trace/pulse.hpp"
#include "util/cli.hpp"
#include "workload/workload.hpp"

namespace hpsum::audit {
namespace {

TEST(Audit, CancellationDataIsSensitive) {
  const auto xs = workload::cancellation_set(4096, 1);
  const auto report = order_sensitivity(xs, 128, 7);
  EXPECT_EQ(report.trials, 128u);
  EXPECT_EQ(report.exact, 0.0);     // the construction guarantees it
  EXPECT_GT(report.stddev, 0.0);    // doubles wobble around it
  EXPECT_GT(report.worst_abs_error, 0.0);
  EXPECT_GE(report.worst_abs_error, report.stddev);
}

TEST(Audit, BenignDataIsInsensitive) {
  // Small integers: every partial sum is exact in double, so every order
  // gives the same result and the audit reports zero spread.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(static_cast<double>(i % 7 - 3));
  const auto report = order_sensitivity(xs, 64, 8);
  EXPECT_EQ(report.stddev, 0.0);
  EXPECT_EQ(report.worst_abs_error, 0.0);
  EXPECT_EQ(report.naive_error, 0.0);
}

TEST(Audit, ConfigIsSizedFromData) {
  const auto xs = workload::uniform_set(1000, 2);
  const auto report = order_sensitivity(xs, 16, 9);
  EXPECT_GE(report.config.k, 1);
  EXPECT_GE(report.config.n, report.config.k);
}

TEST(Audit, DeterministicInSeed) {
  const auto xs = workload::cancellation_set(2048, 3);
  const auto a = order_sensitivity(xs, 64, 42);
  const auto b = order_sensitivity(xs, 64, 42);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.worst_abs_error, b.worst_abs_error);
  const auto c = order_sensitivity(xs, 64, 43);
  EXPECT_NE(a.stddev, c.stddev);
}

TEST(Audit, CallersExactSumGivesTheSameStudyWithoutASecondReduction) {
  // The span-only form plans, reduces and delegates; handing the caller's
  // exact sum over must give the same report and reduce nothing in HP.
  const auto xs = workload::cancellation_set(2048, 5);
  const auto own = order_sensitivity(xs, 32, 6);
  const HpDyn exact = reduce_hp(xs, own.config);
  const auto given = order_sensitivity(xs, exact, 32, 6);
  EXPECT_EQ(given.exact, own.exact);
  EXPECT_EQ(given.config, own.config);
  EXPECT_EQ(given.trials, own.trials);
  EXPECT_EQ(given.mean, own.mean);
  EXPECT_EQ(given.stddev, own.stddev);
  EXPECT_EQ(given.worst_abs_error, own.worst_abs_error);
  EXPECT_EQ(given.naive_error, own.naive_error);
  if constexpr (trace::enabled()) {
    EXPECT_EQ(own.trace_delta.value(trace::Counter::kBlockDeposits),
              xs.size());
    EXPECT_EQ(given.trace_delta.value(trace::Counter::kBlockDeposits), 0u);
  }
}

TEST(Audit, RejectsNonFinite) {
  const std::vector<double> bad = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)order_sensitivity(bad, 8, 1), std::invalid_argument);
}

TEST(AuditForensics, IdenticalReductionsDoNotDiverge) {
  const auto xs = workload::uniform_set(4096, 11);
  const HpConfig cfg{6, 3};
  const HpDyn a = reduce_hp(xs, cfg);
  const HpDyn b = reduce_hp(xs, cfg);
  const auto report = compare_limbs("run_a", a.limbs(), a.status(), "run_b",
                                    b.limbs(), b.status());
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.limb_index, SIZE_MAX);
  const std::string json = forensic_bundle_json(report);
  EXPECT_NE(json.find("\"hpsum_forensic\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diverged\": false"), std::string::npos);
  EXPECT_NE(json.find("\"first_divergent_limb\": null"), std::string::npos);
}

TEST(AuditForensics, InjectedCorruptionNamesTheDivergentLimb) {
  // The acceptance scenario: two backends that must agree bit-for-bit,
  // except one copy has a single flipped bit planted in a known limb. The
  // report must point at exactly that limb.
  const auto xs = workload::uniform_set(4096, 12);
  const HpConfig cfg{6, 3};
  const HpDyn good = reduce_hp(xs, cfg);
  HpDyn corrupt = good;
  constexpr std::size_t kVictim = 4;  // a fraction limb (big-endian index)
  ASSERT_LT(kVictim, corrupt.limbs().size());
  corrupt.limbs()[kVictim] ^= 1ull << 17;

  const auto report =
      compare_limbs("sequential", good.limbs(), good.status(),
                    "mpisim/8ranks", corrupt.limbs(), corrupt.status());
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.limb_index, kVictim);
  EXPECT_EQ(report.label_a, "sequential");
  EXPECT_EQ(report.label_b, "mpisim/8ranks");
  EXPECT_EQ(report.limbs_a.size(), good.limbs().size());
  EXPECT_NE(report.limbs_a[kVictim], report.limbs_b[kVictim]);

  const std::string json = forensic_bundle_json(report);
  EXPECT_NE(json.find("\"hpsum_forensic\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diverged\": true"), std::string::npos);
  EXPECT_NE(json.find("\"first_divergent_limb\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"limb_order\": \"most_significant_first\""),
            std::string::npos);
  EXPECT_NE(json.find("\"label\": \"sequential\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"mpisim/8ranks\""), std::string::npos);
  // Both limb vectors appear in hex, and they differ.
  const std::size_t hex_a = json.find("\"limbs_hex\": \"0x");
  ASSERT_NE(hex_a, std::string::npos);
  const std::size_t hex_b = json.find("\"limbs_hex\": \"0x", hex_a + 1);
  ASSERT_NE(hex_b, std::string::npos);
  EXPECT_NE(json.find("\"environment\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_events\""), std::string::npos);
}

TEST(AuditForensics, StatusOnlyDivergenceHasNullLimbIndex) {
  const std::vector<util::Limb> limbs = {1, 2, 3};
  const auto report = compare_limbs(
      "a", {limbs.data(), limbs.size()}, HpStatus::kOk, "b",
      {limbs.data(), limbs.size()}, HpStatus::kInexact);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.limb_index, SIZE_MAX);
  const std::string json = forensic_bundle_json(report);
  EXPECT_NE(json.find("\"diverged\": true"), std::string::npos);
  EXPECT_NE(json.find("\"first_divergent_limb\": null"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"inexact\""), std::string::npos);
}

TEST(AuditForensics, LimbCountMismatchDiverges) {
  const std::vector<util::Limb> a = {1, 2, 3};
  const std::vector<util::Limb> b = {1, 2, 3, 4};
  const auto report = compare_limbs("a", {a.data(), a.size()}, HpStatus::kOk,
                                    "b", {b.data(), b.size()}, HpStatus::kOk);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.limb_index, SIZE_MAX);  // common prefix agrees
}

TEST(AuditForensics, BundleCapturesLastFlightEventsWhenArmed) {
  // With the recorder armed, the bundle's flight_events section must carry
  // the most recent per-thread events — the "what happened just before the
  // divergence" forensic view.
  trace::flight::reset();
  trace::flight::arm();
  trace::flight::set_track("audit-test", 0, 0);
  {
    const trace::flight::ReductionScope scope(64);
    const auto xs = workload::uniform_set(64, 13);
    (void)reduce_hp(xs, HpConfig{4, 2});
  }
  const auto report = compare_limbs("a", {}, HpStatus::kOk, "b", {},
                                    HpStatus::kInexact);
  const std::string json = forensic_bundle_json(report, /*last_k_events=*/8);
  trace::flight::disarm();
  trace::flight::reset();
  if (trace::enabled()) {
    EXPECT_NE(json.find("\"track\": \"audit-test\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"reduction\""), std::string::npos);
    EXPECT_NE(json.find("\"flight_armed\": true"), std::string::npos);
  } else {
    EXPECT_NE(json.find("\"flight_events\": [\n\n  ]"), std::string::npos);
  }
}

TEST(AuditForensics, WriteBundleToFileAndFailurePath) {
  const auto report = compare_limbs("a", {}, HpStatus::kOk, "b", {},
                                    HpStatus::kOk);
  const std::string path = ::testing::TempDir() + "hpsum_forensic_test.json";
  ASSERT_TRUE(write_forensic_bundle(path, report));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"hpsum_forensic\": 1"), std::string::npos);
  EXPECT_FALSE(
      write_forensic_bundle("/nonexistent-dir/bundle.json", report));
}

// --- the telemetry flags (audit/telemetry.hpp) ------------------------------

/// util::Args over `flags` (argv[0] is a program name), built the way every
/// harness and exact_sum_cli build theirs.
util::Args telemetry_args(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return util::Args(static_cast<int>(argv.size()), argv.data(),
                    with_telemetry_flags({"n"}));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TelemetryFlags, KnownListIsTheProgramsFlagsThenTheFive) {
  EXPECT_EQ(with_telemetry_flags({"n", "seed"}),
            (std::vector<std::string>{"n", "seed", "metrics", "flight",
                                      "pulse", "pulse-interval-ms",
                                      "pulse-prom"}));
}

TEST(TelemetryFlags, PulseIntervalMustBeAPositiveInteger) {
  for (const char* bad : {"0", "-3", "abc", "5ms"}) {
    const util::Args args =
        telemetry_args({std::string("--pulse-interval-ms=") + bad});
    try {
      const Telemetry telemetry(args);
      ADD_FAILURE() << "accepted --pulse-interval-ms=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--pulse-interval-ms"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(Telemetry(telemetry_args({"--pulse-interval-ms=1"})));
}

TEST(TelemetryFlags, NoFlagsArmNothingAndExportNothing) {
  const Telemetry telemetry(telemetry_args({"--n=5"}));
  EXPECT_EQ(telemetry.arm("test"), "");
  EXPECT_FALSE(trace::flight::armed());
  EXPECT_FALSE(trace::pulse::armed());
  EXPECT_EQ(telemetry.finish("test"), "");
}

TEST(TelemetryFlags, FinishWritesMetricsAndChromeJsonForAnyFlightPath) {
  const std::string dir = ::testing::TempDir();
  const std::string metrics = dir + "hpsum_front_door_metrics.json";
  // A .bin path gets the one timeline format like any other path.
  const std::string flight = dir + "hpsum_front_door_flight.bin";
  const Telemetry telemetry(
      telemetry_args({"--metrics=" + metrics, "--flight=" + flight}));
  ASSERT_EQ(telemetry.arm("test"), "");
  EXPECT_EQ(trace::flight::armed(), trace::enabled());
  ASSERT_EQ(telemetry.finish("test"), "");
  trace::flight::disarm();
  trace::flight::reset();
  EXPECT_NE(slurp(metrics).find("\"hpsum_trace\": 2"), std::string::npos);
  EXPECT_EQ(slurp(flight).rfind("{\"traceEvents\": [", 0), 0u);
  std::remove(metrics.c_str());
  std::remove(flight.c_str());
}

TEST(TelemetryFlags, FinishReportsEveryFailedWrite) {
  const Telemetry telemetry(telemetry_args(
      {"--metrics=/no-such-dir/m.json", "--flight=/no-such-dir/f.json"}));
  EXPECT_EQ(telemetry.finish("prog"),
            "prog: could not write --metrics file /no-such-dir/m.json\n"
            "prog: could not write --flight file /no-such-dir/f.json\n");
  trace::flight::disarm();
}

TEST(TelemetryFlags, PulseFlagsConfigureTheSampler) {
  const std::string jsonl = ::testing::TempDir() + "hpsum_front_door.jsonl";
  const Telemetry telemetry(
      telemetry_args({"--pulse=" + jsonl, "--pulse-interval-ms=7"}));
  ASSERT_EQ(telemetry.arm("test"), "");
  EXPECT_EQ(trace::pulse::armed(), trace::enabled());
  ASSERT_EQ(telemetry.finish("test"), "");
  EXPECT_FALSE(trace::pulse::armed());
  EXPECT_NE(slurp(jsonl).find("\"interval_ms\": 7"), std::string::npos);
  std::remove(jsonl.c_str());
}

TEST(TelemetryFlags, DestructorStopsTheSamplerItStarted) {
  // An early return must not leave the sampler thread unjoined (that
  // aborts the process at exit).
  const std::string jsonl = ::testing::TempDir() + "hpsum_front_door_d.jsonl";
  {
    const Telemetry telemetry(telemetry_args({"--pulse=" + jsonl}));
    ASSERT_EQ(telemetry.arm("test"), "");
    EXPECT_EQ(trace::pulse::armed(), trace::enabled());
  }
  EXPECT_FALSE(trace::pulse::armed());
  std::remove(jsonl.c_str());
}

TEST(TelemetryFlags, UnopenablePulseStreamFailsArmingWhenTraceIsOn) {
  const Telemetry telemetry(
      telemetry_args({"--pulse=/nonexistent-dir/p.jsonl"}));
  EXPECT_EQ(telemetry.arm("prog"),
            trace::enabled()
                ? "prog: could not start --pulse sampler on "
                  "/nonexistent-dir/p.jsonl\n"
                : "");
  EXPECT_FALSE(trace::pulse::armed());
}

}  // namespace
}  // namespace hpsum::audit
