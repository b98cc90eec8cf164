// hplint — project-specific static analysis for the order-invariance
// contract.
//
// The hpsum library's value proposition is a *contract*: sums are bit-exact
// and order-invariant because every hot path is pure unsigned integer limb
// arithmetic with sticky status propagation. A single stray double
// accumulation in a reduction path, one discarded HpStatus mask, or one
// nondeterministic iteration order silently re-introduces exactly the
// irreproducibility the paper eliminates. hplint scans the tree (tokenizer
// + name index, no compiler needed, runs in milliseconds as a ctest) and
// enforces:
//
//   L1 fp-accumulate   no floating-point accumulation (double/float +=,
//                      std::accumulate, omp reduction(+:fp-var)) inside the
//                      contract directories (src/core, src/backends,
//                      src/cudasim, src/mpisim, src/phisim).
//   L2 signed-limb     no signed integer types in HP limb arithmetic where
//                      util::Limb (uint64) is required — signed overflow is
//                      UB; the method depends on defined unsigned wrap.
//   L3 discard-status  no call to the curated status-returning kernels
//                      (add_impl, from_double_impl/_exact, hp_add,
//                      add_into, ...) whose returned status/carry is
//                      discarded.
//   L4 nondeterminism  no rand()/srand()/std::random_device and no
//                      unordered-container iteration feeding reduction
//                      order in deterministic paths.
//   L5 raw-telemetry   no raw printf/iostream output, ad-hoc WallTimer /
//                      ThreadCpuTimer measurement or hand-read
//                      steady_clock inside src/core, src/mpisim,
//                      src/audit, or src/engine — observability in the
//                      instrumented planes flows through hpsum::trace
//                      probes so it stays compile-out-able and
//                      machine-readable; sanctioned output paths (the
//                      audit reporters) are ledgered via L9 allows.
//   L6 duplicate-kernel no direct calls to the limb-kernel bodies
//                      (detail::add_impl, sub_impl, negate_impl,
//                      scatter_add_double) and no hand-rolled limb
//                      carry-propagation loops (addc/subb) outside
//                      src/core/hp_kernel.* — every accumulation site must
//                      route through the hpsum::kernel facade so there is
//                      exactly ONE implementation of the carry chain to
//                      prove, fuzz, and optimize.
//   L7 status-escape   interprocedural L3: any free-function call in src/
//                      that discards the HpStatus returned by a function
//                      *defined anywhere in the tree* (found by the
//                      SymbolIndex first pass, so new status-returning
//                      functions are covered the moment they are declared —
//                      no curated list to forget to extend). Needs
//                      Options::index; off without it.
//   L8 memory-order    every atomic load/store/RMW on an indexed
//                      std::atomic/std::atomic_ref in src/core, src/trace,
//                      src/cudasim must name an explicit std::memory_order
//                      for every order parameter (compare_exchange takes
//                      TWO — the implicit derived failure order is exactly
//                      the kind of silent seq_cst/invalid-order trap this
//                      rule exists for), and the flight-recorder
//                      write-index publish store must not be relaxed (the
//                      ring's readers acquire on it). Needs Options::index.
//   L9 allow-ledger    every `hplint: allow(...)` must carry a
//                      justification suffix and be accounted for in
//                      tools/hplint/BASELINE.txt; entries the tree no
//                      longer needs are stale and fail too. Enforced by
//                      check_ledger() over the whole run, not per file.
//
// Escape hatch: a `// hplint: allow(<rule-name>) — why` comment on the same
// line or on the line directly above suppresses that rule there — the point
// is that every exception is visible, justified in the diff, and counted in
// the checked-in baseline ledger.
//
// docs/ANALYSIS.md documents each rule with examples.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "index.hpp"

namespace hpsum::lint {

/// Rule identifiers. Values are stable (they appear in JSON/SARIF output).
enum class Rule {
  kFpAccumulate,    // L1
  kSignedLimb,      // L2
  kDiscardStatus,   // L3
  kNondeterminism,  // L4
  kRawTelemetry,    // L5
  kDuplicateKernel, // L6
  kStatusEscape,    // L7
  kMemoryOrder,     // L8
  kAllowLedger,     // L9
};
inline constexpr int kRuleCount = 9;

/// Finding severity. Errors fail the build (exit 1 / SARIF "error");
/// warnings are reported but do not gate.
enum class Severity { kError, kWarn };

/// Short id, e.g. "L1".
[[nodiscard]] std::string_view rule_id(Rule r) noexcept;
/// Annotation name, e.g. "fp-accumulate" (what allow(...) takes).
[[nodiscard]] std::string_view rule_name(Rule r) noexcept;
/// One-line description for --list-rules and SARIF rule metadata.
[[nodiscard]] std::string_view rule_summary(Rule r) noexcept;
/// Reverse lookups; return false on unknown input.
[[nodiscard]] bool rule_from_id(std::string_view id, Rule* out) noexcept;
[[nodiscard]] bool rule_from_name(std::string_view name, Rule* out) noexcept;

/// One finding.
struct Violation {
  std::string file;     ///< path as given to the linter
  int line = 0;         ///< 1-based
  Rule rule = Rule::kFpAccumulate;
  std::string message;  ///< what was found
  std::string hint;     ///< how to fix (or how to annotate if intended)
  Severity severity = Severity::kError;
};

/// One `hplint: allow(rule)` annotation site, as written in a comment (one
/// record per rule listed). Collected by lint_source for the L9 ledger.
struct AllowSite {
  std::string file;
  int line = 0;        ///< line the annotation is written on
  std::string rule;    ///< rule name as spelled inside allow(...)
  bool justified = false;  ///< text follows the closing paren
};

/// The checked-in suppression ledger (tools/hplint/BASELINE.txt): one line
/// per `<path> <rule-name> <count>`, '#' comments and blanks ignored.
struct Ledger {
  struct Entry {
    std::string file;
    std::string rule;
    int count = 0;
    int line = 0;  ///< line in the baseline file, for stale reporting
  };
  std::vector<Entry> entries;
};
[[nodiscard]] Ledger parse_baseline(std::string_view text);
[[nodiscard]] bool load_baseline(const std::string& path, Ledger* out);

/// Which rule families apply to a file, derived from its (repo-relative)
/// path. Exposed for tests.
struct RuleScope {
  bool l1 = false;  ///< contract reduction paths
  bool l2 = false;  ///< HP limb arithmetic files
  bool l3 = false;  ///< everything scanned
  bool l4 = false;  ///< deterministic paths
  bool l5 = false;  ///< src/core + src/mpisim + src/audit — telemetry via trace
  bool l6 = false;  ///< src/ minus the kernel home (hp_kernel.*, util/limbs)
  bool l7 = false;  ///< src/ call sites (interprocedural status escape)
  bool l8 = false;  ///< the concurrent surface: src/core, src/trace, src/cudasim
  bool l9 = false;  ///< annotations are policed everywhere
};
[[nodiscard]] RuleScope scope_for_path(std::string_view path) noexcept;

/// Per-file lint options. L7/L8 run only when `index` is set (they are
/// meaningless without the cross-file pass); L9 runs via check_ledger, not
/// here. `severity` overrides the default (error) per rule.
struct Options {
  bool l1 = true, l2 = true, l3 = true, l4 = true, l5 = true, l6 = true;
  bool l7 = true, l8 = true, l9 = true;
  const SymbolIndex* index = nullptr;
  std::map<Rule, Severity> severity;
};

/// Lints one file's contents. `path` determines rule scope and is copied
/// into the violations. When `allow_sites` is non-null, every allow(...)
/// annotation in the file is appended for ledger checking.
[[nodiscard]] std::vector<Violation> lint_source(
    std::string_view path, std::string_view source, const Options& opts = {},
    std::vector<AllowSite>* allow_sites = nullptr);

/// Lints a file on disk (reads it, then lint_source). A file that cannot
/// be read yields no violations and sets `io_error`.
[[nodiscard]] std::vector<Violation> lint_file(
    const std::string& path, const Options& opts, bool* io_error,
    std::vector<AllowSite>* allow_sites = nullptr);

/// L9: checks every annotation site against the ledger — unjustified
/// allows, allows of unknown rules, counts exceeding the baseline, and
/// stale baseline entries (attributed to `baseline_path`) all fail.
[[nodiscard]] std::vector<Violation> check_ledger(
    const std::vector<AllowSite>& sites, const Ledger& ledger,
    std::string_view baseline_path, Severity severity = Severity::kError);

/// Parses `git diff --unified=0` output into a map from new-side path to
/// the set of added/modified 1-based line numbers. Deleted files and pure
/// removals contribute nothing.
[[nodiscard]] std::map<std::string, std::set<int>> parse_unified_diff(
    std::string_view diff);

/// Renders violations as text ("file:line: [L1:fp-accumulate] ..."), as a
/// machine-readable JSON array, or as a SARIF 2.1.0 log.
[[nodiscard]] std::string to_text(const std::vector<Violation>& vs);
[[nodiscard]] std::string to_json(const std::vector<Violation>& vs);
[[nodiscard]] std::string to_sarif(const std::vector<Violation>& vs);

}  // namespace hpsum::lint
