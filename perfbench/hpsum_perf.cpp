// hpsum_perf — the measurement harness behind perfbench/run.py.
//
// One process runs one workload closed-loop (one client; the next
// operation starts only after the previous one completed) and prints one
// JSON line of raw measurements that run.py turns into metrics:
//
//   cli_text       exact_sum_cli as a child process on a text file of the
//                  §IV.B uniform set (the Unix-filter user's path).
//   engine_stream  32M uniform values streamed by 3 depositor lanes into
//                  engine::ShardSet<DynSum> while a monitor thread takes a
//                  live snapshot() every 200 us; then checkpoint, drain,
//                  render and restore onto a fresh 1-lane set.
//   mpisim_wide    256 multiplexed ranks (4 workers): engine::local_reduce
//                  on a slice of the §IV.A wide-range set, then repeated
//                  allreduce_hp_value (recursive doubling, sparse wire).
//
// Every result is checked against a reference fixed at set-up: limbs and
// status from sequential reduce_hp, and a rounded double that must also
// equal the independent oracle in oracle.hpp (set-up aborts otherwise).
//
// With --trace 1 the harness records spans (name, start, end, parent, op
// id) around its own calls into each module's public functions, writes
// them to <work>/<workload>.spans.jsonl, and also runs the other two
// operation kinds on this workload's values as off-path probes, so every
// layer has a number.
//
// With --once 1 it only sets up (generating the values and running one
// operation) and exits; untraced runs of the in-process workloads spawn it
// so that peak_rss_mb is a fresh process's.
//
//   hpsum_perf --workload engine_stream --seed 1 --seconds 30 --trace 0
//              --cli <build>/examples/exact_sum_cli --work <dir>
#include <fcntl.h>
#include <spawn.h>
#include <stdio_ext.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "backends/scaling.hpp"
#include "core/hp_dyn.hpp"
#include "core/hp_kernel_simd.hpp"
#include "core/hp_plan.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "mpisim/wire.hpp"
#include "oracle.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

extern char** environ;

namespace {

using namespace hpsum;
using Clock = std::chrono::steady_clock;

// Workload shape. Sizes are fixed so absolute numbers compare like with
// like; README.md records why each was chosen.
constexpr std::size_t kCliValues = std::size_t{1} << 20;      // 1M
constexpr std::size_t kEngineValues = std::size_t{1} << 25;   // 32M
constexpr std::size_t kMpisimValues = std::size_t{1} << 22;   // 4M
constexpr std::size_t kLanes = 3;
constexpr std::size_t kChunk = 4096;
constexpr auto kSnapshotPeriod = std::chrono::microseconds(200);
constexpr int kRanks = 256;
constexpr int kWorkers = 4;
constexpr int kAllreduces = 50;
constexpr int kWarmupValues = 1000;
constexpr int kSetups = 5;  // set-ups per untraced run; setup_s is their median
// Fresh processes per untraced run whose peak RSS gives peak_rss_mb for the
// in-process workloads.
constexpr int kFreshRuns = 3;
// Off-path probes run the CLI path on a prefix only: its audit shuffles
// the data 64 times, which on 32M values would take most of a run.
constexpr std::size_t kCliProbeValues = std::size_t{1} << 18;
constexpr int kProbeOps = 4;
constexpr int kWireReps = 20;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

// --------------------------------------------------------------- spans --

struct Span {
  std::uint32_t id;
  std::uint32_t parent;  // 0 = a root (the op span, or a side activity)
  std::uint32_t op;      // shared by every span of one operation
  const char* name;      // "<layer>.<what>"
  const char* kind;      // "path" or "probe"
  std::int64_t t0;
  std::int64_t t1;
  std::uint64_t count;   // calls folded into this span (coalesced spans)
  std::uint64_t values;  // values the spanned call summed, 0 if none
};

class Tracer {
 public:
  bool on = false;
  const char* kind = "path";

  [[nodiscard]] std::uint32_t reserve() { return on ? next_id_++ : 0; }
  void put(std::uint32_t id, const char* name, std::uint32_t parent,
           std::uint32_t op, std::int64_t t0, std::int64_t t1,
           std::uint64_t values = 0, std::uint64_t count = 1) {
    if (!on) return;
    if (id == 0) id = next_id_++;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({id, parent, op, name, kind, t0, t1, count, values});
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"name\":\"" << s.name
          << "\",\"kind\":\"" << s.kind << "\",\"t0\":" << s.t0
          << ",\"t1\":" << s.t1 << ",\"count\":" << s.count
          << ",\"values\":" << s.values << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tr;
std::atomic<std::uint32_t> g_next_op{1};

// ----------------------------------------------------------- reference --

struct Reference {
  HpConfig cfg;
  SumPlan plan;
  std::vector<util::Limb> limbs;
  HpStatus status = HpStatus::kOk;
  double exact = 0.0;
  double naive = 0.0;
  std::string decimal;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool matches(const Reference& ref, const HpDyn& v) {
  const auto ls = v.limbs();
  return v.config() == ref.cfg && v.status() == ref.status &&
         std::equal(ls.begin(), ls.end(), ref.limbs.begin(), ref.limbs.end());
}

// Failures are counted per operation; the first few are kept for the log.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

// -------------------------------------------------------------- stats --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_dist(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"count\":%zu,\"p50\":%.9g,\"p99\":%.9g,\"max\":%.9g}",
                v.size(), quantile(v, 0.5), quantile(v, 0.99),
                v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
  return buf;
}

// ------------------------------------------------------------ cli path --

std::string write_text(const std::string& path, std::span<const double> xs) {
  std::string text;
  text.reserve(xs.size() * 24);
  char buf[32];
  for (const double x : xs) {
    const auto r = std::to_chars(buf, buf + sizeof buf, x);
    text.append(buf, r.ptr);
    text += '\n';
  }
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

// The lines exact_sum_cli prints before its audit, formatted exactly as
// examples/exact_sum_cli.cpp formats them, from the reference.
std::string expected_cli_head(const Reference& ref, std::size_t n) {
  char buf[512];
  std::string s;
  std::snprintf(buf, sizeof buf, "values           : %zu\n", n);
  s += buf;
  std::snprintf(buf, sizeof buf, "|x| range        : [%.6e, %.6e]\n",
                ref.plan.min_abs, ref.plan.max_abs);
  s += buf;
  std::snprintf(buf, sizeof buf, "HP format        : N=%d, k=%d (%d value bits)\n",
                ref.cfg.n, ref.cfg.k, precision_bits(ref.cfg));
  s += buf;
  std::snprintf(buf, sizeof buf, "double sum       : %.17e\n", ref.naive);
  s += buf;
  std::snprintf(buf, sizeof buf, "exact sum        : %.17e\n", ref.exact);
  s += buf;
  s += "exact decimal    : " + ref.decimal + "\n";
  s += "status           : " + to_string(ref.status) + "\n";
  return s;
}

// This process's resident set in kB.
long rss_kb() {
  long kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) kb = std::stol(line.substr(6));
  }
  return kb;
}

struct ChildRun {
  bool ok = false;
  std::int64_t t0 = 0, t1 = 0;
  long rss_kb = 0;
};

// Runs `argv` with stdin from `in` and stdout to `out`, waiting for it to
// end; ok means exit code 0. The child gets the environment minus HPSUM_*
// so telemetry switches in the caller's environment cannot change what it
// does.
ChildRun spawn_wait(std::vector<std::string> args, const std::string& in,
                    const std::string& out) {
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HPSUM_", 6) != 0) env.push_back(*e);
  }
  env.push_back(nullptr);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, in.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun r;
  pid_t pid = 0;
  r.t0 = now_ns();
  const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                             env.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    r.t1 = now_ns();
    return r;
  }
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.t1 = now_ns();
  r.rss_kb = ru.ru_maxrss;
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return r;
}

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = write(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  auto* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = read(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// Spawns children for the harness from a small process forked before the
// harness allocates its inputs. A child's ru_maxrss counts the resident set
// of the process that spawned it, which it shares until it execs; spawned
// by the harness itself, a child would report the harness's memory as its
// own peak. Requests and results go over two pipes.
class Launcher {
 public:
  Launcher() = default;
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;
  ~Launcher() { stop(); }

  void start() {
    int req[2], res[2];
    if (pipe(req) != 0 || pipe(res) != 0) {
      throw std::runtime_error("launcher: pipe failed");
    }
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("launcher: fork failed");
    if (pid_ == 0) {
      close(req[1]);
      close(res[0]);
      serve(req[0], res[1]);
      _exit(0);
    }
    close(req[0]);
    close(res[1]);
    req_ = req[1];
    res_ = res[0];
  }

  // Runs `args` with stdin from `in` and stdout to `out` and waits for it.
  ChildRun run(const std::vector<std::string>& args, const std::string& in,
               const std::string& out) {
    std::string msg = in + '\0' + out + '\0';
    for (const std::string& a : args) msg += a + '\0';
    const auto len = static_cast<std::uint32_t>(msg.size());
    ChildRun r;
    if (!write_all(req_, &len, sizeof len) ||
        !write_all(req_, msg.data(), len) || !read_all(res_, &r, sizeof r)) {
      throw std::runtime_error("launcher: lost");
    }
    return r;
  }

  void stop() {
    if (pid_ <= 0) return;
    close(req_);  // end of requests: the launcher exits
    close(res_);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  static void serve(int req, int res) {
    std::uint32_t len = 0;
    while (read_all(req, &len, sizeof len)) {
      std::string msg(len, '\0');
      if (!read_all(req, msg.data(), len)) return;
      std::vector<std::string> parts;
      for (std::size_t i = 0; i < len;) {
        const std::size_t end = msg.find('\0', i);
        parts.push_back(msg.substr(i, end - i));
        i = end + 1;
      }
      const ChildRun r = spawn_wait(
          std::vector<std::string>(parts.begin() + 2, parts.end()), parts[0],
          parts[1]);
      if (!write_all(res, &r, sizeof r)) return;
    }
  }

  pid_t pid_ = -1;
  int req_ = -1;
  int res_ = -1;
};

Launcher g_launcher;

// Runs exact_sum_cli on `in`; ok also needs its output to start with
// `expect_head`.
ChildRun run_cli(const std::string& cli, const std::string& in,
                 const std::string& out, const std::string& expect_head) {
  ChildRun r = g_launcher.run({cli}, in, out);
  std::ifstream got(out, std::ios::binary);
  std::stringstream ss;
  ss << got.rdbuf();
  r.ok = r.ok && ss.str().compare(0, expect_head.size(), expect_head) == 0;
  return r;
}

// The core calls exact_sum_cli makes after ingest, in its order, each in a
// span under `root`: plan, reduce_hp, the plain double sum, and the render.
struct CoreResult {
  HpDyn exact;
  double naive;
  double rounded;
  std::string decimal;
  std::string status;
};

CoreResult core_calls(std::span<const double> xs, std::uint32_t root,
                      std::uint32_t op) {
  Tracer& tr = g_tr;
  const std::int64_t t0 = now_ns();
  const HpConfig cfg = suggest_config(plan_for_data(xs));
  const std::int64_t t1 = now_ns();
  tr.put(0, "core.plan", root, op, t0, t1, xs.size());
  HpDyn exact(cfg);
  {
    const trace::flight::ReductionScope reduction(xs.size());
    exact = reduce_hp(xs, cfg);
  }
  const std::int64_t t2 = now_ns();
  tr.put(0, "core.reduce_hp", root, op, t1, t2, xs.size());
  const double naive = reduce_double(xs);
  const std::int64_t t3 = now_ns();
  tr.put(0, "core.reduce_double", root, op, t2, t3, xs.size());
  const double rounded = exact.to_double();
  std::string decimal = exact.to_decimal_string(60);
  std::string status = to_string(exact.status());
  tr.put(0, "core.render", root, op, t3, now_ns());
  return {std::move(exact), naive, rounded, std::move(decimal),
          std::move(status)};
}

bool matches(const Reference& ref, const CoreResult& c) {
  return matches(ref, c.exact) && same_bits(c.rounded, ref.exact) &&
         same_bits(c.naive, ref.naive) && c.decimal == ref.decimal &&
         c.status == to_string(ref.status);
}

// In-process replay of exact_sum_cli's calls, in its order, on the same
// text: stdin is reopened on the file so `std::cin >> v` is the very same
// (stdio-synced) parse the CLI runs. The CLI never starts a thread, so its
// stdio takes no stream locks; once this process has run threads glibc
// would lock stdin per character, so the replay declares that it does the
// locking itself. Returns the replay's wall time.
std::int64_t replay_cli(const std::string& text, const Reference& ref,
                        std::size_t n, std::uint32_t op, Tally& tally) {
  Tracer& tr = g_tr;
  const std::uint32_t root = tr.reserve();
  const std::int64_t t0 = now_ns();
  if (std::freopen(text.c_str(), "r", stdin) == nullptr) {
    throw std::runtime_error("cannot reopen stdin on " + text);
  }
  __fsetlocking(stdin, FSETLOCKING_BYCALLER);
  std::cin.clear();
  std::vector<double> xs;
  double v = 0;
  while (std::cin >> v) xs.push_back(v);
  bool ok = std::cin.eof();
  const std::int64_t t1 = now_ns();
  tr.put(0, "cli.ingest", root, op, t0, t1, xs.size());
  const CoreResult core = core_calls(xs, root, op);
  const std::int64_t t2 = now_ns();
  const auto report = audit::order_sensitivity(xs, 64, 1);
  const std::int64_t t3 = now_ns();
  tr.put(0, "audit.order_sensitivity", root, op, t2, t3, xs.size(),
         report.trials);
  tr.put(root, "bench.op", 0, op, t0, t3, xs.size());

  ok = ok && xs.size() == n && matches(ref, core) &&
       same_bits(report.exact, ref.exact);
  tally.record(ok, "cli replay result differs from the reference");
  return t3 - t0;
}

// --------------------------------------------------------- engine path --

struct EngineSamples {
  std::vector<double> snapshot_us;
  std::uint64_t snapshot_retries = 0;  // torn seqlock reads, all snapshots
  std::uint64_t checkpoint_bytes = 0;
};

std::int64_t engine_op(std::span<const double> xs, const Reference& ref,
                       std::uint32_t op, EngineSamples& out, Tally& tally) {
  Tracer& tr = g_tr;
  const std::uint32_t root = tr.reserve();
  const trace::Snapshot before = trace::snapshot();
  const std::int64_t t0 = now_ns();
  engine::ShardSet<engine::DynSum> sink(kLanes, engine::DynSum(ref.cfg));
  const auto slices = backends::partition(xs, static_cast<int>(kLanes));
  std::atomic<bool> done{false};
  std::vector<double> snaps;
  const std::uint32_t par = tr.reserve();
  const std::int64_t p0 = now_ns();
  {
    std::jthread monitor([&] {
      const std::int64_t m0 = now_ns();
      while (!done.load(std::memory_order_acquire)) {
        const std::int64_t s0 = now_ns();
        (void)sink.snapshot();
        snaps.push_back(static_cast<double>(now_ns() - s0) / 1e3);
        std::this_thread::sleep_for(kSnapshotPeriod);
      }
      // The monitor is a side activity: it runs beside the blocking path.
      tr.put(0, "engine.monitor", 0, op, m0, now_ns(), 0, snaps.size());
    });
    {
      std::vector<std::jthread> lanes;
      lanes.reserve(kLanes);
      for (std::size_t t = 0; t < kLanes; ++t) {
        lanes.emplace_back([&, t] {
          const std::int64_t l0 = now_ns();
          auto lane = sink.shard(t);
          std::span<const double> rest = slices[t];
          std::int64_t deposit_ns = 0;
          std::uint64_t calls = 0;
          while (!rest.empty()) {
            const std::size_t take = std::min(rest.size(), kChunk);
            if (tr.on) {
              const std::int64_t d0 = now_ns();
              lane.deposit(rest.first(take));
              deposit_ns += now_ns() - d0;
            } else {
              lane.deposit(rest.first(take));
            }
            ++calls;
            rest = rest.subspan(take);
          }
          const std::int64_t l1 = now_ns();
          const std::uint32_t lane_id = tr.reserve();
          // Deposit calls are folded into one span per lane: its length is
          // their summed time, `count` the number of calls.
          tr.put(0, "engine.deposit", lane_id, op, l0, l0 + deposit_ns,
                 slices[t].size(), calls);
          tr.put(lane_id, "bench.lane", par, op, l0, l1, slices[t].size());
        });
      }
    }
    done.store(true, std::memory_order_release);
  }
  const std::int64_t p1 = now_ns();
  tr.put(par, "bench.parallel", root, op, p0, p1, xs.size());

  const std::vector<std::byte> ckpt = sink.checkpoint();
  const std::int64_t c1 = now_ns();
  tr.put(0, "engine.checkpoint", root, op, p1, c1);
  const HpDyn total = sink.drain().hp;
  const std::int64_t d1 = now_ns();
  tr.put(0, "engine.drain", root, op, c1, d1);
  const double rounded = total.to_double();
  const std::string dec = total.to_decimal_string(60);
  const std::int64_t r1 = now_ns();
  tr.put(0, "core.render", root, op, d1, r1);
  engine::ShardSet<engine::DynSum> fresh(1, engine::DynSum(ref.cfg));
  fresh.restore(ckpt);
  const HpDyn restored = fresh.drain().hp;
  const std::int64_t t1 = now_ns();
  tr.put(0, "engine.restore", root, op, r1, t1);
  tr.put(root, "bench.op", 0, op, t0, t1, xs.size());

  out.snapshot_us.insert(out.snapshot_us.end(), snaps.begin(), snaps.end());
  out.snapshot_retries += trace::snapshot().delta_since(before).value(
      trace::Counter::kEngineSnapshotRetries);
  out.checkpoint_bytes = ckpt.size();
  const bool ok = matches(ref, total) && matches(ref, restored) &&
                  same_bits(rounded, ref.exact) && dec == ref.decimal;
  tally.record(ok, "engine result differs from the reference");
  return t1 - t0;
}

// --------------------------------------------------------- mpisim path --

struct MpisimSamples {
  std::vector<double> allreduce_us;  // rank 0, calls 2..R of each run
  std::vector<double> skew_us;       // per call 2..R: max - min completion
  mpisim::RunStats last;             // counts of the last run
  std::vector<std::byte> partials;   // rank partials' raw limb images
};

std::int64_t mpisim_op(std::span<const double> xs, const Reference& ref,
                       std::uint32_t op, MpisimSamples& out, Tally& tally) {
  Tracer& tr = g_tr;
  const std::uint32_t root = tr.reserve();
  const auto slices = backends::partition(xs, kRanks);
  const std::size_t limb_bytes = static_cast<std::size_t>(ref.cfg.n) * 8;
  out.partials.assign(static_cast<std::size_t>(kRanks) * limb_bytes,
                      std::byte{0});
  std::vector<std::int64_t> done(static_cast<std::size_t>(kRanks) *
                                 kAllreduces);
  std::vector<double> lat;
  lat.reserve(kAllreduces);
  std::atomic<std::int64_t> first_body{INT64_MAX};
  std::atomic<std::int64_t> last_local{0};
  std::int64_t render_ns = 0;
  const std::uint32_t local_phase = tr.reserve();
  std::atomic<int> bad{0};
  mpisim::RunStats stats;
  mpisim::RunOptions opts;
  opts.mode = mpisim::RunMode::kMultiplexed;
  opts.workers = kWorkers;
  opts.stats = &stats;
  const std::int64_t t0 = now_ns();
  mpisim::run(
      kRanks,
      [&](mpisim::Comm& comm) {
        const int r = comm.rank();
        const std::int64_t e = now_ns();
        std::int64_t seen = first_body.load(std::memory_order_relaxed);
        while (e < seen && !first_body.compare_exchange_weak(seen, e)) {
        }
        const HpDyn local = engine::local_reduce(
            slices[static_cast<std::size_t>(r)], ref.cfg);
        const std::int64_t l1 = now_ns();
        seen = last_local.load(std::memory_order_relaxed);
        while (l1 > seen && !last_local.compare_exchange_weak(seen, l1)) {
        }
        tr.put(0, "engine.local_reduce", local_phase, op, e, l1,
               slices[static_cast<std::size_t>(r)].size());
        local.to_bytes(out.partials.data() +
                       static_cast<std::size_t>(r) * limb_bytes);
        std::int64_t a0 = l1;
        for (int i = 0; i < kAllreduces; ++i) {
          const HpDyn g = mpisim::allreduce_hp_value(
              comm, local, mpisim::ReduceAlgo::kRecursiveDoubling,
              mpisim::Wire::kSparse);
          const std::int64_t a1 = now_ns();
          done[static_cast<std::size_t>(i) * kRanks + r] = a1;
          if (i == 0) {
            // Per-rank calls include waiting for late ranks; the blocking
            // path uses the phase span below instead.
            tr.put(0, "mpisim.allreduce", 0, op, a0, a1);
            if (!matches(ref, g)) bad.fetch_add(1);
            if (r == 0) {
              const double rounded = g.to_double();
              const std::string dec = g.to_decimal_string(60);
              render_ns = now_ns() - a1;
              if (!same_bits(rounded, ref.exact) || dec != ref.decimal) {
                bad.fetch_add(1);
              }
            }
          } else if (r == 0) {
            lat.push_back(static_cast<double>(a1 - a0) / 1e3);
            if (!matches(ref, g)) bad.fetch_add(1);
          }
          a0 = now_ns();
        }
      },
      opts);
  // The operation: spawn, the local phase until the last rank holds its
  // partial, one allreduce, and rank 0's render of the result. The
  // allreduce counted is rank 0's median over calls 2..R of this run; the
  // first call mostly measures the wake-up of parked workers (15-18 ms
  // against about 1 ms once they run). The exchange and render spans are
  // laid end to end after the local phase, so the blocking path adds up to
  // the operation's time.
  const std::int64_t exchange_ns =
      static_cast<std::int64_t>(quantile(lat, 0.5) * 1e3);
  const std::int64_t x0 = last_local.load();
  const std::int64_t x1 = x0 + exchange_ns;
  const std::int64_t t1 = x1 + render_ns;
  tr.put(0, "mpisim.spawn", root, op, t0, first_body.load());
  tr.put(local_phase, "bench.local_phase", root, op, first_body.load(), x0,
         xs.size());
  tr.put(0, "mpisim.allreduce_phase", root, op, x0, x1);
  tr.put(0, "core.render", root, op, x1, t1);
  tr.put(root, "bench.op", 0, op, t0, t1, xs.size());

  for (int i = 1; i < kAllreduces; ++i) {
    const auto row = std::span(done).subspan(
        static_cast<std::size_t>(i) * kRanks, kRanks);
    const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
    out.skew_us.push_back(static_cast<double>(*hi - *lo) / 1e3);
  }
  out.allreduce_us.insert(out.allreduce_us.end(), lat.begin(), lat.end());
  out.last = stats;
  tally.record(bad.load() == 0, "mpisim result differs from the reference");
  return t1 - t0;
}

// ------------------------------------------------------------- set-up --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool once = false;  // set up once (one operation included) and exit
  std::string cli;
  std::string work;
};

struct Inputs {
  std::vector<double> xs;
  Reference ref;
  std::string text;       // cli_text: the stdin file
  std::string one;        // cli_text: a stdin file of xs[0] alone
  std::string one_head;   // what the CLI prints first for `one`
  std::int64_t generate_ns = 0;
  std::int64_t oracle_ns = 0;
};

std::vector<double> generate(const std::string& w, std::uint64_t seed) {
  if (w == "cli_text") return workload::uniform_set(kCliValues, seed);
  if (w == "engine_stream") return workload::uniform_set(kEngineValues, seed);
  return workload::wide_range_set(kMpisimValues, seed);
}

Reference make_reference(std::span<const double> xs) {
  Reference ref;
  ref.plan = plan_for_data(xs);
  ref.cfg = suggest_config(ref.plan);
  const HpDyn hp = reduce_hp(xs, ref.cfg);
  const auto ls = hp.limbs();
  ref.limbs.assign(ls.begin(), ls.end());
  ref.status = hp.status();
  ref.exact = hp.to_double();
  ref.naive = reduce_double(xs);
  ref.decimal = hp.to_decimal_string(60);
  return ref;
}

// Writes the CLI's stdin files for `in.xs`: the full text, and a text of
// its first value alone, on which the CLI's time is its own fixed cost.
void write_cli_inputs(const Options& o, Inputs& in, const std::string& stem) {
  in.text = write_text(o.work + "/" + stem + ".txt", in.xs);
  const auto first = std::span(in.xs).first(1);
  in.one = write_text(o.work + "/" + stem + "_one.txt", first);
  in.one_head = expected_cli_head(make_reference(first), 1);
}

// Generates the inputs, fixes the reference and warms up. The oracle and
// the HP reference must agree bit for bit, or the benchmark stops here.
void setup(const Options& o, Inputs& in, Tally& warm) {
  Tracer& tr = g_tr;
  const std::uint32_t op = g_next_op++;
  const std::uint32_t root = tr.reserve();
  const std::int64_t t0 = now_ns();
  in.xs = std::vector<double>();  // free the previous copy first
  in.xs = generate(o.workload, o.seed);
  const std::int64_t t1 = now_ns();
  tr.put(0, "workload.generate", root, op, t0, t1, in.xs.size());
  const double oracle = perfbench::exact_sum(in.xs);
  const std::int64_t t2 = now_ns();
  tr.put(0, "workload.oracle", root, op, t1, t2, in.xs.size());
  in.ref = make_reference(in.xs);
  const std::int64_t t3 = now_ns();
  tr.put(0, "core.reference", root, op, t2, t3, in.xs.size());
  in.generate_ns = t1 - t0;
  in.oracle_ns = t2 - t1;
  if (!same_bits(oracle, in.ref.exact)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "oracle %.17g disagrees with reduce_hp %.17g", oracle,
                  in.ref.exact);
    throw std::runtime_error(buf);
  }
  const bool traced = tr.on;
  tr.on = false;  // the warm-up operation is not measured
  if (o.workload == "cli_text") {
    write_cli_inputs(o, in, "cli_text");
    const auto head = std::span(in.xs).first(kWarmupValues);
    const ChildRun c = run_cli(
        o.cli, write_text(o.work + "/cli_warm.txt", head),
        o.work + "/cli_warm.out",
        expected_cli_head(make_reference(head), head.size()));
    warm.record(c.ok, "cli warm-up run failed");
  } else if (o.workload == "engine_stream") {
    EngineSamples s;
    (void)engine_op(in.xs, in.ref, 0, s, warm);
  } else {
    MpisimSamples s;
    (void)mpisim_op(in.xs, in.ref, 0, s, warm);
  }
  tr.on = traced;
  tr.put(root, "bench.setup", 0, op, t0, now_ns(), in.xs.size());
}

// ----------------------------------------------------------- the runs --

struct Measured {
  std::vector<double> wall_ns;   // per untraced operation
  std::vector<double> traced_ns; // per traced operation (trace runs)
  std::vector<double> replay_ns; // cli_text: untraced in-process replays
  std::vector<double> rss_kb;    // peak RSS of each fresh process
  long rss_growth_kb = 0;        // this process, last op - first op
  EngineSamples engine;
  MpisimSamples mpisim;
  std::vector<double> wire_encode_ns, wire_decode_ns;
  trace::Snapshot counters;      // delta over the workload's own ops
};

// One closed-loop operation of kind `kind` on `in`; returns its wall ns.
std::int64_t run_op(const std::string& kind, const Options& o,
                    const Inputs& in, Measured& m, Tally& tally,
                    std::uint32_t op) {
  if (kind == "cli_text") {
    const ChildRun c = run_cli(o.cli, in.text, o.work + "/cli_text.out",
                               expected_cli_head(in.ref, in.xs.size()));
    g_tr.put(0, "cli.process", 0, op, c.t0, c.t1, in.xs.size());
    tally.record(c.ok, "exact_sum_cli exited nonzero or printed a wrong sum");
    m.rss_kb.push_back(static_cast<double>(c.rss_kb));
    return c.t1 - c.t0;
  }
  if (kind == "engine_stream") return engine_op(in.xs, in.ref, op, m.engine, tally);
  return mpisim_op(in.xs, in.ref, op, m.mpisim, tally);
}

// Times exact_sum_cli on a one-value input: process start, argument
// parsing, output and exit, the part of a CLI run that the in-process
// replay does not cover.
void cli_startup(const Options& o, const Inputs& in, std::uint32_t op,
                 Tally& tally) {
  const ChildRun c = run_cli(o.cli, in.one, o.work + "/cli_one.out",
                             in.one_head);
  g_tr.put(0, "cli.startup", 0, op, c.t0, c.t1, 1);
  tally.record(c.ok, "exact_sum_cli failed on a one-value input");
}

// Times the public sparse-wire codec on the gathered rank partials.
void time_wire(const Reference& ref, Measured& m) {
  const auto& raw = m.mpisim.partials;
  std::vector<std::byte> back(raw.size());
  for (int i = 0; i < kWireReps; ++i) {
    const std::int64_t e0 = now_ns();
    const std::vector<std::byte> msg =
        mpisim::wire::encode(raw.data(), kRanks, ref.cfg.n, 0);
    const std::int64_t e1 = now_ns();
    (void)mpisim::wire::decode(msg.data(), msg.size(), back.data(), kRanks,
                               ref.cfg.n);
    const std::int64_t e2 = now_ns();
    m.wire_encode_ns.push_back(static_cast<double>(e1 - e0) / kRanks);
    m.wire_decode_ns.push_back(static_cast<double>(e2 - e1) / kRanks);
  }
  if (back != raw) throw std::runtime_error("wire codec round trip differs");
}

// Runs the core calls single-threaded on the workload's values: the plain
// double baseline beside the HP reduction of the same problem.
void core_probe(std::span<const double> xs, const Reference& ref,
                Tally& tally) {
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint32_t op = g_next_op++;
    const std::uint32_t root = g_tr.reserve();
    const std::int64_t t0 = now_ns();
    const CoreResult core = core_calls(xs, root, op);
    g_tr.put(root, "bench.core_probe", 0, op, t0, now_ns(), xs.size());
    tally.record(matches(ref, core),
                 "core probe result differs from the reference");
  }
}

// Off-path probes: the operation kinds this workload does not run, on this
// workload's values, so every per-layer metric is measured on every run.
void probes(const Options& o, const Inputs& in, Measured& m, Tally& tally) {
  Tracer& tr = g_tr;
  tr.kind = "probe";
  core_probe(in.xs, in.ref, tally);
  Measured cli_probe;
  if (o.workload != "cli_text") {
    const auto head =
        std::span(in.xs).first(std::min(in.xs.size(), kCliProbeValues));
    Inputs sub;
    sub.xs.assign(head.begin(), head.end());
    sub.ref = make_reference(sub.xs);
    write_cli_inputs(o, sub, "cli_probe");
    for (int i = 0; i < 2; ++i) {
      const std::uint32_t op = g_next_op++;
      (void)run_op("cli_text", o, sub, cli_probe, tally, op);
      cli_startup(o, sub, op, tally);
      (void)replay_cli(sub.text, sub.ref, sub.xs.size(), op, tally);
    }
  }
  if (o.workload != "engine_stream") {
    for (int i = 0; i < kProbeOps; ++i) {
      (void)engine_op(in.xs, in.ref, g_next_op++, m.engine, tally);
    }
  }
  if (o.workload != "mpisim_wide") {
    for (int i = 0; i < kProbeOps; ++i) {
      (void)mpisim_op(in.xs, in.ref, g_next_op++, m.mpisim, tally);
    }
  }
  time_wire(in.ref, m);
  tr.kind = "path";
}

void print_result(const Options& o, const Inputs& in,
                  const std::vector<double>& setup_s, const Measured& m,
                  const Tally& tally, const std::string& spans) {
  const auto& st = m.mpisim.last;
  const double calls = kAllreduces;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"values\":%zu,"
      "\"value_bytes\":%zu,\"text_bytes\":%lld,\"format\":[%d,%d],"
      "\"status\":\"%s\",\"simd\":\"%s\",\"trace_compiled\":%s,"
      "\"setup_s\":%s,\"generate_s\":%.9g,\"oracle_s\":%.9g,"
      "\"wall_ns\":%s,\"traced_ns\":%s,\"replay_ns\":%s,\"rss_kb\":%s,"
      "\"rss_growth_kb\":%ld,"
      "\"snapshot_us\":%s,\"checkpoint_bytes\":%llu,"
      "\"allreduce_us\":%s,\"skew_us\":%s,"
      "\"messages_per_allreduce\":%.9g,\"raw_bytes_per_allreduce\":%.9g,"
      "\"wire_bytes_per_allreduce\":%.9g,"
      "\"wire_encode_ns\":%s,\"wire_decode_ns\":%s,"
      "\"block_deposits\":%llu,\"simd_deposits\":%llu,"
      "\"snapshot_retries\":%llu,\"exact_hex\":\"%a\","
      "\"attempted\":%llu,\"failed\":%llu,\"notes\":[",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, in.xs.size(), in.xs.size() * sizeof(double),
      in.text.empty() ? -1LL
                      : static_cast<long long>(std::ifstream(
                                                   in.text, std::ios::ate |
                                                                std::ios::binary)
                                                   .tellg()),
      in.ref.cfg.n, in.ref.cfg.k, to_string(in.ref.status).c_str(),
      kernel::simd::level_name(kernel::simd::active_level()),
      trace::enabled() ? "true" : "false", json_array(setup_s).c_str(),
      static_cast<double>(in.generate_ns) / 1e9,
      static_cast<double>(in.oracle_ns) / 1e9, json_array(m.wall_ns).c_str(),
      json_array(m.traced_ns).c_str(), json_array(m.replay_ns).c_str(),
      json_array(m.rss_kb).c_str(), m.rss_growth_kb,
      json_dist(m.engine.snapshot_us).c_str(),
      static_cast<unsigned long long>(m.engine.checkpoint_bytes),
      json_dist(m.mpisim.allreduce_us).c_str(),
      json_dist(m.mpisim.skew_us).c_str(),
      static_cast<double>(st.messages) / calls,
      static_cast<double>(st.wire_raw_bytes) / calls,
      static_cast<double>(st.wire_encoded_bytes) / calls,
      json_dist(m.wire_encode_ns).c_str(), json_dist(m.wire_decode_ns).c_str(),
      static_cast<unsigned long long>(
          m.counters.value(trace::Counter::kBlockDeposits)),
      static_cast<unsigned long long>(
          m.counters.value(trace::Counter::kBlockSimdDeposits)),
      static_cast<unsigned long long>(m.engine.snapshot_retries), in.ref.exact,
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < tally.notes.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", tally.notes[i].c_str());
  }
  std::printf("],\"spans\":\"%s\"}\n", spans.c_str());
}

int run(const Options& o) {
  if (o.workload != "cli_text" && o.workload != "engine_stream" &&
      o.workload != "mpisim_wide") {
    std::fprintf(stderr, "hpsum_perf: unknown workload %s\n",
                 o.workload.c_str());
    return 2;
  }
  Inputs in;
  Tally warm;
  std::vector<double> setup_s;
  g_tr.on = o.trace;
  const int setups = o.trace || o.once ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const std::int64_t t0 = now_ns();
    setup(o, in, warm);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  if (warm.failed != 0) {
    std::fprintf(stderr, "hpsum_perf: %s\n", warm.notes.front().c_str());
    return 1;
  }
  if (o.once) return 0;

  Measured m;
  Tally tally;
  const trace::Snapshot before = trace::snapshot();
  const std::int64_t budget = static_cast<std::int64_t>(o.seconds * 1e9);
  long first_rss_kb = 0;
  const std::int64_t start = now_ns();
  // Trace runs alternate traced and untraced operations so the difference
  // is the tracing overhead; cli_text replays the CLI's calls in-process
  // (traced and untraced) and times its fixed cost beside each real CLI run.
  for (bool traced = true; now_ns() - start < budget || m.wall_ns.empty();
       traced = !traced) {
    const std::uint32_t op = g_next_op++;
    if (o.workload == "cli_text") {
      g_tr.on = o.trace;
      m.wall_ns.push_back(
          static_cast<double>(run_op(o.workload, o, in, m, tally, op)));
      if (o.trace) {
        cli_startup(o, in, op, tally);
        // The traced and untraced replays take turns going first, so
        // neither always runs right after the other has warmed the heap.
        const auto n = in.xs.size();
        for (const bool on : {traced, !traced}) {
          g_tr.on = on;
          (on ? m.traced_ns : m.replay_ns)
              .push_back(static_cast<double>(
                  replay_cli(in.text, in.ref, n, op, tally)));
        }
      }
      continue;
    }
    g_tr.on = o.trace && traced;
    const double ns = static_cast<double>(run_op(o.workload, o, in, m, tally, op));
    (o.trace && traced ? m.traced_ns : m.wall_ns).push_back(ns);
    if (first_rss_kb == 0) first_rss_kb = rss_kb();
  }
  m.counters = trace::snapshot().delta_since(before);
  if (first_rss_kb == 0) first_rss_kb = rss_kb();
  m.rss_growth_kb = rss_kb() - first_rss_kb;

  // The in-process workloads' peak RSS is that of a fresh process which
  // generates the values and runs one operation, as a one-shot user of the
  // library would. In this long-lived process RSS creeps from operation to
  // operation (rss_growth_kb), so its peaks would measure the run's length.
  if (!o.trace && o.workload != "cli_text") {
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    for (int i = 0; i < kFreshRuns; ++i) {
      const ChildRun c = g_launcher.run(
          {self, "--workload", o.workload, "--seed", std::to_string(o.seed),
           "--once", "1", "--cli", o.cli, "--work", o.work},
          "/dev/null", "/dev/null");
      tally.record(c.ok, "fresh-process operation failed");
      m.rss_kb.push_back(static_cast<double>(c.rss_kb));
    }
  }

  std::string spans;
  if (o.trace) {
    g_tr.on = true;
    probes(o, in, m, tally);
    spans = o.work + "/" + o.workload + ".spans.jsonl";
    if (!g_tr.write(spans)) {
      std::fprintf(stderr, "hpsum_perf: cannot write %s\n", spans.c_str());
      return 1;
    }
  }
  print_result(o, in, setup_s, m, tally, spans);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--once") o.once = v == "1";
    else if (k == "--cli") o.cli = v;
    else if (k == "--work") o.work = v;
    else {
      std::fprintf(stderr, "hpsum_perf: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  int rc = 1;
  try {
    if (!o.once) g_launcher.start();  // before anything is allocated
    rc = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpsum_perf: %s\n", e.what());
  }
  g_launcher.stop();
  return rc;
}
