// Figure 6 reproduction: message-passing strong scaling of the 32M global
// sum — double vs HP(6,3) vs Hallberg(10,38), reducing with a custom
// datatype + op (the paper's MPI_Reduce experiment, run on the mpisim
// runtime; DESIGN.md §2). Beyond the paper's 128 ranks, mpisim's fiber
// engine (docs/MPISIM.md) scales the same experiment to thousands of
// simulated ranks, and the HP rows can ship the sparse limb wire codec
// (docs/FORMAT.md) — the run reports the achieved raw/encoded byte ratio.
//
// Each rank reduces its slice locally (per-rank CPU busy time measured),
// then a single Reduce with the method's registered Op combines the
// partials at rank 0. Modeled wallclock = max rank busy + root combine.
//
// Known timing fault (not fixed): the root combine is a thread-CPU timer
// across a blocking Comm::reduce. mpisim gives every rank its own worker
// thread up to 128 ranks, where a blocked rank burns no CPU and the timer
// is honest. Above 128 ranks ranks outnumber workers: the root's worker
// runs other ranks' fibers while the root waits, so the timer also absorbs
// the local phases of every rank co-scheduled on that worker, t(model)
// stops falling with p and eff collapses (EXPERIMENTS.md has the
// measurement). The run prints a one-line caveat whenever ranks > workers.
//
// Flags: --n (default 4M; paper 32M), --maxp (default 128; up to 4096),
//        --seed,
//        --algo  (tree|linear|rdouble|rhalf, default tree),
//        --wire  (raw|sparse, default raw; HP rows only — double/Hallberg
//                 payloads always travel raw),
//        --dist  (uniform|lognormal, default uniform),
//        --json=PATH (the BENCH_mpi.json schema consumed by
//                 tools/bench_smoke.py --fig6-json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "backends/scaling.hpp"
#include "common.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "hallberg/hallberg.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "trace/flight.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

struct Point {
  double modeled = 0;
  double measured = 0;
  double value = 0;
  mpisim::RunStats stats;
};

/// Generic mpisim scaling point: `local` reduces a slice into a
/// method-specific partial; the partial travels through Comm::reduce with
/// (dt, op); `finish` turns root's bytes into a double.
template <class LocalFn, class FinishFn>
Point run_point(const std::vector<double>& xs, int ranks,
                const mpisim::Datatype& dt, const mpisim::Op& op,
                mpisim::ReduceAlgo algo, LocalFn local, FinishFn finish) {
  // One logical reduction: all ranks' flight events (local reduce, sends,
  // recvs, Comm::reduce spans) carry this id as their correlation key.
  const trace::flight::ReductionScope reduction(xs.size());
  Point out;
  mpisim::RunOptions opts;
  opts.stats = &out.stats;
  std::vector<double> busy(static_cast<std::size_t>(ranks), 0.0);
  double root_combine = 0;
  util::WallTimer wall;
  mpisim::run(
      ranks,
      [&](mpisim::Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        util::ThreadCpuTimer cpu;
        std::vector<std::byte> send =
            local(slices[static_cast<std::size_t>(comm.rank())]);
        busy[static_cast<std::size_t>(comm.rank())] = cpu.seconds();

        std::vector<std::byte> recv(send.size());
        util::ThreadCpuTimer combine_cpu;
        comm.reduce(send.data(), recv.data(), 1, dt, op, 0, algo);
        if (comm.rank() == 0) {
          root_combine = combine_cpu.seconds();
          out.value = finish(recv);
        }
      },
      opts);
  out.measured = wall.seconds();
  double busy_max = 0;
  for (const double b : busy) busy_max = std::max(busy_max, b);
  out.modeled = busy_max + root_combine;
  return out;
}

Point point_double(const std::vector<double>& xs, int ranks,
                   mpisim::ReduceAlgo algo) {
  return run_point(
      xs, ranks, mpisim::Datatype::f64(), mpisim::f64_sum_op(), algo,
      [](std::span<const double> slice) {
        const double v = reduce_double(slice);
        std::vector<std::byte> bytes(sizeof v);
        std::memcpy(bytes.data(), &v, sizeof v);
        return bytes;
      },
      [](const std::vector<std::byte>& bytes) {
        double v = 0;
        std::memcpy(&v, bytes.data(), sizeof v);
        return v;
      });
}

Point point_hp(const std::vector<double>& xs, int ranks,
               mpisim::ReduceAlgo algo, mpisim::Wire wire) {
  const HpConfig cfg{6, 3};
  return run_point(
      xs, ranks, mpisim::hp_datatype(cfg), mpisim::hp_sum_op(cfg, wire), algo,
      [cfg](std::span<const double> slice) {
        // Per-rank local phase through the engine (1-lane DynSum sink);
        // bit-identical limbs+status to reduce_hp(slice, cfg).
        const HpDyn v = engine::local_reduce(slice, cfg);
        std::vector<std::byte> bytes(v.byte_size());
        v.to_bytes(bytes.data());
        return bytes;
      },
      [cfg](const std::vector<std::byte>& bytes) {
        HpDyn v(cfg);
        v.from_bytes(bytes.data());
        return v.to_double();
      });
}

Point point_hallberg(const std::vector<double>& xs, int ranks,
                     mpisim::ReduceAlgo algo) {
  const HallbergParams p{10, 38};
  return run_point(
      xs, ranks, mpisim::hallberg_datatype(p), mpisim::hallberg_sum_op(p),
      algo,
      [p](std::span<const double> slice) {
        Hallberg v(p);
        for (const double x : slice) v.add(x);
        std::vector<std::byte> bytes(v.limbs().size() * sizeof(std::int64_t));
        std::memcpy(bytes.data(), v.limbs().data(), bytes.size());
        return bytes;
      },
      [p](const std::vector<std::byte>& bytes) {
        Hallberg v(p);
        std::memcpy(v.limbs().data(), bytes.data(), bytes.size());
        return v.to_double();
      });
}

struct Row {
  int ranks = 0;
  Point d;
  Point h;
  Point b;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(
      argc, argv,
      {"n", "maxp", "seed", "algo", "wire", "dist", "csv", "json"});
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto maxp = static_cast<int>(args.get_int("maxp", 128));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 6));

  const std::string algo_name = args.get_string("algo", "tree");
  mpisim::ReduceAlgo algo = mpisim::ReduceAlgo::kBinomialTree;
  if (algo_name == "linear") {
    algo = mpisim::ReduceAlgo::kLinear;
  } else if (algo_name == "rdouble") {
    algo = mpisim::ReduceAlgo::kRecursiveDoubling;
  } else if (algo_name == "rhalf") {
    algo = mpisim::ReduceAlgo::kRecursiveHalving;
  } else if (algo_name != "tree") {
    std::fprintf(stderr, "unknown --algo %s (tree|linear|rdouble|rhalf)\n",
                 algo_name.c_str());
    return 2;
  }

  const std::string wire_name = args.get_string("wire", "raw");
  if (wire_name != "raw" && wire_name != "sparse") {
    std::fprintf(stderr, "unknown --wire %s (raw|sparse)\n",
                 wire_name.c_str());
    return 2;
  }
  const mpisim::Wire wire =
      wire_name == "sparse" ? mpisim::Wire::kSparse : mpisim::Wire::kRaw;

  const std::string dist = args.get_string("dist", "uniform");
  if (dist != "uniform" && dist != "lognormal") {
    std::fprintf(stderr, "unknown --dist %s (uniform|lognormal)\n",
                 dist.c_str());
    return 2;
  }

  bench::banner("Fig 6: message-passing strong scaling, 32M global sum",
                "Fig 6 (§IV.B): MPI_Reduce with custom datatype/op, double "
                "vs HP(6,3) vs Hallberg(10,38), 1..128 ranks (mpisim: to "
                "4096)");
  std::printf("algo=%s wire=%s dist=%s\n\n", algo_name.c_str(),
              wire_name.c_str(), dist.c_str());

  const auto xs =
      dist == "lognormal"
          ? workload::lognormal_set(static_cast<std::size_t>(n), seed)
          : workload::uniform_set(static_cast<std::size_t>(n), seed);
  bench::sink(reduce_double(xs));  // warm pages/caches before any baseline
  util::TablePrinter table({"ranks", "t_double(model)", "eff_d",
                            "t_HP(model)", "eff_HP", "t_Hall(model)",
                            "eff_Hall", "HPwire(x)"});
  std::vector<Row> rows;
  Point d1;
  Point h1;
  Point b1;
  double hp_ref = 0;
  bool hp_invariant = true;
  for (int p = 1; p <= maxp; p *= 2) {
    Row row;
    row.ranks = p;
    row.d = point_double(xs, p, algo);
    row.h = point_hp(xs, p, algo, wire);
    row.b = point_hallberg(xs, p, algo);
    if (p == 1) {
      d1 = row.d;
      h1 = row.h;
      b1 = row.b;
      hp_ref = row.h.value;
    }
    hp_invariant = hp_invariant && (row.h.value == hp_ref);
    const double hp_wire_ratio =
        row.h.stats.wire_encoded_bytes > 0
            ? static_cast<double>(row.h.stats.wire_raw_bytes) /
                  static_cast<double>(row.h.stats.wire_encoded_bytes)
            : 1.0;
    table.begin_row();
    table.add_int(p);
    table.add_num(row.d.modeled, 4);
    table.add_num(d1.modeled / (p * row.d.modeled), 3);
    table.add_num(row.h.modeled, 4);
    table.add_num(h1.modeled / (p * row.h.modeled), 3);
    table.add_num(row.b.modeled, 4);
    table.add_num(b1.modeled / (p * row.b.modeled), 3);
    table.add_num(hp_wire_ratio, 2);
    rows.push_back(row);
  }
  bench::emit_table(table, args);
  for (const Row& row : rows) {
    if (row.ranks > row.h.stats.workers) {
      std::printf("caveat: %d ranks on %d workers: from p=%d the "
                  "root-combine timer includes co-scheduled ranks' local "
                  "phases, so t(model)/eff overstate the cost (see header)\n",
                  row.ranks, row.h.stats.workers, row.ranks);
      break;
    }
  }

  // Aggregate HP wire compression over the points that actually send
  // messages (p >= 2); p = 1 reduces in place.
  std::uint64_t hp_raw_total = 0;
  std::uint64_t hp_enc_total = 0;
  for (const Row& row : rows) {
    if (row.ranks < 2) continue;
    hp_raw_total += row.h.stats.wire_raw_bytes;
    hp_enc_total += row.h.stats.wire_encoded_bytes;
  }
  const double wire_ratio =
      hp_enc_total > 0 ? static_cast<double>(hp_raw_total) /
                             static_cast<double>(hp_enc_total)
                       : 1.0;

  std::printf("\nHP/double single-rank cost ratio: %.1fx (paper: 37-38x)\n",
              h1.modeled / d1.modeled);
  std::printf("HP sum bit-identical across all rank counts: %s\n",
              hp_invariant ? "yes" : "NO");
  std::printf("HP wire bytes (p>=2): raw %llu, encoded %llu (%.2fx)\n",
              static_cast<unsigned long long>(hp_raw_total),
              static_cast<unsigned long long>(hp_enc_total), wire_ratio);

  // --json=PATH: the BENCH_mpi.json schema (EXPERIMENTS.md) consumed by
  // tools/bench_smoke.py --fig6-json and the bench-smoke CI job.
  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig6_mpi\",\n"
                 "  \"format\": {\"n\": 6, \"k\": 3},\n"
                 "  \"n\": %lld,\n"
                 "  \"dist\": \"%s\",\n"
                 "  \"algo\": \"%s\",\n"
                 "  \"wire\": \"%s\",\n"
                 "  \"points\": [\n",
                 static_cast<long long>(n), dist.c_str(), algo_name.c_str(),
                 wire_name.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          f,
          "    {\"ranks\": %d, \"workers\": %d, \"t_double\": %.6f, "
          "\"t_hp\": %.6f, \"t_hallberg\": %.6f, \"hp_messages\": %llu, "
          "\"hp_wire_raw_bytes\": %llu, \"hp_wire_encoded_bytes\": %llu}%s\n",
          row.ranks, row.h.stats.workers, row.d.modeled, row.h.modeled,
          row.b.modeled,
          static_cast<unsigned long long>(row.h.stats.messages),
          static_cast<unsigned long long>(row.h.stats.wire_raw_bytes),
          static_cast<unsigned long long>(row.h.stats.wire_encoded_bytes),
          i + 1 < rows.size() ? "," : "");
    }
    // wire_ratio carries the bench_smoke acceptance floor (3x on sparse
    // lognormal runs); hp_invariant is a hard gate in every configuration.
    std::fprintf(f,
                 "  ],\n"
                 "  \"hp_invariant\": %s,\n"
                 "  \"hp_wire_raw_bytes\": %llu,\n"
                 "  \"hp_wire_encoded_bytes\": %llu,\n"
                 "  \"wire_ratio\": %.4f\n"
                 "}\n",
                 hp_invariant ? "true" : "false",
                 static_cast<unsigned long long>(hp_raw_total),
                 static_cast<unsigned long long>(hp_enc_total), wire_ratio);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!hp_invariant) return 1;
  return bench::finish(args);
}
