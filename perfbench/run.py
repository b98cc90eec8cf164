#!/usr/bin/env python3
"""hpsum end-to-end benchmark.

Builds the library, exact_sum_cli and the measurement harness from the
sources of this checkout, runs one workload closed-loop for --seconds and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 they are the per-layer ones, computed from
the spans the harness records (written under the build directory).

    python3 perfbench/run.py --workload engine_stream --seed 1 \\
        --seconds 30 --trace 0

The build directory is $CARGO_TARGET_DIR, or .bench_build when unset.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_text", "engine_stream", "mpisim_wide")
# The harness may take this long beyond --seconds: five set-ups, and in
# trace runs the off-path probes.
HARNESS_MARGIN_S = 140
LAYERS = ("bench", "cli", "core", "engine", "mpisim", "audit")
# cli_text: CLI wall time that neither the replay nor the fixed cost covers.
UNEXPLAINED = "unexplained"
# Which operation kind exercises each layer on its blocking path.
HOME = {"cli_text": "cli", "engine_stream": "engine", "mpisim_wide": "mpisim"}


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no hpsum sources next to {HERE}; run from a full checkout", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    hook = os.path.join(HERE, "hpsum_perf.cmake")
    steps = [
        ["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DHPSUM_BUILD_TESTS=OFF", "-DHPSUM_BUILD_BENCH=OFF",
         "-DHPSUM_BUILD_EXAMPLES=ON", f"-DCMAKE_PROJECT_hpsum_INCLUDE={hook}"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "hpsum_perf", "exact_sum_cli"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed; full log in {log_path}")


def run_harness(build_dir, work, args):
    cmd = [os.path.join(build_dir, "hpsum_perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "examples", "exact_sum_cli"),
           "--work", work]
    # A process group of its own, so a timeout stops the harness and its
    # CLI children together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + HARNESS_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("harness timed out")
    if proc.returncode != 0:
        die(f"harness exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_text_with_fsum(raw):
    """Second oracle for cli_text: math.fsum over the very text the CLI
    reads, independent of both the HP kernel and the C++ oracle."""
    path = os.path.join(raw["work"], "cli_text.txt")
    with open(path) as f:
        values = [float(t) for t in f.read().split()]
    want = float.fromhex(raw["exact_hex"])
    got = math.fsum(values)
    if len(values) != raw["values"] or got != want:
        die(f"fsum oracle {got!r} over {len(values)} text values disagrees "
            f"with the reference {want!r}")


# ------------------------------------------------------------ host info --

def fingerprint(build_dir, raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = "unknown"
    try:
        base = "/sys/devices/system/cpu/cpu0/cache"
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as f:
                if f.read().strip() == "3":
                    with open(os.path.join(base, idx, "size")) as g:
                        l3 = g.read().strip()
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line and not line.startswith("//"):
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    btype = cache.get("CMAKE_BUILD_TYPE", "?")
    flags = (cache.get("CMAKE_CXX_FLAGS", "") + " "
             + cache.get(f"CMAKE_CXX_FLAGS_{btype.upper()}", "")).strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3,
        "simd": raw["simd"],
        "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
        "build_type": btype,
        "flags": flags,
        "hpsum_simd": cache.get("HPSUM_SIMD", "?"),
        "hpsum_trace": raw["trace_compiled"],
        "values": raw["values"],
        "value_bytes": raw["value_bytes"],
        "text_bytes": raw["text_bytes"] if raw["text_bytes"] >= 0 else None,
        "format": "HP(%d,%d)" % tuple(raw["format"]),
    }


# -------------------------------------------------------- end to end --

def end_to_end(raw):
    n = raw["values"]
    wall = raw["wall_ns"]
    rss = raw["rss_kb"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s",
                    len(raw["setup_s"])),
        "ns_per_value": (statistics.median(wall) / n, "ns", len(wall)),
        "peak_rss_mb": (statistics.median(rss) / 1024, "MB", len(rss)),
    }


# ----------------------------------------------------------- per layer --

class Spans:
    def __init__(self, path):
        self.by_op = defaultdict(list)
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                s["dur"] = s["t1"] - s["t0"]
                self.by_op[s["op"]].append(s)

    def ops(self, kind, has):
        """Ops of `kind` ("path"/"probe") that contain a span named `has`."""
        for spans in self.by_op.values():
            if any(s["name"] == has and s["kind"] == kind for s in spans):
                yield spans


def named(spans, name):
    return [s for s in spans if s["name"] == name]


def med(values):
    return statistics.median(values) if values else 0.0


def blocking_path(span, children, acc, end=None):
    """Attributes [span.t0, end] to layers along its blocking chain. Walking
    back from `end`, the child still running at the cursor (or else the one
    that ended last before it) blocked the parent; it is followed down to
    its own start, and time no child covers is the parent's self time."""
    layer = span["name"].split(".")[0]
    cur = span["t1"] if end is None else end
    kids = children.get(span["id"], [])
    while cur > span["t0"]:
        live = [k for k in kids if k["t0"] < cur]
        if not live:
            break
        c = max(live, key=lambda k: (min(k["t1"], cur), -k["t0"]))
        stop = min(c["t1"], cur)
        acc[layer] += cur - stop
        blocking_path(c, children, acc, stop)
        cur = max(c["t0"], span["t0"])
    acc[layer] += max(cur - span["t0"], 0)


def attribute(op_spans):
    children = defaultdict(list)
    for s in op_spans:
        children[s["parent"]].append(s)
    root = next(s for s in op_spans
                if s["parent"] == 0 and s["name"] == "bench.op")
    acc = defaultdict(int)
    blocking_path(root, children, acc)
    return root, acc


def per_layer(raw, spans):
    w = raw["workload"]
    home = HOME[w]
    kind_of = {k: ("path" if k == home else "probe") for k in HOME.values()}
    m = {}
    where = {}

    def put(name, value, unit, source):
        m[name] = (value, unit)
        where[name] = source

    # cli: the CLI's own calls, replayed in-process beside each real run.
    cli_ops = list(spans.ops(kind_of["cli"], "cli.process"))
    ingest = [s["dur"] / s["values"] for o in cli_ops
              for s in named(o, "cli.ingest")]
    # The CLI's fixed cost (start, parsing, output, exit), timed directly
    # on a one-value input beside each real run.
    startup = [s["dur"] / 1e6 for o in cli_ops for s in named(o, "cli.startup")]
    put("cli.ingest.ns_per_value", med(ingest), "ns", kind_of["cli"])
    put("cli.residual_ms", med(startup), "ms", kind_of["cli"])
    audit = [s for o in cli_ops for s in named(o, "audit.order_sensitivity")]
    put("audit.order_sensitivity_ms", med([s["dur"] / 1e6 for s in audit]),
        "ms", kind_of["cli"])
    put("audit.ns_per_value_per_trial",
        med([s["dur"] / (s["values"] * s["count"]) for s in audit]), "ns",
        kind_of["cli"])

    # core: single-threaded calls on this workload's full value set.
    core_ops = list(spans.ops("probe", "bench.core_probe"))
    for call in ("plan", "reduce_hp", "reduce_double"):
        put(f"core.{call}.ns_per_value",
            med([s["dur"] / s["values"] for o in core_ops
                 for s in named(o, f"core.{call}")]), "ns", "probe")
    hp = m["core.reduce_hp.ns_per_value"][0]
    dbl = m["core.reduce_double.ns_per_value"][0]
    put("core.hp_over_double", hp / dbl if dbl else 0.0, "ratio", "probe")
    home_ops = list(spans.ops("path", "bench.op"))
    put("core.render_us", med([s["dur"] / 1e3 for o in home_ops
                               for s in named(o, "core.render")]), "us",
        "path")
    deposits = raw["block_deposits"]
    put("core.block.simd_coverage",
        raw["simd_deposits"] / deposits if deposits else 0.0, "ratio",
        "path" if raw["trace_compiled"] else "n/a: HPSUM_TRACE=OFF")

    # engine: the sharded stream (path on engine_stream, probe elsewhere).
    eng_ops = list(spans.ops(kind_of["engine"], "engine.monitor"))
    dep_ns, lane_max, lane_mean, calls = [], [], [], []
    for o in eng_ops:
        deps, lanes = named(o, "engine.deposit"), named(o, "bench.lane")
        dep_ns.append(sum(s["dur"] for s in deps)
                      / sum(s["values"] for s in deps))
        calls.append(sum(s["count"] for s in deps))
        lane_max.append(max(s["dur"] for s in lanes) / 1e6)
        lane_mean.append(statistics.fmean(s["dur"] for s in lanes) / 1e6)
    src = kind_of["engine"]
    put("engine.deposit.ns_per_value", med(dep_ns), "ns", src)
    put("engine.deposit.calls", med(calls), "count", src)
    put("engine.lane_busy_max_ms", med(lane_max), "ms", src)
    put("engine.lane_busy_mean_ms", med(lane_mean), "ms", src)
    snap = raw["snapshot_us"]
    put("engine.snapshot.p50_us", snap["p50"], "us", src)
    put("engine.snapshot.p99_us", snap["p99"], "us", src)
    put("engine.snapshot.samples", snap["count"], "count", src)
    put("engine.snapshot.retries", raw["snapshot_retries"], "count", src)
    for call in ("drain", "checkpoint", "restore"):
        put(f"engine.{call}_us", med([s["dur"] / 1e3 for o in eng_ops
                                      for s in named(o, f"engine.{call}")]),
            "us", src)
    put("engine.checkpoint_bytes", raw["checkpoint_bytes"], "B", src)

    # mpisim: multiplexed ranks, local phase then allreduces.
    mpi_ops = list(spans.ops(kind_of["mpisim"], "mpisim.spawn"))
    src = kind_of["mpisim"]
    local = []
    for o in mpi_ops:
        lr = named(o, "engine.local_reduce")
        local.append(sum(s["dur"] for s in lr) / sum(s["values"] for s in lr))
    put("engine.local_reduce.ns_per_value", med(local), "ns", src)
    put("mpisim.spawn_ms", med([s["dur"] / 1e6 for o in mpi_ops
                                for s in named(o, "mpisim.spawn")]), "ms", src)
    ar = raw["allreduce_us"]
    put("mpisim.allreduce.p50_us", ar["p50"], "us", src)
    put("mpisim.allreduce.p99_us", ar["p99"], "us", src)
    put("mpisim.allreduce.samples", ar["count"], "count", src)
    put("mpisim.allreduce.rank_skew_us", raw["skew_us"]["p50"], "us", src)
    put("mpisim.messages_per_allreduce", raw["messages_per_allreduce"],
        "count", src)
    raw_b, enc_b = raw["raw_bytes_per_allreduce"], raw["wire_bytes_per_allreduce"]
    put("mpisim.wire.raw_bytes_per_allreduce", raw_b, "B", src)
    put("mpisim.wire.bytes_per_allreduce", enc_b, "B", src)
    put("mpisim.wire.ratio", raw_b / enc_b if enc_b else 0.0, "ratio", src)
    put("mpisim.wire.encode_ns_per_elem", raw["wire_encode_ns"]["p50"], "ns",
        src)
    put("mpisim.wire.decode_ns_per_elem", raw["wire_decode_ns"]["p50"], "ns",
        src)

    # Resident memory the long-lived harness gained between its first and
    # last operation: with mpisim's heap-allocated fiber stacks it creeps.
    put("bench.rss_growth_mb", raw["rss_growth_kb"] / 1024, "MB", "path")
    put("workload.generate_s", raw["generate_s"], "s", "path")
    put("workload.oracle_s", raw["oracle_s"], "s", "path")

    # Tracing overhead: traced minus untraced operations of this run.
    n = raw["values"]
    base = raw["replay_ns"] if w == "cli_text" else raw["wall_ns"]
    traced, untraced = med(raw["traced_ns"]), med(base)
    put("trace.overhead_ns_per_value", (traced - untraced) / n, "ns", "path")
    put("trace.overhead_ratio", traced / untraced if untraced else 0.0,
        "ratio", "path")

    # Self time per layer along the blocking path of this workload's ops.
    totals, op_ms = defaultdict(int), []
    for o in home_ops:
        root, acc = attribute(o)
        wall = root["dur"]
        if w == "cli_text":
            # The CLI process is the operation: the replayed calls, plus the
            # CLI's fixed cost timed on a one-value input. What neither
            # covers is reported apart, clamped at 0, since the CLI run and
            # its replay are separate measurements.
            proc, start = named(o, "cli.process"), named(o, "cli.startup")
            if not proc or not start:
                continue
            wall = proc[0]["dur"]
            acc["cli"] += start[0]["dur"]
            acc[UNEXPLAINED] += max(wall - root["dur"] - start[0]["dur"], 0)
        op_ms.append(wall / 1e6)
        for layer, ns in acc.items():
            totals[layer] += ns
    total = sum(totals.values())
    put("path.op_ms", med(op_ms), "ms", "path")
    for layer in LAYERS + (UNEXPLAINED,):
        put(f"path.{layer}.share", totals[layer] / total if total else 0.0,
            "ratio", "path")
    return m, where, totals, len(op_ms)


# -------------------------------------------------------------- report --

def summary_lines(raw, metrics, totals):
    """The reading of this run, computed from its own numbers."""
    lines = []
    if totals:
        total = sum(totals.values())
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])
        top = ", ".join(f"{k} {v / total:.1%}" for k, v in ranked[:3] if v > 0)
        lines.append(f"blocking path of {raw['workload']}: {top}")
        hp = metrics["core.reduce_hp.ns_per_value"][0]
        dbl = metrics["core.reduce_double.ns_per_value"][0]
        lines.append(f"exact HP sum costs {hp / dbl:.2f}x the plain double sum "
                     f"({hp:.3f} vs {dbl:.3f} ns/value, single thread)")
        ratio = metrics["mpisim.wire.ratio"][0]
        verdict = ("fewer" if ratio > 1 else "more") + " bytes than raw"
        lines.append(
            f"sparse wire sends {verdict}: "
            f"{metrics['mpisim.wire.bytes_per_allreduce'][0]:.0f} vs "
            f"{metrics['mpisim.wire.raw_bytes_per_allreduce'][0]:.0f} B per "
            f"allreduce (raw/encoded {ratio:.3f}x)")
        oh = metrics["trace.overhead_ratio"][0]
        lines.append(f"traced/untraced operation time {oh:.4f}x")
    else:
        n = raw["values"]
        ns = metrics["ns_per_value"][0]
        lines.append(f"{raw['workload']}: {ns:.3f} ns/value over {n} values = "
                     f"{1e3 / ns:.1f} M values/s")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", 2)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)
    work = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    raw = run_harness(build_dir, work, args)
    raw["work"] = work
    if args.workload == "cli_text":
        check_text_with_fsum(raw)

    fp = fingerprint(build_dir, raw)
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for note in raw["notes"]:
        print(f"FAILED: {note}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"error_rate       {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} operations failed)")

    if args.trace:
        spans = Spans(raw["spans"])
        m, where, totals, nops = per_layer(raw, spans)
        for name, (value, unit) in m.items():
            print(f"{name:40s} {value:16.6f} {unit:6s} [{where[name]}]")
        for layer in LAYERS + (UNEXPLAINED,):
            print(f"self time {layer:11s} {totals[layer] / 1e6 / max(nops, 1):12.3f}"
                  f" ms/op on the blocking path")
        metrics = m
        report = {"host": fp, "metrics": {k: {"value": v, "unit": u,
                                               "source": where[k]}
                                           for k, (v, u) in m.items()},
                  "self_ns_total": dict(totals), "ops": nops,
                  "spans": raw["spans"]}
        with open(os.path.join(work, f"{args.workload}.report.json"), "w") as f:
            json.dump(report, f, indent=1)
    else:
        e2e = end_to_end(raw)
        for name, (value, unit, count) in e2e.items():
            print(f"{name:16s} {value:16.6f} {unit:4s} (median of {count})")
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        totals = None
        # Workload-specific latencies and counts: in the report, and in the
        # JSON only as per-layer metrics of the traced run.
        if args.workload == "engine_stream":
            d = raw["snapshot_us"]
            print(f"snapshot_p50_us  {d['p50']:16.6f} us   (median of {d['count']})")
        elif args.workload == "mpisim_wide":
            d = raw["allreduce_us"]
            print(f"allreduce_p50_us {d['p50']:16.6f} us   (median of {d['count']})")
            print(f"wire_bytes_per_allreduce {raw['wire_bytes_per_allreduce']:.0f}"
                  f" B (exact count)")

    for line in summary_lines(raw, metrics, totals):
        print("reading: " + line)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
