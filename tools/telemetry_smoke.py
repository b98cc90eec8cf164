#!/usr/bin/env python3
"""Smoke gate for every telemetry export (schemas in docs/OBSERVABILITY.md).

Drives the flags of the telemetry front door (audit/telemetry.hpp) on real
binaries and validates what they write:

  * --metrics (bench/ablate_convert at --n and 2n): ``"hpsum_trace": 2``,
    ``"enabled": true``, non-negative integer counters with the required
    names present and the scatter/reference adder counts nonzero and
    monotone in --n; every histogram carries ``count``/``sum`` and a
    bucket array of the catalog width with ``sum(buckets) == count``; the
    required gauges are non-negative integers.
  * --flight (bench/fig6_mpi_scaling, to a ``.bin`` path, which must hold
    Chrome JSON like any other path): a ``traceEvents`` array of Chrome
    events (name/ph/pid/tid, ts unless "M"), >= 2 "mpisim <rank>" lanes,
    an ``mpi.reduce`` reduction_id shared by >= 2 rank lanes, and matched
    B/E counts per (pid, tid, name).
  * --pulse/--pulse-prom (fig6): a JSONL header with ``"hpsum_pulse": 1``,
    ``"enabled": true``, ``interval_ms`` and ``epoch_ms``; >= --min-ticks
    ticks with seq 1,2,3,..., ts_ms monotone from epoch_ms, nonzero
    non-negative deltas, sparse histogram buckets in range summing to
    ``count``, and every name present in the same run's --metrics export;
    a Prometheus exposition of ``# TYPE`` lines and samples, counters
    non-negative, histogram buckets cumulative in ``le`` order ending at
    ``+Inf`` with the ``_count`` total.
  * --pulse-interval-ms=0 makes a harness exit 2 with the usage line, and
    a harness that exits early with --pulse armed exits 2, not abort.
  * With --cli (part of the pulse gate): the health rules of ``exact_sum_cli --health`` (name,
    warn_at, fail_at, higher_is_better, in order) equal
    tools/hpsum_top.py's HEALTH_RULES, so the two tables cannot drift.

With ``--expect-disabled`` (HPSUM_TRACE=OFF builds) the metrics export must
say ``"enabled": false`` with every counter, histogram and gauge zero, the
pulse stream must be the header alone with ``"enabled": false`` and no
Prometheus file, and the flight export an empty ``traceEvents`` array; the
flag and health-rule checks are the same.

``--gate metrics|flight|pulse`` (repeatable) runs only the named gates; the
default is all three. The flag-rejection and health-rule checks ride with
the pulse gate.

Exit status: 0 on pass, 1 on a validation failure, 2 on usage errors.
Registered one gate per ctest as ``metrics_smoke``, ``flight_smoke`` and
``pulse_smoke`` (``*_smoke_disabled`` in HPSUM_TRACE=OFF builds) and run
whole by the telemetry-smoke CI job.
"""

import argparse
import collections
import importlib.util
import json
import pathlib
import re
import subprocess
import sys
import tempfile

# Must match trace::kHistBuckets.
HIST_BUCKETS = 48
REQUIRED_COUNTERS = [
    "core.scatter_add.calls",
    "core.reference_add.calls",
    "core.status_raise.inexact",
    "atomic.cas.adds",
    "atomic.cas.retries",
    "adaptive.grow_int",
    "backends.reductions",
]
# ablate_convert's scatter and reference streams must make these fire.
NONZERO_COUNTERS = ["core.scatter_add.calls", "core.reference_add.calls"]
REQUIRED_HISTS = [
    "core.scatter_add.carry_chain",
    "core.block.flush_depth",
    "core.reduce.latency_ns",
    "atomic.cas.retries_per_add",
    "mpisim.msg_bytes",
]
REQUIRED_GAUGES = [
    "core.block.limb_occupancy",
    "adaptive.cur_n",
    "adaptive.cur_k",
]
PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?\d+(\.\d+)?([eE][+-]?\d+)?)$"
)
PROM_LE = re.compile(r'le="([^"]+)"')
# --gate choices; the pulse gate also runs the flag and health-rule checks.
GATES = ("metrics", "flight", "pulse")


def nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def run(cmd, expect_rc=0):
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != expect_rc:
        raise RuntimeError(f"{cmd[0]} exited {proc.returncode}, expected "
                           f"{expect_rc}\n{proc.stderr}")
    return proc.stderr


# ---------------------------------------------------------------- metrics --

def check_metrics(doc, failures, enabled):
    """Validates one --metrics export; returns its counters."""
    if doc.get("hpsum_trace") != 2:
        failures.append('metrics: missing/wrong "hpsum_trace": 2 marker')
        return {}
    if doc.get("enabled") is not enabled:
        failures.append(f'metrics: "enabled" is not {str(enabled).lower()} '
                        f"— expected an HPSUM_TRACE={'ON' if enabled else 'OFF'}"
                        " build")
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        failures.append('metrics: "histograms" object missing')
        hists = {}
    for name in REQUIRED_HISTS:
        if name not in hists:
            failures.append(f"metrics: required histogram {name!r} missing")
    for name, h in hists.items():
        buckets = h.get("buckets") if isinstance(h, dict) else None
        if not isinstance(buckets, list) or len(buckets) != HIST_BUCKETS:
            failures.append(f"metrics: histogram {name!r} buckets is not a "
                            f"{HIST_BUCKETS}-wide array")
            continue
        if not all(nonneg_int(b) for b in buckets):
            failures.append(f"metrics: histogram {name!r} has non-integer "
                            "buckets")
            continue
        for key in ("count", "sum"):
            if not nonneg_int(h.get(key)):
                failures.append(f"metrics: histogram {name!r} {key} is not a "
                                f"non-negative integer: {h.get(key)!r}")
        if nonneg_int(h.get("count")) and sum(buckets) != h["count"]:
            failures.append(f"metrics: histogram {name!r}: sum(buckets)="
                            f"{sum(buckets)} != count={h['count']}")
        if not enabled and (h.get("count") or sum(buckets)):
            failures.append(f"metrics: histogram {name!r} is nonzero in a "
                            "disabled build — probes were not compiled out")
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        failures.append('metrics: "gauges" object missing')
        gauges = {}
    for name in REQUIRED_GAUGES:
        if name not in gauges:
            failures.append(f"metrics: required gauge {name!r} missing")
    for name, v in gauges.items():
        if not nonneg_int(v):
            failures.append(f"metrics: gauge {name!r} is not a non-negative "
                            f"integer: {v!r}")
        elif not enabled and v != 0:
            failures.append(f"metrics: gauge {name!r} is {v} in a disabled "
                            "build")
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        failures.append('metrics: "counters" object missing or empty')
        return {}
    for name, v in counters.items():
        if not nonneg_int(v):
            failures.append(f"metrics: counter {name!r} is not a "
                            f"non-negative integer: {v!r}")
        elif not enabled and v != 0:
            failures.append(f"metrics: counter {name!r} is {v} in a disabled "
                            "build — probes were not compiled out")
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            failures.append(f"metrics: required counter {name!r} missing")
    if enabled:
        for name in NONZERO_COUNTERS:
            if counters.get(name, 0) == 0:
                failures.append(f"metrics: counter {name!r} is zero — the "
                                "fast path never fired")
    return counters


def gate_metrics(convert, n, tmp, failures, enabled):
    docs = []
    for size in ([n, 2 * n] if enabled else [n]):
        path = tmp / f"metrics_{size}.json"
        run([convert, f"--n={size}", f"--metrics={path}"])
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    counters = [check_metrics(d, failures, enabled) for d in docs]
    # Each run is a fresh process, so counters are per-run totals: doubling
    # --n must not shrink them.
    if enabled:
        for name in NONZERO_COUNTERS:
            lo, hi = counters[0].get(name, 0), counters[1].get(name, 0)
            print(f"  {name:28s} n={n}: {lo:>12}  n={2 * n}: {hi:>12}")
            if hi < lo:
                failures.append(f"metrics: {name} shrank when --n doubled "
                                f"({lo} -> {hi})")
    return len(counters[0])


# ----------------------------------------------------------------- flight --

def load_chrome(path, failures):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"flight: export is not well-formed JSON: {e}")
        return None
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        failures.append('flight: "traceEvents" array missing')
        return None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            failures.append(f"flight: traceEvents[{i}] is not an object")
            return None
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                failures.append(f"flight: traceEvents[{i}] missing {key!r}")
                return None
        if ev["ph"] != "M" and "ts" not in ev:
            failures.append(f"flight: traceEvents[{i}] ({ev['name']}) "
                            "missing 'ts'")
            return None
    return events


def check_timeline(events, failures):
    # Rank lanes: process_name metadata named "mpisim <rank>".
    rank_pids = {ev["pid"]: ev.get("args", {}).get("name", "")
                 for ev in events
                 if ev["ph"] == "M" and ev["name"] == "process_name"
                 and ev.get("args", {}).get("name", "").startswith("mpisim ")}
    print(f"  mpisim rank lanes: {len(rank_pids)} "
          f"({', '.join(sorted(rank_pids.values()))})")
    if len(rank_pids) < 2:
        failures.append(f"flight: expected >= 2 mpisim rank lanes, got "
                        f"{len(rank_pids)} — per-rank set_track never ran?")
    # Correlation: one logical reduction, many ranks.
    rid_to_pids = collections.defaultdict(set)
    for ev in events:
        if ev["name"] == "mpi.reduce" and ev["ph"] == "B" \
                and ev["pid"] in rank_pids:
            rid = ev.get("args", {}).get("reduction_id")
            if rid is not None:
                rid_to_pids[rid].add(ev["pid"])
    correlated = [r for r, pids in rid_to_pids.items() if len(pids) >= 2]
    print(f"  mpi.reduce reduction ids: {len(rid_to_pids)} total, "
          f"{len(correlated)} spanning >= 2 ranks")
    if not rid_to_pids:
        failures.append("flight: no mpi.reduce begin spans with a "
                        "reduction_id")
    elif not correlated:
        failures.append("flight: no reduction_id is shared by mpi.reduce "
                        "spans on >= 2 rank lanes — the correlation key is "
                        "broken")
    # Span hygiene: B/E counts must match per (pid, tid, name).
    depth = collections.Counter()
    for ev in events:
        if ev["ph"] in ("B", "E"):
            depth[(ev["pid"], ev["tid"], ev["name"])] += \
                1 if ev["ph"] == "B" else -1
    for (pid, tid, name), v in sorted(depth.items()):
        if v != 0:
            failures.append(f"flight: unbalanced span {name!r} on pid={pid} "
                            f"tid={tid}: B-E = {v:+d}")


# ------------------------------------------------------------------ pulse --

def read_jsonl(path, failures):
    lines = []
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if raw.strip():
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError as e:
                failures.append(f"pulse: line {lineno} is not valid JSON: "
                                f"{e}")
    return lines


def check_tick(i, tick, catalog, failures):
    counters, hists, gauges = catalog
    for key in ("seq", "ts_ms", "counters", "histograms", "gauges"):
        if key not in tick:
            failures.append(f"pulse: tick {i}: missing {key!r}")
            return
    for name, v in tick["counters"].items():
        if name not in counters:
            failures.append(f"pulse: tick {i}: unknown counter {name!r}")
        if not nonneg_int(v) or v == 0:
            failures.append(f"pulse: tick {i}: counter {name!r} delta {v!r} "
                            "is not a positive integer (ticks carry nonzero "
                            "deltas only)")
    for name, h in tick["histograms"].items():
        if name not in hists:
            failures.append(f"pulse: tick {i}: unknown histogram {name!r}")
        if not isinstance(h, dict) or not nonneg_int(h.get("count")) \
                or not nonneg_int(h.get("sum")):
            failures.append(f"pulse: tick {i}: histogram {name!r} malformed")
            continue
        buckets = h.get("buckets")
        if not isinstance(buckets, dict):
            failures.append(f"pulse: tick {i}: histogram {name!r} buckets is "
                            "not a sparse object")
            continue
        for idx, c in buckets.items():
            if not idx.isdigit() or int(idx) >= HIST_BUCKETS:
                failures.append(f"pulse: tick {i}: histogram {name!r} bucket "
                                f"index {idx!r} out of range")
            if not nonneg_int(c) or c == 0:
                failures.append(f"pulse: tick {i}: histogram {name!r} bucket "
                                f"{idx!r} count {c!r} invalid")
        total = sum(c for c in buckets.values() if nonneg_int(c))
        if total != h["count"]:
            failures.append(f"pulse: tick {i}: histogram {name!r} bucket "
                            f"total {total} != count {h['count']}")
    for name, v in tick["gauges"].items():
        if name not in gauges:
            failures.append(f"pulse: tick {i}: unknown gauge {name!r}")
        if not nonneg_int(v):
            failures.append(f"pulse: tick {i}: gauge {name!r} value {v!r} "
                            "invalid")


def check_stream(lines, catalog, min_ticks, failures):
    if not lines:
        failures.append("pulse: stream is empty")
        return
    header, ticks = lines[0], lines[1:]
    if header.get("hpsum_pulse") != 1:
        failures.append('pulse: header missing "hpsum_pulse": 1')
    if header.get("enabled") is not True:
        failures.append('pulse: header "enabled" is not true — was the bench '
                        "built with HPSUM_TRACE=OFF?")
    for key in ("interval_ms", "epoch_ms"):
        if not nonneg_int(header.get(key)):
            failures.append(f"pulse: header {key!r} missing or invalid")
    if len(ticks) < min_ticks:
        failures.append(f"pulse: only {len(ticks)} ticks, expected >= "
                        f"{min_ticks} — the sampler thread never ran?")
    prev_ts = header.get("epoch_ms", 0)
    for i, tick in enumerate(ticks, start=1):
        check_tick(i, tick, catalog, failures)
        seq, ts = tick.get("seq"), tick.get("ts_ms")
        if seq != i:
            failures.append(f"pulse: tick {i}: seq is {seq!r}, expected {i}")
        if not nonneg_int(ts) or ts < prev_ts:
            failures.append(f"pulse: tick {i}: ts_ms {ts!r} is not monotone "
                            f"(previous {prev_ts})")
        else:
            prev_ts = ts


def check_prometheus(text, failures):
    buckets = {}  # series -> [(le, cumulative)]
    counts = {}
    typed = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "histogram",
                                                   "gauge"):
                failures.append(f"prom line {lineno}: bad TYPE comment")
            else:
                typed.add(parts[2])
            continue
        m = PROM_SAMPLE.match(line)
        if m is None:
            failures.append(f"prom line {lineno}: unparsable sample: "
                            f"{line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", float(m.group(3))
        if value < 0:
            failures.append(f"prom line {lineno}: negative sample {name}")
        if name.endswith("_bucket"):
            le = PROM_LE.search(labels)
            if le is None:
                failures.append(f"prom line {lineno}: _bucket without le")
                continue
            bound = float("inf") if le.group(1) == "+Inf" \
                else float(le.group(1))
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (bound, value))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = value
    if not typed:
        failures.append("prom: exposition has no TYPE comments")
    for series, pairs in buckets.items():
        bounds = [b for b, _ in pairs]
        values = [v for _, v in pairs]
        if bounds != sorted(bounds) or bounds[-1] != float("inf"):
            failures.append(f"prom histogram {series}: le bounds not "
                            "ascending to +Inf")
        if values != sorted(values):
            failures.append(f"prom histogram {series}: bucket series not "
                            "cumulative")
        if series in counts and values[-1] != counts[series]:
            failures.append(f"prom histogram {series}: +Inf bucket "
                            f"{values[-1]} != _count {counts[series]}")


# ------------------------------------------------------------------ gates --

def gate_flight(fig6, tmp, failures, enabled):
    """The flight run; returns a summary."""
    flight = tmp / "flight.bin"
    run([fig6, "--n=20000", "--maxp=4", f"--flight={flight}"])
    events = load_chrome(flight, failures)
    if events is not None and enabled:
        if not events:
            failures.append('flight: "traceEvents" array is empty')
        else:
            check_timeline(events, failures)
    elif events:
        failures.append(f"flight: disabled build exported {len(events)} "
                        "events, expected none")
    return f"{len(events or [])} flight events"


def gate_pulse(fig6, args, tmp, failures, enabled):
    """The pulse run; returns a summary."""
    jsonl, prom, metrics = tmp / "pulse.jsonl", tmp / "pulse.prom", \
        tmp / "pulse_metrics.json"
    run([fig6, f"--n={args.pulse_n}", f"--maxp={args.pulse_maxp}",
         f"--pulse={jsonl}", f"--pulse-interval-ms={args.interval_ms}",
         f"--pulse-prom={prom}", f"--metrics={metrics}"])
    lines = read_jsonl(jsonl, failures)
    if not enabled:
        if len(lines) != 1:
            failures.append(f"pulse: disabled build wrote {len(lines)} "
                            "lines, expected the header only")
        if lines and lines[0].get("enabled") is not False:
            failures.append('pulse: disabled header must carry "enabled": '
                            "false")
        if lines and lines[0].get("hpsum_pulse") != 1:
            failures.append('pulse: disabled header missing "hpsum_pulse": 1')
        if prom.exists():
            failures.append("pulse: disabled build wrote a Prometheus file")
        return "pulse header-only"
    # Every name a tick carries must exist in the same run's full export.
    doc = json.loads(metrics.read_text(encoding="utf-8"))
    catalog = tuple(set(doc.get(k, {}))
                    for k in ("counters", "histograms", "gauges"))
    if not all(catalog):
        failures.append("pulse: --metrics export is missing catalog "
                        "sections; cannot cross-check pulse names")
    check_stream(lines, catalog, args.min_ticks, failures)
    if not prom.exists():
        failures.append("pulse: --pulse-prom file was never written")
    else:
        check_prometheus(prom.read_text(encoding="utf-8"), failures)
    return f"{max(len(lines) - 1, 0)} pulse ticks"


def gate_flag_rejection(fig6, tmp, failures):
    err = run([fig6, "--pulse-interval-ms=0"], expect_rc=2)
    if "--pulse-interval-ms" not in err or "usage:" not in err:
        failures.append("flags: --pulse-interval-ms=0 did not print the "
                        f"error and the usage line: {err!r}")
    # Early exits with the sampler running must still stop it (an unjoined
    # sampler thread aborts the process): a bad value read after arming,
    # and a harness's own early return.
    for flag in ("--maxp=abc", "--algo=bogus"):
        run([fig6, f"--pulse={tmp / 'early_exit.jsonl'}", flag], expect_rc=2)


def gate_health_rules(cli, tmp, failures):
    spec = importlib.util.spec_from_file_location(
        "hpsum_top", pathlib.Path(__file__).resolve().parent / "hpsum_top.py")
    top = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(top)
    want = [(name, warn_at, fail_at, hib)
            for name, _num, _den, warn_at, fail_at, hib, _na
            in top.HEALTH_RULES]
    path = tmp / "health.json"
    print("+", cli, f"--health={path}", "< 1 2 3")
    subprocess.run([str(cli), f"--health={path}"], input="1 2 3\n",
                   text=True, stdout=subprocess.DEVNULL, check=True)
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = [(i["name"], i["warn_at"], i["fail_at"], i["higher_is_better"])
           for i in doc["indicators"]]
    if got != want:
        failures.append("health: tools/hpsum_top.py HEALTH_RULES differ from "
                        f"src/audit/health.cpp: {want} != {got}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir for binaries not given below")
    ap.add_argument("--convert", help="path to bench/ablate_convert")
    ap.add_argument("--fig6", help="path to bench/fig6_mpi_scaling")
    ap.add_argument("--cli", help="path to examples/exact_sum_cli (the "
                    "health-rule drift check is skipped without it)")
    ap.add_argument("--n", type=int, default=20_000,
                    help="ablate_convert summands for the small metrics run")
    ap.add_argument("--pulse-n", type=int, default=200_000,
                    help="fig6 summands for the pulsed run")
    ap.add_argument("--pulse-maxp", type=int, default=16,
                    help="fig6 max rank count for the pulsed run")
    ap.add_argument("--interval-ms", type=int, default=10,
                    help="pulse tick interval")
    ap.add_argument("--min-ticks", type=int, default=2,
                    help="minimum tick lines the stream must carry")
    ap.add_argument("--expect-disabled", action="store_true",
                    help="validate an HPSUM_TRACE=OFF build")
    ap.add_argument("--gate", action="append", choices=GATES,
                    help="run only this gate (repeatable; default: all)")
    args = ap.parse_args()
    gates = args.gate or list(GATES)

    build = pathlib.Path(args.build_dir)
    convert = pathlib.Path(args.convert or build / "bench" / "ablate_convert")
    fig6 = pathlib.Path(args.fig6 or build / "bench" / "fig6_mpi_scaling")
    cli = pathlib.Path(args.cli) if args.cli else None
    needed = [convert] if "metrics" in gates else []
    if "flight" in gates or "pulse" in gates:
        needed.append(fig6)
    if "pulse" in gates and cli is not None:
        needed.append(cli)
    for binary in needed:
        if not binary.exists():
            print(f"telemetry_smoke: {binary} not built", file=sys.stderr)
            return 2

    enabled = not args.expect_disabled
    failures, summary = [], []
    with tempfile.TemporaryDirectory(prefix="hpsum_telemetry_") as d:
        tmp = pathlib.Path(d)
        if "metrics" in gates:
            n_counters = gate_metrics(convert, args.n, tmp, failures, enabled)
            summary.append(f"{n_counters} counters")
        if "flight" in gates:
            summary.append(gate_flight(fig6, tmp, failures, enabled))
        if "pulse" in gates:
            summary.append(gate_pulse(fig6, args, tmp, failures, enabled))
            gate_flag_rejection(fig6, tmp, failures)
            if cli is not None:
                gate_health_rules(cli, tmp, failures)
                summary.append("health rules in sync")

    if failures:
        print("telemetry_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"telemetry_smoke: PASS ({'enabled' if enabled else 'disabled'}: "
          f"{', '.join(summary)})")
    return 0

if __name__ == "__main__":
    sys.exit(main())
