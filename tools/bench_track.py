#!/usr/bin/env python3
"""bench_track — the perf-trajectory ledger over the bench-smoke artifacts.

Each bench-smoke run regenerates three point-in-time artifacts
(``bench/BENCH_scatter.json``, ``bench/BENCH_block.json``,
``bench/BENCH_mpi.json``) but nothing retained the *history* — whether the
scatter fast path has been drifting down since the SIMD PR, or how the
wire-compression ratio moved when topologies changed. This tool
consolidates the three artifacts into one schema-checked time series,
``bench/TRAJECTORY.json``, which the bench-smoke CI job appends to so
every PR extends the trajectory.

Commands:
  append   read BENCH_*.json from --bench-dir, distill one trajectory
           entry (headline speedups + wire ratio + provenance label), and
           append it to TRAJECTORY.json (validating before writing; a
           malformed ledger is never extended, and duplicate labels are
           replaced rather than duplicated)
  check    validate TRAJECTORY.json against the schema and exit 0/1
           (registered as the ``bench_trajectory`` ctest)
  show     print the trajectory as an aligned table

Entry schema (version 1):
  label           provenance string (--label, else $GITHUB_SHA, else "local")
  date            ISO-8601 UTC timestamp of the append
  scatter.min_speedup, scatter.streams.{all-positive,all-negative,mixed}
  block.gate_speedup, block.samesign_min_speedup, block.simd
  mpi.wire_ratio  raw/encoded bytes at the largest rank count
  mpi.max_ranks, mpi.algo, mpi.wire
  engine.overhead_ratio, engine.max_deposits_per_s   (optional section,
                  present when bench/BENCH_engine.json was produced by the
                  run — the ShardSet deposit path vs the direct
                  accumulator; entries predating the engine omit it)

Exit status: 0 on success, 1 on schema/validation failure, 2 on usage
errors (missing inputs).
"""

import argparse
import datetime
import json
import os
import pathlib
import sys

VERSION = 1


def fail(msg):
    print(f"bench_track: {msg}", file=sys.stderr)
    return 1


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def positive_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def distill(bench_dir, label, date):
    """One trajectory entry from the three BENCH_*.json artifacts."""
    scatter = load_json(bench_dir / "BENCH_scatter.json")
    block = load_json(bench_dir / "BENCH_block.json")
    mpi = load_json(bench_dir / "BENCH_mpi.json")

    streams = {s["stream"]: s["speedup"] for s in scatter.get("streams", [])}
    points = mpi.get("points", [])
    top = max(points, key=lambda p: p.get("ranks", 0)) if points else {}
    raw = top.get("hp_wire_raw_bytes", 0)
    enc = top.get("hp_wire_encoded_bytes", 0)
    entry = {
        "label": label,
        "date": date,
        "scatter": {
            "min_speedup": scatter.get("min_speedup"),
            "streams": streams,
        },
        "block": {
            "gate_speedup": block.get("gate_speedup"),
            "samesign_min_speedup": block.get("samesign_min_speedup"),
            "simd": block.get("simd"),
        },
        "mpi": {
            "wire_ratio": round(raw / enc, 4) if enc else None,
            "max_ranks": top.get("ranks"),
            "algo": mpi.get("algo"),
            "wire": mpi.get("wire"),
        },
    }
    # Optional: the engine ablation exists only for runs that exercised the
    # --engine bench-smoke gate (PR 10 onward); older runs simply omit it.
    engine_path = bench_dir / "BENCH_engine.json"
    if engine_path.exists():
        engine = load_json(engine_path)
        rates = [p.get("deposits_per_s", 0)
                 for p in engine.get("points", [])]
        entry["engine"] = {
            "overhead_ratio": engine.get("overhead_ratio"),
            "max_deposits_per_s": max(rates) if rates else None,
        }
    return entry


def validate(doc, failures):
    if not isinstance(doc, dict) or doc.get("hpsum_trajectory") != VERSION:
        failures.append(f'missing/wrong "hpsum_trajectory": {VERSION} marker')
        return
    entries = doc.get("entries")
    if not isinstance(entries, list):
        failures.append('"entries" is not a list')
        return
    prev_date = ""
    for i, e in enumerate(entries):
        where = f"entry {i}"
        if not isinstance(e, dict):
            failures.append(f"{where}: not an object")
            continue
        label = e.get("label")
        if not isinstance(label, str) or not label:
            failures.append(f"{where}: missing label")
        date = e.get("date", "")
        try:
            datetime.datetime.fromisoformat(date)
        except (TypeError, ValueError):
            failures.append(f"{where}: date {date!r} is not ISO-8601")
            date = prev_date
        if date < prev_date:
            failures.append(f"{where}: dates not monotone "
                            f"({prev_date!r} -> {date!r})")
        prev_date = date
        for section, keys in (("scatter", ["min_speedup"]),
                              ("block", ["gate_speedup",
                                         "samesign_min_speedup"])):
            sec = e.get(section)
            if not isinstance(sec, dict):
                failures.append(f"{where}: missing {section!r} section")
                continue
            for k in keys:
                if not positive_number(sec.get(k)):
                    failures.append(f"{where}: {section}.{k} is not a "
                                    f"positive number: {sec.get(k)!r}")
        streams = e.get("scatter", {}).get("streams")
        if not isinstance(streams, dict) or not streams:
            failures.append(f"{where}: scatter.streams missing/empty")
        elif any(not positive_number(v) for v in streams.values()):
            failures.append(f"{where}: scatter.streams has non-positive "
                            "speedups")
        mpi = e.get("mpi")
        if not isinstance(mpi, dict):
            failures.append(f"{where}: missing 'mpi' section")
        else:
            ratio = mpi.get("wire_ratio")
            if ratio is not None and not positive_number(ratio):
                failures.append(f"{where}: mpi.wire_ratio is not positive: "
                                f"{ratio!r}")
        engine = e.get("engine")  # optional: absent before PR 10
        if engine is not None:
            if not isinstance(engine, dict):
                failures.append(f"{where}: 'engine' section is not an object")
            elif not positive_number(engine.get("overhead_ratio")):
                failures.append(
                    f"{where}: engine.overhead_ratio is not a positive "
                    f"number: {engine.get('overhead_ratio')!r}")


def load_trajectory(path):
    if path.exists():
        return load_json(path)
    return {"hpsum_trajectory": VERSION, "entries": []}


def cmd_append(args):
    bench_dir = pathlib.Path(args.bench_dir)
    for name in ("BENCH_scatter.json", "BENCH_block.json", "BENCH_mpi.json"):
        if not (bench_dir / name).exists():
            print(f"bench_track: {bench_dir / name} missing — run the "
                  "bench-smoke suite first", file=sys.stderr)
            return 2
    label = args.label or os.environ.get("GITHUB_SHA", "local")[:12] or "local"
    date = args.date or datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    entry = distill(bench_dir, label, date)

    path = pathlib.Path(args.trajectory)
    doc = load_trajectory(path)
    failures = []
    validate(doc, failures)
    if failures:
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return fail(f"refusing to append to a malformed {path}")
    # Re-running for the same label (CI retry) replaces, never duplicates.
    doc["entries"] = [e for e in doc["entries"] if e.get("label") != label]
    doc["entries"].append(entry)
    failures = []
    validate(doc, failures)
    if failures:
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return fail("distilled entry failed validation; nothing written")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"bench_track: appended {label!r} "
          f"(entry {len(doc['entries'])}) to {path}")
    return 0


def cmd_check(args):
    path = pathlib.Path(args.trajectory)
    if not path.exists():
        return fail(f"{path} does not exist")
    try:
        doc = load_json(path)
    except json.JSONDecodeError as e:
        return fail(f"{path} is not valid JSON: {e}")
    failures = []
    validate(doc, failures)
    if failures:
        print("bench_track: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench_track: PASS ({len(doc['entries'])} trajectory entries)")
    return 0


def cmd_show(args):
    path = pathlib.Path(args.trajectory)
    if not path.exists():
        return fail(f"{path} does not exist")
    doc = load_json(path)
    print(f"{'label':14s} {'date':26s} {'scatter':>8s} {'block':>8s} "
          f"{'samesign':>9s} {'wire':>6s} {'engine':>7s}")
    for e in doc.get("entries", []):
        ratio = e.get("mpi", {}).get("wire_ratio")
        eng = (e.get("engine") or {}).get("overhead_ratio")
        print(f"{e.get('label', '?'):14s} {e.get('date', '?'):26s} "
              f"{e.get('scatter', {}).get('min_speedup', 0):>8.3f} "
              f"{e.get('block', {}).get('gate_speedup', 0):>8.3f} "
              f"{e.get('block', {}).get('samesign_min_speedup', 0):>9.3f} "
              f"{ratio if ratio is not None else float('nan'):>6.2f} "
              f"{eng if eng is not None else float('nan'):>7.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("command", choices=["append", "check", "show"])
    ap.add_argument("--bench-dir", default="bench",
                    help="directory holding BENCH_*.json (append)")
    ap.add_argument("--trajectory", default="bench/TRAJECTORY.json",
                    help="the trajectory ledger path")
    ap.add_argument("--label", default=None,
                    help="provenance label (default $GITHUB_SHA or 'local')")
    ap.add_argument("--date", default=None,
                    help="ISO-8601 timestamp override (default: now, UTC)")
    args = ap.parse_args()
    return {"append": cmd_append, "check": cmd_check,
            "show": cmd_show}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
