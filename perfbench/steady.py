"""Steadiness report over a set of benchmark runs.

Runs ``run.py`` once per seed for each workload (untraced), then prints
for every end-to-end metric its median, quartiles, IQR/median and
(max-min)/median, marking a metric whose IQR share exceeds its bound
in ``BENCHMARK.json`` with ``!!`` and one above a third of it with
``~``::

    python3 perfbench/steady.py --workloads ingest query serve --seeds 1-10
    python3 perfbench/steady.py --compare a.json b.json
    python3 perfbench/steady.py --fit a.json b.json

Each set is saved as JSON (``--save``), with each run's median probe
time and unscaled times; ``--compare`` checks two saved sets against
each other: a median that moved by more than the metric's bound is
marked ``!!``.  ``--fit`` prints, per workload and time, the slope of
log time against log probe time over the saved runs: the
``speed_exponent`` they suggest (``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workloads, seeds, seconds) -> dict:
    out: dict[str, list] = {}
    for workload in workloads:
        rows = out.setdefault(workload, [])
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{proc.returncode}")
            result = json.loads(lines[-1])
            row = {k: v["value"] for k, v in result["metrics"].items()}
            row["_wall_s"] = wall
            row["_seed"] = seed
            row.update(_as_measured(lines))
            rows.append(row)
            print(f"{workload} seed {seed}: {wall:.1f}s wall, "
                  f"correct={result['correct']}", file=sys.stderr)
    return out


def _as_measured(lines) -> dict:
    """The run's median probe time and its unscaled times, from the
    line ``run.py`` prints before the result."""
    for line in lines:
        if ": probe median " in line:
            head, _, tail = line.partition("; as measured: ")
            probe_ms = float(head.split("probe median ")[1].split()[0])
            raw = {k: float(v) for k, v in
                   (item.split() for item in tail.split(", "))}
            return {"_probe_ms": probe_ms, "_raw": raw}
    return {}


def fit(runs: dict) -> None:
    """Least-squares slope of log time against log probe time over the
    runs of each workload: the ``speed_exponent`` the runs suggest
    (throughput is a rate, so its slope is negated)."""
    for workload, rows in runs.items():
        rows = [r for r in rows if "_raw" in r]
        if len(rows) < 3:
            continue
        x = [math.log(r["_probe_ms"]) for r in rows]
        mx = statistics.fmean(x)
        sxx = sum((a - mx) ** 2 for a in x)
        print(f"\n{workload}: exponent fitted over {len(rows)} runs, "
              f"probe {min(r['_probe_ms'] for r in rows):.2f}-"
              f"{max(r['_probe_ms'] for r in rows):.2f} ms")
        for name in rows[0]["_raw"]:
            y = [math.log(r["_raw"][name]) for r in rows]
            my = statistics.fmean(y)
            slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx \
                if sxx else float("nan")
            sign = -1 if name == "throughput_ops_s" else 1
            print(f"  {name:26} {sign * slope:+.2f}")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0, (
        (max(values) - min(values)) / med if med else 0.0
    )


def report(runs: dict, bounds: dict) -> bool:
    steady = True
    for workload, rows in runs.items():
        walls = [r["_wall_s"] for r in rows]
        print(f"\n{workload}: {len(rows)} runs, wall "
              f"{min(walls):.1f}-{max(walls):.1f}s")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} bound")
        for name, m in bounds.items():
            values = [r[name] for r in rows]
            med, q1, q3, iqr, rng = spread(values)
            bound = m["bound"]
            mark = ""
            if name != "setup_s" and iqr > bound:
                mark, steady = "!!", False
            elif name != "setup_s" and iqr > bound / 3:
                mark = "~"
            print(f"  {name:26} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{iqr:8.3f} {rng:9.3f} {bound:.2f} {mark}")
    return steady


def compare(a: dict, b: dict, bounds: dict) -> bool:
    agree = True
    for workload in a:
        print(f"\n{workload}: median of set B vs set A")
        for name, m in bounds.items():
            ma = statistics.median(r[name] for r in a[workload])
            mb = statistics.median(r[name] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            mark = "!!" if worse > m["bound"] else ""
            agree &= not mark
            print(f"  {name:26} {ma:12.5g} {mb:12.5g} worse {worse:+.3f} "
                  f"bound {m['bound']:.2f} {mark}")
    return agree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=["ingest", "query", "serve"])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--save", type=Path, default=None)
    p.add_argument("--compare", nargs=2, type=Path, default=None)
    p.add_argument("--fit", nargs="+", type=Path, default=None,
                   help="saved sets to fit each workload's speed exponent on")
    args = p.parse_args(argv)
    bounds, run_seconds = _bounds()
    if args.fit:
        merged: dict[str, list] = {}
        for path in args.fit:
            for workload, rows in json.loads(path.read_text()).items():
                merged.setdefault(workload, []).extend(rows)
        fit(merged)
        return 0
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        for runs in (a, b):
            report(runs, bounds)
        return 0 if compare(a, b, bounds) else 1
    runs = run_set(args.workloads, _seeds(args.seeds),
                   args.seconds or run_seconds)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(runs, indent=1))
    return 0 if report(runs, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
