"""Tiny-size smoke of every workload on a second seed.

For each workload, runs ``run.py --size tiny`` untraced and traced and
asserts: the run exits 0 with ``correct`` true and no failures; every
metric ``BENCHMARK.json`` names is printed with its unit; ``ok_share``
is exactly 1.0; the op-stream digest is the same in both runs (same
seed, byte-identical stream) and differs on another seed.  Finally the
command must refuse, with a non-zero exit and no result line, to run in
a directory holding only ``BENCHMARK.json`` and the benchmark's files::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _digest(stdout: str) -> str:
    first = stdout.splitlines()[0]
    return first.split("digest ")[1].split(",")[0]


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    digests = []
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", name, "--seed", str(SEED),
                    "--seconds", "2", "--trace", str(trace),
                    "--size", "tiny")
        tag = f"{name} --trace {trace}"
        if proc.returncode != 0:
            return [f"{tag}: exit {proc.returncode}\n{proc.stderr}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digests.append(_digest(proc.stdout))
        if not result["correct"] or result["failed"] or not result["attempted"]:
            problems.append(f"{tag}: {result['correct']=} "
                            f"{result['failed']=} {result['attempted']=}")
        metrics = result["metrics"]
        for m in spec[table]:
            got = metrics.get(m["name"])
            if got is None:
                problems.append(f"{tag}: metric {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"{tag}: {m['name']} unit {got['unit']!r} "
                                f"!= {m['unit']!r}")
        extra = set(metrics) - {m["name"] for m in spec[table]}
        if extra:
            problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
        if trace == 0 and metrics["ok_share"]["value"] != 1.0:
            problems.append(f"{tag}: ok_share {metrics['ok_share']}")
    if digests[0] != digests[1]:
        problems.append(f"{name}: same seed, different digests {digests}")
    other = _run(ROOT, "--workload", name, "--seed", str(SEED + 1),
                 "--seconds", "0.5", "--size", "tiny")
    if other.returncode == 0 and _digest(other.stdout) == digests[0]:
        problems.append(f"{name}: seeds {SEED} and {SEED + 1} share a digest")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's source the command must fail cleanly."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "ingest", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the command did not refuse to run"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for w in spec["workloads"]:
        found = check_workload(w["name"], spec)
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
