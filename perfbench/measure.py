"""Measurement helpers: percentiles, peak RSS, a closed-loop recorder,
the host-speed probe, and the span log the traced runs write out."""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 1]) of *samples*."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def windowed_percentile(samples, q: float, windows: int = 5) -> float:
    """Median over *windows* consecutive slices of *samples* (in
    completion order, so slices are roughly equal stretches of time)
    of each slice's percentile *q*.  A host stall confined to one or
    two slices then moves the reported tail by one rank instead of
    setting it."""
    n = max(1, min(windows, len(samples)))
    size = len(samples) / n
    return median([
        percentile(samples[round(k * size):round((k + 1) * size)], q)
        for k in range(n)
    ])


#: Seconds :func:`probe` takes on the reference host: the 2-vCPU Xeon
#: development host at a quiet moment.  Scaled times are in seconds of
#: that host.
PROBE_REF_S = 0.0225


def probe() -> float:
    """Seconds this process takes for a fixed piece of interpreter work
    (exact rational sums, dict stores, a sort: what the program's
    geometry and query code spend their time on).

    The shared host's speed drifts by 10-30% between runs minutes
    apart, because other tenants compete for the same cores.  A run
    times this probe between slices of its work, and reports its times
    scaled by :func:`speed_scale` of all its probes, so the reported
    times are those of the reference host and the drift cancels out.
    The probe calls nothing in the program, so a change to the program
    cannot move it.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 6000):
        acc += Fraction(1, i % 97 + 1)
        seen[i & 255] = (acc.denominator & 1023, i)
    sorted(seen.values())
    return perf_counter() - t0


def speed_scale(probes, exponent: float, fitted) -> float:
    """Factor that turns a run's seconds into seconds of the reference
    host: ``(PROBE_REF_S / median(probes)) ** exponent``.  One probe is
    short enough to land in a burst of contention; the median over the
    run is not.  *exponent* is how strongly a workload's times follow
    the probe's (see ``Workload.speed_exponent``).  *fitted* is the
    ``(low, high)`` median probe time, in seconds, of the runs the
    exponent was fitted and checked on; a median outside it is taken at
    the nearer end, because those runs say nothing about a host faster
    or slower than any of them."""
    low, high = fitted
    return (PROBE_REF_S / min(max(median(probes), low), high)) ** exponent


def median(samples) -> float:
    return statistics.median(samples) if samples else float("nan")


def vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (VmHWM) of a process, in KiB; 0 when the
    process is gone or /proc is unavailable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Recording:
    """Per-op outcomes of one closed-loop phase.

    Answers are checked as they arrive (outside the op's timed
    interval), so the recording holds only plain numbers: latency,
    op kind and stream index per answered op, plus counts of wrong
    answers and structured failures.  ``wall`` is the timed phase's
    wall time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.indices: list[int] = []
        self.wrong = 0
        self.errors = 0
        self.wall = 0.0

    def ok(self, i: int, kind: str, seconds: float, good: bool) -> None:
        self.latencies.append(seconds)
        self.kinds.append(kind)
        self.indices.append(i)
        self.wrong += not good

    def failed(self) -> None:
        self.errors += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors

    @property
    def correct(self) -> int:
        return len(self.latencies) - self.wrong

    def throughput(self) -> float:
        return self.correct / self.wall if self.wall else 0.0

    def extend(self, other: "Recording") -> None:
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.indices += other.indices
        self.wrong += other.wrong
        self.errors += other.errors
        self.wall += other.wall

    def latencies_of(self, kind: str) -> list[float]:
        return [t for t, k in zip(self.latencies, self.kinds) if k == kind]

    def indices_of(self, kind: str) -> list[int]:
        return [i for i, k in zip(self.indices, self.kinds) if k == kind]


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def ms(seconds_list) -> float:
    """Median of a list of seconds, in milliseconds."""
    return median(seconds_list) * 1e3


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
