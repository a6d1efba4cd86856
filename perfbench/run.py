"""One benchmark command for the cold and query paths.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

``--workload`` is ``ingest``, ``query`` or ``serve`` (see
``workloads.py`` and ``BENCHMARK.json``).  The program is imported from
``src/`` of the checkout; the command exits with code 2, printing no
result, when that source tree is missing.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's set-up runs five times (``setup_s`` is their median), then
one closed-loop phase of ``--seconds``, in one-second slices with a
host-speed probe between them.  Times are reported in seconds of the
reference host (``measure.probe``); the line before the result gives
them as this host measured them.  ``--size tiny`` runs the same
workload on a handful of inputs with one set-up (smoke tests).

``--trace 1`` reports the per-layer metrics instead: it alternates
untraced and traced blocks of the same loop (the difference is the
tracing overhead), rolls up the traced blocks' spans, and times direct
calls into each layer.  Per-layer rows whose home is another workload
come from a tiny pass of that workload in the same process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong answer makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced/traced block order of a traced run: ABBA, repeated so
#: that drift in machine speed slower than a block cancels out of the
#: difference.
BLOCKS = "UTTU" * 4
CROSS_SECONDS = 1.5
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Length of one slice of an untraced timed phase; a host-speed probe
#: runs between slices (``measure.probe``).
SLICE_S = 1.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ingest", "query", "serve"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def timed_phase(w, ctx, seconds, probes):
    """The workload's closed loop for *seconds*, in slices of about
    ``SLICE_S`` with a host-speed probe (appended to *probes*) before,
    between and after them."""
    from measure import Recording, probe

    n = max(1, round(seconds / SLICE_S))
    rec = Recording()
    i = 0
    probes.append(probe())
    for _ in range(n):
        part, i = w.loop(ctx, i, seconds / n)
        rec.extend(part)
        probes.append(probe())
    return rec


def run_untraced(w, args):
    from measure import median, percentile, probe, speed_scale, \
        windowed_percentile

    n_setups = 1 if w.tiny else SETUPS
    setups, probes = [], []
    ctx = None
    for _ in range(n_setups):
        if ctx is not None:
            w.close(ctx)
        # The previous set-up's garbage is collected before, not
        # during, the next timed phase.
        gc.collect()
        probes.append(probe())
        ctx = w.setup()
        setups.append(ctx["setup_s"])
    try:
        w.prepare(ctx)
        gc.collect()
        rec = timed_phase(w, ctx, args.seconds, probes)
        # Before the oracle reads the whole store back.
        rss = w.peak_rss_mib(ctx)
        wrong = rec.wrong + w.verify(ctx, rec)
        store_bytes = w.store_bytes_per_instance(ctx)
    finally:
        w.close(ctx)
    ok = max(0, len(rec.latencies) - wrong)
    raw = {
        "setup_s": median(setups),
        "throughput_ops_s": rec.throughput(),
        "latency_p50_ms": percentile(rec.latencies, 0.5) * 1e3,
        "latency_tail_ms": windowed_percentile(rec.latencies, w.tail) * 1e3,
    }
    scale = speed_scale(probes, w.speed_exponent, w.probe_fitted_s)
    metrics = {k: v * scale for k, v in raw.items()}
    metrics["throughput_ops_s"] = raw["throughput_ops_s"] / scale
    metrics.update({
        "ok_share": ok / max(1, rec.attempted),
        "peak_rss_mib": rss,
        "store_bytes_per_instance": store_bytes,
    })
    print(f"{w.name}: probe median {median(probes) * 1e3:.4f} ms, scale "
          f"{scale:.4f}; as measured: " + ", ".join(
              f"{k} {v:.5g}" for k, v in raw.items()))
    return rec.attempted, rec.attempted - ok, wrong, metrics


def traced_pass(w, seconds, pattern):
    """Set up once, run *pattern* blocks (``U`` untraced, ``T``
    traced), verify, and measure the ledger.  Returns ``(attempted,
    failed, wrong, metrics)``."""
    from repro.instrument import counter_delta, counter_snapshot
    from repro.tracing import Trace, Tracer, installed

    from measure import Recording, percentile

    gc.collect()
    ctx = w.setup()
    try:
        w.prepare(ctx)
        gc.collect()
        recs = {"U": Recording(), "T": Recording()}
        roots = []
        deltas: dict[str, int] = {}
        cache = ctx["pipeline"].cache
        hits = lookups = 0
        i = 0
        block = seconds / len(pattern)
        for mode in pattern:
            if mode == "U":
                rec, i = w.loop(ctx, i, block)
            else:
                tracer = Tracer()
                c0 = counter_snapshot()
                h0, m0 = cache.hits, cache.misses
                with installed(tracer):
                    rec, i = w.loop(ctx, i, block, tracer)
                for k, v in counter_delta(c0, counter_snapshot()).items():
                    deltas[k] = deltas.get(k, 0) + v
                hits += cache.hits - h0
                lookups += cache.hits - h0 + cache.misses - m0
                roots.extend(tracer.finish().roots)
            recs[mode].extend(rec)
        ctx["cache_hits"], ctx["cache_lookups"] = hits, lookups
        ctx["next_index"] = i
        everything = Recording()
        everything.extend(recs["U"])
        everything.extend(recs["T"])
        wrong = everything.wrong + w.verify(ctx, everything)
        trace = Trace(roots, {"workload": w.name, "seed": w.seed})
        metrics = w.ledger(ctx, recs["T"], trace, deltas)
        wrong += ctx.get("ledger_wrong", 0)
    finally:
        w.close(ctx)
    if "U" in pattern:
        u, t = recs["U"], recs["T"]
        d_thr = t.throughput() - u.throughput()
        d_p50 = (percentile(t.latencies, 0.5)
                 - percentile(u.latencies, 0.5)) * 1e3
        metrics["trace.throughput_delta_ops_s"] = d_thr
        metrics["trace.latency_p50_delta_ms"] = d_p50
        broken = d_thr > 0 or d_p50 < 0
        metrics["trace.overhead_broken"] = int(broken)
        if broken:
            print(f"{w.name}: negative tracing overhead "
                  f"(throughput {d_thr:+.3f} ops/s, p50 {d_p50:+.4f} ms): "
                  "the measurement is broken, not the code faster")
        from measure import write_json

        write_json(
            ROOT / ".perfbench_out" / f"trace-{w.name}-{w.seed}.json",
            {"self_times": trace.self_times(), "overhead": {
                "throughput_delta_ops_s": d_thr,
                "latency_p50_delta_ms": d_p50,
            }},
        )
    attempted = everything.attempted
    failed = attempted - max(0, len(everything.latencies) - wrong)
    return attempted, failed, wrong, metrics


def run_traced(w, args, workdir):
    import spec
    from workloads import WORKLOADS

    attempted, failed, wrong, metrics = traced_pass(w, args.seconds, BLOCKS)
    for name, cls in WORKLOADS.items():
        missing = [k for k in spec.PER_LAYER if k not in metrics]
        if not missing:
            break
        if name == w.name:
            continue
        other = cls(w.seed, "tiny", workdir)
        a, f, x, m = traced_pass(other, CROSS_SECONDS, "T")
        attempted, failed, wrong = attempted + a, failed + f, wrong + x
        for k in missing:
            if k in m:
                metrics[k] = m[k]
    return attempted, failed, wrong, metrics


def _reap_children() -> None:
    """Stop any worker process still alive (a run that failed before
    closing its service) and wait for it."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spec
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, args.size, workdir)
    print(f"{args.workload}: seed {args.seed}, op stream digest "
          f"{w.stream_digest()}, size {args.size}")
    try:
        if args.trace:
            attempted, failed, wrong, metrics = run_traced(w, args, workdir)
            units = spec.PER_LAYER
        else:
            attempted, failed, wrong, metrics = run_untraced(w, args)
            units = spec.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _reap_children()
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    if wrong:
        print(f"{args.workload}: {wrong} wrong answers")
    if failed > wrong:
        print(f"{args.workload}: {failed - wrong} ops failed with a "
              "structured error")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": units[k]} for k in units
        },
    }
    # allow_nan=False: a metric with no samples fails the run loudly
    # instead of printing invalid JSON.
    print(json.dumps(result, allow_nan=False))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
