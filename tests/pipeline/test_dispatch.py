"""Differential tests for the process-dispatch path.

The process backend ships each closed-form instance through the pool
pipe as RAI1 bytes and falls back to JSON per instance for regions that
codec cannot carry.  Dispatch must be invisible in results: invariants
bit-identical to the serial backend on every corpus — including mixed
corpora where some instances take the JSON fallback — with fault
recovery intact.
"""

import pytest

from repro import Rect, SpatialInstance, invariant
from repro.faults import Fault, FaultPlan, inject
from repro.invariant import canonical_hash, instance_key
from repro.pipeline import InvariantPipeline, RetryPolicy
from repro.regions import AlgRegion


def _corpus(n: int) -> list[SpatialInstance]:
    return [
        SpatialInstance({"A": Rect(0, 0, 4 + i, 4)}) for i in range(n)
    ]


def _mixed_corpus() -> list[SpatialInstance]:
    insts = _corpus(3)
    insts.append(SpatialInstance({"C": AlgRegion.circle(0, 0, 2, n=8)}))
    insts.append(
        SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "C": AlgRegion.circle(4, 4, 1, n=8)}
        )
    )
    return insts


def _policy(**kw) -> RetryPolicy:
    kw.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kw)


def _hashes(backend, corpus, **kw):
    with InvariantPipeline(backend=backend, workers=2, **kw) as pipe:
        invs = pipe.compute_batch(corpus)
        stats = pipe.stats
    return [canonical_hash(t) for t in invs], stats


@pytest.mark.slow
class TestDifferential:
    def test_closed_form_corpus_bit_identical(self):
        corpus = _corpus(6)
        got, stats = _hashes("processes", corpus)
        want, _ = _hashes("serial", corpus)
        assert got == want
        assert stats.dispatch_json == 0

    def test_mixed_corpus_falls_back_per_instance(self):
        corpus = _mixed_corpus()
        got, stats = _hashes("processes", corpus)
        want, _ = _hashes("serial", corpus)
        assert got == want
        # The two curved instances took the JSON fallback; the three
        # closed-form ones went as RAI1 bytes.
        assert stats.dispatch_json == 2

    def test_serial_reference_agrees(self):
        corpus = _mixed_corpus()
        got, _ = _hashes("processes", corpus)
        # The plain paper computation, no pipeline or cache in between.
        assert got == [canonical_hash(invariant(inst)) for inst in corpus]


@pytest.mark.slow
class TestFaultsOnArraysPath:
    """Worker crashes while tasks travel as RAI1 array bytes."""

    def test_worker_crash_recovers(self):
        corpus = _corpus(6)
        key = instance_key(corpus[2])
        plan = FaultPlan(Fault("worker_crash", times=1, key=key))
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy()
        ) as pipe:
            with inject(plan):
                invs = pipe.compute_batch(corpus)
        assert len(invs) == 6
        assert pipe.stats.pool_respawns == 1
        want, _ = _hashes("serial", corpus)
        assert [canonical_hash(t) for t in invs] == want
