"""Differential sharding suite: :class:`ShardedQueryService` must be
*transparent*.

Every answer served at 1, 2, or 4 shards must be bit-identical to the
single-process :class:`QueryService` and to direct evaluation — per
endpoint, per engine, per shard-pipeline backend, under concurrent
duplicate-heavy load, and under seeded fault schedules that kill shard
workers and tear their pipes (the ``SHARD_POINTS``).  Under faults the
guarantee weakens to: the bit-identical answer or a structured
:class:`~repro.errors.ReproError` — never a wrong answer, never a
hang (the service-suite flaky-watch and per-request deadlines hold
"never a hang" to 30 s).

The corpus and query sets are shared with the single-process
differential suite (``test_service_differential``) so the two suites
can never drift apart on what "correct" means.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    QueryService,
    ReproError,
    ShardedQueryService,
    canonical_hash,
    invariant,
    topologically_equivalent,
)
from repro.errors import ShardDownError
from repro.faults import SHARD_POINTS, Fault, FaultPlan, inject
from repro.invariant import instance_key
from repro.logic import (
    evaluate_cells,
    evaluate_point,
    evaluate_real,
    evaluate_rect,
    parse,
)
from tests.service.test_service_differential import (
    AB_CELL_QUERIES,
    AB_RECT_QUERIES,
    CORPUS,
    GENERIC_CELL_QUERIES,
    POINT_QUERIES,
    QUADRANT,
    QUADRANT_2,
    REAL_QUERIES,
)

SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["serial", "threads", "processes"]


def _sharded(n_shards, **kw):
    kw.setdefault("max_inflight", 8)
    svc = ShardedQueryService(n_shards=n_shards, **kw)
    for name, inst in CORPUS.items():
        svc.register(name, inst)
    svc.register("quad", QUADRANT)
    svc.register("quad2", QUADRANT_2)
    return svc


def _single(**kw):
    svc = QueryService(**kw)
    for name, inst in CORPUS.items():
        svc.register(name, inst)
    svc.register("quad", QUADRANT)
    svc.register("quad2", QUADRANT_2)
    return svc


class TestShardDifferentialAnswers:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_cells_and_rect_identical_across_shard_counts(self, engine):
        cell_jobs = [
            (name, q)
            for q in GENERIC_CELL_QUERIES
            for name in CORPUS
        ] + [
            (name, q)
            for q in AB_CELL_QUERIES
            for name in ("lens", "apart", "nested")
        ]
        rect_jobs = [
            (name, q)
            for q in AB_RECT_QUERIES
            for name in ("lens", "apart", "nested")
        ]
        cell_ref = {
            (name, q): evaluate_cells(parse(q), CORPUS[name], engine=engine)
            for name, q in cell_jobs
        }
        rect_ref = {
            (name, q): evaluate_rect(parse(q), CORPUS[name], engine=engine)
            for name, q in rect_jobs
        }

        async def main():
            # The single-process service is the second reference; the
            # sharded services must match both it and direct eval.
            async with _single() as single:
                for name, q in cell_jobs:
                    served = await single.ask_cells(name, q, engine=engine)
                    assert served.value == cell_ref[(name, q)], (name, q)
            # The shard counts run concurrently, so their worker
            # processes share the cores whichever shard the hash ring
            # routes each instance to.
            await asyncio.gather(
                *(check_sharded(shards) for shards in SHARD_COUNTS)
            )

        async def check_sharded(shards):
            async with _sharded(shards) as svc:
                for name, q in cell_jobs:
                    served = await svc.ask_cells(name, q, engine=engine)
                    assert served.value == cell_ref[(name, q)], (
                        shards, name, q, engine,
                    )
                for name, q in rect_jobs:
                    served = await svc.ask_rect(name, q, engine=engine)
                    assert served.value == rect_ref[(name, q)], (
                        shards, name, q, engine,
                    )

        asyncio.run(main())

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_real_and_point_identical_across_shard_counts(self, engine):
        real_ref = [
            evaluate_real(q, QUADRANT, engine=engine) for q in REAL_QUERIES
        ]
        point_ref = [
            evaluate_point(q, QUADRANT_2, engine=engine)
            for q in POINT_QUERIES
        ]

        async def main():
            for shards in SHARD_COUNTS:
                async with _sharded(shards) as svc:
                    for q, expect in zip(REAL_QUERIES, real_ref):
                        served = await svc.ask_real("quad", q, engine=engine)
                        assert served.value == expect, (shards, q, engine)
                    for q, expect in zip(POINT_QUERIES, point_ref):
                        served = await svc.ask_point(
                            "quad2", q, engine=engine
                        )
                        assert served.value == expect, (shards, q, engine)

        asyncio.run(main())

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invariants_and_equivalence_across_shard_backends(self, backend):
        names = ["lens", "apart", "nested", "chain"]
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }
        reference_eq = {
            (a, b): topologically_equivalent(CORPUS[a], CORPUS[b])
            for a in names
            for b in names
        }

        async def main():
            for shards in SHARD_COUNTS:
                svc = _sharded(
                    shards, shard_backend=backend, shard_workers=2
                )
                async with svc:
                    for n in names:
                        served = await svc.invariant_of(n)
                        assert (
                            canonical_hash(served.value) == reference_inv[n]
                        ), (shards, n, backend)
                        # Warm repeat: the parent's read-through cache
                        # must hand back the identical invariant.
                        again = await svc.invariant_of(n)
                        assert (
                            canonical_hash(again.value) == reference_inv[n]
                        ), (shards, n, backend, "warm")
                    for (a, b), expect in reference_eq.items():
                        served = await svc.equivalent(a, b)
                        assert served.value == expect, (shards, a, b, backend)

        asyncio.run(main())


class TestShardedConcurrentClients:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_duplicate_heavy_mixed_load_is_identical(self, shards):
        jobs = [
            (name, q)
            for q in GENERIC_CELL_QUERIES
            for name in CORPUS
        ] + [
            (name, q)
            for q in AB_CELL_QUERIES
            for name in ("lens", "apart", "nested")
        ]
        jobs = jobs * 3  # duplicate-heavy
        reference = {
            (name, q): evaluate_cells(parse(q), CORPUS[name])
            for name, q in set(jobs)
        }
        inv_names = list(CORPUS)
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in inv_names
        }

        async def main():
            async with _sharded(shards, max_queue=512) as svc:
                answers = await asyncio.gather(
                    *[svc.ask_cells(name, q) for name, q in jobs],
                    *[svc.invariant_of(n) for n in inv_names for _ in (0, 1)],
                )
                cell_answers = answers[: len(jobs)]
                inv_answers = answers[len(jobs):]
                for (name, q), answer in zip(jobs, cell_answers):
                    assert answer.value == reference[(name, q)], (name, q)
                assert any(a.coalesced for a in cell_answers)
                for i, answer in enumerate(inv_answers):
                    n = inv_names[i // 2]
                    assert (
                        canonical_hash(answer.value) == reference_inv[n]
                    ), n

        asyncio.run(main())


class TestShardChaos:
    """Seeded schedules over the shard fault points (worker crashes,
    torn pipes): every outcome is the bit-identical answer or a
    structured ReproError — zero wrong answers, bounded time."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.sampled_from([2, 4]),
    )
    def test_any_shard_fault_schedule_is_correct_or_structured(
        self, seed, shards
    ):
        names = ["lens", "apart", "nested", "chain", "grid"]
        keys = [instance_key(CORPUS[n]) for n in names]
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }
        reference_eq = {
            (a, b): topologically_equivalent(CORPUS[a], CORPUS[b])
            for a, b in [("lens", "apart"), ("apart", "nested")]
        }
        reference_cells = {
            n: evaluate_cells(parse(GENERIC_CELL_QUERIES[0]), CORPUS[n])
            for n in names
        }
        plan = FaultPlan.seeded(
            seed, keys, points=SHARD_POINTS, faults=4, max_times=2
        )
        wrong = []

        async def main():
            async with _sharded(shards) as svc:
                with inject(plan):
                    lookups = [
                        svc.invariant_of(n, timeout=30.0) for n in names
                    ]
                    checks = [
                        svc.equivalent(a, b, timeout=30.0)
                        for a, b in reference_eq
                    ]
                    cells = [
                        svc.ask_cells(
                            n, GENERIC_CELL_QUERIES[0], timeout=30.0
                        )
                        for n in names
                    ]
                    results = await asyncio.gather(
                        *lookups, *checks, *cells, return_exceptions=True
                    )
                inv_results = results[: len(names)]
                eq_results = results[len(names): len(names) + len(reference_eq)]
                cell_results = results[len(names) + len(reference_eq):]
                for n, res in zip(names, inv_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    elif canonical_hash(res.value) != reference_inv[n]:
                        wrong.append(("invariant", n))
                for (a, b), res in zip(reference_eq, eq_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (a, b, res)
                    elif res.value != reference_eq[(a, b)]:
                        wrong.append(("equivalent", a, b))
                for n, res in zip(names, cell_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    elif res.value != reference_cells[n]:
                        wrong.append(("cells", n))

        asyncio.run(main())
        assert not wrong, f"sharded service answered wrong: {wrong}"


class TestShardLifecycle:
    def test_crash_respawns_and_health_reports_it(self):
        async def main():
            async with _sharded(2) as svc:
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=1))
                ):
                    answer = await svc.invariant_of("lens", timeout=30.0)
                assert canonical_hash(answer.value) == canonical_hash(
                    invariant(CORPUS["lens"])
                )
                health = svc.health()
                assert sum(s["respawns"] for s in health["shards"]) == 1
                assert all(s["up"] for s in health["shards"])
                assert svc.readiness()["ready"]

        asyncio.run(main())

    def test_respawn_exhaustion_fails_fast_and_degrades(self):
        async def main():
            async with _sharded(1, max_shard_respawns=1) as svc:
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=10))
                ):
                    with pytest.raises(ReproError):
                        await svc.invariant_of("lens", timeout=30.0)
                # The shard is now permanently down: requests fail
                # fast with a structured 503, no queueing, no hang.
                with pytest.raises(ShardDownError) as err:
                    await svc.invariant_of("apart", timeout=30.0)
                assert err.value.status == 503
                assert err.value.shard == 0
                health = svc.health()
                assert health["status"] == "degraded"
                assert not health["shards"][0]["up"]
                ready = svc.readiness()
                assert not ready["ready"]
                assert "all shards down" in ready["reasons"]

        asyncio.run(main())

    def test_pipe_drop_mid_load_stays_correct(self):
        names = list(CORPUS)
        reference = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }

        async def main():
            async with _sharded(2) as svc:
                with inject(FaultPlan(Fault("shard_pipe_drop", times=1))):
                    results = await asyncio.gather(
                        *[
                            svc.invariant_of(n, timeout=30.0)
                            for n in names
                        ],
                        return_exceptions=True,
                    )
                for n, res in zip(names, results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    else:
                        assert canonical_hash(res.value) == reference[n], n

        asyncio.run(main())

    def test_registrations_replay_after_respawn(self):
        async def main():
            async with _sharded(1) as svc:
                # Kill the worker before it has served anything; the
                # respawned worker must still know the whole corpus.
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=1))
                ):
                    first = await svc.invariant_of("grid", timeout=30.0)
                for name in CORPUS:
                    served = await svc.ask_cells(
                        name, GENERIC_CELL_QUERIES[1], timeout=30.0
                    )
                    direct = evaluate_cells(
                        parse(GENERIC_CELL_QUERIES[1]), CORPUS[name]
                    )
                    assert served.value == direct, name
                assert first.value is not None

        asyncio.run(main())
