"""The three workloads: ``ingest`` (cold path), ``query`` (warm query
path, in-process service) and ``serve`` (the query layers behind shard
workers, with writes beside reads).

Each workload class follows one protocol, driven by ``run.py``:

``setup()``
    The program's own set-up, timed as ``setup_s``.  Returns a context
    dict; ``close(ctx)`` releases it.
``prepare(ctx)``
    Oracle answers computed before timing and not counted in set-up.
``loop(ctx, start, seconds, tracer)``
    One closed-loop phase from stream index *start*; returns a
    :class:`~measure.Recording`.  With a tracer installed the loop
    records one benchmark span per layer call (the program's own
    ``instrument.stage`` spans nest underneath).
``check(ctx, i, desc, value)``
    The oracle for one answer, called as it arrives (outside the op's
    timed interval); a wrong answer counts against ``ok_share``.
``verify(ctx, rec)``
    Whole-state checks after the loop; returns the number of wrong
    findings.
``ledger(ctx, rec, trace)``
    Per-layer metrics measured from outside the program: spans of the
    traced blocks, counter deltas, and direct timed calls into each
    layer's public functions on a sample of the workload's inputs.

Sizes: ``full`` is the measured configuration; ``tiny`` is the same
workload on a handful of inputs (smoke tests and cross-workload
per-layer rows).
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
from pathlib import Path
from time import perf_counter

from repro import (
    InvariantPipeline,
    QueryService,
    ReproError,
    SegmentStore,
    ShardedQueryService,
    TopologicalInvariant,
    are_isomorphic,
    canonical_hash,
    instance_key,
    invariant,
)
from repro.arrangement import (
    Subdivision,
    build_complex,
    compute_labels,
    planarize,
)
from repro.instrument import counter_delta, counter_snapshot
from repro.logic import evaluate_cells
from repro.logic.compiled import clear_universe_cache, compiled_universe

import inputs
from measure import Recording, median, ms, timed, vm_hwm_kib

MIB = 1024.0


def _fresh_dir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _span_ms(trace, name: str) -> float:
    """p50 duration of the benchmark spans called *name*, in ms."""
    return ms([s.duration for s in trace.find(name)])


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _certified_share(delta: dict) -> float:
    fast = (
        delta.get("kernel.orientation_fast", 0)
        + delta.get("kernel.intersect_fast", 0)
        + delta.get("kernel.intersect_bbox_reject", 0)
    )
    exact = delta.get("kernel.orientation_exact", 0) + delta.get(
        "kernel.intersect_exact", 0
    )
    return _ratio(fast, fast + exact)


class Workload:
    name = ""
    #: Which percentile ``latency_tail_ms`` reports: the highest of
    #: p90/p99 with at least ten samples beyond it in each of the five
    #: windows of a measured run (see ``measure.windowed_percentile``).
    tail = 0.99
    clients = 1
    #: How strongly this workload's times follow the host-speed probe
    #: (``measure.speed_scale``): the slope of log time against log
    #: probe time over runs of the unchanged program, fitted on the
    #: development host (``DESIGN.md``, "Host-speed scaling").
    speed_exponent: float
    #: Range of the median probe time, in seconds, over the runs that
    #: exponent was fitted and checked on; scaling does not extrapolate
    #: beyond it.
    probe_fitted_s: tuple[float, float]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.tiny = size == "tiny"
        self.workdir = workdir
        self.setups = 0

    def close(self, ctx) -> None:
        """Release a set-up's resources (idempotent)."""
        if not ctx.get("closed"):
            ctx["closed"] = True
            self._close(ctx)

    #: JSON-able inputs outside the op stream (corpus, windows).
    fixed_inputs: list = []

    def stream_digest(self) -> str:
        return inputs.digest(self.stream, self.fixed_inputs)

    def store_bytes_per_instance(self, ctx) -> float:
        store = ctx["store"]
        return store.nbytes / max(1, len(store))

    def peak_rss_mib(self, ctx) -> float:
        return vm_hwm_kib() / MIB

    # -- closed loops -------------------------------------------------------

    def _async_loop(self, ctx, start, seconds, tracer, execute):
        """*clients* coroutines sharing one stream iterator; each sends
        its next op only after the previous one answered."""
        rec = Recording()
        counter = itertools.count(start)
        stream = self.stream

        async def client(end):
            while perf_counter() < end:
                i = next(counter)
                desc = stream(i)
                prepared = self.prepare_op(ctx, desc)
                span = (
                    tracer.start_span(f"bench.{desc[0]}", push=False)
                    if tracer is not None
                    else None
                )
                t0 = perf_counter()
                try:
                    value = await execute(ctx, desc, prepared, tracer)
                except ReproError:
                    rec.failed()
                    continue
                finally:
                    if span is not None:
                        tracer.finish_span(span)
                seconds = perf_counter() - t0
                rec.ok(i, desc[0], seconds, self.check(ctx, i, desc, value))

        async def main():
            t0 = perf_counter()
            end = t0 + seconds
            await asyncio.gather(*(client(end) for _ in range(self.clients)))
            rec.wall = perf_counter() - t0

        ctx["loop"].run_until_complete(main())
        return rec, next(counter)

    def prepare_op(self, ctx, desc):
        return None

    def verify(self, ctx, rec) -> int:
        return 0


# -- ingest --------------------------------------------------------------------


#: Memory-cache entries of the ingest pipeline.  The cache never hits on
#: this stream; it only holds the newest invariants.  With the default
#: 1024 entries it would still be filling during the whole timed phase,
#: so peak RSS would count how many ops the host managed; with fewer
#: entries than the warm-up set it is full before timing starts, and RSS
#: is the steady state of a long-running ingest.
INGEST_CACHE = 16


class Ingest(Workload):
    """Cold path, 1 client: ``InvariantPipeline.compute`` →
    ``canonical_hash`` → ``SegmentStore.put`` on a stream of distinct
    homeomorphic images of a few base instances."""

    name = "ingest"
    tail = 0.90
    speed_exponent = 0.65
    probe_fitted_s = (0.013, 0.028)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        names = inputs.TINY_INGEST_BASES if self.tiny else tuple(
            inputs.INGEST_BASES
        )
        self.bases = {n: inputs.INGEST_BASES[n]() for n in names}
        self.stream = inputs.ingest_stream(seed, names)
        n_warm = len(names) * (1 if self.tiny else 3)
        # Warm-up images use negative stream indices: distinct from
        # every timed op, identical across the repeated set-ups.
        self.warm_descs = [self.stream(i) for i in range(-n_warm, 0)]
        self.warm = [
            inputs.ingest_instance(d, self.bases) for d in self.warm_descs
        ]

    def setup(self):
        self.setups += 1
        root = _fresh_dir(self.workdir, f"ingest-{self.setups}")
        t0 = perf_counter()
        pipeline = InvariantPipeline(cache_size=INGEST_CACHE)
        store = SegmentStore(root, sync="seal")
        _, bulk_s = timed(store.bulk_load, self.warm, pipeline)
        setup_s = perf_counter() - t0
        return {
            "pipeline": pipeline,
            "store": store,
            "root": root,
            "setup_s": setup_s,
            "bulk_load_s": bulk_s,
        }

    def _close(self, ctx):
        ctx["pipeline"].close()
        ctx["store"].close()
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def prepare(self, ctx):
        ctx["base_hash"] = {
            n: canonical_hash(invariant(b)) for n, b in self.bases.items()
        }
        ctx["ingested"] = [
            (instance_key(x), ctx["base_hash"][d[0]])
            for d, x in zip(self.warm_descs, self.warm)
        ]

    def loop(self, ctx, start, seconds, tracer=None):
        rec = Recording()
        pipeline, store = ctx["pipeline"], ctx["store"]
        span = tracer.span if tracer is not None else None
        i = start
        think = 0.0
        t_start = perf_counter()
        end = t_start + seconds
        while perf_counter() < end:
            # Building the image is the client's think time: it is
            # input generation, not a call into the program.
            g0 = perf_counter()
            desc = self.stream(i)
            inst = inputs.ingest_instance(desc, self.bases)
            t0 = perf_counter()
            think += t0 - g0
            try:
                if span is None:
                    key = instance_key(inst)
                    t = pipeline.compute(inst)
                    h = canonical_hash(t)
                    store.put(key, t, instance=inst, canonical_hash=h)
                else:
                    with span("bench.ingest"):
                        with span("bench.pipeline.compute"):
                            key = instance_key(inst)
                            t = pipeline.compute(inst)
                        with span("bench.invariant.canonical_hash"):
                            h = canonical_hash(t)
                        with span("bench.store.put"):
                            store.put(key, t, instance=inst, canonical_hash=h)
            except ReproError:
                rec.failed()
            else:
                seconds = perf_counter() - t0
                expected = ctx["base_hash"][desc[0]]
                ctx["ingested"].append((key, expected))
                rec.ok(i, "ingest", seconds, h == expected)
            i += 1
        rec.wall = perf_counter() - t_start - think
        return rec, i

    def verify(self, ctx, rec):
        """Store round trip of every ingested record and
        equivalence-class counts (each image was checked against its
        base's hash as it was ingested: invariance under
        homeomorphisms)."""
        store = ctx["store"]
        wrong = 0
        per_class: dict[str, int] = {}
        for key, expected in ctx["ingested"]:
            per_class[expected] = per_class.get(expected, 0) + 1
            back = store.get(key)
            if back is None or canonical_hash(back) != expected:
                wrong += 1
        for h, n in per_class.items():
            if len(store.keys_for_class(h)) != n:
                wrong += 1
        return wrong

    def ledger(self, ctx, rec, trace, deltas):
        m = {
            "pipeline.compute_ms": _span_ms(trace, "bench.pipeline.compute"),
            "invariant.canonical_hash_ms": _span_ms(
                trace, "bench.invariant.canonical_hash"
            ),
            "store.put_ms": _span_ms(trace, "bench.store.put"),
            "store.segments_rolled": deltas.get("store.segments_rolled", 0),
            "pipeline.cache_hit_ratio": _ratio(
                ctx["cache_hits"], ctx["cache_lookups"]
            ),
        }
        # Direct decomposition of the first traced ops' images: three
        # rotations of (base, transform) pairs.
        n = 3 * len(self.bases) * len(inputs.TRANSFORMS)
        times = {k: [] for k in (
            "planarize", "subdivision", "labeling", "build", "reduce",
            "from_complex",
        )}
        pieces, cells, soa = [], [], []
        kernel: dict[str, int] = {}
        for i in rec.indices[:n]:
            inst = inputs.ingest_instance(self.stream(i), self.bases)
            segments = [
                s for _, r in inst.items() for s in r.boundary_segments()
            ]
            c0 = counter_snapshot()
            got, t_pl = timed(planarize, segments)
            sub, t_sub = timed(Subdivision, got)
            _, t_lab = timed(compute_labels, inst, sub)
            cx, t_build = timed(build_complex, inst)
            delta = counter_delta(c0, counter_snapshot())
            for k, v in delta.items():
                kernel[k] = kernel.get(k, 0) + v
            _, t_fc = timed(TopologicalInvariant.from_complex, cx)
            times["planarize"].append(t_pl)
            times["subdivision"].append(t_sub)
            times["labeling"].append(t_lab)
            times["build"].append(t_build)
            times["reduce"].append(max(0.0, t_build - t_pl - t_sub - t_lab))
            times["from_complex"].append(t_fc)
            pieces.append(len(got))
            n_cells = cx.arrays.n_cells
            cells.append(n_cells)
            soa.append(cx.arrays.nbytes() / n_cells)
        m.update({
            "arrangement.planarize_ms": ms(times["planarize"]),
            "arrangement.subdivision_ms": ms(times["subdivision"]),
            "arrangement.labeling_ms": ms(times["labeling"]),
            "arrangement.build_ms": ms(times["build"]),
            "arrangement.reduce_ms": ms(times["reduce"]),
            "arrangement.pieces": median(pieces),
            "arrangement.cells": median(cells),
            "arrangement.soa_bytes_per_cell": median(soa),
            "geometry.filter_certified_share": _certified_share(kernel),
            "invariant.from_complex_ms": ms(times["from_complex"]),
        })
        return m


# -- query ---------------------------------------------------------------------


def _corpus(seed, n, salt):
    """``(descriptors, instances)`` of a translated-copies corpus."""
    bases = {k: f() for k, f in inputs.QUERY_BASES.items()}
    descs = inputs.corpus_descs(seed, n, salt)
    return descs, [inputs.shifted(bases[b], dx, dy) for b, dx, dy in descs]


class Query(Workload):
    """Warm query path: in-process ``QueryService(max_inflight=2)``
    with 2 clients over a hot set that fits the universe cache."""

    name = "query"
    tail = 0.99
    clients = 2
    speed_exponent = 1.0
    probe_fitted_s = (0.0195, 0.028)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n_corpus, self.n_hot, self.n_windows = (
            (24, 12, 8) if self.tiny else (192, 48, 32)
        )
        descs, self.corpus = _corpus(seed, n_corpus, "query")
        self.keys = [instance_key(x) for x in self.corpus]
        self.hot = self.corpus[: self.n_hot]
        self.sentences = inputs.sentences()
        self.stream = inputs.query_stream(seed, self.n_hot, self.n_windows)
        box = [float("inf"), float("inf"), float("-inf"), float("-inf")]
        for inst in self.corpus:
            b = inst.bbox()
            box = [min(box[0], float(b.xmin)), min(box[1], float(b.ymin)),
                   max(box[2], float(b.xmax)), max(box[3], float(b.ymax))]
        self.windows = inputs.windows(seed, self.n_windows, box)
        self.fixed_inputs = [descs, self.windows]

    def setup(self):
        self.setups += 1
        root = _fresh_dir(self.workdir, f"query-{self.setups}")
        loop = asyncio.new_event_loop()
        clear_universe_cache()
        t0 = perf_counter()
        pipeline = InvariantPipeline()
        store = SegmentStore(root, sync="seal")
        _, bulk_s = timed(store.bulk_load, self.corpus, pipeline)
        svc = QueryService(pipeline=pipeline, max_inflight=2, store=store)
        register = []
        for j in range(self.n_hot):
            _, t = timed(svc.register_from_store, f"h{j}", self.keys[j])
            register.append(t)
        loop.run_until_complete(self._warm(svc, store))
        setup_s = perf_counter() - t0
        return {
            "loop": loop,
            "pipeline": pipeline,
            "store": store,
            "svc": svc,
            "root": root,
            "setup_s": setup_s,
            "bulk_load_s": bulk_s,
            "register": register,
        }

    async def _warm(self, svc, store):
        for j in range(self.n_hot):
            for s in self.sentences:
                await svc.ask_cells(f"h{j}", s)
            await svc.invariant_of(f"h{j}")
            await svc.equivalent(f"h{j}", f"h{(j + 1) % self.n_hot}")
        for w in self.windows:
            store.window_query(*w)

    def _close(self, ctx):
        ctx["loop"].run_until_complete(ctx["svc"].aclose())
        ctx["loop"].close()
        ctx["pipeline"].close()
        ctx["store"].close()
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def prepare(self, ctx):
        """Reference-engine answers for every (hot instance, sentence),
        direct invariant hashes, and brute-force window answers."""
        ctx["ref_cells"] = [
            [evaluate_cells(s, inst, engine="reference")
             for s in self.sentences]
            for inst in self.hot
        ]
        ctx["ref_hash"] = [canonical_hash(invariant(x)) for x in self.hot]
        ctx["ref_window"] = [
            ctx["store"].window_query_scan(*w) for w in self.windows
        ]
        # Pre-hash the invariant objects the service will hand back.
        ctx["seen_invariants"], ctx["keep_alive"] = {}, []
        for j, inst in enumerate(self.hot):
            self.check(ctx, -1, ["invariant", j],
                       ctx["pipeline"].compute(inst))

    async def _execute(self, ctx, desc, prepared, tracer):
        svc = ctx["svc"]
        kind = desc[0]
        if kind == "cells":
            ans = await svc.ask_cells(f"h{desc[1]}", self.sentences[desc[2]])
            return ans.value
        if kind == "equivalent":
            ans = await svc.equivalent(f"h{desc[1]}", f"h{desc[2]}")
            return ans.value
        if kind == "invariant":
            return (await svc.invariant_of(f"h{desc[1]}")).value
        return ctx["store"].window_query(*self.windows[desc[1]])

    def loop(self, ctx, start, seconds, tracer=None):
        return self._async_loop(ctx, start, seconds, tracer, self._execute)

    def check(self, ctx, i, desc, value):
        kind = desc[0]
        if kind == "cells":
            return value == ctx["ref_cells"][desc[1]][desc[2]]
        if kind == "equivalent":
            return value == (
                ctx["ref_hash"][desc[1]] == ctx["ref_hash"][desc[2]]
            )
        if kind == "invariant":
            # The cache hands back one object per key; hash each once.
            hashes = ctx["seen_invariants"]
            h = hashes.get(id(value))
            if h is None:
                h = hashes[id(value)] = canonical_hash(value)
                ctx["keep_alive"].append(value)
            return h == ctx["ref_hash"][desc[1]]
        return value == ctx["ref_window"][desc[1]]

    def ledger(self, ctx, rec, trace, deltas):
        m = {
            "service.cells_ms": _span_ms(trace, "bench.cells"),
            "service.equivalent_ms": _span_ms(trace, "bench.equivalent"),
            "service.invariant_ms": _span_ms(trace, "bench.invariant"),
            "store.window_query_ms": _span_ms(trace, "bench.window"),
            "store.bulk_load_s": ctx["bulk_load_s"],
            "store.register_ms": ms(ctx["register"]),
            "service.coalesced_share": _ratio(
                deltas.get("service.coalesced", 0),
                deltas.get("service.requests", 0),
            ),
            "logic.universe_hit_ratio": _ratio(
                deltas.get("query.universe_hits", 0),
                deltas.get("query.universe_hits", 0)
                + deltas.get("query.universe_misses", 0),
            ),
            "pipeline.cache_hit_ratio": _ratio(
                ctx["cache_hits"], ctx["cache_lookups"]
            ),
        }
        # Direct warm evaluation of the same cells ops the service
        # answered (a prefix of the traced ones).
        cells = [self.stream(i) for i in rec.indices_of("cells")]
        cells = cells[: 200 if self.tiny else 2000]
        every, connected = [], []
        for d in cells:
            inst = self.hot[d[1]]
            _, t = timed(evaluate_cells, self.sentences[d[2]], inst)
            every.append(t)
            if d[2] == inputs.CONNECTED:
                connected.append(t)
        m["logic.evaluate_ms"] = ms(every)
        m["logic.connected_ms"] = ms(connected)
        m["service.overhead_ms"] = m["service.cells_ms"] - m["logic.evaluate_ms"]
        pipeline = ctx["pipeline"]
        iso = []
        for i in rec.indices_of("equivalent")[:200]:
            d = self.stream(i)
            a = pipeline.compute(self.hot[d[1]])
            b = pipeline.compute(self.hot[d[2]])
            _, t = timed(are_isomorphic, a, b)
            iso.append(t)
        m["invariant.isomorphism_ms"] = ms(iso)
        return m


# -- serve ---------------------------------------------------------------------


class Serve(Workload):
    """The query layers behind ``ShardedQueryService(n_shards=2,
    max_inflight=2)``, 2 clients: hot reads beside registrations of
    never-seen instances that force cold universe builds in the
    workers."""

    name = "serve"
    tail = 0.99
    clients = 2
    # Three busy processes on two cores: a slower host also queues
    # requests behind each other, so times move about twice as much as
    # the single-process probe.
    speed_exponent = 2.0
    probe_fitted_s = (0.022, 0.0295)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n_hot = 8 if self.tiny else 32
        self.fixed_inputs, self.hot = _corpus(seed, self.n_hot, "serve")
        self.keys = [instance_key(x) for x in self.hot]
        self.bases = {k: f() for k, f in inputs.QUERY_BASES.items()}
        self.sentences = inputs.sentences()
        self.stream = inputs.serve_stream(seed, self.n_hot)

    def _service(self, pipeline, store, sharded=True):
        if sharded:
            return ShardedQueryService(
                n_shards=2, max_inflight=2, pipeline=pipeline, store=store
            )
        return QueryService(pipeline=pipeline, max_inflight=2, store=store)

    def setup(self, sharded=True):
        self.setups += 1
        root = _fresh_dir(self.workdir, f"serve-{self.setups}")
        loop = asyncio.new_event_loop()
        # Shard workers fork from this process: an empty parent cache
        # keeps them from inheriting warm universes.
        clear_universe_cache()
        t0 = perf_counter()
        pipeline = InvariantPipeline()
        store = SegmentStore(root, sync="seal")
        store.bulk_load(self.hot, pipeline)
        svc, spawn_s = timed(self._service, pipeline, store, sharded)
        for j in range(self.n_hot):
            svc.register_from_store(f"h{j}", self.keys[j])
        loop.run_until_complete(self._warm(svc))
        setup_s = perf_counter() - t0
        return {
            "loop": loop,
            "pipeline": pipeline,
            "store": store,
            "svc": svc,
            "root": root,
            "setup_s": setup_s,
            "spawn_s": spawn_s,
        }

    async def _warm(self, svc):
        for j in range(self.n_hot):
            for s in self.sentences:
                await svc.ask_cells(f"h{j}", s)

    def _close(self, ctx):
        ctx["loop"].run_until_complete(ctx["svc"].aclose())
        ctx["loop"].close()
        ctx["pipeline"].close()
        ctx["store"].close()
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def peak_rss_mib(self, ctx):
        """Parent plus both shard workers."""
        total = vm_hwm_kib()
        for shard in ctx["svc"].shard_status():
            if shard["pid"] is not None:
                total += vm_hwm_kib(shard["pid"])
        return total / MIB

    def prepare(self, ctx):
        """Direct (in-parent, compiled) answers for every (hot
        instance, sentence) and every (base, sentence): a new instance
        is a translated base, so its answer is the base's."""
        ctx["ref_hot"] = [
            [evaluate_cells(s, inst) for s in self.sentences]
            for inst in self.hot
        ]
        ctx["ref_base"] = {
            name: [evaluate_cells(s, b) for s in self.sentences]
            for name, b in self.bases.items()
        }

    def prepare_op(self, ctx, desc):
        if desc[0] == "new":
            _, base, dx, dy, _k = desc
            return inputs.shifted(self.bases[base], dx, dy)
        return None

    async def _execute(self, ctx, desc, prepared, tracer):
        svc = ctx["svc"]
        if desc[0] == "hot":
            ans = await svc.ask_cells(f"h{desc[1]}", self.sentences[desc[2]])
            return ans.value
        name = f"n{desc[2]}_{desc[3]}"
        if tracer is None:
            svc.register(name, prepared)
        else:
            span = tracer.start_span("bench.register", push=False)
            svc.register(name, prepared)
            tracer.finish_span(span)
        ans = await svc.ask_cells(name, self.sentences[desc[4]])
        return ans.value

    def loop(self, ctx, start, seconds, tracer=None):
        return self._async_loop(ctx, start, seconds, tracer, self._execute)

    def check(self, ctx, i, desc, value):
        if desc[0] == "hot":
            return value == ctx["ref_hot"][desc[1]][desc[2]]
        return value == ctx["ref_base"][desc[1]][desc[4]]

    def verify(self, ctx, rec):
        """Direct evaluation of a sample of the new instances
        themselves (``check`` compared them with their base)."""
        news = rec.indices_of("new")
        wrong = 0
        for i in news[:: max(1, len(news) // 24)]:
            desc = self.stream(i)
            expected = ctx["ref_base"][desc[1]][desc[4]]
            inst = self.prepare_op(ctx, desc)
            wrong += expected != evaluate_cells(self.sentences[desc[4]], inst)
        return wrong

    def ledger(self, ctx, rec, trace, deltas):
        m = {
            "shard.hot_ms": _span_ms(trace, "bench.hot"),
            "shard.new_ms": _span_ms(trace, "bench.new"),
            "shard.register_ms": _span_ms(trace, "bench.register"),
            "shard.batch_factor": _ratio(
                deltas.get("service.shard_batch_items", 0),
                deltas.get("service.shard_batches", 0),
            ),
            "shard.spawn_s": ctx["spawn_s"],
        }
        # Cold universe builds, in this process, of the new instances the
        # traced blocks registered (the workers built them; this process
        # never has).
        builds = []
        for i in rec.indices_of("new")[: 8 if self.tiny else 48]:
            inst = self.prepare_op(ctx, self.stream(i))
            _, t = timed(compiled_universe, inst)
            builds.append(t)
        m["logic.universe_build_ms"] = ms(builds)
        m.update(self._versus_inprocess(ctx))
        return m

    def _versus_inprocess(self, ctx):
        """The same fresh block of the op stream through the sharded
        service and then through an in-process ``QueryService``."""
        block = 1.0 if self.tiny else 3.0
        start = ctx["next_index"]
        sharded, _ = self.loop(ctx, start, block, None)
        self.close(ctx)
        local = self.setup(sharded=False)
        local.update(ref_hot=ctx["ref_hot"], ref_base=ctx["ref_base"])
        try:
            c0 = counter_snapshot()
            inproc, _ = self.loop(local, start, block, None)
            delta = counter_delta(c0, counter_snapshot())
        finally:
            self.close(local)
        hits = delta.get("query.universe_hits", 0)
        misses = delta.get("query.universe_misses", 0)
        ctx["ledger_wrong"] = sharded.wrong + inproc.wrong
        return {
            "shard.ipc_overhead_ms": ms(sharded.latencies_of("hot"))
            - ms(inproc.latencies_of("hot")),
            "shard.speedup_vs_inprocess": sharded.throughput()
            / inproc.throughput(),
            "logic.universe_hit_ratio": _ratio(hits, hits + misses),
        }


WORKLOADS = {w.name: w for w in (Ingest, Query, Serve)}
