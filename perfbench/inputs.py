"""Seeded input streams for the three workloads.

Every stream is an infinite, deterministic sequence of *op
descriptors* — small JSON-able tuples — derived from ``(workload,
seed, index)`` alone.  The descriptors, not the program, define the
stream: :func:`digest` hashes the canonical JSON of a fixed-length
prefix, so two runs with the same seed can prove they fed the program
byte-identical inputs.  Geometry is built from a descriptor on demand
(:func:`ingest_instance`, :func:`shifted`); the program only ever sees
those generated instances.

Stream shapes are chosen for steady medians across seeds: the seed
picks offsets, transform parameters, Zipf draws and the order inside
each cycle, while the *set* of base shapes per cycle is fixed, so the
work per cycle does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from repro import Rect, SpatialInstance
from repro.datasets.figures import fig_1c, fig_1d, fig_6_courtyard
from repro.datasets.generators import (
    circle_chain,
    grid_instance,
    nested_rings,
    overlap_chain,
    random_rectangles,
)
from repro.logic import parse
from repro.logic.derived import connected_intersection_query
from repro.transforms import AffineMap
from repro.transforms.piecewise import ComposedTransform, TwoPieceLinear

DIGEST_PREFIX = 4096


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    # String seeds hash through sha512 in CPython: stable across runs
    # and interpreter builds, unlike hash().
    return random.Random(f"{workload}:{seed}:{salt}")


def digest(stream, fixed=(), n: int = DIGEST_PREFIX) -> str:
    """sha256 of the canonical JSON of the *fixed* inputs (corpus,
    windows) and the first *n* op descriptors."""
    h = hashlib.sha256(json.dumps(fixed, separators=(",", ":")).encode())
    for i in range(n):
        h.update(json.dumps(stream(i), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- ingest: homeomorphic images of a few base instances ---------------------

#: Base shapes of the cold path, 5-9 regions each.  Fixed generator
#: parameters: the seed moves the images, not the bases.  (grid_instance(4)
#: is left out: at ~190 ms an image it would be a quarter of all ingest
#: time and a run would average too few ops to be steady.)
INGEST_BASES = {
    "rects6": lambda: random_rectangles(6, seed=11, span=30),
    "rects8": lambda: random_rectangles(8, seed=12, span=30),
    "grid3": lambda: grid_instance(3),
    "chain6": lambda: overlap_chain(6),
    "rings5": lambda: nested_rings(5),
    "circles5": lambda: circle_chain(5, vertices=8),
}
TINY_INGEST_BASES = ("rects6", "rings5", "chain6")
TRANSFORMS = ("translate", "reflect_shear", "bend")


def ingest_stream(seed: int, bases=tuple(INGEST_BASES)):
    """Op *i* of the ingest stream: ``(base, transform, params)``.

    Cycle ``c = i // len(bases)`` visits every base once in a seeded
    order; the transform kind rotates per cycle so every (base, kind)
    pair recurs evenly.  The translation offset grows with *i*, so no
    two ops share geometry and the pipeline cache never hits.
    """
    n = len(bases)

    def op(i: int):
        cycle, slot = divmod(i, n)
        order = list(bases)
        _rng("ingest", seed, f"order{cycle}").shuffle(order)
        rng = _rng("ingest", seed, str(i))
        kind = TRANSFORMS[(cycle + seed) % len(TRANSFORMS)]
        dx = 1000 * (i + 1) + rng.randrange(1000)
        dy = rng.randrange(-500, 500)
        if kind == "translate":
            params = [dx, dy]
        elif kind == "reflect_shear":
            params = [dx, dy, rng.choice((1, 2, 3))]
        else:
            params = [dx, dy, rng.randrange(1, 6), rng.choice((1, 2, 3))]
        return [order[slot], kind, params]

    return op


def ingest_instance(desc, bases: dict) -> SpatialInstance:
    """The geometry an ingest op descriptor names (*bases* maps base
    names to built instances)."""
    name, kind, params = desc
    base = bases[name]
    dx, dy = params[0], params[1]
    move = AffineMap.translation(dx, dy)
    if kind == "translate":
        tf = move
    elif kind == "reflect_shear":
        tf = ComposedTransform(
            move, AffineMap.shear(params[2]), AffineMap.reflection_x()
        )
    else:
        # The seam sits inside the base's bounding box, so the bend
        # really cuts boundary edges.
        box = base.bbox()
        x1 = box.xmin + (box.xmax - box.xmin) * Fraction(params[2], 6)
        tf = ComposedTransform(
            move, TwoPieceLinear.bend(x1, Fraction(1, params[3]))
        )
    return tf.apply_to_instance(base)


# -- query and serve: small named pairs --------------------------------------


def _ab(inst: SpatialInstance) -> SpatialInstance:
    return SpatialInstance(
        {n: r for n, (_, r) in zip("ABCDEF", inst.items())}
    )


#: Small instances whose universes enumerate in milliseconds at
#: refinement 0, well inside the enumeration budget.  All carry
#: regions named A and B.
QUERY_BASES = {
    "lens": fig_1c,
    "ushape": fig_1d,
    "courtyard": fig_6_courtyard,
    "chain2": lambda: _ab(overlap_chain(2)),
    "chain3": lambda: _ab(overlap_chain(3)),
    "nested": lambda: SpatialInstance(
        {"A": Rect(0, 0, 8, 8), "B": Rect(2, 2, 5, 5)}
    ),
}

#: The fixed sentence set.  The last one is Example 4.2 (A ∩ B is
#: connected), the deepest quantifier nest in the mix.
SENTENCE_TEXT = (
    "exists name a, b . not (a = b) and overlap(a, b)",
    "exists name a . exists r . subset(r, a)",
    "forall name a . connect(a, a)",
    "exists r . subset(r, A) and subset(r, B)",
    "overlap(A, B)",
    "meet(A, B)",
)
CONNECTED = len(SENTENCE_TEXT)


def sentences():
    """Parsed sentences, indexed as in the op descriptors."""
    return [parse(t) for t in SENTENCE_TEXT] + [
        connected_intersection_query()
    ]


def shifted(base: SpatialInstance, dx: int, dy: int) -> SpatialInstance:
    """*base* translated by an integer offset (rectangles stay
    rectangles; polygons are moved vertex by vertex)."""
    out = SpatialInstance()
    for name, region in base.items():
        if isinstance(region, Rect):
            out.add(
                name,
                Rect(region.x1 + dx, region.y1 + dy,
                     region.x2 + dx, region.y2 + dy),
            )
        else:
            out.add(
                name,
                AffineMap.translation(dx, dy).apply_to_region(region),
            )
    return out


def corpus_descs(seed: int, n: int, salt: str):
    """*n* corpus members ``(base, dx, dy)`` cycling over the query
    bases; offsets are unique per member."""
    rng = _rng("corpus", seed, salt)
    names = list(QUERY_BASES)
    out = []
    for i in range(n):
        out.append(
            [names[i % len(names)], 100 * (i + 1) + rng.randrange(50),
             rng.randrange(-40, 40)]
        )
    return out


def zipf_weights(n: int, s: float = 1.0) -> list[float]:
    return [1.0 / (k + 1) ** s for k in range(n)]


BLOCK = 1024


def _indexed(make_block):
    """Random access into a stream generated *BLOCK* ops at a time
    (one seeded generator per block, so op *i* depends only on the
    seed and *i*), keeping the last few blocks."""
    cache: dict[int, list] = {}

    def op(i: int):
        b, k = divmod(i, BLOCK)
        ops = cache.get(b)
        if ops is None:
            if len(cache) >= 4:
                cache.pop(next(iter(cache)))
            ops = cache[b] = make_block(b)
        return ops[k]

    return op


def query_stream(seed: int, n_hot: int, n_windows: int):
    """Op *i* of the query mix: ``[kind, args...]``.

    ~70% ``cells`` (Zipf over the hot set, uniform over sentences),
    ~10% each of ``equivalent``, ``invariant`` and ``window``."""
    weights = zipf_weights(n_hot)
    hot = list(range(n_hot))
    n_sent = CONNECTED + 1

    def block(b: int) -> list:
        rng = _rng("query", seed, str(b))
        out = []
        for _ in range(BLOCK):
            roll = rng.random()
            if roll < 0.7:
                out.append(["cells", rng.choices(hot, weights)[0],
                            rng.randrange(n_sent)])
            elif roll < 0.8:
                out.append(["equivalent", rng.choices(hot, weights)[0],
                            rng.randrange(n_hot)])
            elif roll < 0.9:
                out.append(["invariant", rng.choices(hot, weights)[0]])
            else:
                out.append(["window", rng.randrange(n_windows)])
        return out

    return _indexed(block)


#: Bases of the never-seen instances ``serve`` registers: the ones whose
#: cold universe builds take 2-4 ms.  Hot asks routed to a shard wait
#: behind its cold build, so with the 6 ms builds of the U shape and the
#: courtyard the median op sat on the steep flank of that queueing tail
#: and moved by a third between runs.
NEW_BASES = ("lens", "chain2", "chain3", "nested")


def serve_stream(seed: int, n_hot: int):
    """Op *i* of the serve mix: ~80% ``hot`` asks on the hot set,
    ~20% ``new``: register a never-seen instance, then ask on it."""
    weights = zipf_weights(n_hot)
    hot = list(range(n_hot))
    names = list(NEW_BASES)
    n_sent = CONNECTED + 1

    def block(b: int) -> list:
        rng = _rng("serve", seed, str(b))
        out = []
        for k in range(BLOCK):
            if rng.random() < 0.8:
                out.append(["hot", rng.choices(hot, weights)[0],
                            rng.randrange(n_sent)])
                continue
            # Offsets beyond every corpus member and unique per op.
            i = b * BLOCK + k
            out.append(["new", names[rng.randrange(len(names))],
                        1_000_000 + 100 * i + rng.randrange(50),
                        rng.randrange(-40, 40), rng.randrange(n_sent)])
        return out

    return _indexed(block)


def windows(seed: int, n: int, box) -> list[list[float]]:
    """*n* seeded query windows inside the corpus bounding box."""
    rng = _rng("windows", seed)
    xmin, ymin, xmax, ymax = box
    out = []
    for _ in range(n):
        w = (xmax - xmin) * rng.uniform(0.02, 0.2)
        h = (ymax - ymin) * rng.uniform(0.3, 1.0)
        x = rng.uniform(xmin, xmax - w)
        y = rng.uniform(ymin, ymax - h)
        out.append([x, y, x + w, y + h])
    return out
