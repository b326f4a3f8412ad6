"""Seeded benchmark inputs, each rendered as pg/1 text.

Every workload is a ladder of sizes per family, each size taken several
times.  One `random.Random` stream, seeded from the workload name and the
run's seed, draws every generator seed and every relabelling, so the same
seed always gives the same texts.  The library sees only the text.

- random: `generate(GenSpec(s, n, flips=2n))`, already triangulated,
  minimum degree 3.  Loads Kempe work; the matcher and `fill_walk` stay
  nearly idle.
- icosphere: midpoint subdivision of the icosahedron, stitched with
  `from_faces` (n = 10*4^k + 2, minimum degree 5), ids permuted.  Every
  reduction is a catalog occurrence, so it loads `find_reducible` and
  `select_fifth`.
- sparse: stars, cycles and paths, ids permuted (and a star's leaves in
  random rotation order).  Not triangulated, so `build` and `fill_walk`
  do real work, and a star hub drives Kempe chains at huge degree.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from fivecolor import GenSpec, build, from_faces, generate, named, write

# Per workload: family -> ((n, copies), ...).  A round takes a few
# seconds on one core.  The rung counts put the median instance in the
# middle of the middle rung and the tail (10 instances beyond it) among
# the largest graphs, with enough copies there that a seed's few slowest
# instances do not decide it on their own.
LADDERS = {
    "random": {"random": ((200, 20), (400, 40), (800, 20))},
    "icosphere": {"icosphere": ((162, 15), (642, 40), (2562, 12))},
    "sparse": {
        "star": ((150, 8), (300, 16), (600, 4)),
        "cycle": ((150, 8), (300, 16), (600, 12)),
        "path": ((150, 8), (300, 16), (600, 12)),
    },
}


@dataclass(frozen=True)
class Instance:
    family: str
    n: int
    text: str  # pg/1
    min_degree_5: bool


def pg1_text(g):
    buf = io.StringIO()
    write(g, buf)
    return buf.getvalue()


def _permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(rows, rng):
    perm = _permutation(len(rows), rng)
    out = [None] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = [perm[w] for w in row]
    return out


def _icosphere_faces(k):
    """Faces of the k-fold midpoint subdivision of the icosahedron."""
    rot = named("icosahedron").rotation
    # each face once, read at its smallest vertex, oriented as from_faces wants
    faces = [
        (v, row[i], row[(i + 1) % len(row)])
        for v, row in enumerate(rot)
        for i in range(len(row))
        if v < min(row[i], row[(i + 1) % len(row)])
    ]
    n = 12
    for _ in range(k):
        mids = {}

        def mid(a, b):
            nonlocal n
            key = (a, b) if a < b else (b, a)
            if key not in mids:
                mids[key] = n
                n += 1
            return mids[key]

        finer = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = finer
    return n, faces


def _icosphere(n_target, rng):
    k = 0
    while 10 * 4**k + 2 < n_target:
        k += 1
    n, faces = _icosphere_faces(k)
    if n != n_target:
        raise ValueError(f"no icosphere has {n_target} vertices")
    perm = _permutation(n, rng)
    return from_faces(n, [[perm[v] for v in f] for f in faces])


def _random(n, rng):
    return generate(GenSpec(seed=rng.getrandbits(63), n=n, flips=2 * n))


def _star(n, rng):
    leaves = list(range(1, n))
    rng.shuffle(leaves)
    return build(_relabel([leaves] + [[0] for _ in leaves], rng))


def _cycle(n, rng):
    return build(_relabel([[(v - 1) % n, (v + 1) % n] for v in range(n)], rng))


def _path(n, rng):
    return build(_relabel([[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)], rng))


MAKERS = {
    "random": _random,
    "icosphere": _icosphere,
    "star": _star,
    "cycle": _cycle,
    "path": _path,
}


def make(workload, seed):
    """The workload's instances, family by family, in ladder order."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for family, ladder in LADDERS[workload].items():
        for n, copies in ladder:
            for _ in range(copies):
                g = MAKERS[family](n, rng)
                min_degree_5 = all(g.degree(v) >= 5 for v in g.vertices())
                out.append(Instance(family, n, pg1_text(g), min_degree_5))
    return out
