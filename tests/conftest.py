import random

import pytest

from fivecolor import instances
from fivecolor.embedding import EmbeddedGraph, EmbeddingError, build


def remove_vertices(g, doomed):
    """Delete a set of vertices, tombstoning their ids."""
    doomed = set(doomed)
    for v in doomed:
        if not g.present(v):
            raise EmbeddingError(f"vertex {v} not present")
    rows = [
        None
        if (r is None or v in doomed)
        else tuple(w for w in r if w not in doomed)
        for v, r in enumerate(g.rotation)
    ]
    return EmbeddedGraph(rows)


def color_list(colors, n):
    """A vertex-indexed color list on ids 0..n-1: `colors` where given, 0 elsewhere."""
    return [colors.get(v, 0) for v in range(n)]


# The RunStats counters the pinned digests cover, by name, so that a counter
# added later leaves every digest as it is.
PINNED_COUNTERS = (
    "chain_swaps",
    "chain_verts",
    "f1_steps",
    "fallback_peels",
    "fifth_assigned",
    "free_color_calls",
    "occ_steps",
    "probes",
    "scans",
)


def pinned_counters(stats):
    """The PINNED_COUNTERS of a RunStats as sorted (name, value) pairs."""
    counters = {name: getattr(stats, name) for name in PINNED_COUNTERS}
    counters["occ_steps"] = sorted(stats.occ_steps.items())
    return sorted(counters.items())


def least_rotation(walk):
    """A walk's least cyclic rotation, as a tuple: the same for every start."""
    return min(tuple(walk[i:] + walk[:i]) for i in range(len(walk)))


def plane_subgraph(seed, n):
    """A seeded triangulation on n vertices with 20-70% of its edges dropped.

    Rows keep their rotation order, so the result is plane; it may be
    disconnected and have isolated vertices.
    """
    rng = random.Random(seed)
    g = instances.generate(instances.GenSpec(seed, n, n))
    edges = sorted(g.edges())
    drop = set(rng.sample(edges, int(rng.uniform(0.2, 0.7) * len(edges))))
    return build(
        [
            tuple(w for w in row if (min(v, w), max(v, w)) not in drop)
            for v, row in enumerate(g.rotation)
        ]
    )


@pytest.fixture(scope="session")
def icosahedron():
    return instances.named("icosahedron")


@pytest.fixture(scope="session")
def octahedron():
    return instances.named("octahedron")


@pytest.fixture(scope="session")
def cube():
    return instances.named("cube")


@pytest.fixture(scope="session")
def k4():
    return instances.named("k4")
