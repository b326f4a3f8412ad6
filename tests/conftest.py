import pytest

from fivecolor import instances
from fivecolor.embedding import EmbeddedGraph, EmbeddingError


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
