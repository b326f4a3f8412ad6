"""Combinatorial embeddings of planar graphs.

A graph is stored as a rotation system: for every vertex, the cyclic
counterclockwise order of its neighbors, for the vertex ids 0..n-1.  Faces
are recovered by the standard dart-tracing rule (the dart after (u, v) is
(v, w) where w precedes u in the rotation of v), and an embedding is
accepted as planar iff every connected component satisfies n - m + f = 2.
"""

from __future__ import annotations

from collections import deque


class EmbeddingError(ValueError):
    """Base class for invalid rotation-system input."""


class LoopEdge(EmbeddingError):
    pass


class DuplicateNeighbor(EmbeddingError):
    pass


class AsymmetricAdjacency(EmbeddingError):
    pass


class NotPlanarEmbedding(EmbeddingError):
    pass


class UntriangulatableFace(EmbeddingError):
    pass


class EmbeddedGraph:
    """Immutable rotation system on the vertex ids 0..n-1.

    rotation[v] is a tuple of the neighbor ids of v in ccw order.
    """

    __slots__ = ("rotation", "_m")

    def __init__(self, rotation):
        rows = []
        append = rows.append
        for row in rotation:
            try:
                # a set has no rotation order; `is` keeps this test cheap per row
                if type(row) is set or type(row) is frozenset:
                    raise TypeError
                append(tuple(row))
            except TypeError:
                v = len(rows)
                raise EmbeddingError(f"row of vertex {v} is {row!r}, not a sequence") from None
        object.__setattr__(self, "rotation", tuple(rows))
        object.__setattr__(self, "_m", sum(map(len, rows)) // 2)
        _validate(self)

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddedGraph is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self):
        return len(self.rotation)

    @property
    def m(self):
        return self._m

    def vertices(self):
        return range(self.n)

    def degree(self, v):
        return len(self.rotation[v])

    def edges(self):
        for u, row in enumerate(self.rotation):
            for w in row:
                if u < w:
                    yield (u, w)

    def __eq__(self, other):
        return isinstance(other, EmbeddedGraph) and self.rotation == other.rotation

    def __hash__(self):
        return hash(self.rotation)

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} m={self.m}>"


def build(rotations):
    """Validate a rotation system and wrap it as an EmbeddedGraph.

    Accepts any sequence of rows, row v a sequence of the neighbors of
    vertex v (None or a set is an EmbeddingError).  Raises LoopEdge /
    DuplicateNeighbor / AsymmetricAdjacency on malformed adjacency and
    NotPlanarEmbedding when any component violates Euler's formula.  The
    check takes O(m) time: one dict lookup per dart gives both the reverse
    of the dart and its face successor.
    """
    return EmbeddedGraph(rotations)


def _validate(g):
    rows = g.rotation
    succ = _face_successors(rows)
    if succ is None:
        _check_rows(rows)
        # _check_rows raises on every input the table rejects
        raise EmbeddingError("vertex ids must be ints")
    _check_euler(g, succ)


def _check_rows(rows):
    """Raise on the first malformed row, rows in id order, each in row order."""
    n = len(rows)
    for v, row in enumerate(rows):
        seen = set()
        for w in row:
            if not isinstance(w, int):
                raise EmbeddingError(f"vertex {v} lists {w!r}, not an int id")
            if w == v:
                raise LoopEdge(f"vertex {v} lists itself")
            if not 0 <= w < n:
                raise AsymmetricAdjacency(f"vertex {v} lists missing vertex {w}")
            if w in seen:
                raise DuplicateNeighbor(f"vertex {v} lists {w} twice")
            seen.add(w)
        for w in row:
            if v not in rows[w]:
                raise AsymmetricAdjacency(f"edge {v}->{w} has no reverse")


def _face_successors(rows):
    """The face successor of every dart over int ids, or None if a row is bad.

    Dart (v, rows[v][i]) has id offset[v] + i, where offset[v] counts the
    darts of the rows before v.  Encodes the rule of face_walks: the dart
    after (a, b) is (b, w), where w precedes a in the rotation of b.  Runs
    in O(m) and only detects a fault; _check_rows names it.
    """
    # before[b][a]: the id of the dart (b, w) with w just before a in b's row
    before = []
    offset = 0
    try:
        for v, row in enumerate(rows):
            k = len(row)
            p = dict(zip(row, range(offset - 1, offset + k - 1)))
            if k:
                # a negative id would read a row from the end
                if len(p) != k or v in p or min(row) < 0:
                    return None
                p[row[0]] = offset + k - 1
            before.append(p)
            offset += k
        # a missing reverse is a KeyError, a non-int id a TypeError, an id
        # past the last row an IndexError
        return [before[w][v] for v, row in enumerate(rows) for w in row]
    except (KeyError, TypeError, IndexError):
        return None


def _components(rows):
    """Number of connected components."""
    seen = set()
    count = 0
    for v in range(len(rows)):
        if v in seen:
            continue
        count += 1
        seen.add(v)
        stack = [v]
        while stack:
            for w in rows[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _check_euler(g, succ):
    # A rotation system puts each component on an orientable surface, where
    # n - m + f = 2 - 2 * genus <= 2 (Heffter-Edmonds), so one count over c
    # components reaches 2c only if every component is planar.  An isolated
    # vertex has no darts; it still bounds the one sphere face.
    rows = g.rotation
    n, m, c = g.n, g.m, _components(rows)
    f = _count_cycles(succ)
    f += rows.count(())
    if n - m + f != 2 * c:
        raise NotPlanarEmbedding(
            f"n={n} m={m} f={f} over {c} components: "
            f"Euler characteristic {n - m + f} != {2 * c}"
        )


def _count_cycles(succ):
    """Number of cycles of the permutation succ of 0..len(succ) - 1."""
    seen = bytearray(len(succ))
    count = 0
    for start in range(len(succ)):
        if seen[start]:
            continue
        count += 1
        d = start
        while not seen[d]:
            seen[d] = 1
            d = succ[d]
    return count


def face_walks(rows, darts):
    """Yield the face walks through `darts`, as vertex lists.

    Each walk starts at the first of `darts` on it, and walks come in that
    order; the dart after (a, b) is (b, w), where w precedes a in the
    rotation of b.  Each dart lies on one walk, and no walk is yielded
    twice.  Pass every dart of `rows` for every face.
    """
    seen = set()
    for dart in darts:
        if dart in seen:
            continue
        walk = []
        while dart not in seen:
            seen.add(dart)
            a, b = dart
            walk.append(a)
            row = rows[b]
            dart = (b, row[row.index(a) - 1])
        yield walk


def from_faces(n, faces):
    """Stitch an embedding out of oriented face walks.

    Every dart (consecutive pair along a walk, cyclically) must occur exactly
    once over all faces; the rotation of v is recovered by chaining the rule
    "after corner (a, v, c) the next neighbor of v ccw from c is a".  Each
    recovered rotation starts at the smallest neighbor id, so the result does
    not depend on the order the faces are given in.
    """
    nxt = [dict() for _ in range(n)]
    for face in faces:
        k = len(face)
        if k < 2:
            raise EmbeddingError(f"face walk too short: {face!r}")
        for i in range(k):
            a, b, c = face[i - 2], face[i - 1], face[i]
            try:
                if not (0 <= b < n):
                    raise EmbeddingError(f"face vertex {b} out of range")
                links = nxt[b]
                if c in links:
                    raise EmbeddingError(f"dart ({b}, {c}) occurs in two faces")
            except TypeError:
                bad = next(x for x in face if not isinstance(x, int))
                raise EmbeddingError(f"face vertex {bad!r} is not an int id") from None
            links[c] = a
    rotations = []
    for v in range(n):
        links = nxt[v]
        if not links:
            rotations.append(())
            continue
        # each dart (a, v) ends one corner, so links is injective: the chain
        # comes back to start, or to an a whose dart (v, a) is in no face
        start = min(links)
        cycle = [start]
        cur = links[start]
        while cur != start:
            cycle.append(cur)
            if cur not in links:
                raise EmbeddingError(f"dart ({v}, {cur}) lies in no face")
            cur = links[cur]
        if len(cycle) != len(links):
            raise EmbeddingError(f"rotation of {v} splits into several cycles")
        rotations.append(cycle)
    return build(rotations)


# -- triangulation ---------------------------------------------------------


def fill_walk(rows, walk):
    """Triangulate one face walk in place; return its chords as (a, b).

    Cuts ears: the chord (w[0], w[2]) goes into the corner at w[1], landing
    between the walk neighbors of each endpoint: b just before w[-1] in
    rows[a], and a just before w[1] in rows[b].  A cut drops w[1]; either
    way the walk then rotates by one.  Raises UntriangulatableFace if a
    whole turn finds no ear.
    """
    # Each face walk of length >= 4 has an ear.  If w[i] == w[i+2], w[i+1] is a leaf
    # and the next pair is free; else edges w[i]w[i+2], w[i+1]w[i+3] outside the face
    # cross unless w[i+3] == w[i], and that at every i is period 3: a repeated dart.
    w = deque(walk)
    chords = []
    misses = 0
    while len(w) > 3:
        a, b = w[0], w[2]
        if a == b or b in rows[a]:
            misses += 1
            if misses == len(w):
                raise UntriangulatableFace(f"no chord fits face walk {list(w)!r}")
        else:
            rows[a].insert(rows[a].index(w[-1]), b)
            rows[b].insert(rows[b].index(w[1]), a)
            chords.append((a, b))
            del w[1]
            misses = 0
        w.rotate(-1)
    return chords
