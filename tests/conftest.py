import hashlib
import random
from collections import deque
from types import SimpleNamespace

import pytest

from fivecolor import instances, reducer
from fivecolor.catalog import VirtualHub, hub_edges
from fivecolor.embedding import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    EmbeddingError,
    LoopEdge,
    NotPlanarEmbedding,
    _components,
    build,
    face_walks,
    from_faces,
)
from fivecolor.matching import _alignments, _rows_view, match_at
from fivecolor.reducer import RunStats, color_planar


def remove_vertices(g, doomed):
    """Delete `doomed` from a graph or from engine rows; return engine rows.

    Engine rows are what the reducer's descent works on: the ids keep their
    places, and a deleted vertex's row is None.
    """
    rows = _rows_view(g)
    doomed = set(doomed)
    for v in doomed:
        if not (0 <= v < len(rows) and rows[v] is not None):
            raise EmbeddingError(f"vertex {v} not present")
    return [
        None if r is None or v in doomed else tuple(w for w in r if w not in doomed)
        for v, r in enumerate(rows)
    ]


def relabel(rows):
    """The graph on the live vertices of engine rows, renumbered 0..n-1 in id order."""
    new = {}
    for v, r in enumerate(rows):
        if r is not None:
            new[v] = len(new)
    return build([tuple(new[w] for w in r) for r in rows if r is not None])


def realized_edges(occ, rows):
    """The pattern edges an occurrence claims, in pattern ids.

    entry.edges for a layout entry.  The hub's depend on where its leaves
    fell: catalog.hub_edges over their positions in the anchor's row.
    """
    if not isinstance(occ.entry.scheme, VirtualHub):
        return occ.entry.edges
    leaf = {w: p for p, w in occ.mapping.items() if p}
    return hub_edges([leaf.get(w) for w in rows[occ.anchor]])


def recheck(occ, tri):
    """Re-verify an occurrence from scratch, edges included.

    Some alignment at the anchor must give the same mapping again.  The
    matcher takes two vertices consecutive in a link to be adjacent; this
    oracle checks every realized pattern edge in the rows instead.
    """
    rows = _rows_view(tri)
    n = len(rows)
    for v in occ.mapping.values():
        if not (0 <= v < n) or rows[v] is None:
            return False
    vals = list(occ.mapping.values())
    if len(set(vals)) != len(vals) or occ.mapping[0] != occ.anchor:
        return False
    again = (
        match_at(tri, occ.entry, occ.anchor, offset, direction)
        for offset, direction in _alignments(occ.entry, len(rows[occ.anchor]))
    )
    if not any(a is not None and a.mapping == occ.mapping for a in again):
        return False
    return all(occ.mapping[b] in rows[occ.mapping[a]] for a, b in realized_edges(occ, rows))


def all_darts(rows):
    """Every dart (u, w), vertex by vertex in id order, each row in order."""
    return ((u, w) for u, row in enumerate(rows) if row for w in row)


def trace_faces(g):
    """All face walks of the embedding, canonical start, deterministic order."""
    faces = []
    for walk in face_walks(g.rotation, all_darts(g.rotation)):
        # rotate the walk to start at its lexicographically smallest dart
        k = len(walk)
        best = min(range(k), key=lambda i: (walk[i], walk[(i + 1) % k]))
        faces.append(tuple(walk[best:] + walk[:best]))
    return tuple(faces)


def subdivided(g, k):
    """A triangulation g with k edges each split by a new degree-4 vertex.

    The new vertex x on edge u-w also joins the two apexes a and b of the
    triangles beside it, so m = 3n - 6 still holds.  The edges taken are
    the first in id order whose ends have degree 6 and whose four vertices
    u, w, a, b are clear of the other edges' four.  On a graph of minimum
    degree 5 the new vertices peel first, and the survivors keep degree 5
    or more, so the descent then scans.
    """
    faces = list(trace_faces(g))
    apex = {}  # dart (u, w) -> the face's third vertex
    for f in faces:
        for i in range(3):
            apex[f[i], f[i - 2]] = f[i - 1]
    used, split = set(), {}
    for u, w in sorted(g.edges()):
        around = {u, w, apex[u, w], apex[w, u]}
        if len(split) < 2 * k and g.degree(u) == g.degree(w) == 6 and not around & used:
            used |= around
            split[u, w] = split[w, u] = g.n + len(split) // 2
    assert len(split) == 2 * k, "too few clear degree-6 edges"
    out = []
    for f in faces:
        for i in range(3):
            x = split.get((f[i - 1], f[i]))
            if x is not None:
                # the triangle f[i-1] f[i] a becomes f[i-1] x a and x f[i] a
                a = f[i - 2]
                out += [(f[i - 1], x, a), (x, f[i], a)]
                break
        else:
            out.append(f)
    return from_faces(g.n + k, out)


def barrel(segments):
    """A minimum-degree-5 triangulation on 35 * segments + 7 vertices.

    A pole, then rings of sizes 5, 10, 10, 10, 5, 10, 10, 10, 5, ... 5
    (`segments` times 10, 10, 10, 5), then a pole.  A band between two
    10-rings is an antiprism; between a 5-ring and a 10-ring each 5-ring
    vertex sees three consecutive 10-ring vertices.  The inner 5-rings
    have degree 8: when an occurrence and the peels after it eat the
    segment on one side, they keep degree 5, so the descent stops at a
    hole, and the next scan needs a fill first.
    """
    sizes = [5] + [10, 10, 10, 5] * segments
    shifts = [0] + [1, 0, 1, 0] * segments  # 10-rings alternate by half a step
    rings, n = [], 1
    for k in sizes:
        rings.append(range(n, n + k))
        n += k
    faces = [(r[i - 1], r[i], 0) for r in rings[:1] for i in range(5)]
    faces += [(n, r[i], r[i - 1]) for r in rings[-1:] for i in range(5)]
    for j in range(len(rings) - 1):
        # zip the two rings together in the order of their angles, in
        # twentieths of a turn, one triangle per vertex passed
        upper, lower = rings[j], rings[j + 1]
        at = [(20 // len(upper) * i + shifts[j], 0, v) for i, v in enumerate(upper)]
        at += [(20 // len(lower) * i + shifts[j + 1], 1, v) for i, v in enumerate(lower)]
        last = [upper[-1], lower[-1]]
        for _, side, x in sorted(at):
            faces.append((last[1], x, last[0]))
            last[side] = x
    return from_faces(n + 1, faces)


def has_edge(g, u, v):
    """Whether u is a vertex of g whose row lists v."""
    return 0 <= u < g.n and v in g.rotation[u]


def reference_build(rotations):
    """Reference oracle for build(): raise what it raises, else return None.

    Runs the row-by-row check that build() used before its dart table,
    with the face count traced by face_walks, on unvalidated rows.  A None
    row is named first, before any fault in an id.
    """
    for v, r in enumerate(rotations):
        if r is None:
            raise EmbeddingError(f"row of vertex {v} is None, not a sequence")
    rows = tuple(tuple(r) for r in rotations)
    g = SimpleNamespace(rotation=rows, n=len(rows), m=sum(len(r) for r in rows) // 2)
    _validate(g)


def _validate(g):
    rows = g.rotation
    n_rows = len(rows)
    for v, row in enumerate(rows):
        seen = set()
        for w in row:
            if w == v:
                raise LoopEdge(f"vertex {v} lists itself")
            if not (0 <= w < n_rows):
                raise AsymmetricAdjacency(f"vertex {v} lists missing vertex {w}")
            if w in seen:
                raise DuplicateNeighbor(f"vertex {v} lists {w} twice")
            seen.add(w)
        for w in row:
            if v not in rows[w]:
                raise AsymmetricAdjacency(f"edge {v}->{w} has no reverse")
    _check_euler(g)


def _check_euler(g):
    # A rotation system puts each component on an orientable surface, where
    # n - m + f = 2 - 2 * genus <= 2 (Heffter-Edmonds), so one count over c
    # components reaches 2c only if every component is planar.  An isolated
    # vertex has no darts; it still bounds the one sphere face.
    rows = g.rotation
    n, m, c = g.n, g.m, _components(rows)
    f = sum(1 for _ in face_walks(rows, all_darts(rows)))
    f += sum(1 for row in rows if row == ())
    if n - m + f != 2 * c:
        raise NotPlanarEmbedding(
            f"n={n} m={m} f={f} over {c} components: "
            f"Euler characteristic {n - m + f} != {2 * c}"
        )


def reference_chain(rows, colors, start, pair):
    """The Kempe chain through `start` on `pair`, as a set of vertices.

    A plain deque search, the oracle the swap and free_color tests compare
    against.  `colors` is indexed by vertex (0 for uncolored).
    """
    seen, queue = {start}, deque([start])
    while queue:
        for w in rows[queue.popleft()]:
            if w not in seen and colors[w] in pair:
                seen.add(w)
                queue.append(w)
    return seen


def scan_rows(monkeypatch):
    """Record the rows each scan makes: a list that gets one {u: row} per scan.

    Wraps reducer._Work._rebuild through monkeypatch.  The lists recorded
    are the ones the scan's fill then edits, and no later scan edits them,
    so after the descent each holds the row its segment was peeled on.
    """
    made = []
    rebuild = reducer._Work._rebuild

    def recorded(self, deleted, starts):
        rebuild(self, deleted, starts)
        made.append({u: self.rows[u] for u in starts})

    monkeypatch.setattr(reducer._Work, "_rebuild", recorded)
    return made


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
    "occ_steps",
    "probes",
    "scans",
)


def pinned_counters(stats):
    """The PINNED_COUNTERS of a RunStats as sorted (name, value) pairs."""
    counters = {name: getattr(stats, name) for name in PINNED_COUNTERS}
    counters["occ_steps"] = sorted(stats.occ_steps.items())
    return sorted(counters.items())


def color_runs(graphs):
    """Color each graph once: a list of (coloring, RunStats) pairs."""
    runs = []
    for g in graphs:
        stats = RunStats()
        runs.append((color_planar(g, stats), stats))
    return runs


def runs_digest(runs):
    """sha256 over each run's coloring and pinned counters, 16 hex digits."""
    h = hashlib.sha256()
    for colors, stats in runs:
        h.update(repr((sorted(colors.items()), pinned_counters(stats))).encode())
    return h.hexdigest()[:16]


def order_free_digest(runs):
    """sha256 over the counts of each run that name no vertex, 16 hex digits.

    Scans, occurrences per family, fifth colors (as counted and as the
    size of color class 5) and the darts the fills trace.  The vertices
    live at each scan do not depend on how a peel breaks ties among equal
    degrees (see five_core), and these counts are read off them, so a new
    tie-break leaves this digest as it is where colorings and Kempe
    counters move.
    """
    h = hashlib.sha256()
    for colors, stats in runs:
        fives = sum(1 for c in colors.values() if c == 5)
        counts = (stats.scans, sorted(stats.occ_steps.items()), stats.fifth_assigned)
        h.update(repr(counts + (fives, stats.walk_darts)).encode())
    return h.hexdigest()[:16]


def five_core(rows):
    """The 5-core of a graph's rows, found naively, as a set of vertices.

    Strips every vertex of degree 4 or less, round after round, until none
    is left.  Any order of single deletions of such vertices ends on this
    same set, since a vertex of the 5-core keeps 5 neighbors in it
    throughout.
    """
    live = set(range(len(rows)))
    while True:
        low = {v for v in live if sum(w in live for w in rows[v]) <= 4}
        if not low:
            return live
        live -= low


class MeteredRow(list):
    """A row list that counts, on the class, every call that removes an item.

    Wrap the rows of a run in it to see whether some step edits them:
    `removals` sums the __delitem__, remove and pop calls on every instance.
    """

    removals = 0

    def __delitem__(self, key):
        MeteredRow.removals += 1
        super().__delitem__(key)

    def remove(self, value):
        MeteredRow.removals += 1
        super().remove(value)

    def pop(self, *index):
        MeteredRow.removals += 1
        return super().pop(*index)


def least_rotation(walk):
    """A walk's least cyclic rotation, as a tuple: the same for every start."""
    return min(tuple(walk[i:] + walk[:i]) for i in range(len(walk)))


def cycle_rotations(k):
    return [((i - 1) % k, (i + 1) % k) for i in range(k)]


def path_rotations(k):
    return [tuple(w for w in (i - 1, i + 1) if 0 <= w < k) for i in range(k)]


def star_rotations(k):
    return [tuple(range(1, k + 1))] + [(0,)] * k


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
