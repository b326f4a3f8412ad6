"""Rotation systems, face tracing, hole filling.

Expected values below (face counts, walk shapes, edge counts) were worked
out by hand from the rotation systems and Euler's formula, then frozen.
"""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fivecolor import reducer
from fivecolor.embedding import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    EmbeddedGraph,
    EmbeddingError,
    LoopEdge,
    NotPlanarEmbedding,
    UntriangulatableFace,
    _count_cycles,
    _face_successors,
    build,
    face_walks,
    fill_walk,
    from_faces,
)
from fivecolor.instances import GenSpec, generate, named
from fivecolor.reducer import RunStats, color_planar

from conftest import (
    all_darts,
    cycle_rotations,
    has_edge,
    least_rotation,
    path_rotations,
    pinned_counters,
    plane_subgraph,
    reference_build,
    relabel,
    remove_vertices,
    star_rotations,
    trace_faces,
)


# -- validation --------------------------------------------------------------


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        build([(0, 1), (0,)])


def test_duplicate_neighbor_rejected():
    with pytest.raises(DuplicateNeighbor):
        build([(1, 1), (0, 0)])


def test_missing_reverse_rejected():
    with pytest.raises(AsymmetricAdjacency):
        build([(1,), ()])


def test_out_of_range_neighbor_rejected():
    with pytest.raises(AsymmetricAdjacency):
        build([(1,), (0, 5)])


def test_negative_neighbor_rejected():
    # -1 is a missing vertex, not another name for the last row
    with pytest.raises(AsymmetricAdjacency, match="lists missing vertex -1"):
        build([(1,), (0, -1)])


def test_deleted_neighbor_rejected():
    # every id 0..n-1 has a row: None is rejected as a row, before any id is read
    with pytest.raises(EmbeddingError) as info:
        build([(1,), None])
    assert str(info.value) == "row of vertex 1 is None, not a sequence"


@pytest.mark.parametrize(
    "rotations, message",
    [
        ([(1.0,), (0,)], "vertex 0 lists 1.0, not an int id"),
        ([("a",), (0,)], "vertex 0 lists 'a', not an int id"),
        ([(None,), ()], "vertex 0 lists None, not an int id"),
        ([(1,), (0, "x")], "vertex 1 lists 'x', not an int id"),
        ("ab", "vertex 0 lists 'a', not an int id"),
        ([[1], [0], 5], "row of vertex 2 is 5, not a sequence"),
        # a set has no rotation order
        ([{1}, {0}], "row of vertex 0 is {1}, not a sequence"),
        ([(1,), frozenset({0})], "row of vertex 1 is frozenset({0}), not a sequence"),
    ],
    ids=["float", "str", "none", "str-later", "str-rows", "int-row", "set-row", "frozenset-row"],
)
def test_malformed_ids_rejected(rotations, message):
    # outside input: a malformed id or row is an EmbeddingError naming it
    with pytest.raises(EmbeddingError) as info:
        build(rotations)
    assert str(info.value) == message


def test_k5_rejected():
    # K5 with ascending rotations traces 3 walks (10 + 5 + 5 darts),
    # so n - m + f = 5 - 10 + 3 = -2.
    rot = [tuple(w for w in range(5) if w != v) for v in range(5)]
    with pytest.raises(NotPlanarEmbedding):
        build(rot)


def test_tiny_graphs_accepted():
    assert build([()]).n == 1
    assert build([(1,), (0,)]).m == 1
    two_triangles = [(1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4)]
    g = build(two_triangles)
    assert (g.n, g.m) == (6, 6)


def euler_per_component(rows):
    """Whether every component of a valid rotation system has n - m + f = 2."""
    root = {}
    for v, row in enumerate(rows):
        if v not in root:
            root[v] = v
            todo = [v]
            while todo:
                for w in rows[todo.pop()]:
                    if w not in root:
                        root[w] = v
                        todo.append(w)
    twice_chi = Counter()  # 2(n - m + f), per component root
    for v, r in root.items():
        twice_chi[r] += 2 - len(rows[v]) + (2 if not rows[v] else 0)
    seen = set()
    for u in root:
        for w in rows[u]:
            if (u, w) not in seen:
                twice_chi[root[u]] += 2
                a, b = u, w
                while (a, b) not in seen:
                    seen.add((a, b))
                    a, b = b, rows[b][rows[b].index(a) - 1]
    return all(c == 4 for c in twice_chi.values())


def euler_part(kind, seed, n):
    if kind == "isolated":
        return [()]
    if kind == "plane":
        return list(plane_subgraph(seed, n).rotation)
    rows = [list(r) for r in generate(GenSpec(seed, n, n)).rotation]
    if kind == "shuffled":
        rng = random.Random(seed)
        for row in rows:
            rng.shuffle(row)
    return rows


@settings(deadline=None, max_examples=80)
@given(
    parts=st.lists(
        st.tuples(
            st.sampled_from(["plane", "generated", "isolated", "shuffled"]),
            st.integers(0, 2**32 - 1),
            st.integers(4, 30),
        ),
        min_size=1,
        max_size=5,
    ),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_euler_verdict_per_component(parts, perm_seed):
    # a disjoint union, ids interleaved, is accepted iff each part is planar
    union = []
    for kind, seed, n in parts:
        off = len(union)
        union += [[w + off for w in r] for r in euler_part(kind, seed, n)]
    perm = list(range(len(union)))
    random.Random(perm_seed).shuffle(perm)
    rows = [None] * len(union)
    for v, r in enumerate(union):
        rows[perm[v]] = tuple(perm[w] for w in r)
    try:
        build(rows)
        accepted = True
    except NotPlanarEmbedding:
        accepted = False
    assert accepted == euler_per_component(rows)


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["plane", "generated", "shuffled"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
)
def test_dart_table_agrees_with_face_walks(kind, seed, n):
    # the table's successor of each dart is the next dart of its face_walks walk
    rows = euler_part(kind, seed, n)
    succ = _face_successors(rows)
    ids = {dart: i for i, dart in enumerate(all_darts(rows))}
    assert len(succ) == len(ids)
    walks = list(face_walks(rows, all_darts(rows)))
    for walk in walks:
        darts = list(zip(walk, walk[1:] + walk[:1]))
        for dart, after in zip(darts, darts[1:] + darts[:1]):
            assert succ[ids[dart]] == ids[after]
    assert _count_cycles(succ) == len(walks)


CORRUPTIONS = ("drop_reverse", "duplicate", "loop", "too_big", "negative", "none_row", "swap")


def corrupt(rows, kind, rng):
    """Break the list rows in place, one way: at a random present vertex."""
    n = len(rows)
    v = rng.choice([u for u, r in enumerate(rows) if r is not None])
    row = rows[v]
    pos = rng.randrange(len(row) + 1)
    if kind == "drop_reverse" and row:
        w = rng.choice(row)
        if 0 <= w < n and rows[w] is not None and v in rows[w]:
            rows[w].remove(v)
    elif kind == "duplicate" and row:
        row.insert(pos, rng.choice(row))
    elif kind == "loop":
        row.insert(pos, v)
    elif kind == "too_big":
        row.insert(pos, rng.randrange(n, n + 3))
    elif kind == "negative":
        row.insert(pos, rng.randrange(-3, 0))
    elif kind == "none_row":
        # build names the None row before any fault in an id
        x = rng.randrange(n)
        rows[x] = None
        if x != v and x not in row:
            row.insert(pos, x)
    elif kind == "swap" and len(row) >= 2:
        i, j = rng.sample(range(len(row)), 2)
        row[i], row[j] = row[j], row[i]


def outcome(check, rows):
    """The exception class and message check(rows) raises, or None."""
    try:
        check(rows)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["plane", "generated", "shuffled"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    corruptions=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2),
)
def test_build_errors_match_reference(kind, seed, n, corruptions):
    # the same first fault, class and message, as the row-by-row check
    rows = [list(r) for r in euler_part(kind, seed, n)]
    rng = random.Random(seed)
    for how in corruptions:
        corrupt(rows, how, rng)
    assert outcome(build, rows) == outcome(reference_build, rows)


def test_planar_plus_k5_rejected(icosahedron):
    # 2 + (-2): a whole-graph sum of 0 is not 2 per component
    k5 = [tuple(w + 12 for w in range(5) if w != v) for v in range(5)]
    with pytest.raises(NotPlanarEmbedding):
        build(list(icosahedron.rotation) + k5)


def test_triangles_and_isolated_vertex_accepted():
    g = build([(1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4), ()])
    assert (g.n, g.m) == (7, 6)


def test_immutability():
    g = named("k4")
    with pytest.raises(AttributeError):
        g.rotation = ()


def test_accessors():
    g = named("cube")
    assert (g.n, g.m) == (8, 12)
    assert g.vertices() == range(8)
    assert g.degree(0) == 3
    assert g.rotation[0] == (1, 4, 3)
    assert has_edge(g, 0, 4) and not has_edge(g, 0, 7)
    assert sorted(g.edges())[0] == (0, 1)
    assert len(list(g.edges())) == 12
    assert g == build(g.rotation) and hash(g) == hash(build(g.rotation))


# -- face tracing ------------------------------------------------------------


def test_trace_k4():
    faces = trace_faces(named("k4"))
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)
    assert faces[0] == (0, 1, 2)


def test_trace_cube_quads():
    faces = trace_faces(named("cube"))
    assert sorted(len(f) for f in faces) == [4] * 6
    assert set(faces) == {
        (0, 3, 2, 1),
        (0, 1, 5, 4),
        (0, 4, 7, 3),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (4, 5, 6, 7),
    }


def test_trace_counts():
    assert len(trace_faces(named("octahedron"))) == 8
    assert len(trace_faces(named("icosahedron"))) == 20


def test_walks_start_at_least_dart():
    for name in ("k4", "cube", "octahedron", "icosahedron"):
        for f in trace_faces(named(name)):
            darts = [(f[i], f[(i + 1) % len(f)]) for i in range(len(f))]
            assert darts[0] == min(darts)


def test_each_dart_on_one_walk():
    for name in ("k4", "cube", "octahedron", "icosahedron", "c4"):
        g = named(name)
        darts = [
            (f[i], f[(i + 1) % len(f)])
            for f in trace_faces(g)
            for i in range(len(f))
        ]
        assert len(darts) == len(set(darts)) == 2 * g.m


def test_face_walks_from_some_starts():
    # the walks through the darts out of some vertices are the faces touching them
    for name in ("k4", "cube", "octahedron", "icosahedron", "c4"):
        g = named(name)
        for starts in ([0], [2, 0], list(g.vertices())[1::2]):
            darts = [(u, w) for u in starts for w in g.rotation[u]]
            walks = [least_rotation(w) for w in face_walks(g.rotation, darts)]
            faces = [least_rotation(f) for f in trace_faces(g) if set(f) & set(starts)]
            assert len(walks) == len(set(walks))
            assert sorted(walks) == sorted(faces)


def test_face_walks_start_at_first_dart(cube):
    # each walk starts at the first given dart on it, in the order given
    rows = cube.rotation
    darts = list(all_darts(rows))[::-1]
    walks = list(face_walks(rows, darts))
    firsts = [next(d for d in darts if d in zip(w, w[1:] + w[:1])) for w in walks]
    assert firsts == [(w[0], w[1]) for w in walks]
    assert firsts == sorted(firsts, key=darts.index)
    assert len(walks) == 6


# -- from_faces --------------------------------------------------------------


def test_from_faces_cube():
    faces = [
        (3, 2, 1, 0),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ]
    assert from_faces(8, faces) == named("cube")


def test_from_faces_round_trip():
    for name in ("k4", "c4", "cube", "octahedron", "icosahedron"):
        g = named(name)
        assert from_faces(g.n, trace_faces(g)) == g


def test_from_faces_duplicate_dart():
    with pytest.raises(EmbeddingError, match="two faces"):
        from_faces(3, [(0, 1, 2), (0, 1, 2)])


@pytest.mark.parametrize(
    "n, faces, message",
    [
        (2, [("a", "b")], "face vertex 'a' is not an int id"),
        (3, [(0, 1.5, 2)], "face vertex 1.5 is not an int id"),
        (3, [(0, [1], 2)], "face vertex [1] is not an int id"),
        (3, [(0, 1, 3)], "face vertex 3 out of range"),
        (2, [(0,)], "face walk too short: (0,)"),
        # the walk holds the dart (2, 0), and no face holds its reverse
        (3, [(0, 1, 2)], "dart (0, 2) lies in no face"),
    ],
    ids=["str", "float", "list", "range", "short", "no-reverse"],
)
def test_from_faces_malformed_ids(n, faces, message):
    with pytest.raises(EmbeddingError) as info:
        from_faces(n, faces)
    assert str(info.value) == message


def test_from_faces_split_rotation():
    # two spheres sharing vertex 0: its corners chain into two cycles
    faces = [(0, 1, 2), (0, 2, 1), (0, 3, 4), (0, 4, 3)]
    with pytest.raises(EmbeddingError, match="several cycles"):
        from_faces(5, faces)


def test_from_faces_isolated_vertex():
    g = from_faces(4, [(0, 1, 2), (0, 2, 1)])
    assert g.rotation[3] == () and g.n == 4


# -- the engine's fill -------------------------------------------------------


def engine_fill(g):
    """The reducer's rows for g with every face filled and nothing deleted, and the chords.

    The descent makes this fill just before its first scan, so on an input
    with no vertex of degree 4 or less it is the descent's first step,
    after it makes its rows: here a plain copy of g's.
    """
    work = reducer._Work(g)
    work.rows = [list(r) for r in g.rotation]
    if work.triangulated:
        return work.rows, []
    return work.rows, work._fill_from(all_darts(work.rows), range(g.n), RunStats())


@pytest.mark.parametrize(
    "g, m, chords",
    [
        (named("cube"), 18, 6),
        # both quad faces need a chord and they cannot pick the same pair
        (named("c4"), 6, 2),
        (named("icosahedron"), 30, 0),
        (relabel(remove_vertices(named("icosahedron"), {0})), 27, 2),
    ]
    # filling both k-gon faces takes 2(k - 3) distinct chords
    + [(build(cycle_rotations(k)), 3 * k - 6, 2 * (k - 3)) for k in range(4, 14)],
    ids=["cube", "c4", "icosahedron", "icosahedron-0"]
    + [f"cycle-{k}" for k in range(4, 14)],
)
def test_engine_fill(g, m, chords):
    rows, placed = engine_fill(g)
    filled = build(rows)
    assert filled.m == m
    assert len(placed) == chords
    assert all(len(f) == 3 for f in trace_faces(filled))
    assert set(g.edges()) <= set(filled.edges())


# -- fill_walk ---------------------------------------------------------------


def test_fill_walk_raises_without_ear(k4):
    # every chord of the walk 0 1 2 3 is already an edge of K4; the message
    # names the walk as it stood after a whole turn
    rows = [list(r) for r in k4.rotation]
    with pytest.raises(UntriangulatableFace, match=r"^no chord fits face walk \[3, 0, 1, 2\]$"):
        fill_walk(rows, [0, 1, 2, 3])
    assert rows == [list(r) for r in k4.rotation]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(4, 60))
def test_fill_walk_triangulates_and_undoes(seed, n):
    g = plane_subgraph(seed, n)
    rows = [list(r) for r in g.rotation]
    chords = []
    for walk in list(face_walks(rows, all_darts(rows))):
        chords += fill_walk(rows, walk)
    filled = build(rows)
    # the only faces left that are not triangles bound a lone edge
    for face in trace_faces(filled):
        assert len(face) == 3 or all(filled.degree(v) == 1 for v in face)
    # removing the chords gives the input rows back
    for a, b in chords:
        rows[a].remove(b)
        rows[b].remove(a)
    assert rows == [list(r) for r in g.rotation]


def _fill_graphs():
    graphs = [
        plane_subgraph(s, n) for s in range(5) for n in (6, 9, 14, 25, 50, 100, 300)
    ]
    for k in (1, 2, 3, 4, 7, 20):
        graphs += [build(star_rotations(k)), build(path_rotations(k))]
    graphs += [build(cycle_rotations(k)) for k in (3, 4, 5, 9, 20)]
    return graphs


def _digest(data):
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def test_fill_pinned():
    # the rows a whole-graph fill leaves, which place every chord in its
    # rotations; any drift in how fill_walk cuts a face changes this digest
    assert _digest([engine_fill(g)[0] for g in _fill_graphs()]) == "3863b7324e799839"


def test_fill_colorings_pinned():
    # what color_planar makes of the same graphs: colorings and counters
    runs = []
    for g in _fill_graphs():
        stats = RunStats()
        runs.append((sorted(color_planar(g, stats).items()), pinned_counters(stats)))
    assert _digest(runs) == "1f60ae8413d82205"


# -- remove_vertices ---------------------------------------------------------


def test_remove_vertex_from_icosahedron(icosahedron):
    rows = remove_vertices(icosahedron, {0})
    assert rows[0] is None and len(rows) == 12
    # the survivors, renumbered, keep their rotations around a 5-hole
    g = relabel(rows)
    assert (g.n, g.m) == (11, 25)
    assert g.rotation[0] == tuple(w - 1 for w in rows[1])
    faces = trace_faces(g)
    assert sorted(len(f) for f in faces) == [3] * 15 + [5]
    hole = next(f for f in faces if len(f) == 5)
    assert set(hole) == {w - 1 for w in icosahedron.rotation[0]}


def test_remove_absent_vertex(icosahedron):
    g = remove_vertices(icosahedron, {0})
    with pytest.raises(EmbeddingError):
        remove_vertices(g, {0})
