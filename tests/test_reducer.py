"""Reducer behavior, from single-occurrence replays to full colorings.

hub_gadget: a 10-vertex sphere whose hub 0 carries the degree-8 pattern
with leaves 1, 2, 3, 5, 6 (greedy skips 4) and separators 4, 7, 8, plus an
outer vertex 9.  Scenario colorings steer which candidate takes the 5.

wheel_gadget: a 20-vertex sphere where the hub's wheel matches only the
separated variant (rim degrees 8,6,7,6,6 with the 7 not touching the 8).
Outer arcs o0..o12 are vertices 6..18, the far pole is 19.
"""

import gc
import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fivecolor import matching, reducer
from fivecolor.catalog import get_entry
from fivecolor.embedding import (
    _components,
    all_darts,
    build,
    face_walks,
    fill_walk,
    from_faces,
    opened_darts,
)
from fivecolor.instances import GenSpec, generate, icosphere, named
from fivecolor.kempe import BrokenInvariant
from fivecolor.matching import match_at
from fivecolor.reducer import (
    RunStats,
    SchemeExhausted,
    check_coloring,
    color_planar,
    reduce_once,
    select_fifth,
)

from conftest import (
    coloring_digest,
    color_list,
    cycle_rotations,
    least_rotation,
    path_rotations,
    plane_subgraph,
    recheck,
    relabel,
    remove_vertices,
    star_rotations,
    subdivided,
    trace_faces,
)


def hub_gadget():
    fan = [(0, i + 1, (i + 1) % 8 + 1) for i in range(8)]
    pole = [(9, 5, 4), (9, 6, 5), (9, 7, 6), (9, 8, 7), (9, 1, 8), (9, 4, 1)]
    g = from_faces(10, fan + [(4, 3, 2), (1, 4, 2)] + pole)
    occ = match_at(g, get_entry("hub"), 0)
    assert occ.mapping == {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 6}
    return g, occ


def wheel_gadget():
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1)]
    arcs = {1: (6, 7, 8, 9, 10), 2: (10, 11, 12), 3: (12, 13, 14, 15),
            4: (15, 16, 17), 5: (17, 18, 6)}
    for r, arc in arcs.items():
        faces += [(r, arc[j], arc[j + 1]) for j in range(len(arc) - 1)]
    faces += [(2, 1, 10), (3, 2, 12), (4, 3, 15), (5, 4, 17), (1, 5, 6)]
    faces += [(19, 6 + (j + 1) % 13, 6 + j) for j in range(13)]
    g = from_faces(20, faces)
    occ = match_at(g, get_entry("wheel-separated"), 0)
    assert occ.mapping == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert match_at(g, get_entry("wheel-adjacent"), 0) is None
    return g, occ


def test_select_fifth_hub_free():
    g, occ = hub_gadget()
    colors = color_list({4: 1, 7: 1, 8: 2, 9: 3}, 10)
    fifth, peel = select_fifth(g.rotation, occ, colors)
    assert fifth == 0
    assert peel == (1, 2, 3, 5, 6)


def test_select_fifth_blocked_cascade():
    # vertex 4 colored 5 blocks the hub and the first four leaves; leaf 6
    # is the survivor and the hub then peels mid-sequence
    g, occ = hub_gadget()
    colors = color_list({4: 5, 7: 1, 8: 2, 9: 3}, 10)
    fifth, peel = select_fifth(g.rotation, occ, colors)
    assert fifth == 6
    assert peel == (1, 2, 0, 3, 5)


def test_select_fifth_all_blocked():
    g, occ = hub_gadget()
    colors = color_list({4: 5, 7: 5, 8: 1, 9: 2}, 10)
    fifth, peel = select_fifth(g.rotation, occ, colors)
    assert fifth is None
    assert peel == (1, 2, 0, 3, 5, 6)


def test_reduce_once_on_hub_gadget():
    g, occ = hub_gadget()
    colors = color_list({4: 1, 7: 1, 8: 2, 9: 3}, 10)
    stats = RunStats()
    fifth, peel = reduce_once(list(map(list, g.rotation)), occ, colors, stats)
    assert fifth == 0 and colors[0] == 5
    assert stats.fifth_assigned == 1 and stats.fallback_peels == 0
    assert check_coloring(g, dict(enumerate(colors)))[5] == 1


def test_reduce_once_wheel_first_candidate():
    g, occ = wheel_gadget()
    outside = {6 + j: 1 + j % 2 for j in range(12)}
    outside.update({18: 3, 19: 4})
    colors = color_list(outside, 20)
    stats = RunStats()
    fifth, peel = reduce_once(list(map(list, g.rotation)), occ, colors, stats)
    assert fifth == 1  # trial order starts at the degree-8 rim vertex
    assert peel == (0, 2, 5, 4, 3)
    assert colors[1] == 5
    # coloring 5 ran out of plain colors; the (4,3) chain swap freed one
    assert stats.chain_swaps == 1
    assert (colors[3], colors[4], colors[5]) == (4, 3, 4)
    assert check_coloring(g, dict(enumerate(colors)))[5] == 1


def test_reduce_once_wheel_hub_fallback():
    # three rim vertices see a 5 outside, so the trial falls through to
    # the hub; the peel must shed the rim in ring order
    g, occ = wheel_gadget()
    outside = {6: 1, 7: 2, 8: 5, 9: 1, 10: 2, 11: 5, 12: 1, 13: 5, 14: 1,
               15: 2, 16: 1, 17: 2, 18: 3, 19: 4}
    colors = color_list(outside, 20)
    stats = RunStats()
    fifth, peel = reduce_once(list(map(list, g.rotation)), occ, colors, stats)
    assert fifth == 0 and colors[0] == 5
    assert peel == (2, 3, 4, 5, 1)
    assert stats.chain_swaps == 1 and stats.chain_verts == 1
    # rim 2 sees 3, 2, 1, 4 at 1, 10, 12, 3; the (3,1) chain at 1 runs
    # through the outer arc, the one at 12 is {12}, so 12 traded 1 -> 3
    assert [v for v in outside if colors[v] != outside[v]] == [12]
    assert colors[12] == 3
    assert {v: colors[v] for v in range(6)} == {0: 5, 1: 3, 2: 1, 3: 4, 4: 3, 5: 4}
    sizes = check_coloring(g, dict(enumerate(colors)))
    assert sizes[5] == 4  # three seeded outside plus the hub


def test_select_fifth_exhausted():
    # a pattern vertex with an absurd degree cannot peel once everything
    # is blocked; forge the situation by wiring extra neighbors in
    g, occ = hub_gadget()
    rows = list(map(list, g.rotation))
    rows[0] = rows[0] + [10, 11, 12, 13]  # hub sees four phantom blockers
    for v in (10, 11, 12, 13):
        rows.append([0])
    colors = color_list({4: 5, 7: 5, 8: 1, 9: 2, 10: 1, 11: 2, 12: 3, 13: 4}, 14)
    with pytest.raises(SchemeExhausted, match="hub"):
        select_fifth(rows, occ, colors)


def test_color_planar_k4(k4):
    colors = color_planar(k4)
    sizes = check_coloring(k4, colors)
    assert sizes[5] == 0
    assert len(colors) == 4


def test_color_planar_octahedron_low_only(octahedron):
    stats = RunStats()
    colors = color_planar(octahedron, stats)
    assert check_coloring(octahedron, colors)[5] == 0
    assert stats.scans == 0 and not stats.occ_steps
    assert stats.f1_steps == 3


def test_color_planar_icosahedron(icosahedron):
    stats = RunStats()
    colors = color_planar(icosahedron, stats)
    sizes = check_coloring(icosahedron, colors)
    assert sizes[5] <= 2
    assert stats.occ_steps["f2"] >= 1
    assert stats.fifth_assigned == sizes[5]


def test_color_planar_nine_antiprism():
    # all degrees are 5 or 9, so the first reduction is the virtual hub
    from test_matcher import antiprism

    g = antiprism(9)
    stats = RunStats()
    colors = color_planar(g, stats)
    sizes = check_coloring(g, colors)
    assert stats.occ_steps["f7"] >= 1
    assert 6 * sizes[5] <= g.n


def test_color_planar_cube_fills_quads(cube):
    colors = color_planar(cube)
    assert check_coloring(cube, colors)[5] == 0


def test_color_planar_tiny_graphs():
    assert color_planar(build([(1,), (0,)])) == {0: 1, 1: 2}
    assert color_planar(build([()])) == {0: 1}
    p3 = build([(1,), (0, 2), (1,)])
    assert check_coloring(p3, color_planar(p3))
    c5 = build([(1, 4), (2, 0), (3, 1), (4, 2), (0, 3)])
    assert check_coloring(c5, color_planar(c5))[5] == 0


def test_color_planar_disconnected():
    rows = list(named("k4").rotation) + [
        tuple(4 + u for u in row) for row in named("k4").rotation
    ]
    g = build(rows + [()])
    colors = color_planar(g)
    assert check_coloring(g, colors)
    assert len(colors) == 9


@pytest.mark.parametrize(
    "g",
    [
        relabel(remove_vertices(named("icosahedron"), {0, 7})),
        build([[1, 2], [2, 0], [0, 1], []]),  # an isolated vertex
        build([]),
    ],
    ids=["icosahedron-minus-2", "triangle-and-isolated", "empty"],
)
def test_color_planar_keys_are_the_present_vertices(g):
    # the ascent colors a vertex-indexed list; the dict handed back has
    # one key per vertex, an isolated one too
    colors = color_planar(g)
    assert type(colors) is dict
    assert set(colors) == set(g.vertices())
    assert check_coloring(g, colors)


def test_color_planar_deterministic(icosahedron):
    a = color_planar(icosahedron)
    b = color_planar(icosahedron)
    assert dict(a) == dict(b)


def test_check_coloring_rejects():
    k4 = named("k4")
    with pytest.raises(ValueError, match="no valid color"):
        check_coloring(k4, {0: 1, 1: 2, 2: 3})
    with pytest.raises(ValueError, match="both ends"):
        check_coloring(k4, {0: 1, 1: 1, 2: 3, 3: 4})


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(12, 90), st.sampled_from([1, 2]), st.booleans())
def test_color_planar_generated(seed, n, k, shaped):
    if shaped:
        n = 10 * 4**k + 2
    g = generate(GenSpec(seed=seed, n=n, flips=2 * n, shape_min_degree_5=shaped))
    stats = RunStats()
    colors = color_planar(g, stats)
    sizes = check_coloring(g, colors)
    assert 6 * sizes[5] <= g.n
    assert stats.fifth_assigned == sizes[5]
    assert len(colors) == g.n


# Triangulations whose split edges' degree-4 vertices peel first, leaving
# 4-holes that only the fill at the first scan closes
_SPLIT_BASES = [icosphere(3), generate(GenSpec(1, 642, 1284, shape_min_degree_5=True))]
_SPLIT_ICOSPHERE, _SPLIT_SHAPED = (subdivided(g, 4) for g in _SPLIT_BASES)


@pytest.mark.parametrize(
    "g", [icosphere(2), _SPLIT_ICOSPHERE], ids=["icosphere-2", "icosphere-3-split-4"]
)
def test_scan_never_probes_f1(monkeypatch, g):
    # the reducer scans the catalog as written, f1 first, but only once the
    # low-degree heap is empty: no live vertex has degree 4 or less, so the
    # index never probes f1, and its hit is the full scan's
    low = get_entry("low")
    scan, probe = reducer.find_reducible, matching.match_at
    probed = []
    found = []

    def counted(tri, entry, *alignment):
        probed.append(entry)
        return probe(tri, entry, *alignment)

    def checked(rows, entries=None):
        assert entries.entries[0] is low
        assert all(row is None or len(row) > 4 for row in rows)
        probed.clear()
        occ = scan(rows, entries)
        assert probed and all(e is not low for e in probed)
        assert occ == scan(rows)
        found.append(occ)
        return occ

    monkeypatch.setattr(matching, "match_at", counted)
    monkeypatch.setattr(reducer, "find_reducible", checked)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert len(found) == stats.scans > 0


@pytest.mark.parametrize("n", [2000, 4000, 8000])
def test_kempe_work_stays_small(n):
    # counters, not time.  Peeling the smallest degree first and swapping
    # whichever side of a diagonal runs out first gave swap ratios
    # 0.132 / 0.138 / 0.127 and 1.2 / 1.4 / 1.2 chain vertices per call;
    # popping in id order with one-ended chains gave 0.444 and 96 / 178 / 282
    g = generate(GenSpec(seed=7, n=n, flips=2 * n))
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.chain_swaps / stats.free_color_calls <= 0.2
    assert stats.chain_verts / stats.free_color_calls <= 2


def _shaped(seed):
    return generate(GenSpec(seed, 642, 1926, shape_min_degree_5=True))


def _f2_last(entries):
    return tuple(e for e in entries if e.family != "f2") + tuple(
        e for e in entries if e.family == "f2"
    )


@pytest.mark.parametrize("order", ["default", "f2-last"])
@pytest.mark.parametrize(
    "g, runs_with_f2_last",
    [
        (icosphere(3), {"f2", "f3", "f4", "f5", "f7"}),
        (_SPLIT_ICOSPHERE, {"f2", "f3", "f4", "f5", "f7", "f8"}),
    ]
    + [(_shaped(s), {"f3", "f4", "f5", "f7"}) for s in range(1, 5)]
    + [(_shaped(5), {"f3", "f4", "f5", "f7", "f8"})],
    ids=["icosphere-3", "icosphere-3-split-4"] + [f"shaped-{s}" for s in range(1, 6)],
)
def test_incremental_scan_matches_full_scan(monkeypatch, g, runs_with_f2_last, order):
    # the index probes only anchors near what changed since the last scan;
    # at every scan its hit must be the full scan's, in the same order.
    # With f2 last, icosphere-3 and the shaped graphs also run f3, f4, f5
    # and f7, whose probes read two hops out (f4's fan6-z2/z3 and f5's ring
    # entries), and shaped-5 runs f8
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    scan = reducer.find_reducible
    found = []

    def checked(rows, index):
        occ = scan(rows, index)
        assert occ == matching.find_reducible(rows, index.entries)
        assert recheck(occ, rows)
        found.append(occ.entry.family)
        return occ

    monkeypatch.setattr(reducer, "find_reducible", checked)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert len(found) == stats.scans > 0
    if order == "f2-last":
        assert runs_with_f2_last <= set(found)


def test_f2_last_runs_hub9(monkeypatch):
    # a generated host of hub9: with f2 last, the scans run f8 along with
    # f3, f4, f5 and f7, and select_fifth places a fifth color for each
    monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    g = generate(GenSpec(1, 2562, 5124, shape_min_degree_5=True))
    stats = RunStats()
    sizes = check_coloring(g, color_planar(g, stats))
    assert {"f3", "f4", "f5", "f7", "f8"} <= set(stats.occ_steps)
    assert 6 * sizes[5] <= g.n
    assert sizes[5] == stats.fifth_assigned


def _icosphere_minus_edge(k):
    """icosphere(k) without the first edge joining two degree-6 vertices.

    Not triangulated, but of minimum degree 5: no vertex is peeled before
    the first scan, and the fill there puts the edge back before any
    deletion, so nothing but the fill's log records its two ends.
    """
    rows = [list(r) for r in icosphere(k).rotation]
    u, w = next((u, w) for u, r in enumerate(rows) if len(r) == 6 for w in r if len(rows[w]) == 6)
    rows[u].remove(w)
    rows[w].remove(u)
    return build(rows)


@pytest.mark.parametrize(
    "g",
    [_icosphere_minus_edge(2), _SPLIT_ICOSPHERE],
    ids=["icosphere-2-minus-edge", "icosphere-3-split-4"],
)
def test_descent_records_every_row_change(monkeypatch, g):
    # the index re-probes only near recorded vertices, so every live row
    # that changed since the previous scan (since the start, at the first)
    # must have been recorded.  Chord endpoints are also the removed
    # vertices' neighbors, except in a fill at the first scan that comes
    # before any deletion
    scan = reducer.find_reducible
    before = [g.rotation]

    def checked(rows, index):
        moved = {
            v for v, row in enumerate(rows)
            if row is not None and tuple(row) != before[0][v]
        }
        assert moved <= index.changed
        before[0] = [None if row is None else tuple(row) for row in rows]
        return scan(rows, index)

    monkeypatch.setattr(reducer, "find_reducible", checked)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.scans > 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_scan_probes_stay_linear(k):
    # counters, not time.  Re-probing only the anchors near each change gave
    # 1.3 / 2.6 / 2.6 probes per vertex; rescanning every live vertex at
    # each scan gave 3.8 / 10.6 / 22.7
    g = icosphere(k)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert 0 < stats.probes <= 4 * g.n


@pytest.mark.parametrize("k", [3, 4, 5])
def test_scan_probes_equal_scans(k):
    # counters, not time.  The wheels have no secondary hook, so the degree
    # test passes exactly the alignments that hit, and each scan probes
    # once; probing every alignment of each visited anchor gave 13 to 26
    # probes per scan
    g = icosphere(k)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.probes == stats.scans > 0


def test_scan_probes_f2_last(monkeypatch):
    # counters, not time.  With f2 last every entry is probed; the degree
    # test gave 1.65 probes per vertex, against 50 without it
    monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    g = icosphere(4)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert 0 < stats.probes <= 3 * g.n


# -- tracing only the holes ----------------------------------------------------


def _holes_traced(rows, gone):
    """Check that the darts deleting `gone` opens trace exactly its holes.

    The holes are the walks through every boundary dart, after the
    deletion, that were no face before it.  The opened darts must give
    the same walks, from the same starts, in the same order.  Returns the
    number of holes.
    """
    before = {least_rotation(w) for w in face_walks(rows, all_darts(rows))}
    boundary = set()
    for v in sorted(gone):
        boundary.update(rows[v])
    boundary -= gone
    opened = opened_darts(rows, boundary, gone)
    after = [
        None if r is None or v in gone else [w for w in r if w not in gone]
        for v, r in enumerate(rows)
    ]
    every = [(u, w) for u in boundary for w in after[u]]
    holes = [w for w in face_walks(after, every) if least_rotation(w) not in before]
    assert list(face_walks(after, opened)) == holes
    return len(holes)


@pytest.mark.parametrize("order", ["default", "f2-last"])
@pytest.mark.parametrize(
    "g", [icosphere(3), _shaped(1)], ids=["icosphere-3", "shaped-1"]
)
def test_opened_darts_trace_occurrence_holes(monkeypatch, g, order):
    # at every occurrence of the descent, before its vertices go
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    scan = reducer.find_reducible
    seen = []

    def recorded(rows, index):
        occ = scan(rows, index)
        seen.append(([None if r is None else tuple(r) for r in rows], occ.vertices))
        return occ

    monkeypatch.setattr(reducer, "find_reducible", recorded)
    color_planar(g)
    assert seen
    assert all(_holes_traced(rows, gone) >= 1 for rows, gone in seen)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "icosphere", "shaped"]),
    st.integers(0, 2),
)
def test_opened_darts_trace_ball_holes(seed, kind, radius):
    rng = random.Random(seed)
    if kind == "random":
        n = rng.randint(12, 200)
        g = generate(GenSpec(seed, n, 2 * n))
    elif kind == "icosphere":
        g = icosphere(2)
    else:
        g = generate(GenSpec(seed, 162, 324, shape_min_degree_5=True))
    ball = {rng.choice(list(g.vertices()))}
    frontier = list(ball)
    for _ in range(radius):
        frontier = [w for v in frontier for w in g.rotation[v] if w not in ball]
        ball.update(frontier)
    _holes_traced(g.rotation, frozenset(ball))


def _guard(g):
    """Where the reducer fills only the faces its peels open, check that no other needs it."""
    skip = reducer._Work(g).triangulated
    assert skip == (g.m == 3 * g.n - 6)
    triangles = all(len(f) == 3 for f in trace_faces(g))
    if skip:
        assert triangles
    if g.n >= 3 and _components(g.rotation) == 1:
        assert skip == triangles
    return skip


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60))
def test_triangulation_guard(seed, n):
    # for n >= 3, m = 3n - 6 holds exactly for the connected graphs whose
    # every face walk is a triangle, so a fill of only the faces the peels
    # opened then misses nothing
    g = plane_subgraph(seed, n)
    _guard(g)
    rows = [list(r) for r in g.rotation]
    for walk in list(face_walks(rows, all_darts(rows))):
        fill_walk(rows, walk)
    filled = _guard(build(rows))  # every component filled, lone edges left
    if g.n >= 3 and _components(g.rotation) == 1:
        assert filled


def test_triangulation_guard_tiny_graphs():
    triangle = [(1, 2), (2, 0), (0, 1)]
    two = triangle + [(4, 5), (5, 3), (3, 4)]
    cases = {
        "empty": ([], False),
        "one vertex": ([()], False),
        "two vertices": ([(), ()], True),  # m = 3n - 6 = 0, and no walk at all
        "K2": ([(1,), (0,)], False),
        "triangle": (triangle, True),
        "two triangles": (two, False),  # all triangles, but traced: m = 6 < 12
    }
    assert {k: _guard(build(rows)) for k, (rows, _) in cases.items()} == {
        k: skip for k, (_, skip) in cases.items()
    }


@pytest.mark.parametrize("order", ["default", "f2-last"])
@pytest.mark.parametrize(
    "g",
    [icosphere(3), icosphere(4)]
    + [_shaped(s) for s in (1, 2, 3)]
    + [_SPLIT_ICOSPHERE, _SPLIT_SHAPED],
    ids=["icosphere-3", "icosphere-4", "shaped-1", "shaped-2", "shaped-3"]
    + ["icosphere-3-split-4", "shaped-split-4"],
)
def test_walk_darts_stay_linear(monkeypatch, g, order):
    # counters, not time.  Tracing from the darts each deletion opens gave
    # 0.91n to 1.13n; tracing every face around the boundary gave about 16n.
    # On the split graphs the first fill traces only the faces round the
    # peeled vertices' neighbors: 863 and 815 darts in all by default at
    # n = 646, where tracing every dart at that fill would give about 7n
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert 0 < stats.walk_darts <= 2 * g.n


def test_walk_darts_zero_on_triangulated_input():
    # this random triangulation peels away without a scan, so no face is
    # filled and no walk is traced
    stats = RunStats()
    g = generate(GenSpec(1, 800, 1600))
    check_coloring(g, color_planar(g, stats))
    assert stats.f1_steps > 0 and stats.walk_darts == 0


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("base", [0, 1], ids=["icosphere-3", "shaped"])
def test_triangulation_fills_at_its_first_scan(base, k):
    # the split edges' vertices peel at degree 4 and leave their 4-holes
    # open; the fill at the first scan closes each with one chord.  So the
    # log's tags before the first occurrence are the k peels, then the k
    # chords; a chord placed at each peel would interleave them
    work = reducer._Work(subdivided(_SPLIT_BASES[base], k))
    work.descend(RunStats())
    tags = [x for x in work.log if x < 0]
    first_scan = tags[: tags.index(reducer._OCC)]
    assert first_scan == [reducer._LOW] * k + [reducer._CHORD] * k


def _random_tree(seed, n):
    """A random tree on n vertices; any rotation of a tree is plane."""
    rng = random.Random(seed)
    rows = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        rng.shuffle(row)
    return build(rows)


@pytest.mark.parametrize(
    "g",
    [
        build(star_rotations(1999)),
        build(path_rotations(2000)),
        build(cycle_rotations(2000)),
        _random_tree(5, 2000),
    ],
    ids=["star", "path", "cycle", "tree"],
)
def test_sparse_inputs_never_fill(g):
    # counters, not time.  These peel down to three vertices, so the
    # descent never scans and never fills a face: no chord is logged, no
    # walk traced, and no peel sees four colors on the way back up
    work = reducer._Work(g)
    work.descend(RunStats())
    assert reducer._CHORD not in work.log
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.f1_steps == g.n - 3
    counters = (stats.scans, stats.chain_swaps, stats.walk_darts, stats.fifth_assigned)
    assert counters == (0, 0, 0, 0)


def _thinned(seed, k):
    """A seeded minimum-degree-5 triangulation on 162 vertices less k edges."""
    g = generate(GenSpec(seed, 162, 486, shape_min_degree_5=True))
    rows = [list(r) for r in g.rotation]
    for u, w in random.Random(seed).sample(sorted(g.edges()), k):
        rows[u].remove(w)
        rows[w].remove(u)
    return build(rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 120),
    thinned=st.integers(0, 3),
)
def test_fill_waits_for_the_first_scan(seed, n, thinned):
    # plane subgraphs peel away without a scan; a triangulation less one to
    # three edges peels its degree-4 vertices unfilled, and then either
    # peels away too or meets its first scan and fills there.  Either way
    # the only walks traced are the fill's and the holes' after it
    g = _thinned(seed, thinned) if thinned else plane_subgraph(seed, n)
    assume(g.m < 3 * g.n - 6)
    stats = RunStats()
    sizes = check_coloring(g, color_planar(g, stats))
    assert 6 * sizes[5] <= g.n
    assert (stats.walk_darts > 0) == (stats.scans > 0)


@pytest.mark.parametrize("kind", ["random-2000", "icosphere-4"])
def test_descent_log_tracks_few_objects(kind):
    # the undo log is a flat list of ints and deleted rows are kept as they
    # were, so beside the occurrences it keeps for the ascent (one tracked
    # object each, 259 = n/9.9 on icosphere-4) the collector sees almost
    # nothing new.  A log of op tuples, undo lists and level tuples left
    # 3.9 (random) and 3.1 (icosphere) new tracked objects per vertex
    g = generate(GenSpec(3, 2000, 4000)) if kind == "random-2000" else icosphere(4)
    work = reducer._Work(g)
    stats = RunStats()
    gc.collect()
    before = len(gc.get_objects())
    work.descend(stats)
    gc.collect()
    grown = len(gc.get_objects()) - before - sum(stats.occ_steps.values())
    assert grown < g.n / 10


def test_ascent_rejects_a_moved_chord():
    # icosphere(2) scans first, so its later degree-4 peels log chords
    g = icosphere(2)
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert reducer._CHORD in work.log
    # every field is >= 0 and every tag < 0; take the chord replayed first
    k = len(work.log) - 1 - work.log[::-1].index(reducer._CHORD)
    work.log[k - 3] -= 1  # its position in the row of its first end
    with pytest.raises(BrokenInvariant, match="not where its log put it"):
        work.ascend(stats)


def test_ascent_rejects_an_unrestored_rotation(monkeypatch):
    descend = reducer._Work.descend

    def perturbed(self, stats):
        descend(self, stats)
        # the first vertex deleted is put back last (no fill comes before
        # the first deletion, so no chord is undone after it); fields are
        # >= 0, so the first tag of either deletion closes its record
        k = min(i for i, x in enumerate(self.log) if x in (reducer._LOW, reducer._DEL))
        v = self.log[k - 1]
        self.saved[v].reverse()

    monkeypatch.setattr(reducer._Work, "descend", perturbed)
    with pytest.raises(BrokenInvariant, match="did not restore the rotation system"):
        color_planar(generate(GenSpec(1, 200, 400)))


def test_low_peels_log_one_record_each():
    # a peel's LOW record is its deletion too, so a descent of peels alone
    # writes one LOW tag per peel and no DEL
    g = generate(GenSpec(1, 800, 1600))
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert stats.scans == 0 and stats.f1_steps == g.n - 3
    assert reducer._DEL not in work.log
    assert work.log.count(reducer._LOW) == stats.f1_steps


def test_ascent_calls_free_color_only_when_blocked(monkeypatch):
    # a peel takes its spare color inline; only a peel that sees all four
    # colors calls free_color, and each of those swaps one chain.  Inline
    # colorings still count as free_color_calls
    free_color = reducer.free_color
    calls = []

    def counted(*args):
        calls.append(args[2])
        return free_color(*args)

    monkeypatch.setattr(reducer, "free_color", counted)
    g = generate(GenSpec(1, 800, 1600))
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.scans == 0
    assert len(calls) == stats.chain_swaps > 0
    assert stats.free_color_calls == stats.f1_steps


def test_ascent_keeps_the_five_blocker_tripwire(octahedron):
    # a hand-made log no descent writes: 4 and 5 come back next to 1 and 2
    # and both take 3, then 0 comes back with five neighbors colored
    # 1, 2, 3, 3, 3.  The table alone would give it 4; a LOW row longer
    # than 4 goes to free_color, which raises
    work = reducer._Work(octahedron)
    work.rows = [None, [2, 3], [1, 3], [1, 2], None, None]
    work.saved = [[1, 2, 3, 4, 5], None, None, None, [1, 2], [1, 2]]
    low = reducer._LOW
    work.log = [0, 0, 0, 0, 0, 0, low, 0, 0, 5, low, 0, 0, 4, low]
    with pytest.raises(BrokenInvariant, match="vertex 0 has 5 neighbors colored 1..4"):
        work.ascend(RunStats())


@pytest.mark.parametrize(
    "order, digest",
    [("default", "46ab9dd2c532ba1b"), ("f2-last", "1456121e0881ced8")],
)
def test_occurrence_descents_pinned(monkeypatch, order, digest):
    # colorings and counters of descents made of occurrences, taken while
    # the reducer traced every face around each hole's boundary; any drift
    # in which walks get filled, or from where, changes them
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    assert coloring_digest([icosphere(3), _shaped(1), _shaped(2)]) == digest


def _descent_log_digest(graphs):
    """sha256 over the undo log and saved rows of each graph's descent."""
    h = hashlib.sha256()
    for g in graphs:
        work = reducer._Work(g)
        work.descend(RunStats())
        h.update(repr((work.log, work.saved)).encode())
    return h.hexdigest()[:16]


def test_descent_log_pinned():
    # the undo log and the saved rows of descents that peel nothing before
    # their first scan: occurrence blocks with their holes, peels at every
    # degree after it (with the 4-holes' chords), and one fill before any
    # deletion; any drift in which records are written, or in their order,
    # changes this digest
    graphs = [icosphere(3), _icosphere_minus_edge(3)]
    assert _descent_log_digest(graphs) == "5b7b7e9747a2d6b5"


def test_descent_log_pinned_random():
    # the same for a random triangulation, which peels away without a scan
    assert _descent_log_digest([generate(GenSpec(7, 2000, 4000))]) == "2c1165c9e1f03dd2"


def test_descent_log_pinned_sparse():
    # the same for inputs with long faces that peel before their first
    # scan (or never scan): stars, paths, cycles and plane subgraphs
    graphs = [build(rot(300)) for rot in (star_rotations, path_rotations, cycle_rotations)]
    graphs += [plane_subgraph(s, 300) for s in range(4)]
    assert _descent_log_digest(graphs) == "b2077bceec3f9308"
