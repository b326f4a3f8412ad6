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
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fivecolor import matching, reducer
from fivecolor.catalog import get_entry
from fivecolor.embedding import (
    _components,
    build,
    face_walks,
    fill_walk,
    from_faces,
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
    MeteredRow,
    all_darts,
    barrel,
    color_runs,
    color_list,
    cycle_rotations,
    five_core,
    order_free_digest,
    path_rotations,
    plane_subgraph,
    recheck,
    relabel,
    remove_vertices,
    runs_digest,
    scan_rows,
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
    assert stats.chain_swaps == 1 and stats.chain_verts == 7
    # rim 2 sees 3, 2, 1, 4 at 1, 10, 12, 3; the (3,1) chain at 1 runs
    # through the outer arc, the one at 12 is {12}, so 12 traded 1 -> 3.
    # The four searches held 7 vertices: the ends, 6 and 9 from 1's first
    # turn and 19 from 10's, before 12's search ran out on its first turn
    assert [v for v in outside if colors[v] != outside[v]] == [12]
    assert colors[12] == 3
    assert {v: colors[v] for v in range(6)} == {0: 5, 1: 3, 2: 1, 3: 4, 4: 3, 5: 4}
    sizes = check_coloring(g, dict(enumerate(colors)))
    assert sizes[5] == 4  # three seeded outside plus the hub


def test_reduce_once_all_blocked_spends_no_fifth(monkeypatch):
    # the 5s outside at 4 and 7 block every candidate, the hub too, so the
    # whole pattern peels and the ascent's one coloring loop gives each
    # member a color of 1..4
    free_color = reducer.free_color
    called = []
    monkeypatch.setattr(
        reducer, "free_color", lambda *args: called.append(args[2]) or free_color(*args)
    )
    g, occ = hub_gadget()
    colors = color_list({4: 5, 7: 5, 8: 1, 9: 2}, 10)
    stats = RunStats()
    fifth, peel = reduce_once(list(map(list, g.rotation)), occ, colors, stats)
    assert fifth is None and set(peel) == occ.vertices
    # the members take spare colors inline; only the hub and leaf 1, which
    # come back to more than four colored neighbors (the 5s count), go
    # through free_color
    assert called == [0, 1]
    assert stats.fallback_peels == 1 and stats.fifth_assigned == 0
    assert all(colors[v] in (1, 2, 3, 4) for v in peel)
    assert check_coloring(g, dict(enumerate(colors)))[5] == 2  # the two seeded


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


@pytest.mark.parametrize(
    "gadget, outside, member",
    [
        (hub_gadget, {4: 1, 7: 1, 8: 2, 9: 3}, 1),
        (wheel_gadget, {**{6 + j: 1 + j % 2 for j in range(12)}, 18: 3, 19: 4}, 3),
    ],
    ids=["hub", "wheel"],
)
def test_select_fifth_ignores_an_earlier_deletion(gadget, outside, member):
    # the ascent reads the input's rows, where a neighbor deleted before
    # the occurrence is still listed but not colored yet.  It blocks nothing,
    # so a member that lists one more such vertex peels as before: counted,
    # it would peel leaf 1 of the hub after leaf 2, and leave no wheel
    # candidate at all
    g, occ = gadget()
    n = g.n
    expected = select_fifth(g.rotation, occ, color_list(outside, n))
    rows = list(map(list, g.rotation))
    rows[member] = rows[member] + [n]
    rows.append([member])
    assert select_fifth(rows, occ, color_list(outside, n + 1)) == expected


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
    assert stats.f1_steps == 6


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
    "g",
    [icosphere(2), _SPLIT_ICOSPHERE, barrel(4)],
    ids=["icosphere-2", "icosphere-3-split-4", "barrel-4"],
)
def test_scan_never_probes_f1(monkeypatch, g):
    # the reducer scans the catalog as written, f1 first, but only once its
    # low-degree buckets are empty: no live vertex has degree 4 or less, so
    # the index never probes f1, and its hit is the full scan's
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
    # counters, not time.  Peeling the smallest degree first, ties last in
    # first out, and searching from all four blockers in turn gives 0.034 /
    # 0.031 / 0.028 swaps and 0.86 / 0.67 / 0.66 chain vertices (every
    # vertex a search held, ends included) per vertex colored from 1..4.
    # Searching one diagonal from both ends, then the other, and counting
    # only the set swapped read 0.034 / 0.032 / 0.027 and 0.38 / 0.31 /
    # 0.30; popping in id order with one-ended chains gave 0.444 and 96 /
    # 178 / 282
    g = generate(GenSpec(seed=7, n=n, flips=2 * n))
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    colored = g.n - stats.fifth_assigned  # the vertices colored from 1..4
    assert stats.chain_swaps / colored <= 0.2
    assert stats.chain_verts / colored <= 2


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_icosphere_kempe_work_stays_small(k):
    # counters, not time.  An icosphere scans once and then peels away in
    # one cascade, so its Kempe searches run over a graph of minimum degree
    # 5 less one occurrence.  Searching from all four blockers in turn
    # gives 0.064 / 0.017 / 0.020 / 0.002 chain vertices per vertex at
    # k = 3..6.  Searching one diagonal, then the other, it read 0.22 /
    # 0.11 / 0.09 / 0.25 counting only the sets swapped, and 28.3 at k = 7
    # with ties broken by smallest id, where one linked (c1, c3) diagonal
    # was searched to its end
    g = icosphere(k)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.scans == 1
    assert stats.chain_verts <= g.n


@pytest.mark.parametrize("segments", [64, 256])
def test_barrel_kempe_work_stays_small(segments):
    # counters, not time.  A barrel scans once per segment.  Colored against
    # the input's rows, one Kempe search holds at most 16 vertices at 64 and
    # 256 segments.  Colored against each scan's rows, chords included, one
    # search held 1721 and 7097, about 0.8 n
    g = barrel(segments)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.scans == segments
    assert stats.chain_max <= 64


@pytest.mark.parametrize("seed", [2, 3])
def test_permuted_icosphere_kempe_search_stays_local(seed):
    # counters, not time.  With ids permuted, icosphere(5) has a blocked
    # vertex whose (c1, c3) diagonal is closed by a chain round the far
    # side of the graph.  Searching that diagonal from both ends until they
    # met, before the other, took sets of up to 2325 and 987 vertices (3405
    # and 1085 summed over the run); the four-ended search holds at most
    # 374 and 213 in one call (488 and 423 over the run)
    g = icosphere(5)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    rows = [None] * g.n
    for v, row in enumerate(g.rotation):
        rows[perm[v]] = tuple(perm[w] for w in row)
    g = build(rows)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.chain_max <= g.n // 25
    assert stats.chain_verts <= g.n // 20


def _shaped(seed):
    return generate(GenSpec(seed, 642, 1926, shape_min_degree_5=True))


def _f2_last(entries):
    return tuple(e for e in entries if e.family != "f2") + tuple(
        e for e in entries if e.family == "f2"
    )


_BARRELS = [2, 4, 8, 16]


@pytest.mark.parametrize("order", ["default", "f2-last"])
@pytest.mark.parametrize(
    "g",
    [icosphere(3), _SPLIT_ICOSPHERE]
    + [_shaped(s) for s in range(1, 6)]
    + [barrel(s) for s in _BARRELS],
    ids=["icosphere-3", "icosphere-3-split-4"]
    + [f"shaped-{s}" for s in range(1, 6)]
    + [f"barrel-{s}" for s in _BARRELS],
)
def test_incremental_scan_matches_full_scan(monkeypatch, g, order):
    # the index probes only anchors near what changed since the last scan;
    # at every scan its hit must be the full scan's, in the same order.
    # Only the barrels scan more than once; which families a scan order
    # reaches is tested over a corpus, in test_family_first_reaches_the_reducer
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


@pytest.mark.parametrize("family", ["f3", "f4", "f5", "f6", "f7", "f8"])
def test_family_first_reaches_the_reducer(monkeypatch, family):
    # a minimum-degree-5 input is scanned once before any deletion, and
    # these peel away after one occurrence, so a scan order reaches one
    # family per graph.  With the family's entries just after f1, the scan
    # hits that family wherever it matches the input, and select_fifth and
    # reduce_once place its fifth color.  Each family matched all five
    # graphs but f8 (hub9), which matched four
    entries = reducer._SCAN_ENTRIES
    first = tuple(e for e in entries if e.family == family)
    rest = tuple(e for e in entries[1:] if e.family != family)
    monkeypatch.setattr(reducer, "_SCAN_ENTRIES", entries[:1] + first + rest)
    selected, reduced = [], []
    select, reduce = reducer.select_fifth, reducer.reduce_once

    def recorded_select(rows, occ, colors):
        selected.append(occ.entry.family)
        return select(rows, occ, colors)

    def recorded_reduce(rows, occ, colors, stats):
        reduced.append(occ.entry.family)
        return reduce(rows, occ, colors, stats)

    monkeypatch.setattr(reducer, "select_fifth", recorded_select)
    monkeypatch.setattr(reducer, "reduce_once", recorded_reduce)
    hosts = 0
    for s in range(1, 6):
        g = generate(GenSpec(s, 642, 1284, shape_min_degree_5=True))
        selected.clear()
        reduced.clear()
        stats = RunStats()
        sizes = check_coloring(g, color_planar(g, stats))
        assert 6 * sizes[5] <= g.n
        assert sizes[5] == stats.fifth_assigned
        assert selected == reduced and Counter(selected) == stats.occ_steps
        try:
            matching.find_reducible(g, first)
        except matching.CompletenessBreach:
            assert stats.occ_steps[family] == 0
        else:
            assert stats.occ_steps[family] > 0
            hosts += 1
    assert hosts >= 4


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
    [_icosphere_minus_edge(2), _SPLIT_ICOSPHERE] + [barrel(s) for s in _BARRELS],
    ids=["icosphere-2-minus-edge", "icosphere-3-split-4"] + [f"barrel-{s}" for s in _BARRELS],
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
    + [_SPLIT_ICOSPHERE, _SPLIT_SHAPED, barrel(16)],
    ids=["icosphere-3", "icosphere-4", "shaped-1", "shaped-2", "shaped-3"]
    + ["icosphere-3-split-4", "shaped-split-4", "barrel-16"],
)
def test_walk_darts_stay_linear(monkeypatch, g, order):
    # counters, not time.  Each fill traces the faces round the live
    # neighbors of the vertices deleted since the last scan, so a descent
    # that deletes nothing before its last scan traces none: icosphere and
    # shaped inputs scan once, before any deletion.  The split graphs peel
    # first and traced 863 and 815 darts by default at n = 646, and
    # barrel-16 750 at n = 567; tracing every dart at each fill would give
    # about 6n per scan
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.walk_darts <= 2 * g.n
    work = reducer._Work(g)
    work.descend(RunStats())
    # cuts[-1] counts the vertices deleted before the last scan
    assert (stats.walk_darts > 0) == (work.cuts[-1] > 0)


def test_walk_darts_zero_on_triangulated_input():
    # this random triangulation peels away without a scan, so no face is
    # filled and no walk is traced
    stats = RunStats()
    g = generate(GenSpec(1, 800, 1600))
    check_coloring(g, color_planar(g, stats))
    assert stats.f1_steps > 0 and stats.walk_darts == 0


def _record_fills_and_scans(monkeypatch):
    """Record, in order, each fill's chord count and each scan ("scan")."""
    fill, scan = reducer._Work._fill_from, reducer.find_reducible
    events = []

    def filled(self, darts, copied, stats):
        chords = fill(self, darts, copied, stats)
        events.append(len(chords))
        return chords

    def scanned(rows, index):
        events.append("scan")
        return scan(rows, index)

    monkeypatch.setattr(reducer._Work, "_fill_from", filled)
    monkeypatch.setattr(reducer, "find_reducible", scanned)
    return events


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("base", [0, 1], ids=["icosphere-3", "shaped"])
def test_triangulation_fills_at_its_first_scan(monkeypatch, base, k):
    # the split edges' vertices peel at degree 4 and leave their 4-holes
    # open; the fill at the first scan closes each with one chord.  So the
    # k peels come before the first scan, and its fill places the k chords;
    # a chord placed at each peel would come before that fill
    events = _record_fills_and_scans(monkeypatch)
    work = reducer._Work(subdivided(_SPLIT_BASES[base], k))
    work.descend(RunStats())
    assert work.cuts[0] == k
    assert events[:2] == [k, "scan"]


@pytest.mark.parametrize("segments", _BARRELS)
def test_chords_come_only_just_before_a_scan(monkeypatch, segments):
    # faces are filled only just before a scan: each scan comes right after
    # its fill, the first fill finds a triangulation with nothing deleted
    # and places no chord, every later one closes the hole the occurrence
    # and peels before it left, and after the last scan nothing is filled.
    # Filling each hole as it opens would put more fills than scans
    events = _record_fills_and_scans(monkeypatch)
    work = reducer._Work(barrel(segments))
    work.descend(RunStats())
    fills, scans = events[::2], events[1::2]
    assert len(events) == 2 * segments and scans == ["scan"] * segments
    assert fills[0] == 0 and all(chords > 0 for chords in fills[1:])


@pytest.mark.parametrize("order", ["default", "f2-last"])
@pytest.mark.parametrize("segments", _BARRELS)
def test_barrel_scans_once_per_segment(monkeypatch, segments, order):
    # counters, not time.  Each scan's occurrence and the peels after it
    # eat one segment, and the next fill traces the faces round what they
    # left: 50, 150, 350 and 750 darts at n = 77, 147, 287 and 567, in
    # both orders, so about 50 darts per 35 vertices.  By default every
    # scan probes once; with f2 last the first probes more (18, 22, 30
    # and 46 in all)
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    g = barrel(segments)
    stats = RunStats()
    sizes = check_coloring(g, color_planar(g, stats))
    assert 6 * sizes[5] <= g.n
    assert stats.scans == segments
    assert stats.walk_darts <= 1.5 * g.n
    assert stats.probes <= g.n / 4


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
def test_sparse_inputs_never_fill(monkeypatch, g):
    # counters, not time.  These peel away, so the descent never scans and
    # never fills a face: no chord is placed, no walk traced, and no peel
    # sees four colors on the way back up
    events = _record_fills_and_scans(monkeypatch)
    work = reducer._Work(g)
    work.descend(RunStats())
    assert events == []
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.f1_steps == g.n
    counters = (stats.scans, stats.chain_swaps, stats.walk_darts, stats.fifth_assigned)
    assert counters == (0, 0, 0, 0)


@pytest.mark.parametrize("rotations", [cycle_rotations, path_rotations], ids=["cycle", "path"])
def test_peel_stops_at_its_last_deletion(rotations):
    # every vertex of a cycle or a path starts on a low bucket and is pushed
    # again as its count drops; the peel pops one live entry per vertex
    # and stops there, leaving the stale entries behind
    g = build(rotations(300))
    work = reducer._Work(g)
    low = [MeteredRow() for _ in range(5)]
    for v, k in enumerate(work.deg):
        low[k].append(v)
    MeteredRow.removals = 0
    work._peel(g.rotation, low)
    assert sorted(work.log) == list(range(300))
    assert MeteredRow.removals == 300


@pytest.mark.parametrize(
    "g",
    [
        build(star_rotations(300)),
        build(path_rotations(300)),
        build(cycle_rotations(300)),
        generate(GenSpec(1, 800, 1600)),
    ],
    ids=["star", "path", "cycle", "random"],
)
def test_descent_without_a_scan_copies_no_rows(monkeypatch, g):
    # peels before the first scan read the input's own rows and keep a
    # degree count per vertex, so a descent that never scans holds no row
    # of its own and allocates no list per row, on the way down or back
    gc.collect()
    lists = sum(type(x) is list for x in gc.get_objects())
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert stats.scans == 0
    assert sum(type(x) is list for x in gc.get_objects()) - lists < 20
    held = [
        x
        for value in vars(work).values()
        if isinstance(value, (list, tuple)) and value is not g.rotation
        for x in value
    ]
    assert not any(isinstance(x, (list, tuple)) for x in held)

    def made(self, deleted, starts):
        raise AssertionError("rows made for a descent that never scans")

    monkeypatch.setattr(reducer._Work, "_rebuild", made)
    check_coloring(g, color_planar(g))


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
    # walks are traced only by the fills just before scans
    g = _thinned(seed, thinned) if thinned else plane_subgraph(seed, n)
    assume(g.m < 3 * g.n - 6)
    stats = RunStats()
    sizes = check_coloring(g, color_planar(g, stats))
    assert 6 * sizes[5] <= g.n
    assert (stats.walk_darts > 0) == (stats.scans > 0)


@pytest.mark.parametrize("kind", ["random-2000", "icosphere-4"])
def test_descent_log_tracks_few_objects(monkeypatch, kind):
    # the undo log is a flat list of ints, so beside the occurrences it
    # keeps for the ascent (one tracked object each) and the lists the
    # scans make (none here: icosphere-4 scans once with nothing deleted,
    # and random-2000 never scans) the collector sees almost nothing new.
    # A log of op tuples, undo lists and level tuples left 3.9 (random)
    # and 3.1 (icosphere) new tracked objects per vertex
    g = generate(GenSpec(3, 2000, 4000)) if kind == "random-2000" else icosphere(4)
    made = scan_rows(monkeypatch)
    work = reducer._Work(g)
    stats = RunStats()
    gc.collect()
    before = len(gc.get_objects())
    work.descend(stats)
    gc.collect()
    rows = sum(map(len, made)) + len(made)  # the lists made, and the records of them
    grown = len(gc.get_objects()) - before - sum(stats.occ_steps.values()) - rows
    assert grown < g.n / 10


def test_fill_rejects_a_chord_on_a_row_its_scan_did_not_copy(monkeypatch):
    # a barrel fills the hole its first occurrence leaves before its second
    # scan.  Every hole a deletion opens runs through live neighbors of the
    # deleted vertices, whose rows that scan makes, so a hole through any
    # other row is one its deletions did not open, and a chord there could
    # land on an input tuple: here the second scan is told it did not copy
    # a chord's end
    g = barrel(2)
    fill = reducer._Work._fill_from
    chords = []

    def recorded(self, darts, copied, stats):
        chords.append(fill(self, darts, copied, stats))
        return chords[-1]

    monkeypatch.setattr(reducer._Work, "_fill_from", recorded)
    check_coloring(g, color_planar(g))
    end = chords[1][0][0]

    def uncopied(self, darts, copied, stats):
        if self.occs:
            copied = {u: None for u in copied if u != end}
        return fill(self, darts, copied, stats)

    monkeypatch.setattr(reducer._Work, "_fill_from", uncopied)
    with pytest.raises(BrokenInvariant, match="a chord lands on a row its scan did not copy"):
        color_planar(g)


def test_fill_rejects_a_walk_on_the_input_rows():
    # rows a scan did not make may be the input's own tuples, which take
    # no chord: the fill checks every walk before it edits anything, so it
    # raises its tripwire, not the AttributeError of tuple.insert
    g = plane_subgraph(1, 40)
    assert g.m < 3 * g.n - 6
    work = reducer._Work(g)
    work.rows = list(g.rotation)
    with pytest.raises(BrokenInvariant, match="a chord lands on a row its scan did not copy"):
        work._fill_from(all_darts(work.rows), (), RunStats())
    assert all(work.rows[v] is g.rotation[v] for v in g.vertices())


@pytest.mark.parametrize(
    "g", [barrel(4), _SPLIT_ICOSPHERE], ids=["barrel-4", "icosphere-3-split-4"]
)
def test_no_deletion_edits_a_row(monkeypatch, g):
    # a deletion marks its vertex dead and lowers its neighbors' degree
    # counts; rows change only at a scan, which makes new lists.  So no
    # call ever removes an item from the lists the scans make
    made = scan_rows(monkeypatch)
    rebuild = reducer._Work._rebuild

    def metered(self, deleted, starts):
        rebuild(self, deleted, starts)
        for u, row in made[-1].items():
            made[-1][u] = self.rows[u] = MeteredRow(row)

    monkeypatch.setattr(reducer._Work, "_rebuild", metered)
    monkeypatch.setattr(MeteredRow, "removals", 0)
    stats = RunStats()
    check_coloring(g, color_planar(g, stats))
    assert stats.scans > 0 and stats.f1_steps > 0 and any(made)
    assert MeteredRow.removals == 0


def test_a_scan_with_nothing_deleted_makes_no_row():
    # an icosphere scans once, before any deletion, and then peels away:
    # its scan starts from the input's own rows and has none to make
    g = icosphere(3)
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert stats.scans == 1
    assert all(work.rows[v] is g.rotation[v] for v in g.vertices())


@pytest.mark.parametrize(
    "g", [barrel(4), _SPLIT_ICOSPHERE], ids=["barrel-4", "icosphere-3-split-4"]
)
def test_ascent_reads_only_the_input_rows(g):
    # the ascent colors every segment against the input's rows, so the rows
    # the scans made serve the descent alone: without them it still gives
    # a proper coloring with at most n/6 fifths
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert stats.scans > 0
    work.rows = None
    sizes = check_coloring(g, dict(enumerate(work.ascend(stats))))
    assert 6 * sizes[5] <= g.n


def test_low_peels_log_one_record_each():
    # a peel's id in the log is its whole record, so a descent of peels
    # alone logs one id per peel, each vertex once, and nothing else
    g = generate(GenSpec(1, 800, 1600))
    work = reducer._Work(g)
    stats = RunStats()
    work.descend(stats)
    assert stats.scans == 0 and stats.f1_steps == g.n
    assert work.cuts == [] and work.rows is None
    assert len(work.log) == len(set(work.log)) == stats.f1_steps


@pytest.mark.parametrize(
    "g",
    [barrel(4), icosphere(3), generate(GenSpec(1, 800, 1600)), build(star_rotations(50))]
    + [build(path_rotations(k)) for k in range(4)],
    ids=["barrel-4", "icosphere-3", "random", "star", "p0", "p1", "p2", "p3"],
)
def test_descent_deletes_every_vertex(g):
    # the descent runs until nothing is live, so the log holds each vertex
    # once and the ascent colors every one of them by the same loop
    work = reducer._Work(g)
    work.descend(RunStats())
    assert sorted(work.log) == list(range(g.n))
    assert not any(work.live)


def test_ascent_calls_free_color_only_when_blocked(monkeypatch):
    # a peel takes its spare color inline; only a peel that sees all four
    # colors calls free_color, and each of those swaps one chain
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


def test_ascent_keeps_the_five_blocker_tripwire(octahedron):
    # a hand-made log no descent writes: 4 and 5 come back next to 1 and 2
    # and both take 3, then 0 comes back with five neighbors colored
    # 1, 2, 3, 3, 3.  The table alone would give it 4; a peel with more
    # than 4 colored neighbors goes to free_color, which raises.  These are
    # peels before any scan, read against the input's rows, where 1, 2 and
    # 3, deleted last, come back first and take 1, 2 and 3; every vertex,
    # before a scan or after one, is colored by the same loop
    work = reducer._Work(octahedron)
    work.given = [(1, 2, 3, 4, 5), (0, 2, 3), (0, 1, 3), (0, 1, 2), (0, 1, 2), (0, 1, 2)]
    work.log = [0, 5, 4, 3, 2, 1]
    with pytest.raises(BrokenInvariant, match="vertex 0 has 5 neighbors colored 1..4"):
        work.ascend(RunStats())


def _order_free_corpus():
    """Barrels, split triangulations and plane subgraphs.

    A barrel scans once per segment, a split triangulation peels and then
    scans once, and a plane subgraph peels away without a scan.
    """
    graphs = [barrel(s) for s in (2, 4, 8, 16, 32)]
    graphs += [subdivided(b, k) for b in _SPLIT_BASES for k in (1, 4, 16)]
    return graphs + [plane_subgraph(s, 300) for s in range(6)]


def test_order_free_counts_pinned():
    # which vertices are live at each scan does not depend on how peels
    # break ties among equal degrees, and neither do the scans, the
    # families and fifth colors of their occurrences, or the darts the
    # fills trace.  A change of tie-break moves colorings and Kempe
    # counters, not this digest
    runs = color_runs(_order_free_corpus())
    assert sum(stats.scans for _, stats in runs) == 68
    assert order_free_digest(runs) == "c049955674be0af3"


def test_first_scan_sees_the_5_core(monkeypatch):
    # peels stop when no live vertex has degree 4 or less, and the vertices
    # left then are the 5-core, in any peel order.  The barrels, the split
    # graphs and the icosphere have one; plane subgraphs, a random
    # triangulation, a star, a path and a cycle have none and never scan
    graphs = _order_free_corpus() + [icosphere(3), generate(GenSpec(7, 2000, 4000))]
    graphs += [build(rot(300)) for rot in (star_rotations, path_rotations, cycle_rotations)]
    cores = [five_core(g.rotation) for g in graphs]
    assert sum(map(bool, cores)) == 12
    scan = reducer.find_reducible
    first = []  # per graph, the live vertices at its first scan

    def recorded(rows, index):
        if not first[-1]:
            first[-1] = {v for v, row in enumerate(rows) if row is not None}
        return scan(rows, index)

    monkeypatch.setattr(reducer, "find_reducible", recorded)
    for g in graphs:
        first.append(set())
        reducer._Work(g).descend(RunStats())
    assert first == cores


def _replay_peels(g, work, made):
    """Replay a descent's log on degree counts; returns how many peels it checked.

    Each segment runs against its rows: the input's before the first scan,
    then the rows each scan made (`made`, from scan_rows) laid over them in
    turn.  An occurrence's vertices go first, as a set.  Every peel must
    have degree 4 or less and no live vertex a smaller one, and every scan
    must find no live vertex of degree 4 or less.
    """
    rows = list(g.rotation)
    live = set(range(g.n))
    log, peels = work.log, 0
    starts = [0] + work.cuts
    for k, start in enumerate(starts):
        if k:
            for u, row in made[k - 1].items():
                rows[u] = row
            doomed = work.occs[k - 1].vertices
            assert set(log[start : start + len(doomed)]) == set(doomed)
            live -= set(doomed)
            start += len(doomed)
        deg = {v: sum(w in live for w in rows[v]) for v in live}
        end = starts[k + 1] if k + 1 < len(starts) else len(log)
        for v in log[start:end]:
            assert deg[v] <= 4 and deg[v] == min(deg.values())
            del deg[v]
            live.remove(v)
            for w in rows[v]:
                if w in live:
                    deg[w] -= 1
            peels += 1
        if k + 1 < len(starts):
            assert min(deg.values()) >= 5
    assert len(live) <= 3
    return peels


def test_every_peel_takes_the_smallest_degree(monkeypatch):
    # whatever the tie-break, the log replays as smallest-degree-first on
    # the rows each segment saw, and every scan starts with none of degree
    # 4 or less left
    graphs = _order_free_corpus() + [generate(GenSpec(7, 2000, 4000))]
    graphs += [build(rot(300)) for rot in (star_rotations, path_rotations, cycle_rotations)]
    made = scan_rows(monkeypatch)
    for g in graphs:
        made.clear()
        work = reducer._Work(g)
        stats = RunStats()
        work.descend(stats)
        assert len(made) == stats.scans
        assert _replay_peels(g, work, made) == stats.f1_steps


@pytest.mark.parametrize(
    "order, free, digest",
    [
        ("default", "6aa6164fe1515cbf", "b926613e23b6e34e"),
        ("f2-last", "b36f37cfcbd7286c", "4fedd469787c7444"),
    ],
    ids=["default", "f2-last"],
)
def test_occurrence_descents_pinned(monkeypatch, order, free, digest):
    # colorings and counters of descents that start with an occurrence,
    # and of a barrel, which fills a hole before each later scan; any drift
    # in which walks get filled, or from where, changes them.  The counts
    # that name no vertex (scans, families, fifths, fill darts) are pinned
    # apart, so a change to how the ascent colors moves only `digest`
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    runs = color_runs([icosphere(3), _shaped(1), _shaped(2), barrel(4)])
    assert order_free_digest(runs) == free
    assert runs_digest(runs) == digest


def test_peel_then_scan_descents_pinned():
    # colorings and counters of descents that peel before their first scan
    # and then scan: split triangulations, plane subgraphs and barrels, 22
    # scans in all.  Any drift in the rows the first scan sees, or in how a
    # peel made before it is colored on the way back, changes this digest
    graphs = [subdivided(b, k) for b in _SPLIT_BASES for k in (1, 2, 4, 8)]
    graphs += [plane_subgraph(s, 300) for s in range(8)]
    graphs += [barrel(s) for s in (2, 4, 8)]
    runs = color_runs(graphs)
    assert sum(stats.scans for _, stats in runs) == 22
    assert runs_digest(runs) == "8a7cb39df18b51b6"


def _descent_log_digest(graphs):
    """sha256 over the undo log and the scans' cuts in it of each graph's descent."""
    h = hashlib.sha256()
    for g in graphs:
        work = reducer._Work(g)
        work.descend(RunStats())
        h.update(repr((work.log, work.cuts)).encode())
    return h.hexdigest()[:16]


def test_descent_log_pinned():
    # the undo log and cuts of descents that peel nothing before their
    # first scan: occurrences, peels at every degree after them, one fill
    # before any deletion, and a barrel's scans after the holes its
    # occurrences leave; any drift in which vertices are deleted, or in
    # their order, changes this digest
    graphs = [icosphere(3), _icosphere_minus_edge(3), barrel(4)]
    assert _descent_log_digest(graphs) == "2d9cb07588fbf4ff"


def test_descent_log_pinned_random():
    # the same for a random triangulation, which peels away without a scan:
    # peels alone, and no cut
    assert _descent_log_digest([generate(GenSpec(7, 2000, 4000))]) == "66b817c09694308d"


def test_descent_log_pinned_sparse():
    # the same for inputs with long faces that peel before their first
    # scan (or never scan): stars, paths, cycles and plane subgraphs
    graphs = [build(rot(300)) for rot in (star_rotations, path_rotations, cycle_rotations)]
    graphs += [plane_subgraph(s, 300) for s in range(4)]
    assert _descent_log_digest(graphs) == "a81107267d1d3fd3"
