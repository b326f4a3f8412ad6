"""Five-coloring a planar embedding with a small fifth color class.

Descent deletes vertices until at most three remain: degree-4-or-less
vertices straight off a heap, smallest degree first (fewer of them then
need a Kempe swap on the way back), and once the minimum degree reaches 5 a
catalog occurrence as one block.  Every deletion is logged, so the ascent
can replay the log backwards and color each vertex the moment its full
neighborhood is back.  The log is one flat list of ints (records laid out
in _Work), so the descent leaves the cyclic garbage collector almost
nothing to track.

Rows exist only once a scan needs them.  Until the first scan a peel is
a degree count: it marks the vertex deleted and lowers the count of each
live neighbor, reading the input's own rows and editing none, which is
the smallest-last order of Matula and Beck (JACM 30, 1983), O(m) in all.
The first scan makes mutable rows of the live part of the input, once,
and from there one deletion loop serves peels and occurrences, a peel
being a block of one vertex.  An input that never scans, such as a star,
a path, a tree or most random triangulations, makes no rows at all; its
ascent colors each peel against the vertex's input row, where a neighbor
not yet back is uncolored.

Only the catalog search needs triangles; a vertex of degree 4 or less
takes a color on the way back in any plane graph.  So faces are filled
only just before a scan, and only those that deletions opened since the
last one: every face at the first scan when the input's edge count shows
a face longer than a triangle, else the faces round the live neighbors
of the vertices deleted since (the rows were a triangulation at the last
scan, or as given, and deletions only merge faces).  Inputs that peel
away, such as stars, paths, trees and most random triangulations, are
never filled, and a hole an occurrence leaves stays open while its
boundary peels.

The occurrence search is incremental: the descent records each vertex
whose row it changes, and a matching.ScanIndex re-probes only the anchors
near those vertices, with the same result as a scan of the whole graph.
The links of deleted vertices are handed to the index just before the
next scan, so a descent made only of peels does no set work.

A plain deleted vertex takes a spare color among its at most four colored
neighbors, read from kempe.SPARE_COLOR while the ascent puts it back; only
when all four differ does it call kempe.free_color, whose Kempe swap frees
one.  An occurrence is where color 5 may be spent: its scheme nominates
candidates in order, a candidate is blocked if it already sees a 5 next
door, and the chosen one must leave a peel order for the rest of the
pattern that keeps every later recoloring under four blockers.  That loop
is catalog.choose_fifth, which the catalog certificate runs against
worst-case degrees on every blocked set, so a failure here is a tripwire,
not a recoverable condition.

Each occurrence spends at most one 5 and removes at least six vertices, so
the fifth class never exceeds a sixth of the graph.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from .catalog import TrialSequence, builtin_catalog, choose_fifth
from .embedding import all_darts, face_walks, fill_walk
from .kempe import SPARE_COLOR, BrokenInvariant, free_color
from .matching import ScanIndex, find_reducible


# The catalog as written.  f1 costs no probe: the low heap holds every live
# vertex of degree 4 or less, and a scan starts only once that heap is empty.
_SCAN_ENTRIES = builtin_catalog()


class SchemeExhausted(RuntimeError):
    """No fifth-color candidate of an occurrence admits a full peel."""


@dataclass
class RunStats:
    f1_steps: int = 0
    occ_steps: Counter = field(default_factory=Counter)  # family -> count
    scans: int = 0
    fifth_assigned: int = 0
    fallback_peels: int = 0
    free_color_calls: int = 0
    chain_swaps: int = 0
    chain_verts: int = 0  # summed sizes of the sets kempe.chain returned
    probes: int = 0  # match_at calls by the scans, on the alignments degrees allow
    walk_darts: int = 0  # darts on the walks traced by the fills just before scans


def select_fifth(rows, occ, colors):
    """Choose who gets color 5 and how the rest of the pattern peels.

    Candidates are the images of a trial's order, or of every pattern id
    ascending for the hub (id 0, first); one is blocked if any current
    neighbor is already colored 5, tested only when its turn comes.
    catalog.choose_fifth, the loop the certificate runs on every blocked
    set, takes the first whose removal lets the remaining members peel:
    repeatedly take the lowest vertex with at most 4 live neighbors (not
    peeled, not the candidate, not colored 5).  Members not yet peeled
    count although uncolored: the ascent colors the peel in reverse, so
    they get their colors first.  `colors` is indexed by vertex, 0 for
    uncolored (a list, or a mapping that has every vertex id).  Returns
    (candidate or None, peel order).
    """
    scheme = occ.entry.scheme
    order = scheme.order if isinstance(scheme, TrialSequence) else sorted(occ.mapping)

    def blocked(v):
        return any(colors[w] == 5 for w in rows[v])

    def live(v, gone):
        return sum(1 for w in rows[v] if w not in gone and colors[w] != 5)

    chosen = choose_fifth([occ.mapping[p] for p in order], occ.vertices, blocked, live)
    if chosen is None:
        raise SchemeExhausted(
            f"{occ.entry.name} at vertex {occ.anchor}: every candidate leaves "
            f"an unpeelable remainder"
        )
    return chosen


def reduce_once(rows, occ, colors, stats):
    """Apply one occurrence's scheme against an outside coloring.

    Expects every vertex of the pattern uncolored (0 in the vertex-indexed
    `colors`) and its surroundings colored; afterwards the whole pattern
    is properly colored with at most one new 5, counted in `stats` (a
    RunStats) as a fifth or a fallback peel.  Returns (fifth vertex or
    None, peel order).
    """
    fifth, peel = select_fifth(rows, occ, colors)
    if fifth is not None:
        colors[fifth] = 5
        stats.fifth_assigned += 1
    else:
        stats.fallback_peels += 1
    for v in reversed(peel):
        colors[v] = free_color(rows, colors, v, stats)
    return fifth, peel


# Tags that close the log's records; every field is a vertex id, a row
# position or an index, so never negative.
_LOW, _OCC, _DEL, _CHORD, _PEEL, _ROWS = -1, -2, -3, -4, -5, -6


class _Work:
    """The descent's state: degree counts, then rotation rows, and the undo log.

    Until the first scan the descent reads the input's own rows (`given`,
    g.rotation, never edited) and keeps a degree count and a live flag per
    vertex.  At the first scan it makes `rows`, mutable lists of the live
    part of `given` (None for a deleted vertex), and edits them from then
    on.  A descent that never scans makes no rows.

    The log is one flat list of ints, each record its fields, then a tag.
    `v, PEEL` deletes v, peeled at degree 4 or less before the first scan;
    it changes no row, and the ascent colors v against given[v], where a
    neighbor not yet back is uncolored and so blocks nothing.  `ROWS`, with
    no field, marks the first scan: every PEEL comes before it and every
    other record after it, and the ascent checks there that it restored the
    rows the scan made.  `p1 .. pk, v, LOW` deletes v, peeled at degree 4
    or less after the first scan, and `p1 .. pk, v, DEL` deletes v as part
    of an occurrence; v's row is kept in saved[v], and p1..pk are the
    positions v had in its present neighbors' rows, in row order.  The
    ascent reinserts v for either tag, and on LOW then colors it,
    collecting its neighbors' colors in the same loop.  `i, OCC` (occs[i])
    opens an occurrence; it is pushed before its deletions, so the ascent
    colors the pattern once they are undone.  `a, pa, b, pb, CHORD` is a
    fill chord.  A deletion needs no marker for the neighbors skipped as
    gone: replayed last in, first out, every vertex deleted after v is back
    and every one deleted before it is still gone.

    descend writes LOW and DEL from one loop, a peel being a block of one
    vertex.  Holes stay open until the heap runs dry: faces are filled only
    just before a scan, so every CHORD comes after the last deletion before
    the next OCC.  Deleted vertices wait in a list, and their saved rows
    (given[v] for a PEEL) give both the faces to fill and what reaches
    index.changed just before the next find_reducible, which is the first
    time the index reads it.
    """

    def __init__(self, g):
        self.given = g.rotation
        self.live = bytearray(b"\x01") * len(self.given)
        self.rows = self.saved = None  # made at the first scan
        # A simple plane graph with n >= 3 and m = 3n - 6 is a triangulation,
        # so its first fill, like every later one, need trace only the faces
        # the peels opened, and one that peels nothing before its first scan
        # has nothing to fill.  A component on k vertices has at most 3k - 3
        # edges, equality only at k = 1, so over c components m <= 3n - 3c,
        # and m = 3n - 6 with n >= 3 forces c = 1.  Connected, it has
        # f = 2 - n + m = 2n - 4 faces, every walk has length at least 3 (a
        # walk of 2 is a lone edge), and 2m = 3f forces every face to be a
        # triangle.  With n <= 2 no walk is longer than 2.
        self.triangulated = g.m == 3 * g.n - 6
        self.log = []
        self.occs = []
        self.index = ScanIndex(_SCAN_ENTRIES)

    def _live_rows(self):
        """The input's rows less every deleted vertex: lists, None for a deleted one."""
        given, live = self.given, self.live
        if 0 not in live:
            return list(map(list, given))
        alive = live.__getitem__
        return [list(compress(r, map(alive, r))) if live[v] else None for v, r in enumerate(given)]

    # The heap pops the smallest degree first, the smallest id among equal
    # degrees.  An entry is the int d * n + v: every id is below n, so ints
    # order exactly as the pairs (d, v) would, with no tuple per entry.
    # Every vertex whose degree changes is pushed again, so an entry whose
    # degree no longer matches its vertex's is stale and dropped.  _peel
    # starts its heap with one heapify, and so does an occurrence, which
    # finds the heap empty (it comes only once the heap ran dry): one
    # heapify costs what the pushes would.

    def _peel(self, stats):
        """Peel on degree counts until the heap runs dry; returns the vertices left.

        Stops early with 3 left.  A peel marks v deleted and lowers the count
        of each live neighbor, read from v's input row; no row is edited.
        """
        given, live, log = self.given, self.live, self.log
        heappop, heappush = heapq.heappop, heapq.heappush
        size = len(given)
        deg = list(map(len, given))
        # the vertices of degree 4 or less, picked out without a Python loop
        heap = [deg[v] * size + v for v in compress(range(size), map((4).__ge__, deg))]
        heapq.heapify(heap)
        alive = size
        while alive > 3 and heap:
            d, v = divmod(heappop(heap), size)
            if deg[v] != d or not live[v]:
                continue
            live[v] = 0
            log += (v, _PEEL)
            alive -= 1
            for u in given[v]:
                if live[u]:
                    k = deg[u] = deg[u] - 1
                    if k <= 4:
                        heappush(heap, k * size + u)
        stats.f1_steps += size - alive
        return alive

    def _fill_from(self, darts, stats):
        """Re-triangulate the face walks through `darts`, logging every chord.

        Adds the walks' darts to stats.walk_darts and the chords' ends to
        index.changed.
        """
        # walk first: filling changes the rows the walks are read from
        walks = list(face_walks(self.rows, darts))
        stats.walk_darts += sum(map(len, walks))
        changed = self.index.changed
        for walk in walks:
            if len(walk) >= 4:
                for a, pa, b, pb in fill_walk(self.rows, walk):
                    self.log += (a, pa, b, pb, _CHORD)
                    changed.add(a)
                    changed.add(b)

    def descend(self, stats):
        alive = self._peel(stats)
        if alive <= 3:
            return
        # the heap ran dry with more than 3 vertices left: the first scan.
        # Make the rows.  Every peel so far is deleted since the last scan,
        # and the live part of its input row is where the fill starts
        rows = self.rows = self._live_rows()
        saved = self.saved = [None] * len(rows)
        unmarked = self.log[::2]
        for v in unmarked:
            saved[v] = self.given[v]
        self.log.append(_ROWS)
        heap, log, occs, index = [], self.log, self.occs, self.index
        heappop, heappush = heapq.heappop, heapq.heappush
        size = len(rows)
        while alive > 3:
            if heap:
                d, v = divmod(heappop(heap), size)
                link = rows[v]  # kept unchanged in saved[v]
                if link is None or len(link) != d:
                    continue
                doomed, tag = (v,), _LOW
            else:
                # fill the faces opened since the last scan (occs holds one
                # occurrence per scan), or since the start if the input was a
                # triangulation: deletions only merge faces, so each has a
                # dart out of a live neighbor of a vertex deleted since.  Any
                # other input has every face filled before its first scan.  A
                # fill only raises degrees, so the heap stays empty
                starts = dict.fromkeys(
                    u for v in unmarked for u in saved[v] if rows[u] is not None
                )
                unmarked.clear()
                if occs or self.triangulated:
                    darts = [(u, w) for u in starts for w in rows[u]]
                else:
                    darts = all_darts(rows)
                self._fill_from(darts, stats)
                index.changed.update(starts)
                stats.scans += 1
                occ = find_reducible(rows, index)
                stats.occ_steps[occ.entry.family] += 1
                log += (len(occs), _OCC)
                occs.append(occ)
                doomed, tag = sorted(occ.vertices), _DEL
            # p1 .. pk, v, tag per vertex; a neighbor deleted earlier in the
            # same block is skipped
            for v in doomed:
                row = rows[v]
                for u in row:
                    r = rows[u]
                    if r is not None:
                        pos = r.index(v)
                        del r[pos]
                        log.append(pos)
                log += (v, tag)
                saved[v] = row
                rows[v] = None
                unmarked.append(v)
            alive -= len(doomed)
            if tag == _DEL:
                for u in {u for v in doomed for u in saved[v] if rows[u] is not None}:
                    if len(rows[u]) <= 4:
                        heap.append(len(rows[u]) * size + u)
                heapq.heapify(heap)
                continue
            stats.f1_steps += 1
            for u in link:
                r = rows[u]
                if len(r) <= 4:
                    heappush(heap, len(r) * size + u)
        stats.probes += index.probes

    def ascend(self, stats):
        """Replay the log backwards; returns the colors, indexed by vertex.

        Down to ROWS the records are replayed on the rows, which must then
        be as the first scan made them; the PEELs below it are colored
        against the input's rows.  A peel ORs 1 << color over its neighbors
        and takes SPARE_COLOR's entry for that mask; a LOW peel reinserts
        itself in the same loop.  free_color runs only when the entry is 0
        (all four colors blocked) or more than 4 neighbors are colored,
        which a correct log never writes, so its five-blocker check still
        fires.  Inline picks are added to stats.free_color_calls, which
        keeps counting every colored peel.  reduce_once colors occurrences
        through free_color.
        """
        rows, given, log, pop, saved = self.rows, self.given, self.log, self.log.pop, self.saved
        size = len(given)
        colors = [0] * size
        if rows is None:
            base = compress(range(size), self.live)
        else:
            base = [v for v in range(size) if rows[v] is not None]
        for c, v in enumerate(base, start=1):
            colors[v] = c
        spares = 0  # peels colored inline, without a free_color call
        if rows is not None:
            while (tag := pop()) != _ROWS:
                if tag == _LOW:
                    v = pop()
                    row = rows[v] = saved[v]
                    taken = 0
                    for u in reversed(row):
                        r = rows[u]
                        if r is not None:
                            r.insert(pop(), v)
                        taken |= 1 << colors[u]
                    spare = SPARE_COLOR[taken & 31]
                    if spare and len(row) <= 4:
                        colors[v] = spare
                        spares += 1
                    else:
                        colors[v] = free_color(rows, colors, v, stats)
                elif tag == _DEL:
                    v = pop()
                    row = rows[v] = saved[v]
                    for u in reversed(row):
                        r = rows[u]
                        if r is not None:
                            r.insert(pop(), v)
                elif tag == _CHORD:
                    pb, b, pa, a = pop(), pop(), pop(), pop()
                    if rows[a][pa] != b or rows[b][pb] != a:
                        raise BrokenInvariant(f"chord {a}-{b} is not where its log put it")
                    del rows[a][pa]
                    del rows[b][pb]
                else:
                    reduce_once(rows, self.occs[pop()], colors, stats)
            if rows != self._live_rows():
                raise BrokenInvariant("the ascent did not restore the rotation system")
        # every record left is `v, PEEL`; a neighbor not yet back is 0
        for v in log[-2::-2]:
            taken = seen = 0
            for u in given[v]:
                c = colors[u]
                if c:
                    taken |= 1 << c
                    seen += 1
            spare = SPARE_COLOR[taken & 31]
            if spare and seen <= 4:
                colors[v] = spare
                spares += 1
            else:
                colors[v] = free_color(given, colors, v, stats)
        log.clear()
        stats.free_color_calls += spares
        return colors


def color_planar(g, stats=None):
    """Properly color an embedded planar graph with colors 1..5.

    Color 5 is rationed: at most one use per deleted occurrence, so its
    class holds at most n/6 vertices.  Returns a dict {vertex: color} over
    every vertex of g.
    """
    if stats is None:
        stats = RunStats()
    work = _Work(g)
    work.descend(stats)
    return dict(enumerate(work.ascend(stats)))


def check_coloring(g, colors):
    """Verify a proper 1..5 coloring of g; returns the class sizes."""
    sizes = Counter()
    for v in g.vertices():
        c = colors.get(v)
        if c not in (1, 2, 3, 4, 5):
            raise ValueError(f"vertex {v} has no valid color (got {c!r})")
        sizes[c] += 1
    for v in g.vertices():
        for w in g.rotation[v]:
            if colors[v] == colors[w]:
                raise ValueError(
                    f"edge {v}-{w} has both ends colored {colors[v]}"
                )
    return {c: sizes[c] for c in (1, 2, 3, 4, 5)}
