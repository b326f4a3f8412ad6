"""Five-coloring a planar embedding with a small fifth color class.

Descent deletes vertices until at most three remain: degree-4-or-less
vertices straight off a heap, smallest degree first (fewer of them then
need a Kempe swap on the way back), and once the minimum degree reaches 5 a
catalog occurrence as one block.  One deletion loop serves both: a peel
is a block of one vertex.  Every mutation is logged, so the ascent can
replay the log backwards and color each vertex the moment its full
neighborhood is back.  The log is one flat list of ints (records laid out
in _Work), so the descent leaves the cyclic garbage collector almost
nothing to track.

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
_LOW, _OCC, _DEL, _CHORD = -1, -2, -3, -4


class _Work:
    """Mutable rotation rows plus the undo log of the descent.

    The log is one flat list of ints, each record its fields, then a tag.
    `p1 .. pk, v, LOW` deletes v, peeled at degree 4 or less, and `p1 ..
    pk, v, DEL` deletes v as part of an occurrence; v's row is kept in
    saved[v], and p1..pk are the positions v had in its present neighbors'
    rows, in row order.  The ascent reinserts v for either tag, and on LOW
    then colors it, collecting its neighbors' colors in the same loop.  `i,
    OCC` (occs[i]) opens an occurrence; it is pushed before its deletions,
    so the ascent colors the pattern once they are undone.  `a, pa, b, pb,
    CHORD` is a fill chord.  A deletion needs no
    marker for the neighbors skipped as gone: replayed last in, first out,
    every vertex deleted after v is back and every one deleted before it is
    still gone.

    descend writes both deletion tags from one loop, a peel being a block
    of one vertex.  Holes stay open until the heap runs dry: faces are
    filled only just before a scan, so every CHORD comes after the last
    deletion before the next OCC.  Deleted vertices wait in a list, and
    their saved rows give both the faces to fill and what reaches
    index.changed just before the next find_reducible, which is the first
    time the index reads it.
    """

    def __init__(self, g):
        self.rows = [list(r) for r in g.rotation]
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
        self.heap = []
        self.log = []
        self.saved = [None] * len(self.rows)
        self.occs = []
        self.index = ScanIndex(_SCAN_ENTRIES)

    # The heap pops the smallest degree first, the smallest id among equal
    # degrees.  An entry is the int d * len(rows) + v: every id is below
    # len(rows), so ints order exactly as the pairs (d, v) would, with no
    # tuple per entry.  Every vertex whose degree changes is pushed again,
    # so an entry whose degree no longer matches its vertex's is stale and
    # dropped.  Both callers find the heap empty (an occurrence comes only
    # once it ran dry), so one heapify costs what the pushes would.

    def _push_low(self, verts):
        rows, size = self.rows, len(self.rows)
        for v in verts:  # live vertices only
            row = rows[v]
            if len(row) <= 4:
                self.heap.append(len(row) * size + v)
        heapq.heapify(self.heap)

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
        rows, heap, log, saved, occs = self.rows, self.heap, self.log, self.saved, self.occs
        index = self.index
        heappop, heappush = heapq.heappop, heapq.heappush
        size = len(rows)
        alive = size
        unmarked = []  # deleted since the last scan
        self._push_low(range(size))
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
                self._push_low({u for v in doomed for u in saved[v] if rows[u] is not None})
                continue
            stats.f1_steps += 1
            for u in link:
                r = rows[u]
                if len(r) <= 4:
                    heappush(heap, len(r) * size + u)
        stats.probes += index.probes

    def ascend(self, stats):
        """Replay the log backwards; returns the colors, indexed by vertex.

        A LOW peel ORs 1 << color over its neighbors while it reinserts
        itself and takes SPARE_COLOR's entry for that mask; free_color
        runs only when the entry is 0 (all four colors blocked) or the row
        is longer than 4, which a correct log never writes, so its
        five-blocker check still fires.  Inline picks are added to
        stats.free_color_calls, which keeps counting every colored peel.
        reduce_once colors occurrences through free_color.
        """
        rows, log, pop, saved = self.rows, self.log, self.log.pop, self.saved
        colors = [0] * len(rows)
        base = [v for v in range(len(rows)) if rows[v] is not None]
        for c, v in enumerate(base, start=1):
            colors[v] = c
        spares = 0  # peels colored inline, without a free_color call
        while log:
            tag = pop()
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
    colors = work.ascend(stats)
    if [None if r is None else tuple(r) for r in work.rows] != list(g.rotation):
        raise BrokenInvariant("the ascent did not restore the rotation system")
    return dict(enumerate(colors))


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
