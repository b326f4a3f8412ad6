"""Five-coloring a planar embedding with a small fifth color class.

Descent deletes every vertex: degree-4-or-less vertices off five buckets,
one per degree, smallest degree first (fewer of them then need a Kempe
swap on the way back), and once the minimum degree reaches 5 a catalog
occurrence as one block.  Every deletion is logged, so the ascent can
replay the log backwards and color each vertex the moment its full
neighborhood is back.  The log is one flat list of vertex ids (laid out
in _Work), so the descent leaves the cyclic garbage collector almost
nothing to track.

No deletion edits a row.  It marks the vertex dead and lowers the degree
count of each live neighbor, pushing one that reaches 4 or less onto the
bucket of its count: the smallest-last order of Matula and Beck (JACM 30,
1983), O(m) in all.  Ties among equal degrees break last in first out.
The vertices left when the buckets run dry, the 5-core of what the last
occurrence left, are the same in any order, so each scan sees the same
vertices whichever way ties break.  Rows of live vertices alone are
needed only by a scan, so they are made there: each scan, the first too,
makes new lists of just the rows that hold a vertex deleted since the
last (since the start, at the first), and drops the lists they replace;
the first scan of an input with a face longer than a triangle makes every
live row.  An input that never scans, such as a star, a path, a tree or
most random triangulations, makes no rows at all, nor does an icosphere,
which peels away after its first scan.

The way back reads only the input's rows.  A neighbor of v colored
before v was deleted after v, so it was live when v was deleted and the
row v was deleted from listed it: v sees no more colored neighbors than
it had live ones.  A neighbor deleted before v is not back yet: it is
uncolored, and blocks nothing.  The input is plane, so Kempe's argument
holds on its rows, and no chord a fill added is ever read there.

Only the catalog search needs triangles; a vertex of degree 4 or less
takes a color on the way back in any plane graph.  So faces are filled
only just before a scan, and only those that deletions opened since the
last one: every face at the first scan when the input's edge count shows
a face longer than a triangle, else the faces round the live neighbors
of the vertices deleted since (the rows were a triangulation at the last
scan, or as given, and deletions only merge faces).  Those neighbors'
rows are the ones the scan makes, so a fill edits only lists of its own
scan, never an input tuple.  Inputs that peel away, such as stars,
paths, trees and most random triangulations, are never filled, and a
hole an occurrence leaves stays open while its boundary peels.

The occurrence search is incremental: a matching.ScanIndex re-probes only
the anchors near the vertices whose rows changed since the last scan, with
the same result as a scan of the whole graph.  Those are the rows the scan
makes and the ends of its chords, handed to the index just before its
search, so a descent made only of peels does no set work.

Every vertex but a fifth color takes a spare color among its at most four
colored neighbors, read from kempe.SPARE_COLOR as the ascent puts it back
(_color_peels, the one coloring loop); only when all four differ does it
call kempe.free_color, whose Kempe swap frees one.  An occurrence is where
color 5 may be spent: its scheme nominates candidates in order, a
candidate is blocked if it already sees a 5 next door, and the chosen one
must leave a peel order for the rest of the pattern that keeps every
later recoloring under four blockers.  That loop
is catalog.choose_fifth, which the catalog certificate runs against
worst-case degrees on every blocked set, so a failure here is a tripwire,
not a recoverable condition.

Each occurrence spends at most one 5 and removes at least six vertices, so
the fifth class never exceeds a sixth of the graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from .catalog import TrialSequence, builtin_catalog, choose_fifth
from .embedding import face_walks, fill_walk
from .kempe import SPARE_COLOR, BrokenInvariant, free_color
from .matching import ScanIndex, find_reducible


# The catalog as written.  f1 costs no probe: the low buckets hold every live
# vertex of degree 4 or less, and a scan starts only once they are empty.
_SCAN_ENTRIES = builtin_catalog()


class SchemeExhausted(RuntimeError):
    """No fifth-color candidate of an occurrence admits a full peel."""


@dataclass
class RunStats:
    """Counters of one color_planar run; the CLI's `color --stats` prints each."""

    f1_steps: int = 0
    occ_steps: Counter = field(default_factory=Counter)  # family -> count
    scans: int = 0
    fifth_assigned: int = 0
    fallback_peels: int = 0
    chain_swaps: int = 0
    chain_verts: int = 0  # vertices the Kempe searches held, all ends, summed over calls
    chain_max: int = 0  # the most vertices one blocked vertex's Kempe search held
    closed_diagonals: int = 0  # diagonals whose two ends one chain joined
    probes: int = 0  # match_at calls by the scans, on the alignments degrees allow
    walk_darts: int = 0  # darts on the walks traced by the fills just before scans


def select_fifth(rows, occ, colors):
    """Choose who gets color 5 and how the rest of the pattern peels.

    Candidates are the images of a trial's order, or of every pattern id
    ascending for the hub (id 0, first); one is blocked if any current
    neighbor is already colored 5, tested only when its turn comes.
    catalog.choose_fifth, the loop the certificate runs on every blocked
    set, takes the first whose removal lets the remaining members peel:
    repeatedly take the lowest vertex with at most 4 live neighbors
    (members neither peeled nor the candidate, and neighbors colored
    1..4).  Members not yet peeled count although uncolored: the ascent
    colors the peel in reverse, so they get their colors first.  Any other
    uncolored neighbor was deleted before the occurrence, and the input's
    rows still list it; it blocks nothing.  `colors` is indexed by vertex,
    0 for uncolored (a list, or a mapping that has every vertex id).
    Returns (candidate or None, peel order).
    """
    scheme = occ.entry.scheme
    order = scheme.order if isinstance(scheme, TrialSequence) else sorted(occ.mapping)
    members = occ.vertices

    def blocked(v):
        return any(colors[w] == 5 for w in rows[v])

    def live(v, gone):
        return sum(1 for w in rows[v] if w not in gone and (0 < colors[w] < 5 or w in members))

    chosen = choose_fifth([occ.mapping[p] for p in order], members, blocked, live)
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
    RunStats) as a fifth or a fallback peel; the rest of the pattern takes
    its colors through _color_peels, last of the peel order first.
    Returns (fifth vertex or None, peel order).
    """
    fifth, peel = select_fifth(rows, occ, colors)
    if fifth is not None:
        colors[fifth] = 5
        stats.fifth_assigned += 1
    else:
        stats.fallback_peels += 1
    _color_peels(rows, peel, colors, stats)
    return fifth, peel


class _Work:
    """The descent's state: degree counts, the rows scans make, and the undo log.

    _peel deletes the vertex of least `deg` count off five buckets by
    clearing its `live` flag and lowering the count of each live neighbor,
    and appends it to `log`; descend deletes an occurrence the same way,
    all of it, before it peels.  `rows` is None until the first scan makes
    it a list of `given`'s own rows (g.rotation, never edited).  Each scan
    makes new lists of the rows that hold a vertex deleted since the last
    one and sets a dead vertex's row to None.  Only the descent reads
    `rows`; the ascent colors against `given`.

    cuts[k] is the log's length at scan k.  From there the log holds the
    vertices of occs[k] in id order, then the peels before the next scan;
    the peels before the first scan come before cuts[0].
    """

    def __init__(self, g):
        self.given = g.rotation
        self.live = bytearray(b"\x01") * len(self.given)
        self.deg = list(map(len, self.given))
        self.rows = None  # made at the first scan
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
        self.cuts = []
        self.occs = []

    def _rebuild(self, deleted, starts):
        """Make new lists of the rows `starts`, less every dead vertex; `deleted`'s become None."""
        rows = self.rows
        alive = self.live.__getitem__
        for v in deleted:
            rows[v] = None
        for u in starts:
            rows[u] = list(compress(rows[u], map(alive, rows[u])))

    # low[k] holds, last in first out, the vertices whose degree count
    # reached k <= 4.  A vertex is pushed again whenever its count drops, so
    # an entry whose vertex is dead or has another count is stale and
    # dropped.  The cursor d never passes the smallest live low degree: it
    # drops to a count as soon as one falls below it, and moves up only
    # past an empty bucket.  So each peel takes the smallest degree, at O(1)
    # a step beside the stale entries, one per count drop.

    def _peel(self, rows, low):
        """Delete off the buckets `low` until they run dry or every vertex is gone.

        Entries still on the buckets after the last deletion are stale, and
        are left there unpopped.
        """
        deg, live, log = self.deg, self.live, self.log
        d = 0
        while d < 5:
            bucket = low[d]
            if not bucket:
                if len(log) == len(deg):
                    return
                d += 1
                continue
            v = bucket.pop()
            if deg[v] != d or not live[v]:
                continue
            live[v] = 0
            log.append(v)
            for u in rows[v]:
                if live[u]:
                    k = deg[u] = deg[u] - 1
                    if k <= 4:
                        low[k].append(u)
                        if k < d:
                            d = k

    def _fill_from(self, darts, copied, stats):
        """Re-triangulate the face walks through `darts`; returns the chords as (a, b).

        Adds the walks' darts to stats.walk_darts.  Every vertex of a walk
        to fill must be a row in `copied`, which this scan made, checked
        before any chord goes in.  A hole the deletions opened runs through
        live neighbors of the deleted vertices, the rows the scan makes, so
        a hole through another row is one they did not open, and that row
        may be the input's own tuple.
        """
        # walk first: filling changes the rows the walks are read from
        walks = list(face_walks(self.rows, darts))
        stats.walk_darts += sum(map(len, walks))
        holes = [walk for walk in walks if len(walk) >= 4]
        strays = [v for walk in holes for v in walk if v not in copied]
        if strays:
            raise BrokenInvariant(f"a chord lands on a row its scan did not copy: {strays[0]}")
        chords = []
        for walk in holes:
            chords += fill_walk(self.rows, walk)
        return chords

    def descend(self, stats):
        given, live, deg, log, occs = self.given, self.live, self.deg, self.log, self.occs
        size = len(given)
        low = [[], [], [], [], []]
        for v, k in enumerate(deg):
            if k <= 4:
                low[k].append(v)
        self._peel(given, low)
        if len(log) < size:
            # the buckets ran dry at the 5-core: scans start from the input's
            # own rows
            rows = self.rows = list(given)
            deleted = log
            index = ScanIndex(_SCAN_ENTRIES)
        while len(log) < size:
            # fill the faces opened since the last scan, or since the start
            # if the input was a triangulation: deletions only merge faces,
            # so each has a dart out of a live neighbor of a vertex deleted
            # since.  Any other input has every live row made and every face
            # filled at its first scan.  A fill only raises degrees, so the
            # buckets stay empty
            if occs or self.triangulated:
                starts = dict.fromkeys(u for v in deleted for u in rows[v] if live[u])
            else:
                starts = dict.fromkeys(compress(range(size), live))
            self._rebuild(deleted, starts)
            chords = self._fill_from([(u, w) for u in starts for w in rows[u]], starts, stats)
            for a, b in chords:
                deg[a] += 1
                deg[b] += 1
            index.changed.update(starts, *chords)
            stats.scans += 1
            occ = find_reducible(rows, index)
            stats.occ_steps[occ.entry.family] += 1
            self.cuts.append(len(log))
            occs.append(occ)
            # the occurrence goes first, in id order, then whatever it
            # brought down to degree 4 or less peels
            doomed = sorted(occ.vertices)
            for v in doomed:
                live[v] = 0
                for u in rows[v]:
                    if live[u]:
                        k = deg[u] = deg[u] - 1
                        if k <= 4:
                            low[k].append(u)
            log += doomed
            self._peel(rows, low)
            deleted = log[self.cuts[-1] :]
        stats.f1_steps += len(log) - sum(len(occ.vertices) for occ in occs)
        if occs:
            stats.probes += index.probes

    def ascend(self, stats):
        """Color every vertex, last deleted first; returns the colors, indexed by vertex.

        Each scan's segment, last first: its peels, last first, then its
        occurrence through reduce_once; then the peels before the first
        scan.  All of it against `given`, where a vertex deleted earlier is
        uncolored (0), so it blocks nothing and joins no chain, and each
        vertex sees colored only neighbors that were live at its deletion.
        """
        given, log = self.given, self.log
        colors = [0] * len(given)
        end = len(log)
        for cut, occ in zip(reversed(self.cuts), reversed(self.occs)):
            _color_peels(given, log[cut + len(occ.vertices) : end], colors, stats)
            reduce_once(given, occ, colors, stats)
            end = cut
        _color_peels(given, log[:end], colors, stats)
        return colors


def _color_peels(rows, peels, colors, stats):
    """Color `peels`, last first, against `rows`, each from 1..4.

    The one place a vertex takes a color of 1..4: low peels and an
    occurrence's members alike.  A vertex ORs 1 << color over its colored
    neighbors and takes SPARE_COLOR's entry for that mask.  free_color runs
    only when the entry is 0 (all four colors blocked) or more than 4
    neighbors are colored, so its five-blocker check still fires; in a
    correct run only a 5 next to an occurrence member makes a fifth.
    """
    for v in reversed(peels):
        taken = seen = 0
        for u in rows[v]:
            c = colors[u]
            if c:
                taken |= 1 << c
                seen += 1
        spare = SPARE_COLOR[taken & 31]
        if spare and seen <= 4:
            colors[v] = spare
        else:
            colors[v] = free_color(rows, colors, v, stats)


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
