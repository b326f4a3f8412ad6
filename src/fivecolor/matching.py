"""Locating catalog configurations inside a triangulation.

The matchers read rotation rows directly: rows[v] is the cyclic link of v
and len(rows[v]) its degree.  Pass a graph (anything with a `rotation`
attribute) or plain rows.  The reducer passes its working rows, in which
None marks a vertex its descent has deleted; such a vertex is no anchor.

Soundness leans on the input being triangulated: two vertices consecutive
in a link are taken to be adjacent without an explicit edge check.

An anchor's degree must be one of entry.degrees, tested once in match_at.
The other caps are matched exactly where the entry says so and as upper
bounds elsewhere.  An entry's layout is laid on the anchor's link; offsets
cover its cyclic alignments, direction -1 the mirror images, and an entry
with no layout needs one alignment.  An entry with a secondary hook places
its one vertex outside that link by stepping through the host's row (see
catalog.ConfigurationSpec).  Only the hub (VirtualHub) has its own rule:
the first d - 3 link vertices of degree <= 5.

A search tries the entries in the order given (the catalog's own order by
default), anchors ascending, and stops at the first hit.  find_reducible
without a ScanIndex walks the rows in order, reading each only when it
comes to it, and probes every alignment at each live vertex; it is the
reference the indexed search is tested against, and on raw input its f1
entry ends it at the first vertex of degree at most 4.  The reducer, which
searches again after every reduction, passes a ScanIndex instead, which
visits only the anchors whose surroundings changed since they last failed
and returns the same first hit.  It keeps them in one heap per entry and
pops every copy of a failed anchor together.

At each anchor it visits, the indexed search first reads the link degrees
once and asks a degree test which alignments they allow (see _kernel):
each link vertex an alignment places a layout vertex on must fit that
vertex's cap.  Only the alignments that pass are handed to match_at, which
still runs the secondary hook and builds the Occurrence.  A test never
rejects an alignment match_at would accept, so the first hit is
unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache

from .catalog import VirtualHub, builtin_catalog


class CompletenessBreach(RuntimeError):
    """Exhaustive scan of the catalog found nothing to reduce."""


def _rows_view(tri):
    return tri.rotation if hasattr(tri, "rotation") else tri


@dataclass(frozen=True)
class Occurrence:
    """One concrete placement of a catalog entry.

    mapping sends pattern ids to graph vertices, pattern id 0 to the anchor.
    """

    entry: object
    mapping: dict
    anchor: int

    @property
    def vertices(self):
        return frozenset(self.mapping.values())


def _fits(rows, w, cap, exact):
    d = len(rows[w])
    return d == cap if exact else d <= cap


def _match_layout(rows, entry, anchor, offset, direction):
    link = rows[anchor]
    d = len(link)
    mapping = {0: anchor}
    for i, pid in enumerate(entry.layout or ()):
        if pid is None:
            continue
        w = link[(offset + direction * i) % d]
        if not _fits(rows, w, entry.caps[pid], pid in entry.exact):
            return None
        mapping[pid] = w
    if entry.secondary is not None:
        # two steps from the anchor in the host's row, signed against ref's
        # side; the triangles at the host pin both, whatever its degree
        out_pid, host_pid, ref_pid, sign = entry.secondary
        lh = rows[mapping[host_pid]]
        dh = len(lh)
        pa = lh.index(anchor)
        ref = mapping[ref_pid]
        if lh[(pa + 1) % dh] == ref:
            side = 1
        elif lh[(pa - 1) % dh] == ref:
            side = -1
        else:
            return None
        z = lh[(pa + sign * 2 * side) % dh]
        if z in mapping.values():
            return None
        if not _fits(rows, z, entry.caps[out_pid], out_pid in entry.exact):
            return None
        mapping[out_pid] = z
    return Occurrence(entry, mapping, anchor)


def _match_hub(rows, entry, anchor, offset, direction):
    link = rows[anchor]
    d = len(link)
    mapping = {0: anchor}
    for i in range(d):
        w = link[(offset + direction * i) % d]
        if len(rows[w]) <= 5:
            mapping[len(mapping)] = w
            if len(mapping) == d - 2:  # the anchor and d - 3 leaves
                return Occurrence(entry, mapping, anchor)
    return None


def match_at(tri, entry, anchor, offset=0, direction=1):
    """Try to place `entry` with its anchor at the given vertex.

    offset rotates the anchor's link before the pattern layout is laid on
    it; direction -1 reads the link backwards.  Returns an Occurrence or
    None.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    rows = _rows_view(tri)
    row = rows[anchor] if 0 <= anchor < len(rows) else None
    if row is None or len(row) not in entry.degrees:
        return None
    if isinstance(entry.scheme, VirtualHub):
        return _match_hub(rows, entry, anchor, offset, direction)
    return _match_layout(rows, entry, anchor, offset, direction)


def _alignments(entry, d):
    """(offset, direction) pairs to probe at an anchor of degree d, in order."""
    if entry.layout is None:  # nothing is laid on the link: one probe decides
        return ((0, 1),)
    return tuple((offset, direction) for offset in range(d) for direction in (1, -1))


@cache
def _kernel(entry):
    """The degree test of one entry, as fits(rows, row) -> alignments.

    fits gives, in scan order, the (offset, direction) pairs that the link
    degrees allow at an anchor whose link is row; none for an anchor of a
    degree the entry does not want.  Each pair it leaves out fails in
    match_at.  For the entries with no layout (the hub among them) it gives
    exactly the pairs that match; for a layout entry without a secondary
    hook too, since only the hook's vertex goes untested.
    """
    if isinstance(entry.scheme, VirtualHub):

        def fits(rows, row):
            k = len(row)
            if k not in entry.degrees:
                return ()
            # the hub takes the first k - 3 link vertices of degree <= 5
            low = sum(1 for w in row if len(rows[w]) <= 5)
            return _alignments(entry, k) if low >= k - 3 else ()

        return fits

    # (position, cap, exact) per layout vertex, ordered so that the slot
    # likeliest to fail is tested first: exact ones, then the lowest caps
    slots = sorted(
        (
            (i, entry.caps[p], p in entry.exact)
            for i, p in enumerate(entry.layout or ())
            if p is not None
        ),
        key=lambda s: (not s[2], s[1]),
    )
    plans = {
        d: tuple(
            (
                (offset, direction),
                tuple(((offset + direction * i) % d, cap, exact) for i, cap, exact in slots),
            )
            for offset, direction in _alignments(entry, d)
        )
        for d in entry.degrees
    }

    def fits(rows, row):
        plan = plans.get(len(row))
        if plan is None:
            return ()
        degs = [len(rows[w]) for w in row]
        out = []
        for alignment, checks in plan:
            for j, cap, exact in checks:
                x = degs[j]
                if x > cap or exact and x != cap:
                    break
            else:
                out.append(alignment)
        return out

    return fits


def _no_match(rows):
    degs = [len(row) for row in rows if row is not None]
    return CompletenessBreach(
        f"no configuration matches: {len(degs)} vertices, "
        f"minimum degree {min(degs) if degs else 0}"
    )


def find_reducible(tri, entries=None):
    """First occurrence of any entry, in scan order.

    The scan order is the order of `entries` (the whole catalog if None):
    each entry in turn, anchors ascending, offsets ascending, direction +1
    before -1.  `entries` may be a ScanIndex, which gives the same answer
    from its record of the anchors already known to fail.  Raises
    CompletenessBreach when nothing matches.

    `tri` must be a triangulation: the matchers read a pattern's rim
    edges off the anchor's link and never test them, so on any other
    graph only an f1 occurrence is sound.  On icosphere(2) less the edge
    between rotation[0][0] and rotation[0][1], this reports
    wheel-adjacent at 0 with the rim edge 42-44 absent.
    """
    rows = _rows_view(tri)
    if isinstance(entries, ScanIndex):
        return entries.search(rows)
    if entries is None:
        entries = builtin_catalog()
    for e in entries:
        alignments = {d: _alignments(e, d) for d in e.degrees}
        for v, row in enumerate(rows):
            if row is not None:
                for offset, direction in alignments.get(len(row), ()):
                    occ = match_at(tri, e, v, offset, direction)
                    if occ is not None:
                        return occ
    raise _no_match(rows)


class ScanIndex:
    """Incremental state for repeated scans of one changing triangulation.

    A search reaches its entries in scan order and stops at its hit, so
    the entries reached so far are always a prefix; the index keeps its
    per-entry state in lists as long as that prefix.  Each reached entry
    has one min-heap of pending anchors, vertices not yet known to fail it,
    some perhaps more than once.  Reaching an entry makes every live vertex
    of a degree in entry.degrees pending.  A search takes them in ascending
    order.  At each one it reads the link degrees once and runs the entry's
    degree test (_kernel), then calls match_at on the alignments the test
    allows, in the full scan's order; a failing anchor is dropped with all
    its copies, which sit together at the top of the heap, and the first
    hit is returned and stays pending.

    The owner adds to `changed` every vertex whose row changes between
    searches.  The next search pushes the 1-ball of each one back onto the
    heap of every reached entry that wants its degree, and its 2-ball onto
    those with a secondary hook (a pattern vertex outside the anchor's link),
    whose probe also reads the host's row and the degree of a vertex behind
    it.  Two rank lists per degree, filled as entries are reached, name
    those entries.  Every anchor left out therefore still fails, and a
    search returns exactly what find_reducible(rows, entries) would.
    `probes` counts the match_at calls made so far, which are made only
    for the alignments that pass the degree test; on an entry without a
    secondary hook every one of them hits.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.changed = set()
        self.probes = 0
        self._heaps = []  # per reached entry
        self._fits = [_kernel(e) for e in self.entries]
        self._near = {}  # degree -> ranks of the reached entries wanting it
        self._far = {}  # degree -> those of them with a secondary hook

    def _reach(self, rows, rank):
        e = self.entries[rank]
        heap = [v for v, row in enumerate(rows) if row is not None and len(row) in e.degrees]
        self._heaps.append(heap)  # ascending, so already a heap
        for d in e.degrees:
            self._near.setdefault(d, []).append(rank)
            if e.secondary is not None:
                self._far.setdefault(d, []).append(rank)

    def _requeue(self, rows, verts, ranks):
        heaps = self._heaps
        for v in verts:
            for r in ranks.get(len(rows[v]), ()):
                heapq.heappush(heaps[r], v)

    def _reopen(self, rows):
        ball = set()
        for x in self.changed:
            if rows[x] is not None:  # a vertex deleted since is in no row
                ball.add(x)
                ball.update(rows[x])
        self._requeue(rows, ball, self._near)
        if self._far:
            self._requeue(rows, {z for x in ball for z in rows[x]} - ball, self._far)

    def search(self, rows):
        self._reopen(rows)
        self.changed.clear()
        for rank, e in enumerate(self.entries):
            if rank == len(self._heaps):
                self._reach(rows, rank)
            heap, fits = self._heaps[rank], self._fits[rank]
            while heap:
                v = heap[0]
                row = rows[v]
                if row is not None:
                    for offset, direction in fits(rows, row):
                        self.probes += 1
                        occ = match_at(rows, e, v, offset, direction)
                        if occ is not None:
                            return occ
                while heap and heap[0] == v:
                    heapq.heappop(heap)
        raise _no_match(rows)
