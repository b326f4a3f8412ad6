"""Kempe chains and the guaranteed pick of a spare color.

Works on plain rotation rows (indexable: rows[v] iterates neighbors) and a
vertex-indexed color store: a list with one entry per vertex id, or any
mapping that has every vertex id, holding 1..5 or 0 for uncolored.  Rows
are read only at live vertices, so the reducer's working rows, with None for
each vertex its descent has deleted, serve as they are.
Uncolored vertices are invisible to chains: a chain is a connected piece
of the subgraph induced by the colored vertices whose colors lie in a
two-color pair.  So rows that still list vertices not yet colored serve
as well, as the reducer's ascent reads them (the input's rows): there a
neighbor not yet back is uncolored, and it neither blocks a color nor joins
a chain.

A blocked vertex's four blockers w1..w4, in rotation order, give two
diagonals: (w1, w3) on their colors (c1, c3), and (w2, w4) on (c2, c4).
One search runs from each of the four, one expansion each in turn.  Two
searches of one diagonal that meet have found it closed: one chain joins
its ends, so swapping it frees nothing, and both stop.  The first search
to run out while its diagonal is still open holds a complete chain
without the other end, and swapping it frees its end's color.  By
planarity at most one diagonal closes.

That bounds the work of a blocked vertex by its best chain, not by the
chains it does not swap.  Let s be the size of the smallest complete
chain at an end of an open diagonal.  Nothing stops that end's search:
its partner holds another chain.  It expands one vertex of that chain a
turn, so it runs out at its s-th expansion at the latest, and by then
no other search has made more than s expansions.  So a call makes at
most 4s expansions, however long a closed diagonal's chain is.  One dict
says which search holds each vertex, and each search's vertices are a
list read through a cursor, so a call allocates little beyond its result.

The spare-color rule is one table, SPARE_COLOR: set bit c of a mask for
each color c a neighbor has, and the mask's entry is the least of 1..4
left free, or 0 when all four are taken.  free_color reads it, and so does
the reducer's ascent, which builds the mask over each vertex's colored
neighbors and calls free_color only when the entry is 0.
"""

from __future__ import annotations


# Bit 0 (uncolored) is ignored; a mask that ORs 1 << c over colors 0..5
# drops color 5 with & 31 before the lookup.
SPARE_COLOR = tuple(
    next((c for c in (1, 2, 3, 4) if not mask >> c & 1), 0) for mask in range(32)
)


class BadColorPair(ValueError):
    pass


class DiagonalContradiction(RuntimeError):
    """Both diagonal chain swaps around one vertex were unavailable.

    The planarity argument rules this out: two vertex-disjoint chains
    cannot both connect opposite neighbors around a common vertex.  If it
    fires, the coloring state is corrupt.
    """


class BrokenInvariant(RuntimeError):
    """An internal guarantee of the engine failed; the state is corrupt.

    Raised where a correct run cannot get: a swap that breaks an edge, a
    vertex with five blockers, a fill chord on a row its scan did not
    copy.
    """


# (a, b) -> a tuple indexed by color, 0..5, True at a and b: the pairs a
# chain may be on, two distinct colors of 1..4
_PAIR_FLAGS = {
    (a, b): tuple(c in (a, b) for c in range(6))
    for a in (1, 2, 3, 4)
    for b in (1, 2, 3, 4)
    if a != b
}


def chain(rows, colors, start, pair, end, *cross, stats=None):
    """Search the Kempe chains at the ends of a diagonal, or of two; returns a set.

    A diagonal is `start, pair, end`: two vertices, each colored from
    `pair`, a tuple of two distinct colors of 1..4.  `cross`, if given, is a second
    diagonal the same way, on the other two colors.  `colors` is indexed
    by vertex (0 for uncolored).  One search runs from each end, the
    starts first and then the ends (w1, w2, w3, w4 for free_color's two
    diagonals), one expansion each in turn.  A search that reaches a
    vertex its partner (the search from the other end of its diagonal)
    holds has found the diagonal closed, and both stop.  The first search
    to run out while its diagonal is open returns its chain, complete and
    without the other end.  If every diagonal closes, the set returned is
    the last one's two sides, both its ends in it (not a complete chain).

    A neighbor's color is tested against its diagonal's pair before the
    dict lookup, so most neighbors off the chain cost one table read.  The
    pairs share no color, so one dict says which search holds a vertex.
    `stats`, a RunStats, if given, counts the vertices the searches held,
    the ends too (chain_verts), the most one call held (chain_max) and
    the diagonals that closed (closed_diagonals).
    """
    flags = _PAIR_FLAGS.get(pair)
    if flags is None or colors[start] not in pair or colors[end] not in pair:
        _reject(colors, start, pair, end)
    if cross:
        start2, pair2, end2 = cross
        flags2 = _PAIR_FLAGS.get(pair2)
        if flags2 is None or colors[start2] not in pair2 or colors[end2] not in pair2:
            _reject(colors, start2, pair2, end2)
        if flags[pair2[0]] or flags[pair2[1]]:
            raise BadColorPair(f"pairs {pair!r} and {pair2!r} share a color")
        queues = [[start], [start2], [end], [end2]]
        flags_of = (flags, flags2, flags, flags2)
        holder = {start: 0, start2: 1, end: 2, end2: 3}
        running = [0, 1, 2, 3]
    else:
        queues = [[start], [end]]
        flags_of = (flags, flags)
        holder = {start: 0, end: 1}
        running = [0, 1]
    # search k holds queues[k], read through cursors[k] and never popped;
    # its partner is k ^ half.  running lists the searches left, in turn
    half = len(running) // 2
    cursors = [0] * len(running)
    closed = 0
    members = None
    while running:
        for k in running:
            queue = queues[k]
            i = cursors[k]
            flags = flags_of[k]
            for w in rows[queue[i]]:
                if flags[colors[w]]:
                    if w not in holder:
                        holder[w] = k
                        queue.append(w)
                    elif holder[w] != k:
                        break
            else:
                i += 1
                if i == len(queue):
                    members = set(queue)
                    break
                cursors[k] = i
                continue
            # the partner holds w: the diagonal is closed, and the searches
            # left go on in turn from the one after k
            closed += 1
            at = running.index(k)
            running = [j for j in running[at + 1 :] + running[:at] if j != k ^ half]
            break
        if members is not None:
            break
    else:
        members = set(queues[k]).union(queues[k ^ half])
    if stats is not None:
        stats.chain_verts += len(holder)
        if len(holder) > stats.chain_max:
            stats.chain_max = len(holder)
        stats.closed_diagonals += closed
    return members


def _reject(colors, start, pair, end):
    """Raise BadColorPair for a diagonal whose pair or ends are not fit to search."""
    if pair not in _PAIR_FLAGS:
        raise BadColorPair(f"chain colors must be two distinct of 1..4, got {pair!r}")
    for v in start, end:
        if colors[v] not in pair:
            raise BadColorPair(f"vertex {v} has color {colors[v]!r}, not in {pair!r}")


def swap(rows, colors, members, pair):
    """Exchange the two colors of `pair` on every chain member, in place.

    `colors` is indexed by vertex (0 for uncolored).  A maximal chain
    stays proper by construction; the neighborhood check guards against
    swapping something that is not a maximal chain.
    """
    a, b = pair
    for v in members:
        colors[v] = b if colors[v] == a else a
    for v in members:
        c = colors[v]
        for w in rows[v]:
            if colors[w] == c:
                raise BrokenInvariant(f"swap broke edge {v}-{w} (color {c})")


def free_color(rows, colors, v, stats):
    """A color of 1..4 that v can take, swapping one chain if necessary.

    `colors` is indexed by vertex, 0 for uncolored; a swap rewrites it in
    place.  Requires at most 4 neighbors colored 1..4 (vertices with color
    5 and uncolored ones do not block).  When all four colors appear, the
    four blocking neighbors w1..w4 sit in rotation order around v, and one
    call to chain searches both diagonals from all four ends at once.  It
    returns the first complete chain on a diagonal still open, which
    holds one end; swapping it frees the color that end had.  By planarity
    the (c1, c3) chains at w1 and w3 differ, or the (c2, c4) chains at w2
    and w4 do, so both diagonals closing raises DiagonalContradiction.
    The spare color, when one is free, is SPARE_COLOR's.  `stats`, a
    RunStats, counts the swaps and chain's work.
    """
    taken = 0
    blockers = []
    for w in rows[v]:
        c = colors[w]
        if 0 < c < 5:
            taken |= 1 << c
            blockers.append(w)
    if len(blockers) > 4:
        raise BrokenInvariant(f"vertex {v} has {len(blockers)} neighbors colored 1..4")
    spare = SPARE_COLOR[taken]
    if spare:
        return spare
    # all four colors taken by four blockers, so one of each
    w1, w2, w3, w4 = blockers
    c1, c2, c3, c4 = colors[w1], colors[w2], colors[w3], colors[w4]
    members = chain(rows, colors, w1, (c1, c3), w3, w2, (c2, c4), w4, stats=stats)
    # a complete chain holds one end, whose color the swap frees; two ends
    # of one diagonal mean both diagonals closed
    for end, far in (w1, w3), (w2, w4), (w3, w1), (w4, w2):
        if end in members:
            break
    if far in members:
        raise DiagonalContradiction(
            f"vertex {v}: chains {c1}/{c3} and {c2}/{c4} both closed"
        )
    freed = colors[end]
    swap(rows, colors, members, (freed, colors[far]))
    stats.chain_swaps += 1
    return freed
