"""Kempe chains and the guaranteed pick of a spare color.

Works on plain rotation rows (indexable: rows[v] iterates neighbors) and a
vertex-indexed color store: a list with one entry per vertex id, or any
mapping that has every vertex id, holding 1..5 or 0 for uncolored.  Rows
are read only at live vertices, so the reducer's working rows, with None for
each vertex its descent has deleted, serve as they are.
Uncolored vertices are invisible to chains: a chain is a connected piece
of the subgraph induced by the colored vertices whose colors lie in a
two-color pair.  So rows that still list vertices not yet colored serve
as well, as the reducer's ascent reads them (the input's rows, or those of
the scan before a vertex's deletion): there a neighbor not yet back is
uncolored, and it neither blocks a color nor joins a chain.

A chain search runs from two ends at once, one vertex from each in
turn, and stops as soon as one end's chain is complete or the two
searches meet.  Its work is then about twice the smaller of the two
chains, however large the other one is.  Each side is a set and a list
read through a cursor, so a search allocates little beyond its result.

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
    copy, a row put back that its scan did not make.
    """


def chain(rows, colors, start, pair, end):
    """The Kempe chain on `pair` through `start` or through `end`, as a set.

    `colors` is indexed by vertex (0 for uncolored); both ends must be
    colored from `pair`.  Searches from both vertices, one expansion each
    in turn.  Whichever search runs out first returns its complete chain,
    which then misses the other end; if the searches meet, the set
    returned holds both ends (and is not a complete chain).
    A neighbor's color is tested against the pair before the set lookup,
    so most neighbors off the chain cost one list read.
    """
    a, b = pair
    if a == b or a not in (1, 2, 3, 4) or b not in (1, 2, 3, 4):
        raise BadColorPair(f"chain colors must be two distinct of 1..4, got {pair!r}")
    for v in (start, end):
        if colors[v] not in (a, b):
            raise BadColorPair(f"vertex {v} has color {colors[v]!r}, not in {pair!r}")
    # indexed by color, 0..5
    in_pair = [False] * 6
    in_pair[a] = in_pair[b] = True
    # two sides, each a (set, list, cursor); swapped after every expansion
    seen, queue, i = {start}, [start], 0
    other, other_queue, j = {end}, [end], 0
    while i < len(queue):
        for w in rows[queue[i]]:
            if in_pair[colors[w]] and w not in seen:
                if w in other:
                    return seen | other
                seen.add(w)
                queue.append(w)
        seen, queue, i, other, other_queue, j = other, other_queue, j, seen, queue, i + 1
    return seen


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
    four blocking neighbors w1..w4 sit in rotation order around v; by
    planarity the (c1, c3) chains at w1 and w3 differ, or the (c2, c4)
    chains at w2 and w4 do.  Each diagonal is searched from both ends; the
    first side to run out is swapped, which frees the color its end had.
    The spare color, when one is free, is SPARE_COLOR's.  `stats`, a
    RunStats, counts the swaps and the chain vertices returned.
    """
    taken = blocked = 0
    for w in rows[v]:
        c = colors[w]
        if 0 < c < 5:
            taken |= 1 << c
            blocked += 1
    if blocked > 4:
        raise BrokenInvariant(f"vertex {v} has {blocked} neighbors colored 1..4")
    spare = SPARE_COLOR[taken]
    if spare:
        return spare
    # all four colors taken by four blockers, so one of each
    w1, w2, w3, w4 = [w for w in rows[v] if 0 < colors[w] < 5]
    c1, c2, c3, c4 = colors[w1], colors[w2], colors[w3], colors[w4]
    for w, far, pair in ((w1, w3, (c1, c3)), (w2, w4, (c2, c4))):
        members = chain(rows, colors, w, pair, far)
        stats.chain_verts += len(members)
        if far in members and w in members:
            continue
        swap(rows, colors, members, pair)
        stats.chain_swaps += 1
        return pair[0] if w in members else pair[1]
    raise DiagonalContradiction(
        f"vertex {v}: chains {c1}/{c3} and {c2}/{c4} both closed"
    )
