"""Kempe chains and the guaranteed pick of a spare color.

Works on plain rotation rows (indexable: rows[v] iterates neighbors) and a
vertex-indexed color store: a list with one entry per vertex id, or any
mapping that has every vertex id, holding 1..5 or 0 for uncolored.
chain has one caller, free_color, which passes it the four blockers of a
vertex that sees all of 1..4, one of each color, so chain checks none of
its arguments.
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


# (a, b) -> a tuple indexed by color, 0..5, True at a and b, for each
# pair of two distinct colors of 1..4
_PAIR_FLAGS = {
    (a, b): tuple(c in (a, b) for c in range(6))
    for a in (1, 2, 3, 4)
    for b in (1, 2, 3, 4)
    if a != b
}


def chain(rows, colors, blockers, stats):
    """Search the Kempe chains at a blocked vertex's four blockers; returns a set.

    `blockers` is free_color's w1..w4, in rotation order, colored with four
    distinct colors of 1..4; `colors` is indexed by vertex (0 for
    uncolored).  One search runs from each blocker, w1, w2, w3, w4, one
    expansion each in turn, on its diagonal's two colors.  A search that
    reaches a vertex its partner (the search from the other end of its
    diagonal) holds has found the diagonal closed, and both stop.  The
    first search to run out while its diagonal is open returns its chain,
    complete and without the other end.  If both diagonals close, it
    raises DiagonalContradiction.

    A neighbor's color is tested against its diagonal's pair before the
    dict lookup, so most neighbors off the chain cost one table read.  The
    pairs share no color, so one dict says which search holds a vertex.
    `stats`, a RunStats, counts the vertices the searches held, the
    blockers too (chain_verts), the most one call held (chain_max) and the
    diagonals that closed (closed_diagonals).
    """
    w1, w2, w3, w4 = blockers
    c1, c2, c3, c4 = colors[w1], colors[w2], colors[w3], colors[w4]
    flags13, flags24 = _PAIR_FLAGS[c1, c3], _PAIR_FLAGS[c2, c4]
    flags_of = (flags13, flags24, flags13, flags24)
    # search k holds queues[k], read through cursors[k] and never popped;
    # its partner is k ^ 2.  running lists the searches left, in turn
    queues = [[w1], [w2], [w3], [w4]]
    holder = {w1: 0, w2: 1, w3: 2, w4: 3}
    cursors = [0, 0, 0, 0]
    running = [0, 1, 2, 3]
    closed = 0
    members = None
    while running and members is None:
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
            running = [j for j in running[at + 1 :] + running[:at] if j != k ^ 2]
            break
    stats.chain_verts += len(holder)
    if len(holder) > stats.chain_max:
        stats.chain_max = len(holder)
    stats.closed_diagonals += closed
    if members is None:
        raise DiagonalContradiction(
            f"blockers {w1}, {w2}, {w3}, {w4} colored {c1}, {c2}, {c3}, {c4}: "
            f"chains {c1}/{c3} and {c2}/{c4} both closed"
        )
    return members


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
    and w4 do, and chain raises DiagonalContradiction if both close.
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
    # all four colors taken by four blockers, so one of each; the chain
    # holds one of them, whose color the swap frees
    members = chain(rows, colors, blockers, stats)
    for k, end in enumerate(blockers):
        if end in members:
            break
    freed = colors[end]
    swap(rows, colors, members, (freed, colors[blockers[k ^ 2]]))
    stats.chain_swaps += 1
    return freed
