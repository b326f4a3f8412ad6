"""Kempe chains and the guaranteed pick of a spare color.

Works on plain rotation rows (indexable: rows[v] iterates neighbors) and a
plain dict of colors.  Uncolored vertices (missing or None) are
invisible to chains: a chain is a connected piece of the subgraph induced
by the colored vertices whose colors lie in a two-color pair.
"""

from __future__ import annotations

from collections import deque


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
    vertex with five blockers, an undo that does not match its log, a
    match that misses a pattern vertex, a rotation not restored.
    """


def _check_pair(pair):
    a, b = pair
    if a == b or not {a, b} <= {1, 2, 3, 4}:
        raise BadColorPair(f"chain colors must be two distinct of 1..4, got {pair!r}")
    return a, b


def chain(rows, colors, start, pair):
    """The set of vertices of the Kempe chain through `start` on `pair`."""
    a, b = _check_pair(pair)
    c0 = colors.get(start)
    if c0 not in (a, b):
        raise BadColorPair(f"vertex {start} has color {c0!r}, not in {pair!r}")
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in rows[u]:
            if w not in seen and colors.get(w) in (a, b):
                seen.add(w)
                queue.append(w)
    return seen


def swap(rows, colors, members, pair):
    """Exchange the two colors of `pair` on every chain member.

    A maximal chain stays proper by construction; the neighborhood check
    guards against swapping something that is not a maximal chain.
    """
    a, b = pair
    for v in members:
        colors[v] = b if colors[v] == a else a
    for v in members:
        for w in rows[v]:
            if colors.get(w) == colors[v]:
                raise BrokenInvariant(
                    f"swap broke edge {v}-{w} (color {colors[v]})"
                )


def free_color(rows, colors, v, stats=None):
    """A color of 1..4 that v can take, swapping one chain if necessary.

    Requires at most 4 neighbors colored 1..4 (vertices with color 5 and
    uncolored ones do not block).  When all four colors appear, the four
    blocking neighbors w1..w4 sit in rotation order around v; by planarity
    either the (c1, c3) chain at w1 misses w3 or the (c2, c4) chain at w2
    misses w4, and the corresponding swap frees a color.  `stats`, a
    RunStats, counts the calls and the swaps.
    """
    if stats is not None:
        stats.free_color_calls += 1
    blockers = [w for w in rows[v] if colors.get(w) not in (None, 5)]
    palette = [colors[w] for w in blockers]
    if len(blockers) > 4:
        raise BrokenInvariant(
            f"vertex {v} has {len(blockers)} neighbors colored 1..4"
        )
    for c in (1, 2, 3, 4):
        if c not in palette:
            return c
    w1, w2, w3, w4 = blockers
    c1, c2, c3, c4 = palette
    for w, far, pair in ((w1, w3, (c1, c3)), (w2, w4, (c2, c4))):
        members = chain(rows, colors, w, pair)
        if far not in members:
            swap(rows, colors, members, pair)
            if stats is not None:
                stats.chain_swaps += 1
            return pair[0]
    raise DiagonalContradiction(
        f"vertex {v}: chains {c1}/{c3} and {c2}/{c4} both closed"
    )
