"""Chains, swaps, and the spare-color pick.

The 7-vertex fixture embeds a double fan where the (1,3) chain from the
first blocker wraps around and reaches the third, forcing the (2,4) swap;
the wheel fixture lets the first swap through.  Both traced by hand, as
are the small graphs that steer the search from all four blockers to
each outcome.
"""

import itertools
import os
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivecolor
from fivecolor.embedding import from_faces
from fivecolor.instances import GenSpec, generate
from fivecolor.kempe import (
    SPARE_COLOR,
    BrokenInvariant,
    DiagonalContradiction,
    free_color,
    swap,
)
from fivecolor.reducer import RunStats

from conftest import color_list, reference_chain


def double_fan():
    g = from_faces(
        7,
        [
            (0, 1, 2),
            (0, 2, 3),
            (0, 3, 4),
            (0, 4, 1),
            (2, 1, 5, 6, 3),
            (1, 4, 3, 6, 5),
        ],
    )
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 6: 1}, 7)
    return g.rotation, colors


def wheel4():
    g = from_faces(5, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (2, 1, 4, 3)])
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4}, 5)
    return g.rotation, colors


def long_start():
    # hub 0 sees blockers 1..4; the (1,3) chain at 1 is the path 1-5-7,
    # the one at 3 is {3}
    rows = {0: (1, 2, 3, 4), 1: (0, 5), 5: (1, 7), 7: (5,),
            2: (0,), 3: (0,), 4: (0,)}
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 7: 1}, 8)
    return rows, colors


def long_closed():
    # the (1,3) chain 1-5-6-3 joins the first diagonal and runs on past 3
    # along 8-9-10; the (2,4) chains at 2 and 4 are singletons
    rows = {0: (1, 2, 3, 4), 1: (0, 5), 5: (1, 6), 6: (5, 3), 3: (0, 6, 8),
            8: (3, 9), 9: (8, 10), 10: (9,), 2: (0,), 4: (0,)}
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 6: 1, 8: 1, 9: 3, 10: 1}, 11)
    return rows, colors


def linked_wheel(length):
    # hub 0 sees blockers 1..4; an alternating (1,3) path of `length`
    # vertices, 7 on, joins 1 to 3, so that diagonal is closed however long
    # the path; the (2,4) chain at 2 is {2}, the one at 4 is 4-5-6
    assert length % 2 == 0
    path = list(range(7, 7 + length))
    rows = {0: (1, 2, 3, 4), 2: (0,), 4: (0, 5), 5: (4, 6), 6: (5,)}
    line = [1, *path, 3]
    for i, v in enumerate(line):
        rows[v] = tuple(line[j] for j in (i - 1, i + 1) if 0 <= j < len(line))
    rows[1], rows[3] = (0, *rows[1]), (0, *rows[3])
    colors = {1: 1, 2: 2, 3: 3, 4: 4, 5: 2, 6: 4}
    colors.update({v: 3 if i % 2 == 0 else 1 for i, v in enumerate(path)})
    return rows, color_list(colors, 7 + length)


def closed_first():
    # the (1,3) chain 1-5-6-3 closes that diagonal on the fifth turn; the
    # (2,4) chains go on, 2-7-8-9 and 4-10-11-12-13, until 2's runs out
    rows = {0: (1, 2, 3, 4), 1: (0, 5), 5: (1, 6), 6: (5, 3), 3: (0, 6),
            2: (0, 7), 7: (2, 8), 8: (7, 9), 9: (8,),
            4: (0, 10), 10: (4, 11), 11: (10, 12), 12: (11, 13), 13: (12,)}
    colors = {1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 6: 1, 7: 4, 8: 2, 9: 4,
              10: 2, 11: 4, 12: 2, 13: 4}
    return rows, color_list(colors, 14)


class CountedRows:
    """Rows that count how often each vertex's row is read."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = Counter()

    def __getitem__(self, v):
        self.reads[v] += 1
        return self.rows[v]


def test_free_color_swaps_the_first_chain_to_run_out():
    rows, colors = long_start()
    assert reference_chain(rows, colors, 1, (1, 3)) == {1, 5, 7}
    # 1 takes in 5 and then 2's search runs out
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 2
    assert colors == color_list({1: 1, 2: 4, 3: 3, 4: 4, 5: 3, 7: 1}, 8)
    assert stats.chain_swaps == 1 and stats.chain_verts == 5


def test_free_color_swaps_before_a_closed_diagonal_meets():
    rows, colors = long_closed()
    full = reference_chain(rows, colors, 1, (1, 3))
    assert full == {1, 5, 6, 3, 8, 9, 10}
    before = dict(enumerate(colors))
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 2  # the (2,4) diagonal
    assert [v for v in before if colors[v] != before[v]] == [2]
    assert colors[2] == 4
    # 1 takes in 5, then 2's search runs out before the (1,3) ones meet
    assert stats.chain_swaps == 1 and stats.chain_verts == 5
    assert stats.closed_diagonals == 0


@pytest.mark.parametrize("length", [10, 100, 1000])
def test_linked_diagonal_costs_nothing_extra(length):
    # 1's search takes in the path's first vertex, then 2's runs out: the
    # same swap and work however long the chain joining 1 to 3
    rows, colors = linked_wheel(length)
    before = list(colors)
    counted = CountedRows(rows)
    stats = RunStats()
    assert free_color(counted, colors, 0, stats) == 2
    assert [v for v in range(len(colors)) if colors[v] != before[v]] == [2]
    assert (stats.chain_swaps, stats.chain_verts, stats.chain_max) == (1, 5, 5)
    assert stats.closed_diagonals == 0
    # rows read: 1 and 2 expanded, 2 checked by the swap
    assert counted.reads - Counter({0: counted.reads[0]}) == Counter({1: 1, 2: 2})


def test_closed_diagonal_drops_out():
    # turns 1-4 take in 5, 7, 6 and 10; at turn 5, 1's search reaches 6,
    # which 3's holds, and the (1,3) diagonal closes.  2's and 4's go on in
    # turn until 2's runs out on 9
    rows, colors = closed_first()
    before = list(colors)
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 2
    assert {v for v in range(14) if colors[v] != before[v]} == {2, 7, 8, 9}
    assert (stats.chain_verts, stats.chain_max, stats.closed_diagonals) == (12, 12, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(8, 80), st.randoms(use_true_random=False))
def test_free_color_swaps_a_complete_chain_within_the_bound(seed, n, rnd):
    # a random vertex of degree 4 or more sees 1..4 at four rim places in
    # rotation order, the rest of its rim uncolored; every other vertex is
    # colored greedily in random order, left uncolored where nothing is free
    rows = generate(GenSpec(seed=seed, n=n, flips=n)).rotation
    v = rnd.choice([u for u in range(n) if len(rows[u]) >= 4])
    blockers = sorted(rnd.sample(range(len(rows[v])), 4))
    blockers = [rows[v][i] for i in blockers]
    partial = dict(zip(blockers, rnd.sample((1, 2, 3, 4), 4)))
    for u in rnd.sample(range(n), n):
        if u != v and u not in rows[v]:
            free = [c for c in (1, 2, 3, 4) if all(partial.get(w) != c for w in rows[u])]
            if free:
                partial[u] = rnd.choice(free)
    colors = color_list(partial, n)
    before = list(colors)
    counted = CountedRows(rows)
    stats = RunStats()
    got = free_color(counted, colors, v, stats)

    # the same outcome and counters as the rule's oracle
    again, oracle_stats = list(before), RunStats()
    assert reference_free_color(rows, again, v, oracle_stats) == got
    assert again == colors and vars(oracle_stats) == vars(stats)

    # the swap frees `got`, and is the whole chain at one end, on a
    # diagonal whose other end that chain misses
    assert all(colors[w] != got for w in rows[v])
    swapped = {u for u in range(n) if colors[u] != before[u]}
    ends = [k for k in range(4) if blockers[k] in swapped]
    assert len(ends) == 1
    end, far = blockers[ends[0]], blockers[ends[0] ^ 2]
    pair = (before[end], before[far])
    assert swapped == reference_chain(rows, before, end, pair)
    assert far not in swapped and before[end] == got

    # at most 4s expansions, s the smallest complete chain at an end of an
    # open diagonal (kempe's module docstring); the swap reads each row of
    # what it swaps once more
    complete = []
    for k, w in enumerate(blockers):
        whole = reference_chain(rows, before, w, (before[w], before[blockers[k ^ 2]]))
        if blockers[k ^ 2] not in whole:
            complete.append(len(whole))
    expansions = sum(counted.reads.values()) - counted.reads[v] - len(swapped)
    assert expansions <= 4 * min(complete)
    assert stats.closed_diagonals <= 1  # by planarity


def test_swap_flips_both_colors():
    rows, colors = double_fan()
    swap(rows, colors, reference_chain(rows, colors, 1, (1, 3)), (1, 3))
    assert colors[1] == 3 and colors[3] == 1
    assert colors[5] == 1 and colors[6] == 3
    assert colors[2] == 2 and colors[4] == 4


def test_swap_rejects_partial_chain():
    rows, colors = wheel4()
    with pytest.raises(BrokenInvariant, match="swap broke edge"):
        swap(rows, colors, {2}, (2, 3))


def test_free_color_missing_color():
    rows, colors = wheel4()
    colors[3] = 1
    assert free_color(rows, colors, 0, RunStats()) == 3
    colors[1:5] = [1, 1, 1, 1]
    assert free_color(rows, colors, 0, RunStats()) == 2


def test_free_color_ignores_fives_and_uncolored():
    rows, colors = wheel4()
    colors[1:5] = [5, 5, 4, 0]  # 4 uncolored
    assert free_color(rows, colors, 0, RunStats()) == 1


def test_free_color_first_swap():
    rows, colors = wheel4()
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 1
    assert colors[1] == 3  # the singleton chain at w1 flipped
    assert colors[3] == 3
    assert stats.chain_swaps == 1
    # the pick is now actually usable
    colors[0] = 1
    for w in rows[0]:
        assert colors[w] != 1


def test_free_color_second_swap():
    rows, colors = double_fan()
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 2
    assert colors[2] == 4  # (2,4) chain at w2 was the singleton {2}
    assert colors[1] == 1 and colors[3] == 3
    assert stats.chain_swaps == 1
    colors[0] = 2
    for w in rows[0]:
        assert colors[w] != 2


def test_spare_color_table():
    assert len(SPARE_COLOR) == 32
    for mask in range(32):
        taken = {c for c in range(5) if mask >> c & 1}
        assert SPARE_COLOR[mask] == min({1, 2, 3, 4} - taken, default=0)


def reference_free_color(rows, colors, v, stats):
    # the four-ended rule over two lists, a set and a deque per search:
    # blockers in rotation order, then the first missing color; else one
    # vertex from each blocker's search in turn, a search that reaches its
    # partner's set closing their diagonal, and the first to empty its
    # deque on an open diagonal swapped
    blockers, palette = [], []
    for w in rows[v]:
        c = colors[w]
        if 0 < c < 5:
            blockers.append(w)
            palette.append(c)
    if len(blockers) > 4:
        raise BrokenInvariant(f"vertex {v} has {len(blockers)} neighbors colored 1..4")
    for c in (1, 2, 3, 4):
        if c not in palette:
            return c
    pairs = [(palette[k], palette[k ^ 2]) for k in range(4)]
    seen = [{w} for w in blockers]
    queues = [deque([w]) for w in blockers]
    turns = deque(range(4))
    closed = 0
    found = None
    while turns and found is None:
        k = turns.popleft()
        for x in rows[queues[k].popleft()]:
            if colors[x] in pairs[k] and x not in seen[k]:
                if x in seen[k ^ 2]:
                    closed += 1
                    turns.remove(k ^ 2)
                    break
                seen[k].add(x)
                queues[k].append(x)
        else:
            if queues[k]:
                turns.append(k)
            else:
                found = k
    held = sum(map(len, seen))
    stats.chain_verts += held
    stats.chain_max = max(stats.chain_max, held)
    stats.closed_diagonals += closed
    if found is None:
        c1, c2, c3, c4 = palette
        raise DiagonalContradiction(f"vertex {v}: chains {c1}/{c3} and {c2}/{c4} both closed")
    swap(rows, colors, seen[found], pairs[found])
    stats.chain_swaps += 1
    return palette[found]


def test_free_color_matches_two_list_rule():
    # every coloring in 0..5 of a 5-wheel's rim: the same color, the same
    # swap and counters, or the same BrokenInvariant message
    rows = from_faces(
        6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (2, 1, 5, 4, 3)]
    ).rotation

    def run(fn, rim):
        colors, stats = [0, *rim], RunStats()
        try:
            got = fn(rows, colors, 0, stats)
        except BrokenInvariant as exc:
            got = str(exc)
        return got, colors, vars(stats)

    raised = swapped = 0
    for rim in itertools.product(range(6), repeat=5):
        want = run(reference_free_color, rim)
        assert run(free_color, rim) == want, rim
        raised += isinstance(want[0], str)
        swapped += want[2]["chain_swaps"]
    assert raised and swapped


def test_too_many_blockers_asserts():
    rows = {0: (1, 2, 3, 4, 5)}
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4, 5: 1}, 6)
    with pytest.raises(BrokenInvariant, match="5 neighbors"):
        free_color(rows, colors, 0, RunStats())  # five neighbors colored 1..4


def test_diagonal_contradiction_on_crossing_chains():
    # in a planar embedding the (1,3) path w1..w3 and the (2,4) path w2..w4
    # would have to cross, so this adjacency structure is nonplanar; the
    # deadlock it produces is exactly what DiagonalContradiction reports
    rows = {
        0: (1, 2, 3, 4),
        1: (0, 5),
        5: (1, 7),
        7: (5, 3),
        3: (0, 7),
        2: (0, 6),
        6: (2, 8),
        8: (6, 4),
        4: (0, 8),
    }
    colors = color_list({1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 7: 1, 6: 4, 8: 2}, 9)
    # both ends of each diagonal on one chain
    assert 3 in reference_chain(rows, colors, 1, (1, 3))
    assert 4 in reference_chain(rows, colors, 2, (2, 4))
    stats = RunStats()
    with pytest.raises(DiagonalContradiction, match="blockers 1, 2, 3, 4 colored 1, 2, 3, 4"):
        free_color(rows, colors, 0, stats)
    assert stats.closed_diagonals == 2 and stats.chain_swaps == 0


# The guards above, run where `python -O` would strip an `assert`.
OPTIMIZED_GUARDS = """\
import sys

from fivecolor.embedding import from_faces
from fivecolor.kempe import BrokenInvariant, DiagonalContradiction, free_color, swap
from fivecolor.reducer import RunStats

g = from_faces(5, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (2, 1, 4, 3)])
# the rows of test_diagonal_contradiction_on_crossing_chains
crossing = {0: (1, 2, 3, 4), 1: (0, 5), 5: (1, 7), 7: (5, 3), 3: (0, 7),
            2: (0, 6), 6: (2, 8), 8: (6, 4), 4: (0, 8)}
cases = (
    lambda: swap(g.rotation, [0, 1, 2, 3, 4], {2}, (2, 3)),
    lambda: free_color({0: (1, 2, 3, 4, 5)}, [0, 1, 2, 3, 4, 1], 0, RunStats()),
    lambda: free_color(crossing, [0, 1, 2, 3, 4, 3, 4, 1, 2], 0, RunStats()),
)
print("optimize:", sys.flags.optimize)
for case in cases:
    try:
        case()
    except (BrokenInvariant, DiagonalContradiction) as exc:
        print("raised:", exc)
    else:
        print("passed silently")
"""


def test_guards_survive_optimize():
    src = Path(fivecolor.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    head, *lines = run.stdout.splitlines()
    assert head == "optimize: 1"
    assert len(lines) == 3 and all(line.startswith("raised:") for line in lines), run.stdout
