"""Chains, swaps, and the spare-color pick.

The 7-vertex fixture embeds a double fan where the (1,3) chain from the
first blocker wraps around and reaches the third, forcing the (2,4) swap;
the wheel fixture lets the first swap through.  Both traced by hand, as
are the two small graphs that steer the two-ended search to each outcome.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivecolor
from fivecolor.embedding import from_faces
from fivecolor.instances import GenSpec, generate, icosphere
from fivecolor.kempe import (
    SPARE_COLOR,
    BadColorPair,
    BrokenInvariant,
    DiagonalContradiction,
    chain,
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


def test_chain_membership():
    rows, colors = double_fan()
    assert reference_chain(rows, colors, 1, (1, 3)) == {1, 5, 6, 3}
    # 1 and 3 lie on that one chain, so the two searches meet inside it
    assert {1, 3} <= chain(rows, colors, 1, (1, 3), 3) <= {1, 5, 6, 3}


def test_chain_singleton():
    rows, colors = wheel4()
    assert reference_chain(rows, colors, 1, (1, 3)) == {1}
    assert chain(rows, colors, 1, (1, 3), 3) == {1}


def test_chain_bad_pairs():
    rows, colors = wheel4()
    for pair in ((1, 5), (0, 2), (2, 2), (3, 6)):
        with pytest.raises(BadColorPair):
            chain(rows, colors, 1, pair, 3)
    with pytest.raises(BadColorPair, match="vertex 1"):
        chain(rows, colors, 1, (2, 4), 2)  # vertex 1 has color 1
    with pytest.raises(BadColorPair, match="vertex 0"):
        chain(rows, colors, 0, (1, 2), 1)  # vertex 0 uncolored


def test_two_ended_start_runs_out():
    rows, colors = long_start()
    assert chain(rows, colors, 3, (1, 3), 1) == {3}


def test_two_ended_end_runs_out():
    rows, colors = long_start()
    assert reference_chain(rows, colors, 1, (1, 3)) == {1, 5, 7}
    assert chain(rows, colors, 1, (1, 3), 3) == {3}
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 3  # pair[1]: 3's side flipped
    assert colors == color_list({1: 1, 2: 2, 3: 1, 4: 4, 5: 3, 7: 1}, 8)
    assert stats.chain_swaps == 1 and stats.chain_verts == 1


def test_two_ended_searches_meet():
    rows, colors = long_closed()
    full = reference_chain(rows, colors, 1, (1, 3))
    assert full == {1, 5, 6, 3, 8, 9, 10}
    # one step from each end, then 5 finds 6 on the other side
    assert chain(rows, colors, 1, (1, 3), 3) == {1, 5, 3, 6, 8}
    before = dict(enumerate(colors))
    stats = RunStats()
    assert free_color(rows, colors, 0, stats) == 2  # the (2,4) diagonal
    assert [v for v in before if colors[v] != before[v]] == [2]
    assert colors[2] == 4
    assert stats.chain_swaps == 1 and stats.chain_verts == 5 + 1


def test_two_ended_bad_end():
    rows, colors = long_start()
    with pytest.raises(BadColorPair, match="vertex 2"):
        chain(rows, colors, 1, (1, 3), 2)  # vertex 2 has color 2
    with pytest.raises(BadColorPair, match="vertex 0"):
        chain(rows, colors, 1, (1, 3), 0)  # vertex 0 uncolored


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 60), st.randoms(use_true_random=False))
def test_two_ended_chain_agrees_with_one_ended(seed, n, rnd):
    rows = generate(GenSpec(seed=seed, n=n, flips=n)).rotation
    partial = {}  # a random proper coloring in 1..4, some vertices left out
    for v in rnd.sample(range(n), n):
        free = [c for c in (1, 2, 3, 4) if all(partial.get(w) != c for w in rows[v])]
        if free:
            partial[v] = rnd.choice(free)
    start, end = rnd.choice(sorted(partial)), rnd.choice(sorted(partial))
    pair = (partial[start], partial[end])
    if pair[0] == pair[1]:
        pair = (pair[0], rnd.choice([c for c in (1, 2, 3, 4) if c != pair[0]]))
    colors = color_list(partial, n)
    both = chain(rows, colors, start, pair, end)
    from_start = reference_chain(rows, colors, start, pair)
    from_end = reference_chain(rows, colors, end, pair)
    if start in both and end in both:
        assert from_start == from_end
        assert both <= from_start
    else:
        assert (both == from_start and end not in both) or (
            both == from_end and start not in both
        )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["generate", "icosphere"]),
    st.integers(0, 10_000),
    st.randoms(use_true_random=False),
)
def test_chain_matches_reference(kind, seed, rnd):
    # random partial colorings, proper or not, and pairs that are often
    # bad: the same set, or the same BadColorPair, as the deque search
    if kind == "icosphere":
        rows = icosphere(seed % 3).rotation
    else:
        rows = generate(GenSpec(seed=seed, n=4 + seed % 60, flips=seed % 120)).rotation
    n = len(rows)
    blank = rnd.random()
    colors = [0 if rnd.random() < blank else rnd.choice((1, 2, 3, 4, 5)) for _ in range(n)]
    start = rnd.randrange(n)
    end = rnd.randrange(n)
    if rnd.random() < 0.7:
        pair = tuple(rnd.sample((1, 2, 3, 4), 2))
    else:
        pair = (rnd.randint(0, 5), rnd.randint(0, 5))
    for v in (start, end):
        if rnd.random() < 0.9:
            colors[v] = rnd.choice(pair)

    def run(fn):
        try:
            return fn(rows, list(colors), start, pair, end)
        except BadColorPair as e:
            return str(e)

    assert run(chain) == run(reference_chain)


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
    # the spare-color pick over two lists, as free_color made it before
    # the table: blockers in rotation order, then the first missing color
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
    w1, w2, w3, w4 = blockers
    c1, c2, c3, c4 = palette
    for w, far, pair in ((w1, w3, (c1, c3)), (w2, w4, (c2, c4))):
        members = chain(rows, colors, w, pair, far)
        stats.chain_verts += len(members)
        if far in members and w in members:
            continue
        swap(rows, colors, members, pair)
        stats.chain_swaps += 1
        return pair[0] if w in members else pair[1]
    raise DiagonalContradiction(f"vertex {v}: chains {c1}/{c3} and {c2}/{c4} both closed")


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


# The two guards above, run where `python -O` would strip an `assert`.
OPTIMIZED_GUARDS = """\
import sys

from fivecolor.embedding import from_faces
from fivecolor.kempe import BrokenInvariant, free_color, swap
from fivecolor.reducer import RunStats

g = from_faces(5, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (2, 1, 4, 3)])
cases = (
    lambda: swap(g.rotation, [0, 1, 2, 3, 4], {2}, (2, 3)),
    lambda: free_color({0: (1, 2, 3, 4, 5)}, [0, 1, 2, 3, 4, 1], 0, RunStats()),
)
print("optimize:", sys.flags.optimize)
for case in cases:
    try:
        case()
    except BrokenInvariant as exc:
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
    assert len(lines) == 2 and all(line.startswith("raised:") for line in lines), run.stdout


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
    # each diagonal's two searches meet: both ends on one chain
    assert {1, 3} <= chain(rows, colors, 1, (1, 3), 3)
    assert {2, 4} <= chain(rows, colors, 2, (2, 4), 4)
    with pytest.raises(DiagonalContradiction):
        free_color(rows, colors, 0, RunStats())
