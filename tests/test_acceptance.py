"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The corpus fixture does the expensive work once: 200 default-shape
instances (seeds 1..200, sizes cycling through SIZES) are generated,
colored, checked, and audited; 50 min-degree-5 instances (seeds 1..50,
n = 162) are generated and colored, and their positive-charge vertices
searched for nearby catalog occurrences.  Criterion tests then assert
over the recorded results.  Criterion 8 colors one min-degree-5 flip
instance at n = 10242 under both scan orders.

Lines are printed on the real stdout so they survive pytest's capture.
"""

import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from fivecolor import reducer
from fivecolor.catalog import ValidationFailure, builtin_catalog, get_entry, validate_entry
from fivecolor.cli import loglog_slope, time_ladder
from fivecolor.discharge import audit
from fivecolor.embedding import build
from fivecolor.instances import GenSpec, generate, named
from fivecolor.kempe import DiagonalContradiction
from fivecolor.matching import CompletenessBreach, _alignments, find_reducible, match_at
from fivecolor.reducer import RunStats, check_coloring, color_planar
from test_catalog import STATES, choose
from test_reducer import _f2_last

SIZES = (10, 50, 100, 500, 1000, 2000)
BENCH_SIZES = (250, 500, 1000, 2000, 4000)
ENTRIES = builtin_catalog()


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}",
          file=sys.__stdout__)
    assert ok, f"criterion {num} {name}: {detail}"


def _witness_near(g, v):
    ball = {v} | set(g.rotation[v])
    for u in list(ball):
        ball.update(g.rotation[u])
    for a in sorted(ball, key=lambda u: (u != v, u)):
        for entry in ENTRIES:
            for off, dr in _alignments(entry, g.degree(a)):
                if match_at(g, entry, a, off, dr) is not None:
                    return True
    return False


@pytest.fixture(scope="module")
def corpus():
    res = {
        "improper": [], "unbounded": [], "bad_total": [], "bad_sets": [],
        "breaches": 0, "diagonals": 0, "recolored": 0, "swaps": 0,
        "witnessless": [], "shaped": 0,
    }
    t0 = time.perf_counter()
    for seed in range(1, 201):
        n = SIZES[(seed - 1) % len(SIZES)]
        g = generate(GenSpec(seed=seed, n=n, flips=2 * n))
        stats = RunStats()
        try:
            colors = color_planar(g, stats)
        except CompletenessBreach:
            res["breaches"] += 1
            continue
        except DiagonalContradiction:
            res["diagonals"] += 1
            continue
        try:
            sizes = check_coloring(g, colors)
        except ValueError:
            res["improper"].append(seed)
            continue
        if 6 * sizes[5] > g.n:
            res["unbounded"].append(seed)
        if sizes[5] != stats.fifth_assigned:
            res["bad_sets"].append(seed)
        res["recolored"] += g.n - stats.fifth_assigned
        res["swaps"] += stats.chain_swaps
        if audit(g).total != 12:
            res["bad_total"].append(seed)
    res["elapsed"] = time.perf_counter() - t0

    for seed in range(1, 51):
        g = generate(GenSpec(seed=seed, n=162, flips=324, shape_min_degree_5=True))
        res["shaped"] += min(g.degree(v) for v in g.vertices()) >= 5
        stats = RunStats()
        try:
            colors = color_planar(g, stats)
        except CompletenessBreach:
            res["breaches"] += 1
            continue
        except DiagonalContradiction:
            res["diagonals"] += 1
            continue
        sizes = check_coloring(g, colors)
        if 6 * sizes[5] > g.n:
            res["unbounded"].append(("shaped", seed))
        res["recolored"] += g.n - stats.fifth_assigned
        res["swaps"] += stats.chain_swaps
        report = audit(g)
        if report.total != 12:
            res["bad_total"].append(("shaped", seed))
        for v in report.positives:
            if not _witness_near(g, v):
                res["witnessless"].append((seed, v))
    return res


def test_criterion_1_bound_reproduction(corpus):
    ok = (
        not corpus["improper"]
        and not corpus["unbounded"]
        and corpus["elapsed"] < 300
    )
    _report(
        1, "bound-reproduction", ok,
        f"200 instances, 0 improper, 0 over bound, {corpus['elapsed']:.1f}s"
        if ok else f"improper={corpus['improper']} unbounded={corpus['unbounded']}"
        f" elapsed={corpus['elapsed']:.1f}s",
    )


def test_criterion_2_charge_identity(corpus):
    named_ok = all(
        audit(named(name)).total == Fraction(12)
        for name in ("k4", "octahedron", "icosahedron")
    )
    ok = not corpus["bad_total"] and named_ok
    _report(
        2, "charge-identity", ok,
        "sum=12 exact on corpus and named triangulations"
        if ok else f"bad={corpus['bad_total']} named_ok={named_ok}",
    )


def test_criterion_3_unavoidability(corpus):
    ok = (
        corpus["breaches"] == 0
        and corpus["shaped"] == 50
        and not corpus["witnessless"]
    )
    _report(
        3, "unavoidability", ok,
        "0 breaches; 50 min-degree-5 instances, every positive vertex has a"
        " 2-neighborhood occurrence"
        if ok else f"breaches={corpus['breaches']} shaped={corpus['shaped']}"
        f" witnessless={corpus['witnessless'][:5]}",
    )


def test_criterion_4_catalog_certification():
    # choose_fifth runs on every blocked set the gap rule allows, for every
    # entry and all 260 hub layouts; the rule is needed, since blocking
    # hub9's hub alone, which cannot happen, leaves no candidate
    problems = []
    states = {}
    for e in ENTRIES:
        try:
            states[e.name] = validate_entry(e)
        except ValidationFailure as exc:
            problems.append(str(exc))
    if states != STATES:
        problems.append(f"states {states}")
    if choose(get_entry("hub9"), {0}) is not None:
        problems.append("hub9 certifies with its hub blocked alone")
    ok = len(states) == 18 and not problems
    _report(
        4, "catalog-certification", ok,
        f"18 entries pass; {sum(states.values())} blocked sets; the gap rule is needed"
        if ok else "; ".join(problems[:4]),
    )


def test_criterion_5_kempe_invariants(corpus):
    ok = (
        corpus["diagonals"] == 0
        and corpus["recolored"] >= 10_000
        and not corpus["bad_sets"]
        and corpus["swaps"] > 0
    )
    _report(
        5, "kempe-invariants", ok,
        f"0 contradictions over {corpus['recolored']} recolorings,"
        f" {corpus['swaps']} swaps, class-5 set equality everywhere"
        if ok else f"diag={corpus['diagonals']} recolored={corpus['recolored']}"
        f" bad_sets={corpus['bad_sets']} swaps={corpus['swaps']}",
    )


def test_criterion_6_quadratic_scaling():
    points = list(time_ladder(BENCH_SIZES, seed=100, repeat=2))
    slope = loglog_slope(points)
    ok = slope <= 2.3
    times = " ".join(f"{n}:{t:.3f}s" for n, t in points)
    _report(6, "quadratic-scaling", ok, f"slope={slope:.2f} [{times}]")


def test_criterion_6_hub_build_scaling():
    # checking a star's rows costs O(m), not O(sum of deg^2).  The 16-fold
    # size range and the interleaved rounds keep wall-clock noise, which
    # favors the smallest build, from moving the fitted slope much.
    sizes = (4000, 16000, 64000)
    stars = {n: [tuple(range(1, n + 1))] + [(0,)] * n for n in sizes}
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n in sizes:
            t0 = time.perf_counter()
            build(stars[n])
            best[n] = min(best[n], time.perf_counter() - t0)
    points = sorted(best.items())
    slope = loglog_slope(points)
    ok = slope <= 1.3
    times = " ".join(f"{n}:{t:.3f}s" for n, t in points)
    _report(6, "hub-build-scaling", ok, f"slope={slope:.2f} [{times}]")


def test_criterion_7_named_instances():
    problems = []
    colors = color_planar(named("k4"))
    if check_coloring(named("k4"), colors)[5] != 0:
        problems.append("k4 uses color 5")
    stats = RunStats()
    colors = color_planar(named("octahedron"), stats)
    if check_coloring(named("octahedron"), colors)[5] != 0 or stats.occ_steps:
        problems.append("octahedron not pure low-degree")
    ico = named("icosahedron")
    colors = color_planar(ico)
    if check_coloring(ico, colors)[5] > 2:
        problems.append("icosahedron fifth class exceeds 2")
    if find_reducible(ico).entry.family != "f2":
        problems.append("icosahedron first match not a wheel")
    _report(
        7, "named-instances", not problems,
        "k4 and octahedron avoid color 5; icosahedron within 2, wheel first"
        if not problems else "; ".join(problems),
    )


@pytest.fixture(scope="module")
def flips():
    return generate(GenSpec(1, 10242, 20484, shape_min_degree_5=True))


@pytest.mark.parametrize("order", ["default", "f2-last"])
def test_criterion_8_flips_at_scale(monkeypatch, flips, order):
    # with f2 last the descent runs f3, f4, f5, f7 and f8 as well; each
    # family's fallback peels (no candidate could take color 5) are counted
    # where the ascent applies its occurrences
    if order == "f2-last":
        monkeypatch.setattr(reducer, "_SCAN_ENTRIES", _f2_last(reducer._SCAN_ENTRIES))
    fallbacks = Counter()
    apply = reducer.reduce_once

    def counted(rows, occ, colors, stats=None):
        fifth, peel = apply(rows, occ, colors, stats)
        if fifth is None:
            fallbacks[occ.entry.family] += 1
        return fifth, peel

    monkeypatch.setattr(reducer, "reduce_once", counted)
    g = flips
    stats = RunStats()
    sizes = check_coloring(g, color_planar(g, stats))
    report = audit(g)
    ok = (
        report.min_degree >= 5
        and 6 * sizes[5] <= g.n
        and sizes[5] == stats.fifth_assigned
        and report.total == 12
    )
    families = " ".join(
        f"{f}:{stats.occ_steps[f]}/{fallbacks[f]}" for f in sorted(stats.occ_steps)
    )
    _report(
        8, f"flips-at-scale-{order}", ok,
        f"n={g.n} min degree {report.min_degree}, |V5|={sizes[5]},"
        f" fifth assigned {stats.fifth_assigned}, charge total {report.total};"
        f" occurrences/fallback peels by family {families}",
    )
