"""The library names that bench/spans.py patches and reads, and the
benchmark's outputs.

The benchmark traces the library from outside by swapping module
attributes, so a renamed or reshaped patch point does not fail the
benchmark: its per-layer metrics just read 0.  These tests load
bench/spans.py as it is and fail instead.  They also load
bench/workloads.py as it is and pin what the library makes of its
inputs, so a speed change that alters an output fails here first.
"""

import functools
import hashlib
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from fivecolor import discharge, kempe, matching, reducer
from fivecolor.instances import GenSpec, generate, icosphere, read
from fivecolor.reducer import RunStats, check_coloring

from conftest import color_list, color_runs, order_free_digest, reference_chain, runs_digest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("bench_spans", BENCH / "spans.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("bench_workloads", BENCH / "workloads.py")


@pytest.fixture(scope="module")
def parsed(workloads):
    """workload -> the graphs the benchmark runs at seed 1, read once from
    its own pg/1 texts."""
    return functools.cache(lambda w: [read(inst.text) for inst in workloads.make(w, 1)])


@pytest.fixture(scope="module")
def colored(parsed):
    """workload -> [(coloring, RunStats)] of its seed-1 graphs, colored once."""
    return functools.cache(lambda w: color_runs(parsed(w)))


def test_every_patch_point_exists(spans):
    points = [(m, a) for m, a, _, _ in spans.SPANS]
    points += [spans.SCAN[:2], spans.PROBE]
    for modname, attr in points:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"


def test_chain_result_has_a_length():
    # hub 0 sees blockers 1..4; the (1,3) chain at 1 is 1-5, and each other
    # blocker's chain is a path of three, so 1's search runs out first
    rows = {0: (1, 2, 3, 4), 1: (0, 5), 5: (1,), 2: (0, 6), 6: (2, 7), 7: (6,),
            3: (0, 8), 8: (3, 9), 9: (8,), 4: (0, 10), 10: (4, 11), 11: (10,)}
    colors = color_list({1: 1, 5: 3, 2: 2, 6: 4, 7: 2, 3: 3, 8: 1, 9: 3,
                         4: 4, 10: 2, 11: 4}, 12)
    assert reference_chain(rows, colors, 1, (1, 3)) == {1, 5}
    # _chain_size records len of what chain returns: the chain free_color swaps
    result = kempe.chain(rows, colors, [1, 2, 3, 4], RunStats())
    before = list(colors)
    assert kempe.free_color(rows, colors, 0, RunStats()) == 1
    swapped = {v for v in rows if colors[v] != before[v]}
    assert len(result) == len(swapped) == 2


@pytest.mark.parametrize(
    "g",
    [icosphere(1), generate(GenSpec(seed=1, n=200, flips=400)), icosphere(3)],
    ids=["icosphere-1", "random-200", "icosphere-3"],
)
def test_traced_run_reads_every_layer(spans, g):
    tracer = spans.Tracer()
    stats = RunStats()
    with tracer.patched():
        colors = reducer.color_planar(g, stats)
    check_coloring(g, colors)
    assert not tracer.missing
    _, calls, _ = tracer.summary(0)
    # the ascent colors a vertex inline unless all four colors are blocked
    # or it sees more than four colored neighbors, which only an occurrence
    # member next to a 5 can; so a free_color call outside reduce_once is a
    # blocked peel and swaps one chain, and every swap is free_color's
    traced = tracer.spans  # [name, start, end, parent index or -1]
    parent = {i: s[3] for i, s in enumerate(traced) if s[0] == "kempe.free_color"}
    in_occ = {i for i, p in parent.items() if p >= 0 and traced[p][0] == "reducer.reduce_once"}
    swaps = Counter(s[3] for s in traced if s[0] == "kempe.swap")
    assert all(swaps[i] == 1 for i in parent.keys() - in_occ)
    assert swaps.keys() <= parent.keys()
    assert calls["reducer.reduce_once"] == sum(stats.occ_steps.values()) == stats.scans
    assert calls["kempe.swap"] == stats.chain_swaps > 0
    assert tracer.counts["kempe.chain.verts.sum"] >= calls["kempe.chain"] > 0
    assert calls["matching.find_reducible"] == stats.scans
    if stats.scans:
        assert tracer.counts["matching.match_at.calls"] > 0


def test_traced_probes_equal_run_stats(spans):
    # every probe of the reducer's scans goes through matching.match_at,
    # where the benchmark counts it
    tracer = spans.Tracer()
    stats = RunStats()
    with tracer.patched():
        reducer.color_planar(icosphere(2), stats)
    assert tracer.counts["matching.match_at.calls"] == stats.probes > 0


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("random", "2979385ad8efbcfe"),
        ("icosphere", "30c7f37a1c020c30"),
        ("sparse", "c3a08cf6a29ccb76"),
    ],
)
def test_workload_colorings_pinned(colored, workload, digest):
    # colorings and counters of every instance the benchmark colors at
    # seed 1
    assert runs_digest(colored(workload)) == digest


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("random", "bbadc0be25229219"),
        ("icosphere", "a02c516db34c309b"),
        ("sparse", "1650462dd1a3cc23"),
    ],
)
def test_workload_order_free_counts_pinned(colored, workload, digest):
    # the counts of the same runs that name no vertex: scans, occurrence
    # families, fifth colors and fill darts.  How peels break ties among
    # equal degrees moves the digests above, not these
    assert order_free_digest(colored(workload)) == digest


@pytest.mark.parametrize(
    "workload, total", [("random", 0), ("icosphere", 0), ("sparse", 0)]
)
def test_workload_walk_darts_pinned(colored, workload, total):
    # the darts on the face walks the descent's fills trace, summed over
    # the benchmark's instances at seed 1: none, since random and sparse
    # never scan and icosphere scans once, before any deletion; walk_darts
    # is not one of the PINNED_COUNTERS, so the digests above do not cover it
    assert sum(stats.walk_darts for _, stats in colored(workload)) == total


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("random", "e638e7cb7f5da2f7"),
        ("icosphere", "369b4289c5928924"),
        ("sparse", "56e4a9faf6869a3a"),
    ],
)
def test_workload_audits_pinned(parsed, workload, digest):
    # what the benchmark's audit makes of every instance at seed 1: the
    # matcher's verdict and every report field, charge types included
    h = hashlib.sha256()
    for g in parsed(workload):
        try:
            matching.find_reducible(g)
            matched = True
        except matching.CompletenessBreach:
            matched = False
        report = discharge.audit(g, matched=matched)
        data = (
            matched,
            sorted((v, str(c), type(c).__name__) for v, c in report.charges.items()),
            report.total,
            report.positives,
            report.min_degree,
            report.inconsistent,
        )
        h.update(repr(data).encode())
    assert h.hexdigest()[:16] == digest


def test_traced_audit_reads_discharge(spans):
    # the benchmark's per-layer audit metrics come from these two spans;
    # an audit that bypassed the module attributes would read 0 there
    g = generate(GenSpec(1, 400, 800))
    tracer = spans.Tracer()
    with tracer.patched():
        discharge.audit(g)
    assert not tracer.missing
    _, calls, _ = tracer.summary(0)
    assert calls["discharge.transfers"] == calls["discharge.final_charges"] == 1
    moved = len(discharge.transfers(g).transfers)
    assert tracer.counts["discharge.transfers.count"] == moved > 0
