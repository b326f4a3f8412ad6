"""Benchmark of the fivecolor library, one workload per invocation.

    python3 bench/run.py --workload random --seed 1 --seconds 30 --trace 0

Run from the repository root, without -O (the asserts inside the library
are part of the correctness check).  The library is imported from `src/`
next to this directory; nothing needs installing.

A run builds the workload's pg/1 texts from --seed, then repeats rounds
until the next one would overrun --seconds: parse every text (set-up),
then color and audit every instance.  Every instance of every round is
checked: proper coloring, 6|V5| <= n, audit total 6n - 2m, and on
minimum-degree-5 inputs a consistent audit.  A failed check or an
exception counts as a failed instance and makes the exit code 1.

Times are wall-clock seconds scaled to a reference speed (see scale()),
and an instance's time is its median over the rounds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  NOTES.md says what each metric means and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from fivecolor import RunStats, check_coloring, discharge, instances, matching, reducer
except ImportError as exc:
    sys.exit(f"error: cannot import fivecolor from {SRC}: {exc}")
if not Path(reducer.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: fivecolor was imported from {reducer.__file__}, not {SRC}")

import spans  # noqa: E402  (the benchmark's own modules need the library path)
import workloads  # noqa: E402

FAMILIES = ("f2", "f3", "f4", "f5", "f6", "f7", "f8")

# Seconds the calibration loop takes on an unloaded core of the 2-core
# Xeon VM this benchmark was tuned on (its fastest of 300 runs).
LOOP_S = 0.00058


def _loop():
    d = {}
    row = list(range(64))
    acc = 0
    for i in range(6000):
        k = row[i & 63]
        d[k] = d.get(k, 0) + 1
        acc ^= i
    return acc


def scale():
    """LOOP_S over the calibration loop's time now (fastest of 3).

    Other tenants of a shared machine slow everything in this process
    alike, for seconds to minutes at a time: a fixed loop and a fixed
    coloring both drifted by 20% between 6-second blocks, while their
    ratio drifted by 3.5%.  Multiplying a call's wall time by this factor,
    taken around the call, gives the time the call would take at the
    loop's reference speed.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return LOOP_S / best


class CheckFailed(Exception):
    pass


def untraced(_name, fn, *args):
    return fn(*args)


def audit_sequence(g):
    """What `fivecolor audit` runs: a matcher probe, then the charge audit."""
    try:
        matching.find_reducible(g)
        matched = True
    except matching.CompletenessBreach:
        matched = False
    return discharge.audit(g, matched=matched)


def setup(insts):
    """Parse every text; returns (graphs, calibrated seconds, wall seconds)."""
    graphs = []
    calibrated = wall = 0.0
    k0 = scale()
    for inst in insts:
        t0 = time.perf_counter()
        graphs.append(instances.read(inst.text))
        dt = time.perf_counter() - t0
        k1 = scale()
        calibrated += (k0 + k1) / 2 * dt
        wall += dt
        k0 = k1
    return graphs, calibrated, wall


def checked_setup(insts):
    """The first set-up pass, which also checks that pg/1 round-trips."""
    graphs, spent, wall = setup(insts)
    for inst, g in zip(insts, graphs):
        if workloads.pg1_text(g) != inst.text:
            raise CheckFailed(f"{inst.family} n={inst.n}: pg/1 round trip differs")
    return graphs, spent, wall


def run_instance(inst, g, call, k0):
    """Color, audit and check one graph.

    k0 is scale() taken just before; each call's factor is the mean of
    the factors taken just before and just after it.  Returns (calibrated
    color s, calibrated audit s, wall color s, |V5|, stats, last factor).
    """
    stats = RunStats()
    t0 = time.perf_counter()
    colors = call("reducer.color_planar", reducer.color_planar, g, stats)
    t1 = time.perf_counter()
    k1 = scale()
    t2 = time.perf_counter()
    report = call("discharge.audit", audit_sequence, g)
    t3 = time.perf_counter()
    k2 = scale()
    v5 = check_coloring(g, colors)[5]
    if 6 * v5 > g.n:
        raise CheckFailed(f"{inst.family} n={g.n}: |V5|={v5} exceeds n/6")
    if report.total != 6 * g.n - 2 * g.m:
        raise CheckFailed(f"{inst.family} n={g.n}: audit total {report.total}")
    if inst.min_degree_5 and (report.min_degree < 5 or report.inconsistent):
        raise CheckFailed(f"{inst.family} n={g.n}: audit inconsistent")
    return (k0 + k1) / 2 * (t1 - t0), (k1 + k2) / 2 * (t3 - t2), t1 - t0, v5, stats, k2


class Runner:
    """Rounds over one workload's graphs through one call wrapper."""

    def __init__(self, insts, graphs, call=untraced):
        self.insts = insts
        self.graphs = graphs
        self.call = call
        self.attempted = 0
        self.failed = 0
        self.color = defaultdict(list)  # instance index -> calibrated seconds
        self.audit = defaultdict(list)
        self.wall = defaultdict(list)  # instance index -> wall color seconds
        self.v5 = {}

    def round(self):
        """Run every instance once; returns (wall color seconds, RunStats list)."""
        gc.collect()
        wall_total = 0.0
        stats = []
        k = scale()
        for i, (inst, g) in enumerate(zip(self.insts, self.graphs)):
            self.attempted += 1
            try:
                c, a, w, v5, st, k = run_instance(inst, g, self.call, k)
            except Exception:  # counted and reported; the run goes on
                self.failed += 1
                traceback.print_exc()
                k = scale()
                continue
            wall_total += w
            stats.append(st)
            self.v5[i] = v5
            self.color[i].append(c)
            self.audit[i].append(a)
            self.wall[i].append(w)
        return wall_total, stats


def medians(times):
    """Per instance, the median over rounds."""
    return {i: statistics.median(ts) for i, ts in times.items()}


def run_rounds(seconds, one_round):
    """Repeat one_round while the next one still fits in `seconds`."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return results


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Nearest rank: the (N-10)-th smallest value, at percentile
    floor(100 (N-10) / N).  Returns (value, percentile).
    """
    rank = len(values) - 10
    if rank < 1:
        raise ValueError(f"{len(values)} samples leave no tail with 10 beyond it")
    return sorted(values)[rank - 1], 100 * rank // len(values)


def by_n(insts, values):
    """Group per-instance values by instance size."""
    groups = defaultdict(list)
    for i, v in values.items():
        groups[insts[i].n].append(v)
    return groups


def slope(points):
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(args, insts):
    graphs, spent, wall = checked_setup(insts)
    times, walls = [spent], [wall]
    run = Runner(insts, graphs)

    def one_round():
        _, spent, wall = setup(insts)
        times.append(spent)
        walls.append(wall)
        return run.round()[0]

    rounds = run_rounds(args.seconds, one_round)
    color = medians(run.color)
    audit = medians(run.audit)
    ok = sorted(color)
    n_ok = sum(insts[i].n for i in ok)
    us_of = {i: color[i] / insts[i].n * 1e6 for i in ok}
    us = list(us_of.values())
    tail_us, pct = tail(us)
    v5_per_n = sum(run.v5.values()) / n_ok
    metrics = {
        "setup_s": statistics.median(times),
        "color_verts_per_s": n_ok / sum(color.values()),
        "color_us_per_vert.p50": statistics.median(us),
        "color_us_per_vert.tail": tail_us,
        "audit_verts_per_s": n_ok / sum(audit.values()),
        "v5_budget_left": 1 - 6 * v5_per_n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_color = medians(run.wall)
    notes = [
        f"rounds {len(rounds)}; wall color seconds per round: "
        + " ".join(f"{c:.3f}" for c in rounds),
        "times are calibrated (see scale()); per instance, the median over rounds",
        f"uncalibrated: setup_s {statistics.median(walls):.6f},"
        f" color_verts_per_s {n_ok / sum(wall_color.values()):.3f}",
        f"setup_s: median of {len(times)} read() passes over {len(insts)} texts",
        f"color_us_per_vert.tail = p{pct} of {len(us)} instances (10 beyond it)",
        "color_us_per_vert median by n: "
        + ", ".join(f"{n}: {statistics.median(v):.2f}" for n, v in sorted(by_n(insts, us_of).items())),
        f"v5_per_n {v5_per_n:.6f}",
        f"failed_frac {run.failed / max(run.attempted, 1):.6f}"
        f" ({run.failed} of {run.attempted})",
    ]
    return run.attempted, run.failed, metrics, notes


def _layer_metrics(tracer, start, stats):
    """Per-layer numbers of one traced round, and its self times."""
    seconds, calls, own = tracer.summary(start)
    cnt = tracer.counts
    occ = Counter()
    for st in stats:
        occ.update(getattr(st, "occ_steps", {}))
    probes = cnt["matching.match_at.calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "embedding.fill_walk.s": seconds["embedding.fill_walk"],
        "embedding.fill_walk.calls": calls["embedding.fill_walk"],
        "embedding.fill_walk.walk_len.max": cnt["embedding.fill_walk.walk_len.max"],
        "matching.find_reducible.s": seconds["matching.find_reducible"],
        "matching.find_reducible.calls": calls["matching.find_reducible"],
        "matching.match_at.calls": probes,
        "matching.hit_ratio": ratio(cnt["matching.match_at.hits"], probes),
        "kempe.free_color.s": seconds["kempe.free_color"],
        "kempe.free_color.calls": calls["kempe.free_color"],
        "kempe.chain.s": seconds["kempe.chain"],
        "kempe.chain.calls": calls["kempe.chain"],
        "kempe.chain.verts.sum": cnt["kempe.chain.verts.sum"],
        "kempe.chain.verts.max": cnt["kempe.chain.verts.max"],
        "kempe.swap.s": seconds["kempe.swap"],
        "kempe.swap.calls": calls["kempe.swap"],
        "kempe.swap_ratio": ratio(calls["kempe.swap"], calls["kempe.free_color"]),
        "reducer.color_planar.s": seconds["reducer.color_planar"],
        "reducer.color_planar.self_s": own["reducer.color_planar"]["reducer.color_planar"],
        "reducer.select_fifth.s": seconds["reducer.select_fifth"],
        "reducer.select_fifth.calls": calls["reducer.select_fifth"],
        "reducer.fifth_assigned": sum(getattr(st, "fifth_assigned", 0) for st in stats),
        "reducer.fallback_peels": sum(getattr(st, "fallback_peels", 0) for st in stats),
        "discharge.transfers.s": seconds["discharge.transfers"],
        "discharge.final_charges.s": seconds["discharge.final_charges"],
        "discharge.transfers.count": cnt["discharge.transfers.count"],
    }
    for fam in FAMILIES:
        m[f"matching.occ.{fam}"] = occ[fam]
    return m, seconds, own


def _self_table(seconds, own):
    """One block per root span: each layer's self time and its share."""
    lines = []
    for root, parts in own.items():
        span = seconds[root]
        if not math.isclose(sum(parts.values()), span, rel_tol=1e-6):
            raise CheckFailed(f"self times under {root} do not add up to its spans")
        lines.append(
            f"self times under {root} sum to {sum(parts.values()):.6f} s;"
            f" the {root} spans total {span:.6f} s"
        )
        for name, s in parts.most_common():
            lines.append(f"  {name:26s} {s:9.4f} s {100 * s / span:6.1f}%")
    return lines


def per_layer(args, insts):
    tracer = spans.Tracer()
    graphs = checked_setup(insts)[0]
    with tracer.patched():
        start = tracer.mark()
        setup(insts)
        seconds, calls, own = tracer.summary(start)
    metrics = {
        "instances.read.s": seconds["instances.read"],
        "instances.read.calls": calls["instances.read"],
        "embedding.build.s": seconds["embedding.build"],
    }
    notes = _self_table(seconds, own)
    plain = Runner(insts, graphs)
    traced = Runner(insts, graphs, tracer.call)
    rounds = []  # (wall color seconds, layer metrics, seconds by span, self seconds)

    def pair():
        plain.round()
        with tracer.patched():
            start = tracer.mark()
            color, stats = traced.round()
            rounds.append((color,) + _layer_metrics(tracer, start, stats))

    run_rounds(args.seconds, pair)
    # layer numbers and self times of the fastest traced round
    _, layers, seconds, own = min(rounds, key=lambda r: r[0])
    metrics.update(layers)
    color = medians(plain.color)
    metrics["reducer.color_planar.slope"] = slope(
        [(n, statistics.median(ts)) for n, ts in by_n(insts, color).items()]
    )
    metrics["trace.overhead"] = sum(medians(traced.color).values()) / sum(color.values())
    metrics["v5_per_n"] = sum(plain.v5.values()) / sum(insts[i].n for i in plain.v5)

    notes = [f"rounds {len(rounds)} untraced and {len(rounds)} traced, alternating"] + notes
    notes += _self_table(seconds, own)
    for point in sorted(tracer.missing):
        print(f"warning: {point} not as expected; its numbers read 0", file=sys.stderr)
    attempted = plain.attempted + traced.attempted
    return attempted, plain.failed + traced.failed, metrics, notes


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the library's asserts are part of the check", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    insts = workloads.make(args.workload, args.seed)
    ladder = "; ".join(
        f"{family} " + " ".join(f"{n}x{k}" for n, k in rungs)
        for family, rungs in workloads.LADDERS[args.workload].items()
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(insts)} instances"
        f" ({ladder}), total n {sum(i.n for i in insts)},"
        f" generated in {time.perf_counter() - t0:.2f} s"
    )
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        attempted, failed, metrics, notes = (per_layer if args.trace else end_to_end)(args, insts)
    except Exception:  # a failure outside the per-instance loop ends the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in notes:
        print(line)
    for w in wanted:
        print(f"{w['name']:34s} {metrics[w['name']]:14.6f} {w['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
