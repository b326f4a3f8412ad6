"""Command line front end: color, verify, match, audit, generate, catalog, bench.

Exit codes: 0 success; 1 unreadable input or a failed verification (the
INPUT_ERRORS); 2 a broken internal guarantee (the TRIPWIRES); 3 match found
no configuration; 4 audit found charges and matcher in contradiction.

All graphs travel as pg/1 text; `-` means stdin.  Coloring output is one
`<vertex> <color>` line per vertex plus a trailing stats line, which
`verify` skips on re-read, so `color` pipes straight into it.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import statistics
import sys
import time

from .catalog import ValidationFailure, builtin_catalog, validate_entry
from .discharge import SumMismatch
from .discharge import audit as run_audit
from .embedding import EmbeddingError, UntriangulatableFace
from .instances import (
    GenSpec,
    ParseError,
    UnknownName,
    generate,
    named,
    read,
    write,
)
from .kempe import BrokenInvariant, DiagonalContradiction
from .matching import CompletenessBreach, find_reducible
from .reducer import RunStats, SchemeExhausted, color_planar, coloring_faults

TRIPWIRES = (
    BrokenInvariant,
    CompletenessBreach,
    DiagonalContradiction,
    SchemeExhausted,
    SumMismatch,
    UntriangulatableFace,
)

INPUT_ERRORS = (ParseError, UnknownName, EmbeddingError, ValidationFailure, OSError)


def _read_text(path):
    """The text of the file at `path`, or of stdin for `-`."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_graph(path):
    return read(_read_text(path))


def _read_coloring(path, n):
    """Parse `<vertex> <color>` lines, each id 0..n-1 at most once; comments and k=v are noise."""
    colors = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or "=" in line:
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("expected '<vertex> <color>'", lineno) from None
        if not 0 <= v < n:
            ids = f"ids 0..{n - 1}" if n else "it has no vertices"
            raise ParseError(f"vertex {v} is not in the graph ({ids})", lineno)
        if v in colors:
            raise ParseError(f"vertex {v} is colored twice", lineno)
        colors[v] = c
    return colors


def _bound(g, colors):
    """Whether the fifth color class holds at most n/6 vertices, and the `n= v5= bound=` line."""
    v5 = sum(1 for v in g.vertices() if colors.get(v) == 5)
    ok = 6 * v5 <= g.n
    return ok, f"n={g.n} v5={v5} bound={'PASS' if ok else 'FAIL'}"


def _stat(value):
    """One RunStats value as `color --stats` prints it.

    A Counter prints as its key:count pairs, sorted by key, or `-` if empty.
    """
    if isinstance(value, dict):
        return ",".join(f"{k}:{n}" for k, n in sorted(value.items())) or "-"
    return value


def cmd_color(args):
    g = _load_graph(args.file)
    stats = RunStats()
    colors = color_planar(g, stats)
    ok, bound = _bound(g, colors)
    # color_planar's dict is keyed in vertex order
    lines = [f"{v} {c}" for v, c in colors.items()]
    lines.append(bound)
    print("\n".join(lines))
    if args.stats:
        pairs = (f"{f.name}={_stat(getattr(stats, f.name))}" for f in dataclasses.fields(stats))
        print("stats:", *pairs, file=sys.stderr)
    return 0 if ok else 2


def cmd_verify(args):
    g = _load_graph(args.graph)
    colors = _read_coloring(args.coloring, g.n)
    faults = list(coloring_faults(g, colors))
    in_bound, bound = _bound(g, colors)
    ok = in_bound and not faults
    print("\n".join([*faults, bound, f"verify={'OK' if ok else 'FAIL'}"]))
    return 0 if ok else 1


def cmd_match(args):
    g = _load_graph(args.file)
    try:
        occ = find_reducible(g)
    except CompletenessBreach:
        print("NONE")
        return 3
    print(f"{occ.entry.family} {occ.entry.name} anchor={occ.anchor}")
    print(" ".join(f"{p}:{occ.mapping[p]}" for p in sorted(occ.mapping)))
    return 0


def cmd_audit(args):
    g = _load_graph(args.file)
    try:
        find_reducible(g)
        matched = True
    except CompletenessBreach:
        matched = False
    report = run_audit(g, matched=matched)
    # the charges are keyed in vertex order, and a charge's sign is its
    # numerator's, as in audit
    lines = [f"sum={report.total} ok"]
    lines += [
        f"{v} {c.numerator}/{c.denominator}" for v, c in report.charges.items() if c.numerator
    ]
    if report.inconsistent:
        lines.append("inconsistent: minimum degree 5 but no configuration matches")
    print("\n".join(lines))
    return 4 if report.inconsistent else 0


def cmd_generate(args):
    if args.named:
        g = named(args.named)
    else:
        if args.n is None:
            raise ParseError("generate needs --n (or --named)")
        flips = 2 * args.n if args.flips is None else args.flips
        # generate() raises ValueError only for a size it cannot build,
        # which on the command line is bad input, not a broken guarantee
        try:
            g = generate(GenSpec(args.seed, args.n, flips, args.min_degree_5))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    write(g, sys.stdout)
    return 0


def cmd_catalog(args):
    entries = builtin_catalog()
    for e in entries:
        print(f"{e.name} PASS states={validate_entry(e)}")
    print(f"catalog ok ({len(entries)} entries)")
    return 0


def _sizes(text):
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    # the generator starts from K4
    if min(sizes) < 4:
        raise argparse.ArgumentTypeError(f"sizes below 4 in {text!r}")
    # the slope fit needs distinct sizes
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"sizes repeat in {text!r}")
    return sizes


def _at_least(low):
    def count(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return count


def _best_of(repeat, fn, arg):
    """The least seconds of `repeat` calls fn(arg), and the last call's result."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def time_ladder(sizes, seed, repeat):
    """Yield (n, read seconds, color seconds) per size, each the best of `repeat` runs.

    The i-th size n is generate(GenSpec(seed + i, n, 2 * n)) written as
    pg/1; `read` parses that text (with build's checks), and color_planar
    colors the graph it read.
    """
    for i, n in enumerate(sizes):
        buf = io.StringIO()
        write(generate(GenSpec(seed + i, n, 2 * n)), buf)
        read_s, g = _best_of(repeat, read, buf.getvalue())
        color_s, _ = _best_of(repeat, color_planar, g)
        yield n, read_s, color_s


def loglog_slope(points):
    """Least-squares slope of log(seconds) against log(n) over (n, seconds)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-6)) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


def cmd_bench(args):
    points = []
    for n, read_s, color_s in time_ladder(args.sizes, args.seed, args.repeat):
        points.append((n, read_s, color_s))
        print(f"{n} {read_s:.4f} {color_s:.4f}")
    if len(points) >= 2:
        print(f"read_slope={loglog_slope([(n, r) for n, r, _ in points]):.3f}")
        print(f"color_slope={loglog_slope([(n, c) for n, _, c in points]):.3f}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fivecolor",
        description="Five-color planar graphs with a rationed fifth color.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a pg/1 graph")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--stats", action="store_true", help="run counters to stderr")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring against its graph")
    p.add_argument("graph")
    p.add_argument("coloring", nargs="?", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("match", help="find the first reducible configuration")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("audit", help="exact charge accounting report")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("generate", help="emit a test graph as pg/1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--flips", type=_at_least(0))
    p.add_argument("--min-degree-5", action="store_true")
    p.add_argument("--named", help="emit a named instance instead")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("catalog", help="catalog maintenance")
    p.add_argument("action", choices=["validate"])
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("bench", help="time reading and coloring across sizes")
    p.add_argument("--sizes", type=_sizes, default="250,500,1000,2000,4000")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=_at_least(1), default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except TRIPWIRES as exc:
        print(f"tripwire: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
