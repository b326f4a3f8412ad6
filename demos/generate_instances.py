"""Generate random planar triangulations, deterministically.

The generator grows a triangulation by repeated face splits, then
stirs it with diagonal flips.  The same seed always yields the same
graph.  Min-degree-5 instances start instead from a subdivided
icosahedron, so their sizes are 10*4^k + 2 (42, 162, 642, ...), and
take only flips that keep every degree at 5 or more: those are the
graphs that make the configuration catalog earn its keep.
"""

import io

from fivecolor import GenSpec, generate, read, write

g = generate(GenSpec(seed=7, n=40, flips=80))
degs = sorted(g.degree(v) for v in g.vertices())
print(f"seed 7, n={g.n}, m={g.m}, degrees {degs[0]}..{degs[-1]}")

again = generate(GenSpec(seed=7, n=40, flips=80))
assert again.rotation == g.rotation
print("same seed, same graph")

# Round-trip through the text format.
buf = io.StringIO()
write(g, buf)
back = read(buf.getvalue())
assert back.rotation == g.rotation
print("text round-trip ok,", len(buf.getvalue().splitlines()), "lines")

# Min-degree-5 instances: every seed keeps minimum degree 5.
for seed in range(1, 13):
    s = generate(GenSpec(seed=seed, n=162, flips=324, shape_min_degree_5=True))
    degs = sorted(s.degree(v) for v in s.vertices())
    assert degs[0] >= 5
    print(f"  seed {seed:2}: degrees {degs[0]}..{degs[-1]}")
print("12/12 seeds have minimum degree 5")
