"""Audit the discharging argument on real instances.

Every vertex starts with charge 6 - deg(v); over a whole triangulation
these sum to exactly 12.  The transfer rules move charge around in
whole units of 1/360 (exact ints), and afterwards any vertex still
holding positive charge must sit inside a catalog configuration.  That
is the unavoidability argument, and this script checks it numerically.
"""

from fractions import Fraction

from fivecolor import (
    UNIT,
    CompletenessBreach,
    GenSpec,
    audit,
    find_reducible,
    generate,
    named,
    transfers,
)

ico = named("icosahedron")
report = audit(ico)
print("icosahedron: total =", report.total)
print("positive vertices:", report.positives)
# All twelve vertices have degree 5 and keep charge 1: nothing to send.
assert report.total == 12 and len(report.positives) == 12

# A shaped instance: minimum degree 5, so peeling alone cannot start.
g = generate(GenSpec(seed=4, n=162, flips=324, shape_min_degree_5=True))

ledger = transfers(g)
moved = sum(ledger.transfers.values())  # in units of 1/UNIT
print()
print(f"shaped n={g.n}: {len(ledger.transfers)} transfers moving {Fraction(moved, UNIT)} charge")

# Each positive vertex is evidence that a configuration is nearby; the
# matcher confirms the graph as a whole contains one, and the audit is
# consistent only if it does.  find_reducible raises CompletenessBreach
# when it finds none, which is what an inconsistent audit would report.
try:
    occ = find_reducible(g)
except CompletenessBreach:
    occ = None
report = audit(g, matched=occ is not None)
print("total =", report.total, "positives =", list(report.positives)[:8], "...")
assert report.total == 12
if occ is not None:
    print("first occurrence:", occ.entry.family, occ.entry.name, "at", occ.anchor)
print("audit consistent:", not report.inconsistent)
