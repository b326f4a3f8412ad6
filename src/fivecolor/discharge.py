"""Exact-rational charge accounting over a triangulation.

Every vertex starts with charge 6 - deg(v); the total is 6n - 2m, which is
12 for a triangulated sphere.  Two local rules then move charge along
edges, and since moving preserves the total, some vertex always ends up
positive.  The point of the exercise: around a positive vertex the catalog
is guaranteed to bite, so a matcher that comes up empty on a min-degree-5
graph contradicts the audit and one of the two is broken.

Transfers sent by a degree-5 vertex (rule A): 1/3 to each degree-7
neighbor, 1/2 to each degree-8 neighbor, and the larger of 1/3 and
r/|N9| to each neighbor of degree 9 or more, where r is 1 minus the
shares already pledged to the 7s and 8s.  Nothing goes out on the third
leg when there is no such neighbor; r may be negative, the floor of 1/3
applies regardless.

Transfers sent by a degree-7 vertex whose link holds exactly four
degree-5 vertices (rule B): if those four sit consecutively, the two ends
of the run receive 1/6 each; otherwise each 9-or-more link member whose
two link flanks are both degree-5 receives 1/3.

Rule A reads four degree classes (<7, 7, 8, 9+), so a degree-5 sender's
shares depend only on its link's class tuple.  It therefore has a share
table, keyed by class tuple (4^5 entries), whose entries are the rule's
own output: `transfers` rejects the 5s that send nothing (no link degree
of 7 or more), then reads the others' shares from the table, calling the
rule only for a key seen for the first time.  Rule B's senders are rare,
so it has no table: `transfers` rejects the 7s without exactly four
degree-5 neighbors and calls the rule on the rest.

Every amount is a whole number of units of 1/360 (UNIT = 360 per unit of
charge), so transfers are counted and settled in ints.  Only the vertices
a transfer reached get a Fraction, read from one module-level table of the
Fractions made so far, keyed by charge and shared by every audit
(Fractions are immutable): an audit makes a Fraction only for a charge no
earlier one met, and a repeat audit makes none.  The table stays small,
since the charges a ledger can reach are few (see _CHARGES).  The sum is
checked, never trusted.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

UNIT = 360  # units per unit of charge
THIRD = UNIT // 3
HALF = UNIT // 2
SIXTH = UNIT // 6


class SumMismatch(RuntimeError):
    """Final charges do not add up to 6n - 2m; arithmetic corruption."""


@dataclass
class ChargeLedger:
    """Initial charges, the transfer map, and the expected grand total.

    Charges are whole units of charge; transfers are ints in units of
    1/UNIT, so an amount of 120 moves a third.
    """

    initial: dict  # vertex -> int, 6 - deg
    transfers: dict  # (sender, receiver) -> int units of 1/UNIT, nonzero entries only
    expected: int  # 6n - 2m


def _shares_from_five(degrees):
    """Rule A shares in units, keyed by link position, for one degree-5 sender."""
    shares = {}
    heavy = []
    r = UNIT
    for i, d in enumerate(degrees):
        if d == 7:
            shares[i] = THIRD
            r -= THIRD
        elif d == 8:
            shares[i] = HALF
            r -= HALF
        elif d >= 9:
            heavy.append(i)
    if heavy:
        # r is a multiple of SIXTH.  A share above THIRD needs r > THIRD *
        # len(heavy) with r <= UNIT, so len(heavy) <= 2 and r // len(heavy)
        # is exact (a multiple of UNIT / 12); otherwise the floor is at most
        # THIRD and max() picks THIRD, as the exact quotient would.
        each = max(THIRD, r // len(heavy))
        for i in heavy:
            shares[i] = each
    return shares


def _shares_from_seven(degrees):
    """Rule B shares in units, keyed by link position, for one degree-7 sender."""
    k = len(degrees)
    fives = {i for i, d in enumerate(degrees) if d == 5}
    if len(fives) != 4:
        return {}
    for start in range(k):
        if all((start + j) % k in fives for j in range(4)):
            return {start: SIXTH, (start + 3) % k: SIXTH}
    shares = {}
    for i, d in enumerate(degrees):
        if d >= 9 and (i - 1) % k in fives and (i + 1) % k in fives:
            shares[i] = THIRD
    return shares


# Rule A's degree classes <7, 7, 8, 9+, indexed by degree; every larger
# degree is in the last class.
_FIVE_CLASSES = b"\0\0\0\0\0\0\0\1\2\3"

# Rule A's shares by class key, as the rule's (link position, units) pairs
# in its order.  An entry is filled from the first link seen with its key;
# the rule reads only the classes, so every such link would give the same
# shares.
_FIVE_SHARES = [None] * 4**5


def transfers(g):
    """Apply both rules across g and return the resulting ledger."""
    rows = g.rotation
    degree = [len(row) for row in rows]
    # rule A's classes, extended past every degree g can have
    a = _FIVE_CLASSES + _FIVE_CLASSES[-1:] * len(rows)
    moved = {}
    for v, link in enumerate(rows):
        d = degree[v]
        if d == 5:
            p, q, r, s, t = link
            # the link's classes as base-4 digits, first most significant
            key = (
                a[degree[p]] << 8 | a[degree[q]] << 6 | a[degree[r]] << 4
                | a[degree[s]] << 2 | a[degree[t]]
            )
            if not key:  # no link degree of 7 or more
                continue
            shares = _FIVE_SHARES[key]
            if shares is None:
                degrees = [degree[u] for u in link]
                shares = _FIVE_SHARES[key] = tuple(_shares_from_five(degrees).items())
        elif d == 7:
            degrees = [degree[u] for u in link]
            if degrees.count(5) != 4:
                continue
            shares = _shares_from_seven(degrees).items()
        else:
            continue
        for i, amount in shares:
            moved[(v, link[i])] = amount
    initial = {v: 6 - d for v, d in enumerate(degree)}
    return ChargeLedger(initial, moved, 6 * g.n - 2 * g.m)


# UNIT * charge -> the one Fraction made for it, shared by every audit.
# Only a vertex that some transfer reached is looked up.  On a ledger from
# `transfers`, its charge is a multiple of 1/12 (every amount is a multiple
# of UNIT / 12) and lies in [min(-2, 19/3 - d), 6], d its degree:
#   degree 5: 1, less at most 5/2 sent (five 8s), plus at most 5/6;
#   degree 7: -1, less at most 1 sent (three flanked 9s), plus at most 7/3;
#   degree 8: -2, plus 1/2 to 4 received (1/2 from each 5);
#   degree d >= 9: 6 - d, plus 1/3 to d received (no share exceeds 1).
# Other degrees neither send nor receive.  So the table holds at most
# max(97, 12 * D - 3) entries, D the largest degree of any graph audited.
_CHARGES = {}


def final_charges(ledger):
    """Settle the ledger: charge minus sent plus received, per vertex.

    Net flows are summed in units of 1/UNIT.  The grand total must come
    back to the ledger's expected value exactly, and every net flow must
    be a whole number of units.  A vertex no transfer reached keeps its
    int charge; every other vertex gets its Fraction from _CHARGES.
    """
    flow = defaultdict(int)
    for (s, r), units in ledger.transfers.items():
        flow[s] -= units
        flow[r] += units
    total = UNIT * sum(ledger.initial.values()) + sum(flow.values())
    if total != UNIT * ledger.expected:
        raise SumMismatch(f"charges total {Fraction(total, UNIT)}, expected {ledger.expected}")
    charges = dict(ledger.initial)
    table = _CHARGES
    for v, units in flow.items():
        num = UNIT * charges[v] + units
        c = table.get(num)
        if c is None:
            # every key is a whole number, so only a miss can be off the grid
            if units % 1:
                raise SumMismatch(f"vertex {v}: net flow {units} is off the 1/{UNIT} grid")
            c = table[num] = Fraction(num, UNIT)
        charges[v] = c
    return charges


@dataclass(frozen=True)
class AuditReport:
    charges: dict  # vertex -> exact rational: int where no charge moved, Fraction elsewhere
    total: int  # 6n - 2m, which final_charges checked the charges sum to
    positives: tuple  # vertices with positive final charge, ascending
    min_degree: int
    inconsistent: bool


def audit(g, matched=True):
    """Settle charges and judge them against the matcher's verdict.

    Somebody ends up positive (the total is positive), and near a positive
    vertex of a min-degree-5 triangulation a configuration must occur.  So
    a failed match on such a graph flags the report as inconsistent.
    """
    ledger = transfers(g)
    charges = final_charges(ledger)
    # ints and Fractions alike carry the sign in .numerator (a Fraction's
    # denominator is positive), which skips a Fraction comparison per vertex.
    # charges is already ascending: transfers builds ledger.initial in vertex
    # order and final_charges only reassigns its keys
    positives = tuple(v for v, c in charges.items() if c.numerator > 0)
    min_degree = 6 - max(ledger.initial.values(), default=6)
    return AuditReport(
        charges=charges,
        total=ledger.expected,
        positives=positives,
        min_degree=min_degree,
        inconsistent=min_degree >= 5 and not matched,
    )
