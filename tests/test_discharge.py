"""Charge rules and the audit, on synthetic links and real spheres.

seven_wheel builds a sphere around a degree-7 hub with prescribed rim
degrees: rim i fans out to deg-3 outer-ring vertices, consecutive rims
share a corner, and a pole closes the outer ring.  It is the smallest
honest way to put a chosen degree vector on a hub's link.
"""

import hashlib
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivecolor import discharge
from fivecolor.discharge import (
    _FIVE_CLASSES,
    _FIVE_SHARES,
    UNIT,
    AuditReport,
    ChargeLedger,
    SumMismatch,
    _shares_from_five,
    _shares_from_seven,
    audit,
    final_charges,
    transfers,
)
from fivecolor.embedding import build, from_faces
from fivecolor.instances import GenSpec, generate
from conftest import has_edge, star_rotations
from test_matcher import antiprism
from test_reducer import hub_gadget, wheel_gadget


def seven_wheel(rim_degrees):
    k = len(rim_degrees)
    arcs = [d - 3 for d in rim_degrees]
    assert all(a >= 2 for a in arcs)
    n_outer = sum(arcs) - k
    starts, s = [], 0
    for a in arcs:
        starts.append(s)
        s += a - 1
    rim = lambda i: 1 + i % k
    outer = lambda j: 1 + k + j % n_outer
    pole = 1 + k + n_outer
    faces = [(0, rim(i), rim(i + 1)) for i in range(k)]
    for i in range(k):
        faces += [
            (rim(i), outer(starts[i] + j), outer(starts[i] + j + 1))
            for j in range(arcs[i] - 1)
        ]
        faces.append((rim(i + 1), rim(i), outer(starts[i] + arcs[i] - 1)))
    faces += [(pole, outer(j + 1), outer(j)) for j in range(n_outer)]
    g = from_faces(pole + 1, faces)
    assert [g.degree(rim(i)) for i in range(k)] == list(rim_degrees)
    return g


def in_charge(units_by_key):
    return {k: F(u, UNIT) for k, u in units_by_key.items()}


def five(degrees):
    return in_charge(_shares_from_five(degrees))


def seven(degrees):
    return in_charge(_shares_from_seven(degrees))


def test_five_shares_split_to_heavy():
    assert five((7, 7, 7, 9, 9)) == {i: F(1, 3) for i in range(5)}
    assert five((5, 5, 5, 5, 9)) == {4: F(1)}
    assert five((7, 5, 5, 5, 9)) == {0: F(1, 3), 4: F(2, 3)}
    assert five((7, 8, 9, 9, 9)) == {
        0: F(1, 3), 1: F(1, 2), 2: F(1, 3), 3: F(1, 3), 4: F(1, 3)
    }


def test_five_shares_floor_and_absences():
    # pledges can exceed 1; heavy neighbors still get the 1/3 floor
    assert five((8, 8, 8, 9, 5)) == {
        0: F(1, 2), 1: F(1, 2), 2: F(1, 2), 3: F(1, 3)
    }
    assert five((8, 8, 8, 5, 5)) == {
        0: F(1, 2), 1: F(1, 2), 2: F(1, 2)
    }
    assert five((5, 5, 5, 5, 5)) == {}
    assert five((6, 6, 6, 6, 6)) == {}


def test_seven_shares_path_endpoints():
    assert seven((5, 5, 5, 5, 9, 6, 9)) == {0: F(1, 6), 3: F(1, 6)}
    # the run may wrap around the cycle
    assert seven((5, 9, 6, 9, 5, 5, 5)) == {4: F(1, 6), 0: F(1, 6)}


def test_seven_shares_non_path():
    assert seven((5, 5, 9, 5, 5, 9, 6)) == {2: F(1, 3)}
    assert seven((5, 5, 6, 5, 5, 6, 6)) == {}


def test_seven_shares_need_exactly_four_fives():
    assert seven((5, 5, 5, 6, 6, 6, 6)) == {}
    assert seven((5, 5, 5, 5, 5, 6, 6)) == {}


def fraction_shares_from_five(degrees):
    """Rule A in Fractions of a unit of charge: the reference for the int rule."""
    shares = {}
    heavy = []
    r = F(1)
    for i, d in enumerate(degrees):
        if d == 7:
            shares[i] = F(1, 3)
            r -= F(1, 3)
        elif d == 8:
            shares[i] = F(1, 2)
            r -= F(1, 2)
        elif d >= 9:
            heavy.append(i)
    if heavy:
        each = max(F(1, 3), r / len(heavy))
        for i in heavy:
            shares[i] = each
    return shares


def fraction_shares_from_seven(degrees):
    """Rule B in Fractions of a unit of charge: the reference for the int rule."""
    k = len(degrees)
    fives = {i for i, d in enumerate(degrees) if d == 5}
    if len(fives) != 4:
        return {}
    for start in range(k):
        if all((start + j) % k in fives for j in range(4)):
            return {start: F(1, 6), (start + 3) % k: F(1, 6)}
    shares = {}
    for i, d in enumerate(degrees):
        if d >= 9 and (i - 1) % k in fives and (i + 1) % k in fives:
            shares[i] = F(1, 3)
    return shares


def test_int_rules_match_fraction_reference():
    # every degree bucket of rule A (<7, 7, 8, 9+) at every link position,
    # and every rule B link over {5, 6, 9}
    cases = [
        (_shares_from_five, fraction_shares_from_five, itertools.product(range(5, 11), repeat=5)),
        (_shares_from_seven, fraction_shares_from_seven, itertools.product((5, 6, 9), repeat=7)),
    ]
    count = 0
    for rule, reference, links in cases:
        for degrees in links:
            shares = rule(degrees)
            assert all(type(u) is int for u in shares.values())
            assert in_charge(shares) == reference(degrees), degrees
            count += 1
    assert count == 6**5 + 3**7


def test_share_tables_match_rules():
    # every raw degree vector over a domain that puts every class at every
    # link position: the entry for its class key, whichever link filled it,
    # is rule A's output on this vector, in values and order
    assert len(_FIVE_SHARES) == 4**5
    for degrees in itertools.product(range(3, 12), repeat=5):
        key = 0
        for d in degrees:
            key = 4 * key + _FIVE_CLASSES[min(d, 9)]
        shares = _FIVE_SHARES[key]
        if shares is None:
            shares = _FIVE_SHARES[key] = tuple(_shares_from_five(degrees).items())
        assert shares == tuple(_shares_from_five(degrees).items()), degrees
    assert None not in _FIVE_SHARES


def test_octahedron_charges(octahedron):
    ledger = transfers(octahedron)
    assert ledger.transfers == {}
    charges = final_charges(ledger)
    assert all(c == 2 for c in charges.values())
    assert sum(charges.values()) == 12


def test_icosahedron_charges(icosahedron):
    charges = final_charges(transfers(icosahedron))
    assert all(c == 1 for c in charges.values())


def test_cube_charges(cube):
    # not a triangulation; the identity is 6n - 2m = 24, not 12
    charges = final_charges(transfers(cube))
    assert all(c == 3 for c in charges.values())
    assert sum(charges.values()) == 24


def test_wheel_gadget_ledger():
    g, _ = wheel_gadget()
    ledger = transfers(g)
    assert in_charge(ledger.transfers) == {
        (0, 1): F(1, 2), (0, 3): F(1, 3),
        (6, 1): F(1, 2), (6, 19): F(1, 2),
        (10, 1): F(1, 2), (10, 19): F(1, 2),
        (12, 3): F(1, 3), (12, 19): F(2, 3),
        (15, 3): F(1, 3), (15, 19): F(2, 3),
        (17, 19): F(1),
    }
    charges = final_charges(ledger)
    expected = {v: 2 for v in (7, 8, 9, 11, 13, 14, 16, 18)}
    expected.update({v: 0 for v in (2, 3, 4, 5, 6, 10, 12, 15, 17)})
    expected.update({0: F(1, 6), 1: F(-1, 2), 19: F(-11, 3)})
    assert charges == expected


def test_hub_gadget_charges():
    g, _ = hub_gadget()
    charges = final_charges(transfers(g))
    assert charges == {
        0: F(-3, 2), 1: F(1, 2), 2: 2, 3: 3, 4: 0,
        5: 2, 6: 2, 7: 2, 8: 2, 9: 0,
    }


def test_rule_b_path_on_sphere():
    g = seven_wheel((5, 5, 5, 5, 9, 6, 9))
    moved = transfers(g).transfers
    assert F(moved[(0, 1)], UNIT) == F(1, 6) and F(moved[(0, 4)], UNIT) == F(1, 6)
    assert not any(s == 0 and r not in (1, 4) for (s, r) in moved)
    # the path-degree-5 rims also feed the hub under the degree-5 rule
    assert F(moved[(2, 0)], UNIT) == F(1, 3)
    assert sum(final_charges(transfers(g)).values()) == 12


def test_rule_b_non_path_on_sphere():
    g = seven_wheel((5, 5, 9, 5, 5, 6, 9))
    moved = transfers(g).transfers
    # only the 9 flanked by two 5s gets the hub's 1/3; the other 9 has a
    # degree-6 flank
    assert F(moved[(0, 3)], UNIT) == F(1, 3)
    assert not any(s == 0 and r != 3 for (s, r) in moved)
    assert sum(final_charges(transfers(g)).values()) == 12


def fraction_settlement(ledger):
    charges = {v: F(c) for v, c in ledger.initial.items()}
    for (s, r), amount in ledger.transfers.items():
        charges[s] -= F(amount, UNIT)
        charges[r] += F(amount, UNIT)
    return charges


@pytest.mark.parametrize(
    "spec",
    [GenSpec(s, 400, 800) for s in (1, 2, 3)] + [GenSpec(s, 162, 324, True) for s in (1, 2, 3)],
    ids=lambda spec: f"seed{spec.seed}-n{spec.n}",
)
def test_settlement_matches_fraction_reference(spec):
    ledger = transfers(generate(spec))
    assert ledger.transfers
    initial = dict(ledger.initial)
    expected = fraction_settlement(ledger)
    charges = final_charges(ledger)
    assert charges == expected
    assert sum(charges.values()) == sum(expected.values()) == ledger.expected
    assert ledger.initial == initial
    # a vertex that no transfer reached keeps its int
    touched = {v for pair in ledger.transfers for v in pair}
    assert touched < set(charges)
    assert all(type(c) is int for v, c in charges.items() if v not in touched)


def test_sum_mismatch_tripwire(octahedron):
    ledger = transfers(octahedron)
    ledger.initial[0] += 1
    with pytest.raises(SumMismatch, match="expected 12"):
        final_charges(ledger)


def test_denominator_tripwire():
    # a 1/7 transfer (360/7 units) keeps the total but leaves the 360 grid
    ledger = ChargeLedger({0: 1, 1: -1}, {(0, 1): F(UNIT, 7)}, 0)
    with pytest.raises(SumMismatch, match="360"):
        final_charges(ledger)


def test_audit_reports(icosahedron, octahedron):
    report = audit(icosahedron, matched=True)
    assert isinstance(report, AuditReport)
    assert report.positives == tuple(range(12))
    assert report.total == 12
    assert report.min_degree == 5
    assert not report.inconsistent
    assert audit(icosahedron, matched=False).inconsistent
    assert not audit(octahedron, matched=False).inconsistent


def test_audit_reports_pinned():
    # every report field, charge types included, as the Fraction settlement
    # produced them
    digest = hashlib.sha256()
    specs = [GenSpec(s, 400, 800) for s in range(1, 6)]
    specs += [GenSpec(s, 162, 324, True) for s in range(1, 4)]
    for spec in specs:
        report = audit(generate(spec))
        data = (
            sorted((v, str(c), type(c).__name__) for v, c in report.charges.items()),
            str(report.total),
            report.positives,
            report.min_degree,
            report.inconsistent,
        )
        digest.update(repr(data).encode())
    assert digest.hexdigest()[:16] == "b96fa709586aae97"


def bipyramid(n):
    """Two poles over an equator of n - 2 vertices: poles of degree n - 2."""
    k = n - 2
    e = lambda i: 2 + i % k
    faces = [(0, e(i), e(i + 1)) for i in range(k)] + [(1, e(i + 1), e(i)) for i in range(k)]
    return from_faces(n, faces)


@pytest.fixture
def charge_table(monkeypatch):
    # every audit in the process shares the table; these tests start from
    # an empty one, so what they count is their own
    table = {}
    monkeypatch.setattr(discharge, "_CHARGES", table)
    return table


def test_equal_charges_share_one_fraction(charge_table):
    first = audit(generate(GenSpec(1, 400, 800))).charges
    second = audit(generate(GenSpec(2, 400, 800))).charges
    made = {c: c for c in first.values() if type(c) is F}
    again = [c for c in second.values() if type(c) is F and c in made]
    assert again
    assert all(c is made[c] for c in again)


def test_charge_table_stays_within_its_bound(charge_table):
    graphs = [generate(GenSpec(s, 400, 800)) for s in (1, 2, 3)]
    graphs += [generate(GenSpec(s, 162, 324, True)) for s in (1, 2)]
    # each hub takes 1 from each of its degree-5 neighbors and ends at 6,
    # the top of the range
    graphs += [antiprism(9), antiprism(40)]
    graphs += [build(star_rotations(5000)), bipyramid(2002)]
    top = 0
    for g in graphs:
        audit(g)
        top = max(top, *map(len, g.rotation))
        assert len(charge_table) <= max(97, 12 * top - 3)
        low = UNIT * min(-2, F(19, 3) - top)
        assert all(k % (UNIT // 12) == 0 and low <= k <= 6 * UNIT for k in charge_table)
    assert 6 * UNIT in charge_table
    # the same graphs again meet only charges the table holds
    size = len(charge_table)
    for g in graphs:
        audit(g)
    assert len(charge_table) == size


def test_repeat_audit_makes_no_fraction(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(discharge, "Fraction", counted)
    g = generate(GenSpec(1, 400, 800))
    first = audit(g)
    made.clear()
    assert audit(g) == first
    assert made == []


@pytest.mark.parametrize(
    "rows, charges, min_degree",
    [
        ([(1,), (0,), ()], {0: 5, 1: 5, 2: 6}, 0),  # an isolated vertex has degree 0
        ([], {}, 0),  # the empty graph
    ],
    ids=["isolated", "empty"],
)
def test_audit_on_odd_graphs(rows, charges, min_degree):
    g = build(rows)
    report = audit(g, matched=False)
    assert report.charges == charges
    assert report.total == 6 * g.n - 2 * g.m == sum(charges.values())
    assert report.positives == tuple(sorted(charges))
    assert report.min_degree == min_degree
    assert not report.inconsistent


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(12, 120), st.sampled_from([1, 2]), st.booleans())
def test_charges_on_generated(seed, n, k, shaped):
    if shaped:
        n = 10 * 4**k + 2
    g = generate(GenSpec(seed=seed, n=n, flips=2 * n, shape_min_degree_5=shaped))
    ledger = transfers(g)
    for (s, r), amount in ledger.transfers.items():
        assert has_edge(g, s, r)
        assert g.degree(s) in (5, 7)
        assert amount > 0
    report = audit(g, matched=True)
    assert report.total == 12
    assert report.positives
    assert list(report.positives) == sorted(v for v, c in report.charges.items() if c > 0)
    assert not report.inconsistent
