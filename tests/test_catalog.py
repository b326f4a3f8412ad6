"""Catalog structure and replay validation.

Peel orders below were traced by hand against the greedy lowest-id rule
and frozen.  Run-count distributions for separator placements on a cycle
come from the standard count of k non-consecutive choices, n/(n-k)*C(n-k,k).
"""

import pytest

from fivecolor.catalog import (
    ConfigurationSpec,
    NinePattern,
    PlainZero,
    TrialSequence,
    ValidationFailure,
    VirtualHub,
    _check_entry,
    blocked_peel,
    builtin_catalog,
    get_entry,
    validate_catalog,
    validate_entry,
)


EXPECTED_NAMES = [
    "low",
    "wheel-adjacent",
    "wheel-separated",
    "fan8-23",
    "fan8-24",
    "fan8-25",
    "fan8-34",
    "fan6-z1",
    "fan6-z2",
    "fan6-z3",
    "hub",
    "hub9",
    "ring-m",
    "ring-x",
    "ring-y",
    "ring-p",
    "twin-1",
    "twin-2",
]


def test_catalog_names_and_families():
    cat = builtin_catalog()
    assert [e.name for e in cat] == EXPECTED_NAMES
    assert [e.family for e in cat] == (
        ["f1"] + ["f2"] * 2 + ["f3"] * 4 + ["f4"] * 3 + ["f7"] + ["f8"]
        + ["f5"] * 4 + ["f6"] * 2
    )


def test_get_entry():
    assert get_entry("twin-1").family == "f6"
    with pytest.raises(KeyError):
        get_entry("wheel")


def test_template_invariant():
    # cap(v) = H-degree(v) + total halfedge run length, and the named
    # neighbors in the template are exactly the H-neighbors
    for e in builtin_catalog():
        for v in range(len(e.caps)):
            members = [x for x in e.rotations[v] if not isinstance(x, tuple)]
            runs = sum(x[1] for x in e.rotations[v] if isinstance(x, tuple))
            assert sorted(members) == e.pattern_neighbors(v)
            assert e.caps[v] == len(members) + runs
            assert e.halfedges(v) == runs


def test_exact_vertices_are_capped_to_their_degree():
    for e in builtin_catalog():
        for v in e.exact:
            assert e.caps[v] >= e.pattern_degree(v)


def test_layout_consistency():
    # layout vertices hang off the anchor, and consecutive occupied slots
    # are H-edges
    for e in builtin_catalog():
        if e.layout is None:
            continue
        occupied = [v for v in e.layout if v is not None]
        assert len(set(occupied)) == len(occupied)
        for v in occupied:
            assert tuple(sorted((e.anchor, v))) in e.edges


# -- blocked_peel ------------------------------------------------------------


def test_blocked_peel_wheel_hub_candidate():
    e = get_entry("wheel-adjacent")
    order, stuck = blocked_peel(e.caps, e.edges, {0}, {1: 1, 2: 1, 3: 1})
    assert order == (3, 2, 4, 5, 1)
    assert not stuck


def test_blocked_peel_wheel_first_candidate():
    e = get_entry("wheel-adjacent")
    order, stuck = blocked_peel(e.caps, e.edges, {1}, {})
    assert order == (0, 5, 4, 3, 2)
    assert not stuck


def test_blocked_peel_stuck():
    caps = (9, 5, 5)
    edges = {(0, 1), (0, 2)}
    order, stuck = blocked_peel(caps, edges)
    assert order == ()
    assert stuck == {0, 1, 2}


def test_blocked_peel_tokens_relax():
    caps = (5,)
    assert blocked_peel(caps, set())[1] == {0}
    assert blocked_peel(caps, set(), blocked={0: 1}) == ((0,), frozenset())


# -- validation --------------------------------------------------------------


def test_validate_all_entries():
    reports = validate_catalog()
    assert len(reports) == len(EXPECTED_NAMES)
    assert [r.entry for r in reports] == EXPECTED_NAMES


def test_wheel_has_four_reachable_scenarios():
    # the hub's neighbors are all in the pattern, so "every trial vertex
    # blocked" cannot happen; the other four scenarios must replay
    for name in ("wheel-adjacent", "wheel-separated"):
        report = validate_entry(get_entry(name))
        assert report.reachable == 4
        by_label = {s.label: s for s in report.scenarios}
        assert by_label["all-blocked"].status == "unreachable"
        assert by_label["fifth=0"].status == "ok"


def test_trial_scenario_peels_frozen():
    report = validate_entry(get_entry("wheel-adjacent"))
    by_label = {s.label: s for s in report.scenarios}
    assert by_label["fifth=1"].detail == "peel 0,5,4,3,2"
    assert by_label["fifth=0"].detail == "peel 3,2,4,5,1"


def test_all_blocked_reachable_elsewhere():
    for name in EXPECTED_NAMES:
        e = get_entry(name)
        if not isinstance(e.scheme, TrialSequence) or e.family == "f2":
            continue
        report = validate_entry(e)
        by_label = {s.label: s for s in report.scenarios}
        assert by_label["all-blocked"].status == "ok", name


def test_virtual_hub_run_distribution():
    report = validate_entry(get_entry("hub"))
    details = {s.label: s.detail for s in report.scenarios}
    assert details["d=8"] == (
        "8 with 1 leaf run, 32 with 2 leaf runs, 16 with 3 leaf runs"
    )
    assert details["d=9"] == (
        "9 with 1 leaf run, 45 with 2 leaf runs, 30 with 3 leaf runs"
    )
    assert details["d=10"] == (
        "10 with 1 leaf run, 60 with 2 leaf runs, 50 with 3 leaf runs"
    )


def test_nine_pattern_report():
    report = validate_entry(get_entry("hub9"))
    assert report.scenarios[0].detail == "2 leaf runs"


def test_validation_catches_bad_entry():
    # cap 6 on an isolated pattern vertex can never peel
    bad = ConfigurationSpec(
        name="bad",
        family="f2",
        caps=(6, 6),
        exact=frozenset(),
        edges=frozenset(),
        rotations=((("h", 6),), (("h", 6),)),
        scheme=TrialSequence((0,)),
    )
    with pytest.raises(ValidationFailure, match="stuck"):
        validate_entry(bad)


def test_shape_check_catches_bad_cap():
    # cap 5, but no pattern neighbors and a single run of 4 halfedges
    bad = ConfigurationSpec(
        name="bad-cap",
        family="f2",
        caps=(5,),
        exact=frozenset(),
        edges=frozenset(),
        rotations=((("h", 4),),),
        scheme=TrialSequence((0,)),
    )
    with pytest.raises(ValidationFailure, match="bad-cap: shape: cap of 0") as info:
        _check_entry(bad)
    assert info.value.scenario == "shape"


def test_scheme_types():
    assert isinstance(get_entry("low").scheme, PlainZero)
    assert isinstance(get_entry("hub").scheme, VirtualHub)
    assert get_entry("hub").scheme.degrees == (8, 9, 10)
    assert isinstance(get_entry("hub9").scheme, NinePattern)
    assert get_entry("ring-y").scheme.order == (3, 2, 0)
