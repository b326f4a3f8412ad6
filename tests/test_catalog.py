"""Catalog structure and replay validation.

Peel orders below were traced by hand against the greedy lowest-id rule
and frozen.  Run-count distributions for separator placements on a cycle
come from the standard count of k non-consecutive choices, n/(n-k)*C(n-k,k).
"""

import contextlib
import dataclasses
import hashlib
import io

import pytest

from fivecolor.catalog import (
    HUB_DEGREES,
    ConfigurationSpec,
    NinePattern,
    TrialSequence,
    ValidationFailure,
    VirtualHub,
    _hub_scenarios,
    blocked_peel,
    builtin_catalog,
    get_entry,
    hub_edges,
    validate_entry,
)
from fivecolor.cli import main


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
    # a vertex's halfedges are the runs of its template
    for e in builtin_catalog():
        for v, template in enumerate(e.rotations):
            runs = sum(x[1] for x in template if isinstance(x, tuple))
            assert e.halfedges(v) == runs


def test_exact_set_names_pattern_vertices_and_the_laid_anchor():
    # _match_layout compares the anchor's degree with caps[0] exactly, so an
    # entry with a layout must list its anchor as exact
    for e in builtin_catalog():
        assert e.exact <= set(range(len(e.rotations)))
        if e.layout is not None:
            assert 0 in e.exact


def test_layout_consistency():
    # only the low and hub entries leave the anchor's link unlaid, and only
    # the entries with a vertex outside that link carry a secondary hook
    cat = builtin_catalog()
    assert [e.name for e in cat if e.layout is None] == ["low", "hub"]
    for e in cat:
        if e.layout is not None:
            assert len(e.layout) == e.caps[0]
    hooked = {e.name: e.secondary for e in cat if e.secondary is not None}
    assert hooked == {
        "fan6-z2": (5, 1, 2, -1),
        "fan6-z3": (5, 1, 2, 1),
        "ring-m": (5, 1, 2, -1),
        "ring-x": (5, 1, 2, -1),
        "ring-y": (5, 1, 2, -1),
        "ring-p": (5, 1, 2, -1),
        "twin-1": (5, 4, 3, 1),
        "twin-2": (5, 4, 3, -1),
    }


def test_catalog_data_pinned():
    # everything derived from the rotation templates, as it was when it was
    # entered by hand beside them
    data = [
        (e.name, e.family, e.caps, sorted(e.edges), e.layout, e.secondary, sorted(e.exact))
        for e in builtin_catalog()
    ]
    assert hashlib.sha256(repr(data).encode()).hexdigest()[:16] == "3c4cdf479aa1bfe6"


def test_catalog_validate_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", "validate"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest[:16] == "84a5a2d44259ca3c"


def test_catalog_validate_reports_pinned():
    # every scenario's label, status and detail; re-pinned when low's scheme
    # became an empty trial, which moved only low's one scenario from
    # ("recolor", "ok", "degree cap 4") to ("all-blocked", "ok", "peel 0")
    reports = [
        (r.entry, [(s.label, s.status, s.detail) for s in r.scenarios])
        for r in map(validate_entry, builtin_catalog())
    ]
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest[:16] == "0139ed2ffea523cf"


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
    reports = tuple(validate_entry(e) for e in builtin_catalog())
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


def test_hub_edges_match_the_templates():
    # the hub rule the matcher and the replay share gives hub9, whose link is
    # laid like a hub's, the edges its rotation templates name
    hub9 = get_entry("hub9")
    assert hub_edges(hub9.layout) == hub9.edges


def test_validation_catches_bad_entry():
    # cap 6 on an isolated pattern vertex can never peel
    bad = ConfigurationSpec(
        name="bad",
        family="f2",
        exact=frozenset(),
        rotations=((("h", 6),), (("h", 6),)),
        scheme=TrialSequence((0,)),
    )
    with pytest.raises(ValidationFailure, match="stuck"):
        validate_entry(bad)


def test_hub_scenarios_catch_a_stuck_separator():
    # hub9 with leaf 5 raised to cap 6: with color 5 on the separator at
    # position 7, next to leaf 5, no other leaf can take the fifth color
    # and leave the rest peelable
    layout = get_entry("hub9").layout
    with pytest.raises(ValidationFailure) as info:
        _hub_scenarios("t", "x", (9, 5, 5, 5, 5, 6), layout)
    assert str(info.value) == "t: x separator@7: no leaf peels the rest"


def test_validation_rejects_an_unknown_scheme():
    bad = dataclasses.replace(get_entry("low"), scheme="greedy")
    with pytest.raises(ValidationFailure) as info:
        validate_entry(bad)
    assert str(info.value) == "low: scheme: unknown scheme 'greedy'"


def test_shape_check_catches_bad_template():
    # a spec is checked when it is built, so a bad one cannot exist
    ring = get_entry("ring-m").rotations
    assert ring[1] == (0, ("h", 1), 5, ("h", 3), 2)
    cases = {
        # 0 names 1, but 1 does not name 0
        "1 does not name 0": ((1, ("h", 4)), (("h", 5),)),
        "template of 0 names 7": ((7, ("h", 4)),),
        # ring-m with its outside vertex 5 three slots from the anchor
        "5 is not two slots": ring[:1] + ((0, ("h", 2), 5, ("h", 2), 2),) + ring[2:],
    }
    for match, rotations in cases.items():
        with pytest.raises(ValidationFailure, match=match) as info:
            ConfigurationSpec("bad", "f5", frozenset({0}), rotations, TrialSequence(()))
        assert info.value.scenario == "shape"


def test_scheme_types():
    assert get_entry("low").scheme == TrialSequence(())
    assert isinstance(get_entry("hub").scheme, VirtualHub)
    assert HUB_DEGREES == (8, 9, 10)
    assert get_entry("hub").degrees == frozenset(HUB_DEGREES)
    assert isinstance(get_entry("hub9").scheme, NinePattern)
    assert get_entry("ring-y").scheme.order == (3, 2, 0)


def test_anchor_degrees_derived():
    # the anchor's cap is its degree where exact, a bound on it elsewhere
    assert get_entry("low").degrees == frozenset(range(5))
    assert get_entry("wheel-adjacent").degrees == {5}
    assert get_entry("hub9").degrees == {9}
    for e in builtin_catalog():
        if e.name != "hub":
            assert max(e.degrees) == e.caps[0]


def test_empty_trial_certifies_a_low_vertex_only():
    # with no candidate, only the all-blocked replay runs: one vertex peels
    # at cap 4 and sticks at cap 5
    (scenario,) = validate_entry(get_entry("low")).scenarios
    assert (scenario.label, scenario.status, scenario.detail) == ("all-blocked", "ok", "peel 0")
    five = ConfigurationSpec("five", "f1", frozenset(), ((("h", 5),),), TrialSequence(()))
    with pytest.raises(ValidationFailure, match="stuck with \\[0\\]"):
        validate_entry(five)
