"""Catalog structure and the certificate: choose_fifth on every blocked set.

Peel orders below were traced by hand against the greedy lowest-id rule
and frozen.
"""

import contextlib
import dataclasses
import hashlib
import io
from itertools import combinations

import pytest

from fivecolor.catalog import (
    HUB_DEGREES,
    ConfigurationSpec,
    TrialSequence,
    ValidationFailure,
    VirtualHub,
    builtin_catalog,
    choose_fifth,
    get_entry,
    greedy_peel,
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


def _halfedges(e, v):
    """caps[v] less v's pattern neighbors, as validate_entry counts a loose vertex."""
    return e.caps[v] - sum(v in edge for edge in e.edges)


def test_template_invariant():
    # a vertex's halfedges are the runs of its template
    for e in builtin_catalog():
        for v, template in enumerate(e.rotations):
            runs = sum(x[1] for x in template if isinstance(x, tuple))
            assert _halfedges(e, v) == runs


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


# Blocked sets checked per entry: every subset of the vertices with a
# halfedge, less the sets that block an anchor with a layout but neither
# pattern flank of any gap.  The hub sums its 260 layouts.
STATES = {
    "low": 2,
    "wheel-adjacent": 32,
    "wheel-separated": 32,
    "fan8-23": 56,
    "fan8-24": 44,
    "fan8-25": 56,
    "fan8-34": 46,
    "fan6-z1": 56,
    "fan6-z2": 64,
    "fan6-z3": 64,
    "hub": 38483,
    "hub9": 62,
    "ring-m": 40,
    "ring-x": 40,
    "ring-y": 40,
    "ring-p": 40,
    "twin-1": 40,
    "twin-2": 40,
}


@pytest.fixture(scope="module")
def states():
    return {e.name: validate_entry(e) for e in builtin_catalog()}


def cap_load(caps, edges, blocked=()):
    """The certificate's load: cap, less pattern neighbors gone, less a token if blocked."""

    def load(v, gone):
        gone_nbrs = sum(1 for a, b in edges if v in (a, b) and a + b - v in gone)
        return caps[v] - gone_nbrs - (v in blocked)

    return load


def choose(e, blocked=(), order=None):
    """choose_fifth on an entry's own pattern at cap loads, with `blocked` tokens."""
    order = e.scheme.order if order is None else order
    members = frozenset(range(len(e.caps)))
    load = cap_load(e.caps, e.edges, blocked)
    return choose_fifth(order, members, set(blocked).__contains__, load)


def spec(e, rotations=None, order=None):
    """A copy of entry e with other templates or another trial order."""
    scheme = e.scheme if order is None else TrialSequence(order)
    return ConfigurationSpec(e.name, e.family, e.exact, rotations or e.rotations, scheme)


def test_catalog_validate_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", "validate"]) == 0
    want = "".join(f"{name} PASS states={n}\n" for name, n in STATES.items())
    assert out.getvalue() == want + "catalog ok (18 entries)\n"


def test_catalog_validate_reports_pinned(states):
    # validate_entry reports how many blocked sets it checked
    assert states == STATES
    assert sum(STATES.values()) == 39237


# -- blocked peels ------------------------------------------------------------


def test_blocked_peel_wheel_hub_candidate():
    # rim 1, 2 and 3 blocked: the trial falls through to the hub
    e = get_entry("wheel-adjacent")
    assert choose(e, {1, 2, 3}) == (0, (3, 2, 4, 5, 1))


def test_blocked_peel_wheel_first_candidate():
    e = get_entry("wheel-adjacent")
    assert choose(e) == (1, (0, 5, 4, 3, 2))


def test_blocked_peel_stuck():
    caps = (9, 5, 5)
    edges = {(0, 1), (0, 2)}
    order, stuck = greedy_peel(range(3), set(), cap_load(caps, edges))
    assert order == ()
    assert stuck == {0, 1, 2}


def test_blocked_peel_tokens_relax():
    caps = (5,)
    assert greedy_peel([0], set(), cap_load(caps, set()))[1] == {0}
    assert greedy_peel([0], set(), cap_load(caps, set(), {0})) == ((0,), frozenset())


def test_choose_fifth_skips_blocked_and_tries_none_last():
    calls = []

    def blocked(v):
        calls.append(v)
        return v != 2

    # candidates are tested for blocking one at a time, only until one wins
    load = cap_load((4, 4, 4), set())
    assert choose_fifth([0, 1, 2, 0], {0, 1, 2}, blocked, load) == (2, (0, 1))
    assert calls == [0, 1, 2]
    # every candidate blocked: no fifth color, the whole set peels
    assert choose_fifth([0, 1], {0, 1, 2}, lambda v: True, load) == (None, (0, 1, 2))
    assert choose_fifth([0, 1], {0, 1, 2}, lambda v: True, cap_load((5, 4, 4), set())) is None


# -- validation --------------------------------------------------------------


def test_validate_all_entries(states):
    assert list(states) == EXPECTED_NAMES
    assert all(n > 0 for n in states.values())


def test_wheel_has_four_reachable_scenarios(states):
    # the hub's neighbors are all in the pattern, so it is never blocked
    # and "every trial vertex blocked" cannot happen: the blocked sets are
    # the subsets of the rim, and each of the four candidates wins on some
    for name in ("wheel-adjacent", "wheel-separated"):
        e = get_entry(name)
        assert _halfedges(e, 0) == 0
        assert states[name] == 2**5
        winners = {choose(e, b)[0] for k in range(6) for b in combinations(range(1, 6), k)}
        assert winners == set(e.scheme.order)


def test_trial_scenario_peels_frozen():
    # each candidate of wheel-adjacent with the ones before it blocked
    e = get_entry("wheel-adjacent")
    assert [choose(e, e.scheme.order[:i]) for i in range(4)] == [
        (1, (0, 5, 4, 3, 2)),
        (2, (0, 3, 4, 5, 1)),
        (3, (0, 2, 4, 5, 1)),
        (0, (3, 2, 4, 5, 1)),
    ]


def test_all_blocked_reachable_elsewhere():
    # off the wheels every trial vertex has a halfedge, so all of them can
    # be blocked at once (with every other such vertex, which blocks both
    # flanks of every gap); then no fifth color is spent and all of H peels
    for e in builtin_catalog():
        if not isinstance(e.scheme, TrialSequence) or e.family == "f2":
            continue
        loose = {v for v in range(len(e.caps)) if _halfedges(e, v)}
        assert set(e.scheme.order) <= loose, e.name
        fifth, peel = choose(e, loose)
        assert fifth is None and sorted(peel) == list(range(len(e.caps))), e.name


def test_hub_edges_match_the_templates():
    # the hub rule the matcher and the certificate share gives hub9, whose
    # link is laid like a hub's, the edges its rotation templates name
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
    # position 7, next to leaf 5, the hub and leaf 5 are blocked, and no
    # other leaf can take the fifth color and leave the rest peelable
    e = get_entry("hub9")
    assert e.rotations[5] == (0, 4, ("h", 3))
    with pytest.raises(ValidationFailure) as info:
        validate_entry(spec(e, e.rotations[:5] + ((0, 4, ("h", 4)),)))
    assert str(info.value) == (
        "hub9: templates: blocked [0, 5]: every candidate leaves the peel stuck"
    )


def test_blocking_the_hub_alone_is_why_the_gap_rule_exists():
    # a blocked hub sees a 5 on a separator, which blocks that separator's
    # flanks too; blocked alone, hub9's hub would leave no candidate
    e = get_entry("hub9")
    assert choose(e, {0}) is None
    assert choose(e, {0, 1}) is not None


@pytest.mark.parametrize("name, order", [("wheel-adjacent", (2, 3, 0)), ("fan8-23", (0, 2))])
def test_validation_catches_a_trial_without_its_first_candidate(name, order):
    e = get_entry(name)
    assert e.scheme.order[1:] == order
    with pytest.raises(ValidationFailure, match="blocked \\[\\]: every candidate"):
        validate_entry(spec(e, order=order))


@pytest.mark.parametrize(
    "name, v, w, rv, rw, stuck_on",
    [
        ("twin-1", 4, 5, (0, 3, ("h", 3)), (3, ("h", 5)), "[]"),
        ("fan6-z3", 1, 5, (0, ("h", 3), 2), (2, ("h", 6)), "[5]"),
    ],
)
def test_validation_catches_a_lost_template_edge(name, v, w, rv, rw, stuck_on):
    # the templates without the edge v-w still pass the shape check
    e = get_entry(name)
    rotations = list(e.rotations)
    rotations[v], rotations[w] = rv, rw
    lost = spec(e, tuple(rotations))
    assert lost.edges == e.edges - {(v, w)}
    with pytest.raises(ValidationFailure) as info:
        validate_entry(lost)
    assert str(info.value).startswith(f"{name}: templates: blocked {stuck_on}: ")


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
    assert get_entry("hub9").scheme == TrialSequence((0, 1, 2, 3, 4, 5))
    assert get_entry("ring-y").scheme.order == (3, 2, 0)


def test_anchor_degrees_derived():
    # the anchor's cap is its degree where exact, a bound on it elsewhere
    assert get_entry("low").degrees == frozenset(range(5))
    assert get_entry("wheel-adjacent").degrees == {5}
    assert get_entry("hub9").degrees == {9}
    for e in builtin_catalog():
        if e.name != "hub":
            assert max(e.degrees) == e.caps[0]


def test_empty_trial_certifies_a_low_vertex_only(states):
    # with no candidate, the empty and the full blocked set run: one vertex
    # peels at cap 4 and sticks at cap 5
    assert states["low"] == 2
    five = ConfigurationSpec("five", "f1", frozenset(), ((("h", 5),),), TrialSequence(()))
    with pytest.raises(ValidationFailure, match="five: templates: blocked \\[\\]: "):
        validate_entry(five)
