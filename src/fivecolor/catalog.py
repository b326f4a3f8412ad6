"""The built-in catalog of reducible local configurations.

Each entry describes a small pattern H that can appear around a vertex of a
triangulation: per-vertex degree caps, which caps are exact, the edges of H,
and a rotation template for every vertex.  Template items are neighbor ids
or ("h", k) for a run of k halfedges leaving the pattern; by construction
cap(v) = (H-degree of v) + (sum of the runs of v).

A scheme tells the reducer how to spend the fifth color on an occurrence:

* PlainZero: no fifth color at all (single low-degree vertex).
* TrialSequence(order): candidates for color 5, tried in order.
* VirtualHub: a high-degree hub whose link holds all low vertices except
  three separator slots; candidates are the hub and then the leaves.
* NinePattern: the degree-9 hub with leaf runs of 3 and 2.

validate_entry replays every way a scheme can unfold against worst-case
degree caps and checks that the rest of H always peels down to vertices
with at most 4 relevant neighbors, so the later recoloring pass cannot get
stuck.  Blocked candidates are modeled by a token: a neighbor outside H
that is known to carry color 5 (it blocked the candidate, and it relaxes
the peel by one).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class PlainZero:
    pass


@dataclass(frozen=True)
class TrialSequence:
    order: tuple


@dataclass(frozen=True)
class VirtualHub:
    degrees: tuple = (8, 9, 10)


@dataclass(frozen=True)
class NinePattern:
    pass


class ValidationFailure(Exception):
    def __init__(self, entry, scenario, message):
        super().__init__(f"{entry}: {scenario}: {message}")
        self.entry = entry
        self.scenario = scenario


@dataclass(frozen=True)
class ScenarioResult:
    label: str
    status: str  # "ok" or "unreachable"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entry: str
    scenarios: tuple

    @property
    def reachable(self):
        return sum(1 for s in self.scenarios if s.status == "ok")


@dataclass(frozen=True)
class ConfigurationSpec:
    name: str
    family: str
    caps: tuple
    exact: frozenset
    edges: frozenset
    rotations: tuple
    scheme: object
    anchor: int = 0
    layout: tuple = None

    def pattern_neighbors(self, v):
        return sorted(
            b if a == v else a for a, b in self.edges if v in (a, b)
        )

    def pattern_degree(self, v):
        return len(self.pattern_neighbors(v))

    def halfedges(self, v):
        return self.caps[v] - self.pattern_degree(v)


def _h(k):
    return ("h", k)


def _edges(*pairs):
    return frozenset(tuple(sorted(p)) for p in pairs)


def _spokes(center, others):
    return [(center, v) for v in others]


_WHEEL_EDGES = _edges(
    *_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)
)

# In scan order: find_reducible tries entries in the order it is given them,
# so this order (f1, f2, f3, f4, f7, f8, f5, f6) is the default one.
_CATALOG = (
    # Any vertex of degree <= 4 recolors for free after its neighbors.
    ConfigurationSpec(
        name="low",
        family="f1",
        caps=(4,),
        exact=frozenset(),
        edges=frozenset(),
        rotations=((_h(4),),),
        scheme=PlainZero(),
    ),
    # Degree-5 hub with full wheel; two rim cap patterns up to symmetry,
    # distinguished by whether the 7-cap rim vertex touches the 8-cap one.
    ConfigurationSpec(
        name="wheel-adjacent",
        family="f2",
        caps=(5, 8, 7, 6, 6, 6),
        exact=frozenset({0}),
        edges=_WHEEL_EDGES,
        rotations=(
            (1, 2, 3, 4, 5),
            (0, 5, _h(5), 2),
            (0, 1, _h(4), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(3), 5),
            (0, 4, _h(3), 1),
        ),
        scheme=TrialSequence((1, 2, 3, 0)),
        layout=(1, 2, 3, 4, 5),
    ),
    ConfigurationSpec(
        name="wheel-separated",
        family="f2",
        caps=(5, 8, 6, 7, 6, 6),
        exact=frozenset({0}),
        edges=_WHEEL_EDGES,
        rotations=(
            (1, 2, 3, 4, 5),
            (0, 5, _h(5), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(4), 4),
            (0, 3, _h(3), 5),
            (0, 4, _h(3), 1),
        ),
        scheme=TrialSequence((1, 3, 2, 0)),
        layout=(1, 2, 3, 4, 5),
    ),
    # Degree-7 anchor: an 8-cap link vertex flanked by two 5-caps, plus two
    # more 5-caps; variants by where the extra pair sits in the link.
    ConfigurationSpec(
        name="fan8-23",
        family="f3",
        caps=(7, 8, 5, 5, 5, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 4), (4, 5), (1, 3)
        ),
        rotations=(
            (1, 2, 4, 5, _h(2), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, _h(3), 1),
            (0, 2, _h(2), 5),
            (0, 4, _h(3)),
        ),
        scheme=TrialSequence((1, 0, 2)),
        layout=(1, 2, 4, 5, None, None, 3),
    ),
    ConfigurationSpec(
        name="fan8-24",
        family="f3",
        caps=(7, 8, 5, 5, 5, 5),
        exact=frozenset({0}),
        edges=_edges(*_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 4), (1, 3)),
        rotations=(
            (1, 2, 4, _h(1), 5, _h(1), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, _h(3), 1),
            (0, 2, _h(3)),
            (0, _h(4)),
        ),
        scheme=TrialSequence((1, 0, 2)),
        layout=(1, 2, 4, None, 5, None, 3),
    ),
    ConfigurationSpec(
        name="fan8-25",
        family="f3",
        caps=(7, 8, 5, 5, 5, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 4), (3, 5), (1, 3)
        ),
        rotations=(
            (1, 2, 4, _h(2), 5, 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, 5, _h(2), 1),
            (0, 2, _h(3)),
            (0, _h(3), 3),
        ),
        scheme=TrialSequence((1, 0, 2)),
        layout=(1, 2, 4, None, None, 5, 3),
    ),
    ConfigurationSpec(
        name="fan8-34",
        family="f3",
        caps=(7, 8, 5, 5, 5, 5),
        exact=frozenset({0}),
        edges=_edges(*_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (4, 5), (1, 3)),
        rotations=(
            (1, 2, _h(1), 4, 5, _h(1), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(3)),
            (0, _h(3), 1),
            (0, _h(3), 5),
            (0, 4, _h(3)),
        ),
        scheme=TrialSequence((1, 0, 4)),
        layout=(1, 2, None, 4, 5, None, 3),
    ),
    # Degree-7 anchor with four consecutive 5-caps and one helper z; the
    # helper either precedes the run in the link (z1) or hangs off the first
    # run vertex (z2 alone, z3 sharing an edge with the second).
    ConfigurationSpec(
        name="fan6-z1",
        family="f4",
        caps=(7, 5, 5, 5, 5, 7),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(2), 5),
            (0, 5, _h(2), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (0, _h(5), 1),
        ),
        scheme=TrialSequence((5, 0, 1)),
        layout=(1, 2, 3, 4, None, None, 5),
    ),
    ConfigurationSpec(
        name="fan6-z2",
        family="f4",
        caps=(7, 5, 5, 5, 5, 6),
        exact=frozenset({0, 1}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(3)),
            (0, _h(1), 5, _h(1), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (1, _h(5)),
        ),
        scheme=TrialSequence((5, 0, 1)),
        layout=(1, 2, 3, 4, None, None, None),
    ),
    ConfigurationSpec(
        name="fan6-z3",
        family="f4",
        caps=(7, 5, 5, 5, 5, 7),
        exact=frozenset({0, 1}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(3)),
            (0, _h(2), 5, 2),
            (0, 1, 5, _h(1), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (2, 1, _h(5)),
        ),
        scheme=TrialSequence((5, 0, 1)),
        layout=(1, 2, 3, 4, None, None, None),
    ),
    # Parametric hub of degree d >= 8 whose link is all 5-caps except three
    # separator slots.  Concrete shape depends on d and the slot positions,
    # so the entry itself carries no fixed pattern; validation enumerates
    # d in scheme.degrees with every separator placement.
    ConfigurationSpec(
        name="hub",
        family="f7",
        caps=(),
        exact=frozenset(),
        edges=frozenset(),
        rotations=(),
        scheme=VirtualHub(),
    ),
    # Degree-9 hub with 5-cap leaves in runs of 3 and 2 (four separators).
    ConfigurationSpec(
        name="hub9",
        family="f8",
        caps=(9, 5, 5, 5, 5, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4, 5)), (1, 2), (2, 3), (4, 5)
        ),
        rotations=(
            (1, 2, 3, _h(2), 4, 5, _h(2)),
            (0, _h(3), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(3)),
            (0, _h(3), 5),
            (0, 4, _h(3)),
        ),
        scheme=NinePattern(),
        layout=(1, 2, 3, None, None, 4, 5, None, None),
    ),
    # Degree-5 anchor with four consecutive link vertices m, x, y, p (one of
    # them 7-cap, the rest 6-cap) and a second 5-cap B behind m.
    ConfigurationSpec(
        name="ring-m",
        family="f5",
        caps=(5, 7, 6, 6, 6, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(3), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((1, 2, 0)),
        layout=(1, 2, 3, 4, None),
    ),
    ConfigurationSpec(
        name="ring-x",
        family="f5",
        caps=(5, 6, 7, 6, 6, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(4), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((2, 1, 0)),
        layout=(1, 2, 3, 4, None),
    ),
    ConfigurationSpec(
        name="ring-y",
        family="f5",
        caps=(5, 6, 6, 7, 6, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(4), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((3, 2, 0)),
        layout=(1, 2, 3, 4, None),
    ),
    ConfigurationSpec(
        name="ring-p",
        family="f5",
        caps=(5, 6, 6, 6, 7, 5),
        exact=frozenset({0}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (1, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(5)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((4, 3, 0)),
        layout=(1, 2, 3, 4, None),
    ),
    # Two adjacent degree-5 vertices A and B with 6-cap company; q hangs off
    # B, either sharing an edge with o2 (twin-1) or not (twin-2).
    ConfigurationSpec(
        name="twin-1",
        family="f6",
        caps=(5, 6, 6, 6, 5, 6),
        exact=frozenset({0, 4}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(4), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(2), 5, 4),
            (0, 3, 5, _h(2)),
            (3, _h(4), 4),
        ),
        scheme=TrialSequence((5, 0)),
        layout=(1, 2, 3, 4, None),
    ),
    ConfigurationSpec(
        name="twin-2",
        family="f6",
        caps=(5, 6, 6, 6, 5, 6),
        exact=frozenset({0, 4}),
        edges=_edges(
            *_spokes(0, (1, 2, 3, 4)), (1, 2), (2, 3), (3, 4), (4, 5)
        ),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(4), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(1), 5, _h(1)),
            (4, _h(5)),
        ),
        scheme=TrialSequence((5, 0)),
        layout=(1, 2, 3, 4, None),
    ),
)

_BY_NAME = {e.name: e for e in _CATALOG}


def builtin_catalog():
    return _CATALOG


def get_entry(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None


def _check_entry(e):
    """Check a hand-entered entry against its own rotation templates."""

    def need(ok, what):
        if not ok:
            raise ValidationFailure(e.name, "shape", what)

    ids = range(len(e.caps))
    need(len(e.rotations) == len(e.caps), "one rotation template per vertex")
    for a, b in e.edges:
        need(a < b and a in ids and b in ids, f"bad edge {(a, b)}")
    if isinstance(e.scheme, TrialSequence):
        need(all(v in ids for v in e.scheme.order), "trial vertex out of range")
    for v in ids:
        run = 0
        members = []
        for item in e.rotations[v]:
            if isinstance(item, tuple):
                run += item[1]
            else:
                members.append(item)
        need(sorted(members) == e.pattern_neighbors(v), f"template of {v} vs edges")
        need(e.caps[v] == len(members) + run, f"cap of {v} vs its template")
    if e.layout is not None:
        k = len(e.layout)
        occupied = [v for v in e.layout if v is not None]
        need(len(occupied) == len(set(occupied)), "layout repeats a vertex")
        for v in occupied:
            need(tuple(sorted((e.anchor, v))) in e.edges, f"layout {v} off anchor")
        for i in range(k):
            a, b = e.layout[i], e.layout[(i + 1) % k]
            if a is not None and b is not None:
                need(tuple(sorted((a, b))) in e.edges, f"layout gap {a}-{b}")


for _e in _CATALOG:
    _check_entry(_e)
del _e


# -- replay validation -------------------------------------------------------


def greedy_peel(todo, gone, load):
    """Peel the lowest vertex of todo with load(v, gone) <= 4, until stuck.

    Each peeled vertex joins `gone` (updated in place), so later loads see
    it.  Returns (order, stuck): stuck is empty iff all of todo peeled.
    The reducer's select_fifth runs this same loop on the live graph.
    """
    todo = sorted(todo)
    order = []
    progress = True
    while progress:
        progress = False
        for v in todo:
            if load(v, gone) <= 4:
                order.append(v)
                gone.add(v)
                todo.remove(v)
                progress = True
                break
    return tuple(order), frozenset(todo)


def blocked_peel(caps, edges, deleted=(), blocked=None):
    """Greedy lowest-id peel of a capped pattern.

    A vertex may be peeled when its cap, minus pattern neighbors already
    deleted or peeled, minus its blocked tokens (known color-5 neighbors
    outside the pattern), is at most 4.  Returns (order, stuck): stuck is
    empty iff everything outside `deleted` peeled.
    """
    if not hasattr(caps, "keys"):
        caps = dict(enumerate(caps))
    blocked = blocked or {}
    nbrs = {v: [] for v in caps}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def load(v, gone):
        return caps[v] - sum(1 for w in nbrs[v] if w in gone) - blocked.get(v, 0)

    gone = set(deleted)
    return greedy_peel([v for v in caps if v not in gone], gone, load)


def _require_full_peel(entry_name, label, caps, edges, deleted, blocked):
    order, stuck = blocked_peel(caps, edges, deleted, blocked)
    if stuck:
        raise ValidationFailure(
            entry_name, label, f"peel stuck with {sorted(stuck)} remaining"
        )
    return order


def _validate_trial(e):
    trial = e.scheme.order
    results = []
    for i, cand in enumerate(trial):
        label = f"fifth={cand}"
        earlier = trial[:i]
        if any(e.halfedges(v) < 1 for v in earlier):
            results.append(
                ScenarioResult(label, "unreachable", "a blocked vertex has no halfedge")
            )
            continue
        blocked = {v: 1 for v in earlier}
        order = _require_full_peel(e.name, label, e.caps, e.edges, {cand}, blocked)
        results.append(ScenarioResult(label, "ok", "peel " + ",".join(map(str, order))))
    label = "all-blocked"
    if any(e.halfedges(v) < 1 for v in trial):
        results.append(
            ScenarioResult(label, "unreachable", "a trial vertex has no halfedge")
        )
    else:
        blocked = {v: 1 for v in trial}
        order = _require_full_peel(e.name, label, e.caps, e.edges, set(), blocked)
        results.append(ScenarioResult(label, "ok", "peel " + ",".join(map(str, order))))
    return results


def _hub_scenarios(entry_name, tag, caps, hub, layout):
    """Replay one hub pattern: layout maps link position -> leaf id or None."""
    d = len(layout)
    leaf_at = {p: v for p, v in enumerate(layout) if v is not None}
    leaves = sorted(leaf_at.values())
    edges = set()
    for v in leaves:
        edges.add(tuple(sorted((hub, v))))
    for p, v in leaf_at.items():
        w = layout[(p + 1) % d]
        if w is not None:
            edges.add(tuple(sorted((v, w))))
    edges = frozenset(edges)

    # the hub takes the fifth color
    _require_full_peel(entry_name, f"{tag} fifth=hub", caps, edges, {hub}, {})

    # a separator carries color 5: the hub and the separator's link-adjacent
    # leaves are blocked; some other leaf must take the fifth color
    for p in range(d):
        if layout[p] is not None:
            continue
        flanks = {
            leaf_at[q]
            for q in ((p - 1) % d, (p + 1) % d)
            if q in leaf_at
        }
        blocked = {hub: 1, **{v: 1 for v in flanks}}
        label = f"{tag} separator@{p}"
        for cand in leaves:
            if cand in flanks:
                continue
            _, stuck = blocked_peel(caps, edges, {cand}, blocked)
            if not stuck:
                break
        else:
            raise ValidationFailure(entry_name, label, "no leaf peels the rest")

    # every candidate blocked: no fifth vertex, the whole pattern peels
    blocked = {hub: 1, **{v: 1 for v in leaves}}
    _require_full_peel(entry_name, f"{tag} all-blocked", caps, edges, set(), blocked)


def _run_count(layout):
    """Number of maximal leaf runs in the cyclic layout."""
    d = len(layout)
    runs = sum(
        1
        for p in range(d)
        if layout[p] is not None and layout[(p - 1) % d] is None
    )
    return runs if runs else 1


def _validate_virtual_hub(e):
    results = []
    for d in e.scheme.degrees:
        by_runs = {}
        for seps in combinations(range(d), 3):
            layout = [None] * d
            nleaf = 0
            for p in range(d):
                if p not in seps:
                    nleaf += 1
                    layout[p] = nleaf
            caps = (d,) + (5,) * nleaf
            _hub_scenarios(e.name, f"d={d} sep={seps}", caps, 0, tuple(layout))
            runs = _run_count(layout)
            by_runs[runs] = by_runs.get(runs, 0) + 1
        detail = ", ".join(
            f"{by_runs[r]} with {r} leaf run{'s' if r > 1 else ''}"
            for r in sorted(by_runs)
        )
        results.append(ScenarioResult(f"d={d}", "ok", detail))
    return results


def _validate_nine(e):
    _hub_scenarios(e.name, "d=9", e.caps, e.anchor, e.layout)
    runs = _run_count(e.layout)
    return [ScenarioResult("d=9 fixed layout", "ok", f"{runs} leaf runs")]


def validate_entry(e):
    """Replay every scheme scenario for one entry.

    Returns a ValidationReport; raises ValidationFailure if any reachable
    scenario leaves part of the pattern unpeeled.
    """
    scheme = e.scheme
    if isinstance(scheme, PlainZero):
        if e.caps and max(e.caps) > 4:
            raise ValidationFailure(e.name, "cap", "needs every cap <= 4")
        results = [ScenarioResult("recolor", "ok", "degree cap 4")]
    elif isinstance(scheme, TrialSequence):
        results = _validate_trial(e)
    elif isinstance(scheme, VirtualHub):
        results = _validate_virtual_hub(e)
    elif isinstance(scheme, NinePattern):
        results = _validate_nine(e)
    else:
        raise ValidationFailure(e.name, "scheme", f"unknown scheme {scheme!r}")
    return ValidationReport(e.name, tuple(results))


def validate_catalog(entries=None):
    return tuple(validate_entry(e) for e in (entries or _CATALOG))
