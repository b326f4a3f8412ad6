"""The built-in catalog of reducible local configurations.

Each entry describes a small pattern H that can appear around a vertex of a
triangulation by one rotation template per vertex, the only hand-entered
statement of H; ConfigurationSpec derives its degree caps, edges, layout
and secondary hook from the templates.

A scheme tells the reducer how to spend the fifth color on an occurrence:

* TrialSequence(order): candidates for color 5, tried in order; with no
  candidates (the single low-degree vertex) it spends no 5 at all.
* VirtualHub: a hub of a degree in HUB_DEGREES whose link holds all low
  vertices except three separator slots; candidates are the hub and then
  the leaves.

choose_fifth is the reducer's candidate loop: skip a blocked candidate,
take the first whose removal lets the rest of H peel down to vertices with
at most 4 relevant neighbors, so the later recoloring pass cannot get
stuck, and try no fifth color last.  validate_entry runs that same loop
against worst-case degree caps for every blocked set that can occur: any
set of vertices with a halfedge, except that a blocked anchor comes with
both pattern flanks of some gap in its layout.  A blocked vertex carries a
token: a neighbor outside H that is known to carry color 5 (it blocks the
vertex, and it relaxes the peel by one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


@dataclass(frozen=True)
class TrialSequence:
    order: tuple


# The anchor degrees of the parametric hub, each certified by validate_entry.
HUB_DEGREES = (8, 9, 10)


@dataclass(frozen=True)
class VirtualHub:
    pass


class ValidationFailure(Exception):
    def __init__(self, entry, scenario, message):
        super().__init__(f"{entry}: {scenario}: {message}")
        self.entry = entry
        self.scenario = scenario


@dataclass(frozen=True)
class ConfigurationSpec:
    """A pattern H, stated once as rotation templates.

    Pattern vertices are 0 .. len(rotations) - 1, and vertex 0 is the
    anchor, the vertex a match is placed at.  rotations[v] is v's link in
    cyclic order, one slot per item: a pattern id, or ("h", k) for a run of
    k slots holding halfedges that leave H.  exact names the vertices whose
    cap is their degree rather than a bound on it.

    Construction checks the templates (a ValidationFailure with scenario
    "shape") and derives the rest of the pattern from them:

    * caps[v]: the slot count of v's template.
    * edges: the pairs (v, w), v < w, with w named in v's template.
    * layout: the anchor's template with its runs written out as Nones, or
      None when it names no pattern vertex.
    * secondary: (s, host, ref, sign) for the one pattern vertex s outside
      the anchor's link, or None.  host is a link vertex adjacent to s,
      one with an exact cap first, then the lowest id; ref is the link
      vertex next to the anchor in host's template.  There s sits two
      slots from the anchor: on ref's side for sign +1, on the other side
      for sign -1.
    * degrees: the anchor degrees a match can have, a frozenset:
      HUB_DEGREES for the VirtualHub (which has no templates), else
      {caps[0]} when the anchor's cap is exact and 0 .. caps[0] when not.
    """

    name: str
    family: str
    exact: frozenset
    rotations: tuple
    scheme: object
    caps: tuple = field(init=False)
    edges: frozenset = field(init=False)
    layout: tuple = field(init=False)
    secondary: tuple = field(init=False)
    degrees: frozenset = field(init=False)

    def __post_init__(self):
        slots = [_slots(t) for t in self.rotations]
        link = tuple(slots[0]) if slots else ()
        named = [(v, w) for v, row in enumerate(slots) for w in row if w is not None]
        edges = frozenset((min(p), max(p)) for p in named)
        object.__setattr__(self, "caps", tuple(map(len, slots)))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "layout", link if set(link) - {None} else None)
        _check_entry(self, slots)
        object.__setattr__(self, "secondary", _secondary(self, slots))
        if isinstance(self.scheme, VirtualHub):
            degrees = HUB_DEGREES
        else:
            cap = self.caps[0]
            degrees = {cap} if 0 in self.exact else range(cap + 1)
        object.__setattr__(self, "degrees", frozenset(degrees))


def _slots(template):
    """A rotation template with each run ("h", k) written out as k Nones."""
    out = []
    for item in template:
        out.extend([None] * item[1] if isinstance(item, tuple) else [item])
    return out


def _need(e, ok, what):
    if not ok:
        raise ValidationFailure(e.name, "shape", what)


def _check_entry(e, slots):
    """Check what the derivation cannot make true: see ConfigurationSpec."""
    ids = range(len(slots))
    for v, row in enumerate(slots):
        for w in row:
            if w is not None:
                _need(e, w in ids and w != v, f"template of {v} names {w!r}")
                _need(e, v in slots[w], f"{v} names {w}, but {w} does not name {v}")
    if isinstance(e.scheme, TrialSequence):
        _need(e, all(v in ids for v in e.scheme.order), "trial vertex out of range")
    if e.layout is not None:
        occupied = [v for v in e.layout if v is not None]
        _need(e, len(occupied) == len(set(occupied)), "layout repeats a vertex")
        for a, b in zip(e.layout, e.layout[1:] + e.layout[:1]):
            if a is not None and b is not None:
                _need(e, (min(a, b), max(a, b)) in e.edges, f"layout gap {a}-{b}")


def _secondary(e, slots):
    """The (s, host, ref, sign) hook of ConfigurationSpec, or None."""
    link = set(e.layout or ()) - {None}
    outside = [v for v in range(1, len(slots)) if v not in link]
    if e.layout is None or not outside:
        return None
    _need(e, len(outside) == 1, f"vertices {outside} all outside the anchor's link")
    s = outside[0]
    hosts = [w for w in slots[s] if w in link]
    _need(e, hosts, f"outside vertex {s} touches no link vertex")
    host = min(hosts, key=lambda w: (w not in e.exact, w))
    row = slots[host]
    k, a = len(row), row.index(0)
    side = next((t for t in (1, -1) if row[(a + t) % k] in link), None)
    _need(e, side is not None, f"no link vertex beside the anchor in {host}'s template")
    for sign in (1, -1):
        if row[(a + 2 * sign * side) % k] == s:
            return (s, host, row[(a + side) % k], sign)
    raise ValidationFailure(
        e.name, "shape", f"{s} is not two slots from the anchor in {host}'s template"
    )


def _h(k):
    return ("h", k)


# In scan order: find_reducible tries entries in the order it is given them,
# so this order (f1, f2, f3, f4, f7, f8, f5, f6) is the default one.
_CATALOG = (
    # Any vertex of degree <= 4 recolors for free after its neighbors.
    ConfigurationSpec(
        name="low",
        family="f1",
        exact=frozenset(),
        rotations=((_h(4),),),
        scheme=TrialSequence(()),
    ),
    # Degree-5 hub with full wheel; two rim cap patterns up to symmetry,
    # distinguished by whether the 7-cap rim vertex touches the 8-cap one.
    ConfigurationSpec(
        name="wheel-adjacent",
        family="f2",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, 5),
            (0, 5, _h(5), 2),
            (0, 1, _h(4), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(3), 5),
            (0, 4, _h(3), 1),
        ),
        scheme=TrialSequence((1, 2, 3, 0)),
    ),
    ConfigurationSpec(
        name="wheel-separated",
        family="f2",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, 5),
            (0, 5, _h(5), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(4), 4),
            (0, 3, _h(3), 5),
            (0, 4, _h(3), 1),
        ),
        scheme=TrialSequence((1, 3, 2, 0)),
    ),
    # Degree-7 anchor: an 8-cap link vertex flanked by two 5-caps, plus two
    # more 5-caps; variants by where the extra pair sits in the link.
    ConfigurationSpec(
        name="fan8-23",
        family="f3",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 4, 5, _h(2), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, _h(3), 1),
            (0, 2, _h(2), 5),
            (0, 4, _h(3)),
        ),
        scheme=TrialSequence((1, 0, 2)),
    ),
    ConfigurationSpec(
        name="fan8-24",
        family="f3",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 4, _h(1), 5, _h(1), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, _h(3), 1),
            (0, 2, _h(3)),
            (0, _h(4)),
        ),
        scheme=TrialSequence((1, 0, 2)),
    ),
    ConfigurationSpec(
        name="fan8-25",
        family="f3",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 4, _h(2), 5, 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(2), 4),
            (0, 5, _h(2), 1),
            (0, 2, _h(3)),
            (0, _h(3), 3),
        ),
        scheme=TrialSequence((1, 0, 2)),
    ),
    ConfigurationSpec(
        name="fan8-34",
        family="f3",
        exact=frozenset({0}),
        rotations=(
            (1, 2, _h(1), 4, 5, _h(1), 3),
            (0, 3, _h(5), 2),
            (0, 1, _h(3)),
            (0, _h(3), 1),
            (0, _h(3), 5),
            (0, 4, _h(3)),
        ),
        scheme=TrialSequence((1, 0, 4)),
    ),
    # Degree-7 anchor with four consecutive 5-caps and one helper z; the
    # helper either precedes the run in the link (z1) or hangs off the first
    # run vertex (z2 alone, z3 sharing an edge with the second).
    ConfigurationSpec(
        name="fan6-z1",
        family="f4",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, _h(2), 5),
            (0, 5, _h(2), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (0, _h(5), 1),
        ),
        scheme=TrialSequence((5, 0, 1)),
    ),
    ConfigurationSpec(
        name="fan6-z2",
        family="f4",
        exact=frozenset({0, 1}),
        rotations=(
            (1, 2, 3, 4, _h(3)),
            (0, _h(1), 5, _h(1), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (1, _h(5)),
        ),
        scheme=TrialSequence((5, 0, 1)),
    ),
    ConfigurationSpec(
        name="fan6-z3",
        family="f4",
        exact=frozenset({0, 1}),
        rotations=(
            (1, 2, 3, 4, _h(3)),
            (0, _h(2), 5, 2),
            (0, 1, 5, _h(1), 3),
            (0, 2, _h(2), 4),
            (0, 3, _h(3)),
            (2, 1, _h(5)),
        ),
        scheme=TrialSequence((5, 0, 1)),
    ),
    # Parametric hub of degree d >= 8 whose link is all 5-caps except three
    # separator slots.  Concrete shape depends on d and the slot positions,
    # so the entry itself carries no fixed pattern; validation enumerates
    # d in HUB_DEGREES with every separator placement.
    ConfigurationSpec(
        name="hub",
        family="f7",
        exact=frozenset(),
        rotations=(),
        scheme=VirtualHub(),
    ),
    # Degree-9 hub with 5-cap leaves in runs of 3 and 2 (four separators).
    ConfigurationSpec(
        name="hub9",
        family="f8",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, _h(2), 4, 5, _h(2)),
            (0, _h(3), 2),
            (0, 1, _h(2), 3),
            (0, 2, _h(3)),
            (0, _h(3), 5),
            (0, 4, _h(3)),
        ),
        scheme=TrialSequence((0, 1, 2, 3, 4, 5)),
    ),
    # Degree-5 anchor with four consecutive link vertices m, x, y, p (one of
    # them 7-cap, the rest 6-cap) and a second 5-cap B behind m.
    ConfigurationSpec(
        name="ring-m",
        family="f5",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(3), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((1, 2, 0)),
    ),
    ConfigurationSpec(
        name="ring-x",
        family="f5",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(4), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((2, 1, 0)),
    ),
    ConfigurationSpec(
        name="ring-y",
        family="f5",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(4), 4),
            (0, 3, _h(4)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((3, 2, 0)),
    ),
    ConfigurationSpec(
        name="ring-p",
        family="f5",
        exact=frozenset({0}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(1), 5, _h(2), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(5)),
            (1, _h(4)),
        ),
        scheme=TrialSequence((4, 3, 0)),
    ),
    # Two adjacent degree-5 vertices A and B with 6-cap company; q hangs off
    # B, either sharing an edge with o2 (twin-1) or not (twin-2).
    ConfigurationSpec(
        name="twin-1",
        family="f6",
        exact=frozenset({0, 4}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(4), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(2), 5, 4),
            (0, 3, 5, _h(2)),
            (3, _h(4), 4),
        ),
        scheme=TrialSequence((5, 0)),
    ),
    ConfigurationSpec(
        name="twin-2",
        family="f6",
        exact=frozenset({0, 4}),
        rotations=(
            (1, 2, 3, 4, _h(1)),
            (0, _h(4), 2),
            (0, 1, _h(3), 3),
            (0, 2, _h(3), 4),
            (0, 3, _h(1), 5, _h(1)),
            (4, _h(5)),
        ),
        scheme=TrialSequence((5, 0)),
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


# -- the certificate ---------------------------------------------------------


def greedy_peel(todo, gone, load):
    """Peel the lowest vertex of todo with load(v, gone) <= 4, until stuck.

    Each peeled vertex joins `gone` (updated in place), so later loads see
    it.  Returns (order, stuck): stuck is empty iff all of todo peeled.
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


def choose_fifth(cands, members, blocked, load):
    """The candidate loop that reducer.select_fifth and validate_entry run.

    Tries each candidate in order, skipping one for which blocked(cand) is
    true, and then None: the first whose removal lets the rest of the set
    `members` peel under greedy_peel with `load` wins.  Returns (candidate
    or None, peel order), or None when nothing peels.
    """
    for cand in [*cands, None]:
        if cand is not None and blocked(cand):
            continue
        gone = set() if cand is None else {cand}
        order, stuck = greedy_peel(members - gone, gone, load)
        if not stuck:
            return cand, order
    return None


def hub_edges(layout):
    """Spokes from hub 0 plus edges between leaves at neighboring positions.

    layout maps each position of the hub's link to a leaf id or None.
    """
    d = len(layout)
    edges = {(0, v) for v in layout if v is not None}
    for p, v in enumerate(layout):
        w = layout[(p + 1) % d]
        if v is not None and w is not None:
            edges.add((min(v, w), max(v, w)))
    return frozenset(edges)


def _patterns(e):
    """(label, caps, edges, layout) for each concrete pattern of an entry.

    An entry's own, from its templates; for the hub, one per degree d in
    HUB_DEGREES and triple of separator positions, leaves 1 .. d - 3 laid
    in link order.
    """
    if not isinstance(e.scheme, VirtualHub):
        yield "templates", e.caps, e.edges, e.layout
        return
    for d in HUB_DEGREES:
        for seps in combinations(range(d), 3):
            leaves = iter(range(1, d - 2))
            layout = tuple(None if p in seps else next(leaves) for p in range(d))
            yield f"d={d} sep={seps}", (d,) + (5,) * (d - 3), hub_edges(layout), layout


def validate_entry(e):
    """Run choose_fifth on every blocked set of every pattern of an entry.

    Loads are worst cases: a vertex's cap, less its pattern neighbors gone,
    less one token if it is blocked.  A blocked set is any set of vertices
    with a halfedge, under one geometric rule: the anchor's outside
    neighbors sit in the gaps (None slots) of its layout, and each gap
    vertex is adjacent to the link vertices on either side of it, so a set
    that holds the anchor is checked only if it also holds both pattern
    flanks of some gap.  The set the engine meets is one of these, with
    loads no higher (more tokens, lower degrees); lower loads only relax a
    peel, so the candidate that peels here, or an earlier one, peels there.
    Checking more sets than can occur is therefore still sound.

    Returns the number of blocked sets checked; raises ValidationFailure
    naming the pattern and the blocked set when that set leaves part of
    the pattern stuck.
    """
    scheme = e.scheme
    if not isinstance(scheme, (TrialSequence, VirtualHub)):
        raise ValidationFailure(e.name, "scheme", f"unknown scheme {scheme!r}")
    checked = 0
    for label, caps, edges, layout in _patterns(e):
        ids = range(len(caps))
        nbrs = [set() for _ in ids]
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        cands = scheme.order if isinstance(scheme, TrialSequence) else ids
        members = frozenset(ids)
        loose = [v for v in ids if caps[v] > len(nbrs[v])]
        flanks = [
            {layout[p - 1], layout[(p + 1) % len(layout)]} - {None}
            for p, v in enumerate(layout or ())
            if v is None
        ]
        for k in range(len(loose) + 1):
            for blocked in map(frozenset, combinations(loose, k)):
                if layout and 0 in blocked and not any(f <= blocked for f in flanks):
                    continue
                checked += 1

                def load(v, gone, blocked=blocked):
                    return caps[v] - len(gone & nbrs[v]) - (v in blocked)

                if choose_fifth(cands, members, blocked.__contains__, load) is None:
                    what = f"blocked {sorted(blocked)}: every candidate leaves the peel stuck"
                    raise ValidationFailure(e.name, label, what)
    return checked
