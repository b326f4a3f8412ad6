"""Locating catalog configurations inside a triangulation.

The matchers read rotation rows directly: rows[v] is the cyclic link of v
and len(rows[v]) its degree.  Pass anything with a `rotation` attribute, or
a plain sequence of rows with None marking absent vertices.

Soundness leans on the input being triangulated: two vertices consecutive
in a link are taken to be adjacent without an explicit edge check.
Occurrence.recheck re-verifies a match without that shortcut.

Caps are matched exactly where the entry says so and as upper bounds
elsewhere.  Offsets cover the cyclic alignments of the anchor's link,
direction -1 the mirror images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import builtin_catalog
from .kempe import BrokenInvariant

_FAMILY_ORDER = ("f2", "f3", "f4", "f7", "f8", "f5", "f6")

# entry name -> (host pid, reference pid, walk sign) for the one pattern
# vertex that lives outside the anchor's link.  Stand in the host's link at
# the anchor's position and step twice: toward the reference neighbor for
# sign +1, away from it for sign -1.  The step widths are pinned by the
# triangles at the host, so the host's actual degree does not matter.
_SECONDARY = {
    "fan6-z2": (1, 2, -1),
    "fan6-z3": (1, 2, 1),
    "ring-m": (1, 2, -1),
    "ring-x": (1, 2, -1),
    "ring-y": (1, 2, -1),
    "ring-p": (1, 2, -1),
    "twin-1": (4, 3, 1),
    "twin-2": (4, 3, -1),
}


class CompletenessBreach(RuntimeError):
    """Exhaustive scan of the catalog found nothing to reduce."""


def _rows_view(tri):
    return tri.rotation if hasattr(tri, "rotation") else tri


@dataclass(frozen=True)
class Occurrence:
    """One concrete placement of a catalog entry.

    mapping sends pattern ids to graph vertices; edges is the realized
    pattern edge set in pattern ids (for parametric hubs it depends on
    where the separators fell, otherwise it equals entry.edges).
    """

    entry: object
    mapping: dict
    anchor: int
    offset: int = 0
    direction: int = 1
    edges: frozenset = frozenset()

    @property
    def vertices(self):
        return frozenset(self.mapping.values())

    def recheck(self, tri):
        """Re-verify this occurrence from scratch, edges included."""
        rows = _rows_view(tri)
        n = len(rows)
        for v in self.mapping.values():
            if not (0 <= v < n) or rows[v] is None:
                return False
        again = match_at(tri, self.entry, self.anchor, self.offset, self.direction)
        if again is None or again.mapping != self.mapping:
            return False
        vals = list(self.mapping.values())
        if len(set(vals)) != len(vals):
            return False
        for a, b in self.edges:
            if self.mapping[b] not in rows[self.mapping[a]]:
                return False
        return True


def _fits(rows, w, cap, exact):
    d = len(rows[w])
    return d == cap if exact else d <= cap


def _match_layout(rows, entry, anchor, offset, direction):
    link = rows[anchor]
    d = len(link)
    if d != entry.caps[entry.anchor]:
        return None
    mapping = {entry.anchor: anchor}
    for i, pid in enumerate(entry.layout):
        if pid is None:
            continue
        w = link[(offset + direction * i) % d]
        if not _fits(rows, w, entry.caps[pid], pid in entry.exact):
            return None
        mapping[pid] = w
    hook = _SECONDARY.get(entry.name)
    if hook is not None:
        host_pid, ref_pid, sign = hook
        lh = rows[mapping[host_pid]]
        dh = len(lh)
        pa = lh.index(anchor)
        ref = mapping[ref_pid]
        if lh[(pa + 1) % dh] == ref:
            side = 1
        elif lh[(pa - 1) % dh] == ref:
            side = -1
        else:
            return None
        z = lh[(pa + sign * 2 * side) % dh]
        if z in mapping.values():
            return None
        if not _fits(rows, z, entry.caps[5], 5 in entry.exact):
            return None
        mapping[5] = z
    if len(mapping) != len(entry.caps):
        raise BrokenInvariant(f"{entry.name}: match misses a pattern vertex")
    return Occurrence(entry, mapping, anchor, offset, direction, entry.edges)


def _match_hub(rows, entry, anchor, offset, direction):
    link = rows[anchor]
    d = len(link)
    if d not in entry.scheme.degrees:
        return None
    need = d - 3
    placed = []
    leaves = []
    for i in range(d):
        w = link[(offset + direction * i) % d]
        if len(leaves) < need and len(rows[w]) <= 5:
            leaves.append(w)
            placed.append(len(leaves))
        else:
            placed.append(None)
    if len(leaves) != need:
        return None
    mapping = {0: anchor}
    mapping.update(enumerate(leaves, start=1))
    edges = {(0, k) for k in range(1, need + 1)}
    for p in range(d):
        a, b = placed[p], placed[(p + 1) % d]
        if a is not None and b is not None:
            edges.add((min(a, b), max(a, b)))
    return Occurrence(entry, mapping, anchor, offset, direction, frozenset(edges))


def match_at(tri, entry, anchor, offset=0, direction=1):
    """Try to place `entry` with its anchor at the given vertex.

    offset rotates the anchor's link before the pattern layout is laid on
    it; direction -1 reads the link backwards.  Returns an Occurrence or
    None.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    rows = _rows_view(tri)
    if not (0 <= anchor < len(rows)) or rows[anchor] is None:
        return None
    if entry.family == "f1":
        if len(rows[anchor]) > entry.caps[0]:
            return None
        return Occurrence(entry, {0: anchor}, anchor, offset, direction, frozenset())
    if entry.family == "f7":
        return _match_hub(rows, entry, anchor, offset, direction)
    return _match_layout(rows, entry, anchor, offset, direction)


def _wants(entry, d):
    if entry.family == "f1":
        return d <= entry.caps[0]
    if entry.family == "f7":
        return d in entry.scheme.degrees
    return d == entry.caps[entry.anchor]


def find_reducible(tri, entries=None):
    """First occurrence of any entry, in fixed scan order.

    Low-degree vertices win outright; then each family in the order f2,
    f3, f4, f7, f8, f5, f6, each variant in catalog order, anchors
    ascending, offsets ascending, direction +1 before -1.  Raises
    CompletenessBreach when nothing matches.
    """
    rows = _rows_view(tri)
    if entries is None:
        entries = builtin_catalog()
    verts = [v for v in range(len(rows)) if rows[v] is not None]
    by_family = {}
    for e in entries:
        by_family.setdefault(e.family, []).append(e)
    for e in by_family.get("f1", ()):
        for v in verts:
            occ = match_at(tri, e, v)
            if occ is not None:
                return occ
    for fam in _FAMILY_ORDER:
        for e in by_family.get(fam, ()):
            probe_all = fam != "f7"  # hub alignment never changes the verdict
            for v in verts:
                d = len(rows[v])
                if not _wants(e, d):
                    continue
                for offset in range(d if probe_all else 1):
                    for direction in (1, -1) if probe_all else (1,):
                        occ = match_at(tri, e, v, offset, direction)
                        if occ is not None:
                            return occ
    degs = [len(rows[v]) for v in verts]
    raise CompletenessBreach(
        f"no configuration matches: {len(verts)} vertices, "
        f"minimum degree {min(degs) if degs else 0}"
    )
