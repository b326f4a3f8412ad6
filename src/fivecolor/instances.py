"""Instance sources: named solids, a seeded generator, and pg/1 file I/O."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .embedding import EmbeddedGraph, build, from_faces


class UnknownName(KeyError):
    pass


class ParseError(ValueError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


# Rotation systems derived from explicit coordinates (outward-facing
# counterclockwise), checked against Euler's formula at module import via
# build().  The icosahedron is vertex 0 at one pole, 10 at the other.
_NAMED_ROTATIONS = {
    "k4": [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)],
    "c4": [(1, 3), (0, 2), (1, 3), (0, 2)],
    "octahedron": [
        (1, 2, 3, 4),
        (0, 4, 5, 2),
        (0, 1, 5, 3),
        (0, 2, 5, 4),
        (0, 3, 5, 1),
        (1, 4, 3, 2),
    ],
    "cube": [
        (1, 4, 3),
        (0, 2, 5),
        (1, 3, 6),
        (0, 7, 2),
        (0, 5, 7),
        (1, 6, 4),
        (2, 7, 5),
        (3, 4, 6),
    ],
    "icosahedron": [
        (1, 5, 4, 3, 2),
        (0, 2, 6, 11, 5),
        (0, 3, 7, 6, 1),
        (0, 4, 8, 7, 2),
        (0, 5, 9, 8, 3),
        (0, 1, 11, 9, 4),
        (1, 2, 7, 10, 11),
        (2, 3, 8, 10, 6),
        (3, 4, 9, 10, 7),
        (4, 5, 11, 10, 8),
        (6, 7, 8, 9, 11),
        (1, 6, 10, 9, 5),
    ],
}


def named(name):
    """A few canonical embeddings: k4, c4, cube, octahedron, icosahedron."""
    try:
        rot = _NAMED_ROTATIONS[name]
    except KeyError:
        raise UnknownName(name) from None
    return build(rot)


def icosphere(k):
    """The icosahedron with every face cut into four, k times over.

    Each round puts a new vertex on every edge, so n = 10 * 4**k + 2; the
    twelve original vertices keep degree 5 and every new one has degree 6.
    """
    rot = _NAMED_ROTATIONS["icosahedron"]
    # each face once, read at its smallest vertex, oriented as from_faces wants
    faces = [
        (v, row[i], row[(i + 1) % 5])
        for v, row in enumerate(rot)
        for i in range(5)
        if v < min(row[i], row[(i + 1) % 5])
    ]
    mids = {}  # an edge, once cut, never recurs, so one map serves every round

    def mid(a, b):
        return mids.setdefault((min(a, b), max(a, b)), 12 + len(mids))

    for _ in range(k):
        finer = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = finer
    return from_faces(12 + len(mids), faces)


# -- pg/1 format -------------------------------------------------------------
#
#   pg <n>
#   <v>: <u1> <u2> ... <uk>      one line per vertex, ccw rotation
#
# '#' starts a comment.  Ids are 0-based decimal.  Readers accept vertex
# lines in any order but every vertex in 0..n-1 must appear exactly once.


def read(stream):
    """Parse pg/1 from a file-like object (or a string) into an EmbeddedGraph."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()
    n = None
    rows = None
    filled = None
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if n is None:
            parts = text.split()
            if len(parts) != 2 or parts[0] != "pg":
                raise ParseError(f"expected 'pg <n>', got {text!r}", line_no)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            if n < 0:
                raise ParseError(f"negative vertex count {n}", line_no)
            if n > len(lines):
                # each vertex needs a line of its own; refuse before allocating
                raise ParseError(f"{n} vertices but {len(lines)} lines", line_no)
            rows = [None] * n
            filled = 0
            continue
        head, sep, tail = text.partition(":")
        if not sep:
            raise ParseError(f"expected '<v>: ...', got {text!r}", line_no)
        try:
            v = int(head)
        except ValueError:
            raise ParseError(f"bad vertex id {head.strip()!r}", line_no) from None
        if not 0 <= v < n:
            raise ParseError(f"vertex id {v} out of range 0..{n - 1}", line_no)
        if rows[v] is not None:
            raise ParseError(f"vertex {v} given twice", line_no)
        try:
            rows[v] = tuple(int(tok) for tok in tail.split())
        except ValueError:
            raise ParseError(f"bad neighbor list {tail.strip()!r}", line_no) from None
        filled += 1
    if n is None:
        raise ParseError("empty input, expected 'pg <n>' header")
    if filled != n:
        missing = next(v for v in range(n) if rows[v] is None)
        raise ParseError(f"vertex {missing} missing (got {filled} of {n} rows)")
    return build(rows)


def write(g, stream):
    """Emit pg/1, vertices in ascending id.

    The format has no syntax for id gaps, so graphs with deleted vertices
    are rejected.
    """
    if g.n != g.size:
        raise ValueError("pg/1 cannot represent graphs with deleted vertex ids")
    stream.write(f"pg {g.n}\n")
    for v in range(g.size):
        row = " ".join(str(w) for w in g.rotation[v])
        stream.write(f"{v}: {row}\n" if row else f"{v}:\n")


# -- seeded generation -------------------------------------------------------


_MASK = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic RNG (splitmix64), independent of interpreter state."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        # Plain modulo; the bias is irrelevant at test scales.
        return self.next() % n


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance."""

    seed: int
    n: int
    flips: int
    shape_min_degree_5: bool = False


class _Mesh:
    """Mutable triangulation under construction: rotations + face list."""

    def __init__(self):
        self.rows = [list(r) for r in _NAMED_ROTATIONS["k4"]]
        self.adj = [set(r) for r in self.rows]
        self.faces = [[0, 1, 2], [3, 1, 0], [0, 2, 3], [3, 2, 1]]

    def deg(self, v):
        return len(self.rows[v])

    def split_face(self, fi):
        """Put a new vertex inside face fi, joined to its three corners."""
        a, b, c = self.faces[fi]
        v = len(self.rows)
        self.rows.append([a, b, c])
        self.adj.append({a, b, c})
        # each corner gets v between its two face neighbors
        self.rows[a].insert(self.rows[a].index(c), v)
        self.rows[b].insert(self.rows[b].index(a), v)
        self.rows[c].insert(self.rows[c].index(b), v)
        for w in (a, b, c):
            self.adj[w].add(v)
        self.faces[fi] = [a, b, v]
        self.faces.append([b, c, v])
        self.faces.append([c, a, v])
        return v

    def flip_apexes(self, u, v):
        """The two triangle apexes across edge (u, v)."""
        ru, rv = self.rows[u], self.rows[v]
        x = rv[rv.index(u) - 1]
        y = ru[ru.index(v) - 1]
        return x, y

    def can_flip(self, u, v):
        x, y = self.flip_apexes(u, v)
        return (
            x != y
            and y not in self.adj[x]
            and len(self.rows[u]) >= 4
            and len(self.rows[v]) >= 4
        )

    def flip(self, u, v):
        """Replace edge (u, v) by the opposite diagonal (x, y) of its quad."""
        x, y = self.flip_apexes(u, v)
        self.rows[u].remove(v)
        self.rows[v].remove(u)
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.rows[x].insert(self.rows[x].index(v), y)
        self.rows[y].insert(self.rows[y].index(u), x)
        self.adj[x].add(y)
        self.adj[y].add(x)
        return x, y

    def edge_list(self):
        return [(u, w) for u in range(len(self.rows)) for w in self.rows[u] if u < w]


def _shape_min_degree(mesh, rng, n):
    """Try to flip away all vertices of degree < 5.

    Raising deg(v) by one means flipping an edge (u, w) opposite v in one of
    its triangles; the flip is only taken when it does not push u or w below
    degree 5.  Stalls are shaken with a few random flips.  Gives up after a
    budget and leaves the mesh valid but possibly unshaped.
    """
    budget = 40 * n + 400
    while budget > 0:
        low = [v for v in range(len(mesh.rows)) if mesh.deg(v) < 5]
        if not low:
            return True
        progress = False
        for v in low:
            if mesh.deg(v) >= 5:
                continue
            row = mesh.rows[v]
            for i in range(len(row)):
                u, w = row[i], row[(i + 1) % len(row)]
                budget -= 1
                if mesh.deg(u) <= 5 or mesh.deg(w) <= 5:
                    continue
                if not mesh.can_flip(u, w):
                    continue
                x, y = mesh.flip_apexes(u, w)
                if v not in (x, y):
                    continue
                mesh.flip(u, w)
                progress = True
                break
            if budget <= 0:
                break
        if not progress:
            # random shake, then rescan
            edges = mesh.edge_list()
            for _ in range(8):
                u, w = edges[rng.below(len(edges))]
                budget -= 1
                if w in mesh.adj[u] and mesh.can_flip(u, w):
                    mesh.flip(u, w)
                    edges = mesh.edge_list()
    return not any(mesh.deg(v) < 5 for v in range(len(mesh.rows)))


def generate(spec):
    """Deterministic random triangulation on spec.n vertices.

    Grows K4 by repeated face splits, then applies spec.flips random edge
    flips (illegal picks are skipped, not retried).  With
    shape_min_degree_5, follows up with flip passes that try to remove all
    vertices of degree < 5; failure to reach minimum degree 5 is a warning,
    not an error.
    """
    if spec.n < 4:
        raise ValueError("generated instances start from K4; need n >= 4")
    rng = SplitMix64(spec.seed)
    mesh = _Mesh()
    while len(mesh.rows) < spec.n:
        mesh.split_face(rng.below(len(mesh.faces)))
    # every flip removes exactly the picked edge and adds its opposite
    # diagonal, so replacing in place keeps `edges` exact
    edges = mesh.edge_list()
    for _ in range(spec.flips):
        k = rng.below(len(edges))
        u, w = edges[k]
        if mesh.can_flip(u, w):
            x, y = mesh.flip(u, w)
            edges[k] = (x, y) if x < y else (y, x)
    if spec.shape_min_degree_5:
        if not _shape_min_degree(mesh, rng, spec.n):
            warnings.warn(
                f"seed {spec.seed}: could not shape to minimum degree 5",
                stacklevel=2,
            )
    return build(mesh.rows)
