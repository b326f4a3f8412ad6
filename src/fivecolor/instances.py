"""Instance sources: named solids, a seeded generator, and pg/1 file I/O."""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import build, from_faces


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
            rows[v] = tuple(map(int, tail.split()))
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
    """Emit pg/1: the header, then one line per vertex 0..n-1, in that order."""
    stream.write(f"pg {g.n}\n")
    for v in range(g.n):
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


def _grow_k4(rng, n):
    """K4 with random faces split until it has n vertices, as rotation lists."""
    rows = [list(r) for r in _NAMED_ROTATIONS["k4"]]
    faces = [[0, 1, 2], [3, 1, 0], [0, 2, 3], [3, 2, 1]]
    while len(rows) < n:
        fi = rng.below(len(faces))
        a, b, c = faces[fi]
        v = len(rows)
        rows.append([a, b, c])
        # each corner gets v between its two face neighbors
        rows[a].insert(rows[a].index(c), v)
        rows[b].insert(rows[b].index(a), v)
        rows[c].insert(rows[c].index(b), v)
        faces[fi] = [a, b, v]
        faces += [[b, c, v], [c, a, v]]
    return rows


def generate(spec):
    """Deterministic random triangulation on spec.n vertices.

    Starts from K4 grown by random face splits, then applies spec.flips
    random edge flips (illegal picks are skipped, not retried), keeping
    every degree at 3 or more.  With shape_min_degree_5 it starts instead
    from icosphere(k), which needs spec.n == 10 * 4**k + 2, and takes only
    flips that keep both ends at degree 5 or more, so minimum degree 5 holds
    throughout.
    """
    rng = SplitMix64(spec.seed)
    if spec.shape_min_degree_5:
        k = 0
        while 10 * 4**k + 2 < spec.n:
            k += 1
        if 10 * 4**k + 2 != spec.n:
            raise ValueError(
                f"min-degree-5 instances start from an icosphere; n = 10 * 4**k + 2,"
                f" not {spec.n}"
            )
        rows, floor = [list(r) for r in icosphere(k).rotation], 5
    else:
        if spec.n < 4:
            raise ValueError("generated instances start from K4; need n >= 4")
        rows, floor = _grow_k4(rng, spec.n), 3
    # every flip removes exactly the picked edge and adds its opposite
    # diagonal, so replacing in place keeps `edges` exact
    edges = [(u, w) for u, row in enumerate(rows) for w in row if u < w]
    for _ in range(spec.flips):
        i = rng.below(len(edges))
        u, w = edges[i]
        ru, rw = rows[u], rows[w]
        # x and y are the apexes of the two triangles on (u, w); a flip
        # replaces (u, w) by (x, y), legal when that keeps the graph simple
        # and both ends above the degree floor
        x = rw[rw.index(u) - 1]
        y = ru[ru.index(w) - 1]
        if x != y and y not in rows[x] and len(ru) > floor and len(rw) > floor:
            ru.remove(w)
            rw.remove(u)
            rows[x].insert(rows[x].index(w), y)
            rows[y].insert(rows[y].index(u), x)
            edges[i] = (x, y) if x < y else (y, x)
    return build(rows)
