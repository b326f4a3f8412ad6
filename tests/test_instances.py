"""Named solids, pg/1 I/O, the seeded generator.

splitmix64 reference outputs were computed from the published algorithm
with an independent throwaway script and frozen here.
"""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from fivecolor.embedding import AsymmetricAdjacency, DuplicateNeighbor, LoopEdge
from fivecolor.instances import (
    GenSpec,
    ParseError,
    SplitMix64,
    UnknownName,
    generate,
    icosphere,
    named,
    read,
    write,
)

from conftest import trace_faces


# -- named solids ------------------------------------------------------------


def test_named_shapes():
    expected = {
        "k4": (4, 6, 3),
        "c4": (4, 4, 2),
        "cube": (8, 12, 3),
        "octahedron": (6, 12, 4),
        "icosahedron": (12, 30, 5),
    }
    for name, (n, m, deg) in expected.items():
        g = named(name)
        assert (g.n, g.m) == (n, m)
        assert all(g.degree(v) == deg for v in g.vertices())


def test_named_unknown():
    with pytest.raises(UnknownName):
        named("dodecahedron")


# -- pg/1 --------------------------------------------------------------------


def test_write_format(k4):
    buf = io.StringIO()
    write(k4, buf)
    assert buf.getvalue() == "pg 4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n"


def test_round_trip():
    for name in ("k4", "c4", "cube", "octahedron", "icosahedron"):
        g = named(name)
        buf = io.StringIO()
        write(g, buf)
        assert read(buf.getvalue()) == g


def test_read_comments_and_order():
    text = "# a comment\npg 3  # trailing\n2: 0 1\n0: 1 2\n1: 2 0\n"
    g = read(text)
    assert (g.n, g.m) == (3, 3)


def test_read_errors():
    cases = [
        ("", "header"),
        ("graph 3\n", "line 1"),
        ("pg x\n", "line 1"),
        ("pg -1\n", "line 1: negative vertex count -1"),
        ("x: 1\n", "line 1: expected 'pg <n>', got 'x: 1'"),
        ("pg 2\nx: 1\n", "line 2: bad vertex id 'x'"),
        ("pg 2\n0: 1\n", "missing"),
        ("pg 2\n0: 1\n0: 1\n", "twice"),
        ("pg 2\n0: 1\n5: 0\n", "range"),
        ("pg 0\n0: 1\n", "line 2: vertex id 0 given, but the graph has no vertices"),
        ("pg 2\n0: 1\n1 0\n", "line 3"),
        ("pg 2\n0: q\n1: 0\n", "neighbor"),
        # refused before any allocation: each vertex needs its own line
        ("pg 1000000000000000\n0: 1\n", "lines"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            read(text)


def test_read_error_line_numbers():
    with pytest.raises(ParseError) as info:
        read("# x\npg 2\n0: 1\n0: 1\n")
    assert info.value.line_no == 4


@pytest.mark.parametrize(
    "text, error, message",
    [
        # a token the id table lacks goes through int(); build names the id
        ("pg 2\n0: 1\n1: 0 5\n", AsymmetricAdjacency, "vertex 1 lists missing vertex 5"),
        ("pg 2\n0: 1 -1\n1: 0\n", AsymmetricAdjacency, "vertex 0 lists missing vertex -1"),
        ("pg 2\n0: 0\n1:\n", LoopEdge, "vertex 0 lists itself"),
        ("pg 2\n0: 1 +1\n1: 0\n", DuplicateNeighbor, "vertex 0 lists 1 twice"),
        ("pg 2\n0: 1\n1: 0 1e3\n", ParseError, "line 3: bad neighbor list '0 1e3'"),
    ],
    ids=["missing", "negative", "loop", "signed-twice", "not-decimal"],
)
def test_read_passes_bad_neighbor_ids_to_build(text, error, message):
    with pytest.raises(error) as info:
        read(text)
    assert str(info.value) == message


def pg1(g):
    buf = io.StringIO()
    write(g, buf)
    return buf.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
def test_read_shares_one_id_object_per_vertex(seed):
    g = generate(GenSpec(seed, 600, 1200))
    h = read(pg1(g))
    assert h == g
    # ids above 256 are not interned, so one int() per dart would make 2m
    assert len({id(w) for row in h.rotation for w in row}) == h.n


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(4, 300),
    rnd=st.randoms(use_true_random=False),
)
def test_read_accepts_odd_but_valid_tokens(seed, n, rnd):
    g = generate(GenSpec(seed, n, 2 * n))

    def token(v):
        return rnd.choice([str(v), f"+{v}", f"00{v}", f"+0{v}"])

    lines = []
    for v, row in enumerate(g.rotation):
        sep = rnd.choice([" ", "\t", " \t ", "  "])
        line = f"{token(v)}:{sep}{sep.join(map(token, row))}"
        lines.append(line + rnd.choice(["", "  # a comment", "\t#"]))
    rnd.shuffle(lines)
    for _ in range(rnd.randrange(4)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["# note", "", "\t"]))
    text = "\n".join([f"pg\t{n}  # header", *lines]) + "\n"
    assert read(text) == g == read(pg1(g))


# -- splitmix64 --------------------------------------------------------------


def test_splitmix64_reference_stream():
    r = SplitMix64(0)
    assert [r.next() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    r = SplitMix64(1234567)
    assert [r.next() for _ in range(4)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
        0x3FBEF740E9177B3F,
    ]
    r = SplitMix64((1 << 64) - 1)
    assert [r.next() for _ in range(2)] == [
        0xE4D971771B652C20,
        0xE99FF867DBF682C9,
    ]


def test_splitmix64_below():
    r = SplitMix64(42)
    assert [r.below(10) for _ in range(12)] == [3, 1, 8, 4, 0, 2, 5, 8, 5, 4, 7, 6]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_icosphere(k):
    g = icosphere(k)
    assert g.n == 10 * 4**k + 2
    assert min(g.degree(v) for v in g.vertices()) == 5
    assert all(len(f) == 3 for f in trace_faces(g))
    if k == 0:
        assert g == named("icosahedron")


# -- generator ---------------------------------------------------------------


def test_generate_deterministic():
    spec = GenSpec(seed=7, n=40, flips=60)
    assert generate(spec) == generate(spec)


def test_generate_is_triangulation():
    g = generate(GenSpec(seed=1, n=25, flips=30))
    assert g.n == 25
    assert g.m == 3 * 25 - 6
    assert all(len(f) == 3 for f in trace_faces(g))


def test_generate_seeds_differ():
    a = generate(GenSpec(seed=1, n=30, flips=40))
    b = generate(GenSpec(seed=2, n=30, flips=40))
    assert a != b


def test_generate_pinned():
    # the benchmark's random workload is built from generate(); any drift
    # in the default path changes these rotations
    grid = [
        generate(GenSpec(s, n, f)).rotation
        for s in range(4)
        for n in (4, 5, 12, 37, 100)
        for f in (0, n, 3 * n)
    ]
    assert hashlib.sha256(repr(grid).encode()).hexdigest()[:16] == "0f4f3f1e135cab22"


@pytest.mark.parametrize(
    "spec, digest",
    [
        (GenSpec(7, 2**16, 2**17), "0202b5a603004d55"),
        (GenSpec(3, 10242, 20484, shape_min_degree_5=True), "a357292a7ef76a84"),
    ],
    ids=["default", "shaped"],
)
def test_generate_pinned_large(spec, digest):
    # long flip runs on both paths: a flip loop that drifts only after many
    # flips, or only above degree floor 5, changes these rotations
    rotation = generate(spec).rotation
    assert hashlib.sha256(repr(rotation).encode()).hexdigest()[:16] == digest


def test_generate_too_small():
    with pytest.raises(ValueError):
        generate(GenSpec(seed=1, n=3, flips=0))


def test_generate_no_flips_has_degree_3():
    # pure face splits always leave the last split's vertex at degree 3
    g = generate(GenSpec(seed=5, n=20, flips=0))
    assert min(g.degree(v) for v in g.vertices()) == 3


def test_generate_shaped_min_degree():
    for n in (42, 162, 642, 2562):
        g = generate(GenSpec(seed=11, n=n, flips=n + n // 2, shape_min_degree_5=True))
        assert g.n == n
        assert min(g.degree(v) for v in g.vertices()) >= 5
        assert all(len(f) == 3 for f in trace_faces(g))
    # shaped instances are flipped icospheres, so no other size exists
    for n in (4, 11, 13, 60, 161, 163, 200, 2561):
        with pytest.raises(ValueError, match="icosphere"):
            generate(GenSpec(seed=11, n=n, flips=n, shape_min_degree_5=True))


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=4, max_value=60),
    flips=st.integers(min_value=0, max_value=80),
)
def test_generate_always_valid(seed, n, flips):
    # build() inside generate() re-checks Euler on every component
    g = generate(GenSpec(seed=seed, n=n, flips=flips))
    assert g.n == n
    assert g.m == 3 * n - 6
    faces = trace_faces(g)
    assert len(faces) == 2 * n - 4
    assert all(len(f) == 3 for f in faces)
