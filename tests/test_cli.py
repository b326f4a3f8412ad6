"""End-to-end command behavior through main(argv)."""

import dataclasses
import hashlib
import importlib
import inspect
import io
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fivecolor
from fivecolor import cli
from fivecolor.cli import main
from fivecolor.instances import GenSpec, ParseError, generate, icosphere, named, read, write
from fivecolor.matching import CompletenessBreach
from fivecolor.reducer import RunStats, color_planar

from conftest import barrel

SRC = Path(fivecolor.__file__).resolve().parents[1]
CHECKOUT = SRC.parent


def graph_file(tmp_path, name):
    path = tmp_path / f"{name}.pg"
    with open(path, "w") as fh:
        write(named(name), fh)
    return str(path)


def test_generate_named_roundtrip(capsys):
    assert main(["generate", "--named", "k4"]) == 0
    g = read(capsys.readouterr().out)
    assert g == named("k4")


def test_generate_deterministic(capsys):
    assert main(["generate", "--seed", "9", "--n", "40"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--seed", "9", "--n", "40"]) == 0
    assert capsys.readouterr().out == first
    g = read(first)
    assert g.n == 40 and g.m == 3 * 40 - 6


def test_generate_shaped(capsys):
    assert main(["generate", "--seed", "3", "--n", "162", "--min-degree-5"]) == 0
    g = read(capsys.readouterr().out)
    assert min(g.degree(v) for v in g.vertices()) >= 5


def test_generate_needs_n(capsys):
    assert main(["generate", "--seed", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_color_icosahedron(tmp_path, capsys):
    path = graph_file(tmp_path, "icosahedron")
    assert main(["color", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 13
    colors = {}
    for line in out[:-1]:
        v, c = map(int, line.split())
        colors[v] = c
    assert set(colors) == set(range(12))
    assert all(1 <= c <= 5 for c in colors.values())
    fives = sum(1 for c in colors.values() if c == 5)
    assert out[-1] == f"n=12 v5={fives} bound=PASS"
    assert fives <= 2


def test_color_output_pinned(tmp_path, capsys):
    # every line `color` prints, byte for byte
    path = tmp_path / "g.pg"
    with open(path, "w") as fh:
        write(generate(GenSpec(1, 400, 800)), fh)
    assert main(["color", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\nn=400 v5=0 bound=PASS\n")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "0a40f49183df26d2"


def test_color_from_stdin_with_stats(monkeypatch, capsys):
    buf = io.StringIO()
    write(named("octahedron"), buf)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["color", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "n=6 v5=0 bound=PASS"
    assert "stats: f1=6" in captured.err


# the stats line's key for each RunStats field
STATS_KEYS = {
    "f1": "f1_steps",
    "occ": "occ_steps",
    "scans": "scans",
    "fifth": "fifth_assigned",
    "fallback": "fallback_peels",
    "swaps": "chain_swaps",
    "chain_verts": "chain_verts",
    "chain_max": "chain_max",
    "closed_diagonals": "closed_diagonals",
    "walk_darts": "walk_darts",
    "probes": "probes",
}


def test_color_stats_print_every_run_stats_field(tmp_path, capsys):
    # one key=value per field of RunStats, each the run's own count, so a
    # counter added to RunStats or dropped from it fails here until the
    # stats line follows
    g = barrel(4)  # scans, fills, swaps and spends fifths
    path = tmp_path / "barrel.pg"
    with open(path, "w") as fh:
        write(g, fh)
    assert main(["color", "--stats", str(path)]) == 0
    line = capsys.readouterr().err.strip()
    assert line.startswith("stats: ")
    printed = dict(item.split("=") for item in line.removeprefix("stats: ").split())
    assert list(printed) == list(STATS_KEYS)
    assert sorted(STATS_KEYS.values()) == sorted(f.name for f in dataclasses.fields(RunStats))
    stats = RunStats()
    color_planar(g, stats)
    occ = ",".join(f"{f}:{k}" for f, k in sorted(stats.occ_steps.items()))
    assert printed.pop("occ") == occ
    assert {key: int(value) for key, value in printed.items()} == {
        key: getattr(stats, name) for key, name in STATS_KEYS.items() if key != "occ"
    }


def test_verify_accepts_color_output(tmp_path, capsys):
    gpath = graph_file(tmp_path, "icosahedron")
    assert main(["color", gpath]) == 0
    coloring = capsys.readouterr().out
    cpath = tmp_path / "coloring.txt"
    cpath.write_text(coloring)
    assert main(["verify", gpath, str(cpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "verify=OK"


def test_verify_reads_the_coloring_from_stdin(tmp_path, monkeypatch, capsys):
    # the pipe `fivecolor color g.pg | fivecolor verify g.pg -`
    gpath = graph_file(tmp_path, "icosahedron")
    assert main(["color", gpath]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", gpath, "-"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify=OK"


def test_verify_rejects_a_malformed_line(tmp_path, monkeypatch, capsys):
    gpath = graph_file(tmp_path, "k4")
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2 3\n"))
    assert main(["verify", gpath]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 2: expected '<vertex> <color>'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # every vertex of k4 is colored properly; the extra lines name ids
        # the graph lacks
        ("0 1\n1 2\n2 3\n3 4\n99 1\n-5 2\n", "line 5: vertex 99 is not in the graph (ids 0..3)"),
        ("0 1\n1 2\n2 3\n3 4\n-5 2\n", "line 5: vertex -5 is not in the graph (ids 0..3)"),
        # a repeated id would silently keep its last color
        ("0 1\n1 2\n2 3\n3 4\n0 2\n", "line 5: vertex 0 is colored twice"),
    ],
)
def test_verify_rejects_ids_outside_the_graph_and_repeats(
    tmp_path, monkeypatch, capsys, text, message
):
    gpath = graph_file(tmp_path, "k4")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["verify", gpath]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_coloring_parse_errors_carry_the_line(tmp_path):
    cpath = tmp_path / "coloring.txt"
    for text, line_no in (("0 1\n1 2 3\n", 2), ("# c\n\n7 1\n", 3)):
        cpath.write_text(text)
        with pytest.raises(ParseError) as info:
            cli._read_coloring(str(cpath), 4)
        assert info.value.line_no == line_no


def test_verify_flags_conflicts(tmp_path, capsys):
    gpath = graph_file(tmp_path, "k4")
    cpath = tmp_path / "bad.txt"
    cpath.write_text("0 1\n1 1\n2 3\n3 4\n")
    assert main(["verify", gpath, str(cpath)]) == 1
    out = capsys.readouterr().out
    assert "edge 0-1 both 1" in out
    assert "verify=FAIL" in out


def test_verify_flags_uncolored(tmp_path, capsys):
    gpath = graph_file(tmp_path, "k4")
    cpath = tmp_path / "short.txt"
    cpath.write_text("0 1\n1 2\n2 3\n")
    assert main(["verify", gpath, str(cpath)]) == 1
    assert "vertex 3 uncolored" in capsys.readouterr().out


@pytest.mark.parametrize("color", [0, 6, 9, -1])
def test_verify_flags_a_color_out_of_range(tmp_path, capsys, color):
    gpath = graph_file(tmp_path, "k4")
    cpath = tmp_path / "odd.txt"
    cpath.write_text(f"0 1\n1 {color}\n2 3\n3 4\n")
    assert main(["verify", gpath, str(cpath)]) == 1
    out = capsys.readouterr().out
    assert f"vertex 1 has color {color}, not 1..5" in out
    assert "uncolored" not in out and "verify=FAIL" in out


def test_verify_flags_bound(tmp_path, capsys):
    # proper, but one of four vertices carries the fifth color
    gpath = graph_file(tmp_path, "k4")
    cpath = tmp_path / "heavy.txt"
    cpath.write_text("0 1\n1 2\n2 3\n3 5\n")
    assert main(["verify", gpath, str(cpath)]) == 1
    out = capsys.readouterr().out
    assert "bound=FAIL" in out and "verify=FAIL" in out


def test_match_icosahedron(tmp_path, capsys):
    path = graph_file(tmp_path, "icosahedron")
    assert main(["match", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "f2 wheel-adjacent anchor=0"
    assert lines[1] == "0:0 1:1 2:5 3:4 4:3 5:2"


def _shaped(seed):
    return generate(GenSpec(seed, 642, 1926, shape_min_degree_5=True))


@pytest.mark.parametrize(
    "g, expected",
    [
        (icosphere(2), ["f2 wheel-adjacent anchor=0", "0:0 1:42 2:44 3:52 4:59 5:66"]),
        (_shaped(1), ["f2 wheel-adjacent anchor=2", "0:2 1:367 2:301 3:277 4:266 5:265"]),
        (_shaped(2), ["f2 wheel-adjacent anchor=2", "0:2 1:265 2:367 3:301 4:277 5:266"]),
    ],
    ids=["icosphere-2", "shaped-1", "shaped-2"],
)
def test_match_output_pinned(tmp_path, capsys, g, expected):
    # the catalog's own order is the scan order, and must keep giving
    # these first occurrences
    path = tmp_path / "g.pg"
    with open(path, "w") as fh:
        write(g, fh)
    assert main(["match", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_color_stats_count_probes(monkeypatch, capsys):
    # a barrel scans once per segment and fills a hole before each later scan
    g = barrel(2)
    stats = RunStats()
    color_planar(g, stats)
    buf = io.StringIO()
    write(g, buf)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["color", "--stats"]) == 0
    err = capsys.readouterr().err
    assert stats.probes > 0 and stats.walk_darts > 0
    assert err.rstrip().endswith(f" walk_darts={stats.walk_darts} probes={stats.probes}")


def test_match_low_first(tmp_path, capsys):
    path = graph_file(tmp_path, "octahedron")
    assert main(["match", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "f1 low anchor=0"


def test_match_none_exit_code(tmp_path, capsys, monkeypatch):
    def breach(_):
        raise CompletenessBreach("forced")

    monkeypatch.setattr("fivecolor.cli.find_reducible", breach)
    path = graph_file(tmp_path, "icosahedron")
    assert main(["match", path]) == 3
    assert capsys.readouterr().out == "NONE\n"


def test_audit_icosahedron(tmp_path, capsys):
    path = graph_file(tmp_path, "icosahedron")
    assert main(["audit", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sum=12 ok"
    assert lines[1] == "0 1/1"
    assert len(lines) == 13


@pytest.mark.parametrize(
    "spec, digest",
    [
        (GenSpec(4, 162, 324, True), "1dc725bc8bb0bd6e"),
        (GenSpec(3, 400, 800), "7816a93a64283249"),
    ],
    ids=["shaped-162", "random-400"],
)
def test_audit_output_pinned(tmp_path, capsys, spec, digest):
    # every charge line of an instance with transfers, as printed
    path = tmp_path / "g.pg"
    with open(path, "w") as fh:
        write(generate(spec), fh)
    assert main(["audit", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_audit_inconsistency_exit_code(tmp_path, capsys, monkeypatch):
    def breach(_):
        raise CompletenessBreach("forced")

    monkeypatch.setattr("fivecolor.cli.find_reducible", breach)
    path = graph_file(tmp_path, "icosahedron")
    assert main(["audit", path]) == 4
    assert "inconsistent" in capsys.readouterr().out


def test_audit_min_degree_guard(tmp_path, capsys, monkeypatch):
    # a breach on a graph with a low vertex is not charged against the audit
    def breach(_):
        raise CompletenessBreach("forced")

    monkeypatch.setattr("fivecolor.cli.find_reducible", breach)
    path = graph_file(tmp_path, "octahedron")
    assert main(["audit", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sum=12 ok"


def test_catalog_validate(capsys):
    assert main(["catalog", "validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "catalog ok (18 entries)"
    assert len(lines) == 19
    assert all(" PASS " in line for line in lines[:-1])


def test_bench_reports_slope(capsys):
    assert main(["bench", "--sizes", "30,60", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("30 ") and lines[1].startswith("60 ")
    assert lines[2].startswith("slope=")


@pytest.mark.parametrize("tripwire", cli.TRIPWIRES)
def test_tripwire_exit_code(tmp_path, capsys, monkeypatch, tripwire):
    def boom(*_a, **_k):
        raise tripwire("forced")

    monkeypatch.setattr("fivecolor.cli.color_planar", boom)
    path = graph_file(tmp_path, "k4")
    assert main(["color", path]) == 2
    assert "tripwire:" in capsys.readouterr().err


def test_every_library_exception_has_an_exit_code():
    # main maps each one to exit 1 or 2, never to a traceback
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(fivecolor.__path__, "fivecolor.")
    ]
    defined = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, Exception)
    ]
    assert len(defined) >= 13
    for cls in defined:
        assert issubclass(cls, cli.TRIPWIRES + cli.INPUT_ERRORS), cls


def test_bad_usage_and_inputs(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["color", str(tmp_path / "missing.pg")]) == 1
    bad = tmp_path / "bad.pg"
    bad.write_text("pg two\n")
    assert main(["color", str(bad)]) == 1
    capsys.readouterr()
    # argument values the generator cannot build from: an error line, no traceback
    for argv in (
        ["generate", "--n", "2"],
        ["generate", "--min-degree-5", "--n", "60"],
        ["bench", "--sizes", "10,x"],
        # a best-of-0 time is inf, and one size twice leaves no slope to fit
        ["bench", "--sizes", "30,60", "--repeat", "0"],
        ["bench", "--sizes", "100,100"],
        # rejected before any size is timed or any flip is made
        ["bench", "--sizes", "5,0"],
        ["generate", "--n", "10", "--flips", "-3"],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "error:" in err
        assert out == ""


# The body of the wrapper that an installer writes for a [project.scripts] entry.
WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "fivecolor"
sys.exit({attr}())
"""


def check_script(cmd, env):
    """Run a `fivecolor` command line as its own process and check its exits."""
    run = subprocess.run(
        cmd + ["generate", "--named", "cube"], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert read(run.stdout) == named("cube")
    # Exit 0 alone would also pass a wrapper that dropped main's return value.
    run = subprocess.run(cmd + ["no-such-command"], capture_output=True, env=env)
    assert run.returncode == 1


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    pyproject = CHECKOUT / "pyproject.toml"
    assert pyproject.is_file(), f"fivecolor was not imported from a checkout: {SRC}"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = (part.strip() for part in scripts["fivecolor"].split(":"))
    wrapper = WRAPPER.format(module=module, attr=attr)
    check_script([sys.executable, "-c", wrapper], dict(os.environ, PYTHONPATH=str(SRC)))


def test_console_script_pip_install(tmp_path):
    pytest.importorskip("wheel")
    # Before pip: setuptools' distutils shim fails once pip has been imported.
    pytest.importorskip("setuptools", minversion="61")
    pytest.importorskip("pip")
    # Build from a copy, so that build/ and *.egg-info stay out of the checkout.
    copy = tmp_path / "checkout"
    shutil.copytree(
        SRC, copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(CHECKOUT / name, copy / name)
    site = tmp_path / "site"
    run = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--quiet", "--no-index",
         "--no-build-isolation", "--no-deps", "--no-cache-dir",
         "--disable-pip-version-check", "--target", str(site), str(copy)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    env = dict(os.environ, PYTHONPATH=str(site))
    check_script([str(site / "bin" / "fivecolor")], env)
