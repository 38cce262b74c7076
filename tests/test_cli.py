"""Command line behavior: exit codes and exact output."""

import gc
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import rackkit
from conftest import FIXTURES
from rackkit import (alexander, cli, constant_action, core,
                     format_rack_table, permutation_of_type)
from rackkit.cli import main

T5 = str(FIXTURES / "T5.rack")
Q6 = str(FIXTURES / "Q6.rack")
R6 = str(FIXTURES / "R6.rack")
EX2 = str(FIXTURES / "ex2.rack")
EX3 = str(FIXTURES / "ex3.rack")
MX6 = str(FIXTURES / "MX6.rack")
MY6 = str(FIXTURES / "MY6.rack")
D3 = str(FIXTURES / "dihedral3.rack")
TREFOIL = str(FIXTURES / "trefoil.link")
UNKNOT = str(FIXTURES / "unknot.link")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bad_rack(tmp_path):
    path = tmp_path / "bad.rack"
    path.write_text("2\n1 1\n1 1\n")
    return str(path)


def test_check_valid(capsys):
    code, out, err = run(capsys, "check", T5)
    assert code == 0
    assert out.splitlines() == [
        "is_rack: true",
        "is_quandle: false",
        "is_crossed_set: false",
        "is_abelian: false",
        "is_latin: false",
    ]
    assert err == ""


def test_check_invalid(capsys, bad_rack):
    code, out, err = run(capsys, "check", bad_rack)
    assert code == 1
    assert out.splitlines()[0] == "is_rack: false"
    assert any(line.startswith("violation: bijectivity") for line in out.splitlines())


def write_table(path, entries):
    n = len(entries)
    path.write_text(f"{n}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in entries))
    return str(path)


def test_check_of_a_random_n200_table_stays_small(capsys, tmp_path):
    rng = random.Random(20261018)
    n = 200
    entries = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
    path = write_table(tmp_path / "random200.rack", entries)
    # the first witnesses: repeated entries of column 1, in row order
    first = {}
    witnesses = []
    for x in range(1, n + 1):
        v = entries[x - 1][0]
        if v in first:
            witnesses.append((first[v], x, 1))
        first.setdefault(v, x)
    assert len(witnesses) >= 10

    start = time.perf_counter()
    code, out, err = run(capsys, "check", path)
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[0] == "is_rack: false" and len(lines) == 16
    assert lines[5:15] == [f"violation: bijectivity at {w}"
                           for w in witnesses[:10]]
    hidden = int(lines[15].removeprefix("violation: and ").removesuffix(" more"))
    # listing all n³ witnesses took 51 s and 1.9 GB on a 2-core VM; about
    # a second now, so the bound catches only a return to that
    assert elapsed < 5

    tracemalloc.start()
    try:
        code, out, err = run(capsys, "props", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.splitlines()[:16] == lines
    shown = "; ".join(f"bijectivity fails at {w}" for w in witnesses[:3])
    assert err.splitlines()[16] == (
        f"error: not a rack: {shown}; and {hidden + 7} more violations")
    assert peak < 100 * 2**20


def test_check_builds_only_the_witnesses_it_prints(capsys, tmp_path,
                                                    monkeypatch):
    built = []
    violation = core.AxiomViolation

    def counted(axiom, witness):
        built.append(witness)
        return violation(axiom, witness)

    monkeypatch.setattr(core, "AxiomViolation", counted)
    rng = random.Random(7)
    n = 30
    arbitrary = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
    columns = [rng.sample(range(1, n + 1), n) for _ in range(n)]
    bijective = [[columns[y][x] for y in range(n)] for x in range(n)]
    for name, entries in (("arbitrary", arbitrary), ("bijective", bijective)):
        path = write_table(tmp_path / f"{name}.rack", entries)
        for command in ("check", "props"):
            built.clear()
            code, out, err = run(capsys, command, path)
            assert code == 1
            assert f"{out}{err}".count("violation: ") == 11
            assert len(built) <= 10, (name, command)


def test_props(capsys):
    code, out, _ = run(capsys, "props", Q6)
    assert code == 0
    assert "is_crossed_set: true" in out.splitlines()
    assert "is_abelian: false" in out.splitlines()


def test_poly_default_convention(capsys):
    code, out, _ = run(capsys, "poly", EX3, "-m", "1", "-n", "1")
    assert code == 0
    assert out == "2*t + s^3*t\n"


def test_poly_literal_convention(capsys):
    code, out, _ = run(capsys, "poly", EX3, "--convention", "prop3")
    assert code == 0
    assert out == "2*s + s*t^3\n"


def test_poly_depth_error(capsys):
    code, out, err = run(capsys, "poly", EX3, "-m", "0")
    assert code == 1
    assert out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("argv", [
    ("poly", EX3, "-m", "2", "-n", "3"),
    ("iso", Q6, R6),
    ("scan", MX6, MY6, "--bound", "3"),
    ("scan", Q6, Q6),
    ("invariant", TREFOIL, T5),
])
def test_commands_on_racks_stop_at_the_axioms(capsys, monkeypatch, argv):
    # each table is checked against the axioms once, and no report is
    # built, since nothing prints a property flag; the agreeing scan of
    # Q6 with itself prints nothing
    analyzed, checked = record_validation(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err, analyzed) == (0, "", [])
    assert bool(out) == (argv[1:] != (Q6, Q6))
    assert len(checked) == len(set(map(id, checked))) >= 1


def test_poly_on_invalid_table_reports(capsys, bad_rack):
    code, out, err = run(capsys, "poly", bad_rack)
    assert code == 1
    assert out == ""
    assert "is_rack: false" in err
    assert "violation:" in err


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", EX3, "-m", "1", "-n", "1")
    assert code == 0
    assert out.splitlines() == ["1: c=1 r=0", "2: c=1 r=0", "3: c=1 r=3"]


def test_poly_and_profile_at_huge_depths(capsys):
    # T5's period is 2, so depth 10^9 reads the same counts as depth 2
    for command in ("poly", "profile"):
        small = run(capsys, command, T5, "-m", "2", "-n", "2")
        huge = run(capsys, command, T5, "-m", "1000000000", "-n", "1000000000")
        assert small[0] == 0
        assert huge == small


def test_subracks(capsys, tmp_path):
    code, out, _ = run(capsys, "subracks", T5)
    assert code == 0
    assert out.splitlines() == [
        "{1}", "{2}", "{3}", "{4,5}", "{1,2,3}",
        "{1,4,5}", "{2,4,5}", "{3,4,5}", "{1,2,3,4,5}"]
    # alexander(16, 1) is the trivial rack, every nonempty subset a
    # subrack: all 65,535 are listed, and under a 1 GiB address space the
    # listing, made whole before its first line is written, fits
    path = tmp_path / "triv16.rack"
    path.write_text(format_rack_table(alexander(16, 1)))
    code, out, _ = run(capsys, "subracks", str(path))
    assert (code, out.count("\n")) == (0, 65535)
    first, code, err = first_line_under_memory_limit("subracks", str(path))
    assert first == "{1}\n"
    assert code in (0, 2), err
    for sign in ("Traceback", "MemoryError", "Exception ignored"):
        assert sign not in err


def test_srp(capsys):
    code, out, _ = run(capsys, "srp", T5, "{4,5}", "-m", "1", "-n", "1")
    assert code == 0
    assert out == "2*s^3*t^3\n"


def test_srp_open_subset(capsys):
    code, _, err = run(capsys, "srp", T5, "{1,2}")
    assert code == 1
    assert "escapes" in err


@pytest.mark.parametrize("argv, message", [
    (("srp", T5, "{}"), "no elements in '{}'"),
    (("srp", T5, "{1,x}"), "non-integer element in '{1,x}'"),
    (("quotient", T5, "1,2"), "no blocks in '1,2'; write blocks as {1,2}{3}"),
    (("srp", T5, "{4," + "7" * 5000 + "}"),
     "element of 5000 digits is too long"),
    *((("quotient", T5, text), f"text outside the blocks in {text!r}; "
                               "write blocks as {1,2}{3}")
      for text in ("{1,2,3}{4,5}x", "x{1,2,3}{4,5}", "{1,2,3}{4,{5}}")),
])
def test_element_and_block_syntax_errors(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_gen_constant(capsys):
    code, out, _ = run(capsys, "gen", "constant", "3", "1", "2")
    assert code == 0
    assert out == "3\n3 3 3\n1 1 1\n2 2 2\n"


def record_validation(monkeypatch):
    """The tables that the report and the axiom pass run on, as they
    run: core._analyze and core._axiom_pass, recorded."""
    analyzed, checked = [], []
    analyze, check = core._analyze, core._axiom_pass
    monkeypatch.setattr(core, "_analyze",
                        lambda table: analyzed.append(table) or analyze(table))
    monkeypatch.setattr(core, "_axiom_pass", lambda table, *shown: (
        checked.append(table) or check(table, *shown)))
    return analyzed, checked


def test_gen_constant_builds_no_report(capsys, monkeypatch):
    analyzed, checked = record_validation(monkeypatch)
    images = [2, 3, 1, 5, 4, 6, 7]
    code, out, err = run(capsys, "gen", "constant", *map(str, images))
    assert (code, err, analyzed, checked) == (0, "", [], [])
    assert out == "7\n" + "".join(f"{v} {v} {v} {v} {v} {v} {v}\n"
                                  for v in images)


def test_gen_alexander(capsys):
    code, out, _ = run(capsys, "gen", "alexander", "3", "2")
    assert code == 0
    assert out == "3\n1 3 2\n3 2 1\n2 1 3\n"


def test_gen_alexander_non_unit(capsys):
    code, _, err = run(capsys, "gen", "alexander", "4", "2")
    assert code == 1
    assert "unit" in err


def test_gen_ts(capsys):
    code, out, _ = run(capsys, "gen", "ts", "4", "1", "2")
    assert code == 0
    assert out == "4\n1 3 1 3\n2 4 2 4\n3 1 3 1\n4 2 4 2\n"


@pytest.mark.parametrize("n, t", [(1, 0), (3, 2), (6, 5), (7, 3), (4, 2)])
def test_gen_alexander_is_gen_ts_with_s_one_minus_t(capsys, n, t):
    # one handler serves both; alexander leaves s to it, as 1 - t
    alexander = run(capsys, "gen", "alexander", str(n), str(t))
    assert alexander == run(capsys, "gen", "ts", str(n), str(t), str(1 - t))


GEN_HELP = {
    "gen": """usage: rackkit gen [-h] {constant,alexander,ts} ...

positional arguments:
  {constant,alexander,ts}
    constant            constant action rack from a permutation
    alexander           linear quandle on Z/n
    ts                  two-coefficient linear rack on Z/n

options:
  -h, --help            show this help message and exit
""",
    "alexander": """usage: rackkit gen alexander [-h] n t

positional arguments:
  n
  t

options:
  -h, --help  show this help message and exit
""",
    "ts": """usage: rackkit gen ts [-h] n t s

positional arguments:
  n
  t
  s

options:
  -h, --help  show this help message and exit
""",
}


@pytest.mark.parametrize("argv", [("gen",), ("gen", "alexander"),
                                  ("gen", "ts")])
def test_gen_help_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv, "--help") == (0, GEN_HELP[argv[-1]], "")


def test_dual(capsys):
    code, out, _ = run(capsys, "dual", EX2)
    assert code == 0
    assert out == "3\n2 2 2\n3 3 3\n1 1 1\n"


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", T5, "{1} {2} {3} {4,5}")
    assert code == 0
    assert out == "4\n1 3 2 1\n3 2 1 2\n2 1 3 3\n4 4 4 4\n"


def test_quotient_non_congruence(capsys):
    code, _, err = run(capsys, "quotient", T5, "{1,2} {3} {4} {5}")
    assert code == 1
    assert "not a congruence" in err


def test_opquot(capsys):
    code, out, _ = run(capsys, "opquot", T5)
    assert code == 0
    assert out.splitlines()[:2] == ["partition: {1} {2} {3} {4,5}", "quandle: true"]
    assert out.endswith("4\n1 3 2 1\n3 2 1 2\n2 1 3 3\n4 4 4 4\n")


def test_iso_negative(capsys):
    code, out, _ = run(capsys, "iso", Q6, R6)
    assert code == 0
    assert out == "not isomorphic\n"


def test_iso_positive(capsys):
    code, out, _ = run(capsys, "iso", D3, D3)
    assert code == 0
    assert out == "isomorphic\nwitness: 1 2 3\n"


def test_scan_with_differences(capsys):
    code, out, _ = run(capsys, "scan", MX6, MY6, "--bound", "3")
    assert code == 0
    assert out.splitlines() == [
        "(2,1): 6*s^6 != 6",
        "(3,1): 6 != 6*s^6",
        "(1,2): 6*t^6 != 6",
        "(2,2): 6*s^6*t^6 != 6",
        "(3,2): 6*t^6 != 6*s^6",
        "(1,3): 6 != 6*t^6",
        "(2,3): 6*s^6 != 6*t^6",
        "(3,3): 6 != 6*s^6*t^6",
    ]


def test_scan_agreement_is_silent(capsys):
    code, out, _ = run(capsys, "scan", Q6, R6)
    assert code == 0
    assert out == ""


def first_line_under_memory_limit(*argv):
    """The first stdout line of rackkit in a child limited to a 1 GiB
    address space and killed after 60 s, which then sees its pipe closed;
    with its exit code and stderr."""
    import resource  # POSIX only, like preexec_fn

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(rackkit.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "rackkit", *argv],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, preexec_fn=limit_memory)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.wait()
    finally:
        watchdog.cancel()
        child.kill()
    return first, child.returncode, err


def test_scan_streams_a_hostile_bound_under_a_memory_limit():
    # 10^9 depths in each slot under a 1 GiB address space: the lines
    # stream as each depth is classified, and a reader that closes the
    # pipe after one line ends the child with a message, not a trace
    first, code, err = first_line_under_memory_limit(
        "scan", MX6, MY6, "--bound", "1000000000")
    assert first == "(2,1): 6*s^6 != 6\n"
    assert code in (0, 2), err
    for sign in ("Traceback", "MemoryError", "Exception ignored"):
        assert sign not in err


def test_scan_streams_past_a_period_of_223092870(tmp_path):
    # constant actions of the 9 primes up to 23 and of 2, 3, ..., 19, 22, 1:
    # the default bound is the period, 223,092,870 depths in each slot,
    # and no table of them is built, so under a 1 GiB address space the
    # first line comes out, where a depth→class table ran out of memory
    paths = []
    for name, cycle_type in (("D100", (2, 3, 5, 7, 11, 13, 17, 19, 23)),
                             ("E100", (2, 3, 5, 7, 11, 13, 17, 19, 22, 1))):
        path = tmp_path / f"{name}.rack"
        path.write_text(format_rack_table(
            constant_action(permutation_of_type(cycle_type))))
        paths.append(str(path))
    first, code, err = first_line_under_memory_limit("scan", *paths)
    assert first == "(1,1): 100 != 99*t + s^100*t\n"
    assert code in (0, 2), err
    for sign in ("Traceback", "MemoryError"):
        assert sign not in err


@pytest.mark.parametrize("argv, size", [
    (("alexander", "100001", "2"), "100001"),
    (("constant", *map(str, range(1, 20001))), "20000"),
], ids=["alexander-100001", "constant-20000"])
def test_gen_streams_a_huge_table_under_a_memory_limit(argv, size):
    # 10^10 and 4·10^8 entries: held whole, either table overruns 1 GiB,
    # while its rows, written as they come, need O(n) memory
    first, code, err = first_line_under_memory_limit("gen", *argv)
    assert first == f"{size}\n"
    assert code in (0, 1, 2), err
    for sign in ("Traceback", "MemoryError", "Exception ignored"):
        assert sign not in err


@pytest.mark.parametrize("error, message", [
    (MemoryError, "out of memory"),
    (RecursionError, "recursion too deep"),
])
def test_memory_and_recursion_errors_end_with_one_line(capsys, monkeypatch,
                                                        error, message):
    def exhaust(args):
        raise error()

    monkeypatch.setattr(cli, "_cmd_check", exhaust)
    assert run(capsys, "check", T5) == (1, "", f"error: {message}\n")


def test_classify_ca(capsys):
    code, out, _ = run(capsys, "classify-ca", "4")
    assert code == 0
    assert out.splitlines()[-1] == "consistent: true"


def test_invariant_modes(capsys):
    for mode, want in (
        ("sr", "20\n"),
        ("pr", "11 + 9*q1\n"),
        ("rpp",
         "2*z^{2*s^3*t^3} + 6*z^{3*s^3*t^3} + 3*z^{s^3*t^3}"
         " + 6*q1*z^{3*s^3*t^3} + 3*q1*z^{s^3*t^3}\n"),
        ("srpp", "2*z^{2*s^3*t^3} + 12*z^{3*s^3*t^3} + 6*z^{s^3*t^3}\n"),
    ):
        code, out, _ = run(capsys, "invariant", TREFOIL, T5, "--mode", mode)
        assert code == 0
        assert out == want


def test_invariant_default_mode_is_rpp(capsys):
    _, with_flag, _ = run(capsys, "invariant", UNKNOT, T5, "--mode", "rpp")
    _, default, _ = run(capsys, "invariant", UNKNOT, T5)
    assert default == with_flag
    assert default == "2*z^{2*s^3*t^3} + 3*z^{s^3*t^3} + 3*q1*z^{s^3*t^3}\n"


def test_invariant_depth_error_on_any_diagram(capsys, tmp_path):
    # depths are checked before the search, so a diagram with no arcs,
    # which has no image to take a polynomial of, is refused as well, and
    # in every mode, sr and pr included, though they read no depth
    empty = tmp_path / "empty.link"
    empty.write_text('{"crossings": []}')
    for diagram in (TREFOIL, str(empty)):
        for mode in ("sr", "pr", "srpp", "rpp"):
            assert run(capsys, "invariant", diagram, T5, "--mode", mode,
                       "-m", "0", "-n", "-5") == (
                1, "", "error: depths must be at least 1, got (0, -5)\n")
    assert run(capsys, "invariant", str(empty), T5) == (0, "z^{0}\n", "")


def test_missing_file(capsys):
    code, _, err = run(capsys, "poly", "no_such_file.rack")
    assert code == 2
    assert err.startswith("error:")


def run_process(*argv):
    """rackkit in a fresh interpreter, so an escaping error would print
    its traceback."""
    src = str(Path(rackkit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "rackkit", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def hostile(name, data):
    """A case of test_errors_exit_with_a_message: the path of a file of
    data in the test's directory."""
    return lambda tmp: write_bytes(tmp / name, data)


EMPTY = hostile("empty.rack", b"")
SHORT = hostile("short.rack", b"2\n1 1\n2\n")
BAD_LINKS = {
    "top-level-list": b"[]",
    "true-sign": b'{"crossings": [{"sign": true, "over": 1, '
                 b'"under_in": 1, "under_out": 1}]}',
    "true-free-arc": b'{"crossings": [], "free_arcs": [true]}',
    "unknown-over-arc": b'{"crossings": [{"sign": 1, "over": 9, '
                        b'"under_in": 1, "under_out": 1}]}',
    "5001-digit-free-arc": b'{"crossings": [], "free_arcs": [' + b"7" * 5001
                           + b"]}",
}


@pytest.mark.parametrize("argv, code", [
    pytest.param(lambda tmp: ("check", str(FIXTURES)), 2, id="directory"),
    pytest.param(lambda tmp: (
        "check", write_bytes(tmp / "bytes.rack", b"\xff\xfe")), 1,
        id="not-utf8"),
    pytest.param(lambda tmp: ("gen", "constant", "1", "1"), 1,
                 id="not-a-bijection"),
    pytest.param(lambda tmp: (
        "invariant", write_bytes(tmp / "deep.link", b"[" * 100000), T5), 1,
        id="deeply-nested-json"),
    # files
    pytest.param(lambda tmp: ("check", EMPTY(tmp)), 1, id="check-empty"),
    pytest.param(lambda tmp: ("check", hostile(
        "long.rack", b"2 " + b"7" * 5000 + b" 1 1 1\n")(tmp)), 1,
        id="check-5000-digits"),
    pytest.param(lambda tmp: ("check", SHORT(tmp)), 1, id="check-short"),
    pytest.param(lambda tmp: ("props", hostile(
        "bytes.rack", b"\xff\xfe")(tmp)), 1, id="props-not-utf8"),
    pytest.param(lambda tmp: ("iso", T5, EMPTY(tmp)), 1, id="iso-empty"),
    pytest.param(lambda tmp: ("opquot", SHORT(tmp)), 1, id="opquot-short"),
    pytest.param(lambda tmp: ("invariant", TREFOIL, T5, "--mode", "sr",
                              "-m", "0", "-n", "-5"), 1,
                 id="invariant-sr-depths"),
    # numbers
    *(pytest.param(lambda tmp, argv=argv: argv, 1,
                   id=" ".join("T5" if a == T5 else a for a in argv))
      for argv in [("gen", "alexander", "0", "1"),
                   ("gen", "alexander", "2", "0"), ("gen", "constant", "0"),
                   ("classify-ca", "0"),
                   ("classify-ca", "99999999999999999999"),
                   ("scan", T5, T5, "--bound", "0"), ("poly", T5, "-m", "0"),
                   ("profile", T5, "-m", "-1"),
                   ("srp", T5, "{99999999999999999999}"), ("srp", T5, "{}"),
                   ("quotient", T5, "{1}{1}")]),
    # diagrams
    *(pytest.param(lambda tmp, name=name, data=data: (
        "invariant", hostile(f"{name}.link", data)(tmp), T5), 1, id=name)
      for name, data in BAD_LINKS.items()),
])
def test_errors_exit_with_a_message(tmp_path, argv, code):
    done = run_process(*argv(tmp_path))
    assert done.returncode == code
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1  # one line
    assert "Traceback" not in done.stderr
    # a too long integer is named by its digit count, as in tables and
    # arguments, not by the interpreter's advice
    assert "set_int_max_str_digits" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("check", T5), ("invariant", TREFOIL, T5, "--mode", "pr")])
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, argv):
    path = tmp_path / "bom"
    path.write_bytes(b"\xef\xbb\xbf" + Path(argv[1]).read_bytes())
    plain = run(capsys, *argv)
    assert plain[0] == 0
    assert run(capsys, argv[0], str(path), *argv[2:]) == plain


def test_an_interrupt_ends_with_one_line_and_130(capsys, monkeypatch):
    # ^C in a long search: no traceback, and the shell's code for SIGINT
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted)
    try:
        code = cli.entry()
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped entry()")
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_decoding_error_names_the_file(tmp_path):
    bad = write_bytes(tmp_path / "bytes.rack", b"\xff\xfe")
    done = run_process("iso", T5, bad)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {bad}: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_first_bad_crossing_field_is_named_whatever_the_hash_seed(
        tmp_path, hash_seed):
    # every field is a string: the message names sign, the first field in
    # the order sign, over, under_in, under_out, under any hash seed
    path = tmp_path / "strings.link"
    path.write_text('{"crossings": [{"sign": "1", "over": "1", '
                    '"under_in": "1", "under_out": "1"}]}')
    src = str(Path(rackkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rackkit", "invariant", str(path), T5],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: crossing 0: sign must be an integer\n"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "gen")[0] == 2
    assert run(capsys, "invariant", TREFOIL, T5, "--mode", "xx")[0] == 2
    assert run(capsys, "poly", EX3, "--convention", "other")[0] == 2


@pytest.mark.parametrize("argv, name", [
    (("poly", T5, "-m"), "-m"), (("scan", T5, T5, "--bound"), "--bound"),
    (("classify-ca",), "size"), (("gen", "alexander"), "n"),
], ids=["poly -m", "scan --bound", "classify-ca size", "gen alexander n"])
def test_a_too_long_integer_argument_is_named_by_its_digit_count(
        capsys, monkeypatch, argv, name):
    # 5,000 digits are refused by their count, where echoing them wrote
    # over 5 kB; any other refusal keeps argparse's own message
    monkeypatch.setenv("COLUMNS", "80")
    more = ("2",) if argv[0] == "gen" else ()
    prog = "rackkit " + " ".join(argv[:2] if more else argv[:1])
    code, out, err = run(capsys, *argv, "7" * 5000, *more)
    *usage, last = err.splitlines()
    assert (code, out) == (2, "")
    assert last == (f"{prog}: error: argument {name}: integer of 5000 "
                    "digits is too long")
    assert len(err.encode()) < 300
    assert run(capsys, *argv, "x", *more) == (2, "", "\n".join(usage) + (
        f"\n{prog}: error: argument {name}: invalid int value: 'x'\n"))


# a process whose first argument names a subcommand builds that one's
# parser only; every other input builds the full one
COMMANDS = list(cli._commands())
PARSER_INPUTS = [
    *((name, "-h") for name in COMMANDS),
    ("gen", "constant", "-h"), ("gen", "alexander", "-h"), ("gen", "ts", "-h"),
    *((name,) for name in COMMANDS),
    ("srp", T5), ("gen", "alexander", "3"),
    ("check", T5, "extra"), ("iso", T5, T5, "extra", "more"),
    ("gen", "alexander", "3", "2", "extra"), ("gen", "constant", "x"),
    ("invariant", TREFOIL, T5, "--mode", "xx"),
    ("poly", EX3, "--convention", "other"),
    ("scan", MX6, MY6, "--convention", "other"), ("gen", "bogus"),
    (), ("-h",), ("bogus",), ("bogus", T5),
]


def subcommands(parser):
    return list(parser._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("argv", PARSER_INPUTS, ids=[
    " ".join(Path(arg).name for arg in argv) or "none"
    for argv in PARSER_INPUTS])
def test_one_subcommand_parser_prints_what_the_full_one_does(
        capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    build = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda first: built.append(build(first)) or built[-1])
    one = run(capsys, *argv)
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    assert [subcommands(parser) for parser in built] == [list(named)]
    monkeypatch.setattr(cli, "build_parser", lambda first: build())
    assert run(capsys, *argv) == one


def test_the_process_entry_freezes_the_collector_and_main_does_not(capsys):
    # the hook runs after the entry returns, as interpreter exit begins
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen:',\n"
            "                              gc.get_freeze_count() > 0))\n"
            "sys.argv = ['rackkit', 'check', sys.argv[1]]\n"
            "runpy.run_module('rackkit', run_name='__main__')\n")
    src = str(Path(rackkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, T5],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("is_latin: false\nfrozen: True\n")
    before = gc.get_freeze_count()
    assert run(capsys, "check", T5)[0] == 0
    assert gc.get_freeze_count() == before


# -- modules loaded per subcommand --------------------------------------------

# a subcommand's own modules come on top of these
CLI_BASE = {"rackkit", "rackkit.cli", "rackkit.core"}


def loaded_modules(*argv):
    """The rackkit modules of a fresh interpreter that ran ``rackkit argv``
    (with no argv, that only ran ``import rackkit``), and dataclasses and
    inspect if it loaded them: the package needs neither, and importing
    them is a large share of a short process's start-up."""
    src = str(Path(rackkit.__file__).resolve().parents[1])
    code = ("import sys\n"
            "if sys.argv[1:]:\n"
            "    from rackkit.cli import main\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "else:\n"
            "    import rackkit\n"
            "print(' '.join(m for m in sys.modules if m.startswith('rackkit')\n"
            "               or m in ('dataclasses', 'inspect')))\n")
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_import_rackkit_loads_no_submodule():
    assert loaded_modules() == {"rackkit"}


ISO_MODULES = {"rackkit.iso", "rackkit.poly", "rackkit.generators"}
SUBCOMMAND_MODULES = [
    (("check", T5), set()),
    (("props", Q6), set()),
    (("dual", EX2), set()),
    (("quotient", T5, "{1,2,3}{4,5}"), set()),
    (("opquot", R6), set()),
    (("gen", "alexander", "7", "3"), {"rackkit.generators"}),
    (("poly", EX3), {"rackkit.poly"}),
    (("profile", T5), {"rackkit.poly"}),
    (("subracks", T5), {"rackkit.poly"}),
    (("srp", T5, "{4,5}"), {"rackkit.poly"}),
    (("invariant", TREFOIL, T5), {"rackkit.links", "rackkit.poly"}),
    (("iso", T5, T5), ISO_MODULES),
    (("scan", T5, T5), ISO_MODULES),
    (("classify-ca", "3"), ISO_MODULES),
]


@pytest.mark.parametrize("argv, extra", SUBCOMMAND_MODULES,
                         ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_its_modules(argv, extra):
    assert loaded_modules(*argv) == CLI_BASE | extra


def test_check_loads_neither_pathlib_nor_typing_without_site():
    # -S leaves out site, which loads them first on some installations,
    # so only rackkit's own imports could load them here
    src = str(Path(rackkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "rackkit", "check",
         T5], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()}
    assert "rackkit.core" in imported
    assert not imported & {"pathlib", "typing"}

