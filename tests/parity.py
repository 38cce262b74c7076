"""A seeded corpus of public results, one canonical line per result.

The corpus compares versions of the library, where ``oracles`` compares it
with brute force: a change that keeps every public result keeps each
section's SHA-256, which ``test_parity`` pins.  Each section is a
function in ``SECTIONS`` that yields the section's lines, so a new
section is one more function there and one more pinned digest.  A
change that alters a public result on purpose updates the pin and says
why.

Run as a script to print each section's digest, or the lines themselves
with ``--lines``, for every section or the ones named::

    PYTHONPATH=src python tests/parity.py [--lines] [section ...]
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from functools import reduce
from pathlib import Path

from conftest import (DIAGRAM_FAULTS, FIXTURES, LINK_NAMES, RACK_TABLES,
                      braid_closure, corrupt_diagram, diagram_json,
                      load_link, relabel, trivial_union)
from rackkit import (DiagramError, LinkDiagram, Permutation, RackError,
                     RackTable, alexander, column_order_lcm,
                     components_and_writhe, constant_action,
                     counting_polynomial_string, dual, enhanced_invariant,
                     enumerate_colorings, enumerate_subracks,
                     exponent_profile, isomorphic,
                     operator_equivalence_quotient, parse_diagram,
                     parse_rack_table,
                     permutation_of_type, rack_counting, rack_polynomial,
                     rack_rank, rp_family_scan, subrack_polynomial,
                     validate_rack, ts_rack,
                     verify_constant_action_classification)
from rackkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def constant(cycle_type):
    """The constant action of a permutation with consecutive cycles."""
    cycles, start = [], 1
    for length in cycle_type:
        cycles.append(range(start, start + length))
        start += length
    return constant_action(Permutation.from_cycles(start - 1, cycles))


def framed_racks():
    """(name, table): the fixtures, a prime Alexander quandle, constant
    actions and a trivial union of a quandle with a non-quandle block."""
    racks = [(name, RackTable(RACK_TABLES[name])) for name in sorted(RACK_TABLES)]
    racks.append(("alexander(7,3)", alexander(7, 3)))
    for cycle_type in ((2, 3), (1, 2, 2)):
        racks.append((f"constant{cycle_type}", constant(cycle_type)))
    blocks = (RACK_TABLES["dihedral3"], constant((1, 2)).entries)
    racks.append(("dihedral3|constant(1, 2)",
                  RackTable(reduce(trivial_union, blocks))))
    return racks


def framed_diagrams():
    """(name, diagram): the link fixtures, then 25 seeded closures of
    braids on 2-4 strands, each with at most four components once a free
    loop, added to every second closure, is counted."""
    diagrams = [(name, load_link(name)) for name in LINK_NAMES]
    rng = random.Random(31)
    while len(diagrams) < len(LINK_NAMES) + 25:
        strands = rng.randint(2, 4)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(1, 6)))
        diagram = braid_closure(strands, word)
        loops = len(diagrams) % 2
        if len(diagram.components) + loops > 4:
            continue
        if loops:
            diagram = LinkDiagram(diagram.crossings, diagram.free_arcs
                                  + (max(diagram.arcs) + 1,))
        diagrams.append((f"braid{strands}{word}+{loops}", diagram))
    return diagrams


def framed_lines():
    """Both framed invariants, their strings, and the full coloring list,
    for every diagram against every rack."""
    racks = framed_racks()
    for dname, diagram in framed_diagrams():
        for rname, table in racks:
            at = f"{dname} {rname}"
            total, per_class = rack_counting(diagram, table)
            yield (f"rack_counting {at}: {(total, per_class)!r} "
                   f"{counting_polynomial_string(per_class)}")
            for m, n, convention in ((1, 1, "def"), (2, 3, "prop3")):
                inv = enhanced_invariant(diagram, table, m, n, convention)
                yield (f"enhanced_invariant({m},{n},{convention}) {at}: "
                       f"{inv!r} {inv.enhanced_string()} "
                       f"{inv.enhanced_string(False)}")
            yield f"enumerate_colorings {at}: {enumerate_colorings(diagram, table)!r}"


def table_racks():
    """(name, table): the fixtures, every linear rack ts_rack(n, t, s)
    with n <= 12, constant actions and trivial unions, in that order."""
    racks = [(name, RackTable(RACK_TABLES[name])) for name in sorted(RACK_TABLES)]
    racks.extend((f"ts_rack{params}", ts_rack(*params)) for params in (
        (n, t, s) for n in range(1, 13) for t in range(n)
        if math.gcd(t, n) == 1 for s in range(n) if s * (1 - t - s) % n == 0))
    for cycle_type in ((1, 1, 1), (2, 3), (1, 2, 2), (4, 4), (1, 2, 3, 4)):
        racks.append((f"constant{cycle_type}", constant(cycle_type)))
    for names in (("dihedral3", "T5"), ("triv2", "Q6"), ("ex2", "ex3", "R6")):
        racks.append(("|".join(names), RackTable(reduce(
            trivial_union, (RACK_TABLES[name] for name in names)))))
    blocks = (alexander(5, 2).entries, constant((1, 2)).entries)
    racks.append(("alexander(5,2)|constant(1, 2)",
                  RackTable(reduce(trivial_union, blocks))))
    return racks


def subrack_lines():
    """Every subrack of every table rack, and the subrack polynomial of
    each at two depth pairs and both conventions."""
    for name, table in table_racks():
        subracks = enumerate_subracks(table)
        yield f"enumerate_subracks {name}: {subracks!r}"
        for subrack in subracks:
            polys = [subrack_polynomial(table, subrack, m, n, convention)
                     for m, n, convention in ((1, 1, "def"), (2, 3, "prop3"))]
            yield f"subrack_polynomial {name} {subrack}: {polys!r}"


def isomorphism_lines():
    """The isomorphism search's result for each table rack against a
    seeded relabelling of itself, then against the next table rack of
    its size, which is mostly not isomorphic to it."""
    rng = random.Random(32)
    racks = table_racks()
    for name, table in racks:
        images = rng.sample(range(1, table.n + 1), table.n)
        other = RackTable(relabel(table.entries, images))
        yield f"isomorphic {name} relabel{images}: {isomorphic(table, other)!r}"
    by_size = sorted(racks, key=lambda item: item[1].n)
    for (name, table), (other_name, other) in zip(by_size, by_size[1:]):
        if table.n == other.n:
            yield f"isomorphic {name} {other_name}: {isomorphic(table, other)!r}"


def random_non_racks():
    """(name, table): 20 seeded tables of 2-8 elements with uniform
    random entries, each failing some rack axiom."""
    rng = random.Random(33)
    tables = []
    while len(tables) < 20:
        n = rng.randint(2, 8)
        entries = tuple(tuple(rng.randint(1, n) for _ in range(n))
                        for _ in range(n))
        table = RackTable(entries)
        if not table.report.is_rack:
            tables.append((f"random{len(tables)}", table))
    return tables


# texts off parse_rack_table's one-lookup path, each read as it is and
# after a comment line: errors, signs and leading zeros
ODD_TEXTS = ("", "0\n", "-1\n", "2\n1 x\n2 2\n", "2\n1 1 2\n",
             "2\n1 3\n2 2\n", "2\n01 1\n2 2\n", "2\n+1 1\n2 2\n",
             "02\n1 1\n2 2\n", "1\n1 1\n")


def parsed(text):
    try:
        return repr(parse_rack_table(text))
    except RackError as exc:
        return f"{type(exc).__name__}: {exc}"


def table_lines():
    """Each table rack and random non-rack read back from its text, with
    and without a comment line first, and its report; for a rack, its
    polynomials, exponent profile, period, rank, dual and operator
    quotient.  Then the results of ODD_TEXTS."""
    for name, table in table_racks() + random_non_racks():
        text = table.to_text()
        yield (f"parse {name}: {parsed(text)} "
               f"{parsed('# comment' + chr(10) + text)}")
        report = validate_rack(table)
        yield f"validate_rack {name}: {report!r}"
        if not report.is_rack:
            continue
        polys = [rack_polynomial(table, m, n, convention) for m, n, convention
                 in ((1, 1, "def"), (2, 3, "prop3"), (6, 4, "def"))]
        yield f"rack_polynomial {name}: {polys!r} {[str(p) for p in polys]}"
        yield (f"exponent_profile {name}: {exponent_profile(table, 2, 3)!r} "
               f"{column_order_lcm(table)} {rack_rank(table)}")
        yield (f"dual {name}: {dual(table).entries!r} "
               f"{operator_equivalence_quotient(table)!r}")
    for text in ODD_TEXTS:
        yield f"parse {text!r}: {parsed(text)} {parsed('# c' + chr(10) + text)}"


def scan_lines():
    """The default scan of each table rack against the next of its size,
    and the first difference of the stop_at_first scan; then the
    constant-action classification up to six elements in both
    conventions."""
    by_size = sorted(table_racks(), key=lambda item: item[1].n)
    for (name, table), (other_name, other) in zip(by_size, by_size[1:]):
        if table.n != other.n:
            continue
        scan = rp_family_scan(table, other)
        lines = scan.lines()
        first = rp_family_scan(table, other, stop_at_first=True)
        yield (f"rp_family_scan {name} {other_name}: {scan.bound} "
               f"{scan.complete_bound} {len(scan.differences)} "
               f"{list(lines[:3])!r} {list(lines[-3:])!r} "
               f"{first.first_difference()!r}")
    for k in range(1, 7):
        for convention in ("def", "prop3"):
            report = verify_constant_action_classification(k, convention)
            yield f"classification {k} {convention}: {report.lines()!r}"


def scan_text(scan):
    """A scan's bound, completeness, length, first and last three lines
    and first difference."""
    lines = scan.lines()
    return (f"{scan.bound} {scan.complete_bound} {len(scan.differences)} "
            f"{list(lines[:3])!r} {list(lines[-3:])!r} "
            f"{scan.first_difference()!r}")


def unit_order(t, n):
    """The multiplicative order of the unit t modulo n."""
    order, power = 1, t % n
    while power != 1 % n:
        order, power = order + 1, power * t % n
    return order


def agreeing_pairs():
    """(name, a, b): each table rack against a seeded relabelling and
    against its dual, constant actions of one type in two cycle layouts,
    and alexander(n, t) against alexander(n, t') with t and t' of equal
    order for n <= 23; most pairs have equal polynomials everywhere."""
    rng = random.Random(35)
    pairs = []
    for name, table in table_racks():
        images = rng.sample(range(1, table.n + 1), table.n)
        pairs.append((f"{name} relabel{images}", table,
                      RackTable(relabel(table.entries, images))))
        pairs.append((f"{name} dual", table, dual(table)))
    for seed, cycle_type in enumerate(((1, 1, 1), (2, 3), (1, 2, 2), (4, 4),
                                       (1, 2, 3, 4), (2, 3, 5), (3, 4, 5),
                                       (1, 1, 2, 6), (2, 2, 3, 3))):
        pairs.append((f"constant{cycle_type} reversed", constant(cycle_type),
                      constant(cycle_type[::-1])))
        pairs.append((f"constant{cycle_type} shuffled{seed}",
                      constant(cycle_type), constant_action(
                          permutation_of_type(cycle_type, shuffle_seed=seed))))
    for n in range(2, 24):
        units = [t for t in range(2, n) if math.gcd(t, n) == 1]
        for i, t in enumerate(units):
            for t2 in units[i + 1:]:
                if unit_order(t, n) == unit_order(t2, n):
                    pairs.append((f"alexander({n},{t}) ({n},{t2})",
                                  alexander(n, t), alexander(n, t2)))
    return pairs


def agreeing_lines():
    """Every agreeing pair scanned in both conventions, at the default
    bound and at twice the period and one more, listing and stopping at
    the first difference; then each table rack's and random non-rack's
    report and witnesses, read after isomorphic and rack_polynomial have
    run on a fresh copy of it."""
    for name, a, b in agreeing_pairs():
        period = max(column_order_lcm(a), column_order_lcm(b))
        for convention in ("def", "prop3"):
            for bound in (None, 2 * period + 1):
                for stop in (False, True):
                    scan = rp_family_scan(a, b, bound, convention, stop)
                    yield (f"rp_family_scan {name} {convention} {bound} "
                           f"{stop}: {scan_text(scan)}")
    for name, table in table_racks() + random_non_racks():
        table = RackTable(table.entries)
        try:
            found = repr(isomorphic(table, table))
            poly = repr(rack_polynomial(table, 2, 3))
        except RackError as exc:
            found, poly = f"{type(exc).__name__}: {exc}", "-"
        yield (f"report {name}: {found} {poly} {table.report!r} "
               f"{table.report.axiom_violations!r}")


# a linear rack with more subracks than this has them listed but not each
# one's polynomial: (24, 1, 12) and (24, 13, 12) have 8,127 and 12,159
MANY_SUBRACKS = 1000


def linear_lines():
    """Each linear rack ts_rack(n, t, s) with 12 < n <= 25: its report,
    witnesses and rack polynomial; for s != 0 its subracks, and the
    subrack polynomial of each when there are at most MANY_SUBRACKS.  The
    constant actions x ▷ y = t·x (s = 0) have a subrack for every union of
    cycles of x ↦ t·x, up to 2^25 - 1 of them, so none are listed."""
    for params in ((n, t, s) for n in range(13, 26) for t in range(n)
                   if math.gcd(t, n) == 1 for s in range(n)
                   if s * (1 - t - s) % n == 0):
        table = ts_rack(*params)
        report = table.report
        yield (f"ts_rack{params}: {report!r} {report.axiom_violations!r} "
               f"{rack_polynomial(table, 1, 1)!r}")
        if params[2] == 0:
            continue
        subracks = enumerate_subracks(table)
        yield f"enumerate_subracks ts_rack{params}: {subracks!r}"
        if len(subracks) <= MANY_SUBRACKS:
            polys = [subrack_polynomial(table, s, 1, 1) for s in subracks]
            yield f"subrack_polynomial ts_rack{params}: {polys!r}"


def corrupted_tables():
    """(name, table): each table rack of two or more elements with one
    seeded entry changed, and with two seeded images swapped in the
    column of its last element, which stays a bijection."""
    rng = random.Random(36)
    tables = []
    for name, table in table_racks():
        n = table.n
        if n < 2:
            continue
        rows = [list(row) for row in table.entries]
        x, y = rng.randrange(n), rng.randrange(n)
        old = rows[x][y]
        rows[x][y] = rng.choice([v for v in range(1, n + 1) if v != old])
        tables.append((f"{name} entry({x + 1},{y + 1})={rows[x][y]}",
                       RackTable(rows)))
        rows = [list(row) for row in table.entries]
        a, b = rng.sample(range(n), 2)
        rows[a][-1], rows[b][-1] = rows[b][-1], rows[a][-1]
        tables.append((f"{name} swap({a + 1},{b + 1})", RackTable(rows)))
    return tables


def corrupted_lines():
    """Each corrupted table's report, every witness and, when it is not a
    rack, ``require_rack``'s message, read on a fresh copy."""
    for name, table in corrupted_tables():
        report = table.report
        try:
            RackTable(table.entries).require_rack()
            message = "-"
        except RackError as exc:
            message = f"{type(exc).__name__}: {exc}"
        yield (f"report {name}: {report!r} {report.axiom_violations!r} "
               f"{message}")


def cli_lines():
    """The command line cases of ``bench/reference.json``, each run in
    process through ``cli.main`` from the repository's root: the
    arguments, the exit code, stdout and stderr."""
    cases = json.loads((ROOT / "bench" / "reference.json").read_text())["cli"]
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(case["args"])
            yield (f"main {case['args']!r}: {code!r} {out.getvalue()!r} "
                   f"{err.getvalue()!r}")
    finally:
        os.chdir(cwd)


def diagram_texts():
    """(name, text): the link fixtures as their files read, 12 seeded
    closures of braids on 1-4 strands with 0-2 free loops, then every
    fault of ``conftest.DIAGRAM_FAULTS`` that fits, once in each.  Each
    corrupted text has one fault only, so its error does not depend on
    the order in which checks meet several."""
    texts = [(name, (FIXTURES / f"{name}.link").read_text())
             for name in LINK_NAMES]
    rng = random.Random(37)
    for k in range(12):
        strands = rng.randint(1, 4)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(1, 6) if strands > 1 else 0))
        obj = diagram_json(braid_closure(strands, word))
        loops = k % 3
        top = max([a for cr in obj["crossings"] for a in cr.values()]
                  + obj["free_arcs"])
        obj["free_arcs"] += range(top + 1, top + 1 + loops)
        texts.append((f"braid{strands}{word}+{loops}", json.dumps(obj)))
    corrupted = []
    for name, text in texts:
        for fault in DIAGRAM_FAULTS:
            bad = corrupt_diagram(json.loads(text), fault, rng)
            if bad is not None:
                corrupted.append((f"{name} {fault}", json.dumps(bad)))
    return texts + corrupted


def diagram_lines():
    """Each text's parsed diagram, its components and
    ``components_and_writhe``, or the class and message of its error."""
    for name, text in diagram_texts():
        try:
            diagram = parse_diagram(text)
        except DiagramError as exc:
            yield f"parse_diagram {name}: {type(exc).__name__}: {exc}"
            continue
        yield (f"parse_diagram {name}: {diagram!r} {diagram.components!r} "
               f"{components_and_writhe(diagram)!r}")


SECTIONS = {"framed": framed_lines, "subracks": subrack_lines,
            "isomorphism": isomorphism_lines, "tables": table_lines,
            "scans": scan_lines, "agreeing": agreeing_lines,
            "linear": linear_lines, "corrupted": corrupted_lines,
            "cli": cli_lines, "diagrams": diagram_lines}


def lines(name):
    for line in SECTIONS[name]():
        yield f"{name}\t{line}\n"


def digest(name):
    """The SHA-256 of every line of one section, in order."""
    h = hashlib.sha256()
    for line in lines(name):
        h.update(line.encode())
    return h.hexdigest()


if __name__ == "__main__":
    names = [arg for arg in sys.argv[1:] if arg != "--lines"] or SECTIONS
    for name in names:
        if "--lines" in sys.argv[1:]:
            sys.stdout.writelines(lines(name))
        else:
            print(name, digest(name))
