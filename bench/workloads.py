"""Inputs, jobs and expected outputs of the four benchmark workloads.

A workload is built in two steps.  ``generate`` turns the seed into input
text; it is the timed part of set-up and may call ``rackkit.generators``.
``make_jobs`` turns that text into jobs.  A job's ``run`` gives the library
nothing but the generated text, as one command-line invocation would, so
no cached ``report`` or ``columns`` carries over from one job to the next.
Expected outputs come from closed forms, from the small reference code in
this file, or from ``reference.json`` -- never from the library under test.

The seed chooses relabelings and random tables.  It never changes input
sizes, so every seed gives the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rackkit import core, generators, iso, links, poly

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

# structure: Alexander quandles (n, t), each relabeled by the seed.  Three
# of size 23 put several jobs of one cost at the median.
STRUCTURE_ALEXANDER = ((17, 2), (19, 2), (21, 2), (23, 2), (23, 3), (23, 5),
                       (25, 2), (27, 2), (29, 2), (31, 2))
# One large table for the n^4 validation; its subracks would take about a
# minute, so this job stops after the polynomial.
STRUCTURE_LARGE = (81, 2)
STRUCTURE_FIXTURES = ("Q6", "R6", "MX6", "MY6")

# families: constant-action racks by cycle type, a canonical copy against a
# relabeled one; pairs of distinct types of equal size; Alexander pairs
# (p, t) isomorphic to a relabeled copy, and (p, t, t') with t, t' of equal
# multiplicative order, whose invariant keys agree so the search must run.
FAMILIES_SAME_TYPE = ((3, 4, 5), (3, 4, 7), (3, 5, 7), (4, 5, 7), (2, 3, 5, 7))
FAMILIES_DISTINCT_TYPES = (((3, 4, 5), (2, 5, 5)),)
FAMILIES_ALEXANDER_SAME = ((13, 2), (19, 2))
FAMILIES_ALEXANDER_DISTINCT = ((11, 2, 6), (13, 2, 6), (17, 3, 5), (19, 2, 3))
FAMILIES_DEPTH = 1000

# framed_links: T(2, q) knots and links plus the Hopf link with a free loop,
# counted against racks of rank 2 (T5), 6 and 12 (constant action of the
# cycle types below); enhanced invariants of T(2, p) against R_p.
LINKS_TORUS = (5, 7, 9, 4, 6, 8)
LINKS_CONSTANT_ACTION = ((2, 3), (3, 4))
LINKS_ENHANCED_PRIMES = (11, 13, 17, 19, 23, 29)

# cli: random non-rack tables for ``check`` and one unlink of many loops.
CLI_RANDOM_SIZES = (30, 33, 36, 40)
CLI_UNLINK_LOOPS = 1200


@dataclass
class Job:
    """One unit of work: ``run`` calls the library and is timed; the
    untimed ``summarize`` turns its result into plain data that must
    equal ``expected``."""

    kind: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    expected: object
    # traced cli jobs report witness counts read from their output
    witnesses: Callable[[object], tuple[int, int]] | None = None


class UnexpectedExit(RuntimeError):
    """A command exited with another code than the one expected."""


# ---------------------------------------------------------------- helpers

def table_text(entries) -> str:
    return "\n".join([str(len(entries))]
                     + [" ".join(map(str, row)) for row in entries]) + "\n"


def random_relabeling(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def relabel(entries, perm) -> tuple[tuple[int, ...], ...]:
    """The same operation on renamed elements: perm(x) ▷' perm(y) = perm(x ▷ y)."""
    n = len(entries)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x] - 1][perm[y] - 1] = perm[entries[x][y] - 1]
    return tuple(tuple(row) for row in out)


def is_morphism(a, b, images) -> bool:
    n = len(a)
    return all(b[images[x] - 1][images[y] - 1] == images[a[x][y] - 1]
               for x in range(n) for y in range(n))


def affine_entries(n: int, t: int):
    return tuple(tuple((t * x + (1 - t) * y) % n + 1 for y in range(n))
                 for x in range(n))


def closed_subsets(entries) -> list[tuple[int, ...]]:
    """Every nonempty ▷-closed subset, found by adding one element at a
    time to known closed sets; sorted by size, then lexicographically."""
    n = len(entries)

    def close(base, extra):
        cur = set(base)
        todo = [e for e in extra if e not in cur]
        cur.update(todo)
        while todo:
            e = todo.pop()
            row = entries[e - 1]
            for y in list(cur):
                for v in (row[y - 1], entries[y - 1][e - 1]):
                    if v not in cur:
                        cur.add(v)
                        todo.append(v)
        return frozenset(cur)

    found = {close((), (x,)) for x in range(1, n + 1)}
    frontier = list(found)
    while frontier:
        nxt = []
        for c in frontier:
            for x in range(1, n + 1):
                if x not in c:
                    d = close(c, (x,))
                    if d not in found:
                        found.add(d)
                        nxt.append(d)
        frontier = nxt
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def fixed_points(cycle_type, d: int) -> int:
    """Fixed points of the d-th power of a permutation of this cycle type."""
    return sum(c for c in cycle_type if d % c == 0)


def consecutive_cycles(cycle_type):
    cycles, start = [], 1
    for length in cycle_type:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return cycles


def constant_action_table(cycle_type):
    sigma = core.Permutation.from_cycles(sum(cycle_type),
                                         consecutive_cycles(cycle_type))
    return generators.constant_action(sigma).entries


def constant_action_poly(cycle_type, m: int, n: int):
    """PAPER.md's closed form for a constant-action rack, "def" convention:
    b·s^k t^a + (k-b)·t^a with a = fix(σ^n), b = fix(σ^m)."""
    k = sum(cycle_type)
    a, b = fixed_points(cycle_type, n), fixed_points(cycle_type, m)
    terms = [(0, a, k - b), (k, a, b)]
    return tuple(term for term in terms if term[2])


def multiplicative_order(t: int, p: int) -> int:
    k, x = 1, t % p
    while x != 1:
        x = x * t % p
        k += 1
    return k


def pick(inputs: tuple, smallest: bool) -> tuple:
    """All inputs of a kind, or only the first (smallest) one."""
    return inputs[:1] if smallest else inputs


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_entries(name: str) -> tuple[tuple[int, ...], ...]:
    values = [int(tok) for line in read_fixture(name).splitlines()
              if not line.lstrip().startswith("#") for tok in line.split()]
    n = values[0]
    return tuple(tuple(values[1 + i * n:1 + (i + 1) * n]) for i in range(n))


def report_flags(report) -> tuple:
    return (report.is_rack, report.is_quandle, report.is_crossed_set,
            report.is_abelian, report.is_latin, len(report.axiom_violations))


# --------------------------------------------------------------- structure

def generate_structure(rng: random.Random, smallest: bool,
                       workdir: Path) -> dict:
    large = () if smallest else (STRUCTURE_LARGE,)
    alexander = []
    for n, t in pick(STRUCTURE_ALEXANDER, smallest) + large:
        perm = random_relabeling(rng, n)
        text = table_text(relabel(generators.alexander(n, t).entries, perm))
        alexander.append((n, t, perm, text))
    fixtures = [(name, read_fixture(f"{name}.rack"))
                for name in STRUCTURE_FIXTURES]
    return {"alexander": alexander, "fixtures": fixtures}


def _structure_run(text: str, subracks: bool):
    def run():
        table = core.parse_rack_table(text)
        report = table.report
        p11 = poly.rack_polynomial(table, 1, 1)
        if not subracks:
            return report, p11, None, None
        subs = poly.enumerate_subracks(table)
        srps = tuple(poly.subrack_polynomial(table, s, 1, 1) for s in subs)
        return report, p11, subs, srps
    return run


def _structure_summary(result):
    report, p11, subs, srps = result
    return (report_flags(report), p11.terms, subs,
            None if srps is None else tuple(p.terms for p in srps))


def structure_jobs(inputs: dict) -> list[Job]:
    jobs = []
    for n, t, perm, text in inputs["alexander"]:
        a = math.gcd(n, 1 - t)
        flags = (True, True, True, True, a == 1, 0)
        full = (n, t) != STRUCTURE_LARGE
        subs = srps = None
        if full:
            subs = tuple(sorted(
                (tuple(sorted(perm[x - 1] for x in s))
                 for s in closed_subsets(affine_entries(n, t))),
                key=lambda s: (len(s), s)))
            srps = tuple(((a, a, len(s)),) for s in subs)
        jobs.append(Job(f"alexander({n},{t})", _structure_run(text, full),
                        _structure_summary, (flags, ((a, a, n),), subs, srps)))
    for name, text in inputs["fixtures"]:
        ref = REFERENCE["structure"][name]
        jobs.append(Job(name, _structure_run(text, True), _structure_summary,
                        (ref["flags"], ref["poly"], ref["subracks"],
                         ref["subrack_polys"])))
    return jobs


# ---------------------------------------------------------------- families

def generate_families(rng: random.Random, smallest: bool,
                      workdir: Path) -> dict:
    pairs = []
    for ct in pick(FAMILIES_SAME_TYPE, smallest):
        a = constant_action_table(ct)
        b = relabel(a, random_relabeling(rng, len(a)))
        pairs.append((("same", ct, ct), a, b))
    for ct1, ct2 in pick(FAMILIES_DISTINCT_TYPES, smallest):
        a = constant_action_table(ct1)
        b = relabel(constant_action_table(ct2), random_relabeling(rng, len(a)))
        pairs.append((("distinct", ct1, ct2), a, b))
    for p, t in pick(FAMILIES_ALEXANDER_SAME, smallest):
        a = generators.alexander(p, t).entries
        pairs.append((("alexander", p, t, t), a,
                      relabel(a, random_relabeling(rng, p))))
    for p, t1, t2 in pick(FAMILIES_ALEXANDER_DISTINCT, smallest):
        a = generators.alexander(p, t1).entries
        b = relabel(generators.alexander(p, t2).entries,
                    random_relabeling(rng, p))
        pairs.append((("alexander", p, t1, t2), a, b))
    return {"pairs": [(key, a, b, table_text(a), table_text(b))
                      for key, a, b in pairs]}


def _families_run(text_a: str, text_b: str):
    def run():
        a = core.parse_rack_table(text_a)
        b = core.parse_rack_table(text_b)
        found = iso.isomorphic(a, b)
        scan = iso.rp_family_scan(a, b)
        pa = poly.rack_polynomial(a, FAMILIES_DEPTH, FAMILIES_DEPTH)
        profile = poly.exponent_profile(b, FAMILIES_DEPTH, FAMILIES_DEPTH)
        return found, scan, pa, profile
    return run


def _families_summary(a, b):
    def summarize(result):
        found, scan, pa, profile = result
        if found.isomorphic:
            witness_ok = is_morphism(a, b, found.witness.images)
        else:
            witness_ok = found.witness is None
        diffs = tuple((d.m, d.n, d.left.terms, d.right.terms)
                      for d in scan.differences)
        return (found.isomorphic, witness_ok, scan.bound, scan.complete_bound,
                diffs, pa.terms, profile.pairs)
    return summarize


def _constant_action_profile(b, cycle_type, depth):
    """(col, row) counts at this depth for a relabeled constant-action rack:
    every column is σ, and x's row count is k when σ^depth fixes x."""
    k = len(b)
    col = fixed_points(cycle_type, depth)
    pairs = []
    for x in range(1, k + 1):
        y, length = b[x - 1][0], 1
        while y != x:
            y, length = b[y - 1][0], length + 1
        pairs.append((col, k if depth % length == 0 else 0))
    return tuple(pairs)


def families_jobs(inputs: dict) -> list[Job]:
    d = FAMILIES_DEPTH
    jobs = []
    for key, a, b, text_a, text_b in inputs["pairs"]:
        if key[0] == "alexander":
            _, p, t1, t2 = key
            period = multiplicative_order(t1, p)
            fix = p if d % period == 0 else 1
            expected = (t1 == t2, True, period, True, (), ((fix, fix, p),),
                        ((fix, fix),) * p)
            kind = f"alexander({p},{t1})~({p},{t2})"
        else:
            _, ct1, ct2 = key
            bound = max(math.lcm(*ct1), math.lcm(*ct2))
            diffs = []
            for n in range(1, bound + 1):
                for m in range(1, bound + 1):
                    left = constant_action_poly(ct1, m, n)
                    right = constant_action_poly(ct2, m, n)
                    if left != right:
                        diffs.append((m, n, left, right))
            expected = (ct1 == ct2, True, bound, True, tuple(diffs),
                        constant_action_poly(ct1, d, d),
                        _constant_action_profile(b, ct2, d))
            kind = f"constant{ct1}~{ct2}"
        jobs.append(Job(kind, _families_run(text_a, text_b),
                        _families_summary(a, b), expected))
    return jobs


# ------------------------------------------------------------ framed_links

def torus_diagram(q: int) -> dict:
    """Standard diagram of T(2, q): arc i passes under arc i+1 into arc i+2."""
    return {"crossings": [
        {"sign": 1, "over": (i + 1) % q + 1, "under_in": i + 1,
         "under_out": (i + 2) % q + 1} for i in range(q)], "free_arcs": []}


def hopf_loop_diagram() -> dict:
    diagram = json.loads(read_fixture("hopf.link"))
    diagram["free_arcs"] = [3]
    return diagram


def _diagram_shape(name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Undercrossings and self-writhe per component, in the library's
    component order (by least arc).  All crossings are positive."""
    if name == "hopf+loop":
        return (1, 1, 0), (0, 0, 0)
    q = int(name[len("T(2,"):-1])
    if q % 2:
        return (q,), (q,)
    return (q // 2, q // 2), (0, 0)


def generate_framed_links(rng: random.Random, smallest: bool,
                          workdir: Path) -> dict:
    diagrams = [(f"T(2,{q})", json.dumps(torus_diagram(q)))
                for q in pick(LINKS_TORUS, smallest)]
    diagrams.append(("hopf+loop", json.dumps(hopf_loop_diagram())))
    t5 = fixture_entries("T5.rack")
    racks = [("T5", None, table_text(relabel(t5, random_relabeling(rng, 5))))]
    for ct in pick(LINKS_CONSTANT_ACTION, smallest):
        entries = constant_action_table(ct)
        racks.append((f"constant{ct}", ct, table_text(
            relabel(entries, random_relabeling(rng, len(entries))))))
    enhanced = []
    for p in pick(LINKS_ENHANCED_PRIMES, smallest):
        entries = relabel(generators.alexander(p, p - 1).entries,
                          random_relabeling(rng, p))
        enhanced.append((p, json.dumps(torus_diagram(p)), table_text(entries)))
    return {"diagrams": diagrams, "racks": racks, "enhanced": enhanced}


def _counting_run(diagram_text: str, rack_text: str):
    def run():
        diagram = links.parse_diagram(diagram_text)
        table = core.parse_rack_table(rack_text)
        return links.rack_counting(diagram, table)
    return run


def _counting_summary(result):
    total, per_class = result
    return (total, sum(per_class.values()),
            tuple((label, count) for label, count in per_class.items()))


def _enhanced_run(diagram_text: str, rack_text: str):
    def run():
        diagram = links.parse_diagram(diagram_text)
        table = core.parse_rack_table(rack_text)
        return links.enhanced_invariant(diagram, table)
    return run


def _enhanced_summary(inv):
    pairs = sorted((label, p.terms, mult) for label, p, mult in inv.pairs)
    return (inv.rack_rank, inv.component_count, inv.total,
            sum(inv.class_counts().values()), tuple(pairs),
            tuple(sorted(inv.image_multiplicities)))


def framed_links_jobs(inputs: dict) -> list[Job]:
    jobs = []
    for rack_name, ct, rack_text in inputs["racks"]:
        for name, diagram_text in inputs["diagrams"]:
            if ct is None:
                ref = REFERENCE["framed_links"][rack_name][name]
                per_class = tuple((tuple(label), count)
                                  for label, count in ref["per_class"])
                total = ref["total"]
            else:
                under, writhe = _diagram_shape(name)
                rank = math.lcm(*ct)
                classes = []
                for label in _label_vectors(rank, len(under)):
                    count = 1
                    for u, w, lab in zip(under, writhe, label):
                        count *= fixed_points(ct, u + (lab - w) % rank)
                    classes.append((label, count))
                per_class = tuple(classes)
                total = sum(count for _, count in classes)
            jobs.append(Job(f"{name}x{rack_name}",
                            _counting_run(diagram_text, rack_text),
                            _counting_summary, (total, total, per_class)))
    for p, diagram_text, rack_text in inputs["enhanced"]:
        whole = tuple(range(1, p + 1))
        pairs = sorted([((0,), ((1, 1, 1),), p), ((0,), ((1, 1, p),), p * p - p)])
        images = sorted([((0,), (x,), 1) for x in whole]
                        + [((0,), whole, p * p - p)])
        jobs.append(Job(f"enhanced T(2,{p})xR{p}",
                        _enhanced_run(diagram_text, rack_text),
                        _enhanced_summary,
                        (1, 1, p * p, p * p, tuple(pairs), tuple(images))))
    return jobs


def _label_vectors(rank: int, count: int):
    if count == 0:
        return [()]
    return [(first,) + rest for first in range(rank)
            for rest in _label_vectors(rank, count - 1)]


# --------------------------------------------------------------------- cli

def cli_command(args) -> list[str]:
    return [sys.executable, "-m", "rackkit", *args]


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def generate_cli(rng: random.Random, smallest: bool, workdir: Path) -> dict:
    tables = []
    for n in pick(CLI_RANDOM_SIZES, smallest):
        entries = tuple(tuple(rng.randint(1, n) for _ in range(n))
                        for _ in range(n))
        path = workdir / f"random{n}.rack"
        path.write_text(table_text(entries), encoding="utf-8")
        tables.append((path, entries))
    unlink = workdir / "unlink.link"
    unlink.write_text(json.dumps(
        {"crossings": [], "free_arcs": list(range(1, CLI_UNLINK_LOOPS + 1))}),
        encoding="utf-8")
    return {"tables": tables, "unlink": unlink}


def check_output(entries) -> str:
    """What ``rackkit check`` prints for a table that is not a rack:
    the flags, the first ten axiom witnesses and how many more exist."""
    n = len(entries)
    violations = []
    for j in range(n):
        first: dict[int, int] = {}
        for i in range(n):
            k = entries[i][j]
            if k in first:
                violations.append(("bijectivity", (first[k] + 1, i + 1, j + 1)))
            else:
                first[k] = i
    for x in range(n):
        ex = entries[x]
        for y in range(n):
            ey, xy = entries[y], entries[ex[y] - 1]
            for z in range(n):
                if xy[z] != entries[ex[z] - 1][ey[z] - 1]:
                    violations.append(("distributivity", (x + 1, y + 1, z + 1)))
    if not violations:
        raise ValueError("the random table is a rack; choose another seed")
    latin = all(sorted(row) == list(range(1, n + 1)) for row in entries)
    lines = [f"{flag}: false" for flag in
             ("is_rack", "is_quandle", "is_crossed_set", "is_abelian")]
    lines.append(f"is_latin: {'true' if latin else 'false'}")
    lines += [f"violation: {axiom} at {witness}"
              for axiom, witness in violations[:10]]
    if len(violations) > 10:
        lines.append(f"violation: and {len(violations) - 10} more")
    return "\n".join(lines) + "\n"


def _cli_run(args, expected_code: int):
    env = cli_env()

    def run():
        proc = subprocess.run(cli_command(args), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != expected_code:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise UnexpectedExit(
                f"exit {proc.returncode}, expected {expected_code}: {tail[0]}")
        return proc.stdout
    return run


def _witness_counts(stdout: str) -> tuple[int, int]:
    printed = hidden = 0
    for line in stdout.splitlines():
        if line.startswith("violation: and "):
            hidden = int(line.split()[2])
        elif line.startswith("violation: "):
            printed += 1
    return printed, printed + hidden


def cli_jobs(inputs: dict) -> list[Job]:
    jobs = []
    for case in REFERENCE["cli"]:
        jobs.append(Job(" ".join(case["args"][:1]),
                        _cli_run(case["args"], case["exit"]), str,
                        case["stdout"]))
    for path, entries in inputs["tables"]:
        jobs.append(Job(f"check random{len(entries)}",
                        _cli_run(["check", str(path)], 1), str,
                        check_output(entries), witnesses=_witness_counts))
    # A 1-colorable unlink: one coloring by the one-element rack.
    jobs.append(Job("invariant unlink", _cli_run(
        ["invariant", "--mode", "sr", str(inputs["unlink"]),
         str(FIXTURES / "triv1.rack")], 0), str, "1\n"))
    return jobs


WORKLOADS = {
    "structure": (generate_structure, structure_jobs),
    "families": (generate_families, families_jobs),
    "framed_links": (generate_framed_links, framed_links_jobs),
    "cli": (generate_cli, cli_jobs),
}
