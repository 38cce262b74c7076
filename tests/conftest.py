"""Shared fixture loading and rack strategies for the test suite."""

import math
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import oracles
from rackkit import (Crossing, LinkDiagram, Permutation, RackTable, alexander,
                     constant_action, dual, parse_diagram, parse_rack_table,
                     ts_rack)

# every property test draws the same examples on every run and interpreter;
# per-test @settings made at import time inherit this profile
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Pinned fixture contents.  Each test run re-parses the files and checks them
# against these literals so that an edited fixture cannot silently shift the
# frozen expectations elsewhere in the suite.
RACK_TABLES = {
    "ex2": ((3, 3, 3), (1, 1, 1), (2, 2, 2)),
    "ex3": ((2, 2, 2), (1, 1, 1), (3, 3, 3)),
    "T5": (
        (1, 3, 2, 1, 1),
        (3, 2, 1, 2, 2),
        (2, 1, 3, 3, 3),
        (4, 4, 4, 5, 5),
        (5, 5, 5, 4, 4),
    ),
    "Q6": (
        (1, 3, 2, 1, 1, 1),
        (3, 2, 1, 2, 2, 2),
        (2, 1, 3, 3, 3, 3),
        (4, 4, 4, 4, 6, 5),
        (5, 5, 5, 6, 5, 4),
        (6, 6, 6, 5, 4, 6),
    ),
    "R6": (
        (1, 1, 2, 2, 1, 1),
        (2, 2, 1, 1, 2, 2),
        (3, 3, 3, 3, 4, 4),
        (4, 4, 4, 4, 3, 3),
        (6, 6, 5, 5, 5, 5),
        (5, 5, 6, 6, 6, 6),
    ),
    "MX6": (
        (2, 2, 2, 2, 2, 2),
        (1, 1, 1, 1, 1, 1),
        (4, 4, 4, 4, 4, 4),
        (3, 3, 3, 3, 3, 3),
        (6, 6, 6, 6, 6, 6),
        (5, 5, 5, 5, 5, 5),
    ),
    "MY6": (
        (2, 2, 2, 2, 2, 2),
        (3, 3, 3, 3, 3, 3),
        (1, 1, 1, 1, 1, 1),
        (5, 5, 5, 5, 5, 5),
        (6, 6, 6, 6, 6, 6),
        (4, 4, 4, 4, 4, 4),
    ),
    "dihedral3": ((1, 3, 2), (3, 2, 1), (2, 1, 3)),
    "triv1": ((1,),),
    "triv2": ((1, 1), (2, 2)),
}

LINK_NAMES = (
    "trefoil",
    "unknot",
    "hopf",
    "trefoil_kink",
    "trefoil_r2",
    "trefoil_r1pair",
)


def load_rack(name: str) -> RackTable:
    table = parse_rack_table((FIXTURES / f"{name}.rack").read_text())
    assert table.entries == RACK_TABLES[name], f"fixture {name}.rack drifted"
    return table


def load_link(name: str) -> LinkDiagram:
    assert name in LINK_NAMES
    return parse_diagram((FIXTURES / f"{name}.link").read_text())


@pytest.fixture(scope="session")
def racks() -> dict[str, RackTable]:
    return {name: load_rack(name) for name in RACK_TABLES}


@pytest.fixture(scope="session")
def links() -> dict[str, LinkDiagram]:
    return {name: load_link(name) for name in LINK_NAMES}


def generated_racks(n: int):
    """Strategy: a constant-action, linear (alexander) or two-coefficient
    (ts_rack) rack on n elements, or the dual of one."""
    units = [t for t in range(n) if math.gcd(t, n) == 1]
    table = st.one_of(
        st.permutations(list(range(1, n + 1))).map(
            lambda images: constant_action(Permutation(tuple(images)))),
        st.sampled_from(units).map(lambda t: alexander(n, t)),
        st.sampled_from([(t, s) for t in units for s in range(n)
                         if s * (1 - t - s) % n == 0]).map(
            lambda ts: ts_rack(n, *ts)))
    return table.flatmap(lambda t: st.sampled_from((t, dual(t))))


def ts_non_quandle_params(sizes):
    """The (n, t, s) of the linear racks x ▷ y = t·x + s·y on Z/n, n in
    sizes, that are not quandles: t + s ≢ 1."""
    return [(n, t, s) for n in sizes for t in range(n) if math.gcd(t, n) == 1
            for s in range(n) if s * (1 - t - s) % n == 0 and (t + s) % n != 1]


def relabel(entries, images):
    """The same table on points renamed by x ↦ images[x-1]."""
    n = len(entries)
    back = {v: x for x, v in enumerate(images, start=1)}
    return tuple(
        tuple(images[entries[back[a] - 1][back[b] - 1] - 1]
              for b in range(1, n + 1))
        for a in range(1, n + 1))


def trivial_union(a, b):
    """a on 1..k and b on k+1..n, with x ▷ y = x across the two."""
    k, n = len(a), len(a) + len(b)

    def op(x, y):
        if x < k and y < k:
            return a[x][y]
        if x >= k and y >= k:
            return b[x - k][y - k] + k
        return x + 1

    return tuple(tuple(op(x, y) for y in range(n)) for x in range(n))


FIELDS = ("sign", "over", "under_in", "under_out")

# single faults for a diagram's JSON object, each of which makes it invalid
DIAGRAM_FAULTS = ("bool", "float", "string", "zero", "negative", "sign 2",
                  "drop key", "add key", "duplicate under_in",
                  "duplicate under_out", "repeat free arc",
                  "free arc in crossing", "unknown over",
                  "free arc not an integer", "free arc not positive")


def diagram_json(diagram):
    """A diagram as the JSON object that ``parse_diagram`` reads."""
    return {"crossings": [{f: getattr(cr, f) for f in FIELDS}
                          for cr in diagram.crossings],
            "free_arcs": list(diagram.free_arcs)}


def corrupt_diagram(obj, fault, rng):
    """A copy of a diagram's JSON object with one fault of
    ``DIAGRAM_FAULTS``, placed by rng, or None when the diagram has no
    place for it.  The first five put a bool, a float, a string, 0 or a
    negative number in one field of one crossing."""
    crossings = [dict(cr) for cr in obj.get("crossings", [])]
    free = list(obj.get("free_arcs", []))
    bad = {"crossings": crossings, "free_arcs": free}
    if fault == "repeat free arc":
        if not free:
            return None
        free.insert(rng.randrange(len(free) + 1), rng.choice(free))
        return bad
    if fault.startswith("free arc not"):
        values = ((True, 1.0, "1") if fault.endswith("integer")
                  else (0, -rng.randint(1, 9)))
        free.insert(rng.randrange(len(free) + 1), rng.choice(values))
        return bad
    if not crossings:
        return None
    i = rng.randrange(len(crossings))
    cr = crossings[i]
    key = rng.choice(FIELDS)
    v = cr[key]
    if fault in ("duplicate under_in", "duplicate under_out"):
        if len(crossings) < 2:
            return None
        key = fault.split()[1]
        j = rng.choice([j for j in range(len(crossings)) if j != i])
        crossings[j][key] = cr[key]
    elif fault == "free arc in crossing":
        free.insert(rng.randrange(len(free) + 1), cr[rng.choice(FIELDS[2:])])
    elif fault == "unknown over":
        arcs = [a for c in crossings for a in (c["over"], c["under_in"])] + free
        cr["over"] = max(arcs) + 1
    elif fault == "drop key":
        del cr[key]
    elif fault == "add key":
        cr["weight"] = 1
    elif fault == "sign 2":
        cr["sign"] = 2
    else:
        cr[key] = {"bool": rng.choice((True, False)), "float": float(v),
                   "string": str(v), "zero": 0, "negative": -abs(v) - 1}[fault]
    return bad


def oracle_colorings(diagram, table):
    """The brute-force colorings of a diagram, handed over as plain data."""
    crossings = [(c.sign, c.over, c.under_in, c.under_out) for c in diagram.crossings]
    return oracles.colorings(table.entries, diagram.arcs, crossings)


def braid_closure(strands, word):
    """The closure of a braid word on ``strands`` strands, as a diagram.

    Letter i > 0 is σ_i, a positive crossing in which the strand at
    position i passes over the one at i + 1; letter -i is σ_i⁻¹, a negative
    crossing in which the strand at i + 1 passes over the one at i.  The
    under strand is cut into a fresh arc.  Each bottom arc is then joined
    to the top arc at its position, and a component that never passes
    under is a free arc.
    """
    top = list(range(1, strands + 1))
    bottom = top[:]
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        fresh = strands + len(crossings) + 1
        if letter > 0:
            crossings.append((1, bottom[i], bottom[i + 1], fresh))
            bottom[i], bottom[i + 1] = fresh, bottom[i]
        else:
            crossings.append((-1, bottom[i + 1], bottom[i], fresh))
            bottom[i], bottom[i + 1] = bottom[i + 1], fresh
    parent = list(range(strands + len(crossings) + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for t, b in zip(top, bottom):
        low, high = sorted((find(t), find(b)))
        parent[high] = low
    crossings = [Crossing(sign, *map(find, arcs)) for sign, *arcs in crossings]
    under = {c.under_in for c in crossings}
    free = {find(t) for t in top} - under
    return LinkDiagram(tuple(crossings), tuple(sorted(free)))
