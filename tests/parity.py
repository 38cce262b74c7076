"""A seeded corpus of public results, one canonical line per result.

The corpus compares versions of the library, where ``oracles`` compares it
with brute force: a change that keeps every public result keeps the
corpus's SHA-256, which ``test_parity`` pins.  Each section is a function
that yields the section's lines; the digest reads the sections in the
order of ``SECTIONS``, so a new section is one more function there and a
new pinned digest.  A change that alters a public result on purpose
updates the pin and says why.

Run as a script to print the digest, or the lines themselves with
``--lines``::

    PYTHONPATH=src python tests/parity.py [--lines]
"""

import hashlib
import random
import sys
from functools import reduce

from conftest import (LINK_NAMES, RACK_TABLES, braid_closure, load_link,
                      trivial_union)
from rackkit import (LinkDiagram, Permutation, RackTable, alexander,
                     constant_action, counting_polynomial_string,
                     enhanced_invariant, enumerate_colorings, rack_counting)


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


SECTIONS = {"framed": framed_lines}


def lines():
    for name, section in SECTIONS.items():
        for line in section():
            yield f"{name}\t{line}\n"


def digest():
    """The SHA-256 of every line of every section, in order."""
    h = hashlib.sha256()
    for line in lines():
        h.update(line.encode())
    return h.hexdigest()


if __name__ == "__main__":
    if "--lines" in sys.argv[1:]:
        sys.stdout.writelines(lines())
    else:
        print(digest())
