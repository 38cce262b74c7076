"""Diagrams, colorings, framing sweeps, and the link invariants."""

import json
import math
import random
import time
from collections import Counter
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (DIAGRAM_FAULTS, FIELDS, FIXTURES, LINK_NAMES,
                      RACK_TABLES, braid_closure, corrupt_diagram,
                      diagram_json, generated_racks, load_link,
                      oracle_colorings, relabel, trivial_union)
from rackkit import (
    Crossing,
    DiagramError,
    DiagramFormatError,
    LinkDiagram,
    NotARackError,
    Permutation,
    RackTable,
    TwoVarPoly,
    add_kinks,
    alexander,
    components_and_writhe,
    constant_action,
    counting_polynomial_string,
    enhanced_invariant,
    enumerate_colorings,
    exponent_profile,
    image_subrack,
    parse_diagram,
    rack_counting,
    rack_rank,
    subrack_polynomial,
    ts_rack,
)
from rackkit import links as links_module
from rackkit.cli import main

RPP_TREFOIL_T5 = (
    "2*z^{2*s^3*t^3} + 6*z^{3*s^3*t^3} + 3*z^{s^3*t^3}"
    " + 6*q1*z^{3*s^3*t^3} + 3*q1*z^{s^3*t^3}"
)
SRPP_TREFOIL_T5 = "2*z^{2*s^3*t^3} + 12*z^{3*s^3*t^3} + 6*z^{s^3*t^3}"
RPP_UNKNOT_T5 = "2*z^{2*s^3*t^3} + 3*z^{s^3*t^3} + 3*q1*z^{s^3*t^3}"


# -- diagram construction ----------------------------------------------------


def test_crossing_validation():
    with pytest.raises(DiagramError):
        Crossing(0, 1, 2, 3)
    with pytest.raises(DiagramError):
        Crossing(1, 0, 2, 3)
    with pytest.raises(DiagramError):
        Crossing(1, True, 2, 3)


@pytest.mark.parametrize("sign", [True, 1.0, -1.0])
def test_crossing_sign_is_an_int(sign):
    # each compares equal to 1 or -1, but a sign is an int: a float one
    # would reach the framing sweep's range() and fail there
    with pytest.raises(DiagramError) as info:
        Crossing(sign, 1, 1, 1)
    assert str(info.value) == f"sign must be 1 or -1, got {sign!r}"


def test_arcs_must_chain():
    c = Crossing(1, 2, 1, 1)
    with pytest.raises(DiagramError, match="termination"):
        LinkDiagram((c, Crossing(1, 2, 1, 2)))  # arc 1 terminates twice
    with pytest.raises(DiagramError, match="origination"):
        LinkDiagram((Crossing(1, 2, 1, 3),))  # arc 3 never terminates
    with pytest.raises(DiagramError, match="unknown arc"):
        LinkDiagram((Crossing(1, 9, 1, 1),))
    with pytest.raises(DiagramError):
        LinkDiagram((c,), free_arcs=(1,))  # free arc already covered
    with pytest.raises(DiagramError):
        LinkDiagram((), free_arcs=(1, 1))
    with pytest.raises(DiagramError, match="^free arc ids must be positive, got 0$"):
        LinkDiagram((), (0,))


def test_valid_diagrams_skip_the_naming_checks(monkeypatch):
    # LinkDiagram proves a valid diagram with one set test; only a diagram
    # that fails it counts its arcs' ends, with collections.Counter, to
    # name the fault
    def refuse(*args):
        raise AssertionError("a valid diagram reached the naming checks")

    monkeypatch.setattr(links_module, "Counter", refuse)
    with pytest.raises(AssertionError, match="naming checks"):
        LinkDiagram((Crossing(1, 2, 1, 1), Crossing(1, 2, 1, 2)))
    rng = random.Random(7)
    diagrams = [load_link(name) for name in LINK_NAMES]
    for _ in range(60):
        strands = rng.randint(1, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 8))] if strands > 1 else []
        diagrams.append(braid_closure(strands, word))
    for diagram in diagrams:
        assert LinkDiagram(diagram.crossings, diagram.free_arcs) == diagram
        kinked = add_kinks(diagram,
                           [rng.randint(0, 3) for _ in diagram.components])
        assert len(kinked.components) == len(diagram.components)


def test_parse_diagram_errors():
    with pytest.raises(DiagramFormatError):
        parse_diagram("not json")
    with pytest.raises(DiagramFormatError):
        parse_diagram("[1, 2]")
    with pytest.raises(DiagramFormatError):
        parse_diagram('{"crossings": [], "free_arcs": [1], "extra": 1}')
    with pytest.raises(DiagramFormatError):
        parse_diagram('{"crossings": [{"sign": 1, "over": 2}], "free_arcs": []}')
    with pytest.raises(DiagramFormatError):
        parse_diagram('{"crossings": [], "free_arcs": [true]}')
    with pytest.raises(DiagramFormatError):
        parse_diagram('{"crossings": 3}')
    with pytest.raises(DiagramFormatError, match="^crossing 0 must be an object$"):
        parse_diagram('{"crossings": [1]}')
    with pytest.raises(DiagramFormatError,
                       match="^crossing 0: over must be an integer$"):
        parse_diagram('{"crossings": [{"sign": 1, "over": 1.5, '
                      '"under_in": 1, "under_out": 1}]}')
    with pytest.raises(DiagramFormatError, match="^free_arcs must be a list$"):
        parse_diagram('{"free_arcs": 3}')
    with pytest.raises(DiagramFormatError, match="nested too deeply"):
        parse_diagram("[" * 100000)
    # past the interpreter's limit on digits in an integer string
    with pytest.raises(DiagramFormatError):
        parse_diagram('{"free_arcs": [' + "1" * 5000 + "]}")


def checked_parse(obj):
    """A diagram's JSON object through the format checks of
    ``parse_diagram``, field by field in the order sign, over, under_in,
    under_out, and the checked constructors."""
    crossings = []
    for i, cr in enumerate(obj["crossings"]):
        if set(cr) != set(FIELDS):
            raise DiagramFormatError(
                f"crossing {i} must have exactly the keys "
                f"sign, over, under_in, under_out")
        for key in FIELDS:
            if isinstance(cr[key], bool) or not isinstance(cr[key], int):
                raise DiagramFormatError(f"crossing {i}: {key} must be an integer")
        crossings.append(Crossing(*(cr[key] for key in FIELDS)))
    for v in obj["free_arcs"]:
        if isinstance(v, bool) or not isinstance(v, int):
            raise DiagramFormatError(f"free_arcs entry {v!r} must be an integer")
    return LinkDiagram(tuple(crossings), tuple(obj["free_arcs"]))


@st.composite
def diagram_objects(draw):
    """The JSON object of a braid closure on 1-4 strands with 0-2 free
    loops, as it is or with one fault of ``DIAGRAM_FAULTS``."""
    strands = draw(st.integers(1, 4))
    word = draw(st.lists(letters(strands), max_size=7)) if strands > 1 else []
    obj = diagram_json(braid_closure(strands, word))
    top = max([a for cr in obj["crossings"] for a in cr.values()]
              + obj["free_arcs"])
    obj["free_arcs"] += range(top + 1, top + 1 + draw(st.integers(0, 2)))
    fault = draw(st.sampled_from((None, *DIAGRAM_FAULTS)))
    if fault is None:
        return obj
    bad = corrupt_diagram(obj, fault, draw(st.randoms(use_true_random=False)))
    assume(bad is not None)
    return bad


@settings(max_examples=400, deadline=None)
@given(diagram_objects())
def test_parse_matches_the_checked_constructors(obj):
    # parse_diagram builds its crossings without Crossing's checks once
    # its own tests pass, and LinkDiagram checks the arcs; it must accept
    # exactly what the checked constructors accept, build equal records,
    # and raise what they raise
    def outcome(build):
        try:
            return build()
        except DiagramError as exc:
            return type(exc), str(exc)

    got = outcome(lambda: parse_diagram(json.dumps(obj)))
    want = outcome(lambda: checked_parse(obj))
    assert got == want
    if isinstance(want, LinkDiagram):
        assert type(got) is LinkDiagram
        assert [vars(cr) for cr in got.crossings] == [
            vars(cr) for cr in want.crossings]
        assert all(type(cr) is Crossing for cr in got.crossings)
        assert got.free_arcs == want.free_arcs
        assert components_and_writhe(got) == components_and_writhe(want)


def test_fixture_structure(links):
    expected = {
        "trefoil": (1, (3,), 3),
        "unknot": (1, (0,), 1),
        "hopf": (2, (0, 0), 2),
        "trefoil_kink": (1, (4,), 4),
        "trefoil_r2": (1, (3,), 5),
        "trefoil_r1pair": (1, (3,), 5),
    }
    for name, (comp_count, writhes, arc_count) in expected.items():
        comps, got_writhes = components_and_writhe(links[name])
        assert len(comps) == comp_count, name
        assert got_writhes == writhes, name
        assert len(links[name].arcs) == arc_count, name
    # the trefoil's strand runs 1, 3, 2, but a component lists its arcs sorted
    assert links["trefoil"].components == ((1, 2, 3),)


def test_cross_component_crossings_do_not_count(links):
    # both Hopf crossings join distinct components, so each self-writhe is 0
    comps, writhes = components_and_writhe(links["hopf"])
    assert comps == ((1,), (2,)) and writhes == (0, 0)


# -- kink insertion ----------------------------------------------------------


def test_add_kinks_reproduces_fixture(links):
    assert add_kinks(links["trefoil"], (1,)) == links["trefoil_kink"]
    assert add_kinks(links["trefoil"], (0,)) == links["trefoil"]


def test_add_kinks_on_free_loop(links):
    kinked = add_kinks(links["unknot"], (2,))
    assert kinked.crossings == (Crossing(1, 1, 2, 1), Crossing(1, 1, 1, 2))
    assert kinked.free_arcs == ()
    _, writhes = components_and_writhe(kinked)
    assert writhes == (2,)


def test_add_kinks_validation(links):
    with pytest.raises(DiagramError):
        add_kinks(links["trefoil"], (1, 1))  # one component only
    with pytest.raises(DiagramError):
        add_kinks(links["trefoil"], (-1,))
    with pytest.raises(DiagramError):
        add_kinks(links["hopf"], (1,))
    # counts are read once, so an iterator of the right length works and
    # one of the wrong length or a non-iterable is a DiagramError too
    assert add_kinks(links["hopf"], iter([1, 0])) == add_kinks(
        links["hopf"], (1, 0))
    with pytest.raises(DiagramError, match="expected 2 kink counts, got 1"):
        add_kinks(links["hopf"], iter([1]))
    for counts in (5, None):
        with pytest.raises(DiagramError, match="kink counts must be iterable"):
            add_kinks(links["hopf"], counts)


@pytest.mark.parametrize("value", [1.5, "1", True])
def test_diagram_integers_are_checked(links, value):
    # free arcs and kink counts are checked as Crossing fields are: an int,
    # not a bool, and never truncated or parsed
    with pytest.raises(DiagramError, match="free arc ids must be integers"):
        LinkDiagram((), (value,))
    with pytest.raises(DiagramError, match="kink count must be an integer"):
        add_kinks(links["unknot"], (value,))


@pytest.mark.parametrize("args, message", [
    pytest.param((((1, 1, 1, 1),),), "crossings must be Crossing objects",
                 id="tuple-crossing"),
    pytest.param((5,), "crossings must be iterable", id="crossings-int"),
    pytest.param(((), 5), "free_arcs must be iterable", id="free-arcs-int"),
    pytest.param(((), None), "free_arcs must be iterable", id="free-arcs-none"),
])
def test_diagram_field_types_are_checked(args, message):
    # a wrong type is a DiagramError naming the field, not a bare
    # AttributeError or TypeError from inside validation
    with pytest.raises(DiagramError, match=message):
        LinkDiagram(*args)


def test_add_kinks_per_component(links):
    kinked = add_kinks(links["hopf"], (2, 1))
    comps, writhes = components_and_writhe(kinked)
    assert len(comps) == 2
    assert writhes == (2, 1)
    assert len(kinked.crossings) == 5


def test_add_kinks_at_scale(links):
    # one map of each arc's consumer, updated per kink, where rescanning
    # the crossing list per kink took about 2.5 s at 8,000 kinks
    trefoil = links["trefoil"]
    start = time.perf_counter()
    kinked = add_kinks(trefoil, (8000,))
    elapsed = time.perf_counter() - start
    assert len(kinked.crossings) == 8003
    assert kinked.crossings[-1] == Crossing(1, 1, 1, 8003)
    _, writhes = components_and_writhe(kinked)
    assert writhes == (8003,)
    assert elapsed < 0.5


# -- coloring enumeration ----------------------------------------------------


def test_colorings_match_oracle(racks, links):
    small = ("triv1", "triv2", "dihedral3", "ex2", "ex3", "T5")
    for diagram in [*links.values(), *UNIONS]:
        for name in small:
            lib = enumerate_colorings(diagram, racks[name])
            assert [dict(c) for c in lib] == oracle_colorings(diagram, racks[name])


def torus(q):
    """T(2, q): arc i passes under arc i+1 into arc i+2, indices mod q."""
    return LinkDiagram(tuple(
        Crossing(1, (i + 1) % q + 1, i + 1, (i + 2) % q + 1) for i in range(q)))


@pytest.mark.parametrize("p", [3, 5, 7, 29])
def test_torus_colorings_by_dihedral_quandle(p):
    # x ▷ y = 2y - x on Z/p colors T(2, q) by Fox colorings: the coloring
    # module of T(2, q) is Z/q, so there are p·gcd(p, q) of them
    dihedral = alexander(p, p - 1)
    for q in [*range(2, 13), p, 2 * p]:
        expected = p * p if q % p == 0 else p
        colorings = enumerate_colorings(torus(q), dihedral)
        assert len(colorings) == expected
        for coloring in colorings:
            for i in range(1, q + 1):
                x, y, z = (coloring[(i + k - 1) % q + 1] for k in range(3))
                assert (z - 1) % p == (2 * (y - 1) - (x - 1)) % p
        total, per_class = rack_counting(torus(q), dihedral)
        assert (total, list(per_class.values())) == (expected, [expected])


def test_coloring_counts(racks, links):
    t5 = racks["T5"]
    assert len(enumerate_colorings(links["trefoil"], t5)) == 9
    assert len(enumerate_colorings(links["trefoil_kink"], t5)) == 11
    assert len(enumerate_colorings(links["hopf"], t5)) == 15
    assert len(enumerate_colorings(links["trefoil"], racks["dihedral3"])) == 9
    assert len(enumerate_colorings(links["trefoil"], racks["triv1"])) == 1
    assert len(enumerate_colorings(links["unknot"], t5)) == 5


def test_colorings_are_sorted_assignments(racks, links):
    colorings = enumerate_colorings(links["trefoil"], racks["T5"])
    assert colorings[0] == {1: 1, 2: 1, 3: 1}
    keys = [tuple(c[a] for a in links["trefoil"].arcs) for c in colorings]
    assert keys == sorted(keys)


def test_monochrome_colorings_always_valid(racks, links):
    # coloring every arc with one element satisfies x resolved against x
    for diagram in (links["trefoil"], links["trefoil_r2"], links["hopf"]):
        for name in ("dihedral3", "R6", "Q6"):
            table = racks[name]
            found = enumerate_colorings(diagram, table)
            for x in table.elements:
                assert {a: x for a in diagram.arcs} in [dict(c) for c in found]


def test_kinked_unknot_counts(racks, links):
    t5 = racks["T5"]
    for count, expect in ((0, 5), (1, 3), (2, 5), (3, 3)):
        kinked = add_kinks(links["unknot"], (count,))
        lib = enumerate_colorings(kinked, t5)
        assert len(lib) == expect
        assert [dict(c) for c in lib] == oracle_colorings(kinked, t5)


def test_image_subrack(racks, links):
    t5 = racks["T5"]
    images = {
        tuple(sorted(c.values())): image_subrack(t5, c)
        for c in enumerate_colorings(links["trefoil"], t5)
    }
    assert images[(1, 1, 1)] == (1,)
    assert images[(1, 2, 3)] == (1, 2, 3)
    kinked = enumerate_colorings(links["trefoil_kink"], t5)
    kinds = sorted(image_subrack(t5, c) for c in kinked)
    assert kinds.count((4, 5)) == 2
    assert kinds.count((1, 2, 3)) == 6
    # the rack is checked whether or not the coloring uses a color
    not_rack = RackTable(((1, 1), (1, 1)))
    for coloring in ({}, {1: 1}):
        with pytest.raises(NotARackError):
            image_subrack(not_rack, coloring)
    assert image_subrack(t5, {}) == ()


# -- counting invariants -----------------------------------------------------


def test_rack_counting_trefoil(racks, links):
    total, per_class = rack_counting(links["trefoil"], racks["T5"])
    assert total == 20
    assert per_class == {(0,): 11, (1,): 9}
    assert counting_polynomial_string(per_class) == "11 + 9*q1"


def test_rack_counting_unknot(racks, links):
    total, per_class = rack_counting(links["unknot"], racks["T5"])
    assert total == 8
    assert counting_polynomial_string(per_class) == "5 + 3*q1"


def test_rack_counting_hopf(racks, links):
    total, per_class = rack_counting(links["hopf"], racks["T5"])
    assert total == 40
    assert per_class == {(0, 0): 15, (0, 1): 9, (1, 0): 9, (1, 1): 7}
    assert counting_polynomial_string(per_class) == "15 + 9*q2 + 9*q1 + 7*q1*q2"


def test_rack_counting_quandle_has_single_class(racks, links):
    total, per_class = rack_counting(links["trefoil"], racks["dihedral3"])
    assert total == 9
    assert set(per_class) == {(0,)}
    assert counting_polynomial_string(per_class) == "9"


def test_counting_string_of_nothing(racks):
    assert counting_polynomial_string({}) == "0"
    # the empty diagram has one coloring, the empty one, in the one
    # framing class of no components
    empty, t5 = LinkDiagram(()), racks["T5"]
    assert enumerate_colorings(empty, t5) == ({},)
    assert rack_counting(empty, t5) == (1, {(): 1})
    assert enhanced_invariant(empty, t5).pairs == (((), TwoVarPoly(()), 1),)


# -- enhanced invariants -----------------------------------------------------


def test_enhanced_trefoil(racks, links):
    inv = enhanced_invariant(links["trefoil"], racks["T5"])
    assert inv.enhanced_string(with_framing=True) == RPP_TREFOIL_T5
    assert inv.enhanced_string(with_framing=False) == SRPP_TREFOIL_T5
    assert inv.total == 20
    assert inv.counting_string() == "11 + 9*q1"
    assert inv.rack_rank == 2
    assert inv.component_count == 1
    assert (inv.m, inv.n, inv.convention) == (1, 1, "def")


def test_depths_are_kept_as_the_checked_ints(links):
    # a depth goes through operator.index, so True is depth 1 and an
    # object with __index__ returning 3 is depth 3; the results keep those
    # ints, not the objects passed in
    class Three:
        def __index__(self):
            return 3

    table = alexander(5, 2)
    profile = exponent_profile(table, True, Three())
    inv = enhanced_invariant(links["trefoil"], table, True, Three())
    for result in (profile, inv):
        assert (result.m, result.n) == (1, 3)
        assert type(result.m) is int and type(result.n) is int
    assert profile == exponent_profile(table, 1, 3)
    assert inv == enhanced_invariant(links["trefoil"], table, 1, 3)


def test_enhanced_image_multiplicities(racks, links):
    inv = enhanced_invariant(links["trefoil"], racks["T5"])
    assert inv.image_multiplicities == (
        ((0,), (1,), 1),
        ((0,), (1, 2, 3), 6),
        ((0,), (2,), 1),
        ((0,), (3,), 1),
        ((0,), (4, 5), 2),
        ((1,), (1,), 1),
        ((1,), (1, 2, 3), 6),
        ((1,), (2,), 1),
        ((1,), (3,), 1),
    )


def test_enhanced_unknot(racks, links):
    inv = enhanced_invariant(links["unknot"], racks["T5"])
    assert inv.enhanced_string(True) == RPP_UNKNOT_T5


def test_enhanced_quandle_and_trivial(racks, links):
    assert enhanced_invariant(links["trefoil"], racks["dihedral3"]).enhanced_string(
        True) == "6*z^{3*s*t} + 3*z^{s*t}"
    assert enhanced_invariant(links["trefoil"], racks["triv1"]).enhanced_string(
        True) == "z^{s*t}"


def test_enhanced_exponents_are_subrack_polynomials(racks, links):
    # each term's exponent is the image's polynomial; same exponents aggregate
    for m, n in ((1, 1), (2, 1), (1, 3)):
        inv = enhanced_invariant(links["trefoil"], racks["T5"], m, n)
        expected = {}
        for label, image, mult in inv.image_multiplicities:
            poly = subrack_polynomial(racks["T5"], image, m, n)
            expected[(label, poly)] = expected.get((label, poly), 0) + mult
        assert {(label, poly): mult for label, poly, mult in inv.pairs} == expected


def test_enhanced_specializes_to_counting(racks, links):
    for diagram in links.values():
        for name in ("triv2", "dihedral3", "ex2", "T5"):
            inv = enhanced_invariant(diagram, racks[name])
            _, per_class = rack_counting(diagram, racks[name])
            assert inv.counting_string() == counting_polynomial_string(per_class)
            assert inv.class_counts() == per_class


def test_enhanced_agrees_across_equivalent_diagrams(racks, links):
    for name in ("T5", "dihedral3"):
        table = racks[name]
        base = enhanced_invariant(links["trefoil"], table)
        for variant in ("trefoil_r2", "trefoil_r1pair", "trefoil_kink"):
            other = enhanced_invariant(links[variant], table)
            assert other.pairs == base.pairs
            assert other.enhanced_string(True) == base.enhanced_string(True)


def test_framing_sweep_is_periodic(racks, links):
    # one full period of extra kinks on any component changes nothing
    t5 = racks["T5"]
    for name in ("trefoil", "unknot", "hopf"):
        diagram = links[name]
        comps, _ = components_and_writhe(diagram)
        period = rack_rank(t5)
        for i in range(len(comps)):
            bumped = add_kinks(
                diagram, tuple(period if j == i else 0 for j in range(len(comps))))
            assert enhanced_invariant(bumped, t5).pairs == enhanced_invariant(
                diagram, t5).pairs


def test_quandle_images_uniform_across_classes(racks, links):
    # subracks that are quandles contribute identically to every framing class
    t5 = racks["T5"]
    inv = enhanced_invariant(links["trefoil"], t5)
    by_label = {}
    for label, image, mult in inv.image_multiplicities:
        if rack_rank(t5.subtable(image)) == 1:
            by_label.setdefault(label, []).append((image, mult))
    assert by_label[(0,)] == by_label[(1,)]


# -- the cut search against a literal framing sweep --------------------------


def sweep_oracle(diagram, table):
    """Per-class counts and (class, image) multiplicities from a literal
    sweep: add_kinks for every framing vector, then brute-force colorings."""
    entries = table.entries
    big_n = oracles.diagonal_order(entries)
    comps, writhes = components_and_writhe(diagram)
    per_class, images = {}, {}
    for kinks in product(range(big_n), repeat=len(comps)):
        label = tuple((w + k) % big_n for w, k in zip(writhes, kinks))
        found = oracle_colorings(add_kinks(diagram, kinks), table)
        per_class[label] = per_class.get(label, 0) + len(found)
        for coloring in found:
            image = oracles.closure(entries, set(coloring.values()))
            images[label, image] = images.get((label, image), 0) + 1
    return per_class, images


def mirror(diagram):
    return LinkDiagram(
        tuple(Crossing(-c.sign, c.over, c.under_in, c.under_out)
              for c in diagram.crossings),
        diagram.free_arcs)


def relabelled(diagram, ids):
    """The crossings and free arcs with the i-th least arc renamed ids[i]."""
    new = dict(zip(diagram.arcs, ids)).__getitem__
    return ([Crossing(c.sign, new(c.over), new(c.under_in), new(c.under_out))
             for c in diagram.crossings], list(map(new, diagram.free_arcs)))


def interleave(first, second):
    """Disjoint union with the first diagram's arcs on odd ids and the
    second's on even ids in reverse order, so that the search alternates
    between the two and the second's anchors are its old greatest arcs."""
    c1, f1 = relabelled(first, range(1, 2 * len(first.arcs), 2))
    c2, f2 = relabelled(second, range(2 * len(second.arcs), 0, -2))
    return LinkDiagram(tuple(c1 + c2), tuple(sorted(f1 + f2)))


def unions():
    trefoil, hopf = load_link("trefoil"), load_link("hopf")
    curl = LinkDiagram((Crossing(1, 1, 1, 1),))
    return [
        interleave(trefoil, hopf),
        interleave(mirror(hopf), load_link("trefoil_kink")),
        interleave(trefoil, mirror(trefoil)),
        interleave(interleave(hopf, load_link("unknot")), curl),
        interleave(add_kinks(hopf, (1, 0)), curl),
    ]


def sweep_diagrams():
    fixtures = [load_link(name) for name in LINK_NAMES]
    unknot, hopf = load_link("unknot"), load_link("hopf")
    return (fixtures + [mirror(d) for d in fixtures] + [
        add_kinks(unknot, (1,)),
        add_kinks(unknot, (2,)),
        add_kinks(hopf, (1, 0)),
        add_kinks(mirror(hopf), (0, 2)),
        add_kinks(mirror(load_link("trefoil")), (1,)),
        # a free loop passing over a two-arc component
        LinkDiagram((Crossing(1, 3, 1, 2), Crossing(-1, 3, 2, 1)), (3,)),
        # the Hopf link beside a free loop
        LinkDiagram(hopf.crossings, (3,)),
        # hand-built one-arc curls, one beside a free loop
        LinkDiagram((Crossing(1, 1, 1, 1),)),
        LinkDiagram((Crossing(-1, 1, 1, 1),), (2,)),
        LinkDiagram((), (1, 2)),
        LinkDiagram(()),
        *UNIONS,
    ])


UNIONS = unions()
SWEEP_DIAGRAMS = sweep_diagrams()


def sweep_cost(diagram, table):
    """Assignments the oracle checks: n^arcs times, per component, the
    kinks' extra arcs summed over one period."""
    n = table.n
    big_n = oracles.diagonal_order(table.entries)
    per_component = sum(n ** k for k in range(big_n))
    return n ** len(diagram.arcs) * per_component ** len(diagram.components)


def assert_matches_sweep(diagram, table, m, n, convention):
    per_class, images = sweep_oracle(diagram, table)

    total, counted = rack_counting(diagram, table)
    assert list(counted.items()) == sorted(per_class.items())
    assert total == sum(per_class.values())

    inv = enhanced_invariant(diagram, table, m, n, convention)
    assert inv.image_multiplicities == tuple(
        sorted((label, image, mult) for (label, image), mult in images.items()))
    assert inv.class_counts() == dict(sorted(per_class.items()))
    expected = {}
    for (label, image), mult in images.items():
        terms = tuple((s, t, c) for (s, t), c in sorted(oracles.poly_terms(
            table.entries, m, n, convention, image).items()))
        expected[label, terms] = expected.get((label, terms), 0) + mult
    assert {(label, poly.terms): mult for label, poly, mult in inv.pairs} == expected
    assert [(label, str(poly)) for label, poly, _ in inv.pairs] == sorted(
        (label, str(poly)) for label, poly, _ in inv.pairs)


SWEEP_BUDGET = 20000


def product_table(a, b):
    """Componentwise product of two operation tables."""
    nb = len(b)
    pairs = list(product(range(len(a)), range(nb)))
    return tuple(
        tuple((a[x1][y1] - 1) * nb + b[x2][y2] for y1, y2 in pairs)
        for x1, x2 in pairs)


def test_framed_counts_match_sweep_oracle_on_fixture_racks():
    # In the product of a swap x ▷ y = σ(x) with the dihedral quandle, one
    # orbit of the operator group holds several π-orbits, so a cut end can
    # be colored outside its anchor's π-orbit and must be pruned.
    swap_by_dihedral = product_table(((2, 2), (1, 1)), RACK_TABLES["dihedral3"])
    for entries in [RACK_TABLES[name] for name in sorted(RACK_TABLES)] + [
            swap_by_dihedral]:
        table = RackTable(entries)
        for diagram in SWEEP_DIAGRAMS:
            if sweep_cost(diagram, table) <= SWEEP_BUDGET:
                assert_matches_sweep(diagram, table, 2, 3, "prop3")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_framed_counts_match_sweep_oracle(data):
    table = data.draw(st.integers(1, 5).flatmap(generated_racks))
    diagram = data.draw(st.sampled_from(
        [d for d in SWEEP_DIAGRAMS if sweep_cost(d, table) <= SWEEP_BUDGET]))
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    convention = data.draw(st.sampled_from(("def", "prop3")))
    assert_matches_sweep(diagram, table, m, n, convention)


# -- one search per inner-automorphism orbit ---------------------------------


# connected quandles, so a trivial union of them has one Inn-orbit per block
ORBIT_BLOCKS = (alexander(5, 2).entries, alexander(7, 3).entries,
                alexander(9, 2).entries)
# racks that are not quandles, with π-orbits of lengths 2 and 3, 1 and 2,
# and 1 and 4, and Inn-orbits that are those π-orbits
FRAMED_BLOCKS = (
    constant_action(Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])).entries,
    constant_action(Permutation.from_cycles(3, [(2, 3)])).entries,
    ts_rack(5, 2, 0).entries)


def orbit_racks():
    """Strategy: a relabelled trivial union of two or three connected
    quandles, at most 21 elements, whose Inn-orbits have sizes 5, 7 or 9;
    or of one such quandle with one or two non-quandle blocks, at most 15
    elements, whose orbits differ in size and in π-orbit length."""
    quandles = st.lists(st.sampled_from(ORBIT_BLOCKS), min_size=2, max_size=3)
    framed = st.builds(lambda first, rest: [first, *rest],
                       st.sampled_from(ORBIT_BLOCKS[:2]),
                       st.lists(st.sampled_from(FRAMED_BLOCKS),
                                min_size=1, max_size=2))
    unions = st.one_of(
        quandles.filter(lambda blocks: sum(map(len, blocks)) <= 21),
        framed.filter(lambda blocks: sum(map(len, blocks)) <= 15)).map(
        lambda blocks: reduce(trivial_union, blocks))
    return unions.flatmap(lambda entries: st.permutations(
        range(1, len(entries) + 1)).map(
        lambda images: RackTable(relabel(entries, images))))


@st.composite
def small_braid_closures(draw):
    """The closure of a braid word on 2-4 strands with at most two
    components, so that the full search stays small at 21 colors."""
    strands = draw(st.integers(2, 4))
    word = draw(st.lists(letters(strands), min_size=1, max_size=7))
    diagram = braid_closure(strands, word)
    assume(len(diagram.components) <= 2)
    return diagram


@settings(max_examples=150, deadline=None)
@given(orbit_racks(), small_braid_closures())
def test_orbit_weighted_counts_match_the_full_search(table, diagram):
    # The framed counts search once per Inn-orbit representative and weight
    # or carry the result over the orbit; the full search of
    # enumerate_colorings tries every color, here on the diagram kinked by
    # every vector k in one period, each coloring counted in its framing
    # class (writhe + k) mod N.  A quandle has N = 1, so its one framing
    # class holds the diagram's own colorings.
    big_n = oracles.diagonal_order(table.entries)
    _, writhes = components_and_writhe(diagram)
    per_class = dict.fromkeys(product(range(big_n), repeat=len(writhes)), 0)
    images = Counter()
    for kinks in product(range(big_n), repeat=len(writhes)):
        label = tuple((w + k) % big_n for w, k in zip(writhes, kinks))
        colorings = enumerate_colorings(add_kinks(diagram, kinks), table)
        per_class[label] += len(colorings)
        images.update((label, oracles.closure(table.entries, set(c.values())))
                      for c in colorings)
    assert rack_counting(diagram, table) == (sum(per_class.values()), per_class)
    assert enhanced_invariant(diagram, table).image_multiplicities == tuple(
        (label, image, mult) for (label, image), mult in sorted(images.items()))


def test_orbit_search_answers_a_401_element_quandle_quickly(links):
    table = alexander(401, 2)
    table.report
    # the unknot's count builds the table's inverse columns, π-orbits and
    # Inn-orbits, once per table
    assert rack_counting(links["unknot"], table)[0] == 401
    for name in ("trefoil", "hopf"):
        start = time.perf_counter()
        total, _ = rack_counting(links[name], table)
        elapsed = time.perf_counter() - start
        assert total == 401
        # the quandle is connected, so the search colors the first arc 1
        # only, where trying all 401 colors there took 46-85 ms
        assert elapsed < 0.010


# -- braid closures joined by Markov moves -----------------------------------


@pytest.mark.parametrize("name", ["T5", "ex3", "dihedral3", "Q6"])
def test_closure_of_sigma_cubed_is_the_trefoil(racks, links, name):
    closed, table = braid_closure(2, (1, 1, 1)), racks[name]
    assert rack_counting(closed, table) == rack_counting(links["trefoil"], table)
    assert enhanced_invariant(closed, table).pairs == enhanced_invariant(
        links["trefoil"], table).pairs


def braid_racks():
    """Strategy: a fixture rack, a constant action with N > 1, a linear rack
    that is not a quandle, or a trivial union of two small racks."""
    fixtures = st.sampled_from(sorted(RACK_TABLES)).map(
        lambda name: RackTable(RACK_TABLES[name]))
    constant = st.integers(2, 5).flatmap(
        lambda n: st.permutations(range(1, n + 1))).filter(
        lambda images: images != sorted(images)).map(
        lambda images: constant_action(Permutation(tuple(images))))
    linear = st.sampled_from([
        (n, t, s) for n in range(2, 7) for t in range(1, n) for s in range(n)
        if math.gcd(t, n) == 1 and s * (1 - t - s) % n == 0
        and (t + s) % n != 1]).map(lambda args: ts_rack(*args))
    small = st.integers(1, 3).flatmap(generated_racks).map(
        lambda table: table.entries)
    unions = st.tuples(small, small).map(
        lambda pair: RackTable(trivial_union(*pair)))
    return st.one_of(fixtures, constant, linear, unions)


def letters(strands):
    return st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))


@st.composite
def markov_pairs(draw):
    """Two braid words, with their strand counts, whose closures are one
    link: a word and its image under a braid relation, an inserted
    σ_i σ_i⁻¹, a conjugation or a ± stabilization."""
    strands = draw(st.integers(2, 4))
    word = draw(st.lists(letters(strands), min_size=1, max_size=8))
    cut = draw(st.integers(0, len(word)))
    head, tail = word[:cut], word[cut:]
    moves = ["cancel", "conjugate", "stabilize"]
    moves += ["braid"] if strands > 2 else []
    moves += ["far"] if strands > 3 else []
    move = draw(st.sampled_from(moves))
    sign = draw(st.sampled_from((1, -1)))
    if move == "stabilize":
        return (strands, word), (strands + 1, [*word, sign * strands])
    if move in ("conjugate", "cancel"):
        g = draw(letters(strands))
        other = [g, *word, -g] if move == "conjugate" else [*head, g, -g, *tail]
        return (strands, word), (strands, other)
    if move == "braid":
        # σ_i σ_{i+1} σ_i = σ_{i+1} σ_i σ_{i+1}, or its inverse
        i = draw(st.integers(1, strands - 2))
        lhs = [sign * i, sign * (i + 1), sign * i]
        rhs = [sign * (i + 1), sign * i, sign * (i + 1)]
    else:
        # σ_i^a σ_j^b = σ_j^b σ_i^a when |i - j| > 1
        i = draw(st.integers(1, strands - 3))
        j = draw(st.integers(i + 2, strands - 1))
        lhs = [sign * i, draw(st.sampled_from((j, -j)))]
        rhs = lhs[::-1]
    return (strands, [*head, *lhs, *tail]), (strands, [*head, *rhs, *tail])


def is_knot(strands, word):
    position = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    return len(Permutation(tuple(p + 1 for p in position)).cycles) == 1


@settings(max_examples=300, deadline=None)
@given(braid_racks(), markov_pairs())
def test_braid_closures_agree_across_markov_moves(table, pair):
    # Markov: two closed braids are one link exactly when these moves join
    # their words (Kassel and Turaev, Braid Groups, GTM 247, 2008), and both
    # framed invariants sweep every framing, so they agree across R1 too.
    (strands, word), (other_strands, other_word) = pair
    first = braid_closure(strands, word)
    second = braid_closure(other_strands, other_word)
    total, per_class = rack_counting(first, table)
    other_total, other_per_class = rack_counting(second, table)
    assert total == other_total
    inv, other = (enhanced_invariant(d, table) for d in (first, second))
    assert inv.enhanced_string(False) == other.enhanced_string(False)
    if is_knot(strands, word):
        # components keep their order only when there is one
        assert per_class == other_per_class
        assert inv.pairs == other.pairs


def test_sweeps_never_rewrite_the_diagram(racks, links, monkeypatch):
    def refuse(*args):
        raise AssertionError("add_kinks called")
    monkeypatch.setattr(links_module, "add_kinks", refuse)
    assert rack_counting(links["hopf"], racks["T5"])[0] == 40
    assert enhanced_invariant(links["trefoil"], racks["T5"]).total == 20


def fixed_points(cycle_type, power):
    return sum(length for length in cycle_type if power % length == 0)


def test_rank_twelve_hopf_and_loop_matches_closed_form():
    # Hopf link plus a free loop against x ▷ y = σ(x), σ of cycle type (3, 4):
    # with k kinks a component passing under u arcs colors by the fixed
    # points of σ^(u + k), and the three components are independent.
    table = constant_action(Permutation.from_cycles(7, [(1, 2, 3), (4, 5, 6, 7)]))
    diagram = LinkDiagram(load_link("hopf").crossings, (3,))
    under = (1, 1, 0)
    start = time.perf_counter()
    total, per_class = rack_counting(diagram, table)
    elapsed = time.perf_counter() - start
    expected = {}
    for label in product(range(12), repeat=3):
        count = 1
        for u, k in zip(under, label):
            count *= fixed_points((3, 4), u + k)
        expected[label] = count
    assert per_class == expected
    assert total == sum(expected.values())
    assert elapsed < 5


def test_many_loop_unlink_has_no_recursion_limit(tmp_path, capsys):
    loops = 1200
    diagram = LinkDiagram((), tuple(range(1, loops + 1)))
    triv1 = RackTable(RACK_TABLES["triv1"])
    assert enumerate_colorings(diagram, triv1) == ({a: 1 for a in range(1, loops + 1)},)
    path = tmp_path / "unlink.link"
    path.write_text(json.dumps({"crossings": [], "free_arcs": list(range(1, loops + 1))}))
    code = main(["invariant", "--mode", "sr", str(path), str(FIXTURES / "triv1.rack")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "1\n", "")
