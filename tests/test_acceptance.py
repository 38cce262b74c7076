"""Acceptance gate: eight end-to-end checks, one reported line each.

Run with output capture disabled to see the per-criterion lines:

    pytest -s tests/test_acceptance.py
"""

import functools
import math
import random

from conftest import load_link, load_rack, oracle_colorings
from rackkit import (
    add_kinks,
    alexander,
    components_and_writhe,
    constant_action,
    counting_polynomial_string,
    enhanced_invariant,
    enumerate_colorings,
    image_subrack,
    isomorphic,
    rack_counting,
    rack_polynomial,
    rack_rank,
    rp_family_scan,
    validate_rack,
    verify_constant_action_classification,
    Permutation,
)


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "pinned polynomial values reproduced under canonical serialization")
def test_criterion_1_value_regression():
    ex3 = load_rack("ex3")
    mx, my = load_rack("MX6"), load_rack("MY6")
    assert str(rack_polynomial(ex3, 1, 1)) == "2*t + s^3*t"
    assert str(rack_polynomial(mx, 1, 1)) == "6"
    assert str(rack_polynomial(my, 1, 1)) == "6"
    assert str(rack_polynomial(mx, 2, 1)) == "6*s^6"
    assert str(rack_polynomial(my, 2, 1)) == "6"
    assert rack_polynomial(mx, 2, 1) != rack_polynomial(my, 2, 1)


@criterion(2, "trefoil suite: counts, framing classes, and enhanced polynomial")
def test_criterion_2_trefoil_suite():
    t5 = load_rack("T5")
    trefoil = load_link("trefoil")
    assert rack_rank(t5) == 2
    total, per_class = rack_counting(trefoil, t5)
    assert per_class[(1,)] == 9  # odd framing class
    assert per_class[(0,)] == 11  # even framing class
    assert total == 20
    assert counting_polynomial_string(per_class) == "11 + 9*q1"
    inv = enhanced_invariant(trefoil, t5)
    assert inv.enhanced_string(with_framing=True) == (
        "2*z^{2*s^3*t^3} + 6*z^{3*s^3*t^3} + 3*z^{s^3*t^3}"
        " + 6*q1*z^{3*s^3*t^3} + 3*q1*z^{s^3*t^3}")
    term_multiset = {(label, str(poly), mult) for label, poly, mult in inv.pairs}
    assert term_multiset == {
        ((0,), "2*s^3*t^3", 2),
        ((0,), "s^3*t^3", 3),
        ((0,), "3*s^3*t^3", 6),
        ((1,), "s^3*t^3", 3),
        ((1,), "3*s^3*t^3", 6),
    }


@criterion(3, "single-permutation closed form holds on 100 random samples")
def test_criterion_3_closed_form():
    rng = random.Random(7042026)
    for _ in range(100):
        k = rng.randint(1, 10)
        images = list(range(1, k + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        table = constant_action(sigma)
        a = sigma.power(n).fixed_count
        b = sigma.power(m).fixed_count
        expected = {}
        if b:
            expected[(k, a)] = b
        if k - b:
            expected[(0, a)] = k - b
        assert rack_polynomial(table, m, n, "def").as_dict() == expected
        expected_literal = {}
        if a:
            expected_literal[(b, k)] = a
        if k - a:
            expected_literal[(b, 0)] = k - a
        assert rack_polynomial(table, m, n, "prop3").as_dict() == expected_literal


@criterion(4, "affine cyclic tables: polynomial formula and property flags, n <= 30")
def test_criterion_4_affine_cyclic():
    for n in range(1, 31):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            table = alexander(n, t)
            a = math.gcd(n, 1 - t)
            assert n % a == 0
            assert rack_polynomial(table, 1, 1).as_dict() == {(a, a): n}
            report = validate_rack(table)
            assert report.is_crossed_set
            assert report.is_abelian


@criterion(5, "single-permutation tables to size 7: cycle type, isomorphism, scans")
def test_criterion_5_classification():
    for k in range(1, 8):
        report = verify_constant_action_classification(k)
        assert report.consistent
        for check in report.same_type:
            assert check.iso
            assert check.scan_empty
        for check in report.distinct_type:
            assert not check.iso
            d = check.first_difference
            assert d is not None
            assert rack_polynomial(
                constant_action(Permutation.from_cycles(
                    k, _consecutive(check.left_type))), d.m, d.n) != rack_polynomial(
                constant_action(Permutation.from_cycles(
                    k, _consecutive(check.right_type))), d.m, d.n)
    report6 = verify_constant_action_classification(6)
    assert len(report6.same_type) == 11
    pair = next(
        c for c in report6.distinct_type
        if c.left_type == (2, 2, 2) and c.right_type == (3, 3))
    left = constant_action(Permutation.from_cycles(6, _consecutive((2, 2, 2))))
    right = constant_action(Permutation.from_cycles(6, _consecutive((3, 3))))
    assert rack_polynomial(left, 1, 1) == rack_polynomial(right, 1, 1)
    assert (pair.first_difference.m, pair.first_difference.n) == (2, 1)


def _consecutive(cycle_type):
    cycles = []
    start = 1
    for length in cycle_type:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return cycles


@criterion(6, "six-element witness pair: properties, full scan agreement, non-isomorphism")
def test_criterion_6_counterexample():
    q6, r6 = load_rack("Q6"), load_rack("R6")
    report = validate_rack(q6)
    assert report.is_crossed_set
    assert not report.is_abelian
    assert q6.op(1, 4) == 1  # 1 fixed by 4
    assert q6.op(4, 2) == 4  # 4 fixed by 2
    assert q6.op(1, 2) != 1  # but 1 not fixed by 2
    scan = rp_family_scan(q6, r6, bound=12)
    assert scan.is_empty
    assert scan.complete_bound
    assert not isomorphic(q6, r6).isomorphic


@criterion(7, "framing invariance, diagram moves, and counting specialization")
def test_criterion_7_invariance():
    t5 = load_rack("T5")
    d3 = load_rack("dihedral3")
    trefoil = load_link("trefoil")
    diagrams = {name: load_link(name) for name in (
        "trefoil", "unknot", "hopf", "trefoil_kink", "trefoil_r2", "trefoil_r1pair")}

    # adding a full period of kinks to any one component changes nothing
    for name in ("trefoil", "unknot", "hopf"):
        diagram = diagrams[name]
        comps, _ = components_and_writhe(diagram)
        period = rack_rank(t5)
        base_count = len(enumerate_colorings(diagram, t5))
        base_images = sorted(
            image_subrack(t5, c) for c in enumerate_colorings(diagram, t5))
        for i in range(len(comps)):
            bumped = add_kinks(
                diagram, tuple(period if j == i else 0 for j in range(len(comps))))
            assert len(enumerate_colorings(bumped, t5)) == base_count
            assert sorted(
                image_subrack(t5, c) for c in enumerate_colorings(bumped, t5)
            ) == base_images

    # planar move variants of the trefoil give identical enhanced invariants
    for table in (t5, d3):
        base = enhanced_invariant(trefoil, table)
        for variant in ("trefoil_r2", "trefoil_r1pair", "trefoil_kink"):
            assert enhanced_invariant(diagrams[variant], table).pairs == base.pairs

    # setting z to 1 in every term recovers the counting polynomial
    for diagram in diagrams.values():
        for rack_name in ("triv2", "ex2", "ex3", "dihedral3", "T5"):
            table = load_rack(rack_name)
            inv = enhanced_invariant(diagram, table)
            _, per_class = rack_counting(diagram, table)
            assert inv.class_counts() == per_class
            assert inv.counting_string() == counting_polynomial_string(per_class)

    # quandle images contribute identically to both trefoil framing classes
    inv = enhanced_invariant(trefoil, t5)
    by_label = {(0,): [], (1,): []}
    for label, image, mult in inv.image_multiplicities:
        if rack_rank(t5.subtable(image)) == 1:
            by_label[label].append((image, mult))
    assert by_label[(0,)] == by_label[(1,)]


@criterion(8, "scheduled enumeration equals exhaustive enumeration on all fixtures")
def test_criterion_8_oracle_equivalence():
    rack_names = ("triv1", "triv2", "dihedral3", "ex2", "ex3", "T5")
    diagrams = [load_link(name) for name in (
        "trefoil", "unknot", "hopf", "trefoil_kink", "trefoil_r2", "trefoil_r1pair")]
    unknot, trefoil = load_link("unknot"), load_link("trefoil")
    diagrams += [add_kinks(unknot, (d,)) for d in (1, 2, 3)]
    diagrams += [add_kinks(trefoil, (2,))]
    for diagram in diagrams:
        assert len(diagram.arcs) <= 6
        for name in rack_names:
            table = load_rack(name)
            assert table.n <= 5
            lib = [dict(c) for c in enumerate_colorings(diagram, table)]
            assert lib == oracle_colorings(diagram, table)

    # the pinned counts used throughout the suite re-derive from the oracle
    t5 = load_rack("T5")
    assert len(oracle_colorings(trefoil, t5)) == 9
    assert len(oracle_colorings(load_link("trefoil_kink"), t5)) == 11
    assert len(oracle_colorings(load_link("hopf"), t5)) == 15
    assert len(oracle_colorings(unknot, t5)) == 5
    assert len(oracle_colorings(add_kinks(unknot, (1,)), t5)) == 3
