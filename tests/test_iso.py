"""Isomorphism search, polynomial-family scans, and the classification check."""

import copy
import hashlib
import inspect
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from itertools import combinations, islice, product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (generated_racks, relabel, trivial_union,
                      ts_non_quandle_params)
from rackkit import (
    Permutation,
    RackError,
    RackTable,
    TwoVarPoly,
    alexander,
    column_order_lcm,
    constant_action,
    dual,
    isomorphic,
    partitions,
    permutation_of_type,
    rack_polynomial,
    rp_family_scan,
    ts_rack,
    verify_constant_action_classification,
)
from rackkit import core as rackkit_core
from rackkit import iso as iso_module
from rackkit.poly import _counts, _lengths


def relabeled(table: RackTable, tau: Permutation) -> RackTable:
    n = table.n
    entries = [[0] * n for _ in range(n)]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            entries[tau(x) - 1][tau(y) - 1] = tau(table.op(x, y))
    return RackTable(tuple(tuple(row) for row in entries))


def random_perm(n: int, rng: random.Random) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


@st.composite
def rack_pairs(draw, max_size=7):
    """Two racks of one size: a relabeled copy, the dual, a relabeled
    constant action of one type, or an independent draw.  The first three
    have equal per-orbit cycle profiles, so a scan of them is settled by
    rp_family_scan's certificate."""
    n = draw(st.integers(1, max_size))
    tau = Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))
    kind = draw(st.sampled_from(("relabeled", "dual", "constant", "other")))
    if kind == "constant":
        sigma = Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))
        return (constant_action(sigma),
                constant_action(sigma.conjugated_by(tau)))
    a = draw(generated_racks(n))
    if kind == "relabeled":
        return a, relabeled(a, tau)
    if kind == "dual":
        return a, dual(a)
    return a, draw(generated_racks(n))


# -- isomorphism -------------------------------------------------------------


def test_fixture_pairs(racks):
    assert not isomorphic(racks["MX6"], racks["MY6"]).isomorphic
    assert not isomorphic(racks["Q6"], racks["R6"]).isomorphic
    assert isomorphic(racks["T5"], racks["T5"]).isomorphic
    assert isomorphic(racks["dihedral3"], alexander(3, 2)).isomorphic
    assert not isomorphic(alexander(13, 2), alexander(13, 6)).isomorphic
    assert not isomorphic(racks["T5"], racks["Q6"]).isomorphic  # size mismatch


def test_witness_is_an_isomorphism(racks):
    for name in ("T5", "Q6", "dihedral3"):
        table = racks[name]
        result = isomorphic(table, table)
        assert result.isomorphic
        tau = result.witness
        for x in table.elements:
            for y in table.elements:
                assert tau(table.op(x, y)) == table.op(tau(x), tau(y))


def test_negative_result_has_no_witness(racks):
    result = isomorphic(racks["MX6"], racks["MY6"])
    assert result.witness is None


def test_relabeling_is_detected(racks):
    rng = random.Random(41522)
    for name in ("T5", "Q6", "R6", "ex3"):
        table = racks[name]
        for _ in range(5):
            other = relabeled(table, random_perm(table.n, rng))
            forward = isomorphic(table, other)
            assert forward.isomorphic
            assert isomorphic(other, table).isomorphic
            tau = forward.witness
            for x in table.elements:
                for y in table.elements:
                    assert tau(table.op(x, y)) == other.op(tau(x), tau(y))


def test_conjugate_constant_actions():
    a = constant_action(Permutation((2, 1, 3, 4)))
    b = constant_action(Permutation((1, 2, 4, 3)))
    assert isomorphic(a, b).isomorphic
    c = constant_action(Permutation((2, 3, 1, 4)))
    assert not isomorphic(a, c).isomorphic


def test_exhaustive_search_on_alike_elements():
    # 3 and 5 both have order 16 mod 17, so every element of both tables
    # has the same invariant key and only products can rule maps out
    a = alexander(17, 3)
    b = relabeled(alexander(17, 5), random_perm(17, random.Random(17)))
    start = time.perf_counter()
    result = isomorphic(a, b)
    elapsed = time.perf_counter() - start
    assert not result.isomorphic and result.witness is None
    # a fraction of a second; the bound catches only a large slowdown
    assert elapsed < 5


def test_a_failed_branch_releases_every_image_it_used():
    # ts_rack(16, 7, 8) has the greedy generators 1 and 2.  Against this
    # relabelling, 1 goes to 1, and some of 2's images fail where the
    # element placed at image 1 meets a product that asks for another
    # image, one already taken by the y ▷ x half of the propagation.  A
    # used image holds 0, which no placed element's image equals, so the
    # branch fails there.  Were such an image marked 1 instead, the
    # element at image 1 would be placed again, the branch's undo would
    # leave image 1 taken, and the search would find no isomorphism
    a = ts_rack(16, 7, 8)
    images = [7, 4, 15, 12, 14, 16, 6, 5, 1, 13, 9, 2, 11, 10, 8, 3]
    b = RackTable(relabel(a.entries, images))
    result = isomorphic(a, b)
    assert result.isomorphic
    assert oracles.is_isomorphism(a.entries, b.entries, result.witness.images)


def test_alike_elements_at_101():
    # 2 and 3 both have order 100 mod 101, so again every key is equal;
    # only the two generators of alexander(101, 2) are branched on
    a = alexander(101, 2)
    rng = random.Random(101)
    start = time.perf_counter()
    result = isomorphic(a, relabeled(alexander(101, 3), random_perm(101, rng)))
    elapsed = time.perf_counter() - start
    assert not result.isomorphic and result.witness is None
    # tens of milliseconds; the bound catches only a large slowdown
    assert elapsed < 5
    other = relabeled(a, random_perm(101, rng))
    result = isomorphic(a, other)
    assert result.isomorphic
    assert oracles.is_isomorphism(a.entries, other.entries,
                                  result.witness.images)


def test_long_generating_sequences():
    # a trivial rack needs every element as a generator, and each fixed
    # point of a constant action is a generator of its own
    rng = random.Random(12)
    types = [(1,) * 12, (2,) + (1,) * 10, (3,) + (1,) * 9,
             (2, 2) + (1,) * 8, (4,) + (1,) * 8, (3, 2) + (1,) * 7,
             (2, 2, 2) + (1,) * 6]
    tables = {ct: constant_action(permutation_of_type(ct, shuffle_seed=3))
              for ct in types}
    tables[(1,) * 12] = alexander(12, 1)
    for ct, table in tables.items():
        for other_ct in types:
            other = constant_action(permutation_of_type(other_ct))
            if other_ct == ct:
                other = relabeled(other, random_perm(12, rng))
            result = isomorphic(table, other)
            assert result.isomorphic == (other_ct == ct)
            if result.isomorphic:
                assert oracles.is_isomorphism(table.entries, other.entries,
                                              result.witness.images)
            else:
                assert result.witness is None


def test_search_keeps_its_own_stack():
    # every element of a trivial rack is a generator, so a search that
    # recursed once per generator would need about 200 frames
    a = constant_action(Permutation.identity(200))
    b = relabeled(a, random_perm(200, random.Random(200)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result = isomorphic(a, b)
    finally:
        sys.setrecursionlimit(limit)
    assert result.isomorphic
    assert oracles.is_isomorphism(a.entries, b.entries, result.witness.images)


@settings(max_examples=200, deadline=None)
@given(rack_pairs(max_size=6))
def test_isomorphic_matches_brute_force(pair):
    a, b = pair
    found = oracles.isomorphic(a.entries, b.entries)
    result = isomorphic(a, b)
    assert result.isomorphic == (found is not None)
    if result.isomorphic:
        assert oracles.is_isomorphism(a.entries, b.entries,
                                      result.witness.images)
    else:
        assert result.witness is None


@st.composite
def many_orbit_racks(draw, n):
    """A rack on n shuffled elements: a trivial union of two or three
    blocks, a constant action, a linear rack that is not a quandle, or
    any generated rack.  The first two have several Inn-orbits, and a
    constant action's orbits are its permutation's cycles."""
    kinds = ["union", "constant", "generated"]
    non_quandles = ts_non_quandle_params([n])
    if non_quandles:
        kinds.append("ts")
    kind = draw(st.sampled_from(kinds))
    if kind == "union" and n > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1,
                                   max_size=2)))
        sizes = [end - start for start, end in zip([0, *cuts], [*cuts, n])]
        entries = reduce(trivial_union,
                         (draw(generated_racks(k)).entries for k in sizes))
    elif kind == "constant":
        images = draw(st.permutations(list(range(1, n + 1))))
        entries = constant_action(Permutation(tuple(images))).entries
    elif kind == "ts":
        entries = ts_rack(*draw(st.sampled_from(non_quandles))).entries
    else:
        entries = draw(generated_racks(n)).entries
    return RackTable(relabel(entries,
                             draw(st.permutations(list(range(1, n + 1))))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_has_the_least_first_image(data):
    # the search branches 1 over one image per Inn(b)-orbit, its least,
    # so its witness must still send 1 to the least image any isomorphism
    # gives it; the oracle's first isomorphism in lex order has that image
    n = data.draw(st.integers(1, 7))
    a = data.draw(many_orbit_racks(n))
    if data.draw(st.booleans()):
        images = data.draw(st.permutations(list(range(1, n + 1))))
        b = RackTable(relabel(a.entries, images))
    else:
        b = data.draw(many_orbit_racks(n))
    found = oracles.isomorphic(a.entries, b.entries)
    result = isomorphic(a, b)
    assert result.isomorphic == (found is not None)
    if found is None:
        assert result.witness is None
    else:
        assert oracles.is_isomorphism(a.entries, b.entries,
                                      result.witness.images)
        assert result.witness.images[0] == found[0]


def witness_pairs():
    """42 seeded pairs (a, b): 14 racks a, each against a seeded
    relabelling of itself and against two other racks of its size.  The
    racks are Alexander quandles up to n = 31, linear racks on 4, 6, 8
    and 9 elements, constant actions and trivial unions of two and three
    blocks.  Against the linear racks' relabellings, a search that kept
    a failed branch's images would find other witnesses."""
    rng = random.Random(56)
    racks = [(alexander(n, t), alexander(n, u), alexander(n, v))
             for n, t, u, v in ((5, 2, 3, 4), (7, 3, 5, 2), (12, 5, 7, 11),
                                (13, 2, 6, 7), (31, 3, 11, 17))]
    for params in (((4, 1, 2), (4, 3, 0), (4, 3, 2)),
                   ((6, 5, 2), (6, 5, 0), (6, 1, 0)),
                   ((8, 3, 2), (8, 1, 4), (8, 5, 4)),
                   ((9, 2, 8), (9, 1, 3), (9, 4, 3))):
        racks.append(tuple(ts_rack(*p) for p in params))
    for ct, other in (((3, 2, 1), (3, 3)), ((2, 2, 1, 1), (2, 1, 1, 1, 1)),
                      ((4, 3), (7,))):
        racks.append((constant_action(permutation_of_type(ct, 5)),
                      constant_action(permutation_of_type(ct)),
                      constant_action(permutation_of_type(other))))
    d3, a5 = alexander(3, 2).entries, alexander(5, 2).entries
    c3 = constant_action(permutation_of_type((2, 1))).entries
    for blocks, others in (((d3, a5), ((a5, d3), (c3, a5))),
                           ((d3, c3, d3), ((c3, d3, d3), (d3, d3, c3)))):
        racks.append(tuple(RackTable(reduce(trivial_union, b))
                           for b in (blocks, *others)))
    for a, *others in racks:
        images = list(a.elements)
        rng.shuffle(images)
        for b in (RackTable(relabel(a.entries, images)), *others):
            yield a, b


# the SHA-256 of one line per pair of ``witness_pairs``: its witness's
# images, or None
WITNESS_DIGEST = "7eb852b03bec756a1cdb7102df7ca723e044fee3a123965ad554c437ea407a1e"


def test_witnesses_match_their_pins():
    # the search's witness is the least isomorphism in the order it
    # branches, so a change to the search that keeps its order keeps
    # every witness, not only each first image
    lines = []
    for a, b in witness_pairs():
        result = isomorphic(a, b)
        if result.isomorphic:
            assert oracles.is_isomorphism(a.entries, b.entries,
                                          result.witness.images)
        lines.append(f"{result.witness and result.witness.images}\n")
    assert len(lines) == 42
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == WITNESS_DIGEST


def test_every_rack_of_order_at_most_4():
    # the oracle builds every labelled rack without the library: 1, 2, 13
    # and 114 of them, in 1, 2, 6 and 19 classes, the published counts
    census = {n: oracles.racks(n) for n in range(1, 5)}
    classes = {entries: oracles.canonical(entries)
               for found in census.values() for entries in found}
    assert [len(found) for found in census.values()] == [1, 2, 13, 114]
    assert [len({classes[e] for e in found})
            for found in census.values()] == [1, 2, 6, 19]
    tables = [RackTable(entries) for entries in classes]
    for a, b in product(tables, repeat=2):
        result = isomorphic(a, b)
        assert result.isomorphic == (classes[a.entries] == classes[b.entries])
        if result.isomorphic:
            assert oracles.is_isomorphism(a.entries, b.entries,
                                          result.witness.images)
        else:
            assert result.witness is None


def test_alike_connected_quandles_at_401():
    # 3 and 6 both have order 400 mod 401, so every invariant key is
    # equal; b is one Inn-orbit, so 1 tries one image where it tried 401
    a = alexander(401, 3)
    images = list(range(1, 402))
    random.Random(401).shuffle(images)
    b = RackTable(relabel(alexander(401, 6).entries, images))
    b.require_rack()  # validating b is not the search's work
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        result = isomorphic(a, b)
        elapsed.append(time.perf_counter() - start)
    assert not result.isomorphic and result.witness is None
    # a few milliseconds, where branching 1 over every element took
    # about a second; the bound catches only a large slowdown
    assert min(elapsed) < 0.1


def test_six_block_union_against_one_changed_block():
    # six copies of alexander(5, 2) against five and one alexander(5, 3):
    # every invariant key is equal, so only products tell them apart.  A
    # deeper generator tries one image per orbit of the columns that fix
    # the images placed before it; trying every element took about 0.9 s
    # at four blocks and 144 s at five
    q, other = alexander(5, 2).entries, alexander(5, 3).entries
    a = RackTable(reduce(trivial_union, [q] * 6))
    b = RackTable(reduce(trivial_union, [q] * 5 + [other]))
    for table in (a, b):
        table.require_rack()  # validating is not the search's work
    start = time.perf_counter()
    result = isomorphic(a, b)
    elapsed = time.perf_counter() - start
    assert not result.isomorphic and result.witness is None
    # tens of milliseconds; the bound catches only a large slowdown
    assert elapsed < 1


def test_blind_search_accepts_only_isomorphisms(monkeypatch):
    # with every invariant key equal only products prune the search, and
    # on these order-4 racks it reaches maps that break some product
    # unless the newly placed element is checked as left factor, as right
    # factor and as product
    monkeypatch.setattr(iso_module, "_invariant_keys", lambda t: [()] * t.n)
    three_cycles = [RackTable(((1, 3, 1, 1), (2, 2, 2, 2), (3, 4, 3, 3),
                               (4, 1, 4, 4))),
                    RackTable(((1, 1, 1, 1), (3, 2, 2, 2), (4, 3, 3, 3),
                               (2, 4, 4, 4))),
                    RackTable(((1, 1, 1, 1), (4, 2, 2, 2), (2, 3, 3, 3),
                               (3, 4, 4, 4)))]
    transpositions = [RackTable(((1, 1, 1, 1), (2, 2, 2, 3), (3, 3, 3, 2),
                                 (4, 4, 4, 4))),
                      RackTable(((1, 1, 4, 1), (2, 2, 2, 2), (3, 3, 3, 3),
                                 (4, 4, 1, 4))),
                      RackTable(((1, 4, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3),
                                 (4, 1, 4, 4)))]
    tables = three_cycles + transpositions
    for a in tables:
        for b in tables:
            result = isomorphic(a, b)
            found = oracles.isomorphic(a.entries, b.entries)
            assert result.isomorphic == (found is not None)
            if found is not None:
                assert oracles.is_isomorphism(a.entries, b.entries,
                                              result.witness.images)
    # all keys are equal on these affine quandles anyway, and n! is out of
    # the oracle's reach: alexander(17, t) are isomorphic only for equal t
    a = alexander(17, 3)
    for t in (3, 5):
        b = relabeled(alexander(17, t), random_perm(17, random.Random(t)))
        result = isomorphic(a, b)
        assert result.isomorphic == (t == 3)
        if result.isomorphic:
            assert oracles.is_isomorphism(a.entries, b.entries,
                                          result.witness.images)


def test_full_morphism_check_runs_once_on_the_witness(racks, monkeypatch):
    # every product is checked during the search, so only the witness is
    # verified in full, and a failed search verifies nothing
    calls = []
    real = iso_module._is_morphism
    monkeypatch.setattr(iso_module, "_is_morphism",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(6)
    for name in ("T5", "Q6", "R6", "dihedral3"):
        table = racks[name]
        calls.clear()
        assert isomorphic(table, relabeled(table, random_perm(table.n, rng))
                          ).isomorphic
        assert len(calls) == 1
    calls.clear()
    assert not isomorphic(alexander(17, 3),
                          relabeled(alexander(17, 5),
                                    random_perm(17, rng))).isomorphic
    assert not isomorphic(racks["MX6"], racks["MY6"]).isomorphic
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(generated_racks), st.data())
def test_morphism_check_agrees_on_both_kernels(table, data):
    # the final witness check, on a relabelling and on an arbitrary
    # bijection, through the bytes kernel and, with the limit at 0, the
    # itemgetter one
    n = table.n
    images = data.draw(st.permutations(list(range(1, n + 1))))
    other = data.draw(st.permutations(list(range(1, n + 1))))
    entries = relabel(table.entries, images)
    for f in (images, other):
        expected = oracles.is_isomorphism(table.entries, entries, tuple(f))
        assert expected or f is other
        for limit in (rackkit_core._BYTE_LIMIT, 0):
            with patch.object(rackkit_core, "_BYTE_LIMIT", limit):
                a, b = RackTable(table.entries), RackTable(entries)
                assert iso_module._is_morphism(a, b, [0, *f]) == expected


def test_column_facts_build_no_permutations(monkeypatch):
    # the column period, the scan's lengths and the isomorphism keys are
    # read from the table's cached cycle lengths, not from Permutations
    a, b = alexander(31, 2), alexander(31, 3)
    built = []
    real = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__",
                        lambda self: built.append(self) or real(self))
    assert column_order_lcm(a) == 5
    assert not rp_family_scan(a, b).is_empty
    assert not isomorphic(a, b).isomorphic
    assert built == []


# -- polynomial family scans --------------------------------------------------


def test_scan_finds_first_difference(racks):
    scan = rp_family_scan(racks["MX6"], racks["MY6"], bound=3)
    assert not scan.is_empty
    first = scan.first_difference()
    assert (first.m, first.n) == (2, 1)
    assert str(first.left) == "6*s^6"
    assert str(first.right) == "6"
    assert scan.lines()[0] == "(2,1): 6*s^6 != 6"


def test_scan_visits_depths_in_n_major_order(racks):
    scan = rp_family_scan(racks["MX6"], racks["MY6"], bound=3)
    assert [(d.m, d.n) for d in scan.differences] == [
        (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]


def test_scan_agreement_cases(racks):
    scan = rp_family_scan(racks["Q6"], racks["R6"], bound=12)
    assert scan.is_empty
    assert scan.complete_bound
    assert scan.first_difference() is None
    assert scan.lines() == []
    assert rp_family_scan(racks["T5"], racks["T5"]).is_empty


def test_scan_default_bound_is_column_period(racks):
    scan = rp_family_scan(racks["Q6"], racks["R6"])
    assert scan.bound == 2 and scan.complete_bound
    assert rp_family_scan(racks["ex2"], racks["ex2"]).bound == 3


def test_scan_bound_flags(racks):
    shallow = rp_family_scan(racks["ex2"], racks["ex2"], bound=1)
    assert shallow.bound == 1 and not shallow.complete_bound
    # MX6 and MY6 first differ at depths (2, 1), past this bound
    assert rp_family_scan(racks["MX6"], racks["MY6"], bound=1,
                          stop_at_first=True).is_empty
    with pytest.raises(RackError, match="bound"):
        rp_family_scan(racks["ex2"], racks["ex2"], bound=0)


def test_scan_stop_at_first(racks):
    scan = rp_family_scan(racks["MX6"], racks["MY6"], bound=6, stop_at_first=True)
    assert len(scan.differences) == 1
    assert (scan.differences[0].m, scan.differences[0].n) == (2, 1)


def test_scan_respects_convention(racks):
    full = rp_family_scan(racks["MX6"], racks["MY6"], bound=2, convention="prop3")
    first = full.first_difference()
    assert (first.m, first.n) == (2, 1)


def test_isomorphic_tables_scan_empty(racks):
    rng = random.Random(551)
    for name in ("T5", "Q6", "ex3"):
        table = racks[name]
        other = relabeled(table, random_perm(table.n, rng))
        assert rp_family_scan(table, other).is_empty


def constant_pair(type_a, type_b):
    return (constant_action(permutation_of_type(type_a)),
            constant_action(permutation_of_type(type_b)))


# orbits of different sizes share a key: in (2,3) against (5) every count
# is 0 at (1, 1) and 5 at (30, 30), in (1,1,2) against (2,2) every count
# is 4 at (2, 2), so the sides agree there only once equal keys are merged;
# a quarter of rack_pairs are independent draws, so 240 examples run the
# class loop about as often as 120 did when half were
@settings(max_examples=240, deadline=None)
@given(rack_pairs(), st.sampled_from(("def", "prop3")), st.booleans(),
       st.sampled_from(("default", "one", "below", "equal", "above",
                        "periods")))
@example(constant_pair((2, 3), (5,)), "def", False, "default")
@example(constant_pair((2, 3), (5,)), "prop3", False, "periods")
@example(constant_pair((1, 1, 2), (2, 2)), "def", False, "default")
@example(constant_pair((1, 1, 2), (2, 2)), "prop3", False, "above")
# the families benchmark's one pair that runs the class loop, as a listing
# and as a first-difference scan, in each convention
@example(constant_pair((3, 4, 5), (2, 5, 5)), "def", False, "default")
@example(constant_pair((3, 4, 5), (2, 5, 5)), "prop3", False, "default")
@example(constant_pair((3, 4, 5), (2, 5, 5)), "def", True, "default")
@example(constant_pair((3, 4, 5), (2, 5, 5)), "prop3", True, "default")
def test_scan_matches_oracle_grid(pair, convention, stop_at_first, bound_kind):
    a, b = pair
    period = max(oracles.period(a.entries), oracles.period(b.entries))
    # depth classes repeat with the lcm of every cycle length of both
    # tables; k·L + r depths hold whole periods and a remainder
    common = math.lcm(oracles.period(a.entries), oracles.period(b.entries))
    bound = {"default": period, "one": 1, "below": max(1, period - 1),
             "equal": period, "above": period + 2,
             "periods": 2 * common + (common + 1) // 2}[bound_kind]
    scan = rp_family_scan(a, b, None if bound_kind == "default" else bound,
                          convention, stop_at_first)
    assert scan.bound == bound
    assert scan.complete_bound == (bound >= period)
    grid_a = oracles.poly_grid(a.entries, bound, convention)
    grid_b = oracles.poly_grid(b.entries, bound, convention)
    want = [(m, n, grid_a[m, n], grid_b[m, n])
            for n in range(1, bound + 1) for m in range(1, bound + 1)
            if grid_a[m, n] != grid_b[m, n]]
    if stop_at_first:
        want = want[:1]
    assert [(d.m, d.n, d.left.as_dict(), d.right.as_dict())
            for d in scan.differences] == want
    # the differences read alike by index, slice and iteration, and the
    # scan compares, hashes, pickles and copies as one holding their tuple
    items = tuple(scan.differences)
    assert len(scan.differences) == len(items) == len(want)
    assert [scan.differences[i] for i in range(-len(items), 0)] == list(items)
    assert scan.differences[1::3] == items[1::3]
    assert scan.differences[::-2] == items[::-2]
    assert scan.differences == items and items == scan.differences
    assert hash(scan.differences) == hash(items)
    old = iso_module.RpFamilyScan(scan.bound, scan.complete_bound, items)
    assert scan == old and old == scan and hash(scan) == hash(old)
    assert scan.lines() == old.lines()
    for copied in (pickle.loads(pickle.dumps(scan)), copy.copy(scan),
                   copy.deepcopy(scan)):
        assert copied == scan and hash(copied) == hash(scan)
        assert tuple(copied.differences) == items
    if isinstance(scan.differences, iso_module._DifferenceView):
        # a listing scan's views name their length, end where it does
        # and compare only with their own kind of sequence
        lines = scan.lines()
        for view, name in ((scan.differences, "_DifferenceView"),
                           (lines, "_LineView")):
            assert repr(view) == (f"<{name} of {len(items)} over depths "
                                  f"1..{bound}>")
            with pytest.raises(IndexError, match="index out of range"):
                view[len(items)]
            assert view.__eq__(5) is NotImplemented and view != 5
        assert scan.differences.__eq__(lines) is NotImplemented


def test_scan_of_91_element_constant_actions():
    # types (13, 12, ..., 1) and (13, ..., 4, 3, 3): 192 depth classes each
    # way up to the default bound 360360, each table's polynomial built
    # once per distinct pair of its per-Inn-orbit count vectors, where
    # comparing 91 elements at each class pair took about 2 s
    type_a = tuple(range(13, 0, -1))
    type_b = (*range(13, 3, -1), 3, 3)
    elapsed = []
    for _ in range(2):
        a = constant_action(permutation_of_type(type_a))
        b = constant_action(permutation_of_type(type_b))
        a.report, b.report  # building the tables is not the scan's work
        start = time.perf_counter()
        scan = rp_family_scan(a, b)
        elapsed.append(time.perf_counter() - start)
    assert (scan.bound, scan.complete_bound) == (360360, True)
    differences = scan.differences
    # the length and the last item are counted on the 192 classes, where a
    # table of the 360360 depths of a period took 0.3-0.4 s
    start = time.perf_counter()
    differences.__len__(), differences[-1]
    reading = time.perf_counter() - start
    assert differences.__len__() == 126_252_126_000
    difference = iso_module.PolyDifference
    assert differences[0] == difference(
        1, 1, TwoVarPoly(((0, 1, 90), (91, 1, 1))), TwoVarPoly(((0, 0, 91),)))
    assert differences[-1] == difference(
        360359, 360360, TwoVarPoly(((0, 91, 90), (91, 91, 1))),
        TwoVarPoly(((0, 91, 91),)))
    assert min(elapsed) < 1
    assert reading < 0.1
    # equal polynomials are shared: the result holds about 5 MB, where one
    # polynomial per side of each differing class pair held about 20 MB.
    # A child process runs the scan once more and reports how far it
    # raised its peak resident size, which bounds what the result holds
    # from above, at the scan's own speed
    code = (
        "import resource\n"
        "from rackkit import (constant_action, permutation_of_type,\n"
        "                     rp_family_scan)\n"
        f"a = constant_action(permutation_of_type({type_a}))\n"
        f"b = constant_action(permutation_of_type({type_b}))\n"
        "a.report, b.report\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "scan = rp_family_scan(a, b)\n"
        "print(len(scan.differences), peak() - before)\n")
    src = str(Path(iso_module.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    count, grown_kib = map(int, done.stdout.split())
    assert count == len(differences)
    # ru_maxrss counts KiB on Linux
    assert grown_kib < 8 * 2**10


@pytest.mark.parametrize("convention", ("def", "prop3"))
@pytest.mark.parametrize("types", (
    ((3, 4, 5), (2, 5, 5)),
    (tuple(range(13, 0, -1)), (*range(13, 3, -1), 3, 3))))
def test_scan_builds_once_per_count_vector_pair(monkeypatch, types,
                                                convention):
    # a table's polynomial at (m, n) is a function of its per-Inn-orbit
    # vectors of s counts at m and t counts at n, so a listing builds at
    # most one per distinct pair of them of each table: 8·8 + 4·4 on the
    # first pair and 192·79 + 184·74 on the 91-element one, where
    # weighing both sides of every class pair took 2·192·192
    a, b = constant_pair(*types)
    # the counts at d depend on which cycle lengths divide d, so on
    # gcd(d, L), L the lcm of them all: the divisors of L give every vector
    common = math.lcm(oracles.period(a.entries), oracles.period(b.entries))
    divisors = [d for d in range(1, common + 1) if common % d == 0]
    most = 0
    for table in (a, b):
        s_vectors, t_vectors = (
            {tuple(_counts(by_length, d)) for d in divisors}
            for by_length in _lengths(table, convention))
        most += len(s_vectors) * len(t_vectors)
    calls = {"_weighted": 0, "_poly": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(iso_module, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(iso_module, name, counted)
    scan = rp_family_scan(a, b, convention=convention)
    assert isinstance(scan.differences, iso_module._DifferenceView)
    # each build weighs one multiset of count pairs and makes at most one
    # new polynomial; the other two weighted multisets are the profiles
    assert calls["_poly"] <= calls["_weighted"] - 2 <= most


def test_classification_of_size_12_in_each_convention():
    # 77 cycle types and 2,926 first-difference scans, most of which stop
    # at (1, 1): a scan counts a depth class and builds a polynomial only
    # when it reaches them, where building every class's counts and a
    # whole row of m before stopping took 0.41-0.55 s per convention
    for convention in ("def", "prop3"):
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            report = verify_constant_action_classification(12, convention)
            elapsed.append(time.perf_counter() - start)
        assert report.consistent
        assert len(report.distinct_type) == math.comb(77, 2)
        assert min(elapsed) < 0.6


def test_scan_of_same_type_constant_actions_stops_at_the_profiles():
    # the 11 primes up to 31 as cycle lengths: n = 160 and 2^11 depth
    # classes each way up to the default bound; the class loop took about
    # 1.7 s, and equal per-orbit cycle profiles settle the scan at once
    cycle_type = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    a = constant_action(permutation_of_type(cycle_type))
    b = constant_action(permutation_of_type(cycle_type[::-1], shuffle_seed=7))
    a.require_rack(), b.require_rack()  # the axioms are not the scan's work
    for stop_at_first in (False, True):
        start = time.perf_counter()
        scan = rp_family_scan(a, b, stop_at_first=stop_at_first)
        elapsed = time.perf_counter() - start
        assert scan == iso_module.RpFamilyScan(math.prod(cycle_type), True, ())
        assert elapsed < 0.1


def test_listing_scan_reads_a_huge_bound_from_one_period(racks):
    # 10^12 depths in each slot: the view's length is counted on the
    # lattice of depth classes, and an item is found by searching the
    # floor sums up to the bound, so no read lists the depths
    a, b = racks["MX6"], racks["MY6"]
    bound = 10**12
    common = math.lcm(oracles.period(a.entries), oracles.period(b.entries))
    grid_a = oracles.poly_grid(a.entries, common, "def")
    grid_b = oracles.poly_grid(b.entries, common, "def")
    differ = [(m, n) for n in range(1, common + 1)
              for m in range(1, common + 1) if grid_a[m, n] != grid_b[m, n]]

    def depths(r):  # the d in 1..bound with d ≡ r (mod common)
        return (bound - r) // common + 1

    def residue(d):
        return (d - 1) % common + 1

    def last(rs):  # the largest d in 1..bound with a residue in rs
        return max(bound - (bound - r) % common for r in rs)

    n_last = last({n for _, n in differ})
    m_last = last({m for m, n in differ if n == residue(n_last)})
    row_1 = [m for m in range(1, common + 1) if (m, 1) in differ]
    tracemalloc.start()
    start = time.perf_counter()
    scan = rp_family_scan(a, b, bound=bound)
    differences = scan.differences
    # len() stops at sys.maxsize, as for a range; __len__ is exact
    length = differences.__len__()
    first, final = differences[0], differences[-1]
    head = differences[:40:3]
    last_line = scan.lines()[-1]
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert length == sum(depths(m) * depths(n) for m, n in differ)
    assert (first.m, first.n) == (2, 1)
    assert (final.m, final.n) == (m_last, n_last)
    assert final.left.as_dict() == grid_a[residue(m_last), residue(n_last)]
    assert final.right.as_dict() == grid_b[residue(m_last), residue(n_last)]
    # the first 40 items lie in row n = 1, whose m repeat row_1 per period
    want = [m + k * common for k in range(40) for m in row_1][:40:3]
    assert [(d.m, d.n) for d in head] == [(m, 1) for m in want]
    assert last_line == (f"({m_last},{n_last}): {final.left} != "
                         f"{final.right}")
    # milliseconds and kilobytes; a list of the 10^12 depths would not fit
    assert elapsed < 1
    assert peak < 50 * 2**20


# up to 10^6 periods in each slot, or 10^20 depths, past sys.maxsize, where
# a range has no len and bisect cannot search it: the view counts its items
# and finds each one from the depth classes, and every item is checked
# against pointwise polynomials over one common period, by residue
@settings(max_examples=120, deadline=None)
@given(rack_pairs(), st.sampled_from(("def", "prop3")),
       st.integers(1, 10**6), st.integers(0, 10**6), st.booleans())
@example(constant_pair((3, 4, 5), (2, 5, 5)), "def", 10**6, 59, False)
@example(constant_pair((3, 4, 5), (2, 5, 5)), "prop3", 1, 7, True)
@example(constant_pair((2, 3), (5,)), "def", 999_999, 29, False)
@example(constant_pair((1, 1, 2), (2, 2)), "prop3", 3, 1, True)
def test_listing_scan_far_above_the_period(pair, convention, k, r, huge):
    a, b = pair
    common = math.lcm(oracles.period(a.entries), oracles.period(b.entries))
    r %= common
    bound = 10**20 + r if huge else k * common + r
    grid_a = oracles.poly_grid(a.entries, common, convention)
    grid_b = oracles.poly_grid(b.entries, common, convention)
    # the residues of m that differ at each residue of n
    differ = {n: {m for m in range(1, common + 1)
                  if grid_a[m, n] != grid_b[m, n]}
              for n in range(1, common + 1)}

    def residue(d):
        return (d - 1) % common + 1

    def depths(r):  # the d in 1..bound with d ≡ r (mod common)
        return (bound - r) // common + 1

    def item(m, n):
        return (m, n, *(TwoVarPoly.from_dict(grid[residue(m), residue(n)])
                        for grid in (grid_a, grid_b)))

    def first_200(depths_in_order):  # the items along rows in that order
        found = []
        for n in depths_in_order:
            if differ[residue(n)]:
                found += islice((item(m, n) for m in depths_in_order
                                 if residue(m) in differ[residue(n)]),
                                200 - len(found))
            if len(found) == 200:
                break
        return found

    scan = rp_family_scan(a, b, bound, convention)
    differences = scan.differences
    length = differences.__len__()
    assert length == sum(depths(m) * depths(n)
                         for n, ms in differ.items() for m in ms)
    if not length:  # no row to walk
        assert not differences and not scan.lines()
        return
    head = first_200(range(1, bound + 1))
    tail = first_200(range(bound, 0, -1))[::-1]
    assert len(head) == len(tail) == min(200, length)

    def read(ds):
        return [(d.m, d.n, d.left, d.right) for d in ds]

    assert read(map(differences.__getitem__, range(len(head)))) == head
    assert read(differences[i - length] for i in range(len(head))) == head
    assert read(differences[length - len(tail) + i]
                for i in range(len(tail))) == tail
    assert read(differences[i - len(tail)] for i in range(len(tail))) == tail
    assert read(differences[length - len(tail)::3]) == tail[::3]
    assert read(islice(differences, 200)) == head
    assert list(islice(scan.lines(), 200)) == [
        f"({m},{n}): {left} != {right}" for m, n, left, right in head]


def test_listing_view_searches_only_up_to_its_bound():
    # lengths 2 and 3 at bound 5 leave class 6 out of the lattice, so the
    # floor sums hold only up to the bound: with class 1 alone differing,
    # at depths 1 and 5, they count 5 - 2 - 1 = 2 depths up to 5 but
    # 6 - 3 - 2 = 1 up to 6, and a search past the bound put m at 7
    p, q = TwoVarPoly(((0, 0, 1),)), TwoVarPoly(((1, 1, 1),))
    view = iso_module._DifferenceView(5, (2, 3), (1, 2, 3), {1: {1: (p, q)}})
    want = [(m, n, p, q) for n in (1, 5) for m in (1, 5)]
    assert [(d.m, d.n, d.left, d.right) for d in view] == want
    assert [(d.m, d.n, d.left, d.right)
            for d in map(view.__getitem__, range(-4, 4))] == want * 2


def test_listing_index_reads_match_iteration():
    # every index reads the item iteration gives, by positive and negative
    # index and in a shuffled order, at bounds below, at and above the
    # common period L and past sys.maxsize, where iteration gives the
    # first items only; and reading every index of the families pair
    # (3,4,5)~(2,5,5) at its default bound costs a few times iterating it
    rng = random.Random(44)
    pairs = (constant_pair((3, 4, 5), (2, 5, 5)), constant_pair((2, 3), (5,)))
    for a, b in pairs:
        common = math.lcm(column_order_lcm(a), column_order_lcm(b))
        bounds = (common - 1, common, common + 7, 3 * common)
        for bound, convention in product(bounds, ("def", "prop3")):
            differences = rp_family_scan(a, b, bound, convention).differences
            items = list(differences)
            length = len(items)
            assert differences.__len__() == length
            assert list(map(differences.__getitem__, range(length))) == items
            assert [differences[i - length] for i in range(length)] == items
            order = rng.sample(range(length), length)
            assert [differences[i] for i in order] == [items[i] for i in order]
        for bound in (sys.maxsize + 1, 7 * sys.maxsize + 3):
            differences = rp_family_scan(a, b, bound).differences
            head = list(islice(differences, 300))
            assert list(map(differences.__getitem__, range(300))) == head

    def best(read):  # the least of three reads, each of a fresh scan
        times = []
        for _ in range(3):
            differences = rp_family_scan(*pairs[0]).differences
            start = time.perf_counter()
            read(differences)
            times.append(time.perf_counter() - start)
        return min(times)

    iterate = best(list)
    index = best(lambda view: list(map(view.__getitem__,
                                       range(view.__len__()))))
    assert index < 6 * iterate, (index, iterate)


def test_listing_index_reads_match_iteration_as_the_floor_sums_start_over(
        monkeypatch):
    # with room for 3 floor sums per row class, the memos evict again and
    # again as every index of the (3,4,5)~(2,5,5) listing is read in a
    # shuffled order, and each read still gives the item iteration gives
    monkeypatch.setattr(iso_module, "_PROBES", 3)
    pair = constant_pair((3, 4, 5), (2, 5, 5))
    items = list(rp_family_scan(*pair).differences)
    differences = rp_family_scan(*pair).differences
    order = random.Random(50).sample(range(len(items)), len(items))
    assert [differences[i] for i in order] == [items[i] for i in order]
    infos = [sums.cache_info() for sums in differences._floor_sums.values()]
    assert all(info.currsize <= 3 for info in infos)
    # every miss past the first 3 of a memo evicted one sum
    assert sum(info.misses - info.currsize for info in infos) > len(items)


def test_default_scan_separates_unequal_periods():
    # with L_a != L_b the default bound max(L_a, L_b) reaches (L_b, L_b),
    # where b's polynomial is n*s^n*t^n and a's is not, or symmetrically
    # (L_a, L_a); so an empty default scan forces equal periods
    tables = [constant_action(permutation_of_type(ct))
              for k in range(1, 7) for ct in partitions(k)]
    tables += [alexander(7, t) for t in range(1, 7)]
    tables += [ts_rack(4, 1, 2), ts_rack(5, 3, 3), ts_rack(8, 3, 4)]
    checked = 0
    for a, b in combinations(tables, 2):
        period_a, period_b = column_order_lcm(a), column_order_lcm(b)
        if period_a == period_b:
            continue
        for convention in ("def", "prop3"):
            found = {(d.m, d.n) for d in
                     rp_family_scan(a, b, convention=convention).differences}
            assert ((period_a, period_a) in found
                    or (period_b, period_b) in found), (a, b)
        checked += 1
    assert checked > 200


def test_default_scan_at_period_4620():
    # Landau's function g(30) = 4620 = lcm(3, 4, 5, 7, 11)
    a = constant_action(permutation_of_type((11, 7, 5, 4, 3), shuffle_seed=1))
    b = constant_action(permutation_of_type((11, 7, 5, 4, 3), shuffle_seed=2))
    start = time.perf_counter()
    scan = rp_family_scan(a, b)
    elapsed = time.perf_counter() - start
    assert scan.is_empty
    assert scan.bound == 4620 and scan.complete_bound
    # tens of milliseconds; a scan over the 4620² grid would take hours
    assert elapsed < 5


def test_agreeing_scan_over_256_depth_classes():
    # eight coprime cycle lengths give 2^8 classes of depth, and every
    # class of n is settled by one multiset comparison
    a = constant_action(permutation_of_type((4, 3, 5, 7, 11, 13, 17, 19),
                                            shuffle_seed=1))
    b = constant_action(permutation_of_type((4, 3, 5, 7, 11, 13, 17, 19),
                                            shuffle_seed=2))
    start = time.perf_counter()
    scan = rp_family_scan(a, b)
    elapsed = time.perf_counter() - start
    assert scan.is_empty
    assert scan.bound == 19399380 and scan.complete_bound
    # under a second; the bound catches only a large slowdown
    assert elapsed < 5


def test_scan_cost_does_not_grow_with_the_bound(racks):
    # an agreeing scan and a first difference are read from the depth
    # classes alone; depths 1..bound are never listed
    start = time.perf_counter()
    agree = rp_family_scan(racks["Q6"], racks["R6"], bound=10**12)
    first = rp_family_scan(racks["MX6"], racks["MY6"], bound=10**12,
                           stop_at_first=True)
    elapsed = time.perf_counter() - start
    assert agree.is_empty and agree.complete_bound
    assert agree.bound == 10**12
    assert first.lines() == ["(2,1): 6*s^6 != 6"]
    # milliseconds; a list over 1..10^12 would not fit in memory
    assert elapsed < 5


def test_scan_matches_pointwise_polynomials(racks):
    # cycle lengths 2 and 3 make depth 6 a class that no single length
    # names; the pair of constant actions still differs there
    pairs = [(racks["MX6"], racks["MY6"]),
             (constant_action(permutation_of_type((3, 2))),
              constant_action(permutation_of_type((1, 1, 1, 1, 1))))]
    for (a, b), bound in product(pairs, (4, 7)):
        scan = rp_family_scan(a, b, bound=bound)
        found = {(d.m, d.n) for d in scan.differences}
        for n in range(1, bound + 1):
            for m in range(1, bound + 1):
                differs = rack_polynomial(a, m, n) != rack_polynomial(b, m, n)
                assert ((m, n) in found) == differs


# -- integer partitions and representatives -----------------------------------


def test_partitions_counts():
    for k, count in ((1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15)):
        assert len(partitions(k)) == count
    assert partitions(0) == ((),)
    with pytest.raises(RackError):
        partitions(-1)


def test_partitions_shape():
    parts = partitions(6)
    for p in parts:
        assert sum(p) == 6
        assert tuple(sorted(p, reverse=True)) == p
    assert list(parts) == sorted(parts)
    assert (2, 2, 2) in parts and (3, 3) in parts


def test_permutation_of_type():
    p = permutation_of_type((2, 2, 1))
    assert p.cycle_type == (2, 2, 1)
    assert p.images == (2, 1, 4, 3, 5)
    q = permutation_of_type((3, 2), shuffle_seed=7)
    assert q.cycle_type == (3, 2)
    assert q == permutation_of_type((3, 2), shuffle_seed=7)


def test_seeded_permutation_of_type_is_the_conjugated_consecutive_layout():
    # the reference is the relabeling that a seeded layout stands for: the
    # consecutive layout conjugated by the labels 1..k shuffled by the seed
    for k in range(1, 9):
        for cycle_type in partitions(k):
            plain = permutation_of_type(cycle_type)
            for seed in range(5):
                labels = list(range(1, k + 1))
                random.Random(seed).shuffle(labels)
                assert permutation_of_type(cycle_type, seed) == \
                    plain.conjugated_by(Permutation(tuple(labels)))
    with pytest.raises(RackError, match="at least one cycle"):
        permutation_of_type(())


# -- classification ------------------------------------------------------------


def test_classification_small_sizes():
    for k in range(1, 6):
        report = verify_constant_action_classification(k)
        assert report.consistent
        assert len(report.same_type) == len(partitions(k))
        for check in report.same_type:
            assert check.iso and check.scan_empty
        for check in report.distinct_type:
            assert not check.iso
            assert check.first_difference is not None


def test_classification_k4_pairwise_depths():
    report = verify_constant_action_classification(4)
    depths = {
        (c.left_type, c.right_type): (c.first_difference.m, c.first_difference.n)
        for c in report.distinct_type
    }
    # the two fixed-point-free types agree at depth (1,1) and split at (2,1)
    assert depths[((2, 2), (4,))] == (2, 1)
    assert depths[((1, 1, 1, 1), (2, 1, 1))] == (1, 1)


def test_classification_size_bounds():
    with pytest.raises(RackError):
        verify_constant_action_classification(0)
    with pytest.raises(RackError):
        verify_constant_action_classification(13)


def test_classification_above_the_old_cap():
    # sizes 10 to 12 are accepted; 10 takes well under a second
    report = verify_constant_action_classification(10)
    assert report.consistent
    assert len(report.same_type) == len(partitions(10)) == 42


def test_classification_report_lines():
    report = verify_constant_action_classification(3)
    lines = report.lines()
    assert len(lines) == len(report.same_type) + len(report.distinct_type)
    assert all(":" in line for line in lines)
