"""Two-variable polynomials, fixed-point counting, and subrack enumeration."""

import math
import random
import sys
import time
import tracemalloc
from functools import reduce
from itertools import combinations, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (generated_racks, relabel, trivial_union,
                      ts_non_quandle_params)
from rackkit import (
    NotARackError,
    Permutation,
    RackError,
    RackTable,
    TwoVarPoly,
    alexander,
    closure,
    column_order_lcm,
    constant_action,
    dual,
    enhanced_invariant,
    enumerate_subracks,
    exponent_profile,
    format_monomial,
    is_subrack,
    permutation_of_type,
    rack_polynomial,
    subrack_polynomial,
    ts_rack,
)
from rackkit import poly as poly_module
from rackkit.core import _walk
from rackkit.poly import _inner_moves, _poly, _spread, _weighted

perm_images = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


# -- monomial and polynomial serialization ----------------------------------


def test_format_monomial():
    assert format_monomial(1, []) == "1"
    assert format_monomial(7, []) == "7"
    assert format_monomial(1, [("s", 1)]) == "s"
    assert format_monomial(2, [("s", 3), ("t", 1)]) == "2*s^3*t"
    assert format_monomial(5, [("s", 0), ("t", 2)]) == "5*t^2"
    assert format_monomial(1, [("q1", 0)]) == "1"
    assert format_monomial(3, [("z", "s*t")]) == "3*z^{s*t}"


def test_poly_construction_rules():
    with pytest.raises(ValueError):
        TwoVarPoly(((1, 0, 1), (0, 1, 1)))  # unsorted
    with pytest.raises(ValueError):
        TwoVarPoly(((0, 1, 1), (0, 1, 2)))  # duplicate exponents
    with pytest.raises(ValueError):
        TwoVarPoly(((0, -1, 1),))
    with pytest.raises(ValueError):
        TwoVarPoly(((0, 0, 0),))


class Two:
    """Integer-like, but not an int: accepted through operator.index."""

    def __index__(self):
        return 2


def test_poly_terms_are_a_tuple_of_int_triples():
    # any iterable of integer triples gives the tuple-built polynomial
    p = TwoVarPoly([[0, 0, 1], (1, Two(), Two())])
    assert p == TwoVarPoly(((0, 0, 1), (1, 2, 2)))
    assert hash(p) == hash(TwoVarPoly(((0, 0, 1), (1, 2, 2))))
    assert p.terms == ((0, 0, 1), (1, 2, 2))
    assert all(type(v) is int for term in p.terms for v in term)
    assert str(p) == "1 + 2*s*t^2"
    assert {TwoVarPoly([(0, 0, 1)]): 1}[TwoVarPoly(((0, 0, 1),))] == 1
    for bad in (((0.5, 1, 2),), ((0, "1", 1),), ((0, 1, 1.0),)):
        with pytest.raises(ValueError, match="^non-integer term"):
            TwoVarPoly(bad)


@pytest.mark.parametrize("terms, message", [
    (((1, 0, 1), (0, 1, 1)), r"^terms must be sorted by \(s_exp, t_exp\)$"),
    (((0, 1, 1), (0, 1, 2)), "^duplicate exponent pair$"),
    (((0, -1, 1),), r"^negative exponent in term \(0, -1, 1\)$"),
    (((0, 0, 0),), "^zero coefficient term$"),
    # several faults: the first term at fault names its own
    (((1, 0, 0), (0, 1, 1)), "^zero coefficient term$"),
    (((0, 1, 1), (0, 1, 1), (0, -1, 1)), "^duplicate exponent pair$"),
    (((2, 0, 1), (1, 0, 1), (0.5, 0, 1)), "^terms must be sorted"),
])
def test_poly_construction_messages(terms, message):
    with pytest.raises(ValueError, match=message):
        TwoVarPoly(terms)


def test_trusted_polynomials_equal_checked_ones():
    # the library's own counts build polynomials without the per-term
    # checks; each must equal the checked construction of its terms
    rng = random.Random(1907)
    for _ in range(300):
        pairs = [(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randrange(15))]
        p = TwoVarPoly.from_pairs(pairs)
        assert p == TwoVarPoly(p.terms)
        trusted = _poly(_weighted(pairs, repeat(1)))
        assert trusted == p and hash(trusted) == hash(p)
        assert repr(trusted) == repr(p) and type(trusted.terms) is tuple
        # a key weighted by w stands for w equal members, however the
        # equal keys are grouped
        weights = [rng.randint(1, 4) for _ in pairs]
        weighted = _poly(_weighted(pairs, weights))
        expanded = TwoVarPoly.from_pairs(
            [pair for pair, w in zip(pairs, weights) for _ in range(w)])
        assert weighted == expanded and hash(weighted) == hash(expanded)
        assert repr(weighted) == repr(expanded)
    for table in (alexander(7, 3), ts_rack(8, 3, 4),
                  constant_action(permutation_of_type((3, 2, 2)))):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        p = rack_polynomial(table, m, n)
        assert p == TwoVarPoly(p.terms)
        assert all(type(x) is int for term in p.terms for x in term)
        for sub in enumerate_subracks(table):
            q = subrack_polynomial(table, sub, m, n)
            assert q == TwoVarPoly(q.terms)


def test_poly_from_pairs_aggregates():
    p = TwoVarPoly.from_pairs([(3, 1), (0, 1), (3, 1)])
    assert p.as_dict() == {(3, 1): 2, (0, 1): 1}
    assert str(p) == "t + 2*s^3*t"
    assert p.coefficient_sum == 3


def test_zero_poly_prints_zero():
    assert str(TwoVarPoly(())) == "0"
    assert TwoVarPoly.from_pairs([]).coefficient_sum == 0


def test_term_order_is_ascending():
    # ascending lexicographic on (s exponent, t exponent)
    p = TwoVarPoly.from_dict({(3, 1): 1, (0, 1): 2, (2, 5): 4})
    assert str(p) == "2*t + 4*s^2*t^5 + s^3*t"
    assert [term[:2] for term in p.terms] == [(0, 1), (2, 5), (3, 1)]


# -- rack polynomial golden values -------------------------------------------

GOLDEN_POLYS = {
    ("ex3", 1, 1, "def"): "2*t + s^3*t",
    ("ex3", 1, 1, "prop3"): "2*s + s*t^3",
    ("ex2", 1, 1, "def"): "3",
    ("MX6", 1, 1, "def"): "6",
    ("MY6", 1, 1, "def"): "6",
    ("MX6", 2, 1, "def"): "6*s^6",
    ("MY6", 2, 1, "def"): "6",
    ("MX6", 2, 1, "prop3"): "6*s^6",
    ("MY6", 2, 1, "prop3"): "6",
    ("T5", 1, 1, "def"): "5*s^3*t^3",
    ("Q6", 1, 1, "def"): "6*s^4*t^4",
    ("R6", 1, 1, "def"): "6*s^4*t^4",
    ("dihedral3", 1, 1, "def"): "3*s*t",
    ("triv2", 1, 1, "def"): "2*s^2*t^2",
    ("triv1", 1, 1, "def"): "s*t",
}


def test_golden_polynomials(racks):
    for (name, m, n, conv), want in GOLDEN_POLYS.items():
        assert str(rack_polynomial(racks[name], m, n, conv)) == want


def test_polynomials_match_oracle(racks):
    for name, table in racks.items():
        for conv in ("def", "prop3"):
            for m in range(1, 4):
                for n in range(1, 4):
                    lib = rack_polynomial(table, m, n, conv).as_dict()
                    assert lib == oracles.poly_terms(table.entries, m, n, conv), (
                        name, m, n, conv)


def test_coefficient_sum_is_cardinality(racks):
    for table in racks.values():
        for conv in ("def", "prop3"):
            assert rack_polynomial(table, 2, 3, conv).coefficient_sum == table.n


def test_depth_validation(racks):
    t5 = racks["T5"]
    for m, n in ((0, 1), (1, 0), (-1, 2), (0, 0)):
        with pytest.raises(RackError, match="at least 1"):
            rack_polynomial(t5, m, n)
        with pytest.raises(RackError, match="at least 1"):
            exponent_profile(t5, m, n)
        with pytest.raises(RackError, match="at least 1"):
            subrack_polynomial(t5, (1,), m, n)


def test_invalid_convention_rejected(racks):
    with pytest.raises(RackError):
        rack_polynomial(racks["T5"], 1, 1, "other")


def test_depth_periodicity(racks):
    # iterating any column L times is the identity, L = lcm of column orders
    for table in racks.values():
        L = column_order_lcm(table)
        for conv in ("def", "prop3"):
            for m in range(1, 2 * L + 2):
                for n in range(1, 2 * L + 2):
                    reduced_m = (m - 1) % L + 1
                    reduced_n = (n - 1) % L + 1
                    assert rack_polynomial(table, m, n, conv) == rack_polynomial(
                        table, reduced_m, reduced_n, conv)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counts_match_oracle_at_any_depth(data):
    # the oracle iterates the products depth times, so far depths are
    # checked against it at the depth reduced through the period
    table = data.draw(st.integers(1, 7).flatmap(generated_racks))
    entries = table.entries
    period = oracles.period(entries)
    subset = data.draw(st.sampled_from(enumerate_subracks(table)))
    for _ in range(3):
        m = data.draw(st.integers(1, 3 * period))
        n = data.draw(st.integers(1, 3 * period))
        far_m = m + data.draw(st.integers(0, 10**9)) * period
        far_n = n + data.draw(st.integers(0, 10**9)) * period
        want = tuple((oracles.col_count(entries, m, x),
                      oracles.row_count(entries, n, x))
                     for x in table.elements)
        assert exponent_profile(table, m, n).pairs == want
        assert exponent_profile(table, far_m, far_n).pairs == want
        for conv in ("def", "prop3"):
            want = oracles.poly_terms(entries, m, n, conv)
            assert rack_polynomial(table, m, n, conv).as_dict() == want
            assert rack_polynomial(table, far_m, far_n, conv).as_dict() == want
            got = subrack_polynomial(table, subset, far_m, far_n, conv)
            assert got.as_dict() == oracles.poly_terms(
                entries, m, n, conv, subset=subset)


# -- exponent profiles -------------------------------------------------------


def test_profile_values(racks):
    prof = exponent_profile(racks["T5"], 1, 1)
    assert prof.pairs == ((3, 3),) * 5
    assert prof.pair(1) == (3, 3)
    assert exponent_profile(racks["ex3"], 1, 1).pairs == ((1, 0), (1, 0), (1, 3))


def test_profile_pair_raises_outside_the_elements(racks):
    prof = exponent_profile(racks["T5"], 1, 1)
    assert [prof.pair(x) for x in (1, 5)] == [(3, 3), (3, 3)]
    for x in (0, -1, 6):
        with pytest.raises(RackError, match=rf"^element {x} out of range 1\.\.5$"):
            prof.pair(x)
    with pytest.raises(RackError, match="^non-integer element 1.5$"):
        prof.pair(1.5)


def test_profile_counts_match_oracle(racks):
    for name, table in racks.items():
        for m in range(1, 4):
            for n in range(1, 4):
                prof = exponent_profile(table, m, n)
                for x in table.elements:
                    c, r = prof.pair(x)
                    assert c == oracles.col_count(table.entries, m, x)
                    assert r == oracles.row_count(table.entries, n, x)


def test_profile_reproduces_literal_convention(racks):
    # summing s^c t^r over the profile gives the literal-reading polynomial
    for table in racks.values():
        for m in range(1, 4):
            for n in range(1, 4):
                prof = exponent_profile(table, m, n)
                assert TwoVarPoly.from_pairs(prof.pairs) == rack_polynomial(
                    table, m, n, "prop3")


# -- closures and subracks ---------------------------------------------------


def test_closure(racks):
    t5 = racks["T5"]
    assert closure(t5, (4,)) == (4, 5)
    assert closure(t5, (1,)) == (1,)
    assert closure(t5, (1, 2)) == (1, 2, 3)
    assert closure(t5, ()) == ()
    for seed in ((1,), (2, 4), (1, 2, 3, 4, 5)):
        assert closure(t5, seed) == oracles.closure(t5.entries, seed)


def test_is_subrack(racks):
    t5 = racks["T5"]
    assert is_subrack(t5, (4, 5))
    assert is_subrack(t5, (1, 2, 3))
    assert not is_subrack(t5, (1, 2))
    assert not is_subrack(t5, (4,))


def test_subset_entry_points_name_the_least_element_out_of_range():
    table = alexander(5, 2)
    calls = (
        lambda subset: closure(table, subset),
        lambda subset: is_subrack(table, subset),
        lambda subset: subrack_polynomial(table, subset, 1, 1),
        table.subtable,
    )
    for call in calls:
        # an iterator names the same element as a list does
        for subset, least in (([99, -1, 5], -1), (iter([99, -1, 5]), -1),
                              ([8, 5, 6], 6)):
            with pytest.raises(RackError,
                               match=rf"^element {least} out of range 1\.\.5$"):
                call(subset)
        with pytest.raises(RackError, match=r"^non-integer element 1\.5$"):
            call(v for v in (2, 1.5, 99, None))
        assert call(iter([3, 1, 2, 4, 5])) == call([5, 1, 2, 3, 4, 5])


def test_enumerate_subracks_t5(racks):
    assert enumerate_subracks(racks["T5"]) == (
        (1,), (2,), (3,), (4, 5), (1, 2, 3),
        (1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 3, 4, 5))


def test_enumerate_subracks_matches_oracle(racks):
    counts = {}
    for name, table in racks.items():
        subs = enumerate_subracks(table)
        assert list(subs) == oracles.subracks(table.entries), name
        counts[name] = len(subs)
    assert counts["Q6"] == 24
    assert counts["R6"] == 19
    assert counts["MX6"] == 7
    assert counts["MY6"] == 3
    assert counts["ex2"] == 1
    assert counts["triv2"] == 3


def test_subracks_sorted_by_size_then_lex(racks):
    subs = enumerate_subracks(racks["Q6"])
    keys = [(len(s), s) for s in subs]
    assert keys == sorted(keys)


# Racks of at most 10 elements, small enough for the 2^n oracle: constant
# action racks, linear quandles, linear racks that are not quandles,
# relabelled trivial unions of those, their duals and their subtables.
constant_action_racks = st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda images: constant_action(Permutation(tuple(images))))
alexander_racks = st.integers(1, 9).flatmap(
    lambda n: st.sampled_from(
        [t for t in range(n) if math.gcd(t, n) == 1]).map(
        lambda t: alexander(n, t)))


# linear racks x ▷ y = t·x + s·y that are not quandles: t + s ≢ 1
ts_non_quandles = st.sampled_from(ts_non_quandle_params(range(2, 10))).map(
    lambda nts: ts_rack(*nts))


@st.composite
def relabelled_unions(draw):
    """A trivial union of 2 or 3 blocks, at most 10 elements in all, on
    shuffled labels.  Across blocks x ▷ y = x, so a closure spans one
    orbit per block its seed meets, and no seed reaches another block."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 10))
    entries = reduce(trivial_union,
                     (draw(generated_racks(k)).entries for k in sizes))
    images = draw(st.permutations(list(range(1, len(entries) + 1))))
    return RackTable(relabel(entries, images))


@st.composite
def small_racks(draw):
    table = draw(st.one_of(constant_action_racks, alexander_racks,
                           ts_non_quandles, relabelled_unions()))
    if draw(st.booleans()):
        table = dual(table)
    seed = draw(st.sets(st.sampled_from(table.elements)))
    if seed and draw(st.booleans()):
        table = table.subtable(oracles.closure(table.entries, seed))
    return table


@settings(max_examples=80, deadline=None)
@given(small_racks())
def test_enumerate_subracks_matches_brute_force(table):
    subs = enumerate_subracks(table)
    assert list(subs) == oracles.subracks(table.entries)
    # is_subrack holds exactly on the enumerated subsets
    listed = set(subs)
    for k in table.elements:
        for subset in combinations(table.elements, k):
            assert is_subrack(table, subset) == (subset in listed), subset


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_matches_oracle_on_random_seeds(data):
    table = data.draw(small_racks())
    for _ in range(4):
        seed = data.draw(st.lists(st.sampled_from(table.elements), max_size=4))
        assert closure(table, seed) == oracles.closure(table.entries, seed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_stops_exactly_when_its_closure_meets_the_stop_set(data):
    # the one ▷-closure walks a seed with the seed's own columns; with a
    # stop mask it returns -1 exactly when a point of that mask joins,
    # that is when the closure meets it outside the seed, and otherwise
    # the whole closure
    table = data.draw(small_racks())
    seed = data.draw(st.lists(st.sampled_from(table.elements), min_size=1,
                              max_size=4, unique=True))
    stop = data.draw(st.sets(st.sampled_from(table.elements)))
    closed = oracles.closure(table.entries, seed)
    columns = [table._right[y] for y in seed]
    start = sum(1 << x for x in seed)
    reached = list(seed)
    assert _walk(start, reached, columns) == sum(1 << x for x in closed)
    assert sorted(reached) == list(closed)
    joined = set(closed) - set(seed)
    reached = list(seed)
    walked = _walk(start, reached, columns, 0, sum(1 << x for x in stop))
    if joined & stop:
        assert walked == -1
        # cut short before the first stop point, every member closed
        assert set(reached) <= set(closed)
        assert not stop & set(reached[len(seed):])
    else:
        assert walked == sum(1 << x for x in closed)
        assert sorted(reached) == list(closed)


# racks with many Inn-orbits: trivial quandles, whose orbits are their
# points, constant actions, whose orbits are their permutation's cycles,
# trivial unions and linear racks that are not quandles
many_orbit_racks = st.one_of(
    st.integers(1, 10).map(lambda n: alexander(n, 1)), constant_action_racks,
    relabelled_unions(), ts_non_quandles)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_counts_of_many_orbit_racks_match_oracle(data):
    # the counts are summed once per distinct (length, multiplicity)
    # tuple, which the members of an orbit share, and read per element
    table = data.draw(many_orbit_racks)
    entries = table.entries
    period = oracles.period(entries)
    for _ in range(3):
        m = data.draw(st.integers(1, 2 * period))
        n = data.draw(st.integers(1, 2 * period))
        far_m = m + data.draw(st.integers(0, 10**6)) * period
        far_n = n + data.draw(st.integers(0, 10**6)) * period
        want = tuple((oracles.col_count(entries, m, x),
                      oracles.row_count(entries, n, x))
                     for x in table.elements)
        assert exponent_profile(table, far_m, far_n).pairs == want
        for conv in ("def", "prop3"):
            assert (rack_polynomial(table, far_m, far_n, conv).as_dict()
                    == oracles.poly_terms(entries, m, n, conv))


@st.composite
def relabelled_ts_racks(draw):
    """A linear rack x ▷ y = t·x + s·y on Z/n, n ≤ 12, on shuffled labels."""
    n = draw(st.integers(2, 12))
    t, s = draw(st.sampled_from(
        [(t, s) for t in range(n) if math.gcd(t, n) == 1
         for s in range(n) if s * (1 - t - s) % n == 0]))
    images = draw(st.permutations(list(range(1, n + 1))))
    return RackTable(relabel(ts_rack(n, t, s).entries, images))


# racks with an Inn-orbit of more than one element, on which subracks are
# closed once per orbit and spread over it
orbit_racks = st.one_of(relabelled_ts_racks(), relabelled_unions(),
                        constant_action_racks).filter(
    lambda table: any(len(orbit) > 1 for orbit in table._inner[0]))


@settings(max_examples=80, deadline=None)
@given(orbit_racks)
def test_enumerate_subracks_matches_oracle_on_orbit_racks(table):
    assert list(enumerate_subracks(table)) == oracles.subracks(table.entries)


@settings(max_examples=60, deadline=None)
@given(st.one_of(relabelled_ts_racks(), relabelled_unions(), ts_non_quandles))
def test_spread_matches_oracle_on_every_subrack(table):
    inner = _inner_moves(table)
    for subrack in enumerate_subracks(table):
        mask = sum(1 << x for x in subrack)
        orbit = _spread(inner, mask, reversed(subrack))
        assert next(iter(orbit.items())) == (mask, subrack)
        assert all(key == sum(1 << x for x in image)
                   for key, image in orbit.items())
        assert sorted(orbit.values()) == oracles.subrack_orbit(
            table.entries, subrack)


def test_enumerate_subracks_at_n401():
    # one Inn-orbit: the singletons are one orbit of subracks and the whole
    # set another, so a few closures find them all, where trying every
    # element from every subrack took about n²/2 closures (0.13-0.21 s)
    table = alexander(401, 2)
    table.report  # the report is timed on its own elsewhere
    start = time.perf_counter()
    subs = enumerate_subracks(table)
    elapsed = time.perf_counter() - start
    assert subs == tuple((x,) for x in table.elements) + (tuple(table.elements),)
    assert elapsed < 0.05


def test_enumerate_subracks_at_n101():
    # a prime linear quandle: any two elements generate the whole set
    table = alexander(101, 2)
    start = time.perf_counter()
    subs = enumerate_subracks(table)
    elapsed = time.perf_counter() - start
    assert subs == tuple((x,) for x in table.elements) + (tuple(table.elements),)
    # it takes milliseconds; the loose bound has to catch only a slowdown
    # by orders of magnitude, and holds on a loaded machine
    assert elapsed < 5


def test_enumerate_subracks_of_trivial_rack():
    # x ▷ y = x closes every subset
    table = constant_action(Permutation.identity(12))
    start = time.perf_counter()
    subs = enumerate_subracks(table)
    elapsed = time.perf_counter() - start
    assert len(subs) == 4095
    assert subs == tuple(
        c for k in range(1, 13) for c in combinations(table.elements, k))
    assert elapsed < 5


# -- subrack polynomials -----------------------------------------------------


def test_subrack_polynomial_values(racks):
    t5 = racks["T5"]
    assert str(subrack_polynomial(t5, (1,), 1, 1)) == "s^3*t^3"
    assert str(subrack_polynomial(t5, (1, 2, 3), 1, 1)) == "3*s^3*t^3"
    assert str(subrack_polynomial(t5, (4, 5), 1, 1)) == "2*s^3*t^3"


def test_subrack_polynomial_matches_oracle(racks):
    for name, table in racks.items():
        for subset in enumerate_subracks(table):
            got = subrack_polynomial(table, subset, 1, 2).as_dict()
            assert got == oracles.poly_terms(table.entries, 1, 2, "def", subset=subset)


def test_full_subset_recovers_rack_polynomial(racks):
    # the whole set is closed
    for table in racks.values():
        far = 10**9 * column_order_lcm(table) + 1
        for (m, n), conv in product(((1, 1), (2, 1), (3, 4), (far, 2)),
                                    ("def", "prop3")):
            assert subrack_polynomial(table, table.elements, m, n, conv) == (
                rack_polynomial(table, m, n, conv))


def test_whole_set_keeps_the_checks_before_the_closure(racks):
    bad = RackTable(((1, 1), (1, 2)))  # column 1 is not a bijection
    with pytest.raises(NotARackError,
                       match=r"^not a rack: bijectivity fails at \(1, 2, 1\)$"):
        subrack_polynomial(bad, bad.elements, 1, 1)
    t5 = racks["T5"]
    assert subrack_polynomial(t5, [5, *t5.elements, 3, 1], 1, 1) == (
        rack_polynomial(t5, 1, 1))
    # five values, but four elements: the closure is checked
    cases = [
        ([1, 2, 3, 4, 4], RackError, "not a subrack: 4▷4=5 escapes the subset"),
        ([*t5.elements, 6], RackError, "element 6 out of range 1..5"),
        ([0, *t5.elements], RackError, "element 0 out of range 1..5"),
        ([*t5.elements, 1.5], RackError, "non-integer element 1.5"),
    ]
    for subset, error, message in cases:
        with pytest.raises(RackError) as info:
            subrack_polynomial(t5, subset, 1, 1)
        assert info.type is error
        assert str(info.value) == message


def test_subrack_polynomial_rejects_open_subsets(racks):
    with pytest.raises(RackError, match="escapes"):
        subrack_polynomial(racks["T5"], (1, 2), 1, 1)
    with pytest.raises(RackError, match="empty"):
        subrack_polynomial(racks["T5"], (), 1, 1)


def test_subrack_polynomial_error_precedence(racks):
    # the checks run in one order: convention, depths, rack axioms, subset
    # members, emptiness, closure; where a case fails several, the
    # earliest names the error
    t5 = racks["T5"]
    bad = RackTable(((1, 1), (1, 2)))  # column 1 is not a bijection
    cases = [
        ((bad, (), 0, 1, "other"), RackError,
         "unknown convention 'other'; expected one of ('def', 'prop3')"),
        ((bad, (), 0, 1), RackError, "depths must be at least 1, got (0, 1)"),
        ((bad, (), 1, 1), NotARackError,
         "not a rack: bijectivity fails at (1, 2, 1)"),
        ((t5, (2, 9, 1), 1, 1), RackError, "element 9 out of range 1..5"),
        ((t5, (), 1, 1), RackError, "subset is empty"),
        ((t5, (2, 1), 1, 1), RackError,
         "not a subrack: 1▷2=3 escapes the subset"),
    ]
    for args, error, message in cases:
        with pytest.raises(RackError) as info:
            subrack_polynomial(*args)
        assert info.type is error
        assert str(info.value) == message


# with the fixtures, every subrack of each is checked: composite-order
# Alexander quandles, whose subracks are cosets of several sizes, and
# constant actions, whose subracks are unions of cycles
SUBRACK_TABLES = (
    alexander(21, 2), alexander(25, 2),
    *(constant_action(permutation_of_type(cycle_type))
      for cycle_type in ((3, 2, 2, 1), (4, 2, 1), (2, 2, 2, 1, 1))),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subrack_polynomial_matches_oracle_on_every_subrack(racks, data):
    # the oracle iterates the products depth times, so far depths are
    # checked against it at the depth reduced through the period; the
    # library is given each subrack unsorted and with repeats
    table = data.draw(st.sampled_from((*SUBRACK_TABLES, *racks.values())))
    rng = data.draw(st.randoms(use_true_random=False))
    period = oracles.period(table.entries)
    m = data.draw(st.integers(1, period))
    n = data.draw(st.integers(1, period))
    far_m = m + data.draw(st.integers(0, 10**9)) * period
    far_n = n + data.draw(st.integers(0, 10**9)) * period
    for subset in enumerate_subracks(table):
        given = [*subset, *rng.choices(subset, k=rng.randint(0, len(subset)))]
        rng.shuffle(given)
        for conv in ("def", "prop3"):
            got = subrack_polynomial(table, given, far_m, far_n, conv)
            assert got.as_dict() == oracles.poly_terms(
                table.entries, m, n, conv, subset=subset)


def test_subrack_coefficient_sum(racks):
    t5 = racks["T5"]
    for subset in enumerate_subracks(t5):
        assert subrack_polynomial(t5, subset, 1, 1).coefficient_sum == len(subset)


# -- closure checks and the orbit-pair memo ----------------------------------


def assert_escapes_match_oracle(entries, given, rack):
    """subtable, and on a rack is_subrack and subrack_polynomial, accept
    the subset ``given`` lists or name the oracle's first escape of it."""
    table = RackTable(entries)
    want = oracles.first_escape(entries, given)
    if want is None:
        assert table.subtable(given).n == len(set(given))
    else:
        with pytest.raises(RackError) as info:
            table.subtable(given)
        assert str(info.value) == "not closed: {}▷{}={} escapes the subset".format(
            *want)
    if not rack:
        return
    assert is_subrack(table, given) == (want is None)
    if want is None:
        poly = subrack_polynomial(table, given, 1, 1)
        assert poly.coefficient_sum == len(set(given))
    else:
        with pytest.raises(RackError) as info:
            subrack_polynomial(table, given, 1, 1)
        assert str(info.value) == (
            "not a subrack: {}▷{}={} escapes the subset".format(*want))


def escapes_in_last_column_only(entries, subset):
    """Whether the sorted subset escapes, and only in its greatest
    element's column, the last one a column-by-column test reads."""
    columns = {y for x in subset for y in subset
               if oracles.op(entries, x, y) not in subset}
    return columns == {subset[-1]}


def any_tables(n):
    """Strategy: an n×n table with entries in 1..n, seldom a rack."""
    row = st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@st.composite
def last_column_tables(draw, n):
    """An n×n table, n ≥ 2, with a subset S closed under the column of
    each of its elements but the greatest, whose column takes some x
    outside S."""
    rng = draw(st.randoms(use_true_random=False))
    subset = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    outside = sorted(set(range(1, n + 1)) - set(subset))
    rows = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
    for x in subset:
        for y in subset[:-1]:
            rows[x - 1][y - 1] = rng.choice(subset)
    rows[rng.choice(subset) - 1][subset[-1] - 1] = rng.choice(outside)
    return tuple(map(tuple, rows))


def test_escapes_of_every_fixture_subset_match_oracle(racks):
    for table in racks.values():
        rack = oracles.is_rack(table.entries)
        for k in table.elements:
            for subset in combinations(table.elements, k):
                assert_escapes_match_oracle(table.entries, subset, rack)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_first_escape_matches_oracle(data):
    # racks and tables that are not, with their singletons, the whole set,
    # random subsets and every subset that escapes only in its last
    # column, each given unsorted and with repeats
    n = data.draw(st.integers(1, 6))
    entries = data.draw(st.one_of(
        generated_racks(n).map(lambda table: table.entries), any_tables(n),
        *([last_column_tables(n)] if n > 1 else [])))
    rack = oracles.is_rack(entries)
    rng = data.draw(st.randoms(use_true_random=False))
    elements = range(1, n + 1)
    subsets = [*([x] for x in elements), list(elements),
               *(rng.sample(elements, rng.randint(1, n)) for _ in range(4)),
               *(list(subset) for k in elements
                 for subset in combinations(elements, k)
                 if escapes_in_last_column_only(entries, subset))]
    for subset in subsets:
        given = [*subset, *rng.choices(subset, k=rng.randint(0, 2))]
        rng.shuffle(given)
        assert_escapes_match_oracle(entries, given, rack)


def test_orbit_pairs_of_every_reader_match_a_fresh_table(racks, links):
    # the four readers of a table's orbit pairs, interleaved at depths and
    # conventions that replace each other's memo, each agree with a fresh
    # table of the same entries
    trefoil = links["trefoil"]
    for name in ("T5", "Q6", "R6", "MY6"):
        entries = racks[name].entries
        table = RackTable(entries)
        subracks = enumerate_subracks(table)
        subset = subracks[len(subracks) // 2]
        readers = (
            lambda t, m, n, conv: rack_polynomial(t, m, n, conv),
            lambda t, m, n, conv: subrack_polynomial(t, subset, m, n, conv),
            lambda t, m, n, conv: exponent_profile(t, m, n),
            lambda t, m, n, conv: enhanced_invariant(trefoil, t, m, n, conv),
        )
        far = 10**9 * column_order_lcm(table) + 1
        calls = [*product(((1, 1), (2, 3), (far, 1)), ("def", "prop3"),
                          readers)]
        for (m, n), conv, read in calls + calls[::-1]:
            assert read(table, m, n, conv) == read(RackTable(entries), m, n,
                                                   conv), (name, m, n, conv)


def test_pair_memo_holds_one_entry_over_many_depths(racks):
    table = RackTable(racks["Q6"].entries)
    # the table's caches, which are not the memo
    table.report
    table._cycle_lengths
    before = set(vars(table))
    subset = enumerate_subracks(table)[-2]
    # the enumeration keeps its listing's record, and only that
    assert set(vars(table)) - before == {"_listing"}
    cached = set(vars(table))
    for m, n in product(range(1, 41), range(1, 26)):
        conv = ("def", "prop3")[(m + n) % 2]
        rack_polynomial(table, m, n, conv)
        subrack_polynomial(table, subset, n, m, conv)
    assert len(set(vars(table)) - cached) == 1
    for m, n in ((40, 25), (7, 3)):
        for conv in ("def", "prop3"):
            assert rack_polynomial(table, m, n, conv) == rack_polynomial(
                RackTable(table.entries), m, n, conv)


# -- a listing's record ------------------------------------------------------


@st.composite
def relabelled_alexanders(draw):
    """alexander(n, t), n ≤ 12 and t a unit, on shuffled labels."""
    n = draw(st.integers(1, 12))
    t = draw(st.sampled_from([t for t in range(n) if math.gcd(t, n) == 1]))
    images = draw(st.permutations(list(range(1, n + 1))))
    return RackTable(relabel(alexander(n, t).entries, images))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_listed_subracks_match_every_other_path(racks, data):
    # a listed tuple's polynomial, read from the record in order and
    # shuffled and shared over its Inn-orbit, equals that of an equal
    # copy, of a shuffled list with repeats and the oracle's, in both
    # conventions at near and far depths; the depth pair switches after
    # each pass over the listing,
    # and a second enumeration replaces the record, after which the first
    # listing's tuples are copies like any other
    table = data.draw(st.one_of(
        st.sampled_from((*SUBRACK_TABLES, *racks.values())),
        relabelled_alexanders(), relabelled_unions()))
    table = RackTable(table.entries)  # a table no test has enumerated
    entries = table.entries
    rng = data.draw(st.randoms(use_true_random=False))
    period = oracles.period(entries)
    depths = []
    for _ in range(2):
        m = data.draw(st.integers(1, period))
        n = data.draw(st.integers(1, period))
        far = (m + data.draw(st.integers(0, 10**9)) * period,
               n + data.draw(st.integers(0, 10**9)) * period)
        depths.append(((m, n), far))
    first = enumerate_subracks(table)
    listings = (first, first, enumerate_subracks(table))
    assert listings[2] == first and listings[2] is not first
    for listing, ((m, n), far) in zip(listings, depths * 2):
        given = []
        for subset in listing:
            given.append([*subset, *rng.choices(subset, k=rng.randint(0, 3))])
            rng.shuffle(given[-1])
        for conv in ("def", "prop3"):
            want = [oracles.poly_terms(entries, m, n, conv, subset=subset)
                    for subset in listing]
            for at in ((m, n), far):
                got = [subrack_polynomial(table, subset, *at, conv)
                       for subset in listing]
                assert [poly.as_dict() for poly in got] == want, (at, conv)
                order = rng.sample(range(len(listing)), len(listing))
                assert [subrack_polynomial(table, listing[i], *at, conv)
                        for i in order] == [got[i] for i in order]
                assert [subrack_polynomial(table, tuple(list(subset)), *at,
                                           conv) for subset in listing] == got
                assert [subrack_polynomial(table, subset, *at, conv)
                        for subset in given] == got


@pytest.fixture()
def calls(monkeypatch):
    """Counts of closure checks ("escape") and of subset polynomials
    counted ("count"), which a test may reset."""
    calls = {"escape": 0, "count": 0}

    def escape(self, elems):
        calls["escape"] += 1
        return first_escape(self, elems)

    def count(*args):
        calls["count"] += 1
        return subset_poly(*args)

    first_escape, subset_poly = RackTable._first_escape, poly_module._subset_poly
    monkeypatch.setattr(RackTable, "_first_escape", escape)
    monkeypatch.setattr(poly_module, "_subset_poly", count)
    return calls


def test_a_listing_closes_nothing_again_and_counts_once_per_orbit(
        racks, calls):
    # over one listing at one depth pair no closure is checked, and one
    # polynomial is counted per Inn-orbit of subracks; the trivial rack's
    # subracks are each an orbit of their own
    tables = (*SUBRACK_TABLES, alexander(27, 2), alexander(31, 2),
              constant_action(Permutation.identity(8)),
              *(racks[name] for name in ("T5", "Q6", "R6", "MX6", "MY6")))
    for table in tables:
        table = RackTable(table.entries)
        listing = enumerate_subracks(table)
        orbits = {tuple(oracles.subrack_orbit(table.entries, subset))
                  for subset in listing}
        for at in ((2, 3, "def"), (1, 1, "prop3")):
            calls.update(escape=0, count=0)
            for subset in listing:
                subrack_polynomial(table, subset, *at)
            assert calls == {"escape": 0, "count": len(orbits)}, at
            # the slot keeps the polynomials of orbits of several subracks
            # only: an orbit of one has nothing to share
            kept = vars(table)["_pair_memo"][2]
            assert len(kept) == sum(len(orbit) > 1 for orbit in orbits)


def test_a_listed_tuple_read_out_of_order_is_checked(racks, calls):
    # a listed tuple is known only at the place after the last one found
    # or at the listing's start: read first, then last, then the rest in
    # order, then once more in order, only the one read out of order runs
    # a closure check, and the second pass counts again only the orbits
    # of one subrack, which keep no polynomial
    for table in (alexander(27, 2), alexander(21, 2), racks["T5"]):
        table = RackTable(table.entries)
        listing = enumerate_subracks(table)
        last = len(listing) - 1
        want = [oracles.poly_terms(table.entries, 2, 3, "def", subset=subset)
                for subset in listing]
        checks = []
        for i in (0, last, *range(1, last), *range(len(listing))):
            if i == 0 and checks:  # the second pass begins
                calls["count"] = 0
            calls["escape"] = 0
            got = subrack_polynomial(table, listing[i], 2, 3)
            assert got.as_dict() == want[i]
            checks.append(calls["escape"])
        assert checks == [0, 1, *repeat(0, 2 * last)]
        orbits = {tuple(oracles.subrack_orbit(table.entries, subset))
                  for subset in listing}
        assert calls["count"] == sum(len(orbit) == 1 for orbit in orbits)


def test_other_tuples_beside_a_listing_keep_every_check(racks):
    # with a listing recorded, a tuple that is not a listed one takes the
    # checks in their order, even when its items compare with nothing
    class Unequal:
        def __eq__(self, other):
            raise ValueError("no truth value")

        __lt__ = __gt__ = __eq__
        __hash__ = object.__hash__

        def __repr__(self):
            return "Unequal()"

    t5 = RackTable(racks["T5"].entries)
    listing = enumerate_subracks(t5)
    cases = [
        ((4, 5.0), "non-integer element 5.0"),
        ((4, Unequal()), "non-integer element Unequal()"),
        ((Unequal(), 4), "non-integer element Unequal()"),
        ((4, 9), "element 9 out of range 1..5"),
        ((2, 1), "not a subrack: 1▷2=3 escapes the subset"),
        ((1, 2), "not a subrack: 1▷2=3 escapes the subset"),
        ((), "subset is empty"),
    ]
    for subset, message in cases:
        with pytest.raises(RackError) as info:
            subrack_polynomial(t5, subset, 1, 1)
        assert str(info.value) == message
    # a bool is an int to the checks, and equal to a listed item
    assert subrack_polynomial(t5, (True, 2, 3), 1, 1) == subrack_polynomial(
        t5, listing[listing.index((1, 2, 3))], 1, 1)


def test_a_listing_record_is_small_beside_the_listing():
    # the record keeps the returned tuple, not a copy, with one eight-byte
    # list slot per subrack: the 16,383 subracks of the trivial rack of 14
    # elements
    table = constant_action(Permutation.identity(14))
    table._inner  # the axioms and orbits are kept with or without a listing
    tracemalloc.start()
    try:
        listing = enumerate_subracks(table)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(listing) == 2**14 - 1
    own = sys.getsizeof(listing) + sum(map(sys.getsizeof, listing))
    assert held <= 1.25 * own


# -- closed forms for single-permutation tables ------------------------------


@settings(max_examples=80)
@given(perm_images, st.integers(1, 5), st.integers(1, 5))
def test_constant_action_closed_form(images, m, n):
    sigma = Permutation(images)
    k = sigma.n
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
