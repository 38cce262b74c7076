"""Table constructors: single-permutation, affine cyclic, and two-coefficient,
and the text that ``rackkit gen`` streams from their rows."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rackkit import (
    Permutation,
    RackError,
    TableFormatError,
    alexander,
    constant_action,
    diagonal_perm,
    dual,
    format_rack_table,
    rack_polynomial,
    rack_rank,
    ts_rack,
    validate_rack,
)
from rackkit.cli import main

perm_images = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def units(n: int) -> list[int]:
    return [t for t in range(n) if math.gcd(t, n) == 1]


# -- constant action ---------------------------------------------------------


def test_constant_action_tables(racks):
    assert constant_action(Permutation((3, 1, 2))) == racks["ex2"]
    assert constant_action(Permutation((2, 1, 4, 3, 6, 5))) == racks["MX6"]
    assert constant_action(Permutation((2, 3, 1, 5, 6, 4))) == racks["MY6"]
    assert constant_action(Permutation((1,))) == racks["triv1"]


def test_constant_action_reads_the_images(monkeypatch):
    # each row is (σ(x),) * n from sigma.images, with no call per entry
    sigma = Permutation((2, 3, 4, 1))

    def refuse(self, x):
        raise AssertionError("constant_action called the permutation")

    monkeypatch.setattr(Permutation, "__call__", refuse)
    assert constant_action(sigma).entries == tuple((v,) * 4 for v in (2, 3, 4, 1))


def test_constant_action_checks_any_other_sigma():
    # only an exact Permutation is trusted; anything else with n and
    # images takes the table constructor's check
    class Images:
        def __init__(self, images):
            self.n, self.images = len(images), images

    sigma = Images((2, 3, 1))
    assert constant_action(sigma) == constant_action(Permutation(sigma.images))
    with pytest.raises(TableFormatError, match="^entry 4 out of range 1..3$"):
        constant_action(Images((4, 1, 2)))


def test_constant_action_rows_are_constant():
    table = constant_action(Permutation((2, 3, 4, 1)))
    for x in table.elements:
        row = {table.op(x, y) for y in table.elements}
        assert row == {table.op(x, 1)}


@given(perm_images)
def test_constant_action_is_rack_with_rank_of_sigma(images):
    sigma = Permutation(images)
    table = constant_action(sigma)
    assert table.report.is_rack
    assert rack_rank(table) == sigma.order
    assert table.report.is_quandle == sigma.is_identity()


@given(perm_images)
def test_constant_action_dual_uses_inverse(images):
    sigma = Permutation(images)
    assert dual(constant_action(sigma)) == constant_action(sigma.inverse())


# -- affine cyclic -----------------------------------------------------------


def test_alexander_small_tables(racks):
    assert alexander(3, 2) == racks["dihedral3"]
    assert alexander(1, 0).entries == ((1,),)
    assert alexander(2, 1).entries == ((1, 1), (2, 2))
    # coefficient is reduced modulo n first
    assert alexander(3, 5) == alexander(3, 2)
    assert alexander(3, -1) == alexander(3, 2)


def test_alexander_rejects_non_units():
    for n, t in ((4, 2), (6, 3), (6, 2), (9, 6)):
        with pytest.raises(RackError, match="unit"):
            alexander(n, t)


def test_alexander_polynomials():
    assert str(rack_polynomial(alexander(3, 2), 1, 1)) == "3*s*t"
    assert str(rack_polynomial(alexander(4, 3), 1, 1)) == "4*s^2*t^2"
    assert str(rack_polynomial(alexander(5, 1), 1, 1)) == "5*s^5*t^5"
    assert str(rack_polynomial(alexander(401, 2), 1, 1)) == "401*s*t"
    # two Inn-orbits, the even and the odd residues
    assert str(rack_polynomial(alexander(400, 3), 6, 4)) == "400*s^8*t^80"


def test_alexander_fixed_point_structure():
    # both one-step counts equal gcd(n, 1 - t) at every element
    for n in range(1, 13):
        for t in units(n):
            table = alexander(n, t)
            a = math.gcd(n, 1 - t)
            for x in table.elements:
                assert oracles.col_count(table.entries, 1, x) == a
                assert oracles.row_count(table.entries, 1, x) == a


def test_alexander_properties():
    for n in range(1, 13):
        for t in units(n):
            r = validate_rack(alexander(n, t))
            assert r.is_rack and r.is_quandle
            assert r.is_crossed_set
            assert r.is_abelian


def test_alexander_latin_iff_shift_is_unit():
    # left translations are x -> t*x + (1-t)*y, surjective iff 1-t is a unit
    for n in range(1, 13):
        for t in units(n):
            r = validate_rack(alexander(n, t))
            assert r.is_latin == (math.gcd(n, 1 - t) == 1)
    assert not validate_rack(alexander(400, 3)).is_latin  # 1 - 3 is even


# -- two-coefficient affine --------------------------------------------------


def test_ts_rack_table():
    table = ts_rack(4, 1, 2)
    assert table.entries == ((1, 3, 1, 3), (2, 4, 2, 4), (3, 1, 3, 1), (4, 2, 4, 2))
    assert rack_rank(table) == 2
    assert diagonal_perm(table).images == (1, 4, 3, 2)
    assert not table.report.is_quandle


def test_ts_rack_reduces_to_affine_quandle():
    # s = 1 - t recovers the one-coefficient construction
    assert ts_rack(3, 2, 2) == alexander(3, 2)
    assert ts_rack(5, 3, 3) == alexander(5, 3)


def test_ts_rack_zero_shift_is_constant_action():
    # s = 0 collapses to the single-permutation table for x -> t*x
    table = ts_rack(5, 2, 0)
    assert table == constant_action(Permutation((1, 3, 5, 2, 4)))


def test_ts_rack_validation():
    with pytest.raises(RackError, match="^modulus must be positive, got 0$"):
        ts_rack(0, 1, 0)
    with pytest.raises(RackError, match="unit"):
        ts_rack(4, 2, 1)
    with pytest.raises(RackError, match="s="):
        ts_rack(2, 1, 1)
    with pytest.raises(RackError, match="s="):
        ts_rack(8, 1, 2)


def test_ts_rack_valid_parameter_sweep():
    for n in range(1, 11):
        for t in units(n):
            for s in range(n):
                if (s * (1 - t - s)) % n != 0:
                    continue
                table = ts_rack(n, t, s)
                assert table.report.is_rack
                assert oracles.is_rack(table.entries)


def test_ts_rack_parameters_prove_a_rack():
    # a unit t and s(1-t-s) ≡ 0 mod n make every column a bijection and
    # the table self-distributive, so ts_rack builds no report; each of
    # these tables must still report a rack when it is read, and hold the
    # formula's entries, for coefficients given unreduced too
    count = 0
    for n in range(1, 31):
        for t in units(n):
            for s in range(n):
                if (s * (1 - t - s)) % n != 0:
                    continue
                table = ts_rack(n, t, s)
                assert not {"report", "_axioms"} & vars(table).keys()
                assert table.entries == oracles.linear_table(n, t, s)
                assert ts_rack(n, t + n, s - n) == table
                if s == (1 - t) % n:
                    assert alexander(n, t) == table
                    assert alexander(n, t - 2 * n) == table
                assert table.report.is_rack, (n, t, s)
                count += 1
    assert count == 683


# -- rackkit gen -------------------------------------------------------------


FAMILIES = {"constant": lambda *images: constant_action(Permutation(images)),
            "alexander": alexander, "ts": ts_rack}


@pytest.mark.parametrize("argv", [
    ("constant", "1"),
    ("constant", "3", "1", "2"),
    ("constant", "2", "1", "4", "5", "3", "6"),
    ("alexander", "1", "0"),
    ("alexander", "7", "3"),
    ("alexander", "13", "-1"),
    ("alexander", "25", "7"),
    ("ts", "1", "5", "-3"),
    ("ts", "4", "1", "2"),
    ("ts", "8", "3", "6"),
    ("ts", "12", "5", "0"),
])
def test_gen_writes_the_library_table(capsys, argv):
    # gen streams the producer's rows through the one text writer; the
    # bytes are those of the whole table's text
    family, *params = argv
    table = FAMILIES[family](*map(int, params))
    assert main(["gen", *argv]) == 0
    assert capsys.readouterr() == (format_rack_table(table), "")


@pytest.mark.parametrize("argv", [
    ("alexander", "4", "2"),
    ("alexander", "0", "1"),
    ("ts", "0", "1", "0"),
    ("ts", "2", "1", "1"),
    ("ts", "8", "1", "2"),
    ("constant", "1", "1"),
    ("constant", "2", "3"),
])
def test_gen_bad_parameter_prints_nothing(capsys, argv):
    # every parameter is checked before the first line is written
    assert main(["gen", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=40)
@given(st.integers(2, 12))
def test_ts_rack_diagonal_is_shift_by_sum(n):
    for t in units(n):
        for s in range(n):
            if (s * (1 - t - s)) % n != 0:
                continue
            table = ts_rack(n, t, s)
            order = 1
            acc = (t + s) % n
            while acc != 1 % n:
                acc = (acc * (t + s)) % n
                order += 1
            assert rack_rank(table) == order
