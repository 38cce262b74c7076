"""Tables, permutations, validation, duals, and quotients."""

import ast
import contextlib
import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import cached_property, reduce
from itertools import permutations, product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rackkit
from conftest import (RACK_TABLES, generated_racks, load_link, load_rack,
                      relabel, trivial_union, ts_non_quandle_params)
from rackkit import (
    AxiomViolation,
    CongruenceError,
    NotARackError,
    Permutation,
    PropertyReport,
    RackError,
    RackTable,
    TableFormatError,
    alexander,
    closure,
    column_order_lcm,
    constant_action,
    diagonal_perm,
    dual,
    enhanced_invariant,
    enumerate_subracks,
    exponent_profile,
    format_rack_table,
    is_subrack,
    isomorphic,
    operator_equivalence_quotient,
    parse_rack_table,
    partitions,
    permutation_of_type,
    properties_report,
    quotient_by,
    rack_counting,
    rack_op_iter,
    rack_polynomial,
    rack_rank,
    rp_family_scan,
    subrack_polynomial,
    ts_rack,
    validate_rack,
    verify_constant_action_classification,
)
from rackkit.iso import _invariant_keys

perm_images = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


# -- permutations -----------------------------------------------------------


def test_permutation_identity_and_call():
    p = Permutation.identity(4)
    assert p.images == (1, 2, 3, 4)
    assert p.is_identity()
    assert [p(i) for i in range(1, 5)] == [1, 2, 3, 4]


def test_permutation_from_cycles():
    p = Permutation.from_cycles(5, [(4, 5)])
    assert p.images == (1, 2, 3, 5, 4)
    q = Permutation.from_cycles(3, [(1, 2, 3)])
    assert q.images == (2, 3, 1)


def test_permutation_cycle_data():
    p = Permutation((2, 1, 4, 5, 3))
    assert p.cycle_type == (3, 2)
    assert p.order == 6
    assert p.fixed_count == 0
    assert Permutation((1, 3, 2, 4)).fixed_count == 2


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("call", [
    lambda: Permutation((2, 1)).power(1.5),
    lambda: Permutation.from_cycles(2, [(1, 5)]),
    lambda: Permutation.from_cycles(3, [(1.0, 2)]),
    lambda: Permutation((2, 3, 1))(0),
    lambda: Permutation((1, 2, 3)).compose(Permutation((2, 1))),
    lambda: Permutation((1, 2, 3)).conjugated_by(Permutation((2, 1))),
    lambda: Permutation((2, 1)).compose((2, 1)),
    lambda: Permutation((2, 1)).conjugated_by([2, 1]),
], ids=["power-non-integer", "from_cycles-out-of-range",
        "from_cycles-non-integer", "call-out-of-range", "compose-sizes",
        "conjugated_by-sizes", "compose-non-permutation",
        "conjugated_by-non-permutation"])
def test_permutation_bad_input_raises_value_error(call):
    # not a bare TypeError or IndexError, and no quiet answer such as
    # images[-1] for the point 0 or a composite on the shorter size
    with pytest.raises(ValueError):
        call()


def test_permutation_compose_order():
    # compose(other) applies other first
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    assert s.compose(t)(2) == s(t(2))


@given(perm_images)
def test_permutation_inverse_roundtrip(images):
    p = Permutation(images)
    q = p.inverse()
    assert all(q(p(x)) == x for x in range(1, p.n + 1))
    assert p.compose(q).is_identity()


@given(perm_images, st.integers(-6, 6), st.integers(-6, 6))
def test_permutation_power_additive(images, i, j):
    p = Permutation(images)
    assert p.power(i).compose(p.power(j)) == p.power(i + j)


@given(perm_images, perm_images)
def test_conjugation_preserves_cycle_type(images, other):
    if len(images) != len(other):
        return
    p = Permutation(images)
    assert p.conjugated_by(Permutation(other)).cycle_type == p.cycle_type


@given(perm_images)
def test_order_annihilates(images):
    p = Permutation(images)
    assert p.power(p.order).is_identity()


def test_power_at_large_order():
    # cycle type (23, 19, 17, 13, 11, 7, 5, 3) on 98 points: order 111,546,435
    cycles, start = [], 1
    for length in (23, 19, 17, 13, 11, 7, 5, 3):
        cycles.append(tuple(range(start, start + length)))
        start += length
    p = Permutation.from_cycles(98, cycles)
    assert p.order == 111_546_435
    table = constant_action(p)
    begin = time.perf_counter()
    for k in (10**8, -10**8, p.order - 1, 10**18 + 7):
        q = p.power(k)
        for c in cycles:
            for i, x in enumerate(c):
                assert q(x) == c[(i + k) % len(c)]
                assert rack_op_iter(table, x, 1, k) == c[(i + k) % len(c)]
    # O(n) per power: milliseconds, where iterating k would take minutes
    assert time.perf_counter() - begin < 5


# -- frozen records ---------------------------------------------------------

_P = rackkit.TwoVarPoly(((0, 1, 2),))
_Q = rackkit.TwoVarPoly(((1, 1, 2),))
_D = rackkit.PolyDifference(1, 2, _P, _Q)
_C = rackkit.Crossing(1, 1, 1, 1)
_SAME = rackkit.SameTypeCheck((2,), True, True, 2)
_DISTINCT = rackkit.DistinctTypeCheck((2,), (1, 1), False, _D)
_D_REPR = ("PolyDifference(m=1, n=2, left=TwoVarPoly(terms=((0, 1, 2),)), "
           "right=TwoVarPoly(terms=((1, 1, 2),)))")
_SAME_REPR = ("SameTypeCheck(cycle_type=(2,), iso=True, scan_empty=True, "
              "scan_bound=2)")
_DISTINCT_REPR = ("DistinctTypeCheck(left_type=(2,), right_type=(1, 1), "
                  f"iso=False, first_difference={_D_REPR})")
_C_REPR = "Crossing(sign=1, over=1, under_in=1, under_out=1)"

# every record class with its fields, in order, and the repr that the
# frozen dataclasses these classes were before gave them
RECORDS = [
    (Permutation, {"images": (2, 3, 1)}, "Permutation(images=(2, 3, 1))"),
    (AxiomViolation, {"axiom": "bijectivity", "witness": (1, 2, 1)},
     "AxiomViolation(axiom='bijectivity', witness=(1, 2, 1))"),
    (PropertyReport,
     {"is_rack": False, "is_quandle": False, "is_crossed_set": False,
      "is_abelian": False, "is_latin": True, "violation_count": 2,
      "first_violations": (AxiomViolation("distributivity", (1, 2, 1)),)},
     "PropertyReport(is_rack=False, is_quandle=False, is_crossed_set=False, "
     "is_abelian=False, is_latin=True, violation_count=2, first_violations="
     "(AxiomViolation(axiom='distributivity', witness=(1, 2, 1)),))"),
    (RackTable, {"entries": ((1, 1), (2, 2))},
     "RackTable(entries=((1, 1), (2, 2)))"),
    (rackkit.TwoVarPoly, {"terms": ((0, 1, 2),)},
     "TwoVarPoly(terms=((0, 1, 2),))"),
    (rackkit.ExponentProfile, {"m": 1, "n": 2, "pairs": ((2, 2), (2, 2))},
     "ExponentProfile(m=1, n=2, pairs=((2, 2), (2, 2)))"),
    (rackkit.IsoResult, {"isomorphic": True, "witness": Permutation((1, 2))},
     "IsoResult(isomorphic=True, witness=Permutation(images=(1, 2)))"),
    (rackkit.PolyDifference, {"m": 1, "n": 2, "left": _P, "right": _Q},
     _D_REPR),
    (rackkit.RpFamilyScan,
     {"bound": 3, "complete_bound": True, "differences": (_D,)},
     f"RpFamilyScan(bound=3, complete_bound=True, differences=({_D_REPR},))"),
    (rackkit.SameTypeCheck,
     {"cycle_type": (2,), "iso": True, "scan_empty": True, "scan_bound": 2},
     _SAME_REPR),
    (rackkit.DistinctTypeCheck,
     {"left_type": (2,), "right_type": (1, 1), "iso": False,
      "first_difference": _D}, _DISTINCT_REPR),
    (rackkit.ClassificationReport,
     {"k": 2, "convention": "def", "same_type": (_SAME,),
      "distinct_type": (_DISTINCT,)},
     f"ClassificationReport(k=2, convention='def', same_type=({_SAME_REPR},), "
     f"distinct_type=({_DISTINCT_REPR},))"),
    (rackkit.Crossing, {"sign": 1, "over": 1, "under_in": 1, "under_out": 1},
     _C_REPR),
    (rackkit.LinkDiagram, {"crossings": (_C,), "free_arcs": (2,)},
     f"LinkDiagram(crossings=({_C_REPR},), free_arcs=(2,))"),
    (rackkit.EnhancedInvariant,
     {"m": 1, "n": 1, "convention": "def", "rack_rank": 1,
      "component_count": 1, "pairs": (((0,), _P, 2),),
      "image_multiplicities": (((0,), (1, 2), 2),)},
     "EnhancedInvariant(m=1, n=1, convention='def', rack_rank=1, "
     "component_count=1, pairs=(((0,), TwoVarPoly(terms=((0, 1, 2),)), 2),), "
     "image_multiplicities=(((0,), (1, 2), 2),))"),
]


@pytest.mark.parametrize("cls, fields, expected_repr", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, fields, expected_repr):
    names, values = tuple(fields), tuple(fields.values())
    record = cls(*values)
    assert repr(record) == expected_repr
    assert tuple(getattr(record, name) for name in names) == values
    # equality and hashing read the tuple of the fields
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert record.__eq__(values) is NotImplemented and record != values
    # every cached view is read first, and no clone holds one
    for name, attr in vars(cls).items():
        if isinstance(attr, rackkit.core._cached):
            with contextlib.suppress(RackError):
                getattr(record, name)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        assert vars(clone).keys() == vars(cls)["__annotations__"].keys()
        assert repr(clone) == expected_repr and hash(clone) == hash(record)
    # keyword, mixed and reordered construction
    assert cls(**fields) == record
    assert cls(*values[:1], **dict(reversed(list(fields.items())[1:]))) == record
    # frozen: no field, and no other attribute, can be set or deleted
    for name in (names[0], "other"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
    assert repr(record) == expected_repr
    # missing, unknown, duplicate and extra arguments
    for args, kwargs in [((), {}), ((), dict(list(fields.items())[1:])),
                         (values, {"other": 1}),
                         (values, {names[0]: values[0]}),
                         ((*values, *values), {})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_defaults_and_the_report_table_left_out():
    assert rackkit.IsoResult(False) == rackkit.IsoResult(False, None)
    assert rackkit.LinkDiagram((_C,)).free_arcs == ()
    report = PropertyReport(True, True, True, True, True)
    assert (report.violation_count, report.first_violations,
            report.table) == (0, (), None)
    assert report == PropertyReport(True, True, True, True, True, 0, (), None)
    # the table a report analysed is kept, but not compared, hashed or shown
    flags = (True, True, True, True, True, 0, ())
    one = PropertyReport(*flags, RackTable(((1,),)))
    two = PropertyReport(*flags, table=RackTable(((1, 1), (2, 2))))
    assert one.table == RackTable(((1,),)) and two.table.n == 2
    assert one == two == report and hash(one) == hash(two) == hash(flags)
    assert repr(one) == repr(two) == repr(report)
    assert "table" not in repr(one)
    assert pickle.loads(pickle.dumps(two)).table == two.table


# -- table construction and parsing -----------------------------------------


def test_table_shape_errors():
    with pytest.raises(TableFormatError):
        RackTable(((1, 2), (1,)))
    with pytest.raises(TableFormatError):
        RackTable(((1, 3), (2, 1)))  # 3 out of range for n=2
    with pytest.raises(TableFormatError, match=r"^entry 4 out of range 1\.\.3$"):
        RackTable(((1, 2, 3), (1, 4, 0), (5, 1, 1)))
    with pytest.raises(TableFormatError):
        RackTable(())


class Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("value", [1.5, 1.0, "1", "a", None])
def test_non_integer_entries_are_rejected(value):
    # entries go through operator.index: 1.5 is not truncated and "1" is
    # not parsed, while any type with __index__ is taken
    with pytest.raises(TableFormatError) as info:
        RackTable(((1, 1), (2, value)))
    assert str(info.value) == f"non-integer entry {value!r}"
    with pytest.raises(ValueError):
        Permutation((value, 2))
    assert RackTable(((1, Two()), (2, 2))).entries == ((1, 2), (2, 2))
    assert Permutation((Two(), 1)).images == (2, 1)


@pytest.mark.parametrize("value", [1.9, 1.2, "1", None])
@pytest.mark.parametrize("call", [
    lambda t, v: t.subtable([v]),
    lambda t, v: closure(t, [v]),
    lambda t, v: is_subrack(t, [v]),
    lambda t, v: subrack_polynomial(t, [v], 1, 1),
    lambda t, v: quotient_by(t, [[1], [v], [3]]),
], ids=["subtable", "closure", "is_subrack", "subrack_polynomial", "quotient_by"])
def test_non_integer_elements_are_rejected(call, value):
    # subset and partition members go through operator.index, as table
    # entries do: 1.9 is not truncated to 1 and "1" is not parsed
    table = alexander(3, 2)
    with pytest.raises(RackError) as info:
        call(table, value)
    assert str(info.value) == f"non-integer element {value!r}"
    assert call(table, Two()) is not None


@pytest.mark.parametrize("value", [1.5, 2.0, "2"])
@pytest.mark.parametrize("call, what", [
    (lambda v: rack_polynomial(alexander(3, 2), v, 1), "depth"),
    (lambda v: exponent_profile(alexander(3, 2), 1, v), "depth"),
    (lambda v: subrack_polynomial(alexander(3, 2), [1], v, 1), "depth"),
    (lambda v: rp_family_scan(alexander(3, 2), alexander(3, 2), v), "bound"),
    (lambda v: rp_family_scan(alexander(3, 2), alexander(3, 2), v,
                              stop_at_first=True), "bound"),
    (lambda v: rack_op_iter(alexander(3, 2), 1, 2, v), "iteration count"),
    (lambda v: partitions(v), "size"),
    (lambda v: verify_constant_action_classification(v), "size"),
    (lambda v: permutation_of_type((v, 1)), "cycle length"),
    (lambda v: alexander(v, 1), "modulus"),
    (lambda v: alexander(5, v), "coefficient"),
    (lambda v: ts_rack(5, v, 0), "coefficient"),
], ids=["rack_polynomial", "exponent_profile", "subrack_polynomial",
        "rp_family_scan", "rp_family_scan-first", "rack_op_iter", "partitions",
        "classification", "permutation_of_type", "alexander",
        "alexander-t", "ts_rack"])
def test_non_integer_sizes_are_rejected(call, what, value):
    # depths, bounds and sizes go through operator.index, as table entries
    # do: 1.5 and 2.0 are neither truncated nor taken, "2" is not parsed
    with pytest.raises(RackError) as info:
        call(value)
    assert str(info.value) == f"non-integer {what} {value!r}"
    assert call(Two()) is not None


def test_cycle_types_have_positive_parts():
    with pytest.raises(RackError, match=r"must be positive, got \(0, 2\)"):
        permutation_of_type((0, 2))


def test_parse_errors():
    with pytest.raises(TableFormatError, match="empty"):
        parse_rack_table("   \n# only a comment\n")
    with pytest.raises(TableFormatError, match="non-integer"):
        parse_rack_table("2\n1 x\n2 2\n")
    with pytest.raises(TableFormatError, match="positive"):
        parse_rack_table("0\n")
    with pytest.raises(TableFormatError, match="expected"):
        parse_rack_table("2\n1 1 2\n")


def test_a_token_too_long_for_int_is_named_by_its_digit_count():
    # int() refuses more digits than the interpreter's limit, 4,300 by
    # default; the message counts them and does not echo them
    for token in ("7" * 5000, "-" + "7" * 5000, "+" + "٧" * 5000):
        with pytest.raises(TableFormatError) as info:
            parse_rack_table(f"2\n1 1\n{token} 2\n")
        assert str(info.value) == "integer token of 5000 digits is too long"
    for token in ("--7", "7_", "+"):
        with pytest.raises(TableFormatError) as info:
            parse_rack_table(f"2\n1 1\n{token} 2\n")
        assert str(info.value) == f"non-integer token {token!r}"


def test_parse_ignores_comments_and_blanks():
    table = parse_rack_table("# two singletons\n\n2\n1 1\n\n2 2\n")
    assert table.entries == ((1, 1), (2, 2))


def reference_parse(text):
    """The table format read line by line, as the general parser reads it."""
    tokens = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            tokens.extend(stripped.split())
    if not tokens:
        raise TableFormatError("empty input")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            # only the digit limit refuses digits with at most a sign
            if re.fullmatch(r"[+-]?\d+", tok):
                raise TableFormatError(
                    f"integer token of {len(tok.lstrip('+-'))} digits "
                    f"is too long") from None
            raise TableFormatError(f"non-integer token {tok!r}") from None
    n, body = values[0], values[1:]
    if n < 1:
        raise TableFormatError(f"cardinality must be positive, got {n}")
    if len(body) != n * n:
        raise TableFormatError(
            f"expected {n * n} entries for n={n}, got {len(body)}")
    return RackTable(tuple(tuple(body[i * n:(i + 1) * n]) for i in range(n)))


def parse_outcome(parse, text):
    try:
        table = parse(text)
    except Exception as exc:  # the exception's type and message must agree
        return type(exc), str(exc)
    return table.entries, tuple(type(v) for row in table.entries for v in row)


def test_parse_matches_reference_parser():
    # the one-pass reading of text without "#" must give every result,
    # message and exception that the line-by-line reading gives
    rng = random.Random(2026)
    spaces = (" ", "\t", "\r\n", "\n", "\u00a0", "\u2003", "\u3000",
              "\x0b", "\x0c", "\x1c", "\u2028", "\x85")
    odd = ("+1", "-1", "01", "0", "007", "1_0", "١", "x", "1.0",
           "9" * 5000, "-0", "+0")

    def render(tokens):
        return "".join(tok + rng.choice(spaces) for tok in tokens)

    corpus = ["", "   ", "0", "1", "1 1", "2 1 1 2 2", "1000000000 1 1 1 1",
              "4" + " 1" * 16, "3 1 2 3", "9" * 5000, "9" * 5000 + " 1",
              "# a comment\n2\n1 1\n2 2\n", "2 1 # 1\n2 2\n",
              "2\r\n1 1\r\n2 2\r\n", "  #\n1\n1\n"]
    for _ in range(400):
        n = rng.randint(1, 6)
        entries = [str(rng.randint(1, n)) for _ in range(n * n)]
        first = str(n)
        roll = rng.random()
        if roll < 0.3:
            entries[rng.randrange(n * n)] = rng.choice(odd)
        elif roll < 0.4:
            first = rng.choice(odd + (str(n + 1), str(n - 1)))
        elif roll < 0.5:
            del entries[rng.randrange(n * n)]
        elif roll < 0.55:
            entries.append(str(n))
        text = render([first, *entries])
        if rng.random() < 0.15:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + "\n# note " + rng.choice(odd) + "\n" + text[cut:]
        corpus.append(text)
    for text in corpus:
        assert (parse_outcome(parse_rack_table, text)
                == parse_outcome(reference_parse, text)), text[:80]
    for table in (alexander(31, 2), alexander(12, 5)):
        text = table.to_text()
        assert parse_rack_table(text) == table == reference_parse(text)


def test_format_roundtrip(racks):
    for table in racks.values():
        assert parse_rack_table(format_rack_table(table)) == table


def test_op_and_inverse(racks):
    t5 = racks["T5"]
    assert t5.op(1, 2) == 3
    assert t5.op(4, 4) == 5
    assert t5.op_inv(t5.op(1, 2), 2) == 1
    for x in t5.elements:
        for y in t5.elements:
            assert oracles.op(t5.entries, x, y) == t5.op(x, y)
            assert oracles.op_inv(t5.entries, t5.op(x, y), y) == x
    with pytest.raises(RackError):
        t5.op(0, 1)
    with pytest.raises(RackError):
        t5.op(1, 6)


def test_columns_require_bijectivity():
    # column 1 sends both points to 1; column 2 is the identity
    broken = RackTable(((1, 1), (1, 2)))
    assert broken.column(2) == Permutation((1, 2))
    message = "column is not a bijection: not a bijection on 1..2: (1, 1)"
    for read in (lambda: broken.column(1), lambda: broken.columns):
        with pytest.raises(NotARackError) as info:
            read()
        assert str(info.value) == message


def test_column_views_match_their_definitions(racks, monkeypatch):
    rng = random.Random(17)
    tables = list(racks.values())
    for n in range(1, 10):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        units = [t for t in range(n) if math.gcd(t, n) == 1]
        tables += [constant_action(Permutation(tuple(images))),
                   alexander(n, rng.choice(units))]
    tables += [dual(table) for table in tables]
    for table in tables:
        right, left = table._right, table._left
        for x, y in product(table.elements, repeat=2):
            assert right[y][x] == table.entries[x - 1][y - 1]
            assert left[y][right[y][x]] == x
        assert dual(dual(table)) == table

    # a second count on the same table inverts no column
    builds = []
    build_left = RackTable._left.func

    def counted(table):
        builds.append(table)
        return build_left(table)

    view = cached_property(counted)
    view.__set_name__(RackTable, "_left")
    monkeypatch.setattr(RackTable, "_left", view)
    unknot = load_link("unknot")
    table = alexander(7, 3)
    first = rack_counting(unknot, table)
    assert rack_counting(unknot, table) == first
    assert builds == [table]

    # x ▷ y = x + y mod 3: bijective columns, but not a rack
    shifts = RackTable(tuple(tuple((x + y) % 3 + 1 for y in range(1, 4))
                             for x in range(1, 4)))
    assert not shifts.report.is_rack
    for x, y in product(shifts.elements, repeat=2):
        assert shifts.op_inv(shifts.op(x, y), y) == x
    # column 1 sends both points to 1
    with pytest.raises(NotARackError) as info:
        RackTable(((1, 1), (1, 2))).op_inv(1, 1)
    assert str(info.value) == (
        "column is not a bijection: not a bijection on 1..2: (1, 1)")


# -- the two column kernels -------------------------------------------------


def change_entry(entries, x, y, shift):
    """The table with x ▷ y moved on by shift (mod n), 0-based x and y."""
    n = len(entries)
    rows = [list(row) for row in entries]
    rows[x][y] = (rows[x][y] - 1 + shift) % n + 1
    return tuple(tuple(row) for row in rows)


def one_entry_changed(tables):
    """Each table of two or more elements with one entry changed."""
    return tables.filter(lambda entries: len(entries) > 1).flatmap(
        lambda entries: st.tuples(
            st.integers(0, len(entries) - 1), st.integers(0, len(entries) - 1),
            st.integers(1, len(entries) - 1)).map(
            lambda args: change_entry(entries, *args)))


kernel_racks = st.integers(1, 12).flatmap(generated_racks).map(
    lambda table: table.entries)
kernel_tables = st.one_of(
    kernel_racks, one_entry_changed(kernel_racks),
    st.integers(1, 12).flatmap(lambda n: st.lists(
        st.permutations(list(range(1, n + 1))), min_size=n, max_size=n)
        .map(from_columns)),
    st.integers(1, 12).flatmap(lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple),
        min_size=n, max_size=n).map(tuple)))


def kernel_readings(entries, images):
    """Everything the column kernel decides, read from a fresh table: the
    report's fields and every witness, require_rack's message, the inverse
    columns, op_inv, and on a rack its dual and isomorphic's witness
    against the table relabelled by images."""
    table = RackTable(entries)
    report = table.report
    readings = [report.is_rack, report.is_quandle, report.is_crossed_set,
                report.is_abelian, report.is_latin, report.violation_count,
                report.first_violations, report.axiom_violations]
    try:
        table.require_rack()
    except NotARackError as exc:
        readings.append(str(exc))
    try:
        readings += [table._left, [table.op_inv(x, y) for x, y in product(
            table.elements, repeat=2)]]
    except NotARackError as exc:
        readings.append(str(exc))
    if report.is_rack:
        relabelled_table = RackTable(relabel(entries, images))
        readings += [dual(table).entries, isomorphic(table, relabelled_table)]
    return readings


@settings(max_examples=300, deadline=None)
@given(kernel_tables.flatmap(lambda entries: st.tuples(
    st.just(entries), st.permutations(list(range(1, len(entries) + 1))))))
def test_both_column_kernels_agree(args):
    # the bytes kernel, and with the limit at 0 the itemgetter kernel, on
    # the same small tables: racks, racks with one entry changed, tables
    # of permutation columns and arbitrary tables
    entries, images = args
    sources, _ = RackTable(entries)._view
    assert type(sources[1]) is bytes
    fast = kernel_readings(entries, images)
    with patch.object(rackkit.core, "_BYTE_LIMIT", 0):
        sources, _ = RackTable(entries)._view
        assert type(sources[1]) is tuple
        slow = kernel_readings(entries, images)
    assert fast == slow
    assert [(v.axiom, v.witness) for v in slow[7]] == oracles.violations(
        entries)


def test_kernels_meet_at_256_elements():
    # 255 is the largest n whose elements fit in a byte: alexander(255, 2)
    # takes the bytes kernel, and with the limit at 0 the itemgetter one,
    # which alexander(257, 3) always takes
    entries = alexander(255, 2).entries
    with patch.object(rackkit.core, "_BYTE_LIMIT", 0):
        slow = RackTable(entries)
        slow.report, slow._left
    fast = RackTable(entries)
    for table, kind in ((fast, bytes), (slow, tuple),
                        (RackTable(alexander(257, 3).entries), tuple)):
        r = table.report
        assert (r.is_rack, r.is_quandle, r.is_abelian, r.is_latin) == (
            True, True, True, True)
        sources, _ = table._view
        assert type(sources[1]) is kind
    assert fast._left == slow._left
    # one entry changed: every column is composed, and both kernels count
    # and name the same witnesses
    broken = change_entry(entries, 100, 37, 1)
    with patch.object(rackkit.core, "_BYTE_LIMIT", 0):
        slow = RackTable(broken)
        slow.report
    fast = RackTable(broken)
    assert fast.report == slow.report and slow.report.violation_count > 10
    messages = []
    for table in (fast, slow):
        with pytest.raises(NotARackError) as info:
            table.require_rack()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_inverse_columns_share_one_int_per_element_at_n1001():
    # above 255 elements each inverse column is one pass through a list of
    # the n + 1 ints, shared by every column: the held memory after
    # parsing, the axiom pass, the report and _left was 43 MiB with a new
    # int per entry, and is about 23 MiB
    text = format_rack_table(alexander(1001, 2))
    tracemalloc.start()
    try:
        table = parse_rack_table(text)
        table.require_rack()
        table.report
        left = table._left
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 30 * 2**20
    assert [left[y][table._right[y][5]] for y in (1, 500, 1001)] == [5, 5, 5]


# -- validation -------------------------------------------------------------

# name -> (is_rack, is_quandle, is_crossed_set, is_abelian, is_latin)
EXPECTED_FLAGS = {
    "ex2": (True, False, False, True, False),
    "ex3": (True, False, False, True, False),
    "T5": (True, False, False, False, False),
    "Q6": (True, True, True, False, False),
    "R6": (True, True, False, True, False),
    "MX6": (True, False, False, True, False),
    "MY6": (True, False, False, True, False),
    "dihedral3": (True, True, True, True, True),
    "triv1": (True, True, True, True, True),
    "triv2": (True, True, True, True, False),
}


def test_fixture_property_flags(racks):
    for name, flags in EXPECTED_FLAGS.items():
        r = validate_rack(racks[name])
        got = (r.is_rack, r.is_quandle, r.is_crossed_set, r.is_abelian, r.is_latin)
        assert got == flags, f"{name}: {got}"
        assert r.axiom_violations == ()


def test_flags_match_oracle(racks):
    for table in racks.values():
        r = validate_rack(table)
        assert r.is_rack == oracles.is_rack(table.entries)
        assert r.is_quandle == oracles.is_quandle(table.entries)


def test_bijectivity_violation_reported():
    r = validate_rack(RackTable(((1, 1), (1, 2))))
    assert not r.is_rack
    assert any(v.axiom == "bijectivity" for v in r.axiom_violations)


def test_distributivity_violation_reported():
    # bijective columns, but (1 @ 1) @ 1 = 1 while (1 @ 1) needs 2 @ 1 = 1
    table = RackTable(((2, 1), (1, 2)))
    r = validate_rack(table)
    assert not r.is_rack
    assert not oracles.is_rack(table.entries)
    v = next(v for v in r.axiom_violations if v.axiom == "distributivity")
    x, y, z = v.witness
    a = table.entries
    assert a[a[x - 1][y - 1] - 1][z - 1] != a[a[x - 1][z - 1] - 1][a[y - 1][z - 1] - 1]


def test_require_rack_message():
    table = RackTable(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    with pytest.raises(NotARackError, match="and .* more"):
        table.require_rack()
    with pytest.raises(NotARackError):
        properties_report(table)


def test_random_tables_match_oracle():
    rng = random.Random(20260819)
    for _ in range(120):
        n = rng.randint(1, 4)
        entries = tuple(
            tuple(rng.randint(1, n) for _ in range(n)) for _ in range(n)
        )
        r = validate_rack(RackTable(entries))
        assert r.is_rack == oracles.is_rack(entries)
        if r.is_rack:
            assert r.is_quandle == oracles.is_quandle(entries)


# -- validation against the brute-force oracles ------------------------------


def assert_report_matches_oracles(entries):
    r = validate_rack(RackTable(entries))
    is_rack = oracles.is_rack(entries)
    assert r.is_rack == is_rack
    assert r.is_quandle == oracles.is_quandle(entries)
    assert r.is_crossed_set == oracles.is_crossed_set(entries)
    assert r.is_abelian == (is_rack and oracles.is_medial(entries))
    assert r.is_latin == oracles.is_latin(entries)
    expected = oracles.violations(entries)
    assert r.violation_count == len(expected)
    assert [(v.axiom, v.witness) for v in r.first_violations] == expected[:10]
    eager = PropertyReport(
        r.is_rack, r.is_quandle, r.is_crossed_set, r.is_abelian, r.is_latin,
        len(expected),
        tuple(AxiomViolation(axiom, w) for axiom, w in expected[:10]))
    assert repr(r) == repr(eager)
    again = validate_rack(RackTable(entries))
    assert again == eager and eager == again
    assert r == again and hash(r) == hash(eager)
    assert repr(again) == repr(eager)
    unread = validate_rack(RackTable(entries))
    restored = pickle.loads(pickle.dumps(unread))
    assert restored == eager
    assert [(v.axiom, v.witness) for v in restored.axiom_violations] == expected
    got = [(v.axiom, v.witness) for v in r.axiom_violations]
    assert got == expected


def test_unread_report_builds_only_its_first_ten_witnesses(monkeypatch):
    # __init__ is patched rather than the class, so that pickling still
    # finds AxiomViolation under its own name
    built = []
    init = rackkit.core.AxiomViolation.__init__

    def counted(self, axiom, witness):
        built.append(witness)
        init(self, axiom, witness)

    monkeypatch.setattr(rackkit.core.AxiomViolation, "__init__", counted)
    rng = random.Random(11)
    n = 30
    arbitrary = tuple(tuple(rng.randint(1, n) for _ in range(n))
                      for _ in range(n))
    columns = [rng.sample(range(1, n + 1), n) for _ in range(n)]
    bijective = from_columns(columns)
    for entries in (arbitrary, bijective):
        built.clear()
        report = validate_rack(RackTable(entries))
        fresh = validate_rack(RackTable(entries))
        assert len(built) <= 20
        assert report.violation_count > 10
        built.clear()
        assert report == fresh
        hash(report)
        repr(report)
        copy.copy(report)
        payload = pickle.dumps(report)
        assert built == []
        assert "axiom_violations" not in vars(report)
        restored = pickle.loads(payload)
        assert restored == report
        got = [(v.axiom, v.witness) for v in restored.axiom_violations]
        assert got == oracles.violations(entries)
        # a report made without its table cannot list what it does not hold
        bare = PropertyReport(False, False, False, False, False,
                              report.violation_count, report.first_violations)
        assert bare == report
        with pytest.raises(RackError, match="without its table"):
            bare.axiom_violations


def test_read_report_copies_and_pickles_small():
    rng = random.Random(60)
    n = 30
    entries = tuple(tuple(rng.randint(1, n) for _ in range(n))
                    for _ in range(n))
    report = validate_rack(RackTable(entries))
    unread = len(pickle.dumps(report))
    listed = report.axiom_violations
    assert len(listed) == report.violation_count > 1000
    assert len(pickle.dumps(report)) == unread
    assert "axiom_violations" not in vars(copy.copy(report))
    restored = pickle.loads(pickle.dumps(report))
    assert restored == report
    assert "axiom_violations" not in vars(restored)
    assert restored.axiom_violations == listed


# -- what a table holds ------------------------------------------------------

# every public entry point that reads a table, each called on one table
TABLE_READERS = {
    "validate_rack": validate_rack,
    "properties_report": properties_report,
    "require_rack": RackTable.require_rack,
    "op": lambda t: (t.op(1, t.n), t.op_inv(t.n, 1)),
    "column": lambda t: (t.column(1), t.columns, t.diagonal),
    "subtable": lambda t: t.subtable(closure(t, [1])),
    "format": lambda t: (format_rack_table(t), t.to_text()),
    "rack_op_iter": lambda t: rack_op_iter(t, 1, t.n, -3),
    "dual": dual,
    "diagonal_perm": diagonal_perm,
    "rack_rank": rack_rank,
    "column_order_lcm": column_order_lcm,
    "quotient_by": lambda t: quotient_by(t, [[x] for x in t.elements]),
    "operator_equivalence_quotient": operator_equivalence_quotient,
    "closure": lambda t: (closure(t, [1]), is_subrack(t, [1])),
    "rack_polynomial": lambda t: rack_polynomial(t, 2, 3, "prop3"),
    "exponent_profile": lambda t: exponent_profile(t, 1, 2),
    "enumerate_subracks": lambda t: [
        subrack_polynomial(t, s, 1, 1) for s in enumerate_subracks(t)],
    "subrack_polynomial": lambda t: subrack_polynomial(t, [1], 2, 2),
    "isomorphic": lambda t: isomorphic(t, RackTable(t.entries)),
    "rp_family_scan": lambda t: rp_family_scan(t, RackTable(t.entries)),
    "enumerate_colorings": lambda t: (
        rackkit.enumerate_colorings(load_link("trefoil"), t),
        rackkit.image_subrack(t, {1: 1})),
    "rack_counting": lambda t: rack_counting(load_link("hopf"), t),
    "enhanced_invariant": lambda t: enhanced_invariant(
        load_link("trefoil"), t, 1, 2),
}


def table_slots():
    """``entries`` and every name that RackTable declares as a cached view."""
    return {"entries"} | {name for name, attr in vars(RackTable).items()
                          if isinstance(attr, rackkit.core._cached)}


def test_a_table_holds_only_what_its_class_declares(racks):
    # each entry point alone on a fresh table, and all of them in turn on
    # one, over the fixtures, a relabelled alexander(n, 2) and non-racks
    declared = table_slots()
    rng = random.Random(19)
    tables = [*racks.values(),
              RackTable(relabel(alexander(9, 2).entries,
                                rng.sample(range(1, 10), 9))),
              RackTable(((1, 1), (1, 1))),
              RackTable(from_columns([rng.sample(range(1, 6), 5)
                                      for _ in range(5)]))]
    assert not tables[-1].report.is_rack
    for entries in (t.entries for t in tables):
        shared = RackTable(entries)
        for name, read in TABLE_READERS.items():
            for table in (RackTable(entries), shared):
                with contextlib.suppress(RackError):
                    read(table)
                assert set(vars(table)) <= declared, name


def test_a_used_table_pickles_and_copies_as_its_entries():
    fresh = len(pickle.dumps(alexander(14, 1)))
    table = alexander(14, 1)
    listing = enumerate_subracks(table)
    first = subrack_polynomial(table, listing[0], 1, 1)
    assert len(pickle.dumps(table)) == fresh
    for clone in (copy.copy(table), copy.deepcopy(table),
                  pickle.loads(pickle.dumps(table))):
        assert set(vars(clone)) == {"entries"} and clone == table
        # reads through the clone leave the original's listing place
        assert [subrack_polynomial(clone, s, 1, 1)
                for s in listing[:3]][0] == first
        assert vars(table)["_listing"][2] == 1
    assert subrack_polynomial(table, listing[1], 1, 1) == (
        subrack_polynomial(RackTable(table.entries), listing[1], 1, 1))
    assert vars(table)["_listing"][2] == 2


def from_columns(columns):
    n = len(columns)
    return tuple(tuple(columns[y][x] for y in range(n)) for x in range(n))


def conjugation_quandle(group):
    """x ▷ y = y⁻¹xy on a set of permutations of range(k), closed under it."""
    index = {g: i for i, g in enumerate(group, start=1)}

    def conj(x, y):
        inv_y = tuple(sorted(range(len(y)), key=y.__getitem__))
        return tuple(inv_y[x[y[i]]] for i in range(len(y)))

    return tuple(tuple(index[conj(x, y)] for y in group) for x in group)


S3 = tuple(permutations(range(3)))
S4 = tuple(permutations(range(4)))
S4_TRANSPOSITIONS = tuple(g for g in S4 if sum(g[i] != i for i in range(4)) == 2)
# generated by two of its elements, so a mediality check that compares
# only the pairs of generators would find it medial
S4_FOUR_CYCLES = tuple(g for g in S4 if all(g[g[i]] != i for i in range(4)))


arbitrary_tables = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple),
        min_size=n, max_size=n).map(tuple))
permutation_column_tables = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(1, n + 1))), min_size=n, max_size=n)
    .map(from_columns))


def _units(n):
    return [t for t in range(n) if math.gcd(t, n) == 1]


generator_racks = st.one_of(
    st.integers(1, 6).flatmap(
        lambda n: st.sampled_from(_units(n)).map(lambda t: alexander(n, t))),
    st.integers(1, 6).flatmap(
        lambda n: st.sampled_from([
            (t, s) for t in _units(n) for s in range(n)
            if (s * (1 - t - s)) % n == 0]).map(lambda ts: ts_rack(n, *ts))),
    st.integers(1, 6).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(
        lambda images: constant_action(Permutation(tuple(images)))),
).map(lambda table: table.entries)
# three non-medial quandles with n = 6
small_conjugation_quandles = st.sampled_from(
    [conjugation_quandle(S3), conjugation_quandle(S4_TRANSPOSITIONS),
     conjugation_quandle(S4_FOUR_CYCLES)])


def relabelled(tables):
    return tables.flatmap(
        lambda entries: st.permutations(list(range(1, len(entries) + 1))).map(
            lambda images: relabel(entries, images)))


def swap_in_column(entries, y, i, j):
    """The table with x_i ▷ y and x_j ▷ y swapped; columns stay bijective."""
    rows = [list(row) for row in entries]
    rows[i][y], rows[j][y] = rows[j][y], rows[i][y]
    return tuple(tuple(row) for row in rows)


def swapped(tables):
    """Each table with two entries of one column swapped."""
    return tables.filter(lambda entries: len(entries) > 1).flatmap(
        lambda entries: st.tuples(
            st.integers(0, len(entries) - 1),
            st.permutations(range(len(entries)))).map(
            lambda args: swap_in_column(entries, args[0], *args[1][:2])))


rack_tables = st.one_of(generator_racks, small_conjugation_quandles)
relabelled_racks = relabelled(rack_tables)
# no element of one block generates the other, so both blocks must give
# columns to the check, the non-medial quandles among them
rack_blocks = st.one_of(generator_racks.filter(lambda e: len(e) <= 4),
                        small_conjugation_quandles)
trivial_unions = relabelled(st.tuples(rack_blocks, rack_blocks).map(
    lambda blocks: trivial_union(*blocks)))
# a swap makes some columns fail; beside a second block, whose columns
# still pass, the closure of those that passed skips the rest of it
near_racks = relabelled(st.one_of(
    swapped(rack_tables),
    st.tuples(swapped(rack_blocks), rack_blocks).map(
        lambda blocks: trivial_union(*blocks))))


@settings(max_examples=250, deadline=None)
@given(st.one_of(arbitrary_tables, permutation_column_tables, relabelled_racks,
                 near_racks, trivial_unions))
def test_validation_matches_oracles(entries):
    assert_report_matches_oracles(entries)


def entry_points(table, diagram):
    """The library calls that need a rack and read no property flag."""
    yield lambda: isomorphic(table, table)
    yield lambda: rp_family_scan(table, table)
    yield lambda: rp_family_scan(table, dual(table), stop_at_first=True)
    yield lambda: rack_polynomial(table, 2, 3)
    yield lambda: enumerate_subracks(table)
    yield lambda: rack_counting(diagram, table)
    yield lambda: enhanced_invariant(diagram, table, 1, 1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(arbitrary_tables, permutation_column_tables, relabelled_racks,
                 near_racks, trivial_unions))
def test_entry_points_stop_at_the_axioms(entries):
    # on a rack they read only the axiom pass, and on a non-rack they
    # raise from it; either way no report is built, and the report read
    # afterwards is a fresh table's, witnesses and all
    table = RackTable(entries)
    analyzed = []
    analyze = rackkit.core._analyze

    def recorded(table):
        analyzed.append(table)
        return analyze(table)

    with patch.object(rackkit.core, "_analyze", recorded):
        for call in entry_points(table, load_link("trefoil")):
            try:
                call()
            except NotARackError as exc:
                assert str(exc) == not_a_rack_message(entries)
    assert analyzed == []
    report, fresh = table.report, RackTable(entries).report
    assert report == fresh and repr(report) == repr(fresh)
    assert report.axiom_violations == fresh.axiom_violations
    assert [(v.axiom, v.witness) for v in report.axiom_violations] == (
        oracles.violations(entries))


def not_a_rack_message(entries):
    """require_rack's message: the first three witnesses and how many
    more there are."""
    expected = oracles.violations(entries)
    shown = [f"{axiom} fails at {w}" for axiom, w in expected[:3]]
    if len(expected) > 3:
        shown.append(f"and {len(expected) - 3} more violations")
    return "not a rack: " + "; ".join(shown)


def test_validation_matches_oracles_on_all_small_permutation_tables():
    for n in range(1, 4):
        perms = list(permutations(range(1, n + 1)))
        for columns in product(perms, repeat=n):
            assert_report_matches_oracles(from_columns(columns))


def test_counts_match_oracles_on_all_3x3_tables():
    # columns that pass beside one that is not a bijection must not let
    # the check skip anything
    for flat in product(range(1, 4), repeat=9):
        entries = (flat[:3], flat[3:6], flat[6:])
        r = validate_rack(RackTable(entries))
        expected = oracles.violations(entries)
        assert r.is_rack == (not expected)
        assert r.violation_count == len(expected)
        assert [(v.axiom, v.witness) for v in r.first_violations] == expected[:10]


@pytest.mark.parametrize("group", [S3, S4_TRANSPOSITIONS, S4_FOUR_CYCLES, S4],
                         ids=["S3", "S4-transpositions", "S4-4-cycles", "S4"])
def test_conjugation_quandles_are_non_medial(group):
    entries = conjugation_quandle(group)
    assert_report_matches_oracles(entries)
    r = validate_rack(RackTable(entries))
    assert r.is_quandle and not r.is_abelian


# R6 is a quandle but not crossed, with three orbits under its inner
# group: {1,2}, {3,4} and {5,6}.  After a one-element block, whose pairs
# all pass, its failing pairs lie past the first orbit.  The last table
# has bijective columns and a Latin first row but is no rack, and its
# other rows are not bijections, so each of its rows must be read.
@pytest.mark.parametrize("entries", [
    RACK_TABLES["R6"], trivial_union(RACK_TABLES["triv1"], RACK_TABLES["R6"]),
    ((1, 2, 3), (2, 1, 1), (3, 3, 2)),
], ids=["R6", "triv1+R6", "non-rack"])
def test_report_reads_each_orbit_of_the_inner_group(entries):
    assert_report_matches_oracles(entries)


def test_validation_at_n200_stays_small():
    table = RackTable(alexander(200, 3).entries)  # fresh, nothing cached
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = validate_rack(table)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.is_rack, r.is_quandle, r.is_abelian) == (True, True, True)
    # under a second and about 1 MiB; the bounds catch only a return to n⁴
    assert peak < 100 * 2**20
    assert elapsed < 5


def test_alexander_401_parses_and_reports_quickly():
    text = format_rack_table(alexander(401, 2))
    start = time.perf_counter()
    r = parse_rack_table(text).report
    elapsed = time.perf_counter() - start
    assert (r.is_rack, r.is_quandle, r.is_abelian, r.is_latin) == (
        True, True, True, True)
    # two generators: a few tenths of a second, where composing all n²
    # column pairs took about six
    assert elapsed < 2


def test_equal_failing_columns_are_each_counted():
    # a column equal to one that passed is skipped; equal columns that
    # fail must each still be checked, and every witness counted
    rng = random.Random(16001)
    repeated_failures = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        images = rng.sample(range(1, n + 1), n)
        base = rng.choice((constant_action(Permutation(tuple(images))),
                           alexander(n, rng.choice(_units(n)))))
        columns = list(zip(*base.entries))
        bad = tuple(rng.sample(range(1, n + 1), n))
        for y in rng.sample(range(n), rng.randint(2, n)):
            columns[y] = bad
        entries = from_columns(columns)
        assert_report_matches_oracles(entries)
        failing = {z for axiom, (_, _, z) in oracles.violations(entries)
                   if axiom == "distributivity"}
        repeated_failures += len(failing) > len({columns[z - 1] for z in failing})
    assert repeated_failures >= 100


# Unions of blocks that no element of another block generates: each
# alexander(5, ·) block needs two passed columns of its own, and a
# constant-action block has equal columns, so the closure grows by every
# kind of orbit walk.  Relabelled, the greedy generators come late and a
# new column has to move members reached long before it.
orbit_blocks = st.one_of(
    st.sampled_from([alexander(5, 2).entries, alexander(5, 3).entries]),
    st.integers(1, 4).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(
        lambda images: constant_action(Permutation(tuple(images))).entries))
orbit_unions = st.lists(orbit_blocks, min_size=1, max_size=3).map(
    lambda blocks: reduce(trivial_union, blocks))


@settings(max_examples=150, deadline=None)
@given(relabelled(st.one_of(orbit_unions, swapped(orbit_unions))))
def test_orbit_closure_matches_oracles(entries):
    assert_report_matches_oracles(entries)


def greedy_checked(entries):
    """The z whose columns validation composes with every column: each z
    outside the ▷-closure of the z that joined before it, with a column
    unlike every one that passed.  A z joins when its column passes or
    equals one that did; none joins when some column is not a bijection."""
    n = len(entries)
    columns = [tuple(row[z] for row in entries) for z in range(n)]
    bijective = all(len(set(column)) == n for column in columns)
    failing = {z for axiom, (_, _, z) in oracles.violations(entries)
               if axiom == "distributivity"}
    joined, passed, checked = [], set(), []
    for z in range(1, n + 1):
        if z in oracles.closure(entries, joined):
            continue
        if columns[z - 1] not in passed:
            checked.append(z)
            if not bijective or z in failing:
                continue
            passed.add(columns[z - 1])
        joined.append(z)
    return checked


# Where a rack has several orbits, as alexander(6, 5) has (the even and the
# odd residues), a column that passes late can move members reached long
# before it to elements that its own walk never meets.  Unless the new
# column moves the old members, those elements are composed again,
# although every one of them passes.
@settings(max_examples=200, deadline=None)
@given(st.one_of(relabelled_racks, trivial_unions, near_racks,
                 relabelled(st.one_of(orbit_unions, swapped(orbit_unions)))))
def test_validation_composes_only_greedy_generators(entries):
    table = RackTable(entries)
    table.diagonal  # cached now, so the report reads elements only to loop
    passes = 0

    def elements(self):
        nonlocal passes
        passes += 1
        return range(1, self.n + 1)

    with patch.object(RackTable, "elements", property(elements)):
        table.report
    # one pass over z, and one over y for each column composed
    assert passes == 1 + len(greedy_checked(entries))


def change_entry(entries, x, y, shift):
    """The table with its entry at row x, column y (from 0) moved by
    shift, mod n, to another value."""
    n = len(entries)
    rows = [list(row) for row in entries]
    rows[x][y] = (rows[x][y] - 1 + shift) % n + 1
    return tuple(tuple(row) for row in rows)


def changed_entry(tables):
    """Each table with one entry changed; its column is not a bijection."""
    return tables.filter(lambda entries: len(entries) > 1).flatmap(
        lambda entries: st.tuples(
            st.integers(0, len(entries) - 1), st.integers(0, len(entries) - 1),
            st.integers(1, len(entries) - 1)).map(
            lambda args: change_entry(entries, *args)))


def swapped_in_last_column(tables):
    """Each table with two entries of its last element's column swapped."""
    return tables.filter(lambda entries: len(entries) > 1).flatmap(
        lambda entries: st.permutations(range(len(entries))).map(
            lambda order: swap_in_column(entries, len(entries) - 1,
                                         *order[:2])))


def singleton_result(entries, x):
    """What subrack_polynomial(·, {x}, 1, 1) gives, by the oracles: its
    terms, or the message it raises."""
    if not oracles.is_rack(entries):
        return not_a_rack_message(entries)
    escape = oracles.first_escape(entries, [x])
    if escape is not None:
        return "not a subrack: {}▷{}={} escapes the subset".format(*escape)
    return oracles.poly_terms(entries, 1, 1, "def", [x])


# the axiom pass tests bijectivity only on the columns it composes, the
# mediality test skips the first generator's pairs, and a singleton's
# closure is one lookup: each shortcut is checked against brute force on
# racks, on racks with one entry changed or two images swapped in the
# last column, and on random tables
@settings(max_examples=200, deadline=None)
@given(st.one_of(relabelled_racks, changed_entry(relabelled_racks),
                 swapped_in_last_column(relabelled_racks), arbitrary_tables))
def test_proved_checks_match_oracles(entries):
    assert_report_matches_oracles(entries)
    table = RackTable(entries)
    for x in table.elements:
        try:
            got = subrack_polynomial(table, [x], 1, 1).as_dict()
        except RackError as exc:
            got = str(exc)
        assert got == singleton_result(entries, x)


def trivial_rack(n):
    return RackTable(tuple((x,) * n for x in range(1, n + 1)))


def involution_rack(n):
    """x ▷ y = σ(x), σ swapping 2k-1 and 2k and fixing n when n is odd."""
    return constant_action(Permutation.from_cycles(
        n, [(x, x + 1) for x in range(1, n, 2)]))


@pytest.mark.parametrize("build", [trivial_rack, involution_rack])
def test_equal_columns_report_quickly_at_n401(build):
    table = build(401)
    start = time.perf_counter()
    r = table.report
    elapsed = time.perf_counter() - start
    assert (r.is_rack, r.is_abelian, r.is_latin) == (True, True, False)
    assert r.is_quandle == (build is trivial_rack)
    # every column is one permutation: checked once, where checking each
    # took several seconds
    assert elapsed < 2


def per_element(table):
    """``_cycle_lengths`` expanded through ``_inner``'s orbit index: each
    element's (length, multiplicity) pairs by column and by row, once the
    index and the orbit sizes are checked against each other."""
    _, which, sizes, _ = table._inner
    by_column, by_row = table._cycle_lengths
    assert len(which) == table.n + 1 and which[0] == 0
    assert sizes == tuple(map(Counter(which[1:]).__getitem__,
                              range(len(sizes))))
    assert len(by_column) == len(by_row) == len(sizes)
    return (tuple(by_column[i] for i in which[1:]),
            tuple(by_row[i] for i in which[1:]))


@given(relabelled_racks)
def test_cycle_lengths_match_the_column_cycles(entries):
    table = RackTable(entries)
    by_row = [Counter() for _ in entries]
    by_column = []
    for column in table.columns:
        counts = Counter()
        for cycle in column.cycles:
            counts[len(cycle)] += len(cycle)
            for x in cycle:
                by_row[x - 1][len(cycle)] += 1
        by_column.append(tuple(sorted(counts.items())))
    expected = tuple(by_column), tuple(tuple(sorted(c.items())) for c in by_row)
    assert per_element(table) == expected
    columns = table.columns
    assert column_order_lcm(table) == math.lcm(*(c.order for c in columns))
    _, which, _, _ = table._inner
    keys = _invariant_keys(table)
    types = [keys[i][0] for i in which[1:]]
    for i, j in product(range(table.n), repeat=2):
        assert ((types[i] == types[j])
                == (columns[i].cycle_type == columns[j].cycle_type))
    # the above reads _cycles twice; the oracle steps each product by hand
    lengths = oracles.cycle_lengths(entries)
    elements = table.elements
    assert per_element(table) == (
        tuple(tuple(sorted(Counter(lengths[x, y] for x in elements).items()))
              for y in elements),
        tuple(tuple(sorted(Counter(lengths[x, y] for y in elements).items()))
              for x in elements))
    for y, column in zip(elements, columns):
        assert sorted(x for cycle in column.cycles for x in cycle) == list(elements)
        for cycle in column.cycles:
            assert cycle[0] == min(cycle)
            assert all(lengths[x, y] == len(cycle) for x in cycle)
            assert all(oracles.op(entries, x, y) == z
                       for x, z in zip(cycle, cycle[1:] + cycle[:1]))
        for x in elements:
            for i in (-1, lengths[x, y], 10**9 + 7):
                assert (rack_op_iter(table, x, y, i)
                        == oracles.op_iter(entries, x, y, i % lengths[x, y]))


non_quandle_ts_racks = st.sampled_from(ts_non_quandle_params(range(2, 9))).map(
    lambda args: ts_rack(*args).entries)


inner_orbit_racks = st.one_of(
    st.sampled_from(sorted(RACK_TABLES)).map(RACK_TABLES.__getitem__),
    st.integers(1, 7).flatmap(generated_racks).map(lambda t: t.entries),
    trivial_unions, relabelled(orbit_unions), non_quandle_ts_racks)


@settings(max_examples=200, deadline=None)
@given(inner_orbit_racks)
def test_inner_orbits_match_oracle(entries):
    orbits, _, _, _ = RackTable(entries)._inner
    assert [tuple(sorted(o)) for o in orbits] == oracles.inner_orbits(entries)
    assert [o[0] for o in orbits] == [min(o) for o in orbits]


@settings(max_examples=200, deadline=None)
@given(inner_orbit_racks.flatmap(lambda entries: st.tuples(
    st.just(entries), st.sets(st.integers(1, len(entries))))))
def test_orbits_of_any_columns_match_oracle(args):
    entries, ys = args
    n = len(entries)
    columns = [RackTable(entries)._right[y] for y in sorted(ys)]
    walked = list(rackkit.core._orbits(n, columns))
    assert [tuple(sorted(members)) for _, members in walked] == (
        oracles.inner_orbits(entries, ys))
    for mask, members in walked:
        assert members[0] == min(members)
        assert mask == sum(1 << x for x in members)


# constant actions with several cycles have orbits of several sizes, and
# T5 has orbits of sizes 3 and 2, so a row count must weigh each orbit's
# column by its size
several_cycles = st.lists(st.integers(1, 4), min_size=2, max_size=4).map(
    lambda cycle_type: constant_action(permutation_of_type(cycle_type)).entries)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sampled_from(sorted(RACK_TABLES)).map(RACK_TABLES.__getitem__),
    relabelled(orbit_unions), trivial_unions, relabelled(several_cycles),
    st.integers(1, 9).map(lambda n: trivial_rack(n).entries),
    non_quandle_ts_racks))
def test_cycle_lengths_walk_each_distinct_column_once(entries):
    table = RackTable(entries)
    table.report  # walks the orbits, but no column's cycles
    walked = []
    cycles = rackkit.core._cycles

    def counted(images):
        walked.append(images)
        return cycles(images)

    with patch.object(rackkit.core, "_cycles", counted):
        table._cycle_lengths
    by_column, by_row = per_element(table)
    orbits = oracles.inner_orbits(entries)
    elements = range(1, len(entries) + 1)
    # one walk per distinct column among the orbits' least elements: a
    # constant action has one column however many cycles it has
    distinct = {tuple(oracles.op(entries, x, min(orbit)) for x in elements)
                for orbit in orbits}
    assert sorted(tuple(images[1:]) for images in walked) == sorted(distinct)
    lengths = oracles.cycle_lengths(entries)
    assert by_column == tuple(
        tuple(sorted(Counter(lengths[x, y] for x in elements).items()))
        for y in elements)
    assert by_row == tuple(
        tuple(sorted(Counter(lengths[x, y] for y in elements).items()))
        for x in elements)
    for orbit in orbits:
        assert len({by_column[x - 1] for x in orbit}) == 1
        assert len({by_row[x - 1] for x in orbit}) == 1
    # one entry per Inn-orbit, each orbit's index shared by its members
    _, which, _, _ = table._inner
    assert sorted(tuple(x for x in elements if which[x] == i)
                  for i in range(len(orbits))) == sorted(orbits)


def test_alexander_401_cycle_lengths_walk_one_column():
    table = RackTable(alexander(401, 2).entries)  # fresh, nothing cached
    table.report
    start = time.perf_counter()
    table._cycle_lengths
    elapsed = time.perf_counter() - start
    # one orbit, so one column walk: under a millisecond, where walking
    # all 401 columns took 20-27 ms
    assert elapsed < 0.01


def test_trivial_401_cycle_lengths_walk_one_column():
    table = trivial_rack(401)
    table.report
    walked = []
    cycles = rackkit.core._cycles

    def counted(images):
        walked.append(images)
        return cycles(images)

    start = time.perf_counter()
    with patch.object(rackkit.core, "_cycles", counted):
        lengths = table._cycle_lengths
    elapsed = time.perf_counter() - start
    # 401 one-element orbits share the identity column, walked once: a
    # few milliseconds, where a walk per orbit took about 40
    assert len(walked) == 1
    _, which, sizes, _ = table._inner
    assert (which, sizes) == ((0, *range(401)), (1,) * 401)
    assert lengths == ((((1, 401),),) * 401, (((1, 401),),) * 401)
    assert per_element(table) == ((((1, 401),),) * 401,) * 2
    assert elapsed < 0.02


@pytest.mark.parametrize("build, pairs", [
    (trivial_rack, 401 * 400 // 2),
    (lambda n: RackTable(alexander(n, 2).entries), 400)],
    ids=["trivial", "alexander"])
def test_crossed_test_compares_each_orbit_pair_once(build, pairs):
    table = build(401)
    compared = 0
    after = rackkit.core._after_representatives

    def counted(orbits):
        nonlocal compared
        for x, later in after(orbits):
            compared += len(later)
            yield x, later

    start = time.perf_counter()
    with patch.object(rackkit.core, "_after_representatives", counted):
        report = table.report
    table._cycle_lengths
    elapsed = time.perf_counter() - start
    assert report.is_crossed_set
    # with every orbit one element, each unordered pair of distinct
    # elements is compared once, as comparing all of them did; one orbit
    # takes one pair per other element
    assert compared == pairs
    assert elapsed < 2


def test_cli_import_leaves_numpy_out():
    src = str(Path(rackkit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rackkit.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_all_lists_every_public_name():
    modules = (rackkit.core, rackkit.generators, rackkit.iso, rackkit.links,
               rackkit.poly)
    for module in modules:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        public = {name for name in defined if not name.startswith("_")}
        assert sorted(module.__all__) == sorted(public), module.__name__
    union = [name for module in modules for name in module.__all__]
    assert sorted(rackkit.__all__) == sorted(union)
    assert len(set(union)) == len(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(rackkit, name) is getattr(module, name)


def test_every_private_name_the_docs_cite_is_defined():
    # a ``_name`` cited by README.md or by a docstring, alone or as part of
    # a dotted path, is a function, class, argument, variable or attribute
    # that src/rackkit defines, so no doc names code that is gone
    src = Path(rackkit.__file__).parent
    texts = [(src.parents[1] / "README.md").read_text(encoding="utf-8")]
    defined = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append(ast.get_docstring(node) or "")
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(getattr(node, "ctx", None), ast.Store):
                defined.add(getattr(node, "id", getattr(node, "attr", None)))
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
    cited = {part for text in texts
             for path in re.findall(r"`+((?:\w+\.)*_\w+)", text)
             for part in path.split(".")
             if part.startswith("_") and not part.startswith("__")}
    assert len(cited) > 40
    assert cited <= defined, sorted(cited - defined)


def private_functions(node, in_class=False):
    """The module-level and nested ``_private`` function definitions below
    node, but not the methods of a class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and not in_class:
            if child.name.startswith("_") and not child.name.endswith("__"):
                yield child
        yield from private_functions(child, isinstance(child, ast.ClassDef))


def test_every_private_default_is_both_passed_and_omitted():
    # a default that no call site passes is a constant, and one that every
    # call site passes should be required; there are no exceptions
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rackkit.__file__).parent.glob("*.py"))]
    functions = [f for tree in trees for f in private_functions(tree)]
    names = [f.name for f in functions]
    assert len(set(names)) == len(names)
    # each call of a name, and each bare use of it (passed as a callable,
    # to be called with no default), with the arguments it passes
    sites = {name: [] for name in names}
    for tree in trees:
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in sites:
                    assert not any(isinstance(a, ast.Starred)
                                   for a in node.args), name
                    assert all(k.arg for k in node.keywords), name
                    sites[name].append(
                        (len(node.args), {k.arg for k in node.keywords}))
                    called.add(func)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in sites
                    and isinstance(node.ctx, ast.Load) and node not in called):
                sites[node.id].append((0, set()))
    faults = []
    for function in functions:
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        defaulted = [*enumerate(positional[first:], first),
                     *((None, a) for a, d in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                       if d is not None)]
        for index, arg in defaulted:
            passed = [(index is not None and count > index) or arg.arg in kw
                      for count, kw in sites[function.name]]
            key = function.name, arg.arg
            if not any(passed):
                faults.append((*key, "never passed"))
            elif all(passed):
                faults.append((*key, "always passed"))
    assert faults == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rackkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rackkit.__all__)
    assert set(rackkit.__all__) <= set(dir(rackkit))


def test_submodule_attribute_in_a_fresh_interpreter():
    # the package imports no submodule itself; looking one up loads it
    src = str(Path(rackkit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import rackkit; print(rackkit.iso.isomorphic.__module__)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "rackkit.iso"


def test_conventions_have_one_home():
    assert rackkit.CONVENTIONS is rackkit.poly.CONVENTIONS
    assert rackkit.poly.CONVENTIONS is rackkit.core.CONVENTIONS


# -- iterated operator ------------------------------------------------------


def test_rack_op_iter_matches_oracle(racks):
    for name in ("T5", "ex2", "dihedral3", "Q6"):
        t = racks[name]
        for x in t.elements:
            for y in t.elements:
                for i in (-3, -1, 0, 1, 2, 5):
                    assert rack_op_iter(t, x, y, i) == oracles.op_iter(t.entries, x, y, i)


def test_rack_op_iter_builds_no_column(racks, monkeypatch):
    # the cycle is read from the padded columns, not from a Permutation
    def refuse(self, y):
        raise AssertionError("rack_op_iter built a column")

    monkeypatch.setattr(RackTable, "column", refuse)
    for name in ("T5", "ex2", "dihedral3", "Q6", "R6"):
        t = racks[name]
        for x, y in product(t.elements, repeat=2):
            for i in (-3, -1, 0, 1, 2, 5):
                assert (rack_op_iter(t, x, y, i)
                        == oracles.op_iter(t.entries, x, y, i))


def test_rack_op_iter_values(racks):
    t5 = racks["T5"]
    assert rack_op_iter(t5, 4, 4, 1) == 5
    assert rack_op_iter(t5, 4, 4, 2) == 4
    assert rack_op_iter(t5, 1, 2, 0) == 1
    assert rack_op_iter(t5, t5.op(1, 2), 2, -1) == 1


@given(perm_images, st.integers(-8, 8), st.integers(-8, 8))
def test_rack_op_iter_additive(images, i, j):
    table = constant_action(Permutation(images))
    x, y = 1, len(images)
    mid = rack_op_iter(table, x, y, i)
    assert rack_op_iter(table, mid, y, j) == rack_op_iter(table, x, y, i + j)


# -- dual -------------------------------------------------------------------


def test_dual_values(racks):
    assert dual(racks["ex2"]).entries == ((2, 2, 2), (3, 3, 3), (1, 1, 1))


def test_dual_involution(racks):
    for table in racks.values():
        d = dual(table)
        assert d.report.is_rack
        assert dual(d) == table
        assert d.report.is_quandle == table.report.is_quandle


def test_dual_inverts_operation(racks):
    t5 = racks["T5"]
    d = dual(t5)
    for x in t5.elements:
        for y in t5.elements:
            assert d.op(t5.op(x, y), y) == x


# -- rank and diagonal ------------------------------------------------------


def test_diagonal_and_rank(racks):
    assert diagonal_perm(racks["T5"]).images == (1, 2, 3, 5, 4)
    expected_rank = {
        "T5": 2, "Q6": 1, "R6": 1, "ex2": 3, "ex3": 2,
        "MX6": 2, "MY6": 3, "dihedral3": 1, "triv1": 1, "triv2": 1,
    }
    for name, want in expected_rank.items():
        assert rack_rank(racks[name]) == want
        assert oracles.diagonal_order(racks[name].entries) == want


def test_diagonal_data_is_built_once_per_table(racks):
    t5 = racks["T5"]
    assert diagonal_perm(t5) is diagonal_perm(t5)


def test_rank_one_iff_quandle(racks):
    for table in racks.values():
        assert (rack_rank(table) == 1) == table.report.is_quandle


def test_column_order_lcm(racks):
    assert column_order_lcm(racks["T5"]) == 2
    assert column_order_lcm(racks["ex2"]) == 3
    assert column_order_lcm(racks["triv1"]) == 1
    assert column_order_lcm(racks["Q6"]) == 2


# -- subtables --------------------------------------------------------------


def test_subtable_relabels(racks):
    sub = racks["T5"].subtable((4, 5))
    assert sub.entries == ((2, 2), (1, 1))
    assert racks["Q6"].subtable((1, 2, 3)).entries == RACK_TABLES["dihedral3"]


def test_subtable_rejects_open_subsets(racks):
    with pytest.raises(RackError):
        racks["T5"].subtable((1, 4))  # 4 @ 4 = 5 escapes
    # the empty set raises before any table exists, where a table of no
    # elements ran out of memory at its first read
    with pytest.raises(RackError, match="^subset is empty$"):
        racks["T5"].subtable(())


# -- quotients --------------------------------------------------------------


def test_quotient_of_t5(racks):
    q = quotient_by(racks["T5"], [{1}, {2}, {3}, {4, 5}])
    assert q.entries == ((1, 3, 2, 1), (3, 2, 1, 2), (2, 1, 3, 3), (4, 4, 4, 4))
    assert q.report.is_quandle


def test_quotient_congruence_failure(racks):
    with pytest.raises(CongruenceError) as exc:
        quotient_by(racks["T5"], [{1, 2}, {3}, {4}, {5}])
    assert exc.value.witness == (1, 2, 1, 1)
    assert exc.value.products == (1, 3)
    assert "not a congruence" in str(exc.value)
    # each column maps the blocks of R6 to blocks, but the row of 5 takes
    # 1 and 3, of one block, to 6 and 5
    with pytest.raises(CongruenceError) as exc:
        quotient_by(racks["R6"], [{1, 2, 3, 4}, {5}, {6}])
    assert exc.value.witness == (5, 5, 1, 3)
    assert exc.value.products == (6, 5)


def first_pair_failure(table, blocks):
    """The witness of the first failing pair, every pair of each block in
    order, columns before rows; None for a congruence."""
    cls = {x: i for i, block in enumerate(blocks) for x in block}
    n = table.n
    for y in range(1, n + 1):
        for block in blocks:
            for i, x in enumerate(block):
                for x2 in block[i + 1:]:
                    if cls[table.op(x, y)] != cls[table.op(x2, y)]:
                        return x, x2, y, y
    for x in range(1, n + 1):
        for block in blocks:
            for i, y in enumerate(block):
                for y2 in block[i + 1:]:
                    if cls[table.op(x, y)] != cls[table.op(x, y2)]:
                        return x, x, y, y2
    return None


def test_quotient_witness_is_the_first_failing_pair():
    rng = random.Random(16002)
    failures = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        images = rng.sample(range(1, n + 1), n)
        table = rng.choice((constant_action(Permutation(tuple(images))),
                            alexander(n, rng.choice(_units(n)))))
        labels = [rng.randint(1, rng.randint(1, n)) for _ in range(n)]
        blocks = sorted(
            tuple(x for x in table.elements if labels[x - 1] == label)
            for label in set(labels))
        expected = first_pair_failure(table, blocks)
        if expected is None:
            assert quotient_by(table, blocks).n == len(blocks)
            continue
        failures += 1
        with pytest.raises(CongruenceError) as exc:
            quotient_by(table, blocks)
        x, x2, y, y2 = expected
        assert exc.value.witness == expected
        assert exc.value.products == (table.op(x, y), table.op(x2, y2))
    assert failures >= 100


@pytest.mark.parametrize("build", [trivial_rack, lambda n: alexander(n, 2)],
                         ids=["trivial", "alexander"])
def test_one_block_quotient_at_n401(build):
    table = build(401)
    start = time.perf_counter()
    q = quotient_by(table, [table.elements])
    elapsed = time.perf_counter() - start
    assert q.entries == ((1,),)
    # n² comparisons, where every pair of the block took several seconds
    assert elapsed < 2


def test_all_singleton_quotient_at_n1001_checks_no_block():
    table = alexander(1001, 2)
    table.require_rack()
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        partition, q, _ = operator_equivalence_quotient(table)
        elapsed.append(time.perf_counter() - start)
    assert len(partition) == 1001 and q == table
    # singleton blocks cannot fail, so only the quotient's n² entries are
    # read: about 0.09 s, where checking every block took about 0.5 s
    assert min(elapsed) < 0.25


def test_all_singleton_quotient_is_the_table_at_n1001():
    table = alexander(1001, 2)
    table.require_rack()
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        _, q, _ = operator_equivalence_quotient(table)
        elapsed.append(time.perf_counter() - start)
    assert q.entries == table.entries
    singletons = [[x] for x in reversed(table.elements)]
    assert quotient_by(table, singletons).entries == table.entries
    # blocks {1}, ..., {n} label each element by itself, so the quotient
    # has the table's own entries: about 6 ms, where building them took
    # about 0.1 s
    assert min(elapsed) < 0.04


def test_quotient_partition_validation(racks):
    t5 = racks["T5"]
    with pytest.raises(RackError):
        quotient_by(t5, [{1, 2, 3}, {4, 5}, set()])
    with pytest.raises(RackError):
        quotient_by(t5, [{1, 2, 3}, {4}])  # misses 5
    with pytest.raises(RackError):
        quotient_by(t5, [{1, 2, 3}, {3, 4, 5}])  # overlap
    with pytest.raises(RackError):
        quotient_by(t5, [{1, 2, 3}, {4, 5, 6}])  # out of range


def test_trivial_partition_is_identity_quotient(racks):
    t5 = racks["T5"]
    q = quotient_by(t5, [{x} for x in t5.elements])
    assert q == t5


def test_operator_equivalence_quotient(racks):
    part, q, is_quandle = operator_equivalence_quotient(racks["T5"])
    assert part == ((1,), (2,), (3,), (4, 5))
    assert q.entries == ((1, 3, 2, 1), (3, 2, 1, 2), (2, 1, 3, 3), (4, 4, 4, 4))
    assert is_quandle
    part2, q2, is_q2 = operator_equivalence_quotient(racks["ex2"])
    assert part2 == ((1, 2, 3),)
    assert q2.n == 1 and is_q2


def test_operator_quotient_of_random_racks_is_quandle():
    # the operator-equivalence quotient collapses every sampled rack to a quandle
    rng = random.Random(99173)
    built = 0
    while built < 200:
        kind = rng.choice(("constant", "alexander", "ts"))
        if kind == "constant":
            n = rng.randint(1, 7)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            table = constant_action(Permutation(tuple(images)))
        elif kind == "alexander":
            n = rng.randint(1, 12)
            units = [t for t in range(n) if math.gcd(t, n) == 1]
            table = alexander(n, rng.choice(units))
        else:
            n = rng.randint(1, 12)
            pairs = [
                (t, s)
                for t in range(n)
                for s in range(n)
                if math.gcd(t, n) == 1 and (s * (1 - t - s)) % n == 0
            ]
            t, s = rng.choice(pairs)
            table = ts_rack(n, t, s)
        _, _, is_quandle = operator_equivalence_quotient(table)
        assert is_quandle, f"counterexample: {table.entries}"
        built += 1


quotient_racks = st.one_of(
    relabelled(st.integers(1, 9).flatmap(
        lambda n: st.sampled_from(_units(n)).map(
            lambda t: alexander(n, t).entries))),
    perm_images.map(
        lambda images: constant_action(Permutation(images)).entries),
    st.sampled_from(sorted(RACK_TABLES.values())),
    trivial_unions)


@settings(max_examples=200, deadline=None)
@given(quotient_racks)
def test_quotients_by_congruences_are_racks(entries):
    # quotient_by does not check its quotient, and the quandle flag of
    # operator_equivalence_quotient is true without reading the quotient:
    # both rest on proofs (a rack's quotient by a congruence is a rack,
    # and R_{x ▷ x} = R_x puts x ▷ x in x's class), checked here against
    # the report.  Equal columns and the Inn-orbits are both congruences
    table = RackTable(entries)
    _, quotient, is_quandle = operator_equivalence_quotient(table)
    orbits, _, _, _ = table._inner
    by_orbits = quotient_by(table, orbits)
    for q in (quotient, by_orbits):
        assert RackTable(q.entries) == q
        assert q.report.is_rack
    assert is_quandle == quotient.report.is_quandle
    # x ▷ y lies in x's Inn-orbit, so the orbits' quotient is trivial
    assert by_orbits.entries == tuple((i,) * len(orbits)
                                      for i in by_orbits.elements)


@settings(max_examples=60)
@given(perm_images)
def test_constant_action_operator_quotient_is_trivial(images):
    part, q, is_quandle = operator_equivalence_quotient(constant_action(Permutation(images)))
    assert len(part) == 1 and q.n == 1 and is_quandle
