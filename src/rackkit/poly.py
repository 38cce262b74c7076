"""Two-variable polynomial invariants of finite racks.

For each element x and depth d two counts are tracked:

* column count col[d][x]: how many y satisfy y ▷ x ... ▷ x = y (d copies),
  i.e. the number of fixed points of the d-th power of x's column action;
* row count row[d][x]: how many y satisfy x ▷ y ... ▷ y = x (d copies).

The rack polynomial at depths (m, n) sums one monomial s^e t^f per element.
Two published conventions disagree on which count feeds which variable, so
the convention is an explicit argument everywhere:

* "def" (default): e = row[m][x], f = col[n][x];
* "prop3": e = col[m][x], f = row[n][x].

Both counts are read from the table's cached cycle lengths: y returns to
itself after d products by x exactly when the length of its cycle under
x's column divides d.  Each column and each row keeps its distinct
lengths with their multiplicities, so a count at any depth sums over
those lengths.  The lengths cost O(n²) once per table, and a count
depends on d only through gcd(d, L), with L the lcm of the column orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Iterable, Mapping, Sequence

from .core import (CONVENTIONS, RackError, RackTable, _as_int, _in_range,
                   _members, _walk)

__all__ = [
    "ExponentProfile",
    "TwoVarPoly",
    "closure",
    "enumerate_subracks",
    "exponent_profile",
    "format_monomial",
    "is_subrack",
    "rack_polynomial",
    "subrack_polynomial",
]


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise RackError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


def format_monomial(coeff: int, factors: Iterable[tuple[str, object]]) -> str:
    """Render ``coeff * var1^exp1 * ...`` with unit parts elided.

    Exponent 0 drops the factor, exponent 1 drops the caret, string
    exponents are wrapped in braces.  A unit coefficient is dropped unless
    nothing else remains.
    """
    parts: list[str] = []
    for var, exp in factors:
        if isinstance(exp, str):
            parts.append(f"{var}^{{{exp}}}")
        elif exp == 0:
            continue
        elif exp == 1:
            parts.append(var)
        else:
            parts.append(f"{var}^{exp}")
    if coeff != 1 or not parts:
        parts.insert(0, str(coeff))
    return "*".join(parts)


@dataclass(frozen=True)
class TwoVarPoly:
    """Polynomial in s and t with integer coefficients.

    Terms are (s_exp, t_exp, coeff), kept sorted ascending by exponent pair
    with no zero coefficients and no duplicate exponent pairs, so equal
    polynomials compare equal as dataclasses.  Any iterable of integer
    triples is stored as a tuple of int triples, in one pass that raises
    ValueError at the first term at fault.
    """

    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        terms: list[tuple[int, int, int]] = []
        last = (-1, -1)
        for term in self.terms:
            try:
                s, t, c = term
                s, t, c = index(s), index(t), index(c)
            except TypeError:
                raise ValueError(f"non-integer term {term!r}") from None
            if s < 0 or t < 0:
                raise ValueError(f"negative exponent in term ({s}, {t}, {c})")
            if c == 0:
                raise ValueError("zero coefficient term")
            if (s, t) <= last:
                raise ValueError("duplicate exponent pair" if (s, t) == last
                                 else "terms must be sorted by (s_exp, t_exp)")
            last = s, t
            terms.append((s, t, c))
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "TwoVarPoly":
        """Sum of one monomial s^a t^b per pair (a, b)."""
        counts = Counter(pairs)
        return cls(tuple((s, t, c) for (s, t), c in sorted(counts.items())))

    @classmethod
    def from_dict(cls, coeffs: Mapping[tuple[int, int], int]) -> "TwoVarPoly":
        return cls(tuple((s, t, c) for (s, t), c in sorted(coeffs.items()) if c != 0))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(s, t): c for s, t, c in self.terms}

    @property
    def coefficient_sum(self) -> int:
        return sum(c for _, _, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            format_monomial(c, [("s", s), ("t", t)]) for s, t, c in self.terms)


def _poly_from_pairs(pairs: Iterable[tuple[int, int]]) -> TwoVarPoly:
    """TwoVarPoly.from_pairs for pairs of non-negative ints, which the
    library's own counts are.  Merged and sorted, their terms are already
    in the stored form, so the constructor's per-term checks are skipped."""
    poly = object.__new__(TwoVarPoly)
    poly.__dict__["terms"] = tuple(
        (s, t, c) for (s, t), c in sorted(Counter(pairs).items()))
    return poly


def _lengths(table: RackTable, convention: str
             ) -> tuple[tuple[tuple[tuple[int, int], ...], ...],
                        tuple[tuple[tuple[int, int], ...], ...]]:
    """Per element, the (cycle length, multiplicity) pairs behind the s
    and the t count under a convention: a row's for row[d][x], a
    column's for col[d][x]."""
    by_column, by_row = table._cycle_lengths
    if convention == "def":
        return by_row, by_column
    return by_column, by_row


def _counts(by_length: tuple[tuple[tuple[int, int], ...], ...],
            depth: int) -> tuple[int, ...]:
    """Per element, the multiplicities of the lengths dividing depth.

    The members of an Inn-orbit share one (length, multiplicity) tuple
    (see ``RackTable._cycle_lengths``), so each distinct tuple is summed
    once and every element looks its sum up: O(r·ℓ) additions for r
    distinct tuples of ℓ lengths, and O(n) lookups, where summing each
    element's own tuple takes O(n·ℓ).
    """
    sums = dict.fromkeys(by_length)
    for pairs in sums:
        sums[pairs] = sum(m for k, m in pairs if depth % k == 0)
    return tuple(map(sums.__getitem__, by_length))


@dataclass(frozen=True)
class ExponentProfile:
    """Per-element count pairs (col[m][x], row[n][x]) at depths (m, n)."""

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]

    def pair(self, x: int) -> tuple[int, int]:
        """The pair of element x; an x outside 1..n raises RackError."""
        return self.pairs[_in_range(x, len(self.pairs)) - 1]


def exponent_profile(table: RackTable, m: int, n: int) -> ExponentProfile:
    dm, dn = _depths(table, m, n, "prop3")
    return ExponentProfile(m, n, tuple(
        _convention_pairs(table, table.elements, dm, dn, "prop3")))


def _depths(table: RackTable, m: int, n: int,
            convention: str) -> tuple[int, int]:
    """The depths (m, n) as ints, once they pass the checks.

    Every polynomial entry point starts here, so all of them check the
    convention, then the depths, then the rack axioms, in that order.
    """
    _check_convention(convention)
    m, n = _as_int(m, "depth"), _as_int(n, "depth")
    if m < 1 or n < 1:
        raise RackError(f"depths must be at least 1, got ({m}, {n})")
    table.require_rack()
    return m, n


def _convention_pairs(table: RackTable, elems: Sequence[int], m: int, n: int,
                      convention: str) -> list[tuple[int, int]]:
    """Per element of elems, its (s, t) exponent pair at depths (m, n),
    which ``_depths`` has checked.

    Only those elements are counted, in O(|elems|·ℓ) with ℓ the distinct
    cycle lengths per element, from lengths cached once per table.
    """
    s_lengths, t_lengths = _lengths(table, convention)
    return list(zip(_counts([s_lengths[x - 1] for x in elems], m),
                    _counts([t_lengths[x - 1] for x in elems], n)))


def rack_polynomial(table: RackTable, m: int, n: int,
                    convention: str = "def") -> TwoVarPoly:
    """Two-variable polynomial at depths (m, n); see the module docstring."""
    m, n = _depths(table, m, n, convention)
    return _poly_from_pairs(
        _convention_pairs(table, table.elements, m, n, convention))


def closure(table: RackTable, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest ▷-closed subset containing the seed, as a sorted tuple.

    In a rack that is the seed's orbit under the group its own columns
    generate (see ``core._walk``), so a closure of size k costs
    O(|seed|·k) table lookups.
    """
    table.require_rack()
    current = table._elements(seed)
    mask = sum(1 << v for v in current)
    return _members(_walk(mask, current, [table._right[s] for s in current]))


def is_subrack(table: RackTable, subset: Iterable[int]) -> bool:
    """Whether the subset is closed under the operation (nonempty required)."""
    table.require_rack()
    elems = table._elements(subset)
    return bool(elems) and table._first_escape(elems) is None


def enumerate_subracks(table: RackTable) -> tuple[tuple[int, ...], ...]:
    """All ▷-closed nonempty subsets, sorted by size then lexicographically.

    Ganter's NextClosure ("Two basic algorithms in concept analysis",
    1984) walks the closed subsets in lectic order, where smaller elements
    weigh more, with subsets held as int masks.  From the closed set A it
    tries i = n, ..., 1: an i in A is dropped; otherwise
    (A ∩ {<i}) ∪ {i} is closed, and the first such closure that adds no
    element below i is the next closed set.  A closure is abandoned at the
    first element below i it would add.  Each closure walks its seeds,
    i first, with their own columns (see ``core._walk``), in O(|seed|·k)
    lookups for a closure of size k.  Found subracks are never looked up
    again, and each costs at most n closures.  The empty set starts the
    walk and is not reported.
    """
    table.require_rack()
    cols = table._right
    found = []
    closed = 0
    while True:
        for i in range(table.n, 0, -1):
            bit = 1 << i
            if closed & bit:
                closed ^= bit
                continue
            # closed is now A ∩ {<i}
            seeds = [i, *_members(closed)]
            grown = _walk(closed | bit, seeds, [cols[s] for s in seeds],
                          floor=i)
            if grown is not None:
                closed = grown
                found.append(_members(closed))
                break
        else:
            return tuple(sorted(found, key=lambda s: (len(s), s)))


def subrack_polynomial(table: RackTable, subset: Iterable[int], m: int, n: int,
                       convention: str = "def") -> TwoVarPoly:
    """Rack polynomial terms of the ambient table restricted to a subrack.

    Counts still range over the whole ambient rack; only the outer sum is
    restricted to the subset, and only the subset's elements are counted.
    With the table's report and cycle lengths cached, a subrack S costs
    O(|S|² + |S|·ℓ), with ℓ the distinct cycle lengths per element: the
    closure check, then the counts.
    """
    m, n = _depths(table, m, n, convention)
    elems = table._elements(subset)
    if not elems:
        raise RackError("subset is empty")
    escape = table._first_escape(elems)
    if escape is not None:
        x, y, p = escape
        raise RackError(f"not a subrack: {x}▷{y}={p} escapes the subset")
    return _poly_from_pairs(
        _convention_pairs(table, elems, m, n, convention))
