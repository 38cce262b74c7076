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
those lengths.  Both counts are constant on each orbit of the inner group
Inn(X), so the lengths are kept, and the counts taken, once per orbit:
the lengths cost O(d·n) once per table, d the distinct columns among the
orbits' representatives, and a polynomial weighs each orbit's monomial
by the orbit's size.  A count depends on d only through gcd(d, L), with
L the lcm of the column orders.  The orbits' exponent pairs at the last
depths and convention asked for stay on the table, so the subrack
polynomials of one table at one depth pair cost one lookup per member,
and a listing read in order one polynomial per Inn-orbit of subracks.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import compress, count, repeat, starmap
from operator import index, ne

from . import _EXPORTS
from .core import (CONVENTIONS, RackError, RackTable, _as_int, _generators,
                   _in_range, _orbits, _record, _walk)

__all__ = _EXPORTS["poly"]


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


def _format_sum(terms: Iterable[tuple]) -> str:
    """``format_monomial(coeff, factors)`` of each (coeff, factors) term,
    in order, joined by `` + ``, or ``0`` when there are none: every sum
    of monomials the package prints."""
    return " + ".join(starmap(format_monomial, terms)) or "0"


@_record
class TwoVarPoly:
    """Polynomial in s and t with integer coefficients.

    Terms are (s_exp, t_exp, coeff), kept sorted ascending by exponent pair
    with no zero coefficients and no duplicate exponent pairs, so equal
    polynomials have equal terms and compare equal.  Any iterable of integer
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
        return cls(tuple(
            (s, t, c) for (s, t), c in _weighted(pairs, repeat(1))))

    @classmethod
    def from_dict(cls, coeffs: Mapping[tuple[int, int], int]) -> "TwoVarPoly":
        return cls(tuple((s, t, c) for (s, t), c in sorted(coeffs.items()) if c != 0))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(s, t): c for s, t, c in self.terms}

    @property
    def coefficient_sum(self) -> int:
        return sum(c for _, _, c in self.terms)

    def __str__(self) -> str:
        return _format_sum((c, [("s", s), ("t", t)]) for s, t, c in self.terms)


def _weighted(keys: Iterable, weights: Iterable[int]) -> list[tuple]:
    """Each distinct key with the sum of its weights, sorted by key: one
    form for a multiset given as keys weighted by the sizes of the groups
    they stand for, equal exactly when the multisets are."""
    totals: dict = {}
    for key, weight in zip(keys, weights):
        totals[key] = totals.get(key, 0) + weight
    return sorted(totals.items())


def _poly(items: Iterable[tuple]) -> TwoVarPoly:
    """The polynomial with a term c·s^a·t^b per item ((a, b), c) of
    ``_weighted``.  The library's exponents are non-negative ints and its
    weights positive, so the items are already the stored terms, and the
    constructor's per-term checks are skipped."""
    poly = object.__new__(TwoVarPoly)
    poly.__dict__["terms"] = tuple([(s, t, c) for (s, t), c in items])
    return poly


def _lengths(table: RackTable, convention: str) -> tuple[tuple, tuple]:
    """Per Inn-orbit, the (cycle length, multiplicity) pairs behind the s
    and the t count under a convention: a row's for row[d][x], a
    column's for col[d][x] (see ``RackTable._cycle_lengths``)."""
    by_column, by_row = table._cycle_lengths
    if convention == "def":
        return by_row, by_column
    return by_column, by_row


def _counts(by_length: Sequence[tuple], depth: int) -> list[int]:
    """Per Inn-orbit, the multiplicities of its lengths that divide
    depth: O(r·ℓ) additions for r orbits of ℓ lengths."""
    return [sum(m for k, m in pairs if depth % k == 0) for pairs in by_length]


@_record
class ExponentProfile:
    """Per-element count pairs (col[m][x], row[n][x]) at depths (m, n)."""

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]

    def pair(self, x: int) -> tuple[int, int]:
        """The pair of element x; an x outside 1..n raises RackError."""
        return self.pairs[_in_range(x, len(self.pairs)) - 1]


def exponent_profile(table: RackTable, m: int, n: int) -> ExponentProfile:
    m, n = _depths(table, m, n, "prop3")
    pairs = _orbit_pairs(table, m, n, "prop3")
    _, which, _, _ = table._inner
    return ExponentProfile(m, n, tuple([pairs[i] for i in which[1:]]))


def _depths(table: RackTable, m: int, n: int,
            convention: str) -> tuple[int, int]:
    """The depths (m, n) as ints, once they pass the checks.

    Every polynomial entry point starts here, so all of them check the
    convention, then the depths, then the rack axioms, in that order.
    Depths of type int are ints already; any other type, bool included,
    goes through ``_as_int``.
    """
    _check_convention(convention)
    if type(m) is not int or type(n) is not int:
        m, n = _as_int(m, "depth"), _as_int(n, "depth")
    if m < 1 or n < 1:
        raise RackError(f"depths must be at least 1, got ({m}, {n})")
    table.require_rack()
    return m, n


def _orbit_pairs(table: RackTable, m: int, n: int,
                 convention: str) -> tuple[tuple[int, int], ...]:
    """Per Inn-orbit, its members' (s, t) exponent pair at depths (m, n),
    which ``_depths`` has checked: O(r·ℓ) for r orbits of ℓ lengths.

    The pairs of the last (m, n, convention) asked for stay in the
    table's ``_pair_memo``, [key, pairs, polys], filled in place: the
    subrack polynomials of one depth pair count once, and a loop over
    depths keeps O(r) memo data.  ``polys``, empty at each key, holds
    ``subrack_polynomial``'s polynomial per listed orbit name.
    """
    key = m, n, convention
    memo = table._pair_memo
    if memo[0] != key:
        s_lengths, t_lengths = _lengths(table, convention)
        memo[:] = key, tuple(zip(_counts(s_lengths, m),
                                 _counts(t_lengths, n))), {}
    return memo[1]


def rack_polynomial(table: RackTable, m: int, n: int,
                    convention: str = "def") -> TwoVarPoly:
    """Two-variable polynomial at depths (m, n); see the module docstring."""
    m, n = _depths(table, m, n, convention)
    _, _, sizes, _ = table._inner
    return _poly(_weighted(_orbit_pairs(table, m, n, convention), sizes))


def _inner_moves(table: RackTable
                 ) -> list[tuple[int, tuple[int, ...], int, list[int]]]:
    """(z, C[z], the mask of the points C[z] moves, the bit of each image
    C[z](v) by v) for each generator z in ``RackTable._inner``, whose
    columns generate Inn(X).

    These serve ``_spread`` only, so they are built here, when a caller
    spreads subracks, and not with ``_inner``."""
    cols = table._right
    _, _, _, generators = table._inner
    moves = []
    for z in generators:
        bits = [1 << p for p in cols[z]]
        moved = sum(compress(bits, map(ne, cols[z], count())))
        moves.append((z, cols[z], moved, bits))
    return moves


def _spread(inner: Sequence[tuple[int, tuple[int, ...], int, list[int]]],
            mask: int, members: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """The Inn-orbit of a subrack S, as {mask: sorted members} from S's
    own mask and members on: each φS is a subrack, walked by the columns
    in ``inner`` (see ``_inner_moves``).  A generator z is skipped at an
    image E that holds z, as C[z] maps E onto itself, and at an E that
    C[z] fixes pointwise.  An image's mask is the sum of its members'
    bits under C[z], and its members are listed only when it is new.  An
    orbit Ω costs at most |Ω|·g·|S| lookups."""
    orbit = {mask: tuple(sorted(members))}
    queue = [*orbit.items()]
    for mask, members in queue:  # grows while it is read
        for z, col, moved, bits in inner:
            if mask & moved and not mask >> z & 1:
                grown = sum([bits[x] for x in members])
                if grown not in orbit:
                    orbit[grown] = image = tuple(sorted([col[x]
                                                         for x in members]))
                    queue.append((grown, image))
    return orbit


def closure(table: RackTable, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest ▷-closed subset containing the seed, as a sorted tuple.

    In a rack that is the seed's orbit under the group its own columns
    generate (see ``core._walk``), which the columns of its greedy
    generators generate (``core._generators``), whose walk lists its
    members.  So a closure of size k costs O(g·k) table lookups for the
    seed's g generators, and one sort.
    """
    table.require_rack()
    _, reached = _generators(table, table._elements(seed), lambda z: True)
    return tuple(sorted(reached))


def is_subrack(table: RackTable, subset: Iterable[int]) -> bool:
    """Whether the subset is closed under the operation (nonempty required)."""
    table.require_rack()
    elems = table._elements(subset)
    return bool(elems) and table._first_escape(elems) is None


def enumerate_subracks(table: RackTable) -> tuple[tuple[int, ...], ...]:
    """All ▷-closed nonempty subsets, sorted by size then lexicographically.

    Every φ in the inner group Inn(X) = ⟨C[y]⟩ is an automorphism (Joyce,
    1982), so φ maps subracks onto subracks and closure(φS) = φ(closure S).
    So one subrack per Inn-orbit of subracks is closed and grown, and the
    rest of its orbit is its images.  Subsets are int masks (bit v for
    element v), each recorded once with its members.

    * Seeds: the closure of {r} for each Inn-orbit's least element r
      (``RackTable._inner``), since every {x} is some φ{r}.  When
      r ▷ r = r, {r} is closed and its images are the {x} of r's orbit.
    * Spreading: a new subrack's Inn-orbit is walked by ``_spread``.
      Inn-orbits of subracks are disjoint, so a new subrack's orbit holds
      no found one.
    * Growing: from each orbit's first subrack c, one x is tried per
      orbit of H_c = ⟨C[y] : y ∈ c⟩ outside c.  Each C[y], y ∈ c, maps c
      onto c, so for ψ in H_c, closure(c ∪ {ψx}) = ψ(closure(c ∪ {x})):
      the two closures lie in one Inn-orbit.  Each c carries the ids of
      columns that generate H_c; ``core._orbits`` walks H_c's orbits on
      X once per such set.  The closure D of c ∪ {x} is the orbit of
      c ∪ H_c·x under ⟨H_c, C[x]⟩ = H_D (see ``core._walk``): it is walked
      with C[x] alone, then its new elements with every column, as
      ``core._generators`` grows its closure.  D holds c ∪ H_c·x, so when
      that set is a found subrack it is D, and no walk is needed.
    * Shortcut: when C[x] is one of the columns that generate H_c, the
      group is H_c and D is c ∪ H_c·x, with no walk.
    * Completeness: let D be a subrack, E ⊊ D a found one, E = φE₀ with
      E₀ its orbit's first subrack, and y a point of D outside E.  The x
      tried for φ⁻¹y's H_E₀-orbit lies in φ⁻¹D ⊇ E₀, as H_E₀ ⊆ H_φ⁻¹D
      maps φ⁻¹D onto itself.  So φ(closure(E₀ ∪ {x})) is a found subrack
      inside D and larger than E.  Starting from the closure of one
      element of D, D is reached.
    * Stop: once closure(c ∪ H_c·x) = X, a later walk from c ends as
      soon as it would join any y of H_c·x (``core._walk``'s ``stop``):
      closure(c ∪ {y}) holds H_c·y = H_c·x, so it is X, and X is found
      already.  On a prime Alexander quandle every growth closure is X,
      and all but the first end within a few joins.

    The table keeps what the walk proved in its ``_listing``, filled in
    place: the returned tuple itself, not a copy; one int per subrack
    naming its Inn-orbit of subracks, the orbit's index as found, or -1
    for an orbit of one, which shares nothing (only orbits of several are
    named as they are entered, so such a listing hashes no tuple); and
    the place after the last listed tuple ``subrack_polynomial`` found.
    Every listed tuple is closed: it is a walked closure or an image φD
    of one, and φ maps closed sets onto closed sets.  And the subracks
    of one name are one Inn-orbit, on which subrack polynomials are
    constant (see ``subrack_polynomial``).  The walk is deterministic, so
    every listing of a table names a subrack alike, and polynomials kept
    by name stay right.  The record costs one list slot per subrack
    beside the listing, until the table goes or the next enumeration
    replaces it; a copy or pickle of the table holds none of it.

    On a prime Alexander quandle, x ▷ y = t·x + (1-t)·y on Z/p, the
    singletons are one orbit, and c = {1} is grown by one closure per
    orbit of multiplication by t on the nonzero residues, (p-1)/ord(t)
    closures of p elements in all, where trying every element from every
    subrack took about p²/2 closures.  Racks whose Inn-orbits are all
    small save little, and a subrack reached from several parents is
    looked up once per parent: the trivial rack of n elements, every
    column the identity, tries n - |c| masks from each of its 2ⁿ - 1
    subracks c, each by the shortcut.  The output is sorted once at the
    end.
    """
    table.require_rack()
    cols = table._right
    # a column's id is the least y with that column C[y], read through the
    # axiom pass's view, whose bytes keep their hash once it is computed
    sources, _ = table._view
    ids: dict[Sequence[int], int] = {}
    cid = [-1, *map(ids.setdefault, sources[1:], range(1, table.n + 1))]
    inner = _inner_moves(table)
    # each subrack's mask: its members, sorted, as they are returned
    found: dict[int, tuple[int, ...]] = {}
    # each subrack's orbit index, in an orbit of more than one subrack
    orbit_of: dict[tuple[int, ...], int] = {}
    # one subrack c per Inn-orbit, with the ids of columns that generate H_c
    firsts: list[tuple[int, tuple[int, ...], frozenset[int]]] = []

    def enter(mask: int, orbit: dict[int, tuple[int, ...]],
              key: frozenset[int]) -> None:
        """Record a new Inn-orbit of subracks, led by the one at mask."""
        found.update(orbit)
        if len(orbit) > 1:
            orbit_of.update(zip(orbit.values(), repeat(len(firsts))))
        firsts.append((mask, orbit[mask], key))

    orbits, _, _, _ = table._inner
    for orbit in orbits:
        r = orbit[0]
        key = frozenset((cid[r],))
        if cols[r][r] == r:  # {r} is closed, and its images are the {x}
            enter(1 << r, {1 << x: (x,) for x in orbit}, key)
        else:
            reached = [r]
            mask = _walk(1 << r, reached, (cols[r],))
            enter(mask, _spread(inner, mask, reached), key)

    full = (1 << table.n + 1) - 2
    # H_c's generating columns and its orbits on X, by those columns' ids
    groups: dict[frozenset[int], tuple[list, list]] = {}
    for mask, members, key in firsts:  # grows while it is read
        if mask == full:
            continue
        if key not in groups:
            columns = [cols[y] for y in key]
            groups[key] = columns, [*_orbits(table.n, columns)]
        columns, orbits = groups[key]
        to_x = 0  # the H_c-orbits O with closure(c ∪ O) = X, as one mask
        for bits, orbit in orbits:
            grown = mask | bits
            # c ∪ H_c·x lies in the closure, so if it is closed it is the
            # closure, and a found one (c itself for x in c, as H_c maps c
            # onto c) needs no walk
            if grown in found:
                continue
            x = orbit[0]
            reached = [*members, *orbit]
            grown_key = key
            if cid[x] not in key:
                grown_key = key | {cid[x]}
                old = len(reached)
                grown = _walk(grown, reached, (cols[x],), 0, to_x)
                if len(reached) > old and grown not in (-1, full):
                    grown = _walk(grown, reached, [*columns, cols[x]], old,
                                  to_x)
            if grown == -1:  # it joined a point of to_x, so it is X
                grown = full
            if grown == full:
                to_x |= bits
            if grown not in found:
                enter(grown, _spread(inner, grown, reached), grown_key)
    subracks = sorted(found.values())
    subracks.sort(key=len)  # stable: each size stays in lexicographic order
    subracks = tuple(subracks)
    # an orbit of one subrack shares nothing, and is named -1
    names = [*map(orbit_of.get, subracks, repeat(-1))]
    table._listing[:] = subracks, names, 0
    return subracks


def subrack_polynomial(table: RackTable, subset: Iterable[int], m: int, n: int,
                       convention: str = "def") -> TwoVarPoly:
    """Rack polynomial terms of the ambient table restricted to a subrack.

    Counts still range over the whole ambient rack; only the outer sum is
    restricted to the subset.  With the table's report and cycle lengths
    cached and the depths' orbit pairs in its slot (``_orbit_pairs``), a
    subrack S costs O(|S|) dictionary work: one pair lookup per member,
    counted by ``_weighted``.  The checked path adds one scan of |S|² set
    lookups (``RackTable._subrack``, which ``subtable`` shares).

    A subset takes one of two paths.  A tuple that ``enumerate_subracks``
    returned, the very object, read in the listing's order, is found in
    the table's record of that listing by identity (``_listed_orbit``):
    it needs neither the member checks nor the closure check, as the
    enumeration proved it closed.  Its polynomial is kept in the
    depth-pair slot, one per Inn-orbit of several subracks (an orbit of
    one has nothing to share).  Each φ in Inn(X) is an automorphism, so
    C[φy] = φ C[y] φ⁻¹: the column of φy has the cycle lengths of y's,
    and φ carries x's cycles onto φx's, so every count is equal at x and
    φx.  φ maps S one to one onto φS, so the two sum the same monomials.
    A listing read in order at one depth pair thus counts once per
    Inn-orbit, and looks up the rest.  Every other subset takes the
    checked path: a listed tuple read out of order, an equal but
    distinct tuple, a list, unsorted members or repeated ones.  Either
    way the convention, the depths and the rack axioms are checked first
    (``_depths``), then the members, emptiness and closure, and the first
    that fails names the error.
    """
    m, n = _depths(table, m, n, convention)
    name = _listed_orbit(table, subset)
    if name is not None:
        pairs = _orbit_pairs(table, m, n, convention)
        if name < 0:  # the subrack's orbit is itself: nothing to share
            return _subset_poly(table, pairs, subset)
        polys = table._pair_memo[2]
        if name not in polys:
            polys[name] = _subset_poly(table, pairs, subset)
        return polys[name]
    elems = table._subrack(subset, "not a subrack")
    return _subset_poly(table, _orbit_pairs(table, m, n, convention), elems)


def _listed_orbit(table: RackTable, subset: object) -> int | None:
    """The name of the Inn-orbit of a tuple that the table's last
    ``enumerate_subracks`` returned, the very object, read in the
    listing's order (see there); None for any other subset.

    The tuple is known by identity alone, at the place after the last one
    found or at the listing's start, where a new pass begins; read
    anywhere else, it is a subset like any other, checked."""
    subracks, names, i = listing = table._listing
    if i == len(subracks) or subracks[i] is not subset:
        if not subracks or subracks[0] is not subset:
            return None
        i = 0
    listing[2] = i + 1
    return names[i]


def _subset_poly(table: RackTable, pairs: Sequence[tuple[int, int]],
                 elems: Iterable[int]) -> TwoVarPoly:
    """The sum of s^a·t^b over the elements, (a, b) being each one's
    Inn-orbit pair in ``pairs`` (see ``_orbit_pairs``), one lookup each,
    counted by ``_weighted`` into one term per distinct pair."""
    _, which, _, _ = table._inner
    return _poly(_weighted([pairs[which[x]] for x in elems], repeat(1)))
