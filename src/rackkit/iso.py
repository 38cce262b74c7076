"""Rack isomorphism testing and polynomial-family comparison."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .core import (Permutation, RackError, RackTable, _as_int,
                   column_order_lcm)
from .generators import constant_action
from .poly import TwoVarPoly, _check_convention, _counts, _lengths

__all__ = [
    "ClassificationReport",
    "DistinctTypeCheck",
    "IsoResult",
    "PolyDifference",
    "RpFamilyScan",
    "SameTypeCheck",
    "isomorphic",
    "partitions",
    "permutation_of_type",
    "rp_family_scan",
    "verify_constant_action_classification",
]


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    witness: Permutation | None = None


def _invariant_keys(table: RackTable) -> list[tuple]:
    """Per-element keys preserved by isomorphism, used to prune the search.

    x's key is its column's cycle type and its row's fix count.  π(x)'s
    column would add nothing: R_{x ▷ x} = R_x in every rack (Fenn and
    Rourke, "Racks and links in codimension two", 1992).
    """
    types = table._cycle_lengths[0]  # (length, points) pairs, sorted
    rows = _counts(_lengths(table, "def")[0], 1)  # row[1][x], the s count
    return list(zip(types, rows))


def _is_morphism(a: RackTable, b: RackTable, images: list[int]) -> bool:
    """Whether f∘C_a[y] = C_b[f(y)]∘f for every y, that is f(x ▷ y) =
    f(x) ▷ f(y), for f padded as a column is: ``images[x]`` is f(x)."""
    f = itemgetter(*images)
    cols_b = b._right
    return all(itemgetter(*col)(images) == f(cols_b[fy])
               for col, fy in zip(a._right[1:], images[1:]))


def isomorphic(a: RackTable, b: RackTable) -> IsoResult:
    """Search for a bijection carrying one table to the other.

    A rack homomorphism is fixed by the images of a generating set (Joyce,
    "A classifying invariant of knots, the knot quandle", 1982), so only
    generators of a are branched on, each the least element outside the
    span of those before it, over the unused elements of b with its
    invariant key.  Each placement propagates f(x ▷ y) = f(x) ▷ f(y) over
    every pair of placed elements until they fill the span; an image that
    contradicts f, is used or has another key fails the branch, and a trail
    undoes it.  The search keeps its own stack of generators, so no size
    of table can exhaust the interpreter's.  A path costs O(n²) lookups,
    and a full one is an isomorphism, verified once more before it is
    returned.

    The first generator, 1, is branched only over the least element of
    each orbit of Inn(b) = ⟨C_b[y]⟩, in ascending order.  Every column of
    a rack is an automorphism, so if f is an isomorphism, so is φ∘f for
    each φ in Inn(b), and φ keeps the invariant keys.  So whether an
    isomorphism with f(1) = y exists depends only on y's orbit, and the
    least such y, the image a branch over every element would find
    first, is the least element of its orbit.  The search below it is
    the same, so the witness is too, and a b with one orbit tries one
    first image where it tried n.  Deeper generators still try every
    element of b.
    """
    a.require_rack()
    b.require_rack()
    if a.n != b.n:
        return IsoResult(False)
    keys_a = _invariant_keys(a)
    keys_b = _invariant_keys(b)
    if sorted(keys_a) != sorted(keys_b):
        return IsoResult(False)
    # images[x] is f(x) once x is placed, and free[y] is 0 once y is used;
    # before that both hold a negative number naming the element's key, so
    # one comparison rejects a placed element, a used image or another key
    ids = {key: -i for i, key in enumerate(set(keys_a), 1)}
    unplaced = [0, *(ids[key] for key in keys_a)]
    images = unplaced.copy()
    free = [0, *(ids[key] for key in keys_b)]
    cols_a = a._right
    cols_b = b._right
    placed: list[int] = []
    representatives = [orbit[0] for orbit in b._inner_orbits[0]]

    def undo(mark: int) -> None:
        for x in placed[mark:]:
            free[images[x]] = images[x] = unplaced[x]
        del placed[mark:]

    def place(x: int, fx: int) -> bool:
        """Place x at fx and propagate; a contradiction undoes it all."""
        # placed[:i] have taken their products with each other
        mark = i = len(placed)
        images[x] = fx
        free[fx] = 0
        placed.append(x)
        while i < len(placed):
            x = placed[i]
            fx = images[x]
            col = cols_a[x]
            col_f = cols_b[fx]
            i += 1
            for y in placed[:i]:
                # x ▷ y and y ▷ x, written out twice, over every pair.
                # Walking only the generators' columns, as core._walk
                # does, gives the same witnesses but meets a
                # contradiction only after going round a cycle:
                # alexander(101, 2) against a relabelled
                # alexander(101, 51) took 283 ms that way and 16 ms this
                # way (best of 5, 2-core VM, Python 3.11)
                fy = images[y]
                p = cols_a[y][x]
                fp = cols_b[fy][fx]
                if images[p] != fp:
                    if free[fp] != images[p]:
                        undo(mark)
                        return False
                    images[p] = fp
                    free[fp] = 0
                    placed.append(p)
                p = col[y]
                fp = col_f[fy]
                if images[p] != fp:
                    if free[fp] != images[p]:
                        undo(mark)
                        return False
                    images[p] = fp
                    free[fp] = 0
                    placed.append(p)
        return True

    # per generator: the generator, its trail mark and its untried images
    frames = []
    while len(placed) < a.n:
        # the placed elements are the span of the generators so far
        g = next(x for x in a.elements if images[x] < 0)
        # the first generator, 1, tries one image per Inn(b)-orbit
        untried = iter(representatives if not placed else b.elements)
        frames.append((g, len(placed), untried))
        # place the deepest generator at its next image that propagates
        while frames:
            g, mark, untried = frames[-1]
            undo(mark)
            if any(free[y] == unplaced[g] and place(g, y) for y in untried):
                break
            frames.pop()
        else:
            return IsoResult(False)
    if not _is_morphism(a, b, images):
        raise RackError("internal error: witness failed verification")
    return IsoResult(True, Permutation(tuple(images[1:])))


@dataclass(frozen=True)
class PolyDifference:
    m: int
    n: int
    left: TwoVarPoly
    right: TwoVarPoly


@dataclass(frozen=True)
class RpFamilyScan:
    """Comparison of two racks' polynomials over a grid of depth pairs.

    Depths run over 1..bound in each slot.  complete_bound is true when
    bound reaches the larger of the two tables' periods (the lcm of each
    table's column orders); then an empty scan certifies agreement at
    every depth pair, as rp_family_scan explains.
    """

    bound: int
    complete_bound: bool
    differences: tuple[PolyDifference, ...]

    @property
    def is_empty(self) -> bool:
        return not self.differences

    def first_difference(self) -> PolyDifference | None:
        return self.differences[0] if self.differences else None

    def lines(self) -> list[str]:
        return [f"({d.m},{d.n}): {d.left} != {d.right}"
                for d in self.differences]


def rp_family_scan(a: RackTable, b: RackTable, bound: int | None = None,
                   convention: str = "def",
                   stop_at_first: bool = False) -> RpFamilyScan:
    """Compare polynomials of two racks at all depth pairs up to a bound.

    Pairs are scanned with the second depth outermost, so the reported
    first difference minimizes n before m.

    The default bound is max(L_a, L_b), the larger of the two tables'
    periods (L_a is the lcm of a's column orders), and it already makes
    the scan a complete certificate.  If L_a does not divide L_b, then at
    (L_b, L_b) every count of b is b's size k, so b's polynomial is
    k*s^k*t^k in either convention, while some count of a is below k; in
    the same way (L_a, L_a) differs if L_b does not divide L_a.  So an
    empty scan up to max(L_a, L_b) forces L_a = L_b, and as counts at
    depth d depend only on d mod the period, every depth pair agrees.

    Counts at depth d depend on d only through which cycle lengths of
    the two tables divide d.  So the depths fall into classes, each named
    by the lcm of those lengths, which is also its least depth.  The
    classes up to the bound are the lcms of sets of cycle lengths, found
    by a search from 1 that never passes the bound.  For a class of n,
    equal multisets of (t count, s counts at every class of m) leave no
    class of m to differ; only unequal ones are compared class by class.
    An agreeing scan returns without visiting the depths 1..bound, and so
    does stop_at_first: it stops at the least class of n with a difference
    and answers with that class and its least differing class of m.
    Otherwise the m in 1..bound whose class pair differs are listed once
    per class of n, and depths n of one class share that list and its
    polynomials.
    """
    _check_convention(convention)
    a.require_rack()
    b.require_rack()
    period = max(column_order_lcm(a), column_order_lcm(b))
    bound = period if bound is None else _as_int(bound, "bound")
    if bound < 1:
        raise RackError(f"bound must be at least 1, got {bound}")
    complete = bound >= period
    lengths = {k for table in (a, b) for pairs in table._cycle_lengths[0]
               for k, _ in pairs}
    found = {1}
    todo = [1]
    while todo:
        g = todo.pop()
        for k in lengths:
            h = math.lcm(g, k)
            if h <= bound and h not in found:
                found.add(h)
                todo.append(h)
    classes = sorted(found)
    s_lengths_a, t_lengths_a = _lengths(a, convention)
    s_lengths_b, t_lengths_b = _lengths(b, convention)
    s_a = {g: _counts(s_lengths_a, g) for g in classes}
    s_b = {g: _counts(s_lengths_b, g) for g in classes}
    # each element's s counts at every class of m, as one small int
    ids: dict[tuple[int, ...], int] = {}
    sid_a = [ids.setdefault(v, len(ids)) for v in zip(*s_a.values())]
    sid_b = [ids.setdefault(v, len(ids)) for v in zip(*s_b.values())]
    # the class pairs share few polynomials, so each is built once
    built: dict[frozenset, TwoVarPoly] = {}

    def polynomial(terms: Counter) -> TwoVarPoly:
        key = frozenset(terms.items())
        if key not in built:
            built[key] = TwoVarPoly.from_dict(terms)
        return built[key]

    differing: dict[int, dict[int, tuple[TwoVarPoly, TwoVarPoly]]] = {}
    for gn in classes:
        t_a = _counts(t_lengths_a, gn)
        t_b = _counts(t_lengths_b, gn)
        if Counter(zip(t_a, sid_a)) == Counter(zip(t_b, sid_b)):
            continue
        polys = {}
        for gm in classes:
            pa = Counter(zip(s_a[gm], t_a))
            pb = Counter(zip(s_b[gm], t_b))
            if pa != pb:
                polys[gm] = polynomial(pa), polynomial(pb)
        if polys and stop_at_first:
            gm, (left, right) = next(iter(polys.items()))
            return RpFamilyScan(bound, complete,
                                (PolyDifference(gm, gn, left, right),))
        if polys:
            differing[gn] = polys
    if not differing:
        return RpFamilyScan(bound, complete, ())

    # reading the class of d through gcd(d, L), L the lcm of all lengths,
    # takes one gcd per depth instead of one test per length
    lcm = math.lcm(*lengths)
    gcds = [math.gcd(d, lcm) for d in range(1, bound + 1)]
    named = {g: math.lcm(*(k for k in lengths if g % k == 0))
             for g in set(gcds)}
    depth_class = [named[g] for g in gcds]
    rows = {gn: [(m, *polys[gm]) for m, gm in enumerate(depth_class, start=1)
                 if gm in polys]
            for gn, polys in differing.items()}
    return RpFamilyScan(bound, complete, tuple(
        PolyDifference(m, n, left, right)
        for n, gn in enumerate(depth_class, start=1)
        for m, left, right in rows.get(gn, ())))


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as descending tuples, in ascending lex order."""
    k = _as_int(k, "size")
    if k < 0:
        raise RackError("cannot partition a negative integer")

    def gen(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                out.append((first,) + rest)
        return out

    return tuple(sorted(gen(k, k)))


def permutation_of_type(cycle_type: tuple[int, ...],
                        shuffle_seed: int | None = None) -> Permutation:
    """A permutation with the given cycle type.

    Without a seed, cycles are laid out on consecutive integers; with a
    seed, the result is conjugated by a seeded random relabeling, giving a
    different-looking permutation of the same type deterministically.
    """
    cycle_type = tuple(_as_int(k, "cycle length") for k in cycle_type)
    if min(cycle_type, default=1) < 1:
        raise RackError(f"cycle lengths must be positive, got {cycle_type}")
    k = sum(cycle_type)
    starts = accumulate(cycle_type, initial=1)
    perm = Permutation.from_cycles(
        k, (range(start, start + length)
            for start, length in zip(starts, cycle_type)))
    if shuffle_seed is None:
        return perm
    import random  # only a seeded layout needs it

    rng = random.Random(shuffle_seed)
    relabel = list(range(1, k + 1))
    rng.shuffle(relabel)
    return perm.conjugated_by(Permutation(tuple(relabel)))


@dataclass(frozen=True)
class SameTypeCheck:
    cycle_type: tuple[int, ...]
    iso: bool
    scan_empty: bool
    scan_bound: int


@dataclass(frozen=True)
class DistinctTypeCheck:
    left_type: tuple[int, ...]
    right_type: tuple[int, ...]
    iso: bool
    first_difference: PolyDifference | None


@dataclass(frozen=True)
class ClassificationReport:
    """Constant-action racks of one size: same type ⇔ isomorphic ⇔ equal polys."""

    k: int
    convention: str
    same_type: tuple[SameTypeCheck, ...]
    distinct_type: tuple[DistinctTypeCheck, ...]

    @property
    def consistent(self) -> bool:
        return (all(c.iso and c.scan_empty for c in self.same_type)
                and all((not c.iso) and c.first_difference is not None
                        for c in self.distinct_type))

    def lines(self) -> list[str]:
        out = []
        for c in self.same_type:
            out.append(
                f"type {c.cycle_type}: isomorphic={c.iso} "
                f"polys_agree_to_{c.scan_bound}={c.scan_empty}")
        for c in self.distinct_type:
            d = c.first_difference
            where = f"({d.m},{d.n})" if d else "nowhere"
            out.append(
                f"types {c.left_type} vs {c.right_type}: isomorphic={c.iso} "
                f"first_poly_difference={where}")
        return out


def verify_constant_action_classification(
        k: int, convention: str = "def") -> ClassificationReport:
    """Check the constant-action classification empirically at size k.

    For each cycle type, one canonical and one relabeled representative
    must be isomorphic with identical polynomial families; for each pair
    of distinct types, the representatives must be non-isomorphic with
    some polynomial difference.
    """
    _check_convention(convention)
    k = _as_int(k, "size")
    if not 1 <= k <= 12:
        raise RackError(f"size must be between 1 and 12, got {k}")
    types = partitions(k)
    reps = {ct: constant_action(permutation_of_type(ct)) for ct in types}
    same = []
    for index, ct in enumerate(types):
        other = constant_action(
            permutation_of_type(ct, shuffle_seed=k * 1000 + index))
        iso = isomorphic(reps[ct], other).isomorphic
        scan = rp_family_scan(reps[ct], other, convention=convention)
        same.append(SameTypeCheck(ct, iso, scan.is_empty, scan.bound))
    distinct = []
    for i, ct1 in enumerate(types):
        for ct2 in types[i + 1:]:
            iso = isomorphic(reps[ct1], reps[ct2]).isomorphic
            scan = rp_family_scan(reps[ct1], reps[ct2],
                                  convention=convention, stop_at_first=True)
            distinct.append(DistinctTypeCheck(
                ct1, ct2, iso, scan.first_difference()))
    return ClassificationReport(k, convention, tuple(same), tuple(distinct))
