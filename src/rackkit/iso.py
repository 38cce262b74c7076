"""Rack isomorphism testing and polynomial-family comparison."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from operator import eq, floordiv, index as _index, itemgetter, mul

from . import _EXPORTS
from .core import (Permutation, RackError, RackTable, _as_int, _cached,
                   _kernel, _orbits, _record)
from .generators import constant_action
from .poly import (TwoVarPoly, _check_convention, _counts, _lengths, _poly,
                   _weighted)

__all__ = _EXPORTS["iso"]


@_record
class IsoResult:
    isomorphic: bool
    witness: Permutation | None = None


def _invariant_keys(table: RackTable) -> list[tuple]:
    """Per Inn-orbit, a profile preserved by isomorphism: x's column's and
    x's row's (cycle length, multiplicity) pairs, shared by x's orbit
    (``RackTable._cycle_lengths``).  An isomorphism f carries C[y] to
    C[f(y)] and x's row to f(x)'s, so it keeps both lists.  It prunes
    ``isomorphic``'s search; ``rp_family_scan``'s certificate compares the
    same two lists, ordered by convention.  π(x)'s column would add nothing:
    R_{x ▷ x} = R_x in every rack (Fenn and Rourke, "Racks and links in
    codimension two", 1992).
    """
    return list(zip(*table._cycle_lengths))


def _is_morphism(a: RackTable, b: RackTable, images: list[int]) -> bool:
    """Whether f∘C_a[y] = C_b[f(y)]∘f for every y, that is f(x ▷ y) =
    f(x) ▷ f(y), for f padded as a column is: ``images[x]`` is f(x).
    The tables have one size, and each side is one C call through
    ``core._kernel`` on their cached views, a ``bytes.translate`` below
    256 elements: f is put in the kernel's two forms once, and each
    column is composed with it twice."""
    view, after, _ = _kernel(a.n)
    (_, f_source), (_, f_table) = view((None, images))
    f = after(f_source)
    sources_a, _ = a._view
    _, tables_b = b._view
    return all(after(col)(f_table) == f(tables_b[fy])
               for col, fy in zip(sources_a[1:], images[1:]))


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

    A generator g tries the least such image y first and, only if y
    fails, the least element above y of each other orbit of H, in
    ascending order, where b's columns that fix the images of the
    generators before g generate H.  Each φ in H is an automorphism that
    fixes every image placed so far, so with f, φ∘f is an isomorphism
    that extends them: an H-orbit of images succeeds or fails as one,
    and the image a branch over every element finds first is the least
    element above y of its orbit.  The search below it, and the witness,
    are the same.  For the first generator H is Inn(b), whose orbits
    ``RackTable._inner`` holds, so a b of one orbit tries one first image
    where it tried n.  Deeper, H costs O(k·n + h·n) lookups for k placed
    generators and h distinct columns kept (``core._orbits``).
    """
    a.require_rack()
    b.require_rack()
    if a.n != b.n:
        return IsoResult(False)
    keys_a = _invariant_keys(a)
    keys_b = _invariant_keys(b)
    _, which_a, sizes_a, _ = a._inner
    orbits_b, which_b, sizes_b, _ = b._inner
    if _weighted(keys_a, sizes_a) != _weighted(keys_b, sizes_b):
        return IsoResult(False)
    # images[x] is f(x) once x is placed, and free[y] is 0 once y is used;
    # before that both hold a negative number naming the element's key, so
    # one comparison rejects a placed element, a used image or another key
    ids = {key: -i for i, key in enumerate(keys_a, 1)}
    unplaced = [0, *(ids[keys_a[i]] for i in which_a[1:])]
    images = unplaced.copy()
    free = [0, *(ids[keys_b[i]] for i in which_b[1:])]
    cols_a = a._right
    cols_b = b._right
    placed: list[int] = []

    def undo(mark: int) -> None:
        for x in placed[mark:]:
            free[images[x]] = images[x] = unplaced[x]
        del placed[mark:]

    def place(x: int, fx: int) -> bool:
        """Place x at fx and propagate; false on a contradiction."""
        # placed[:i] have taken their products with each other
        i = len(placed)
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
                        return False
                    images[p] = fp
                    free[fp] = 0
                    placed.append(p)
                p = col[y]
                fp = col_f[fy]
                if images[p] != fp:
                    if free[fp] != images[p]:
                        return False
                    images[p] = fp
                    free[fp] = 0
                    placed.append(p)
        return True

    def tries(g: int) -> Iterator[int]:
        """g's images in the order that its frame, the last, tries them."""
        least = free.index(unplaced[g])  # the least free one of g's key
        yield least
        orbits = orbits_b  # H, with no point to fix, is Inn(b)
        if len(frames) > 1:  # H fixes the images of the generators before
            fix = itemgetter(*[images[h] for h, _, _ in frames[:-1]])
            still = fix(range(b.n + 1))  # as fix reads a column fixing them
            columns = {col for col in cols_b[1:] if fix(col) == still}
            orbits = [members for _, members in _orbits(b.n, columns)]
        # an orbit with no element above least offers 0, no element
        yield from sorted(min(filter(least.__lt__, orbit), default=0)
                          for orbit in orbits if least not in orbit)

    # per generator: the generator, its trail mark and its untried images
    frames = []
    while len(placed) < a.n:
        # the placed elements are the span of the generators so far
        g = next(x for x in a.elements if images[x] < 0)
        frames.append((g, len(placed), tries(g)))
        # place the deepest generator at its next image that propagates,
        # undoing each that does not
        while frames:
            g, mark, untried = frames[-1]
            undo(mark)
            if any(free[y] == unplaced[g] and (place(g, y) or undo(mark))
                   for y in untried):
                break
            frames.pop()
        else:
            return IsoResult(False)
    if not _is_morphism(a, b, images):
        raise RackError("internal error: witness failed verification")
    return IsoResult(True, Permutation(tuple(images[1:])))


@_record
class PolyDifference:
    m: int
    n: int
    left: TwoVarPoly
    right: TwoVarPoly


_PROBES = 1 << 12  # the most floor sums a listing view keeps per row class


class _DepthPairs(Sequence):
    """A listing scan's items at its differing depth pairs (m, n), n
    outermost and then m, each built when it is read.

    ``groups`` maps each class of n with a difference, ascending, to its
    differing classes of m, ascending, each with its pair of polynomials,
    which ``_row`` reads and ``_make(m, n, left, right)`` makes an item.
    ``classes`` holds every class up to the bound, ascending.  The class
    of depth d is the lcm of the cycle ``lengths`` dividing it, a function
    of gcd(d, L), L their lcm; iteration classifies each depth through a
    memo keyed by that gcd, and no table of depths is kept.

    A class g divides d exactly when it divides d's class, so ⌊x/g⌋
    counts the depths in 1..x whose class g divides.  Möbius inversion up
    the lattice of classes (Rota, "On the foundations of combinatorial
    theory I", 1964) turns these into each class's depths in 1..bound, for
    ``len`` and the rows' widths, and into coefficients c_g with
    Σ c_g·⌊x/g⌋ any weighted count of the depths in 1..x, x ≤ bound, by
    which an index finds its n, then its m, each by its own search.
    Every index's search probes the same x near the top, so each row
    class keeps the ``_PROBES`` sums it read last (``lru_cache``): reading
    every index costs about four times iterating, where summing afresh
    at every probe cost about 14 times, and a bound far past the period
    never fills a table of depths.  The first item and ``bool`` need
    only ``groups``.
    ``len()`` stops at sys.maxsize, as for a range; ``__len__()`` is
    exact, and indexing and slicing use it.
    """

    _like: type  # the type it stands in for, and compares equal to

    def __init__(self, bound: int, lengths: tuple[int, ...],
                 classes: tuple[int, ...], groups: dict[int, dict]) -> None:
        self._bound = bound
        self._lengths = lengths
        self._classes = classes
        self._groups = groups
        self._lcm = math.lcm(*lengths)
        self._gcd_class = lru_cache(maxsize=None)(  # gcd(d, L) → d's class
            lambda g: math.lcm(*(k for k in lengths if g % k == 0)))
        self._floor_sums: dict[int | None, Callable[[int], int]] = {}

    def _classify(self, depths):  # each depth's class, in order
        return map(self._gcd_class, map(math.gcd, depths, repeat(self._lcm)))

    def _row(self, gn: int) -> Callable[[int], tuple]:
        """Class of m → the values of row class gn there; false off it."""
        return self._groups[gn].get

    @_cached
    def _widths(self) -> tuple[dict[int, int], int]:
        """Each row class's width, and the length."""
        depths = {}  # class → how many of 1..bound it has
        # from the top: ⌊bound/h⌋ less the depths of the classes h divides
        for h in reversed(self._classes):
            depths[h] = self._bound // h - sum(
                k for g, k in depths.items() if g % h == 0)
        widths = {gn: sum(map(depths.__getitem__, pairs))
                  for gn, pairs in self._groups.items()}
        return widths, sum(depths[gn] * w for gn, w in widths.items())

    def _locate(self, gn: int | None, i: int) -> tuple[int, int]:
        """The least x with over i items in the rows 1..x (gn None) or in
        row class gn at the m in 1..x, and i less the items before x."""
        if gn not in self._floor_sums:  # classes and c_g, cached per gn
            weights = (self._widths[0] if gn is None
                       else dict.fromkeys(self._groups[gn], 1))
            # the classes g that divide h carry c_g summing to h's weight
            found = {}
            for h in self._classes:
                c = weights.get(h, 0) - sum(
                    c for g, c in found.items() if h % g == 0)
                if c:
                    found[h] = c
            gs, cs = tuple(found), tuple(found.values())
            # x → Σ c_g·⌊x/g⌋, keeping the _PROBES sums read last
            self._floor_sums[gn] = lru_cache(maxsize=_PROBES)(
                lambda x: sum(map(mul, cs, map(floordiv, repeat(x), gs))))
        count = self._floor_sums[gn]
        # the largest x with at most i items, a bit at a time, as bisect
        # cannot search past sys.maxsize; the sums hold only up to the bound
        x = 0
        for bit in reversed(range(self._bound.bit_length())):
            y = x + (1 << bit)
            if y <= self._bound and count(y) <= i:
                x = y
        return x + 1, i - count(x)

    def __len__(self) -> int:
        return self._widths[1]

    def __bool__(self) -> bool:
        return bool(self._groups)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._like(map(self.__getitem__,
                                  range(*index.indices(self.__len__()))))
        i = _index(index)
        if i == 0:
            # the least depth of a class is the class itself, so the first
            # item is at the least class of n and its least class of m
            gn = next(iter(self._groups))
            gm = next(iter(self._groups[gn]))
            return self._make(gm, gn, *self._row(gn)(gm))
        length = self.__len__()
        if i < 0:
            i += length
        if not 0 <= i < length:
            raise IndexError(f"{self._like.__name__} index out of range")
        n, j = self._locate(None, i)
        gn = self._gcd_class(math.gcd(n, self._lcm))
        m, _ = self._locate(gn, j)
        gm = self._gcd_class(math.gcd(m, self._lcm))
        return self._make(m, n, *self._row(gn)(gm))

    def __iter__(self):
        make, groups = self._make, self._groups
        depths = range(1, self._bound + 1)
        for n, gn in zip(depths, self._classify(depths)):
            if gn in groups:
                hits = zip(depths, map(self._row(gn), self._classify(depths)))
                for m, (left, right) in filter(itemgetter(1), hits):
                    yield make(m, n, left, right)

    def __eq__(self, other):
        if isinstance(other, _DepthPairs):
            if other._like is not self._like:
                return NotImplemented
            if self.__reduce__() == other.__reduce__():
                return True
        elif not isinstance(other, self._like):
            return NotImplemented
        return (self.__len__() == other.__len__()
                and all(map(eq, self, other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return type(self), (self._bound, self._lengths, self._classes,
                            self._groups)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} of {self.__len__()} over depths "
                f"1..{self._bound}>")


class _DifferenceView(_DepthPairs):
    """``RpFamilyScan.differences`` of a listing scan: PolyDifferences,
    equal to the tuple of them and hashed as it is."""

    _like = tuple
    _make = PolyDifference


class _LineView(_DepthPairs):
    """``RpFamilyScan.lines()`` of a listing scan, over the differences'
    groups: one string per difference, equal to the list of them, each
    row class's polynomials formatted once, when a line first needs them."""

    _like = list
    _make = "({0},{1}): {2} != {3}".format

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._rows: dict[int, Callable] = {}

    def _row(self, gn: int) -> Callable[[int], tuple]:
        if gn not in self._rows:
            pairs = self._groups[gn]
            self._rows[gn] = lru_cache(maxsize=None)(
                lambda gm: tuple(map(str, pairs.get(gm, ()))))
        return self._rows[gn]


@_record
class RpFamilyScan:
    """Comparison of two racks' polynomials over a grid of depth pairs.

    Depths run over 1..bound in each slot.  complete_bound is true when
    bound reaches the larger of the two tables' periods (the lcm of each
    table's column orders); then an empty scan certifies agreement at
    every depth pair, as rp_family_scan explains.

    differences is a read-only Sequence of PolyDifferences, n outermost
    and then m.  An agreeing scan and a stop_at_first scan hold a tuple of
    at most one.  A listing scan holds a view over its differing class
    pairs, with no table of depths: its len is counted on the classes,
    indexing (negative too), slicing and iteration build a PolyDifference
    only when it is read, and a slice is a tuple.  The view compares equal
    to the tuple of its items and hashes as that tuple does, so scans
    compare, hash, copy and pickle as they did when differences was that
    tuple; only its repr, which names its length instead of listing every
    item, and its type changed.  A listing scan's lines() is likewise a
    view of strings, equal to the list of them, formatting each distinct
    polynomial once, when a line first needs it.
    """

    bound: int
    complete_bound: bool
    differences: Sequence[PolyDifference]

    @property
    def is_empty(self) -> bool:
        return not self.differences

    def first_difference(self) -> PolyDifference | None:
        return self.differences[0] if self.differences else None

    def lines(self) -> Sequence[str]:
        if isinstance(self.differences, _DifferenceView):
            return _LineView(*self.differences.__reduce__()[1])
        return [_LineView._make(d.m, d.n, d.left, d.right)
                for d in self.differences]


class _Ids(dict):
    """Depth class → the id of one table's vector of counts at that class,
    one count per entry (``poly._counts``) and one id per distinct vector,
    numbered as the vectors are met; a class is counted when first read.
    ``vectors[i]`` is the vector with id i."""

    def __init__(self, by_length: Sequence[tuple]) -> None:
        self._by_length = by_length
        self._id_of: dict[tuple, int] = {}
        self.vectors: list[tuple] = []

    def __missing__(self, g: int) -> int:
        vector = tuple(_counts(self._by_length, g))
        i = self[g] = self._id_of.setdefault(vector, len(self.vectors))
        if i == len(self.vectors):
            self.vectors.append(vector)
        return i


class _Row(dict):
    """s-vector id → one table's polynomial at that s vector and one t
    vector, each built when first read and kept in the scan's ``shared``
    dict, so equal polynomials of either table are one object."""

    def __init__(self, side: "_Side", t: tuple) -> None:
        self._side = side
        self._t = t

    def __missing__(self, s_id: int) -> TwoVarPoly:
        side = self._side
        items = tuple(_weighted(zip(side.s.vectors[s_id], self._t),
                                side.weights))
        poly = side.shared.get(items)
        if poly is None:
            poly = side.shared[items] = _poly(items)
        self[s_id] = poly
        return poly


class _Side:
    """One table's polynomials at a scan's class pairs, from its profile:
    each distinct (s lengths, t lengths) entry with its weight.  It counts
    a class and builds a polynomial only when the walk reaches them."""

    def __init__(self, profile: list[tuple], classes: list[int],
                 shared: dict[tuple, TwoVarPoly]) -> None:
        keys, self.weights = zip(*profile)
        self.s, self.t = map(_Ids, zip(*keys))
        self.shared = shared
        self._classes = classes
        self._rows: dict[int, _Row] = {}

    def polys(self, gn: int):
        """Its polynomials at (gm, gn) for the classes gm, ascending."""
        t_id = self.t[gn]
        row = self._rows.get(t_id)
        if row is None:
            row = self._rows[t_id] = _Row(self, self.t.vectors[t_id])
        return map(row.__getitem__, map(self.s.__getitem__, self._classes))


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

    An element x's profile is the pair of (cycle length, multiplicity)
    lists behind its s and its t count under the convention, a row's and
    a column's (``poly._lengths``), shared by x's Inn-orbit.  x's s count
    at depth m is the sum of the multiplicities in its s list whose
    lengths divide m, and its t count at n the same sum over its t list
    (``poly._counts``), so the monomial x adds at (m, n) is a function of
    its profile alone.  Each table is therefore read as its profile: one
    entry per distinct profile, weighted by the sizes of the orbits that
    have it (``poly._weighted``), sorted.  If the two profiles are equal,
    the tables add the same monomials at every (m, n), their polynomials
    agree at every depth pair, and the scan returns the empty scan that
    the class loop would return, stop_at_first or not.  The test costs
    one entry per Inn-orbit, whatever the period.  It is sufficient, not
    necessary: unequal profiles run the class loop.

    Counts at depth d depend on d only through which cycle lengths of
    the two tables divide d.  So the depths fall into classes, each named
    by the lcm of those lengths, which is also its least depth.  The
    classes up to the bound are the lcms of sets of cycle lengths, grown
    one length at a time and never past the bound.  A table's polynomial
    at (m, n) depends only on its vector of s counts at m and its vector
    of t counts at n, one count per entry.  So each class gets one id per
    table for its distinct vector, and each table's polynomial is built
    once per distinct pair of ids that the walk reaches, from its
    entries' count pairs, through one dict of the scan's polynomials: equal
    polynomials are one object, a class pair differs exactly when its two
    polynomials are not the same object, and a listing holds one per
    distinct polynomial.  One walk, n outermost and then m, serves both
    kinds of scan; it counts a class and builds a polynomial only when it
    reaches them, and no scan visits the depths 1..bound.  A listing
    reads every class pair: it costs an s and a t count vector per table
    and class, one dict lookup per table and class pair, and one build
    per distinct (s id, t id) pair of each table, at most the product of
    its numbers of distinct s and t vectors.  The differing class pairs and
    their polynomials are returned as a view that lists the depth pairs
    only as they are read (see RpFamilyScan).  stop_at_first stops at the
    first class pair that differs, the least class of n with a difference
    and its least differing class of m.
    """
    _check_convention(convention)
    a.require_rack()
    b.require_rack()
    profile_a, profile_b = (
        _weighted(zip(*_lengths(table, convention)), table._inner[2])
        for table in (a, b))
    # the s lists are rows' or columns' lengths, and a row's lengths are
    # those of its element's cycles under the columns, so either way they
    # hold exactly the table's column cycle lengths
    lengths_a, lengths_b = ({k for (pairs, _), _ in profile for k, _ in pairs}
                            for profile in (profile_a, profile_b))
    period = max(math.lcm(*lengths_a), math.lcm(*lengths_b))
    bound = period if bound is None else _as_int(bound, "bound")
    if bound < 1:
        raise RackError(f"bound must be at least 1, got {bound}")
    complete = bound >= period
    if profile_a == profile_b:
        return RpFamilyScan(bound, complete, ())
    lengths = lengths_a | lengths_b
    found = {1}
    for k in lengths:
        found |= {h for g in found if (h := math.lcm(g, k)) <= bound}
    classes = sorted(found)
    shared: dict[tuple, TwoVarPoly] = {}  # one per distinct item list
    side_a = _Side(profile_a, classes, shared)
    side_b = _Side(profile_b, classes, shared)
    differing: dict[int, dict[int, tuple[TwoVarPoly, TwoVarPoly]]] = {}
    for gn in classes:
        pairs = ((gm, (pa, pb)) for gm, pa, pb in zip(
            classes, side_a.polys(gn), side_b.polys(gn)) if pa is not pb)
        if stop_at_first:
            for gm, (left, right) in pairs:
                return RpFamilyScan(bound, complete,
                                    (PolyDifference(gm, gn, left, right),))
        else:
            polys = dict(pairs)
            if polys:
                differing[gn] = polys
    if not differing:
        return RpFamilyScan(bound, complete, ())
    return RpFamilyScan(bound, complete, _DifferenceView(
        bound, tuple(sorted(lengths)), tuple(classes), differing))


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as descending tuples, in ascending lex order."""
    k = _as_int(k, "size")
    if k < 0:
        raise RackError("cannot partition a negative integer")

    # parts up to cap, ordered by the first part and then by the rest
    def gen(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        return [(first, *rest) for first in range(1, min(remaining, cap) + 1)
                for rest in gen(remaining - first, first)]

    return tuple(gen(k, k))


def permutation_of_type(cycle_type: tuple[int, ...],
                        shuffle_seed: int | None = None) -> Permutation:
    """A permutation with the given, nonempty cycle type, its cycles laid
    out in turn on 1..k, or with a seed on 1..k shuffled once by
    ``random.Random(shuffle_seed)``: the consecutive layout conjugated by
    that relabeling, a different-looking permutation of the same type."""
    cycle_type = tuple(_as_int(k, "cycle length") for k in cycle_type)
    if not cycle_type:
        raise RackError("a cycle type needs at least one cycle")
    if min(cycle_type) < 1:
        raise RackError(f"cycle lengths must be positive, got {cycle_type}")
    k = sum(cycle_type)
    labels = list(range(1, k + 1))
    if shuffle_seed is not None:
        import random  # only a seeded layout needs it

        random.Random(shuffle_seed).shuffle(labels)
    starts = accumulate(cycle_type, initial=0)
    return Permutation.from_cycles(
        k, (labels[start:start + length]
            for start, length in zip(starts, cycle_type)))


@_record
class SameTypeCheck:
    cycle_type: tuple[int, ...]
    iso: bool
    scan_empty: bool
    scan_bound: int


@_record
class DistinctTypeCheck:
    left_type: tuple[int, ...]
    right_type: tuple[int, ...]
    iso: bool
    first_difference: PolyDifference | None


@_record
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
        return [*(f"type {c.cycle_type}: isomorphic={c.iso} "
                  f"polys_agree_to_{c.scan_bound}={c.scan_empty}"
                  for c in self.same_type),
                *(f"types {c.left_type} vs {c.right_type}: isomorphic={c.iso} "
                  "first_poly_difference=" + (
                      f"({d.m},{d.n})" if (d := c.first_difference)
                      else "nowhere")
                  for c in self.distinct_type)]


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
