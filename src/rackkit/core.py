"""Finite racks and quandles as explicit operation tables.

A table of size n stores the products of {1..n}: entry (x, y) is x ▷ y.
The first rack axiom makes every column of the table a permutation, the
second is right self-distributivity.  Parsing and validation are kept
separate so that broken tables can still be loaded and reported on.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress, islice, repeat
from operator import attrgetter, index, itemgetter, ne

from . import _EXPORTS

__all__ = _EXPORTS["core"]

# which fix count feeds which polynomial variable (see rackkit.poly); here
# so that the command line can offer the choices without loading poly
CONVENTIONS = ("def", "prop3")

# a byte holds 0..255, so only tables of fewer elements compose as bytes
_BYTE_LIMIT = 256


class RackError(ValueError):
    """Domain error raised by rack operations."""


class TableFormatError(RackError):
    """Malformed rack table text or entries."""


class NotARackError(RackError):
    """A valid rack was required but some axiom fails."""


class CongruenceError(RackError):
    """A partition fails the congruence condition; carries a witness."""

    def __init__(self, x: int, x_prime: int, y: int, y_prime: int,
                 left: int, right: int):
        self.witness = (x, x_prime, y, y_prime)
        self.products = (left, right)
        super().__init__(
            f"not a congruence: {x}~{x_prime} and {y}~{y_prime}, "
            f"but {x}▷{y}={left} and {x_prime}▷{y_prime}={right} "
            f"fall in different classes")


def _as_int(v: object, what: str = "element") -> int:
    """v through operator.index, as table entries are; anything else raises
    a RackError that names what v is."""
    try:
        return index(v)
    except TypeError:
        raise RackError(f"non-integer {what} {v!r}") from None


def _refused(tokens: Iterable[str]) -> tuple[str, int]:
    """The first token that ``int`` refuses, with its digit count if it is
    digits with at most a sign, so refused for its length alone, else 0."""
    for tok in tokens:
        try:
            int(tok)
        except ValueError:
            digits = tok[tok[0] in "+-":]
            return tok, len(digits) if digits.isdecimal() else 0


def _in_range(v: object, n: int, what: str = "element") -> int:
    """v as an int in 1..n; anything else raises a RackError naming what v is."""
    i = _as_int(v, what)
    if not 1 <= i <= n:
        raise RackError(f"{what} {v} out of range 1..{n}")
    return i


def _cycles(images: Sequence[int]) -> Iterator[list[int]]:
    """Cycles of a padded permutation of 0..n, but for 0's, each walked from
    its least element, in the order of those: the package's one walk of a
    whole permutation, as ``rack_op_iter`` walks x's own cycle alone."""
    seen = [True] + [False] * (len(images) - 1)
    for start in range(1, len(images)):
        if seen[start]:
            continue
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        yield cycle


def _kernel(n: int) -> tuple[Callable, Callable, Callable]:
    """(view, after, invert): how padded columns of 0..n compose, chosen
    here and nowhere else.

    ``view(columns)`` gives the sources and the tables of columns padded
    as ``RackTable._right`` is.  For the source s of a column a and the
    table t of a column b, ``after(s)(t)`` is b∘a, padded: b[a[x]] over
    x, a sequence of ints equal to another such composition exactly when
    the two maps are equal.  ``invert(s)`` is the column's inverse as a
    padded tuple, or None when the column is not a bijection.

    Below 256 elements a source is the column as bytes and a table the
    same bytes padded with zeros to 256, so composing is one
    ``bytes.translate`` and inverting one ``bytes.maketrans``, each a C
    loop.  A byte holds no value above 255, so larger tables keep
    tuples: both forms are the column itself, composing is one call of
    an itemgetter built for it, and inverting is one pass that shares
    one int per element among all the inverse columns.  ``after`` stays a
    callable, not part of the view: ``iso._is_morphism`` composes with a
    bijection that is no table's column.
    """
    if n < _BYTE_LIMIT:
        return _bytes_view, _TRANSLATE, _bytes_inverse
    ids = list(range(n + 1))

    def invert(column):
        inverse = [None] * (n + 1)
        for x, p in zip(ids, column):
            inverse[p] = x
        return None if None in inverse else tuple(inverse)

    return (lambda columns: (columns, columns)), (
        lambda column: itemgetter(*column)), invert


_IDENTITY = bytes(range(256))
_TRANSLATE = attrgetter("translate")


def _bytes_view(columns: Sequence[Sequence[int]]) -> tuple[tuple, tuple]:
    """``_kernel``'s view below 256 elements: the columns as bytes, and
    as bytes padded with zeros to a translation table's 256."""
    sources = (None, *map(bytes, columns[1:]))
    return sources, (None, *map(bytes.ljust, sources[1:], repeat(256),
                                repeat(b"\0")))


def _bytes_inverse(source: bytes) -> tuple[int, ...] | None:
    """``_kernel``'s invert below 256 elements.  ``bytes.maketrans``
    keeps the last of two x that a column sends to one place, so
    translating the column back gives the identity exactly when the
    column is a bijection."""
    ident = _IDENTITY[:len(source)]
    inverse = bytes.maketrans(source, ident)
    if source.translate(inverse) == ident:
        return tuple(inverse[:len(source)])
    return None


def _compositions(table: "RackTable") -> tuple[tuple, list]:
    """(tables, after) for a table's columns C[y]: ``after[y](tables[t])``
    is C[t]∘C[y], padded, one C call through ``_kernel`` on the view
    ``RackTable._view``.  The axiom pass and the medial test compose
    through this."""
    _, after_of, _ = _kernel(table.n)
    sources, tables = table._view
    return tables, [None, *map(after_of, sources[1:])]


class _cached:
    """``functools.cached_property`` without its lock, as Python 3.12 has
    it: the first read stores the value in the instance's ``__dict__``,
    where every later read finds it before this non-data descriptor.
    Before 3.12 every first read took a lock shared by all instances,
    which made it cost about three times as much.  A record's copies and
    pickles leave these values behind (see ``_record``)."""

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: object, owner: type | None = None) -> object:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _frozen(self, name: str, *value: object) -> None:
    raise AttributeError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record(cls: type) -> type:
    """cls as a frozen record of its annotated fields, in order, as
    ``@dataclass(frozen=True)`` makes it, without importing dataclasses.

    Defaults are the class attributes, and ``__post_init__`` runs after
    ``__init__``.  Equality, hashing and repr read the tuple of the fields
    but those named in cls's ``_hidden``.  A copy or pickle holds the
    fields alone, never a cached view: loading puts them back without
    ``__post_init__``, as ``_trusted_table`` builds, since they passed it
    when the record was made, and ``copy.deepcopy`` copies only them.
    """
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    shown = [n for n in names if n not in vars(cls).get("_hidden", ())]
    get = attrgetter(*shown)  # a tuple unless there is one shown field
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                    or given.keys() != set(names)):
                raise TypeError(f"{cls.__qualname__}() takes {names}; got "
                                f"{len(args)} positional and {tuple(kwargs)}")
            args = map(given.__getitem__, names)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return (get(self) == get(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = ((lambda self: hash((get(self),))) if len(shown) == 1
                    else lambda self: hash(get(self)))
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__getstate__ = lambda self: {name: vars(self)[name] for name in names}
    return cls


@_record
class Permutation:
    """Bijection on {1..n}; ``images[i-1]`` is the image of i.  Any bad
    input, an argument of another size too, raises ValueError."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            images = tuple(map(index, self.images))
        except TypeError:
            raise ValueError(f"non-integer image in {self.images}") from None
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("permutation must act on at least one point")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls.from_cycles(n, ())

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        n = _as_int(n, "size")
        images = list(range(1, n + 1))
        for cycle in cycles:
            cycle = [_in_range(a, n, "point") for a in cycle]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[_in_range(x, self.n, "point") - 1]

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return Permutation(tuple(images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: ``self.compose(other)(x) == self(other(x))``."""
        if not isinstance(other, Permutation):
            raise ValueError(
                f"cannot compose with {other!r}: not a Permutation")
        if other.n != self.n:
            raise ValueError(f"cannot compose on {self.n} and {other.n} points")
        return Permutation(tuple(self.images[y - 1] for y in other.images))

    def power(self, k: int) -> "Permutation":
        """The k-th power for any integer k, in O(n): each cycle is rotated."""
        k = _as_int(k, "exponent")
        images = [0] * self.n
        for cycle in self.cycles:
            shift = k % len(cycle)
            for x, y in zip(cycle, cycle[shift:] + cycle[:shift]):
                images[x - 1] = y
        return Permutation(tuple(images))

    def conjugated_by(self, tau: "Permutation") -> "Permutation":
        """tau ∘ self ∘ tau⁻¹: the same permutation on relabeled points."""
        if not isinstance(tau, Permutation):
            raise ValueError(f"cannot conjugate by {tau!r}: not a Permutation")
        return tau.compose(self.compose(tau.inverse()))

    @_cached
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles including fixed points, each starting at its least element."""
        return tuple(map(tuple, _cycles((0, *self.images))))

    @_cached
    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, largest first; a partition of n."""
        return tuple(sorted((len(c) for c in self.cycles), reverse=True))

    @_cached
    def order(self) -> int:
        return math.lcm(*self.cycle_type)

    @property
    def fixed_count(self) -> int:
        return sum(1 for x, y in enumerate(self.images, start=1) if x == y)

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images, start=1))


@_record
class AxiomViolation:
    """Concrete witness against one rack axiom.

    axiom "bijectivity": witness (x1, x2, y) with x1 != x2 and x1▷y == x2▷y.
    axiom "distributivity": witness (x, y, z) with (x▷y)▷z != (x▷z)▷(y▷z).
    """

    axiom: str
    witness: tuple[int, int, int]


_SHOWN = 10  # witnesses a report keeps at hand; the most any reader shows


@_record
class PropertyReport:
    """Property flags and the witnesses against the rack axioms.

    A bad table of size n has up to about n³ witnesses, so a report holds
    their number, ``violation_count``, and the first ten of them,
    ``first_violations``.  Equality, hashing and repr read only the
    flags, the count and those ten.  The full ``axiom_violations`` tuple,
    in the same order, is listed from the analysed ``table`` when it is
    first read, and kept; copies and pickles hold the fields alone (see
    ``_record``), so they stay O(n²) after a read as well.
    """

    is_rack: bool
    is_quandle: bool
    is_crossed_set: bool
    is_abelian: bool
    is_latin: bool
    violation_count: int = 0
    first_violations: tuple[AxiomViolation, ...] = ()
    table: RackTable | None = None
    _hidden = ("table",)  # kept, but not compared, hashed or shown

    @_cached
    def axiom_violations(self) -> tuple[AxiomViolation, ...]:
        """Every witness: the bijectivity ones, then distributivity's in
        (x, y, z) order; a report that shows fewer than it counts lists
        them from its table by the axiom pass alone."""
        if self.violation_count == len(self.first_violations):
            return self.first_violations
        if self.table is None:
            raise RackError("a report without its table has only its "
                            "first_violations")
        return _axiom_pass(self.table, None)[1]


@_record
class RackTable:
    """Operation table on {1..n}; ``entries[x-1][y-1]`` is x ▷ y.

    Construction checks only shape and entry range, never the rack axioms;
    use validate_rack for those.  Apart from ``op``, the library reads
    products through the padded column views ``_right`` and ``_left``.
    Beside ``entries`` a table holds only the ``_cached`` values named
    below: views, each O(n²), and two records that ``poly`` fills in place.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(map(index, row)) for row in self.entries)
        except TypeError:
            for row in self.entries:
                for v in row:
                    if not hasattr(type(v), "__index__"):
                        raise TableFormatError(
                            f"non-integer entry {v!r}") from None
            raise
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise TableFormatError("empty table")
        for row in rows:
            if len(row) != n:
                raise TableFormatError(
                    f"expected an {n}x{n} table, got a row of length {len(row)}")
            if min(row) < 1 or max(row) > n:
                v = next(v for v in row if not 1 <= v <= n)
                raise TableFormatError(f"entry {v} out of range 1..{n}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def _elements(self, values: Iterable[int]) -> list[int]:
        """The values as ints, deduplicated and sorted; a non-integer or the
        least value out of range raises.  Only the least and the greatest
        value are range-checked, and the input is read once more, element
        by element, only to name what is wrong."""
        values = list(values)  # an iterator too can be read again
        try:
            elems = sorted(set(map(index, values)))
        except TypeError:
            for v in values:
                _as_int(v)  # raises, naming the first non-integer
            raise
        if elems and (elems[0] < 1 or elems[-1] > self.n):
            for v in elems:
                _in_range(v, self.n)  # raises at the least out of range
        return elems

    def op(self, x: int, y: int) -> int:
        _in_range(x, self.n)
        _in_range(y, self.n)
        return self.entries[x - 1][y - 1]

    def op_inv(self, x: int, y: int) -> int:
        """The unique z with z ▷ y = x."""
        _in_range(x, self.n)
        _in_range(y, self.n)
        return self._left[y][x]

    @_cached
    def columns(self) -> tuple[Permutation, ...]:
        """Column actions x ↦ x ▷ y, one per y; requires bijective columns."""
        return tuple(map(self.column, self.elements))

    def column(self, y: int) -> Permutation:
        """The action x ↦ x ▷ y; only this column must be bijective."""
        _in_range(y, self.n)
        try:
            return Permutation(self._right[y][1:])
        except ValueError as exc:
            raise NotARackError(f"column is not a bijection: {exc}") from None

    @_cached
    def _right(self) -> tuple[tuple[int, ...], ...]:
        """The columns: ``_right[y][x]`` is x ▷ y.

        This and ``_left`` are padded so that an element is its own
        index: slot 0 of the outer tuple is unused, and slot 0 of each
        column holds 0.  So a column of a rack is a permutation of 0..n
        that fixes 0, and composing two of them, one C call on ``_view``
        (see ``_kernel``), gives another padded column.  ``zip`` builds
        every padded column in one call.
        """
        return (None, *zip(repeat(0), *self.entries))

    @_cached
    def _view(self) -> tuple[tuple, tuple]:
        """(sources, tables): each column of ``_right`` in the two forms
        that ``_kernel`` composes, padded as ``_right`` is, so that
        ``after(sources[y])(tables[t])`` is C[t]∘C[y].  Below 256
        elements these are bytes, built once per table, by the axiom pass
        (``_axiom_pass``), which reads them first; above, both are the
        ``_right`` tuples themselves.  ``_right`` stays the tuple view
        that every other reader indexes."""
        view, _, _ = _kernel(self.n)
        return view(self._right)

    @_cached
    def _left(self) -> tuple[tuple[int, ...], ...]:
        """The inverse columns, padded as ``_right`` is: ``_left[y][x]``
        is the z with z ▷ y = x.  Every column must be a bijection; the
        first that is not raises NotARackError.

        Each column is inverted once, by ``_kernel``'s ``invert``: one
        ``bytes.maketrans`` below 256 elements, one pass that shares one
        int per element above.  Either way a column that is not a
        bijection gives None.
        """
        _, _, invert = _kernel(self.n)
        sources, _ = self._view
        left = (None, *map(invert, sources[1:]))
        if None in left[1:]:
            self.column(left.index(None, 1))  # raises, naming its images
        return left

    @_cached
    def _cycle_lengths(self) -> tuple[tuple, tuple]:
        """(by_column, by_row): a rack's column cycle facts, one entry per
        orbit O_i of the inner group Inn(X), in the order of ``_inner``.

        For y in O_i, ``by_column[i]`` counts the x by the length
        len_y(x) of x's cycle under the column of y, and for x in O_i,
        ``by_row[i]`` counts the y by that same length, each as (cycle
        length, multiplicity) pairs sorted by length.  x ▷ y ... ▷ y (d
        copies) = x exactly when the length divides d, so every
        fixed-point count at every depth is a sum over a row's or a
        column's distinct lengths.  The table must be a rack.

        Both are constant on each orbit, so one entry serves its members.
        Every φ in Inn(X) is an automorphism, so C[φy] = φ C[y] φ⁻¹ (and
        C[y▷z] = C[z] C[y] C[z]⁻¹ in particular): the columns of one orbit
        are conjugate and share their lengths.  And φ carries x's cycle
        under C[y] onto φx's cycle under C[φy], so len_{φy}(φx) =
        len_y(x): φ maps the pairs (x, ·) onto the pairs (φx, ·) with their
        lengths, and a row's lengths are constant on an orbit as well.  So
        ``by_row[i]`` is the mean of O_i's rows.  Their sum over the y of
        the orbit O_j with representative s_j takes each y = φ(s_j), with
        φ permuting O_i, to |O_j| copies of s_j's column over O_i, so
        ``by_row[i](k)`` = Σ_j |O_j|·#{x ∈ O_i : len_{s_j}(x) = k} / |O_i|,
        and the division is exact.  Each cycle of C[s_j] lies in one
        orbit, as C[s_j] is in Inn(X), so a cycle adds to one orbit's
        counts.  Representatives with equal columns have equal lengths, so
        ``_cycles`` walks each distinct representative column once, with
        the summed weight Σ|O_j| of the orbits it stands for: O(d·n) steps
        for d distinct columns among r ≤ n representatives.  A trivial
        rack or a constant action has one column, however many orbits it
        has.

        These are the table's only column cycle facts.  Their readers:
        the fix counts (``poly._lengths``), whose per-orbit profiles give
        ``iso.rp_family_scan`` its periods and depth-class lengths too,
        the column period (``column_order_lcm``) and the per-orbit
        profiles of the isomorphism search (``iso._invariant_keys``).
        """
        orbits, which, sizes, _ = self._inner
        # the orbits whose representatives share each distinct column
        sharing: dict[tuple[int, ...], list[int]] = {}
        for i, orbit in enumerate(orbits):
            sharing.setdefault(self._right[orbit[0]], []).append(i)
        # rows[i][k] = Σ_j |O_j|·#{x ∈ O_i : len_{s_j}(x) = k}
        rows: list[dict[int, int]] = [{} for _ in orbits]
        by_column: list = [None] * len(orbits)
        for column, group in sharing.items():
            weight = sum(sizes[i] for i in group)
            counts: dict[int, int] = {}
            for cycle in _cycles(column):
                k = len(cycle)
                counts[k] = counts.get(k, 0) + k
                row = rows[which[cycle[0]]]  # a cycle lies in one orbit
                row[k] = row.get(k, 0) + weight * k
            pairs = tuple(sorted(counts.items()))
            for i in group:
                by_column[i] = pairs
        return tuple(by_column), tuple(
            tuple(sorted((k, m // size) for k, m in row.items()))
            for row, size in zip(rows, sizes))

    @_cached
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self._right[x][x] for x in self.elements)

    @_cached
    def _diagonal_orbits(self) -> tuple[int, tuple[tuple[int, ...], ...],
                                        tuple[int, ...]]:
        """(N, orbit, step) for the diagonal map π(x) = x ▷ x of a rack.

        N is the order of π, the lcm of its cycle lengths.  ``orbit[x]``
        is x's π-orbit as a sorted tuple shared by its members and
        ``step[x]`` is x's position along that cycle (index 0 unused in
        both).  Requires a rack, in which π is a bijection: for z ◁ z =
        C[z]⁻¹(z), (z ◁ z) ▷ z = z, so distributivity gives C[z ◁ z] =
        C[z], and π(z ◁ z) = (z ◁ z) ▷ z = z.  So one walk of the padded
        diagonal finds the cycles, and no ``Permutation`` is built.
        """
        self.require_rack()
        orbit: list[tuple[int, ...]] = [()] * (self.n + 1)
        step = [0] * (self.n + 1)
        lengths = set()
        for cycle in _cycles((0, *self.diagonal)):
            members = tuple(sorted(cycle))
            lengths.add(len(cycle))
            for i, x in enumerate(cycle):
                orbit[x] = members
                step[x] = i
        return math.lcm(*lengths), tuple(orbit), tuple(step)

    @_cached
    def _diagonal_perm(self) -> Permutation:
        """π as a ``Permutation``, built when ``diagonal_perm`` first asks."""
        self.require_rack()
        return Permutation(self.diagonal)

    @_cached
    def _inner(self) -> tuple[tuple, tuple, tuple, tuple]:
        """(orbits, which, sizes, generators): the inner group
        Inn(X) = ⟨C[y]⟩ of a rack, whose elements are automorphisms.

        ``orbits`` are its orbits, each led by its least element, the
        representative, in order of those (see ``_orbits``); ``which[x]``
        is the index of x's orbit (index 0 unused, as in ``_right``) and
        ``sizes[i]`` is the size of orbit i.  ``generators`` are the
        greedy ▷-generators whose columns generate Inn(X) (see
        ``_generators``).  It is the third item of ``_axioms``: the axiom
        pass checks those generators and walks the orbits with their
        columns, so reading this first runs the pass, through
        ``require_rack``, which raises here for a non-rack.  It never
        builds the report.
        """
        self.require_rack()
        return self._axioms[2]

    @_cached
    def _axioms(self) -> tuple[int, tuple[AxiomViolation, ...],
                               tuple[tuple, tuple, tuple, tuple] | None]:
        """(violation count, first ten witnesses, Inn(X)) of the axiom
        pass, the table's one run of it; a count of 0 means a rack, and
        Inn(X) is None on a non-rack (see ``_inner``).  Read by
        ``require_rack``, so by every entry point that needs a rack, and
        by ``_analyze``, which adds the property flags."""
        return _axiom_pass(self)

    @_cached
    def report(self) -> PropertyReport:
        """The axioms and the property flags, built by ``_analyze`` when
        first read; only the callers that show or return the flags
        (``validate_rack``, ``properties_report``, the command line's
        check and props, and its message on a non-rack) read it."""
        return _analyze(self)

    @_cached
    def _pair_memo(self) -> list:
        """[key, pairs, polys] of ``poly._orbit_pairs``: O(r) for r orbits."""
        return [None, (), {}]

    @_cached
    def _listing(self) -> list:
        """[subracks, names, place] of ``poly.enumerate_subracks``'s last
        answer: the answer's size."""
        return [(), (), 0]

    def require_rack(self) -> None:
        """Raise NotARackError, naming the first three witnesses, unless
        the table is a rack.  It reads the axiom pass only, never the
        report."""
        count, witnesses, _ = self._axioms
        if not count:
            return
        shown = [f"{v.axiom} fails at {v.witness}" for v in witnesses[:3]]
        more = count - 3
        if more > 0:
            shown.append(f"and {more} more violations")
        raise NotARackError("not a rack: " + "; ".join(shown))

    def _first_escape(self, elems: Sequence[int]) -> tuple[int, int, int] | None:
        """First product (x, y, x▷y) with x, y in elems but x▷y outside.

        Pairs are taken in the order of elems, x before y, so sorted elems
        give the first escape in sorted order; None means elems is closed.
        The elements must already be checked to lie in range.  The scan
        stops at the first escape, after at most |S|² set lookups.
        """
        cols = self._right
        inside = set(elems)
        return next(((x, y, cols[y][x]) for x in elems for y in elems
                     if cols[y][x] not in inside), None)

    def _subrack(self, values: Iterable[int], prefix: str) -> list[int]:
        """The values as ``_elements`` gives them, once they are nonempty
        and ▷-closed: else a RackError, "subset is empty", or prefix
        before the first escape (``_first_escape``)."""
        elems = self._elements(values)
        if not elems:
            raise RackError("subset is empty")
        escape = self._first_escape(elems)
        if escape is not None:
            raise RackError(
                "{}: {}▷{}={} escapes the subset".format(prefix, *escape))
        return elems

    def subtable(self, elements: Iterable[int]) -> "RackTable":
        """Restriction to a nonempty ▷-closed subset, relabeled 1..k in
        sorted order; ``_subrack`` checks it before any table exists."""
        elems = self._subrack(elements, "not closed")
        index = {v: i + 1 for i, v in enumerate(elems)}
        cols = self._right
        # elems is closed, so every product is a key of index, whose
        # values are the ints 1..k
        return _trusted_table(tuple(tuple(index[cols[y][x]] for y in elems)
                                    for x in elems))

    def to_text(self) -> str:
        return "".join(_text_lines(self.n, self.entries))


def _text_lines(n: int, rows: Iterable[Iterable[int]]) -> Iterator[str]:
    """The plain text format line by line, each ending in a newline: n,
    then each row's entries joined by spaces.  The format's one writer,
    for whole tables and for rows streamed as they are made."""
    yield f"{n}\n"
    for row in rows:
        yield " ".join(map(str, row)) + "\n"


def _walk(mask: int, reached: list[int], columns: Iterable[Sequence[int]],
          i: int = 0, stop: int = 0) -> int:
    """Grow a subset mask (bit v for element v) by moving each member from
    ``reached[i]`` on with every padded ``_right`` column in ``columns``.

    Each element that joins the mask is appended to ``reached`` and moved
    in turn.  Returns the grown mask, or -1 as soon as a point of the
    mask ``stop`` would join, with ``reached`` cut short there.  This is
    the package's one ▷-closure; only ``poly.enumerate_subracks``'s
    growth walks pass a ``stop``.

    When every column C[s], s ∈ S, is an automorphism, as in a rack, the
    ▷-closure of S is the union of the orbits of S under the group G
    those columns generate.  That union is closed: each g in G is an
    automorphism, so g∘C[s] = C[g(s)]∘g, and the column of y = g(s) is
    g C[s] g⁻¹, which lies in G and so keeps x ▷ y = C[y](x) in the
    union.  And the closure holds the union: it is closed under each
    C[s], as x ▷ s = C[s](x), and on a finite set each C[s]⁻¹ is a power
    of C[s].  So with ``reached`` listing S, ``mask`` holding it and
    ``columns`` its own columns, the walk from 0 closes S in O(|S|·k)
    lookups for a closure of size k, where multiplying every pair of its
    elements takes O(k²).
    """
    while i < len(reached):
        x = reached[i]
        for col in columns:
            p = col[x]
            if not mask >> p & 1:
                if stop >> p & 1:
                    return -1
                mask |= 1 << p
                reached.append(p)
        i += 1
    return mask


def _generators(table: RackTable, elements: Iterable[int],
                check: Callable[[int], bool]) -> tuple[list[int], list[int]]:
    """Greedy ▷-generators of ``elements``: each z of them, in increasing
    order, outside the ▷-closure of the ones before it, whose column
    differs from every generator's so far and passes ``check``.  Returns
    them and that closure of the elements that passed, as a list of its
    members in the order the walk reached them.

    The closure grows by ``_walk``'s orbit walks, which is exact when the
    generators' columns are automorphisms (see ``_walk``): a new
    generator's column moves every member reached so far, and every
    generator's column moves z and the members it brings.  A z whose
    column equals a generator's brings no new column, only its own orbit.
    That is O(g·k) lookups for g generators and a closure of k elements.
    In a rack nothing fails a check, and the generators' columns generate
    the group that all of the elements' columns generate, since
    C[x▷y] = C[y]C[x]C[y]⁻¹; from every element of X, that is Inn(X).
    """
    cols = table._right
    generators: list[int] = []
    passed: set[tuple[int, ...]] = set()  # the generators' distinct columns
    closed = 0  # the closure so far, as a mask over 1..n
    reached: list[int] = []  # and as a list, in the order reached
    for z in elements:
        if closed >> z & 1:
            continue
        cz = cols[z]
        old = len(reached)
        new = cz not in passed
        if new:
            if not check(z):
                continue
            generators.append(z)
            passed.add(cz)
        closed |= 1 << z
        reached.append(z)
        # the members before old have met every passed column but a new
        # one; z and the members it brings meet them all
        if new:
            closed = _walk(closed, reached, (cz,))
        closed = _walk(closed, reached, passed, old)
    return generators, reached


def _orbits(n: int, columns: Sequence[Sequence[int]]
            ) -> Iterator[tuple[int, list[int]]]:
    """(mask, members) for each orbit on 1..n of the group the padded
    ``_right`` columns generate, in order of least elements: the
    package's one orbit walk, O(g·n) lookups by ``_walk`` for g columns.
    For a rack's greedy ▷-generators the group is Inn(X) = ⟨C[y]⟩.

    The members lead with the least element, the representative, and
    list the rest in walk order; the mask has bit v for each member v.
    """
    walked = 1  # bit 0, which stands for no element, and every orbit so far
    full = (1 << n + 1) - 1
    while walked != full:
        low = ~walked & (walked + 1)  # the least element not walked yet
        members = [low.bit_length() - 1]
        grown = _walk(walked | low, members, columns)
        yield grown ^ walked, members
        walked = grown


def _after_representatives(orbits: Sequence[Sequence[int]]
                           ) -> Iterator[tuple[int, list[int]]]:
    """Each orbit's representative with the members listed after it:
    the rest of its own orbit and every later orbit."""
    members = [y for orbit in orbits for y in orbit]
    start = 0
    for orbit in orbits:
        yield orbit[0], members[start + 1:]
        start += len(orbit)


def _axiom_pass(table: RackTable, shown: int | None = _SHOWN
                ) -> tuple[int, tuple[AxiomViolation, ...],
                           tuple[tuple, tuple, tuple, tuple] | None]:
    """The rack axioms from the columns, in O(n²) memory: the number of
    witnesses, the first ``shown`` of them, with every witness for
    ``shown=None``, and Inn(X) as ``RackTable._inner`` reads it, or None
    on a non-rack.  It writes no slot of the table by name.

    ``RackTable._axioms`` runs this once per table, and ``require_rack``,
    ``_inner`` and ``_analyze`` read it from there; a report's
    ``axiom_violations`` runs it again with ``shown=None``.  So every
    entry point that needs a rack pays for the axioms and the orbits
    only, and the property flags wait until a report is read.

    Let C[y] be the column x ↦ x▷y, the padded tuple ``table._right[y]``.
    Composing two columns is one C call on ``RackTable._view``, which
    this pass builds (``_compositions``): one ``bytes.translate`` below
    256 elements, and one itemgetter call above.
    Self-distributivity (x▷y)▷z = (x▷z)▷(y▷z) says C[z]∘C[y] = C[y▷z]∘C[z]
    for every pair (y, z): n² compositions of length n.  Witnesses are
    counted, not built: a pair that differs adds the number of x where it
    differs to the count and is kept with its least such x only, since
    keeping every x would take O(n³) memory on a random table.  All
    witnesses of a pair are at least its least one, so the first ``shown``
    in (x, y, z) order lie in the ``shown`` pairs whose least x come
    first.  Only those pairs are composed again, and the first ``shown``
    of their witnesses are returned: a check that shows ten witnesses
    builds ten.  Bijectivity witnesses, at most n² of them, are listed as
    plain tuples and come first.

    Not every pair is composed.  A bijective column C[z] is an
    automorphism exactly when its pairs (y, z) agree, and if C[y] and
    C[z] are, then so is C[y▷z] = C[z]C[y]C[z]⁻¹.  So the loop skips each
    z in the ▷-closure of the columns that already passed: such a column
    has no witnesses, and the count and every witness list stay exact on
    any table.  Whether C[z] is an automorphism depends only on the
    permutation, since f(x▷y) = f(x)▷f(y) names no z, so a z whose column
    equals one that passed is skipped as well: it joins the closure but
    is not a generator.  ``_generators`` runs that loop, with the pair
    check as its ``check``, and grows the closure by orbit walks, since
    the passed columns are automorphisms: O(g·n) lookups in all, with g
    the number of generators.  Racks are generated by few elements
    (Joyce, "A classifying invariant of knots, the knot quandle", 1982):
    a rack with g greedy generators, the columns that are checked and
    pass, costs g·n pairs, O(g·n²) steps, plus those lookups.

    Bijectivity is tested only on the columns the loop composes, each
    just before its pairs.  While every one of them is a bijection, so is
    every column, and the skips above are sound.  Each z is composed,
    joins with a column equal to a passed one, which is a bijection, or
    is reached by a walk: p = x▷g = C[g](x) for a passed g and an x
    reached before p.  The pair (x, g) agrees, C[g]∘C[x] = C[p]∘C[g], so
    C[p] = C[g]C[x]C[g]⁻¹, a bijection when C[x] is, and by induction on
    the order of reach every reached column is one.  The first composed
    column that is not a bijection ends the skipping: every bijectivity
    witness is listed, every column not composed yet is composed, each
    once, and nothing passes after that.  So a table with a column that
    is not a bijection composes each of its n columns once, n² pairs, and
    any other non-rack pays for the columns it checks.

    The generators of a rack generate Inn(X), so ``_orbits`` finds its
    orbits in O(g·n) more lookups; the orbits, each element's orbit
    index, the orbit sizes and the generators are then returned as the
    third item, which ``RackTable._inner`` reads from ``_axioms``.
    """
    n = table.n
    cols = table._right
    ident = list(range(n + 1))
    bijectivity: list[tuple[int, int, int]] = []
    # after[y](tables[t]) is C[t]∘C[y], padded as C[y] is
    tables, after = _compositions(table)
    pairs = []  # (least x, y, z) for each pair that differs
    differing = 0  # their distributivity witnesses
    composed = [False] * (n + 1)

    def compose(z: int) -> bool:
        """Whether every pair (y, z) agrees; each one that does not is
        counted and kept in ``pairs``."""
        nonlocal differing
        composed[z] = True
        before = len(pairs)
        cz, tz, after_z = cols[z], tables[z], after[z]
        for y in table.elements:
            left = after[y](tz)
            right = after_z(tables[cz[y]])
            if left != right:
                differing += sum(map(ne, left, right))
                pairs.append(
                    (next(compress(ident, map(ne, left, right))), y, z))
        return len(pairs) == before

    def passes(z: int) -> bool:
        if bijectivity:  # every column is composed already
            return False
        # slot 0 holds 0 and every entry lies in 1..n, so a column is a
        # bijection when its n + 1 slots hold n + 1 distinct values
        if len(set(cols[z])) == n + 1:
            return compose(z)
        for y, col in enumerate(cols[1:], start=1):
            first: dict[int, int] = {}
            for x, k in enumerate(col):
                if k in first:
                    bijectivity.append((first[k], x, y))
                else:
                    first[k] = x
        for y in range(1, n + 1):
            if not composed[y]:
                compose(y)
        return False

    generators, _ = _generators(table, table.elements, passes)
    violation_count = len(bijectivity) + differing

    head = bijectivity[:shown]
    wanted = None if shown is None else shown - len(head)
    chosen = sorted(pairs)[:wanted] if wanted != 0 else []
    found = sorted((x, y, z) for _, y, z in chosen for x in compress(
        ident, map(ne, after[y](tables[z]), after[z](tables[cols[z][y]]))))
    witnesses = (*(AxiomViolation("bijectivity", w) for w in head),
                 *(AxiomViolation("distributivity", w)
                   for w in found[:wanted]))

    if violation_count:
        return violation_count, witnesses, None
    orbits = tuple(tuple(members) for _, members in _orbits(
        n, [cols[z] for z in generators]))
    which = [0] * (n + 1)
    for i, orbit in enumerate(orbits):
        for x in orbit:
            which[x] = i
    return violation_count, witnesses, (
        orbits, tuple(which), tuple(map(len, orbits)), tuple(generators))


def _analyze(table: RackTable) -> PropertyReport:
    """The full report, which ``RackTable.report`` builds here when it is
    first read; nothing else calls this.  The count and the witnesses are
    the axiom pass's, read from ``RackTable._axioms``, and on a rack so
    are the orbits and generators, its third item.  Only the four
    property flags are computed here, for the callers that read them
    (see ``RackTable.report``).

    Mediality (x▷y)▷(z▷w) = (x▷z)▷(y▷w) says C[z▷w]∘C[y] = C[y▷w]∘C[z]
    for all y, z and w.  Write R_y for C[y].  In a rack
    R_{y▷w} = R_w R_y R_w⁻¹, so at one w this holds iff the maps
    S_y = R_w⁻¹R_y commute pairwise.  One w is enough: R_{w'}⁻¹R_y =
    S_{w'}⁻¹S_y lies in the group G the S_y generate.  So the check takes
    w = 1 and compares C[z▷1]∘C[y] with C[y▷1]∘C[z] (y = z agrees, and
    swapping y and z swaps the sides), each side one C call on the view
    the axiom pass built (``_compositions``).  This is the rack form of
    "a quandle is medial iff its displacement group is abelian"
    (Jedlička, Pilitowska, Stanovský and Zamojska-Dzienio, J. Algebra
    2015).  The y with S_y central in G form a ▷-closed set:
    S_{a▷b} = S_b·R₁(S_a S_b⁻¹)R₁⁻¹, G is normal in the inner group and
    its center is characteristic.  S_y depends only on C[y], so that set
    is closed under equal columns as well, and the axiom pass reaches
    every element from the generators by those two moves.
    So only the pairs with a generator are compared: g·n of them at most,
    and all n(n-1)/2 only when the n columns are distinct generators.
    The first generator's pairs are not compared either.  It is 1, which
    the axiom pass checks first and a rack passes, and in a rack
    R_{1▷1} = R_1 (Fenn and Rourke, "Racks and links in codimension
    two", 1992), so its pair (y, 1) compares R_{1▷1}R_y = R_1R_y with
    R_{y▷1}R_1: the distributivity pair (y, 1), which that pass found
    equal.  So the generators from the second on are compared, half of
    the compositions on a rack with two, such as ``alexander(n, t)``.

    On a rack the Latin and crossed tests read one row per orbit of the
    inner group, from ``RackTable._inner``.  Each φ in Inn(X) is an
    automorphism, so the row of φ(x) is φ∘row_x∘φ⁻¹: it is a bijection
    iff x's row is, and the Latin test reads each representative's row.
    φ also keeps both sides of the crossed condition
    (x▷y = x) ⟺ (y▷x = y), so it holds at (x, y) iff at (φx, φy), and
    every pair has such an image (s, y') with s the representative of
    x's orbit.  The condition is symmetric, and holds at (s, s) in a
    quandle, so the pairs of two orbits are compared from the one that
    comes first: each representative s with the other members of its
    own orbit and those of every later one, r·n pairs at most for r
    orbits, and n(n-1)/2 when every orbit is one element, each unordered
    pair once.  A non-rack's orbits mean nothing, so there every element
    counts as its own orbit: all n rows are read, and no pair, as a
    non-rack is neither crossed nor abelian.
    """
    violation_count, witnesses, inner = table._axioms
    labels = list(range(1, table.n + 1))
    if violation_count:
        is_latin = all(sorted(row) == labels for row in table.entries)
        return PropertyReport(False, False, False, False, is_latin,
                              violation_count, witnesses, table)
    cols = table._right
    orbits, _, _, generators = inner
    is_quandle = list(table.diagonal) == labels
    is_latin = all(sorted(table.entries[orbit[0] - 1]) == labels
                   for orbit in orbits)
    is_crossed = is_quandle and all(
        (cols[y][x] == x) == (cols[x][y] == y)
        for x, later in _after_representatives(orbits) for y in later)

    # after[y](tables[t]) is C[t]∘C[y]; cols[1][y] is y▷1; a pair of two
    # generators is compared once, from its larger one, and the first
    # generator's pairs are the axiom pass's
    tables, after = _compositions(table)
    generator_set = set(generators)
    is_abelian = all(
        after[y](tables[cols[1][z]]) == after[z](tables[cols[1][y]])
        for z in generators[1:] for y in labels
        if y < z or y not in generator_set)

    return PropertyReport(True, is_quandle, is_crossed, is_abelian,
                          is_latin, violation_count, witnesses, table)


def _trusted_table(rows: tuple[tuple[int, ...], ...]) -> RackTable:
    """RackTable of an n×n tuple of int tuples with entries in 1..n, which
    the caller has proved; ``__post_init__``'s pass over the entries is
    skipped.  ``parse_rack_table`` builds non-racks here too, so the proof,
    like the checked twin in the tests, covers the entries, not the
    axioms."""
    table = object.__new__(RackTable)
    table.__dict__["entries"] = rows
    return table


def parse_rack_table(text: str) -> RackTable:
    """Read the plain text table format.

    First token is n, followed by n*n entries; blank lines and lines
    starting with ``#`` are ignored.

    The comment lines are dropped first; text without ``#`` has none and
    splits in one pass.  When the tokens are n·n + 1 in number, the
    first reads exactly ``str(n)`` and every entry is one of the strings
    ``str(1)``, ..., ``str(n)``, the table is read by one lookup per
    entry and built without a second check.  Anything else (a sign, a
    leading zero, 0, a value out of range, a non-integer, another count)
    takes the general path below, so results and errors are the same
    either way, and nothing of size n is built before the count is known.
    """
    if isinstance(text, str) and "#" not in text:
        tokens = text.split()
    else:
        tokens = []
        for line in text.splitlines():
            words = line.split()
            if words and not words[0].startswith("#"):
                tokens += words
    n = math.isqrt(len(tokens) - 1) if tokens else 0
    if n and len(tokens) == n * n + 1 and tokens[0] == str(n):
        lookup = {str(v): v for v in range(1, n + 1)}
        entries = map(lookup.__getitem__, islice(tokens, 1, None))
        try:
            return _trusted_table(tuple(zip(*[entries] * n)))
        except KeyError:
            pass
    if not tokens:
        raise TableFormatError("empty input")
    try:
        values = list(map(int, tokens))
    except ValueError:
        tok, digits = _refused(tokens)
        raise TableFormatError(
            f"integer token of {digits} digits is too long" if digits
            else f"non-integer token {tok!r}") from None
    n = values[0]
    if n < 1:
        raise TableFormatError(f"cardinality must be positive, got {n}")
    if len(values) != n * n + 1:
        raise TableFormatError(
            f"expected {n * n} entries for n={n}, got {len(values) - 1}")
    return RackTable(tuple(zip(*[islice(values, 1, None)] * n)))


def format_rack_table(table: RackTable) -> str:
    return table.to_text()


def validate_rack(table: RackTable) -> PropertyReport:
    """Full axiom and property analysis; never raises on bad tables."""
    return table.report


def properties_report(table: RackTable) -> PropertyReport:
    """Same flags as validate_rack but the table must be a rack."""
    table.require_rack()
    return table.report


def rack_op_iter(table: RackTable, x: int, y: int, i: int) -> int:
    """x ▷ y iterated i times on the right; negative i uses the dual operation.

    The iterate is i steps along x's cycle under y's column, so any
    integer i is accepted and costs one walk of that cycle.
    """
    table.require_rack()
    x = _in_range(x, table.n)
    _in_range(y, table.n)
    i = _as_int(i, "iteration count")
    col = table._right[y]
    cycle, p = [x], col[x]
    while p != x:
        cycle.append(p)
        p = col[p]
    return cycle[i % len(cycle)]


def dual(table: RackTable) -> RackTable:
    """The rack with every column action inverted."""
    table.require_rack()
    # each inverse column of a rack is a permutation of the ints 0..n
    # that fixes 0, so past the first row of the transpose, which is
    # their padding, every entry is an int in 1..n
    return _trusted_table(tuple(zip(*table._left[1:]))[1:])


def diagonal_perm(table: RackTable) -> Permutation:
    """The map x ↦ x ▷ x, which is a bijection for racks (checked)."""
    return table._diagonal_perm


def rack_rank(table: RackTable) -> int:
    """Order of the diagonal map; equals 1 exactly for quandles."""
    rank, _, _ = table._diagonal_orbits
    return rank


def column_order_lcm(table: RackTable) -> int:
    """lcm of the orders of all column actions; the period of iterated products."""
    table.require_rack()
    by_column, _ = table._cycle_lengths
    return math.lcm(*(k for pairs in by_column for k, _ in pairs))


def _normalize_partition(n: int,
                         partition: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    blocks = []
    seen: set[int] = set()
    for block in partition:
        b = tuple(sorted(set(map(_as_int, block))))
        if not b:
            raise RackError("partition has an empty block")
        for v in b:
            _in_range(v, n)
            if v in seen:
                raise RackError(f"element {v} appears in two blocks")
            seen.add(v)
        blocks.append(b)
    if len(seen) != n:
        raise RackError(f"partition does not cover 1..{n}")
    return tuple(sorted(blocks))


def quotient_by(table: RackTable,
                partition: Iterable[Iterable[int]]) -> RackTable:
    """Quotient by a congruence; classes are labeled 1..k by least member.

    Raises CongruenceError with a concrete witness when the partition does
    not respect the operation.  Checking the two one-variable conditions is
    enough: x~x' and y~y' chain through x▷y ~ x'▷y ~ x'▷y'.  Each member is
    compared with its block's least b: a pair (x, x') fails only if x or
    x' fails against b, so this finds the witness that checking every
    pair in lexicographic order finds first, among the pairs (b, x) that
    come first.  A singleton block has no pair, so only blocks of two or
    more are read: 2·n·m lookups for their m members, and k² more build
    the quotient of k blocks.  When every block is a singleton nothing is
    read: the blocks, sorted by least member, are {1}, ..., {n}, so class
    i is labelled i and [x]▷[y] = [x▷y] is x▷y.  The quotient's entries
    are then the table's own.

    The quotient of a rack by a congruence is a rack, so it is not checked
    again.  The two conditions make [x]▷[y] = [x▷y] well defined, so
    distributivity descends: ([x]▷[y])▷[z] = [(x▷y)▷z] = [(x▷z)▷(y▷z)] =
    ([x]▷[z])▷([y]▷[z]).  Each induced column [x] ↦ [x▷y] maps the k
    classes onto themselves, since C[y] is onto, so it is a bijection.
    """
    table.require_rack()
    blocks = _normalize_partition(table.n, partition)
    joined = [b for b in blocks if len(b) > 1]  # a singleton cannot fail
    if not joined:
        return _trusted_table(table.entries)
    cls = {x: i + 1 for i, block in enumerate(blocks) for x in block}
    cols = table._right
    for y in table.elements:
        col = cols[y]
        for x, *rest in joined:
            least = cls[col[x]]
            for x2 in rest:
                if cls[col[x2]] != least:
                    raise CongruenceError(x, x2, y, y, col[x], col[x2])
    for x in table.elements:
        for y, *rest in joined:
            least = cls[cols[y][x]]
            for y2 in rest:
                if cls[cols[y2][x]] != least:
                    raise CongruenceError(x, x, y, y2, cols[y][x], cols[y2][x])
    reps = [b[0] for b in blocks]
    # the k blocks cover 1..n, so every product is a key of cls, whose
    # values are the ints 1..k
    return _trusted_table(tuple(tuple(cls[cols[ry][rx]] for ry in reps)
                                for rx in reps))


def operator_equivalence_quotient(
        table: RackTable) -> tuple[tuple[tuple[int, ...], ...], RackTable, bool]:
    """Quotient by "acts identically": x ~ y when z ▷ x = z ▷ y for all z.

    Returns (partition, quotient, quotient_is_quandle).  The congruence
    property is checked by ``quotient_by``, not assumed, and the quotient
    is a rack (see there).  It is always a quandle, so the flag is always
    true.  Write R_y for the column z ↦ z ▷ y.  Distributivity,
    (z ▷ x) ▷ y = (z ▷ y) ▷ (x ▷ y), says R_{x ▷ y} = R_y∘R_x∘R_y⁻¹, so
    R_{x ▷ x} = R_x: x ▷ x and x share an operator class, and
    [x]▷[x] = [x ▷ x] = [x] for every class.
    """
    table.require_rack()
    groups: dict[tuple[int, ...], list[int]] = {}
    for y in table.elements:
        groups.setdefault(table._right[y], []).append(y)
    partition = tuple(sorted(tuple(g) for g in groups.values()))
    return partition, quotient_by(table, partition), True
