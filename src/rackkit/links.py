"""Oriented link diagrams, rack colorings, and framed counting invariants.

A diagram is a set of crossings over numbered arcs.  Arcs follow the usual
convention: a strand is cut at each undercrossing, so a crossing names the
arc passing over, the arc entering underneath, and the arc leaving
underneath.  A closed component that never passes under anything is a
single free arc.  A diagram is its crossings and its free arcs, nothing
else: a one-crossing curl is one arc that passes over and under itself.

The framed invariants count colorings over every kink vector k in
{0..N-1}^c, N being the order of π(x) = x ▷ x.  A positive kink on an arc
colored x yields π(x), and R_π(x) = R_x (Fenn and Rourke, "Racks and links
in codimension two", 1992), so k kinks at a component's anchor turn the
anchor's color x into π^k(x).  The diagram is therefore cut open once at
each anchor, and one search finds every coloring of every framing: a cut
coloring closes exactly under the k with π^k(x) = the color at the cut
end, one residue class modulo the length of x's π-orbit.  The cost is one
search instead of N^c.

That search does not try every color on its first arc either.  Every
column of a rack is an automorphism, so the inner group Inn(X) = ⟨C_y⟩
maps colorings to colorings (Joyce, "A classifying invariant of knots,
the knot quandle", 1982), keeps each end's residue class and carries a
coloring's image subrack S onto φS, in S's Inn-orbit Ω.  So the search
runs once per Inn-orbit, with the orbit's representative on the first
arc, and the representative's counts by Ω stand for its whole orbit:
the cost is one search per representative, not per color.
``enumerate_colorings`` lists every coloring and keeps the full search.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import (Callable, Hashable, Iterable, Iterator, Mapping,
                             Sequence)
from itertools import product

from . import _EXPORTS
from .core import RackTable, _cached, _cycles, _record
from .poly import (TwoVarPoly, _depths, _format_sum, _orbit_pairs, _spread,
                   _subset_poly, _weighted, closure)

__all__ = _EXPORTS["links"]


class DiagramError(ValueError):
    """Domain error raised by diagram operations."""


class DiagramFormatError(DiagramError):
    """Malformed diagram text."""


@_record
class Crossing:
    """One crossing: ``under_in`` passes under ``over`` and leaves as ``under_out``."""

    sign: int
    over: int
    under_in: int
    under_out: int

    def __post_init__(self) -> None:
        # an int, since True, 1.0 and -1.0 pass the membership test alone
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise DiagramError(f"sign must be 1 or -1, got {self.sign!r}")
        for name in ("over", "under_in", "under_out"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise DiagramError(f"{name} must be a positive integer, got {v!r}")


def _as_tuple(values: object, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise DiagramError(f"{name} must be iterable, got {values!r}") from None


@_record
class LinkDiagram:
    """Validated collection of crossings and free loops.

    Every arc that takes part in a strand (as an under-arc) must terminate
    exactly once and originate exactly once, so strands close up into
    loops.  Over references may point at strand arcs or at free arcs,
    nothing else.
    """

    crossings: tuple[Crossing, ...]
    free_arcs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        crossings = _as_tuple(self.crossings, "crossings")
        free = _as_tuple(self.free_arcs, "free_arcs")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_arcs", free)

        for cr in crossings:
            if not isinstance(cr, Crossing):
                raise DiagramError(f"crossings must be Crossing objects, got {cr!r}")
        # one set test proves a diagram valid: the under_in arcs and the
        # under_out arcs are one set, each arc once on each side; the free
        # arcs are positive, distinct ints apart from it; and every over
        # arc is in one of the two.  Only a diagram that fails it walks the
        # checks below, whose errors name the fault
        ins = [cr.under_in for cr in crossings]
        strand = set(ins)
        if (len(strand) == len(ins)
                and strand == {cr.under_out for cr in crossings}
                and all(type(a) is int and a > 0 for a in free)
                and len(known := strand.union(free)) == len(strand) + len(free)
                and known.issuperset([cr.over for cr in crossings])):
            return
        for a in free:
            if isinstance(a, bool) or not isinstance(a, int):
                raise DiagramError(f"free arc ids must be integers, got {a!r}")
            if a < 1:
                raise DiagramError(f"free arc ids must be positive, got {a}")
        if len(set(free)) != len(free):
            raise DiagramError("duplicate free arc")
        term = Counter(ins)
        orig = Counter(cr.under_out for cr in crossings)
        covered = set(term) | set(orig)
        for a in sorted(covered):
            t, o = term[a], orig[a]
            if t != 1 or o != 1:
                raise DiagramError(
                    f"arc {a} has {t} terminations and {o} originations; "
                    f"each strand arc needs exactly one of each")
        for a in free:
            if a in covered:
                raise DiagramError(f"free arc {a} appears in a crossing")
        known = covered | set(free)
        for cr in crossings:
            if cr.over not in known:
                raise DiagramError(f"unknown arc reference: {cr.over}")

    @_cached
    def arcs(self) -> tuple[int, ...]:
        # the over and under_out arcs of a valid diagram are among these
        return tuple(sorted({*self.free_arcs,
                             *(cr.under_in for cr in self.crossings)}))

    @_cached
    def _layout(self) -> tuple[dict[int, int], tuple[tuple[int, int, int, int], ...]]:
        """Each arc's position in ``arcs``, and every crossing as a step
        (sign, over, under_in, under_out) over those positions: the one
        place where arc ids become positions, for the strands, the cut and
        the coloring search."""
        position = {a: i for i, a in enumerate(self.arcs)}
        return position, tuple(
            (cr.sign, position[cr.over], position[cr.under_in],
             position[cr.under_out]) for cr in self.crossings)

    @_cached
    def _strands(self) -> tuple[list[int], ...]:
        """The cycles of under_in ↦ under_out on arc positions, padded for
        ``core._cycles`` (position p is p + 1 here), which walks them in
        the order of their least positions; a free arc is a fixed point.
        The one strand walk, for ``components`` and the cut."""
        _, steps = self._layout
        strand = list(range(len(self.arcs) + 1))
        for _, _, inn, out in steps:
            strand[inn + 1] = out + 1
        return tuple(_cycles(strand))

    @_cached
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Arcs grouped by strand, each group sorted, groups ordered by least arc."""
        return tuple(tuple(self.arcs[p - 1] for p in sorted(cycle))
                     for cycle in self._strands)


_FIELDS = ("sign", "over", "under_in", "under_out")
_KEYS = frozenset(_FIELDS)


def parse_diagram(text: str) -> LinkDiagram:
    """Read a diagram from JSON with keys ``crossings`` and ``free_arcs``.

    Each crossing's keys and values are read once: four ints, a sign of
    1 or -1 and positive arcs make a ``Crossing`` without its checks, and
    a crossing that fails them is passed to the checked constructor,
    whose error names it.  ``LinkDiagram`` then checks the arcs, so the
    messages are those of the checked path, in its order.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(f"invalid JSON: {exc}") from None
    except ValueError:
        # an integer past the interpreter's digit limit: read it again
        def integer(token: str) -> int:
            try:
                return int(token)
            except ValueError:
                raise DiagramFormatError(
                    f"invalid JSON: integer of {len(token.lstrip('-'))} "
                    "digits is too long") from None

        data = json.loads(text, parse_int=integer)
    except RecursionError:
        raise DiagramFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise DiagramFormatError("top level must be an object")
    extra = set(data) - {"crossings", "free_arcs"}
    if extra:
        raise DiagramFormatError(f"unknown keys: {sorted(extra)}")
    raw_crossings = data.get("crossings", [])
    if not isinstance(raw_crossings, list):
        raise DiagramFormatError("crossings must be a list")
    crossings = []
    for i, obj in enumerate(raw_crossings):
        if not isinstance(obj, dict):
            raise DiagramFormatError(f"crossing {i} must be an object")
        if obj.keys() != _KEYS:
            raise DiagramFormatError(
                f"crossing {i} must have exactly the keys "
                f"sign, over, under_in, under_out")
        sign, over, inn, out = row = (obj["sign"], obj["over"],
                                      obj["under_in"], obj["under_out"])
        # JSON gives exact types, so this rules out bools and floats
        if (type(sign) is type(over) is type(inn) is type(out) is int
                and sign in (1, -1) and over > 0 and inn > 0 and out > 0):
            cr = object.__new__(Crossing)
            vars(cr).update(sign=sign, over=over, under_in=inn, under_out=out)
        else:
            for key, v in zip(_FIELDS, row):
                if type(v) is not int:
                    raise DiagramFormatError(
                        f"crossing {i}: {key} must be an integer")
            cr = Crossing(*row)  # raises, naming the bad value
        crossings.append(cr)
    raw_free = data.get("free_arcs", [])
    if not isinstance(raw_free, list):
        raise DiagramFormatError("free_arcs must be a list")
    for v in raw_free:
        if type(v) is not int:
            raise DiagramFormatError(f"free_arcs entry {v!r} must be an integer")
    return LinkDiagram(tuple(crossings), tuple(raw_free))


def components_and_writhe(
        diagram: LinkDiagram) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Components plus each component's self-writhe.

    A crossing counts toward the self-writhe only when its over arc and its
    under arcs belong to the same component (see ``_cut``).
    """
    *_, writhes = _cut(diagram)
    return diagram.components, tuple(writhes)


def add_kinks(diagram: LinkDiagram, counts: Iterable[int]) -> LinkDiagram:
    """Insert positive twists, counts[i] of them on the i-th component.

    Each twist is anchored at the component's least arc: the anchor now
    passes under itself first and continues as a fresh arc, and whatever
    used to consume the anchor consumes the fresh arc instead.  A free
    loop has no consumer, so its first twist is the one-arc curl
    Crossing(1, a, a, a), which consumes the anchor from then on.
    """
    comps = diagram.components
    counts = _as_tuple(counts, "kink counts")
    if len(counts) != len(comps):
        raise DiagramError(
            f"expected {len(comps)} kink counts, got {len(counts)}")
    for k in counts:
        if isinstance(k, bool) or not isinstance(k, int):
            raise DiagramError(f"kink count must be an integer, got {k!r}")
        if k < 0:
            raise DiagramError(f"kink count must be nonnegative, got {k}")
    crossings = list(diagram.crossings)
    free = set(diagram.free_arcs)
    next_arc = max(diagram.arcs, default=0) + 1
    # each arc's consumer, the crossing it is the under_in of (under_in
    # arcs are distinct); a kink's own crossing consumes the anchor next
    consumer = {cr.under_in: idx for idx, cr in enumerate(crossings)}
    for comp, k in zip(comps, counts):
        anchor = comp[0]
        for _ in range(k):
            idx = consumer.get(anchor)
            if idx is None:
                free.discard(anchor)
                crossings.append(Crossing(1, anchor, anchor, anchor))
            else:
                cr = crossings[idx]
                crossings[idx] = Crossing(cr.sign, cr.over, next_arc,
                                          cr.under_out)
                crossings.append(Crossing(1, anchor, anchor, next_arc))
                next_arc += 1
            consumer[anchor] = len(crossings) - 1
    return LinkDiagram(tuple(crossings), tuple(sorted(free)))


def _cut(diagram: LinkDiagram) -> tuple[
        int, list[tuple[int, int, int, int]], list[tuple[int, int]], list[int]]:
    """The diagram's position layout, cut open at each anchor, with each
    component's self-writhe.

    The steps are the layout's and the components the diagram's strands
    (``LinkDiagram._strands``).  A component's anchor is its least arc a.
    Cutting hands the anchor's consumer, the step whose under_in is a, a
    fresh position v in place of a: the arc that add_kinks would feed with
    the kinked color π^k(a).  A free loop has no consumer and keeps v = a.
    A step adds its sign to its under arcs' component's self-writhe when
    its over arc lies in that component too.  Returns the number of
    positions (fresh ones last), the steps, and the (a, v) positions and
    the writhe of each component, in component order.
    """
    position, steps = diagram._layout
    steps = list(steps)
    size = len(position)
    consumer = [-1] * size
    for k, step in enumerate(steps):
        consumer[step[2]] = k
    which = [0] * size
    ends = []
    for c, cycle in enumerate(diagram._strands):
        for p in cycle:
            which[p - 1] = c
        a = v = cycle[0] - 1
        k = consumer[a]
        if k >= 0:
            sign, over, _, out = steps[k]
            steps[k] = (sign, over, size, out)
            v = size
            size += 1
        ends.append((a, v))
    writhes = [0] * len(ends)
    # under_out, never cut, is in its step's under arcs' component
    for sign, over, _, out in steps:
        if which[over] == which[out]:
            writhes[which[out]] += sign
    return size, steps, ends, writhes


def _schedule(size: int, steps: Sequence[tuple[int, int, int, int]],
              ends: Sequence[tuple[int, int]], table: RackTable
              ) -> list[tuple[int, list[tuple], list[tuple], list[tuple]]]:
    """The levels of the coloring search, laid out once before it starts.

    Static forward checking (Haralick and Elliott, "Increasing tree search
    efficiency for constraint satisfaction problems", AIJ 1980): whether a
    step decides an arc depends only on which of its arcs are colored,
    never on their colors, since once over and one under arc are known the
    other under arc is one table lookup, under_in ▷ over or its inverse.
    So one pass over the arcs, with each arc's steps at hand, lays out the
    levels in O(arcs + steps).  A level branches on the first arc that
    earlier levels leave uncolored and lists:

    - the arcs that its color decides, each as a lookup that reads only
      arcs colored before it;
    - the steps that it colors fully without deciding an arc, to check;
    - the ends whose second arc it colors, to check for one π-orbit.

    A lookup or a step check (t, o, s, view) is
    col[t] = view[col[o]][col[s]]: target, over arc, source under arc and
    the table's ``_right`` or ``_left``, which colors index directly.
    Every step is looked up or checked at the level that colors its last
    arc, and every end at the level that colors its second arc.
    """
    views = {1: (table._right, table._left), -1: (table._left, table._right)}
    at_arc: list[list[int]] = [[] for _ in range(size)]
    for k, (_, over, inn, out) in enumerate(steps):
        for i in {over, inn, out}:
            at_arc[i].append(k)
    partner = [-1] * size
    for a, v in ends:
        if a != v:
            partner[a], partner[v] = v, a
    colored = [False] * size
    settled = [False] * len(steps)
    levels = []
    cursor = 0
    while True:
        while cursor < size and colored[cursor]:
            cursor += 1
        if cursor == size:
            return levels
        forced: list[tuple] = []
        checks: list[tuple] = []
        pairs: list[tuple] = []
        levels.append((cursor, forced, checks, pairs))
        colored[cursor] = True
        queue = [cursor]
        while queue:
            i = queue.pop()
            p = partner[i]
            if p >= 0 and colored[p]:
                pairs.append((p, i))
                partner[p] = partner[i] = -1
            for k in at_arc[i]:
                sign, over, inn, out = steps[k]
                if settled[k] or not colored[over] or not (
                        colored[inn] or colored[out]):
                    continue
                settled[k] = True
                fwd, bwd = views[sign]
                if colored[inn] and colored[out]:
                    checks.append((out, over, inn, fwd))
                    continue
                rule = (out, over, inn, fwd) if colored[inn] else (
                    inn, over, out, bwd)
                forced.append(rule)
                colored[rule[0]] = True
                queue.append(rule[0])


def _colorings(size: int, levels: Sequence[tuple[int, list, list, list]],
               table: RackTable, first: Iterable[int]) -> Iterator[list[int]]:
    """Every coloring of a diagram over arc positions 0..size-1 that
    colors position 0 from ``first``, by the levels of _schedule.

    The levels read steps (sign, over, under_in, under_out) as _layout
    gives them: sign 1 takes under_in ▷ over to under_out, sign -1 the
    inverse operation.  Yields one list whose entry i is the color of arc
    position i; it is the same list each time and changes once the search
    resumes.  Each end given to _schedule must color its two arcs within
    one orbit of π(x) = x ▷ x.

    At each level the search tries each color on the branch arc, runs the
    lookups, which cannot fail, and keeps the color when the checks hold.
    This is exact: every step and every end is looked up or checked once
    all its arcs are colored, and a branch past the first tries every
    color, so each coloring is found once.  The orbit rule is the only one
    that reads colors, and it stays a check: a cut end comes after every
    arc of the diagram, and the step that consumes it reads two of the
    diagram's own arcs, so a cut end is always looked up, never branched
    on.  Every arc before a level's branch arc is colored at an earlier
    level and colors are tried in increasing order, so colorings come out
    sorted by their color tuples when ``first`` is.  Deeper levels
    overwrite their own arcs, so backing up undoes nothing.
    """
    _, orbit, _ = table._diagonal_orbits
    col = [0] * size
    if not levels:
        yield col
        return
    last = len(levels) - 1
    everything = table.elements
    # the colors left at each level entered
    stack = [iter(first)]
    while stack:
        level = len(stack) - 1
        pos, forced, checks, pairs = levels[level]
        for value in stack[level]:
            col[pos] = value
            for t, o, s, view in forced:
                col[t] = view[col[o]][col[s]]
            # keep the color when every check and every end holds
            for t, o, s, view in checks:
                if col[t] != view[col[o]][col[s]]:
                    break
            else:
                for a, v in pairs:
                    if orbit[col[a]] is not orbit[col[v]]:
                        break
                else:
                    break
        else:
            stack.pop()
            continue
        if level == last:
            yield col
        else:
            stack.append(iter(everything))


def enumerate_colorings(diagram: LinkDiagram,
                        table: RackTable) -> tuple[dict[int, int], ...]:
    """All rack colorings of the diagram's arcs, sorted by their color tuples.

    At a positive crossing the outgoing under-arc carries under_in ▷ over;
    at a negative crossing the inverse operation applies.  Each branch is on
    the lowest-numbered arc that earlier branches leave undecided, in one
    iterative search over a schedule laid out once, so no input depth can
    exhaust the interpreter's stack.  The search reads the diagram's position
    layout uncut, the same steps that the framed counts cut open, and tries
    every color on the first arc, where the framed counts try one per
    Inn-orbit.  Each dict lists its arcs in increasing order.
    """
    table.require_rack()
    _, steps = diagram._layout
    levels = _schedule(len(diagram.arcs), steps, (), table)
    return tuple(dict(zip(diagram.arcs, colors)) for colors in _colorings(
        len(diagram.arcs), levels, table, table.elements))


def image_subrack(table: RackTable,
                  coloring: Mapping[int, int]) -> tuple[int, ...]:
    """Closure of the set of colors a coloring actually uses."""
    return closure(table, set(coloring.values()))


def _framing(label: tuple[int, ...]) -> list[tuple[str, int]]:
    """The factors q1^label[0], ..., qc^label[c-1] of a framing label."""
    return [(f"q{i}", e) for i, e in enumerate(label, 1)]


def counting_polynomial_string(per_class: Mapping[tuple[int, ...], int]) -> str:
    """Render per-framing-class counts as a polynomial in q1..qc."""
    return _format_sum((count, _framing(label))
                       for label, count in sorted(per_class.items()) if count)


def _framed_counts(diagram: LinkDiagram, table: RackTable,
                   tag: Callable[[list[int]], Hashable]
                   ) -> tuple[int, list[int],
                              dict[tuple[tuple[tuple[int, int], ...], Hashable],
                                   int]]:
    """The one tally behind both framed invariants.

    Searches the diagram cut at its anchors, with the schedule laid out
    once, and bins each cut coloring by a residue key of its ends and by
    tag(colors), whose list leads with the colors of the diagram's own
    arcs.  k kinks close a component when π^k(anchor) = cut end; those k
    form one residue class j modulo the π-orbit length ℓ of the anchor's
    color, N/ℓ values in [0, N), so each key ((ℓ₁, j₁), ...) stands for
    the labels that ``_labels`` spreads it over.

    The search is run once per Inn-orbit representative, not per color,
    so the tag must be constant on the Inn-orbits of colorings.  Each φ
    in Inn(X) is an automorphism, so it maps a coloring c to the coloring
    φ∘c; it commutes with π, so it keeps every (ℓ, j).  Position 0 is the
    first component's anchor and the search's first branch arc, and each
    search colors it with one orbit's representative r only (see
    ``RackTable._inner``): the colorings with φ(r) there are the
    φ∘c, with c's key and tag.  So each of r's colorings counts once per
    member of r's orbit O, and every bin of its search weighs |O|.
    Returns N, the components' self-writhes and the residue bins
    {(key, tag): count}.
    """
    big_n, orbit, step = table._diagonal_orbits
    size, steps, ends, writhes = _cut(diagram)
    if not size:
        # no arcs: the one empty coloring, which every automorphism keeps
        return big_n, writhes, {((), tag([])): 1}
    levels = _schedule(size, steps, ends, table)
    bins: dict[tuple[tuple[tuple[int, int], ...], Hashable], int] = {}
    orbits, _, sizes, _ = table._inner
    for members, weight in zip(orbits, sizes):
        for colors in _colorings(size, levels, table, members[:1]):
            key = []
            for a, v in ends:
                ell = len(orbit[colors[a]])
                key.append((ell, (step[colors[v]] - step[colors[a]]) % ell))
            at = tuple(key), tag(colors)
            bins[at] = bins.get(at, 0) + weight
    return big_n, writhes, bins


def _labels(big_n: int, writhes: Sequence[int],
            key: Sequence[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """The framing labels of a residue key: label_i = (writhe_i + k_i)
    mod N over the k_i in [0, N) of residue j_i modulo ℓ_i."""
    return product(*(range((w + j) % ell, big_n, ell)
                     for w, (ell, j) in zip(writhes, key)))


def rack_counting(diagram: LinkDiagram,
                  table: RackTable) -> tuple[int, dict[tuple[int, ...], int]]:
    """Coloring counts over one full framing sweep.

    The sweep retwists the diagram with every kink vector k in {0..N-1}^c,
    N being the order of the diagonal map π(x) = x ▷ x, and counts each
    kinked diagram's colorings in the framing class
    (self_writhe + k) mod N, componentwise.  A kink on an arc colored x
    yields π(x), and R_π(x) = R_x, so k kinks at a component's anchor a
    turn its color into π^k(a).  One search over the diagram cut open at
    every anchor therefore finds every kinked coloring at once: a cut
    coloring closes under exactly the k with π^k(anchor) = cut end.  The
    cost is one search instead of N^c, run once per Inn-orbit
    representative on the first arc, with its counts weighted by the
    orbit's size.  This is _framed_counts with a constant tag, each
    residue bin spread straight into the table.  Returns the grand total
    and the counts of all N^c classes, empty ones as zero.
    """
    big_n, writhes, bins = _framed_counts(diagram, table, lambda colors: None)
    per_class = dict.fromkeys(product(range(big_n), repeat=len(writhes)), 0)
    for (key, _), count in bins.items():
        for label in _labels(big_n, writhes, key):
            per_class[label] += count
    return sum(per_class.values()), per_class


@_record
class EnhancedInvariant:
    """Framing-class coloring counts refined by image subrack polynomials.

    ``pairs`` holds (framing label, subrack polynomial of the coloring
    image, multiplicity) and refines the plain counts; dropping the labels
    gives the unframed refinement, dropping the polynomials gives the
    counting polynomial back.
    """

    m: int
    n: int
    convention: str
    rack_rank: int
    component_count: int
    pairs: tuple[tuple[tuple[int, ...], TwoVarPoly, int], ...]
    image_multiplicities: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    @property
    def total(self) -> int:
        return sum(mult for _, _, mult in self.pairs)

    def class_counts(self) -> dict[tuple[int, ...], int]:
        """Counts per framing label over all N^c labels, empty ones zero."""
        per_class = dict.fromkeys(
            product(range(self.rack_rank), repeat=self.component_count), 0)
        for label, _, mult in self.pairs:
            per_class[label] += mult
        return per_class

    def counting_string(self) -> str:
        return counting_polynomial_string(self.class_counts())

    def enhanced_string(self, with_framing: bool = True) -> str:
        if with_framing:
            return _format_sum((mult, [*_framing(label), ("z", str(poly))])
                               for label, poly, mult in self.pairs)
        totals = _weighted((str(poly) for _, poly, _ in self.pairs),
                           (mult for _, _, mult in self.pairs))
        return _format_sum((mult, [("z", key)]) for key, mult in totals)


def enhanced_invariant(diagram: LinkDiagram, table: RackTable,
                       m: int = 1, n: int = 1,
                       convention: str = "def") -> EnhancedInvariant:
    """Sweep framings as in rack_counting, recording each coloring's image.

    Every coloring contributes the two-variable polynomial of its image
    subrack (counts taken in the ambient rack) tagged with its framing
    class.  Kink arcs carry π^j(anchor), in the closure of the anchor's
    color, so the same search over the cut diagram serves: a coloring's
    image is the closure of the colors on the diagram's own arcs.  Its
    tag is the Inn-orbit Ω of that image, kept by Inn(X) as
    ``_framed_counts`` needs, since φ∘c has image φS when c has image S.
    Each set of colors met is closed once and each closure's Ω spread
    once (``poly._spread``, which walks no one-element image and not X;
    a diagram with no arcs has the empty image, whose Ω is {∅}).  Every
    T in Ω has one polynomial, as the exponent pairs are constant on
    Inn-orbits (``poly._orbit_pairs``), and at each label an exact 1/|Ω|
    share of Ω's count, as φ maps the colorings with image T onto those
    with image φT.  Depths below 1 raise RackError before any search,
    whatever the diagram.
    """
    m, n = _depths(table, m, n, convention)
    terms = _orbit_pairs(table, m, n, convention)
    real = len(diagram.arcs)
    omegas: list[tuple[TwoVarPoly, dict[int, tuple[int, ...]]]] = []
    which: dict[int, int] = {}  # each image's mask: its Ω's index in omegas
    tags: dict[frozenset[int], int] = {}  # each set of colors met: the same

    def omega_of(colors: list[int]) -> int:
        used = frozenset(colors[:real])
        if used not in tags:
            image = closure(table, used)
            mask = sum(1 << v for v in image)
            if mask not in which:
                omega = _spread(table, mask, image)
                which.update(dict.fromkeys(omega, len(omegas)))
                omegas.append((_subset_poly(table, terms, image), omega))
            tags[used] = which[mask]
        return tags[used]

    big_n, writhes, bins = _framed_counts(diagram, table, omega_of)
    counts: Counter[tuple[tuple[int, ...], int]] = Counter()
    for (key, i), count in bins.items():
        for label in _labels(big_n, writhes, key):
            counts[label, i] += count
    pair_counts: Counter[tuple[tuple[int, ...], TwoVarPoly]] = Counter()
    images = []
    for (label, i), count in counts.items():
        poly, omega = omegas[i]
        pair_counts[label, poly] += count
        images.extend((label, image, count // len(omega))
                      for image in omega.values())
    pairs = tuple(sorted(
        ((label, poly, mult) for (label, poly), mult in pair_counts.items()),
        key=lambda item: (item[0], str(item[1]))))
    return EnhancedInvariant(m, n, convention, big_n, len(writhes), pairs,
                             tuple(sorted(images)))
