"""Independent brute force reference implementations.

Everything here recomputes results from raw table entries with nested
loops, on purpose; nothing calls the library's counting, closure, or
coloring code.  Expected values frozen into the test suite were produced
by these functions and cross-checked against the library.
"""

from itertools import permutations, product
from math import lcm


def linear_table(n, t, s):
    """Entries of x ▷ y = t·x + s·y on Z/n, one product at a time, with
    residue r written as r + 1."""
    return tuple(tuple((t * x + s * y) % n + 1 for y in range(n))
                 for x in range(n))


def op(entries, x, y):
    return entries[x - 1][y - 1]


def op_inv(entries, x, y):
    n = len(entries)
    for z in range(1, n + 1):
        if op(entries, z, y) == x:
            return z
    raise ValueError(f"no z with z op {y} = {x}")


def op_iter(entries, x, y, d):
    step = op if d >= 0 else op_inv
    for _ in range(abs(d)):
        x = step(entries, x, y)
    return x


def is_rack(entries):
    n = len(entries)
    for y in range(1, n + 1):
        column = sorted(op(entries, x, y) for x in range(1, n + 1))
        if column != list(range(1, n + 1)):
            return False
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                left = op(entries, op(entries, x, y), z)
                right = op(entries, op(entries, x, z), op(entries, y, z))
                if left != right:
                    return False
    return True


def is_quandle(entries):
    n = len(entries)
    return is_rack(entries) and all(op(entries, x, x) == x for x in range(1, n + 1))


def is_latin(entries):
    n = len(entries)
    return all(sorted(row) == list(range(1, n + 1)) for row in entries)


def is_crossed_set(entries):
    """A quandle where x ▷ y = x holds exactly when y ▷ x = y."""
    n = len(entries)
    return is_quandle(entries) and all(
        (op(entries, x, y) == x) == (op(entries, y, x) == y)
        for x in range(1, n + 1) for y in range(1, n + 1))


def is_medial(entries):
    """(x ▷ y) ▷ (z ▷ w) = (x ▷ z) ▷ (y ▷ w) for every quadruple."""
    n = len(entries)
    for x, y, z, w in product(range(1, n + 1), repeat=4):
        left = op(entries, op(entries, x, y), op(entries, z, w))
        right = op(entries, op(entries, x, z), op(entries, y, w))
        if left != right:
            return False
    return True


def violations(entries):
    """Every axiom witness as (axiom, witness), bijectivity first.

    Bijectivity witnesses run column by column, pairing each repeated
    entry (x2, y) with the first row x1 that holds the same value;
    distributivity witnesses (x, y, z) follow in lexicographic order.
    """
    n = len(entries)
    found = []
    for y in range(1, n + 1):
        for x2 in range(1, n + 1):
            for x1 in range(1, x2):
                if op(entries, x1, y) == op(entries, x2, y):
                    found.append(("bijectivity", (x1, x2, y)))
                    break
    for x, y, z in product(range(1, n + 1), repeat=3):
        left = op(entries, op(entries, x, y), z)
        right = op(entries, op(entries, x, z), op(entries, y, z))
        if left != right:
            found.append(("distributivity", (x, y, z)))
    return found


def col_count(entries, d, x):
    """How many y return to themselves after d right-products by x."""
    n = len(entries)
    return sum(1 for y in range(1, n + 1) if op_iter(entries, y, x, d) == y)


def row_count(entries, d, x):
    """How many y leave x unchanged after d right-products by y."""
    n = len(entries)
    return sum(1 for y in range(1, n + 1) if op_iter(entries, x, y, d) == x)


def poly_terms(entries, m, n_depth, convention, subset=None):
    """Exponent-pair multiset of the rack polynomial as a dict."""
    n = len(entries)
    elements = subset if subset is not None else range(1, n + 1)
    terms = {}
    for x in elements:
        if convention == "def":
            key = (row_count(entries, m, x), col_count(entries, n_depth, x))
        else:
            key = (col_count(entries, m, x), row_count(entries, n_depth, x))
        terms[key] = terms.get(key, 0) + 1
    return terms


def cycle_lengths(entries):
    """{(x, y): the least d >= 1 with x ▷ y ... ▷ y = x (d copies of y)},
    the length of x's cycle under y's column, stepped one product at a
    time."""
    n = len(entries)
    lengths = {}
    for y in range(1, n + 1):
        for x in range(1, n + 1):
            length, z = 1, op(entries, x, y)
            while z != x:
                length, z = length + 1, op(entries, z, y)
            lengths[x, y] = length
    return lengths


def period(entries):
    """lcm of every cycle length of every column: iterated products repeat
    with this period."""
    return lcm(*cycle_lengths(entries).values())


def poly_grid(entries, bound, convention):
    """poly_terms at every depth pair (m, n) in 1..bound, from counts
    computed pointwise at each depth."""
    n = len(entries)
    col = {d: [col_count(entries, d, x) for x in range(1, n + 1)]
           for d in range(1, bound + 1)}
    row = {d: [row_count(entries, d, x) for x in range(1, n + 1)]
           for d in range(1, bound + 1)}
    s_counts, t_counts = (row, col) if convention == "def" else (col, row)
    grid = {}
    for m in range(1, bound + 1):
        for n_depth in range(1, bound + 1):
            terms = {}
            for key in zip(s_counts[m], t_counts[n_depth]):
                terms[key] = terms.get(key, 0) + 1
            grid[(m, n_depth)] = terms
    return grid


def closure(entries, seed):
    current = set(seed)
    while True:
        grown = {op(entries, x, y) for x in current for y in current}
        if grown <= current:
            return tuple(sorted(current))
        current |= grown


def first_escape(entries, subset):
    """The first (x, y, x op y), in (x, y) order over the sorted subset,
    with x and y in the subset but x op y outside it; None when the subset
    is closed."""
    members = sorted(set(subset))
    for x in members:
        for y in members:
            if op(entries, x, y) not in members:
                return x, y, op(entries, x, y)
    return None


def subracks(entries):
    """Every nonempty closed subset, found by checking all 2^n subsets."""
    n = len(entries)
    out = []
    for mask in range(1, 1 << n):
        subset = [i + 1 for i in range(n) if mask >> i & 1]
        if all(op(entries, x, y) in subset for x in subset for y in subset):
            out.append(tuple(subset))
    return sorted(out, key=lambda s: (len(s), s))


def colorings(entries, arcs, crossings):
    """Check every assignment of colors to arcs against every rule.

    crossings are (sign, over, under_in, under_out) tuples.
    """
    n = len(entries)
    arcs = sorted(arcs)
    found = []
    for assignment in product(range(1, n + 1), repeat=len(arcs)):
        colors = dict(zip(arcs, assignment))
        ok = True
        for sign, over, under_in, under_out in crossings:
            if sign == 1:
                expected = op(entries, colors[under_in], colors[over])
            else:
                expected = op_inv(entries, colors[under_in], colors[over])
            if colors[under_out] != expected:
                ok = False
                break
        if ok:
            found.append(colors)
    return found


def diagonal_order(entries):
    n = len(entries)
    images = [op(entries, x, x) for x in range(1, n + 1)]
    order = 1
    current = list(images)
    while current != list(range(1, n + 1)):
        current = [images[v - 1] for v in current]
        order += 1
    return order


def is_isomorphism(entries_a, entries_b, images):
    """Whether x -> images[x - 1] is a bijection carrying every product of
    the first table to the matching product of the second."""
    n = len(entries_a)
    if len(entries_b) != n or sorted(images) != list(range(1, n + 1)):
        return False
    return all(
        images[op(entries_a, x, y) - 1]
        == op(entries_b, images[x - 1], images[y - 1])
        for x in range(1, n + 1) for y in range(1, n + 1))


def isomorphic(entries_a, entries_b):
    """The first isomorphism in lexicographic order of image tuples, found
    by trying all n! bijections (n <= 7), or None.  Its first image is the
    least f(1) over every isomorphism f."""
    n = len(entries_a)
    assert n <= 7, "brute force over n! bijections is for n <= 7"
    if len(entries_b) != n:
        return None
    for images in permutations(range(1, n + 1)):
        if is_isomorphism(entries_a, entries_b, images):
            return images
    return None


def inner_orbits(entries, ys=None):
    """The orbits of the group the columns of ys (default every element)
    generate, as sorted tuples in order of their least elements: a
    breadth-first search from each element not yet reached, under each
    of those columns and its inverse."""
    n = len(entries)
    ys = range(1, n + 1) if ys is None else sorted(ys)
    seen = set()
    orbits = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop(0)
            for y in ys:
                for z in (op(entries, x, y), op_inv(entries, x, y)):
                    if z not in orbit:
                        orbit.add(z)
                        frontier.append(z)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def subrack_orbit(entries, subset):
    """The images of a subset under the group every column generates, as
    sorted tuples in sorted order: a breadth-first search from the subset
    under each column x ↦ x op y, whose inverse is one of its powers."""
    n = len(entries)
    start = tuple(sorted(set(subset)))
    orbit, frontier = {start}, [start]
    while frontier:
        current = frontier.pop(0)
        for y in range(1, n + 1):
            image = tuple(sorted(op(entries, x, y) for x in current))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return sorted(orbit)


def racks(n):
    """Every rack on 1..n as entries, in lexicographic order of columns:
    columns C_1, C_2, ... are assigned permutations by backtracking, and
    each assignment is kept only while C_z∘C_y = C_{C_z(y)}∘C_z holds for
    every pair y, z whose three columns are assigned, which is
    (x ▷ y) ▷ z = (x ▷ z) ▷ (y ▷ z) for every x."""
    perms = list(permutations(range(1, n + 1)))
    columns = []
    found = []

    def distributive():
        k = len(columns)
        for y in range(1, k + 1):
            for z in range(1, k + 1):
                cy, cz = columns[y - 1], columns[z - 1]
                w = cz[y - 1]
                if w <= k and any(cz[cy[x] - 1] != columns[w - 1][cz[x] - 1]
                                  for x in range(n)):
                    return False
        return True

    def extend():
        if len(columns) == n:
            found.append(tuple(tuple(columns[y][x] for y in range(n))
                               for x in range(n)))
            return
        for column in perms:
            columns.append(column)
            if distributive():
                extend()
            columns.pop()

    extend()
    return found


def canonical(entries):
    """The least relabelling of the table, as a tuple of rows, over all
    n! bijections: two tables are isomorphic exactly when theirs agree."""
    n = len(entries)
    forms = []
    for images in permutations(range(1, n + 1)):
        table = [[0] * n for _ in range(n)]
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                table[images[x - 1] - 1][images[y - 1] - 1] = \
                    images[op(entries, x, y) - 1]
        forms.append(tuple(map(tuple, table)))
    return min(forms)
