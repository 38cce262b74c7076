"""Standard families of racks and quandles built from small parameters.

Each family has one row producer, which checks every parameter before it
returns and then yields the table's rows in order; the tables here and
``rackkit gen``'s streamed text both come from it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import itemgetter

from . import _EXPORTS
from .core import (Permutation, RackError, RackTable, _as_int,
                   _trusted_table)

__all__ = _EXPORTS["generators"]


def _constant_rows(sigma: Permutation
                   ) -> tuple[int, Iterator[tuple[int, ...]]]:
    """n and the rows (σ(x),) * n of the constant action, read from
    sigma.n and sigma.images."""
    n = sigma.n
    return n, ((v,) * n for v in sigma.images)


def _linear_rows(n: int, t: int, s: int
                 ) -> tuple[int, Iterator[tuple[int, ...]]]:
    """n and the rows of x ▷ y = t·x + s·y on Z/n, residues relabeled 1..n.

    Row x is (1..n) rotated by t·x mod n, read at the offsets s·y mod n,
    which are the same for every row: one slice and one itemgetter call.
    """
    n = _as_int(n, "modulus")
    t, s = _as_int(t, "coefficient"), _as_int(s, "coefficient")
    if n < 1:
        raise RackError(f"modulus must be positive, got {n}")
    t %= n
    s %= n
    if math.gcd(t, n) != 1:
        raise RackError(f"t={t} is not a unit modulo {n}")
    if (s * (1 - t - s)) % n != 0:
        raise RackError(f"s={s} fails s*(1-t-s) ≡ 0 mod {n}")
    if n == 1:
        # an itemgetter of one offset gives the entry, not a 1-tuple
        return n, iter([(1,)])
    ring = tuple(range(1, n + 1)) * 2
    read = itemgetter(*[s * y % n for y in range(n)])
    return n, (read(ring[a:a + n]) for a in (t * x % n for x in range(n)))


def constant_action(sigma: Permutation) -> RackTable:
    """Rack where every column acts as the same permutation: x ▷ y = σ(x).

    A Permutation's images are ints forming a bijection of 1..n, checked
    when it was built, so each row (σ(x),) * n holds n ints in 1..n and
    the table skips the constructor's check; any other argument takes it.
    """
    n, rows = _constant_rows(sigma)
    if type(sigma) is Permutation:
        return _trusted_table(tuple(rows))
    return RackTable(tuple(rows))


def alexander(n: int, t: int) -> RackTable:
    """Linear quandle on Z/n: x ▷ y = t·x + (1-t)·y, for a unit t.

    Residues 0..n-1 are relabeled 1..n.
    """
    return ts_rack(n, t, 1 - _as_int(t, "coefficient"))


def ts_rack(n: int, t: int, s: int) -> RackTable:
    """Linear rack on Z/n: x ▷ y = t·x + s·y, for unit t and s(1-t-s) ≡ 0.

    With s = 1-t this is the linear quandle; s must satisfy the idempotent
    condition s·(1-t-s) ≡ 0 mod n for self-distributivity.

    The rows are n tuples, each of n entries read from (1..n), so every
    entry is an int in 1..n and the table skips the constructor's check.
    A unit t makes every column a bijection, and s(1-t-s) ≡ 0 is
    self-distributivity, so the table is a rack; its report waits for its
    first reader.
    """
    _, rows = _linear_rows(n, t, s)
    return _trusted_table(tuple(rows))
