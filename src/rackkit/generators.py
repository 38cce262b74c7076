"""Standard families of racks and quandles built from small parameters."""

from __future__ import annotations

import math

from .core import Permutation, RackError, RackTable, _as_int

__all__ = ["alexander", "constant_action", "ts_rack"]


def constant_action(sigma: Permutation) -> RackTable:
    """Rack where every column acts as the same permutation: x ▷ y = σ(x)."""
    n = sigma.n
    return RackTable(tuple((v,) * n for v in sigma.images))


def alexander(n: int, t: int) -> RackTable:
    """Linear quandle on Z/n: x ▷ y = t·x + (1-t)·y, for a unit t.

    Residues 0..n-1 are relabeled 1..n.
    """
    return ts_rack(n, t, 1 - _as_int(t, "coefficient"))


def ts_rack(n: int, t: int, s: int) -> RackTable:
    """Linear rack on Z/n: x ▷ y = t·x + s·y, for unit t and s(1-t-s) ≡ 0.

    With s = 1-t this is the linear quandle; s must satisfy the idempotent
    condition s·(1-t-s) ≡ 0 mod n for self-distributivity.
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
    # a unit t makes every column a bijection, and s(1-t-s) ≡ 0 is
    # self-distributivity, so the table is a rack; its report waits for
    # its first reader
    return RackTable(tuple(
        tuple((t * x + s * y) % n + 1 for y in range(n))
        for x in range(n)))
