"""Exact arithmetic in the polynomial Hopf algebra of a single derivation D.

The coproduct Delta sends D to D(x)1 + 1(x)D.  Everything is stored
sparsely with exact coefficients: Fractions at the public API, ints where
the pseudo layer and the realize engine split int tensors (decompose keeps
an int an int).  Divided powers D^(k) enter only as the rational
coefficient 1/k! on the monomial D^k.

The one home of the Hopf formulas that tensors of every arity use: the
iterated coproduct of D^d (_spread) and the splitting (decompose).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction

from .linear import Linear, accumulate, integral


def _index(n) -> int:
    """A product index: an int (through integral) that is not negative."""
    n = integral(n)
    if n < 0:
        raise ValueError("product index must be nonnegative")
    return n


class HPoly(Linear):
    """Polynomial in D over Q, stored as {degree: coefficient}."""

    __slots__ = ()
    coeffs = Linear.terms

    def _key(self, d) -> int:
        d = integral(d)
        if d < 0:
            raise ValueError("negative D-degree")
        return d

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                bits.append(str(c))
            elif d == 1:
                bits.append(f"{c}*D" if c != 1 else "D")
            else:
                bits.append(f"{c}*D^{d}" if c != 1 else f"D^{d}")
        return " + ".join(bits)


class TensorHH(Linear):
    """Element of H (x) H, stored as {(i, j): coeff} over D^i (x) D^j."""

    __slots__ = ()
    coeffs = Linear.terms

    def _key(self, key) -> tuple[int, int]:
        i, j = key
        return (integral(i), integral(j))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (i, j) in sorted(self.coeffs):
            bits.append(f"{self.coeffs[(i, j)]}*(D^{i}(x)D^{j})")
        return " + ".join(bits)


@functools.lru_cache(maxsize=256)  # keyed by small ints; asked per D-power by the tensors
def _spread(d: int, slots: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The iterated coproduct of D^d over slots tensor slots.

    ((powers, c), ...) with c = d!/(powers[0]! ...) the multinomial
    coefficient, leading slots' powers in increasing lexicographic order.
    """
    if slots == 1:
        return (((d,), 1),)
    return tuple(
        ((a,) + rest, math.comb(d, a) * c)
        for a in range(d + 1)
        for rest, c in _spread(d - a, slots - 1)
    )


def decompose(t: TensorHH, ns: Iterable[int] | None = None) -> dict[int, HPoly]:
    """Write t uniquely as sum_n ((-D)^(n) (x) 1) * Delta(h_n).

    Substitute x = D(x)1 and z = Delta(D) = D(x)1 + 1(x)D, so that
    1(x)D = z - x; the coefficient of x^n as a polynomial in z then
    determines h_n up to the factor (-1)^n n!.

    With ns given, only the nonzero h_n for n in ns are built: D^i (x) D^j
    reaches n only through the term z^m with m = i + j - n, 0 <= m <= j,
    so it costs one term per requested n instead of j + 1.  Each n in ns
    must be a nonnegative int: TypeError or ValueError otherwise.
    """
    wanted = None if ns is None else {_index(n) for n in ns}
    acc: dict[int, dict[int, Fraction]] = {}
    for (i, j), c in t.coeffs.items():
        # D^i (x) D^j = x^i (z - x)^j
        if wanted is None:
            ms = range(j + 1)
        else:
            ms = [i + j - n for n in wanted if i <= n <= i + j]
        for m in ms:
            n = i + j - m
            w = c * math.comb(j, m) * (-1) ** (j - m)
            accumulate(acc.setdefault(n, {}), m, w)
    return {
        n: HPoly._of({m: c * ((-1) ** n * math.factorial(n)) for m, c in row.items()})
        for n, row in acc.items()
        if row
    }
