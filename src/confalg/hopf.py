"""Exact arithmetic in the polynomial Hopf algebra of a single derivation D.

The coproduct sends D to D(x)1 + 1(x)D, the counit kills D, and the
antipode substitutes -D.  Everything is stored sparsely with Fraction
coefficients, so all computations are exact; divided powers D^(k) enter
only as the rational coefficient 1/k! on the monomial D^k.

The one home of the Hopf formulas that tensors of every arity use: the
iterated coproduct of D^d (_spread) and the splitting (decompose).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .linear import Linear, accumulate, collect, integral

Scalar = Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


class HPoly(Linear):
    """Polynomial in D over Q, stored as {degree: coefficient}."""

    __slots__ = ()
    coeffs = Linear.terms

    def _key(self, d) -> int:
        d = integral(d)
        if d < 0:
            raise ValueError("negative D-degree")
        return d

    @classmethod
    def one(cls) -> "HPoly":
        return cls({0: 1})

    @classmethod
    def d_power(cls, k: int, coeff=1) -> "HPoly":
        return cls({k: coeff})

    @classmethod
    def divided(cls, k: int) -> "HPoly":
        """D^(k) = D^k / k!."""
        return cls({k: Fraction(1, math.factorial(k))})

    def __mul__(self, other: "HPoly") -> "HPoly":
        return self._new(collect(
            (d1 + d2, c1 * c2)
            for d1, c1 in self.coeffs.items()
            for d2, c2 in other.coeffs.items()
        ))

    def derivative(self, m: int = 1) -> "HPoly":
        """m-th derivative with respect to D."""
        cur = self.coeffs
        for _ in range(m):
            cur = {d - 1: c * d for d, c in cur.items() if d >= 1}
        return self._new(cur)

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

    def __mul__(self, other: "TensorHH") -> "TensorHH":
        return self._new(collect(
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.coeffs.items()
            for (i2, j2), c2 in other.coeffs.items()
        ))

    def swap(self) -> "TensorHH":
        return self._new({(j, i): c for (i, j), c in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (i, j) in sorted(self.coeffs):
            bits.append(f"{self.coeffs[(i, j)]}*(D^{i}(x)D^{j})")
        return " + ".join(bits)


@functools.lru_cache(maxsize=256)  # keyed by small ints; flatten asks per P-part
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


def comult(h: HPoly) -> TensorHH:
    """Coproduct: Delta(D^m) = sum_a C(m, a) D^a (x) D^(m-a), extended linearly."""
    return TensorHH._of(collect(
        (powers, c * k) for m, c in h.coeffs.items() for powers, k in _spread(m, 2)
    ))


def antipode(h: HPoly) -> HPoly:
    """S(h) = h(-D)."""
    return HPoly._of({d: c if d % 2 == 0 else -c for d, c in h.coeffs.items()})


def counit(h: HPoly) -> Scalar:
    return h.coeffs.get(0, Fraction(0))


def decompose(t: TensorHH, ns: Iterable[int] | None = None) -> dict[int, HPoly]:
    """Write t uniquely as sum_n ((-D)^(n) (x) 1) * comult(h_n).

    Substitute x = D(x)1 and z = Delta(D) = D(x)1 + 1(x)D, so that
    1(x)D = z - x; the coefficient of x^n as a polynomial in z then
    determines h_n up to the factor (-1)^n n!.

    With ns given, only the nonzero h_n for n in ns are built: D^i (x) D^j
    reaches n only through the term z^m with m = i + j - n, 0 <= m <= j,
    so it costs one term per requested n instead of j + 1.
    """
    wanted = None if ns is None else set(ns)
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


def recompose(parts: Mapping[int, HPoly]) -> TensorHH:
    """Inverse of decompose: sum_n ((-D)^(n) (x) 1) * comult(h_n)."""
    total = TensorHH()
    for n, h in parts.items():
        lead = TensorHH({(n, 0): Fraction((-1) ** n, math.factorial(n))})
        total = total + lead * comult(h)
    return total
