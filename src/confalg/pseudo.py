"""Pseudoalgebra engine over H = Q[D].

Implements the comodule pseudoproducts on H (x) A, canonical forms of the
resulting two- and three-slot tensors, extraction of the n-th products, the
expanded composition of * on three arguments, associativity and poly-linear
identity checking, and the pseudocommutator.

Both arities use confalg.hopf's formulas: split() applies decompose slot by
slot to every entry, at the requested n alone or at every n, and gives the
canonical form as a plain dict; flatten and star_expanded share D-powers by
its coproduct _spread.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable

from .hopf import HPoly, TensorHH, _index, _spread, decompose
from .linear import AlgLinear, Linear, accumulate, exact, integral
from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word

DEFAULT_MAX_D = 3
DEFAULT_MAX_WORD_LEN = 4

Coaction = Callable[[NCPoly], "dict[int, NCPoly]"]


class ProductKind(enum.Enum):
    """The five comodule pseudoproducts.

    They differ in which argument's coaction is used, which tensor slot
    absorbs its H-part, and whether the antipode twists it.  P20 couples
    both coactions and is only offered on commutative word algebras.
    """

    P8 = "P8"
    P9 = "P9"
    P10 = "P10"
    P11 = "P11"
    P20 = "P20"


# kind -> (coact x?, coact y?, sign of the moved D)
_KIND_RULES: dict[ProductKind, tuple[bool, bool, int]] = {
    ProductKind.P8: (False, True, 1),
    ProductKind.P9: (True, False, -1),
    ProductKind.P10: (True, False, 1),
    ProductKind.P11: (False, True, -1),
    ProductKind.P20: (True, True, 1),
}


def standard_coaction(f: NCPoly) -> dict[int, NCPoly]:
    """Generators map to 1 (x) a, the letter v to D (x) 1 + 1 (x) v."""
    return f.coact()


def current_coaction(f: NCPoly) -> dict[int, NCPoly]:
    """Trivial coaction a -> 1 (x) a; gives current pseudoalgebras."""
    return {0: f} if f else {}


def corrupt_coaction(f: NCPoly) -> dict[int, NCPoly]:
    """Deliberately broken variant: component 1 is doubled.

    Not an algebra morphism, so axiom checks run against it are expected
    to fail.  Kept as a negative control for the checking machinery.
    """
    out: dict[int, NCPoly] = {0: f} if f else {}
    g = f.vderiv(1)
    if g:
        out[1] = g.scale(2)
    return out


COACTIONS: dict[str, Coaction] = {
    "standard": standard_coaction,
    "current": current_coaction,
    "corrupt": corrupt_coaction,
}


class PElement(AlgLinear):
    """Element of H (x) A, stored as {d: f_d} meaning sum_d D^d (x) f_d."""

    __slots__ = ()
    _nested = True
    parts = Linear.terms
    _key = HPoly._key  # D-degrees: nonnegative ints

    def _value(self, f) -> NCPoly:
        return f if isinstance(f, NCPoly) else NCPoly(self.alg, f)

    @classmethod
    def from_poly(cls, alg: AlgebraConfig, f: NCPoly) -> "PElement":
        return cls(alg, {0: f})

    def d_shift(self, k: int = 1) -> "PElement":
        """Multiply by D^k on the H slot."""
        if k < 0:
            raise ValueError("negative shift")
        return self._new({d + k: f for d, f in self.parts.items()})

    def hpoly_mul(self, h: HPoly) -> "PElement":
        out: dict[int, NCPoly] = {}
        for m, c in h.coeffs.items():
            for d, f in self.parts.items():
                accumulate(out, d + m, f.scale(c))
        return self._new(out)

    def max_d(self) -> int:
        """Highest D-power present; -1 for zero."""
        return max(self.parts, default=-1)

    def max_v_degree(self) -> int:
        if not self.parts:
            return -1
        return max(f.max_v_degree() for f in self.parts.values())

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for d in sorted(self.parts):
            head = "1" if d == 0 else ("D" if d == 1 else f"D^{d}")
            bits.append(f"{head}(x)({self.parts[d]!r})")
        return " + ".join(bits)


class _SlotTensor(AlgLinear):
    """Presentation {(i_1, ..., i_m): p} of sum (D^i_1 (x) ... (x) D^i_m) (x)_H p.

    Presentations are not unique; equality and truth testing go through
    the flattened H^(x)m (x) A form, which is.
    """

    __slots__ = ()
    _nested = True
    _slots = 0  # number of free H slots
    entries = Linear.terms

    def _key(self, key) -> tuple[int, ...]:
        key = tuple(map(integral, key))
        if len(key) != self._slots:
            raise ValueError(f"expected {self._slots} slot degrees, got {key!r}")
        return key

    def permute(self, sigma: tuple[int, ...]):
        """Move slot m's content to slot sigma(m); legitimate because the
        coproduct of D is symmetric."""
        if sorted(sigma) != list(range(1, self._slots + 1)):
            raise ValueError(f"not a permutation of 1..{self._slots}: {sigma!r}")
        source = [sigma.index(dest) for dest in range(1, self._slots + 1)]
        return self._new({tuple(key[m] for m in source): p for key, p in self.entries.items()})

    def split(self, ns: Iterable[int] | None = None) -> dict[tuple[int, ...], PElement]:
        """Unique coordinates over ((-D)^(n_1) (x) ... (x) (-D)^(n_(m-1)) (x) 1), h acting on P.

        The canonical form of every arity: keys (n,) for two slots, (I, J)
        for three.  decompose splits each entry's last two slots, at the n
        in ns alone when ns is given (the last coordinate then takes no
        other value, and each row comes from the memo _unit_row), then each
        earlier slot against the merged right-hand h (decompose is linear,
        Delta coassociative); seeded with the int 1, every h has int
        coefficients, so int values stay ints.  Each n in ns must be a
        nonnegative int, checked here, before the memo, so that a zero
        tensor refuses what a nonzero one does and True is not read as 1:
        TypeError or ValueError otherwise.
        """
        ns = None if ns is None else tuple(map(_index, ns))
        acc: dict[tuple[int, ...], PElement] = {}
        for key, p in self.entries.items():
            unit = key[-2:]
            if ns is None:
                parts = {(n,): h for n, h in decompose(TensorHH._of({unit: 1})).items()}
            else:
                parts = {(n,): h for n in ns if (h := _unit_row(*unit, n)) is not None}
            for i in reversed(key[:-2]):
                parts = {
                    (m,) + rest: g
                    for rest, h in parts.items()
                    for m, g in decompose(TensorHH._of({(i, e): c for e, c in h.coeffs.items()})).items()
                }
            for idx, h in parts.items():
                accumulate(acc, idx, p.hpoly_mul(h))
        return acc

    def flatten(self) -> dict[tuple[int, ...], NCPoly]:
        """Unique form in H^(x)m (x) A: spread each P-part's D across (x)_H."""
        flat: dict[tuple[int, ...], NCPoly] = {}
        for key, p in self.entries.items():
            for d, f in p.parts.items():
                for powers, c in _spread(d, self._slots):
                    accumulate(flat, tuple(map(add, key, powers)), f.scale(c))
        return flat

    def __bool__(self) -> bool:
        return bool(self.flatten())

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.flatten() == other.flatten()

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            "(" + "(x)".join(f"D^{i}" for i in key) + f")(x)H[{self.entries[key]!r}]"
            for key in sorted(self.entries)
        )


@functools.lru_cache(maxsize=256)  # like _spread; a table splits a few units only
def _unit_row(i: int, j: int, n: int) -> HPoly | None:
    """Row n of decompose(D^i (x) D^j), None when there is none; built once
    per process.

    A row at one n has one term, so the memo holds at most 256 terms.  It
    is keyed by n, not by the requested ns: a key over ns would keep all
    of a wide request's rows alive, and one cprods of D^3000 b over
    range(3003) would leave 22 MiB of them.  split reads no memo without
    ns, where decompose gives j + 1 rows at once.  decompose is looked up
    at call time, where bench/spans.py wraps it, so a span counts misses
    alone.  Nothing writes to a cached HPoly.
    """
    return decompose(TensorHH._of({(i, j): 1}), (n,)).get(n)


class PseudoTensor(_SlotTensor):
    """Two-slot presentation {(i, j): p} of sum (D^i (x) D^j) (x)_H p over H."""

    __slots__ = ()
    _slots = 2
    flatten = _SlotTensor.flatten  # own attribute, so tracing can wrap it
    canonical = _SlotTensor.split  # {(n,): c_n} over ((-D)^(n) (x) 1)

    def swap(self) -> "PseudoTensor":
        """Exchange the two free H slots (sigma_12)."""
        return self.permute((2, 1))


def canonicalize(t: PseudoTensor, ns: Iterable[int] | None = None) -> dict[int, PElement]:
    """{n: c_n} for t = sum_n ((-D)^(n) (x) 1) (x)_H c_n, at the n in ns alone
    when ns is given.  When t is a pseudoproduct x * y, c_n is the n-th
    product of x and y."""
    return {n: c for (n,), c in t.split(ns).items()}


class PseudoTensor3(_SlotTensor):
    """Three-slot presentation {(i, j, k): p} of sum (D^i (x) D^j (x) D^k) (x)_H p."""

    __slots__ = ()
    _slots = 3
    flatten = _SlotTensor.flatten  # own attributes, so tracing can wrap them
    canonical = _SlotTensor.split  # {(I, J): c} over ((-D)^(I) (x) (-D)^(J) (x) 1)


@dataclass(frozen=True)
class IdentityTerm:
    """One summand of a poly-linear identity.

    The binary tree (an int leaf or a pair of trees) is evaluated with
    argument sigma(i) at leaf i, the free H slots of the result are
    permuted by sigma, and the whole is scaled by coeff.
    """

    sigma: tuple[int, ...]
    tree: object
    coeff: object = 1


def commutativity_identity() -> tuple[IdentityTerm, ...]:
    """x * y - sigma_12(y * x); vanishes exactly on commutative structures."""
    return (
        IdentityTerm((1, 2), (1, 2), 1),
        IdentityTerm((2, 1), (1, 2), -1),
    )


def associator_identity() -> tuple[IdentityTerm, ...]:
    """(x y) z - x (y z)."""
    return (
        IdentityTerm((1, 2, 3), ((1, 2), 3), 1),
        IdentityTerm((1, 2, 3), (1, (2, 3)), -1),
    )


def _tree_leaves(tree, out: list[int]) -> None:
    if isinstance(tree, int) and not isinstance(tree, bool):
        out.append(tree)
    elif isinstance(tree, tuple) and len(tree) == 2:
        _tree_leaves(tree[0], out)
        _tree_leaves(tree[1], out)
    else:
        raise ValueError(f"malformed tree node: {tree!r}")


class PseudoAlgebra:
    """H (x) A for a word algebra A with a chosen coaction of H = Q[D]."""

    def __init__(self, alg: AlgebraConfig, coaction: Coaction = standard_coaction):
        self.alg = alg
        self.coaction = coaction

    def pprod(self, kind: ProductKind, x: PElement, y: PElement) -> PseudoTensor:
        """The pseudoproduct x * y as a two-slot tensor.

        x's coaction part D^(t) goes to slot 2 and y's D^(s) to slot 1, with
        coefficient sign^(s+t) / (s! t!); an argument that is not coacted
        keeps its whole polynomial at t = 0 (or s = 0).
        """
        kind = ProductKind(kind)
        if kind is ProductKind.P20 and not self.alg.commutative:
            raise ConfigError("the coupled product needs a commutative word algebra")
        coact_x, coact_y, sign = _KIND_RULES[kind]
        ys = [(e, self.coaction(g) if coact_y else {0: g}) for e, g in y.parts.items()]
        acc: dict[tuple[int, int], NCPoly] = {}
        for d, f in x.parts.items():
            cf = self.coaction(f) if coact_x else {0: f}
            for e, cg in ys:
                for t, ft in cf.items():
                    for s, gs in cg.items():
                        c, den = sign ** (s + t), math.factorial(s) * math.factorial(t)
                        if den > 1:  # an int c keeps a trusted int tensor int
                            c = Fraction(c, den)
                        term = ft * gs
                        # scale(1) would copy the fresh product
                        accumulate(acc, (d + s, e + t), term if c == 1 else term.scale(c))
        return PseudoTensor._of(
            self.alg, {k: PElement._of(self.alg, {0: v}) for k, v in acc.items()}
        )

    def nproducts(self, kind: ProductKind, x: PElement, y: PElement) -> dict[int, PElement]:
        """All nonzero n-th products of x and y at once, as {n: x_(n) y}."""
        return canonicalize(self.pprod(kind, x, y))

    def nth(self, kind: ProductKind, x: PElement, n: int, y: PElement) -> PElement:
        """The n-th product of x and y: the pseudoproduct split at n alone."""
        n = _index(n)
        return canonicalize(self.pprod(kind, x, y), (n,)).get(n) or PElement(self.alg)

    def star_expanded(self, kind: ProductKind, left, right):
        """Compose * with itself: three total slots at most.

        PElement * PElement gives a two-slot tensor; a two-slot tensor
        against a PElement (either side) gives a three-slot tensor by
        spreading the inner product's H-parts across the outer slots.
        """
        if isinstance(left, PElement) and isinstance(right, PElement):
            return self.pprod(kind, left, right)
        if isinstance(left, PseudoTensor) and isinstance(right, PElement):
            tensor_left = True
        elif isinstance(left, PElement) and isinstance(right, PseudoTensor):
            tensor_left = False
        else:
            raise TypeError("more than three total slots is not supported")
        out: dict[tuple[int, int, int], PElement] = {}
        for (i, j), p in (left if tensor_left else right).entries.items():
            inner = self.pprod(kind, p, right) if tensor_left else self.pprod(kind, left, p)
            for (u, w), r in inner.entries.items():
                # the inner slot that met the tensor is spread over its two slots
                for (a, b), c in _spread(u if tensor_left else w, 2):
                    key = (i + a, j + b, w) if tensor_left else (u, i + a, j + b)
                    accumulate(out, key, r.scale(c))
        return PseudoTensor3._of(self.alg, out)

    def assoc_check(self, kind: ProductKind, x: PElement, y: PElement, z: PElement) -> bool:
        """(x * y) * z == x * (y * z) as three-slot tensors."""
        left = self.star_expanded(kind, self.pprod(kind, x, y), z)
        right = self.star_expanded(kind, x, self.pprod(kind, y, z))
        return left == right

    def pcommutator(self, x: PElement, y: PElement, kind: ProductKind = ProductKind.P8) -> PseudoTensor:
        """x * y - sigma_12(y * x)."""
        return self.pprod(kind, x, y) - self.pprod(kind, y, x).swap()

    def comm_nth(self, x: PElement, n: int, y: PElement, kind: ProductKind = ProductKind.P8) -> PElement:
        n = _index(n)
        return canonicalize(self.pcommutator(x, y, kind), (n,)).get(n) or PElement(self.alg)

    def _eval_tree(self, kind: ProductKind, tree, sigma: tuple[int, ...], args):
        if isinstance(tree, int):
            return args[sigma[tree - 1] - 1]
        left = self._eval_tree(kind, tree[0], sigma, args)
        right = self._eval_tree(kind, tree[1], sigma, args)
        return self.star_expanded(kind, left, right)

    def eval_identity(
        self,
        terms: Iterable[IdentityTerm],
        kind: ProductKind,
        args: "list[PElement] | tuple[PElement, ...]",
    ) -> dict[tuple[int, ...], PElement]:
        """Evaluate a poly-linear identity on concrete arguments.

        Returns the canonical coordinates of the sum in sorted key order:
        keys are () for one argument, (n,) for two, (i, j) for three.  Empty
        dict means zero, so an identity holds exactly when the result is {}.
        """
        n = len(args)
        if not 1 <= n <= 3:
            raise ValueError("between one and three arguments are supported")
        for a in args:
            if not isinstance(a, PElement):
                raise TypeError("arguments must be PElement values")
        acc = None
        for term in terms:
            sigma = tuple(term.sigma)
            if sorted(sigma) != list(range(1, n + 1)):
                raise ValueError(f"sigma is not a permutation of 1..{n}: {sigma!r}")
            leaves: list[int] = []
            _tree_leaves(term.tree, leaves)
            if sorted(leaves) != list(range(1, n + 1)):
                raise ValueError(f"tree must use each argument exactly once: {term.tree!r}")
            coeff = exact(term.coeff)
            value = self._eval_tree(kind, term.tree, sigma, args)
            if isinstance(value, _SlotTensor):
                value = value.permute(sigma)
            value = value.scale(coeff)
            acc = value if acc is None else acc + value
        if acc is None:
            return {}
        if n == 1:
            return {(): acc} if acc else {}
        return dict(sorted(acc.canonical().items()))


def as_rng(seed) -> random.Random:
    """Accept either a seed or an already-built Random instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


_COEFF_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
)


def random_word(seed, alg: AlgebraConfig, max_len: int = DEFAULT_MAX_WORD_LEN, min_len: int = 0) -> Word:
    rng = as_rng(seed)
    k = rng.randint(min_len, max_len)
    w = tuple(rng.randrange(alg.V + 1) for _ in range(k))
    return tuple(sorted(w)) if alg.commutative else w


def random_ncpoly(
    seed,
    alg: AlgebraConfig,
    *,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    max_terms: int = 2,
    nonzero: bool = True,
) -> NCPoly:
    rng = as_rng(seed)
    for _ in range(100):
        terms: dict[Word, Fraction] = {}
        for _ in range(rng.randint(1, max_terms)):
            w = random_word(rng, alg, max_len)
            c = rng.choice(_COEFF_POOL)
            terms[w] = terms.get(w, Fraction(0)) + c
        poly = NCPoly(alg, terms)
        if poly or not nonzero:
            return poly
    raise RuntimeError("could not draw a nonzero polynomial")


def random_pelement(
    seed,
    alg: AlgebraConfig,
    *,
    max_d: int = DEFAULT_MAX_D,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    max_terms: int = 2,
    nonzero: bool = True,
) -> PElement:
    rng = as_rng(seed)
    for _ in range(100):
        parts: dict[int, NCPoly] = {}
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(0, max_d)
            f = random_ncpoly(rng, alg, max_len=max_len, max_terms=max_terms, nonzero=False)
            if d in parts:
                parts[d] = parts[d] + f
            else:
                parts[d] = f
        p = PElement(alg, parts)
        if p or not nonzero:
            return p
    raise RuntimeError("could not draw a nonzero element")
