"""Pseudoalgebra engine over H = Q[D].

Implements the comodule pseudoproducts on H (x) A, canonical forms of the
resulting two- and three-slot tensors, extraction of the n-th products, the
expanded composition of * on three arguments, associativity and poly-linear
identity checking, and the pseudocommutator.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .hopf import HPoly, TensorHH, binomial, decompose
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


class PseudoTensor(AlgLinear):
    """Presentation {(i, j): p} of sum (D^i (x) D^j) (x)_H p over H.

    Presentations are not unique; equality and truth testing go through
    the flattened H (x) H (x) A form, which is.
    """

    __slots__ = ()
    _nested = True
    entries = Linear.terms
    _key = TensorHH._key

    def swap(self) -> "PseudoTensor":
        """Exchange the two free H slots (sigma_12)."""
        return self._new({(j, i): p for (i, j), p in self.entries.items()})

    def flatten(self) -> dict[tuple[int, int], NCPoly]:
        """Unique form in H (x) H (x) A: push each P-part's D across (x)_H."""
        flat: dict[tuple[int, int], NCPoly] = {}
        for (i, j), p in self.entries.items():
            for d, f in p.parts.items():
                for a in range(d + 1):
                    accumulate(flat, (i + a, j + d - a), f.scale(binomial(d, a)))
        return flat

    def __bool__(self) -> bool:
        return bool(self.flatten())

    def __eq__(self, other) -> bool:
        return isinstance(other, PseudoTensor) and self.flatten() == other.flatten()

    def canonical(self) -> "CanonicalPseudo":
        return canonicalize(self)

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        bits = []
        for (i, j) in sorted(self.entries):
            bits.append(f"(D^{i}(x)D^{j})(x)H[{self.entries[(i, j)]!r}]")
        return " + ".join(bits)


class CanonicalPseudo(AlgLinear):
    """Unique form {n: c_n} for sum_n ((-D)^(n) (x) 1) (x)_H c_n.

    When the tensor is a pseudoproduct x * y, c_n is the n-th product of
    x and y.
    """

    __slots__ = ()
    _nested = True
    coeffs = Linear.terms

    def _key(self, n) -> int:
        return integral(n)

    def coeff(self, n: int) -> PElement:
        return self.coeffs.get(n) or PElement(self.alg)

    def max_index(self) -> int:
        """Largest n with c_n nonzero; -1 if all vanish."""
        return max(self.coeffs, default=-1)

    def expand(self) -> PseudoTensor:
        """Back to a two-slot presentation ((-D)^(n) (x) 1) (x)_H c_n."""
        return PseudoTensor._of(self.alg, {
            (n, 0): p.scale(Fraction((-1) ** n, math.factorial(n)))
            for n, p in self.coeffs.items()
        })

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"[n={n}]({self.coeffs[n]!r})" for n in sorted(self.coeffs))


_MONO_CACHE: dict[tuple[int, int], tuple[tuple[int, HPoly], ...]] = {}


def _monomial_parts(i: int, j: int) -> tuple[tuple[int, HPoly], ...]:
    hit = _MONO_CACHE.get((i, j))
    if hit is None:
        hit = tuple(sorted(decompose(TensorHH({(i, j): 1})).items()))
        _MONO_CACHE[(i, j)] = hit
    return hit


def canonicalize(t: PseudoTensor) -> CanonicalPseudo:
    """Rewrite a two-slot tensor over the basis ((-D)^(n) (x) 1).

    Each monomial D^i (x) D^j decomposes as sum_n ((-D)^(n) (x) 1) Delta(h_n);
    the h_n then act on the P slot.
    """
    acc: dict[int, PElement] = {}
    for (i, j), p in t.entries.items():
        for n, h in _monomial_parts(i, j):
            accumulate(acc, n, p.hpoly_mul(h))
    return CanonicalPseudo._of(t.alg, acc)


class PseudoTensor3(AlgLinear):
    """Presentation {(i, j, k): p} of sum (D^i (x) D^j (x) D^k) (x)_H p."""

    __slots__ = ()
    _nested = True
    entries = Linear.terms

    def _key(self, key) -> tuple[int, int, int]:
        i, j, k = key
        return (integral(i), integral(j), integral(k))

    def permute(self, sigma: tuple[int, int, int]) -> "PseudoTensor3":
        """Move slot m's content to slot sigma(m); legitimate because the
        coproduct of D is symmetric."""
        if sorted(sigma) != [1, 2, 3]:
            raise ValueError(f"not a permutation of 1..3: {sigma!r}")
        out: dict[tuple[int, int, int], PElement] = {}
        for key, p in self.entries.items():
            new = [0, 0, 0]
            for m in range(3):
                new[sigma[m] - 1] = key[m]
            out[tuple(new)] = p
        return self._new(out)

    def flatten(self) -> dict[tuple[int, int, int], NCPoly]:
        flat: dict[tuple[int, int, int], NCPoly] = {}
        for (i, j, k), p in self.entries.items():
            for d, f in p.parts.items():
                for a in range(d + 1):
                    for b in range(d - a + 1):
                        c = d - a - b
                        coeff = math.factorial(d) // (
                            math.factorial(a) * math.factorial(b) * math.factorial(c)
                        )
                        accumulate(flat, (i + a, j + b, k + c), f.scale(coeff))
        return flat

    def __bool__(self) -> bool:
        return bool(self.flatten())

    def __eq__(self, other) -> bool:
        return isinstance(other, PseudoTensor3) and self.flatten() == other.flatten()

    def canonical(self) -> dict[tuple[int, int], PElement]:
        """Unique coordinates over the basis ((-D)^(I) (x) (-D)^(J) (x) 1).

        Substitute x1 = D(x)1(x)1, x2 = 1(x)D(x)1 and z for the image of D
        under the iterated coproduct; the z-polynomial at x1^I x2^J acts on
        the P slot.
        """
        acc: dict[tuple[int, int], dict[int, NCPoly]] = {}
        for (i, j, k), f in self.flatten().items():
            for a in range(k + 1):
                for b in range(k - a + 1):
                    g = k - a - b
                    c = Fraction(
                        math.factorial(k) * (-1) ** (a + b),
                        math.factorial(a) * math.factorial(b) * math.factorial(g),
                    )
                    accumulate(acc.setdefault((i + a, j + b), {}), g, f.scale(c))
        out: dict[tuple[int, int], PElement] = {}
        for (i, j), row in acc.items():
            if row:
                w = (-1) ** (i + j) * math.factorial(i) * math.factorial(j)
                out[(i, j)] = PElement._of(self.alg, {g: poly.scale(w) for g, poly in row.items()})
        return out

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        bits = []
        for (i, j, k) in sorted(self.entries):
            bits.append(f"(D^{i}(x)D^{j}(x)D^{k})(x)H[{self.entries[(i, j, k)]!r}]")
        return " + ".join(bits)


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
        """The pseudoproduct x * y as a two-slot tensor."""
        kind = ProductKind(kind)
        if kind is ProductKind.P20 and not self.alg.commutative:
            raise ConfigError("the coupled product needs a commutative word algebra")
        acc: dict[tuple[int, int], NCPoly] = {}
        for d, f in x.parts.items():
            for e, g in y.parts.items():
                if kind is ProductKind.P8:
                    for s, gs in self.coaction(g).items():
                        accumulate(acc, (d + s, e), (f * gs).scale(Fraction(1, math.factorial(s))))
                elif kind is ProductKind.P9:
                    for s, fs in self.coaction(f).items():
                        accumulate(acc, (d, e + s), (fs * g).scale(Fraction((-1) ** s, math.factorial(s))))
                elif kind is ProductKind.P10:
                    for s, fs in self.coaction(f).items():
                        accumulate(acc, (d, e + s), (fs * g).scale(Fraction(1, math.factorial(s))))
                elif kind is ProductKind.P11:
                    for s, gs in self.coaction(g).items():
                        accumulate(acc, (d + s, e), (f * gs).scale(Fraction((-1) ** s, math.factorial(s))))
                else:
                    cf = self.coaction(f)
                    cg = self.coaction(g)
                    for t, ft in cf.items():
                        for s, gs in cg.items():
                            accumulate(
                                acc,
                                (d + s, e + t),
                                (ft * gs).scale(Fraction(1, math.factorial(s) * math.factorial(t))),
                            )
        return PseudoTensor._of(
            self.alg, {k: PElement._of(self.alg, {0: v}) for k, v in acc.items()}
        )

    def nproducts(self, kind: ProductKind, x: PElement, y: PElement) -> CanonicalPseudo:
        """All n-th products of x and y at once."""
        return canonicalize(self.pprod(kind, x, y))

    def nth(self, kind: ProductKind, x: PElement, n: int, y: PElement) -> PElement:
        if n < 0:
            raise ValueError("product index must be nonnegative")
        return self.nproducts(kind, x, y).coeff(n)

    def star_expanded(self, kind: ProductKind, left, right):
        """Compose * with itself: three total slots at most.

        PElement * PElement gives a two-slot tensor; a two-slot tensor
        against a PElement (either side) gives a three-slot tensor by
        spreading the inner product's H-parts across the outer slots.
        """
        if isinstance(left, PElement) and isinstance(right, PElement):
            return self.pprod(kind, left, right)
        if isinstance(left, PseudoTensor) and isinstance(right, PElement):
            out: dict[tuple[int, int, int], PElement] = {}
            for (i, j), p in left.entries.items():
                inner = self.pprod(kind, p, right)
                for (u, w), r in inner.entries.items():
                    for a in range(u + 1):
                        accumulate(out, (i + a, j + u - a, w), r.scale(binomial(u, a)))
            return PseudoTensor3._of(self.alg, out)
        if isinstance(left, PElement) and isinstance(right, PseudoTensor):
            out = {}
            for (i, j), q in right.entries.items():
                inner = self.pprod(kind, left, q)
                for (u, w), r in inner.entries.items():
                    for a in range(w + 1):
                        accumulate(out, (u, i + a, j + w - a), r.scale(binomial(w, a)))
            return PseudoTensor3._of(self.alg, out)
        raise TypeError("more than three total slots is not supported")

    def assoc_check(self, kind: ProductKind, x: PElement, y: PElement, z: PElement) -> bool:
        """(x * y) * z == x * (y * z) as three-slot tensors."""
        left = self.star_expanded(kind, self.pprod(kind, x, y), z)
        right = self.star_expanded(kind, x, self.pprod(kind, y, z))
        return left == right

    def pcommutator(self, x: PElement, y: PElement, kind: ProductKind = ProductKind.P8) -> PseudoTensor:
        """x * y - sigma_12(y * x)."""
        return self.pprod(kind, x, y) - self.pprod(kind, y, x).swap()

    def comm_nth(self, x: PElement, n: int, y: PElement, kind: ProductKind = ProductKind.P8) -> PElement:
        return canonicalize(self.pcommutator(x, y, kind)).coeff(n)

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

        Returns the canonical coordinates of the sum: keys are () for one
        argument, (n,) for two, (i, j) for three.  Empty dict means zero,
        so an identity holds exactly when the result is {}.
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
            if isinstance(value, PseudoTensor):
                if sigma == (2, 1):
                    value = value.swap()
            elif isinstance(value, PseudoTensor3):
                value = value.permute(sigma)
            value = value.scale(coeff)
            acc = value if acc is None else acc + value
        if acc is None:
            return {}
        if n == 1:
            return {(): acc} if acc else {}
        if n == 2:
            return {(t,): p for t, p in canonicalize(acc).coeffs.items()}
        return {key: p for key, p in acc.canonical().items()}


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
