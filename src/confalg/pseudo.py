"""Pseudoalgebra engine over H = Q[D].

Implements the comodule pseudoproducts on H (x) A, canonical forms of the
resulting two- and three-slot tensors, extraction of the n-th products, the
expanded composition of * on three arguments, associativity and poly-linear
identity checking, and the pseudocommutator.  The random elements these
checks run on are drawn in confalg.checks.

A tensor of either arity is stored in its one form in H (x) H (x) A or
H (x) H (x) H (x) A, so equality is dict equality.  Both arities use
confalg.hopf's formulas: split() reads each entry's last two slots from the
memo _unit_row, at the requested n alone or at every n, then decomposes the
earlier slots, and gives the canonical form as a plain dict; the tensor
constructor and star_expanded share D-powers by its coproduct _spread.

The products run on int numerators where they can.  pprod divides each
coaction component s by s! once, exactly for an int polynomial under the
standard coaction, so int arguments give an int tensor.  assoc_check and
eval_identity clear each argument's denominators once (_cleared), compute
on ints, and eval_identity divides its result once per coefficient.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from operator import add

from .hopf import HPoly, TensorHH, _index, _spread, decompose
from .linear import AlgLinear, Linear, accumulate, collect, exact, integral
from .ncpoly import AlgebraConfig, ConfigError, NCPoly

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

    def d_shift(self, k: int = 1) -> "PElement":
        """Multiply by D^k on the H slot."""
        if k < 0:
            raise ValueError("negative shift")
        return self._new({d + k: f for d, f in self.parts.items()})

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for d in sorted(self.parts):
            head = "1" if d == 0 else ("D" if d == 1 else f"D^{d}")
            bits.append(f"{head}(x)({self.parts[d]!r})")
        return " + ".join(bits)


class _SlotTensor(AlgLinear):
    """{(i_1, ..., i_m): f} meaning sum (D^i_1 (x) ... (x) D^i_m) (x) f.

    H^(x)m is free over H, so (H^(x)m) (x)_H A is H^(x)m (x) A and this form
    is unique: equality and truth are those of the dict.  The public
    constructor takes an NCPoly f at a key as it is, and a PElement p as
    (D^i_1 (x) ... (x) D^i_m) (x)_H p, spreading each D^d of p across the
    slots by the coproduct (_spread).
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

    def _collect(self, terms) -> dict:
        pairs = []
        for key, value in (terms or {}).items():
            key = self._key(key)
            if isinstance(value, NCPoly):
                pairs.append((key, value))
            elif isinstance(value, PElement):
                pairs.extend(
                    (tuple(map(add, key, powers)), f if c == 1 else f.scale(c))
                    for d, f in value.parts.items()
                    for powers, c in _spread(d, self._slots)
                )
            else:
                raise TypeError(f"expected an NCPoly or a PElement, not {type(value).__name__}")
        return collect(pairs)

    def permute(self, sigma: tuple[int, ...]):
        """Move slot m's content to slot sigma(m); legitimate because the
        coproduct of D is symmetric."""
        if sorted(sigma) != list(range(1, self._slots + 1)):
            raise ValueError(f"not a permutation of 1..{self._slots}: {sigma!r}")
        source = [sigma.index(dest) for dest in range(1, self._slots + 1)]
        return self._new({tuple(key[m] for m in source): f for key, f in self.entries.items()})

    def split(self, ns: Iterable[int] | None = None) -> dict[tuple[int, ...], PElement]:
        """Unique coordinates over ((-D)^(n_1) (x) ... (x) (-D)^(n_(m-1)) (x) 1), h acting on P.

        The canonical form of every arity: keys (n,) for two slots, (I, J)
        for three.  Each entry's last two slots D^i (x) D^j are split by the
        memo _unit_row, at each n in ns when ns is given and at every n in
        [i, i + j] otherwise (the last coordinate takes no other value),
        then each earlier slot against the merged right-hand h (decompose is
        linear, Delta coassociative); seeded with the int 1, every h has int
        coefficients, so int values stay ints.  Each n in ns must be a
        nonnegative int, checked here, before the memo, so that a zero
        tensor refuses what a nonzero one does and True is not read as 1:
        TypeError or ValueError otherwise.
        """
        ns = None if ns is None else tuple(map(_index, ns))
        alg = self.alg
        acc: dict[tuple[int, ...], PElement] = {}
        for key, f in self.entries.items():
            i, j = key[-2:]
            rows = range(i, i + j + 1) if ns is None else ns
            parts = {(n,): h for n in rows if (h := _unit_row(i, j, n)) is not None}
            for k in reversed(key[:-2]):
                parts = {
                    (m,) + rest: g
                    for rest, h in parts.items()
                    for m, g in decompose(TensorHH._of({(k, e): c for e, c in h.coeffs.items()})).items()
                }
            for idx, h in parts.items():
                for m, c in h.coeffs.items():
                    accumulate(acc, idx, PElement._of(alg, {m: f.scale(c)}))
        return acc

    def flatten(self) -> dict[tuple[int, ...], NCPoly]:
        """The entries as a plain dict: the unique H^(x)m (x) A form."""
        return dict(self.entries)

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            "(" + "(x)".join(f"D^{i}" for i in key) + f")(x)({self.entries[key]!r})"
            for key in sorted(self.entries)
        )


@functools.lru_cache(maxsize=256)  # like _spread; a table splits a few units only
def _unit_row(i: int, j: int, n: int) -> HPoly | None:
    """Row n of decompose(D^i (x) D^j), None when there is none; built once
    per process.

    A row at one n has one term, so the memo holds at most 256 terms.  It
    is keyed by n, not by the requested ns: a key over ns would keep all
    of a wide request's rows alive, and one cprods of D^3000 b over
    range(3003) would leave 22 MiB of them.  split reads every row here,
    with ns or without, so a unit split at every n is j + 1 lookups.
    decompose is looked up at call time, where bench/spans.py wraps it, so
    a span counts misses alone.  Nothing writes to a cached HPoly.
    """
    return decompose(TensorHH._of({(i, j): 1}), (n,)).get(n)


class PseudoTensor(_SlotTensor):
    """Two-slot tensor {(i, j): f} of sum (D^i (x) D^j) (x) f in H (x) H (x) A."""

    __slots__ = ()
    _slots = 2
    flatten = _SlotTensor.flatten  # own attribute, so tracing can wrap it
    canonical = _SlotTensor.split  # {(n,): c_n} over ((-D)^(n) (x) 1)


def canonicalize(t: PseudoTensor, ns: Iterable[int] | None = None) -> dict[int, PElement]:
    """{n: c_n} for t = sum_n ((-D)^(n) (x) 1) (x)_H c_n, at the n in ns alone
    when ns is given.  When t is a pseudoproduct x * y, c_n is the n-th
    product of x and y."""
    return {n: c for (n,), c in t.split(ns).items()}


class PseudoTensor3(_SlotTensor):
    """Three-slot tensor {(i, j, k): f} of sum (D^i (x) D^j (x) D^k) (x) f."""

    __slots__ = ()
    _slots = 3
    flatten = _SlotTensor.flatten  # own attributes, so tracing can wrap them
    canonical = _SlotTensor.split  # {(I, J): c} over ((-D)^(I) (x) (-D)^(J) (x) 1)


class IdentityTerm(namedtuple("IdentityTerm", ("sigma", "tree", "coeff"), defaults=(1,))):
    """One summand of a poly-linear identity, IdentityTerm(sigma, tree, coeff=1).

    The binary tree (an int leaf or a pair of trees) is evaluated with
    argument sigma(i) at leaf i, the free H slots of the result are
    permuted by sigma, and the whole is scaled by coeff.
    """

    __slots__ = ()


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

    def _rules(self, kind: ProductKind) -> tuple[bool, bool, int]:
        kind = ProductKind(kind)
        if kind is ProductKind.P20 and not self.alg.commutative:
            raise ConfigError("the coupled product needs a commutative word algebra")
        return _KIND_RULES[kind]

    def _coacted(self, parts, coact: bool) -> list[tuple[int, dict[int, NCPoly]]]:
        """The (d, f) parts as (d, {s: g_s / s!}), each coaction component
        divided once; an argument that is not coacted keeps its whole
        polynomial at s = 0."""
        if not coact:
            return [(d, {0: f}) for d, f in parts]
        coaction = self.coaction
        return [(d, {s: _divided(g, s) for s, g in coaction(f).items()}) for d, f in parts]

    def pprod(self, kind: ProductKind, x: PElement, y: PElement) -> PseudoTensor:
        """The pseudoproduct x * y as a two-slot tensor.

        x's coaction part D^(t) goes to slot 2 and y's D^(s) to slot 1, with
        coefficient sign^(s+t) / (s! t!); an argument that is not coacted
        keeps its whole polynomial at t = 0 (or s = 0).  Each component is
        divided by its factorial once, before the products (_divided), so
        int arguments under the standard coaction give an int tensor.
        """
        coact_x, coact_y, sign = self._rules(kind)
        xs = self._coacted(x.parts.items(), coact_x)
        ys = self._coacted(y.parts.items(), coact_y)
        return PseudoTensor._of(self.alg, _product(xs, ys, sign))

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
        spreading the inner product's H-parts across the outer slots.  The
        PElement side is coacted once, for every entry of the tensor side;
        each entry f stands at D^0 of its own H-part.
        """
        if isinstance(left, PElement) and isinstance(right, PElement):
            return self.pprod(kind, left, right)
        if isinstance(left, PseudoTensor) and isinstance(right, PElement):
            tensor_left = True
        elif isinstance(left, PElement) and isinstance(right, PseudoTensor):
            tensor_left = False
        else:
            raise TypeError("more than three total slots is not supported")
        coact_x, coact_y, sign = self._rules(kind)
        if tensor_left:
            tensor, fixed = left, self._coacted(right.parts.items(), coact_y)
        else:
            tensor, fixed = right, self._coacted(left.parts.items(), coact_x)
        out: dict[tuple[int, int, int], NCPoly] = {}
        for (i, j), f in tensor.entries.items():
            if tensor_left:
                inner = _product(self._coacted(((0, f),), coact_x), fixed, sign)
            else:
                inner = _product(fixed, self._coacted(((0, f),), coact_y), sign)
            for (u, w), r in inner.items():
                # the inner slot that met the tensor is spread over its two slots
                for (a, b), c in _spread(u if tensor_left else w, 2):
                    key = (i + a, j + b, w) if tensor_left else (u, i + a, j + b)
                    accumulate(out, key, r if c == 1 else r.scale(c))
        return PseudoTensor3._of(self.alg, out)

    def assoc_check(self, kind: ProductKind, x: PElement, y: PElement, z: PElement) -> bool:
        """(x * y) * z == x * (y * z) as three-slot tensors.

        Both sides are compared on the int numerators Lx x, Ly y and Lz z
        (_cleared): each side is trilinear, so both scale by Lx Ly Lz.  They
        are compared through flatten, which bench/spans.py times.
        """
        x, y, z = (_cleared(a)[0] for a in (x, y, z))
        left = self.star_expanded(kind, self.pprod(kind, x, y), z)
        right = self.star_expanded(kind, x, self.pprod(kind, y, z))
        return left.flatten() == right.flatten()

    def comm_nth(self, x: PElement, n: int, y: PElement) -> PElement:
        """The n-th product of the P8 pseudocommutator x * y - sigma_12(y * x)."""
        n = _index(n)
        comm = self.pprod(ProductKind.P8, x, y) - self.pprod(ProductKind.P8, y, x).permute((2, 1))
        return canonicalize(comm, (n,)).get(n) or PElement(self.alg)

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
        terms = tuple(terms)
        for term in terms:
            sigma = tuple(term.sigma)
            if sorted(sigma) != list(range(1, n + 1)):
                raise ValueError(f"sigma is not a permutation of 1..{n}: {sigma!r}")
            leaves: list[int] = []
            _tree_leaves(term.tree, leaves)
            if sorted(leaves) != list(range(1, n + 1)):
                raise ValueError(f"tree must use each argument exactly once: {term.tree!r}")
        # Each term uses every argument once: evaluated on the int numerators
        # L_i args[i] and scaled by M coeff, M the lcm of the coefficients'
        # denominators, it and the sum are M prod L_i = den times the value.
        coeffs = [exact(term.coeff) for term in terms]
        den = common = math.lcm(*(c.denominator for c in coeffs))
        points = []
        for a in args:
            point, cleared = _cleared(a)
            points.append(point)
            den *= cleared
        acc = None
        for term, coeff in zip(terms, coeffs):
            sigma = tuple(term.sigma)
            value = self._eval_tree(kind, term.tree, sigma, points)
            if isinstance(value, _SlotTensor):
                value = value.permute(sigma)
            value = value.scale(coeff.numerator * (common // coeff.denominator))
            acc = value if acc is None else acc + value
        if acc is None:
            return {}
        if n == 1:
            return {(): _over(acc, den)} if acc else {}
        return {k: _over(p, den) for k, p in sorted(acc.canonical().items())}


def _product(xs, ys, sign: int) -> dict[tuple[int, int], NCPoly]:
    """{(d + s, e + t): sum of sign^(s+t) f_t g_s} over the _coacted parts
    (d, {t: f_t}) of x and (e, {s: g_s}) of y."""
    acc: dict[tuple[int, int], NCPoly] = {}
    for d, cf in xs:
        for e, cg in ys:
            for t, ft in cf.items():
                for s, gs in cg.items():
                    term = ft * gs
                    accumulate(acc, (d + s, e + t), -term if sign < 0 and (s + t) % 2 else term)
    return acc


def _cleared(p: PElement) -> tuple[PElement, int]:
    """(L p, L) with L the lcm of p's denominators: L p has int values."""
    den = math.lcm(*(c.denominator for f in p.parts.values() for c in f.terms.values()))
    return p._new({
        d: f._new({w: c.numerator * (den // c.denominator) for w, c in f.terms.items()})
        for d, f in p.parts.items()
    }), den


def _over(p: PElement, den: int) -> PElement:
    """p / den, one Fraction per coefficient."""
    return p._new({
        d: f._new({w: Fraction(c, den) for w, c in f.terms.items()}) for d, f in p.parts.items()
    })


def _divided(g: NCPoly, s: int) -> NCPoly:
    """g / s!, exactly.  An int that s! divides stays an int, anything else
    becomes a Fraction.  The standard coaction's component s of an int
    polynomial is its s-th iterated v-deletion sum, s! times a sum of
    binomial counts, so it always divides; a user-supplied coaction need
    not, and exactness does not rest on it."""
    if s < 2:
        return g
    k = math.factorial(s)
    return g._new({
        w: c // k if c.__class__ is int and not c % k else Fraction(c, k)
        for w, c in g.terms.items()
    })
