"""Randomized axiom checks, the library behind `confalg check`, and the
package's seeded draws.

An axiom is a list of named cases; a case draws its arguments and tests
them.  The loop is trial-major, so the same seed with t + 1 trials replays
a failure at trial t.  Conformal elements print in the expression grammar.

Every draw takes a seed or a random.Random (as_rng).  The draws of sums
share one sampler, _draw: it adds up a drawn number of (key, value) terms
and, unless told not to, draws again while the sum is zero.  Drawn keys
are canonical and the values come from _COEFF_POOL, so each sum is built
by its class's trusted constructor.
"""

from __future__ import annotations

import random
import shlex
from fractions import Fraction
from functools import partial

from .freeconf import ConfElement, FreeConformal, NormalWord
from .linear import collect
from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word
from .pseudo import COACTIONS, PElement, ProductKind, PseudoAlgebra
from .pseudo import associator_identity, commutativity_identity

DEFAULT_MAX_D = 3
DEFAULT_MAX_WORD_LEN = 4

_COEFF_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3))


def as_rng(seed) -> random.Random:
    """Accept either a seed or an already-built Random instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _draw(rng: random.Random, count: int, term, make, nonzero: bool):
    """make(the sum of rng.randint(1, count) terms term(rng)), each a
    (key, value) pair; drawn again while the sum is zero, unless nonzero
    is false.  Any draw may be one term of a nonzero pool value, so the
    loop ends."""
    while True:
        x = make(collect(term(rng) for _ in range(rng.randint(1, count))))
        if x or not nonzero:
            return x


def random_word(seed, alg: AlgebraConfig, max_len: int = DEFAULT_MAX_WORD_LEN) -> Word:
    rng = as_rng(seed)
    k = rng.randint(0, max_len)
    w = "".join(chr(rng.randrange(alg.V + 1)) for _ in range(k))
    return "".join(sorted(w)) if alg.commutative else w


def random_ncpoly(
    seed,
    alg: AlgebraConfig,
    *,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    max_terms: int = 2,
    nonzero: bool = True,
) -> NCPoly:
    def term(rng):
        return random_word(rng, alg, max_len), rng.choice(_COEFF_POOL)

    return _draw(as_rng(seed), max_terms, term, partial(NCPoly._of, alg), nonzero)


def random_pelement(
    seed,
    alg: AlgebraConfig,
    *,
    max_d: int = DEFAULT_MAX_D,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    max_terms: int = 2,
    nonzero: bool = True,
) -> PElement:
    def term(rng):
        d = rng.randint(0, max_d)
        return d, random_ncpoly(rng, alg, max_len=max_len, max_terms=max_terms, nonzero=False)

    return _draw(as_rng(seed), 2, term, partial(PElement._of, alg), nonzero)


def random_normal_word(seed, fc: FreeConformal, *, max_k: int = 2, max_s: int = 1) -> NormalWord:
    rng = as_rng(seed)
    alg = fc.alg
    k = rng.randint(0, max_k)
    gens = tuple(rng.choice(alg.names) for _ in range(k + 1))
    indices = tuple(rng.randrange(alg.n_of(gens[i + 1])) for i in range(k))
    return NormalWord(rng.randint(0, max_s), gens, indices)


def random_element(
    seed,
    fc: FreeConformal,
    *,
    max_k: int = 2,
    max_s: int = 1,
    max_terms: int = 2,
    nonzero: bool = True,
) -> ConfElement:
    def term(rng):
        return random_normal_word(rng, fc, max_k=max_k, max_s=max_s), rng.choice(_COEFF_POOL)

    return _draw(as_rng(seed), max_terms, term, ConfElement._of, nonzero)


CONFORMAL_AXIOMS = ("assoc", "sesqui", "locality")
AXIOMS = CONFORMAL_AXIOMS + ("pseudo-assoc", "identity")


def _show(fc: FreeConformal, **elements: ConfElement) -> str:
    return " ".join(f"{k}={shlex.quote(fc.element_to_text(v))}" for k, v in elements.items())


def _assoc(fc: FreeConformal, x, y, z, n: int, m: int):
    defect = fc.associativity_defect(x, n, y, m, z)
    if defect:
        return f"n={n} m={m} {_show(fc, x=x, y=y, z=z, defect=defect)}"


def _sesqui(fc: FreeConformal, x, y, n: int):
    """(Dx)_(n) y = -n x_(n-1) y and x_(n) Dy = D(x_(n) y) + n x_(n-1) y."""
    xy = fc.cprods(x, y, range(max(n - 1, 0), n + 1))
    below = xy[n - 1].scale(n) if n >= 1 else ConfElement()
    if fc.cprod(x.d_shift(1), n, y) != -below:
        return f"left slot, n={n} {_show(fc, x=x, y=y)}"
    if fc.cprod(x, n, y.d_shift(1)) != xy[n].d_shift(1) + below:
        return f"right slot, n={n} {_show(fc, x=x, y=y)}"


def _locality(fc: FreeConformal, x, y):
    """x_(n) y = 0 for every n >= N = locality_of(x, y), and x_(N-1) y != 0."""
    bound = fc.locality_of(x, y)
    xy = fc.cprods(x, y, range(max(bound - 1, 0), bound + 3))
    if any(xy[bound + extra] for extra in range(3)):
        return f"nonzero above N={bound}, {_show(fc, x=x, y=y)}"
    if bound > 0 and not xy[bound - 1]:
        return f"N={bound} not minimal, {_show(fc, x=x, y=y)}"


def _pseudo_assoc(pa: PseudoAlgebra, kind: ProductKind, x, y, z):
    if not pa.assoc_check(kind, x, y, z):
        return f"x={x!r} y={y!r} z={z!r}"


def _identity(pa: PseudoAlgebra, terms, kind: ProductKind, *points):
    value = pa.eval_identity(terms, kind, points)
    if value:
        return f"args={list(points)!r} value={value!r}"


def _pelements(alg: AlgebraConfig, count: int, rng) -> list:
    return [random_pelement(rng, alg, max_d=2, max_len=3) for _ in range(count)]


# axiom -> (test, elements drawn, then indices drawn in 0..2 * max_n)
_CONFORMAL = {"assoc": (_assoc, 3, 2), "sesqui": (_sesqui, 2, 1), "locality": (_locality, 2, 0)}


def _cases(alg: AlgebraConfig, axiom: str, coaction: str) -> tuple[str, list]:
    """The PASS-line label and the (name, draw, test) cases of an axiom."""
    if axiom in CONFORMAL_AXIOMS:
        fc = FreeConformal(alg)
        test, elements, indices = _CONFORMAL[axiom]
        top = 2 * max(alg.n.values())

        def draw(rng) -> list:
            args = [random_element(rng, fc, max_k=1, max_s=1) for _ in range(elements)]
            return args + [rng.randint(0, top) for _ in range(indices)]

        return "", [("", draw, partial(test, fc))]
    pa = PseudoAlgebra(alg, COACTIONS[coaction])
    if axiom == "pseudo-assoc":
        kinds = ("P10", "P20") if alg.commutative else ("P8", "P9", "P11")
        return "kinds " + ",".join(kinds), [
            (f"kind {k}", partial(_pelements, alg, 3), partial(_pseudo_assoc, pa, ProductKind(k)))
            for k in kinds
        ]
    kind = ProductKind.P20 if alg.commutative else ProductKind.P8
    identities = [("commutativity", commutativity_identity(), 2)] if alg.commutative else []
    identities.append(("associator", associator_identity(), 3))
    return ",".join(name for name, _, _ in identities), [
        (f"{name} under {kind.value}", partial(_pelements, alg, arity), partial(_identity, pa, terms, kind))
        for name, terms, arity in identities
    ]


def run(
    alg: AlgebraConfig, axiom: str, trials: int, seed, coaction: str = "standard"
) -> tuple[str, tuple[int, str, str] | None]:
    """Check axiom on trials seeded draws; coaction names an entry of COACTIONS.

    Returns the PASS-line label ("" for the conformal axioms) and either
    None or the first failure as (trial, case, detail).  A conformal axiom
    on a commutative config raises ConfigError from FreeConformal.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom: {axiom!r}")
    if axiom in CONFORMAL_AXIOMS and coaction != "standard":
        raise ConfigError("--coaction only affects pseudo-assoc and identity")
    label, cases = _cases(alg, axiom, coaction)
    rng = as_rng(seed)
    for t in range(trials):
        for name, draw, test in cases:
            detail = test(*draw(rng))
            if detail is not None:
                return label, (t, name, detail)
    return label, None
