"""Randomized axiom checks, the library behind `confalg check`.

An axiom is a list of named cases; a case draws its arguments and tests
them.  The loop is trial-major, so the same seed with t + 1 trials replays
a failure at trial t.  Conformal elements print in the expression grammar.
"""

from __future__ import annotations

import shlex
from functools import partial

from .freeconf import ConfElement, FreeConformal, random_element
from .ncpoly import AlgebraConfig, ConfigError
from .pseudo import COACTIONS, ProductKind, PseudoAlgebra, as_rng, random_pelement
from .pseudo import associator_identity, commutativity_identity

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

        def draw(rng) -> list:
            args = [random_element(rng, fc, max_k=1, max_s=1) for _ in range(elements)]
            return args + [rng.randint(0, 2 * max(alg.n.values())) for _ in range(indices)]

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
