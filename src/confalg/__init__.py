"""Exact symbolic computations in free associative conformal algebras.

The kernel is built from four layers: polynomial Hopf arithmetic in the
derivation D (hopf), free words over the alphabet plus the marker letter v
(ncpoly), comodule pseudoproducts with their canonical forms (pseudo), and
the free conformal algebra itself with its realization engine (freeconf).
Its rewriting engine (rewrite) shares only the normal words (words) with
it.  A small expression language (exprs), seeded axiom checks with their
random draws (checks) and a CLI (cli) sit on top.
"""

from .hopf import HPoly, TensorHH, decompose
from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .pseudo import (
    COACTIONS,
    IdentityTerm,
    PElement,
    ProductKind,
    PseudoAlgebra,
    PseudoTensor,
    PseudoTensor3,
    associator_identity,
    canonicalize,
    commutativity_identity,
    corrupt_coaction,
    current_coaction,
    standard_coaction,
)
from .freeconf import (
    ConfElement,
    FreeConformal,
    NormalWord,
    NotInSpan,
    generator_image,
)
from .checks import (
    as_rng,
    random_element,
    random_ncpoly,
    random_normal_word,
    random_pelement,
    random_word,
)
from .exprs import ParseError, evaluate, evaluate_pseudo, parse

__all__ = [
    "AlgebraConfig",
    "COACTIONS",
    "ConfElement",
    "ConfigError",
    "FreeConformal",
    "HPoly",
    "IdentityTerm",
    "NCPoly",
    "NormalWord",
    "NotInSpan",
    "ParseError",
    "PElement",
    "ProductKind",
    "PseudoAlgebra",
    "PseudoTensor",
    "PseudoTensor3",
    "TensorHH",
    "Word",
    "as_rng",
    "associator_identity",
    "canonicalize",
    "commutativity_identity",
    "corrupt_coaction",
    "current_coaction",
    "decompose",
    "deglex_key",
    "evaluate",
    "evaluate_pseudo",
    "generator_image",
    "parse",
    "random_element",
    "random_ncpoly",
    "random_normal_word",
    "random_pelement",
    "random_word",
    "standard_coaction",
]
