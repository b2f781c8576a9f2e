"""Exact symbolic computations in free associative conformal algebras.

The kernel is built from four layers: polynomial Hopf arithmetic in the
derivation D (hopf), free words over the alphabet plus the marker letter v
(ncpoly), comodule pseudoproducts with their canonical forms (pseudo), and
the free conformal algebra itself with two independent product engines
(freeconf).  A small expression language (exprs) and a CLI (cli) sit on top.
"""

from .hopf import HPoly, Scalar, TensorHH, antipode, binomial, comult, counit, decompose, recompose
from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .pseudo import (
    COACTIONS,
    CanonicalPseudo,
    IdentityTerm,
    PElement,
    ProductKind,
    PseudoAlgebra,
    PseudoTensor,
    PseudoTensor3,
    as_rng,
    associator_identity,
    canonicalize,
    commutativity_identity,
    corrupt_coaction,
    current_coaction,
    random_ncpoly,
    random_pelement,
    random_word,
    standard_coaction,
)
from .freeconf import (
    ConfElement,
    FreeConformal,
    NormalWord,
    NotInSpan,
    generator_image,
    random_element,
    random_normal_word,
)
from .exprs import ParseError, evaluate, evaluate_pseudo, parse

__all__ = [
    "AlgebraConfig",
    "CanonicalPseudo",
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
    "Scalar",
    "TensorHH",
    "Word",
    "antipode",
    "as_rng",
    "associator_identity",
    "binomial",
    "canonicalize",
    "commutativity_identity",
    "comult",
    "corrupt_coaction",
    "counit",
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
    "recompose",
    "standard_coaction",
]
