"""Gluing diagnostics for multi-pullbacks of finite-dimensional algebras over Q."""

from gluecheck.exactlin import Matrix, Subspace, kernel, image, quotient, rref, span
from gluecheck.algebra import Algebra, AlgebraHom, GluingFamily, quotient_algebra
from gluecheck.lattice import generate_lattice, is_distributive, check_distributive_family
from gluecheck.multipullback import (
    analyse,
    build_pullback,
    check_cocycle,
    check_condition2,
    check_condition3,
    check_theorem_equivalence,
    projection_surjective,
    repair,
)
from gluecheck.finset import FiniteGluing, dualize, duality_check, glue, check_embedding

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "Subspace",
    "kernel",
    "image",
    "quotient",
    "rref",
    "span",
    "Algebra",
    "AlgebraHom",
    "GluingFamily",
    "quotient_algebra",
    "generate_lattice",
    "is_distributive",
    "check_distributive_family",
    "analyse",
    "build_pullback",
    "check_cocycle",
    "check_condition2",
    "check_condition3",
    "check_theorem_equivalence",
    "projection_surjective",
    "repair",
    "FiniteGluing",
    "dualize",
    "duality_check",
    "glue",
    "check_embedding",
    "__version__",
]
