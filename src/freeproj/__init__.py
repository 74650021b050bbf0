"""freeproj: exact computations with graded modules over a free algebra.

The package realizes three equivalent pictures of the coherent objects over
the noncommutative projective space of a free algebra: stable-free profiles
of finitely presented graded modules, the direct-limit matrix algebra acting
as endomorphisms of the structure object, and the Leavitt algebra with its
confluent monomial rewriting.  All arithmetic is exact.
"""

from .af_s import AFMatrix
from .fields import GF, QQ, field_from_spec
from .fpmod import FpModule, FpModuleMorphism, StableProfile, Torsion
from .freealg import FreeAlgebra, FreeModuleElement, GradedFreeModule, ModuleMap, NcPoly
from .leavitt import (
    LeavittElement,
    flat_decompose,
    flat_reassemble,
    l0_to_s,
    s_to_l0,
    strongly_graded_witness,
    tensor_vanishes,
)
from .qgr import (
    DecompositionPair,
    QgrClass,
    QgrObject,
    ext1_k_R_dim,
    is_isomorphic,
    normalized_rank,
    pi_star,
    split_sequence,
    tower_morphism,
)
from .submodules import FreeBasis, kernel, weak_basis

__version__ = "0.1.0"

__all__ = [
    "AFMatrix",
    "GF",
    "QQ",
    "field_from_spec",
    "FpModule",
    "FpModuleMorphism",
    "StableProfile",
    "Torsion",
    "FreeAlgebra",
    "FreeModuleElement",
    "GradedFreeModule",
    "ModuleMap",
    "NcPoly",
    "LeavittElement",
    "flat_decompose",
    "flat_reassemble",
    "l0_to_s",
    "s_to_l0",
    "strongly_graded_witness",
    "tensor_vanishes",
    "DecompositionPair",
    "QgrClass",
    "QgrObject",
    "ext1_k_R_dim",
    "is_isomorphic",
    "normalized_rank",
    "pi_star",
    "split_sequence",
    "tower_morphism",
    "FreeBasis",
    "kernel",
    "weak_basis",
    "__version__",
]
