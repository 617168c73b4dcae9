"""Exact Witt ring arithmetic for smooth projective curves over odd finite fields.

The library builds the base Witt ring of F_q from concrete bilinear forms,
models curve-level Witt classes by rank parity, a unit twist, and a
2-torsion line bundle, and verifies the group ring quotient presentation by
brute force at small 2-rank.
"""

from .curve import (
    WittClass,
    enumerate_classes,
    reduce_word,
    signed_discriminant_class,
)
from .fields import (
    FieldElement,
    FiniteField,
    SquareClass,
    canonical_nonsquare,
    is_square,
    make_field,
    minus_one_class,
    square_class,
)
from .forms import (
    DegenerateFormError,
    DiagonalForm,
    GramForm,
    WittInvariants,
    diagonalize,
    diagonalize_with_basis,
    find_isotropic_vector,
    hyperbolic_plane,
    orthogonal_sum,
    signed_discriminant,
    tensor_product,
    witt_decompose,
    witt_equal,
    witt_invariants,
)
from .groupring import (
    GroupRingElement,
    RelationGenerator,
    all_elements,
    ideal_closure,
    normal_form,
    relation_generators,
    verify_isomorphism,
)
from .pic2 import Pic2Group, PicElement
from .verify import CheckResult, run_all
from .wittk import WittK, from_concrete_form, verify_bullets

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DegenerateFormError",
    "DiagonalForm",
    "FieldElement",
    "FiniteField",
    "GramForm",
    "GroupRingElement",
    "Pic2Group",
    "PicElement",
    "RelationGenerator",
    "SquareClass",
    "WittClass",
    "WittInvariants",
    "WittK",
    "all_elements",
    "canonical_nonsquare",
    "diagonalize",
    "diagonalize_with_basis",
    "enumerate_classes",
    "find_isotropic_vector",
    "from_concrete_form",
    "hyperbolic_plane",
    "ideal_closure",
    "is_square",
    "make_field",
    "minus_one_class",
    "normal_form",
    "orthogonal_sum",
    "reduce_word",
    "relation_generators",
    "run_all",
    "signed_discriminant",
    "signed_discriminant_class",
    "square_class",
    "tensor_product",
    "verify_bullets",
    "verify_isomorphism",
    "witt_decompose",
    "witt_equal",
    "witt_invariants",
    "__version__",
]
