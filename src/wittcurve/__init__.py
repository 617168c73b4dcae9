"""Exact Witt ring arithmetic for smooth projective curves over odd finite fields.

The library builds the base Witt ring of F_q from concrete bilinear forms,
models curve-level Witt classes by rank parity, a unit twist, and a
2-torsion line bundle, and verifies the group ring quotient presentation by
brute force at small 2-rank.

Importing the package loads none of its layers. Each exported name is
resolved from its submodule on first access (PEP 562) and then stored in
the package namespace, so later lookups are plain attribute reads and a
program pays only for the layers it uses.
"""

import importlib

_EXPORTS = {
    "curve": ("WittClass", "enumerate_classes", "reduce_word", "signed_discriminant_class"),
    "fields": (
        "FieldElement",
        "FiniteField",
        "SquareClass",
        "canonical_nonsquare",
        "is_square",
        "make_field",
        "minus_one_class",
        "square_class",
    ),
    "forms": (
        "DegenerateFormError",
        "DiagonalForm",
        "GramForm",
        "WittInvariants",
        "diagonalize",
        "diagonalize_with_basis",
        "find_isotropic_vector",
        "hyperbolic_plane",
        "orthogonal_sum",
        "signed_discriminant",
        "tensor_product",
        "witt_decompose",
        "witt_equal",
        "witt_invariants",
    ),
    "groupring": (
        "GroupRingElement",
        "RelationGenerator",
        "all_elements",
        "ideal_closure",
        "normal_form",
        "relation_generators",
        "verify_isomorphism",
    ),
    "pic2": ("Pic2Group", "PicElement"),
    "verify": ("CheckResult", "run_all"),
    "wittk": ("WittK", "from_concrete_form", "verify_bullets"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE) + ["__version__"]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
