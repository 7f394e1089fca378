"""Exact matrix representations of real Clifford algebras.

The package constructs, for each supported signature (p, q), an invertible
change-of-basis matrix over the algebra itself that conjugates a diagonal
stack of an element into its faithful matrix image over R, C, H or the
doubled rings 2R / 2H, entirely in rational arithmetic, and verifies every
such identity symbolically.
"""

from .algebra import (
    AlgebraError,
    BladeWidthError,
    DecompositionError,
    DegenerateSignatureError,
    GeneratorList,
    Multivector,
    Signature,
    SignatureMismatchError,
    StructureError,
    blade_product,
    pseudoscalar_square,
    reindex,
)
from .catalog import (
    CatalogMissError,
    CORRECTIONS,
    RepSpec,
    catalog_signatures,
    catalog_text,
    classify,
    corrections_markdown,
    get_spec,
    routes_for,
)
from .represent import (
    NotInImageError,
    RepImage,
    element_charpoly,
    element_det,
    element_inverse,
    matrix_represent,
    reconstruct,
    represent,
)
from .text import ParseError, format_multivector, parse_multivector
from .verify import (
    CheckReport,
    EqualityViolationError,
    check_similarity,
    check_suite,
    oracle_represent,
    run_catalog_suite,
)

__all__ = [
    "AlgebraError",
    "BladeWidthError",
    "CORRECTIONS",
    "CatalogMissError",
    "CheckReport",
    "DecompositionError",
    "DegenerateSignatureError",
    "EqualityViolationError",
    "GeneratorList",
    "Multivector",
    "NotInImageError",
    "ParseError",
    "RepImage",
    "RepSpec",
    "Signature",
    "SignatureMismatchError",
    "StructureError",
    "blade_product",
    "catalog_signatures",
    "catalog_text",
    "check_similarity",
    "check_suite",
    "classify",
    "corrections_markdown",
    "element_charpoly",
    "element_det",
    "element_inverse",
    "format_multivector",
    "get_spec",
    "matrix_represent",
    "oracle_represent",
    "parse_multivector",
    "pseudoscalar_square",
    "reconstruct",
    "reindex",
    "represent",
    "routes_for",
    "run_catalog_suite",
]
