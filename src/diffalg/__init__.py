"""Exact symbolic algebra for difference-reflection operators and related structures.

Subpackage layout:

- poly: exact Laurent polynomial and rational function arithmetic
- weyl: permutations and root data
- daha: difference-reflection operators, generator words, idempotent sandwiches
- zalg: abelian convolution algebra, localized and commutative spherical classes
- ideals: symbolic power ideals, determinant bases, graded slices
- springer: graded modules over symmetric class algebras
- cli: verification suite front end
"""

__version__ = "0.1.0"

from .poly import (
    VarContext,
    LaurentPoly,
    LinearForm,
    RationalFunction,
    ParseError,
    parse_poly,
    poly_to_text,
)
from .weyl import RootData
from .daha import (
    DiffReflOp,
    e_lambda,
    evaluate_word,
    op_to_text,
    parse_word,
    phi_shift_check,
    verify_relations,
)
from .zalg import (
    AbelianMatter,
    AbelianZElt,
    SphericalClass,
    abelian_embed,
    class_commutative,
    class_localized,
    match_conventions,
    split_coweight,
    verify_factorization,
)
from .ideals import (
    GradedSlice,
    IdealSpec,
    PlaneSubset,
    Window,
    delta_S_direct,
    delta_S_schur,
    graded_dimension,
    membership,
    verify_containment,
    verify_spanning,
)
from .springer import (
    ChainModel,
    EquivaluedModule,
    ModuleElt,
    chain_poincare,
    module_act,
    module_slice_basis,
)
from .cli import CheckConfig, Report, run_suite
