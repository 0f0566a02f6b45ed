"""Exact-arithmetic toolkit for Hodge parameters of rank-4 symplectic
filtered phi-modules: validation, eigenline grids, the summed tangent map
and its kernel, parameter recovery, dimension ledger, and Hecke recipes."""

from .errors import (
    ConstraintViolated,
    DegenerateIntersection,
    DivisionByZero,
    GSp4Error,
    InconsistentData,
    InvalidData,
    InvalidIndexSet,
    LedgerInconsistent,
    NotALine,
    NotSymplectic,
    ParseError,
    VariantMismatch,
)
from .extledger import (
    AddChar,
    Constituent,
    all_constituents,
    check_ledger,
    constituent_of,
    constituents,
    ell_map,
    hom_space,
    hom_space_dim,
    l_invariant_plane,
    socle_constituents,
    socle_diagram,
)
from .hecke import (
    FrobeniusData,
    HeckeData,
    classicality_classify,
    hecke_charpoly,
    ideal_generators,
)
from .kernel import (
    EigenlineGrid,
    eigenline_grid,
    glue_subspace,
    jbar_matrix,
    jbar_rank,
    kernel_basis,
    matrix_suite,
    nu_operator,
    recover_parameters,
)
from .phimodule import (
    HodgeFlag,
    PhiModuleData,
    admissible_refinements,
    general_position,
    refinement_parameters,
    standard_filtration,
    validate,
    weak_admissibility,
)
from .scalars import Poly2, RatFunc, field_arith, is_zero, padic_val, parse_scalar, scalar_str
from .symplectic import (
    J,
    Flag,
    Subspace,
    adjoint,
    flag_anisotropy_check,
    lie_membership,
    s_involution,
    similitude,
)
from .weyl import (
    S0,
    S1,
    S2,
    W_ALL,
    W_ID,
    CocharTuple,
    L_map,
    QpChar,
    TChar,
    Weight,
    WeylElem,
    build_char,
    check_involution,
    dot_action,
    from_oneline,
    from_word,
    pairing,
    weyl_act,
)

__version__ = "0.1.0"
