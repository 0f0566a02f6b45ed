"""Exact-arithmetic toolkit for Hodge parameters of rank-4 symplectic
filtered phi-modules: validation, eigenline grids, the summed tangent map
and its kernel, parameter recovery, dimension ledger, and Hecke recipes.

The names below are imported from their modules on first use (PEP 562),
so that importing the package, or one command of the CLI, loads only the
modules it needs."""

_EXPORTS = {
    "errors": "ConstraintViolated DegenerateIntersection DivisionByZero GSp4Error InconsistentData"
    " InvalidData InvalidIndexSet LedgerInconsistent NotALine NotSymplectic ParseError",
    "extledger": "AddChar Constituent all_constituents check_ledger constituent_of constituents"
    " ell_map hom_space hom_space_dim socle_constituents socle_diagram",
    "hecke": "FrobeniusData HeckeData classicality_classify hecke_charpoly ideal_generators",
    "kernel": "EigenlineGrid eigenline_grid glue_subspace jbar_matrix jbar_rank kernel_basis"
    " l_invariant_plane matrix_suite nu_operator recover_parameters",
    "phimodule": "HodgeFlag PhiModuleData admissible_refinements general_position"
    " standard_filtration validate weak_admissibility",
    "scalars": "Poly2 RatFunc is_zero padic_val parse_scalar scalar_str",
    "symplectic": "J Flag Subspace adjoint flag_anisotropy_check lie_membership s_involution similitude",
    "weyl": "S0 S1 S2 W_ALL W_ID CocharTuple L_map Weight WeylElem"
    " check_involution from_oneline from_word pairing weyl_act",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
