"""Finite-dimensional models of the additive character spaces, the full
dimension ledger with its additivity identities, constituent combinatorics,
and socle diagrams for the principal-series representations involved.

Additive characters of Qp^x are spanned by val and log; characters valued
in the diagonal torus algebra carry one (val, log) pair per diagonal entry,
constrained by psi1 + psi4 = psi2 + psi3.  Characters of the torus carry
one pair per coordinate p1, p2, p3.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

from ._value import Value
from .errors import InvalidData, InvalidIndexSet, LedgerInconsistent
from .scalars import INTEGER, RATIONAL, require_type
from .weyl import LEVI_CENTERS, TORUS_BASIS, CocharTuple, WeylElem, L_map


class AddChar(Value):
    """Additive character with val- and log-coefficient tuples.

    shape "qp_to_t": 4 + 4 coefficients with the torus constraint on each
    half; shape "T_to_E": 3 + 3 coefficients, unconstrained.  Each is an
    int or a Fraction, kept as a Fraction; a TypeError names any other.
    """

    shape: str
    val: tuple
    log: tuple

    def __post_init__(self):
        val = tuple(require_type(f"val[{i}]", x, RATIONAL) for i, x in enumerate(self.val))
        log = tuple(require_type(f"log[{i}]", x, RATIONAL) for i, x in enumerate(self.log))
        if self.shape == "qp_to_t":
            for half in (val, log):
                if len(half) != 4 or half[0] + half[3] != half[1] + half[2]:
                    raise InvalidData(f"torus constraint fails in {half}")
        elif self.shape == "T_to_E":
            if len(val) != 3 or len(log) != 3:
                raise InvalidData("T-characters need 3 + 3 coefficients")
        else:
            raise InvalidData(f"unknown AddChar shape {self.shape!r}")
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "log", log)

    def coords(self) -> tuple:
        return self.val + self.log

    def is_smooth(self) -> bool:
        return all(x == 0 for x in self.log)


def _tchar(val, log) -> AddChar:
    return AddChar(shape="T_to_E", val=tuple(val), log=tuple(log))


def _qpchar(val, log) -> AddChar:
    return AddChar(shape="qp_to_t", val=tuple(val), log=tuple(log))


_ZERO4 = (0, 0, 0, 0)
_ZERO3 = (0, 0, 0)
_EUCLID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def hom_space(kind: str):
    """Explicit basis of the named character space."""
    if kind == "full_t":
        return [_qpchar(t, _ZERO4) for t in TORUS_BASIS] + [_qpchar(_ZERO4, t) for t in TORUS_BASIS]
    if kind == "sm_t":
        return [_qpchar(t, _ZERO4) for t in TORUS_BASIS]
    if kind in ("gprime_t", "P_gprime_t", "Q_gprime_t"):
        # log parts in the center of gsp4, or of the Siegel (P) or Klingen (Q) Levi
        z_basis = LEVI_CENTERS[kind[0] if kind[0] in "PQ" else "G"]
        return hom_space("sm_t") + [_qpchar(_ZERO4, z) for z in z_basis]
    if kind == "full_T":
        return [_tchar(e, _ZERO3) for e in _EUCLID3] + [_tchar(_ZERO3, e) for e in _EUCLID3]
    if kind == "sm_T":
        return [_tchar(e, _ZERO3) for e in _EUCLID3]
    if kind == "gprime_T":
        return hom_space("sm_T") + [_tchar(_ZERO3, (0, 0, 1))]
    if kind == "P_gprime_T":
        # log parts with equal p1 and p2 components
        return hom_space("sm_T") + [_tchar(_ZERO3, (1, 1, 0)), _tchar(_ZERO3, (0, 0, 1))]
    if kind == "Q_gprime_T":
        # log parts with vanishing p2 component
        return hom_space("sm_T") + [_tchar(_ZERO3, (1, 0, 0)), _tchar(_ZERO3, (0, 0, 1))]
    raise InvalidData(f"unknown hom-space kind {kind!r}")


def hom_space_dim(kind: str) -> int:
    from .linalg import rank  # only the ledger takes a rank: socle compiles no linalg

    return rank([list(c.coords()) for c in hom_space(kind)])


def ell_map(psi: AddChar) -> AddChar:
    """The lattice map L_map, applied to the val and the log coordinates."""
    if psi.shape != "qp_to_t":
        raise InvalidData("ell_map expects a qp_to_t character")
    return _tchar(*(L_map(CocharTuple(half)).coords() for half in (psi.val, psi.log)))


# ---------------------------------------------------------------------------
# Constituents
# ---------------------------------------------------------------------------


class Constituent(Value):
    """Either the locally algebraic socle or a labeled piece C(I, s_i)."""

    index_set: frozenset | None  # None marks the locally algebraic piece
    reflection: int | None

    @staticmethod
    def pi_alg() -> "Constituent":
        return Constituent(index_set=None, reflection=None)

    @staticmethod
    def C(index_set, reflection: int) -> "Constituent":
        I = frozenset(require_type("an index_set entry", x, INTEGER) for x in index_set)
        if require_type("reflection", reflection, INTEGER) not in (1, 2):
            raise InvalidIndexSet(f"reflection must be 1 or 2, got {reflection}")
        if len(I) != reflection:
            raise InvalidIndexSet(f"|I| = {len(I)} != i = {reflection}")
        if sum(I) == 5:
            raise InvalidIndexSet(f"index set {sorted(I)} sums to 5")
        if not I <= {1, 2, 3, 4}:
            raise InvalidIndexSet(f"index set {sorted(I)} out of range")
        return Constituent(index_set=I, reflection=reflection)

    @property
    def label(self) -> str:
        if self.index_set is None:
            return "pi_alg"
        inner = ",".join(str(x) for x in sorted(self.index_set))
        return f"C({{{inner}}},s{self.reflection})"

    def __str__(self):
        return self.label


def constituents(i: int):
    """All labels C(I, s_i): singletons for i = 1, sum-not-5 pairs for i = 2."""
    if require_type("i", i, INTEGER) not in (1, 2):
        raise InvalidIndexSet(f"reflection index {i} out of range")
    out = []
    for I in combinations((1, 2, 3, 4), i):
        if sum(I) != 5:
            out.append(Constituent.C(I, i))
    return out


def all_constituents():
    return constituents(1) + constituents(2)


def constituent_of(w: WeylElem, i: int) -> Constituent:
    """C(w, s_i) identified by its index-set invariant w^{-1}({1..i})."""
    if require_type("i", i, INTEGER) not in (1, 2):
        raise InvalidIndexSet(f"reflection index {i} out of range")
    winv = w.inv()
    return Constituent.C(frozenset(winv(j) for j in range(1, i + 1)), i)


def socle_constituents(X: str, I) -> list:
    """The socle set for the parabolic subrepresentation labeled by I.

    Siegel side: the singletons inside the pair I plus C(I, s2).
    Klingen side: C(I, s1) plus the valid pairs containing the singleton I.
    """
    I = frozenset(require_type("an I entry", x, INTEGER) for x in I)
    if X == "P":
        if len(I) != 2 or sum(I) == 5:
            raise InvalidIndexSet(f"bad Siegel index set {sorted(I)}")
        singles = [Constituent.C({x}, 1) for x in sorted(I)]
        return singles + [Constituent.C(I, 2)]
    if X == "Q":
        if len(I) != 1:
            raise InvalidIndexSet(f"bad Klingen index set {sorted(I)}")
        pairs = [
            Constituent.C(set(pair), 2)
            for pair in combinations((1, 2, 3, 4), 2)
            if I < set(pair) and sum(pair) != 5
        ]
        return [Constituent.C(I, 1)] + pairs
    raise InvalidData(f"unknown parabolic side {X!r}")


# ---------------------------------------------------------------------------
# Socle diagrams
# ---------------------------------------------------------------------------


class SocleDiagram(Value):
    kind: str
    layers: tuple  # tuple of tuples of Constituent

    def layer_labels(self):
        return [[c.label for c in layer] for layer in self.layers]


def socle_diagram(kind: str, w: WeylElem | None = None) -> SocleDiagram:
    pi = Constituent.pi_alg()
    if kind == "PS1":
        if w is None:
            raise InvalidData("the PS1 diagram needs a Weyl element")
        return SocleDiagram(
            kind=f"PS1({w.word or 'e'})",
            layers=((pi,), (constituent_of(w, 1), constituent_of(w, 2))),
        )
    if kind == "pi1":
        return SocleDiagram(kind="pi1", layers=((pi,), tuple(all_constituents())))
    if kind == "pimin":
        return SocleDiagram(
            kind="pimin",
            layers=((pi,), tuple(all_constituents()), (pi, pi)),
        )
    raise InvalidData(f"unknown socle diagram kind {kind!r}")


# ---------------------------------------------------------------------------
# The dimension ledger
# ---------------------------------------------------------------------------


class LedgerEntry(Value):
    name: str
    dim: int
    source: str


class LedgerCheck(Value):
    name: str
    passed: bool
    detail: str


class LedgerReport(Value):
    entries: tuple
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def entry(self, name: str) -> LedgerEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self):
        entries = tuple(e._asdict() for e in self.entries)
        return {"ok": self.ok, "entries": entries, "checks": tuple(c._asdict() for c in self.checks)}


#: The ledger's entries in report order, each with where its value comes from.
_LEDGER_TABLE = (
    ("deformations", "stated"),
    ("deformations_triangular", "stated"),
    ("deformations_parabolic", "stated"),
    ("deformations_kernel0", "stated"),
    ("deformations_derham", "derived: kernel0 + smooth model"),
    ("deformations_twisted_derham", "derived: kernel0 + twisted model"),
    ("ext_selfext", "hom-space model"),
    ("ext_selfext_lalg", "hom-space model"),
    ("ext_PS1", "additivity"),
    ("ext_pi1", "additivity"),
    ("ext_parabolic", "additivity"),
    ("ext_parabolic_gprime", "hom-space model"),
    ("L_invariant", "kernel computation"),
    ("deformations_U", "additivity"),
    ("deformations_U_triangular", "stated"),
    ("ext_U_gprime", "additivity"),
    ("ext_U", "additivity"),
)

#: The hom-space models behind the ledger, with their expected dimensions.
_EXPECTED_HOM_DIMS = {
    "full_t": 6, "sm_t": 3, "gprime_t": 4, "P_gprime_t": 5, "Q_gprime_t": 5,
    "full_T": 6, "sm_T": 3, "gprime_T": 4, "P_gprime_T": 5, "Q_gprime_T": 5,
}


def check_ledger() -> LedgerReport:
    """Assemble the named dimension table and verify every identity.

    Raises LedgerInconsistent when an identity fails; the report carries
    one line per entry and per check.
    """
    from .kernel import glue_subspace, kernel_basis  # the socle commands load no kernel

    hom = {kind: hom_space_dim(kind) for kind in _EXPECTED_HOM_DIMS}
    n_constituents = len(all_constituents())
    # exact kernel computations at a sample nondegenerate point
    K = kernel_basis(Q(2), Q(3))
    glue = glue_subspace()
    dims = {
        "deformations": 12,
        "deformations_triangular": 8,
        "deformations_parabolic": 9,
        "deformations_kernel0": 2,
        "deformations_derham": 5,
        "deformations_twisted_derham": 6,
        "deformations_U_triangular": 3,
        "ext_selfext": hom["gprime_T"],
        "ext_selfext_lalg": hom["sm_T"],
        "ext_parabolic_gprime": hom["P_gprime_T"],
        "L_invariant": K.dim - glue.dim,
    }
    dims["ext_PS1"] = dims["ext_selfext"] + 2
    dims["ext_pi1"] = dims["ext_selfext"] + n_constituents
    dims["ext_parabolic"] = dims["ext_selfext"] + 3
    dims["deformations_U"] = dims["deformations"] - dims["deformations_derham"]
    dims["ext_U_gprime"] = dims["deformations_twisted_derham"] - dims["deformations_derham"]
    dims["ext_U"] = dims["ext_U_gprime"] + n_constituents

    pairs = [frozenset(p) for p in combinations((1, 2, 3, 4), 2) if sum(p) != 5]
    identities = (
        # hom-space dimensions backing the models
        *((f"hom-dim-{kind}", hom[kind], n, f"dim of {kind}")
          for kind, n in _EXPECTED_HOM_DIMS.items()),
        # constituent counts feeding the sequences
        ("constituent-count", n_constituents, 8, "labels C(I, s_i)"),
        *((f"socle-count-P-{sorted(I)}", len(socle_constituents("P", I)), 3, "Siegel socle size")
          for I in pairs),
        *((f"socle-count-Q-{x}", len(socle_constituents("Q", {x})), 3, "Klingen socle size")
          for x in (1, 2, 3, 4)),
        # derived dimensions
        ("ext-PS1", dims["ext_PS1"], 6, "4 + 2x1"),
        ("ext-pi1", dims["ext_pi1"], 12, "4 + 8x1"),
        ("ext-parabolic", dims["ext_parabolic"], 7, "4 + 3x1"),
        ("deformations-U", dims["deformations_U"], 7, "12 - 5"),
        ("deformations-U-triangular", dims["deformations_triangular"] - dims["deformations_derham"],
         dims["deformations_U_triangular"], "8 - 5"),
        ("ext-U-gprime", dims["ext_U_gprime"], 1, "6 - 5"),
        ("ext-U", dims["ext_U"], 9, "1 + 8"),
        # quotient identities against the character models
        ("quotient-triangular", dims["deformations_triangular"] - dims["deformations_kernel0"],
         hom["full_t"], "8 - 2 against Hom(Qp^x, t)"),
        ("quotient-full", dims["deformations"] - dims["deformations_kernel0"], 10, "12 - 2"),
        ("quotient-derham", dims["deformations_derham"] - dims["deformations_kernel0"],
         hom["sm_t"], "5 - 2 against the smooth model"),
        ("quotient-twisted", dims["deformations_twisted_derham"] - dims["deformations_kernel0"],
         hom["gprime_t"], "6 - 2 against the twisted model"),
        ("parabolic-inclusion-exclusion", dims["deformations_parabolic"] - dims["deformations_kernel0"],
         2 * hom["full_t"] - hom["P_gprime_t"],
         "9 - 2 against the two compatible triangulations glued over the "
         "Levi-center model: 6 + 6 - 5"),
        # the kernel and the glue at the sample point
        ("kernel-dimension", K.dim, 17, "24 - 7"),
        ("glue-dimension", glue.dim, 15, "16 generators, one relation"),
        ("L-dimension", dims["L_invariant"], 2, "17 - 15"),
        ("tangent-rank", K.ambient - K.dim,
         dims["deformations"] - dims["deformations_kernel0"] - hom["sm_t"], "rank against 12 - 2 - 3"),
    )
    checks = tuple(
        LedgerCheck(name=name, passed=lhs == rhs, detail=f"{detail}: {lhs} vs {rhs}")
        for name, lhs, rhs, detail in identities
    )
    entries = tuple(
        LedgerEntry(name=name, dim=dims[name], source=source) for name, source in _LEDGER_TABLE
    )
    report = LedgerReport(entries=entries, checks=checks)
    if not report.ok:
        failed = [c.name for c in checks if not c.passed]
        exc = LedgerInconsistent(f"ledger identities failed: {', '.join(failed)}")
        exc.report = report
        raise exc
    return report
