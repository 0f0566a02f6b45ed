"""Validated generic non-critical filtered phi-modules with symplectic structure.

A module instance is presented by the data (p, alpha_1..alpha_4, h_1..h_4, a, b):
phi-eigenvalues alpha_i on a standard symplectic eigenbasis (e_1..e_4),
strictly decreasing filtration weights h_i, and the two Hodge parameters
(a, b) that pin down the filtration in its unique standard form

    F^1 = <a e1 - e2 + e3 - e4>
    F^2 = F^1 + <b e1 + (b+1) e2 - e3>
    F^3 = F^2 + <e1 + e2>

with jumps at -h_1 > ... > -h_4 read bottom-up.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import accumulate, combinations
from typing import TYPE_CHECKING

from ._value import Value
from .errors import InvalidData, ParseError
from .scalars import INTEGER, RATIONAL, SCALAR, RatFunc, Scalar, is_prime, padic_val, require_type, ring_pair

# linalg, symplectic and weyl are imported where used: validate uses none.
if TYPE_CHECKING:
    from .symplectic import Flag, Subspace
    from .weyl import WeylElem

#: Names for the five nondegeneracy factors, in fixed order.
NONDEG_FACTORS = ("a", "b", "b+1", "a+b", "a*b+a+b")


def nondeg_factors(a: Scalar, b: Scalar) -> tuple:
    """The factors at (a, b) in NONDEG_FACTORS order, each an unreduced
    numerator and denominator in the ring under the field (Z, or Q[a, b]
    if a or b is a RatFunc), built from a = an/ad and b = bn/bd by ring
    products and sums.  A factor vanishes exactly when its numerator does."""
    (an, ad), (bn, bd) = ring_pair(a), ring_pair(b)
    b1, ad_bn, ad_bd = bn + bd, ad * bn, ad * bd
    return ((an, ad), (bn, bd), (b1, bd), (an * bd + ad_bn, ad_bd), (an * b1 + ad_bn, ad_bd))


def vanishing_factor(a: Scalar, b: Scalar, factors: tuple | None = None) -> str | None:
    """Name of the first nondegeneracy factor that vanishes at (a, b), or
    None when (a, b) is nondegenerate; factors, if given, is
    nondeg_factors(a, b), already built."""
    for name, (n, _) in zip(NONDEG_FACTORS, factors or nondeg_factors(a, b)):
        if not n:
            return name
    return None


class PhiModuleData(Value):
    p: int
    alphas: tuple
    weights: tuple
    a: Scalar
    b: Scalar

    def __post_init__(self):
        """The one gate of the record's rules: four alphas and four weights,
        and exact fields, so that nothing downstream truncates or rounds.
        p and the weights are ints, the alphas ints or Fractions, stored as
        Fractions, and a and b ints, Fractions or RatFuncs; a TypeError
        names any other field's type, a float and a bool among them."""
        if len(self.alphas) != 4 or len(self.weights) != 4:
            raise InvalidData("alphas and weights need four entries each")
        for name, x, types in (("p", self.p, INTEGER), ("a", self.a, SCALAR), ("b", self.b, SCALAR)):
            require_type(name, x, types)
        alphas = tuple(require_type(f"alphas[{i}]", x, RATIONAL) for i, x in enumerate(self.alphas))
        for i, h in enumerate(self.weights):
            require_type(f"weights[{i}]", h, INTEGER)
        object.__setattr__(self, "alphas", alphas)

    @property
    def symbolic(self) -> bool:
        return isinstance(self.a, RatFunc)


def filtration_basis(a: Scalar, b: Scalar) -> tuple:
    """The filtration basis v1..v4 over the field of (a, b): F^i is
    spanned by v1..vi."""
    zero = a * 0
    one = zero + 1
    return (a, -one, one, -one), (b, b + one, -one, zero), (one, one, zero, zero), (one, zero, zero, zero)


def complete_flag(a: Scalar, b: Scalar) -> Flag:
    """The standard-form flag F^1 < F^2 < F^3 at (a, b).  v1, v2, v3 are
    independent for every (a, b), so the flag always exists."""
    from .symplectic import Flag, Subspace
    return Flag(members=tuple(map(Subspace.span, _filtration_prefixes(a, b))), kind="complete")


class CheckResult(Value):
    name: str
    passed: bool
    witness: str = ""


class ValidityReport(Value):
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {"ok": self.ok, "checks": tuple(c._asdict() for c in self.checks)}


def validate(d: PhiModuleData) -> ValidityReport:
    """Run every structural invariant; failures carry witnesses.  A d
    that is not a PhiModuleData is a TypeError."""
    if not isinstance(d, PhiModuleData):
        raise TypeError(f"d must be a PhiModuleData, not {type(d).__name__!r}")
    checks = []

    checks.append(CheckResult("p-prime", is_prime(d.p), f"p={d.p}"))

    alphas = d.alphas  # Fractions, as the record stores them
    nz = all(x != 0 for x in alphas)
    checks.append(CheckResult("alphas-nonzero", nz, "" if nz else "zero eigenvalue"))

    sim_ok = alphas[0] * alphas[3] == alphas[1] * alphas[2]
    checks.append(
        CheckResult(
            "similitude-relation",
            sim_ok,
            "" if sim_ok else f"a1*a4={alphas[0]*alphas[3]} != a2*a3={alphas[1]*alphas[2]}",
        )
    )

    generic, gen_witness = True, ""
    if nz and d.p:  # p = 0 fails p-prime and has no 1/p
        bad = {Q(1), Q(d.p), Q(1, d.p)}
        # The set {1, p, 1/p} is closed under inversion, so alpha_j/alpha_i
        # is in it exactly when alpha_i/alpha_j is.
        for i, j in combinations(range(4), 2):
            ratio = alphas[i] / alphas[j]
            if ratio in bad:
                generic, gen_witness = False, f"alpha{i + 1}/alpha{j + 1} = {ratio}"
                break
    checks.append(CheckResult("genericity", generic, gen_witness))

    h = tuple(d.weights)  # ints, as the record checks
    desc = h[0] > h[1] > h[2] > h[3]
    checks.append(CheckResult("weights-strictly-decreasing", desc, f"h={h}"))
    wsum = h[0] + h[3] == h[1] + h[2]
    checks.append(
        CheckResult("weight-sum", wsum, "" if wsum else f"h1+h4={h[0]+h[3]} != h2+h3={h[1]+h[2]}")
    )

    vanishing = vanishing_factor(d.a, d.b)
    nd_witness = "" if vanishing is None else f"factor {vanishing} vanishes"
    checks.append(CheckResult("nondegeneracy-polynomial", vanishing is None, nd_witness))

    return ValidityReport(checks=tuple(checks))


class HodgeFlag(Value):
    """The standard-form Hodge flag together with its jump indices."""

    flag: Flag
    jumps: tuple  # (-h1, -h2, -h3, -h4), increasing

    def member(self, dim: int) -> Subspace:
        """The proper member F^dim, for dim 1, 2 or 3."""
        if dim not in (1, 2, 3):
            raise InvalidData(f"the Hodge flag has proper members of dimension 1-3, not {dim}")
        return self.flag.members[dim - 1]


def _require_structure(d: PhiModuleData, *, nondegenerate: bool) -> None:
    report = validate(d)
    bad = [
        c.name
        for c in report.failures()
        if nondegenerate or c.name != "nondegeneracy-polynomial"
    ]
    if bad:
        raise InvalidData("; ".join(bad))


def _build_flag(d: PhiModuleData) -> HodgeFlag:
    return HodgeFlag(flag=complete_flag(d.a, d.b), jumps=tuple(-h for h in d.weights))


def standard_filtration(d: PhiModuleData) -> HodgeFlag:
    """Build the unique standard-form flag; rejects invalid presentations."""
    _require_structure(d, nondegenerate=True)
    return _build_flag(d)


def coordinate_subspace(indices) -> Subspace:
    """E_S, the span of e_i for i in S, whose sorted unit rows are in RREF;
    each index must be an int in 1..4."""
    from .symplectic import Subspace
    S = {require_type("an index", i, INTEGER) for i in indices}
    if not S <= {1, 2, 3, 4}:
        raise InvalidData(f"indices {sorted(S)} are not all in 1..4")
    units = [tuple(Q(int(j == i)) for j in (1, 2, 3, 4)) for i in sorted(S)]
    return Subspace(rows=tuple(units))


def _filtration_prefixes(a: Scalar, b: Scalar) -> tuple:
    """Spanning rows of F^1, F^2 and F^3: the prefixes of filtration_basis."""
    return tuple(filtration_basis(a, b)[:j] for j in (1, 2, 3))


def _coordinate_meets(members, S) -> tuple:
    """dim(E_S ∩ F^j) for j = 0..4, E_S the span of e_i for i in S, from
    independent spanning rows of F^1, F^2 and F^3; F^0 = 0 and F^4 = E^4
    are the ends of the complete flag.  The unit rows off S annihilate E_S."""
    from .linalg import meet_coordinates
    ann = coordinate_subspace(set((1, 2, 3, 4)) - set(S)).rows
    return (0,) + tuple(len(meet_coordinates(rows, ann)) for rows in members) + (len(S),)


def general_position(hf: HodgeFlag) -> bool:
    """Whether every coordinate subspace meets the flag in expected dimension.
    For the standard flag at a nondegenerate point this is certified true
    (tests/test_kernel.py, TestCertificate), so the flag command prints it."""
    for size in (1, 2, 3):
        for S in combinations((1, 2, 3, 4), size):
            meets = _coordinate_meets([F.rows for F in hf.flag.members], S)
            if any(meets[i] != max(0, i + size - 4) for i in (1, 2, 3)):
                return False
    return True


def _hodge_t_invariant(jumps, meets) -> int:
    """Sum of induced filtration jumps on V, from its meets dim(V ∩ F^j),
    j = 0..4: the k-th jump label sits on the graded piece F^(5-k)/F^(4-k)."""
    return sum(jumps[k - 1] * (meets[5 - k] - meets[4 - k]) for k in (1, 2, 3, 4))


def newton_above_hodge(t_newton, t_hodge) -> bool:
    """The Newton-above-Hodge test along a sequence of subspaces ending in
    the whole space: t_N >= t_H on each proper one, t_N = t_H on the whole."""
    *proper, whole = [n - h for n, h in zip(t_newton, t_hodge)]
    return whole == 0 and all(gap >= 0 for gap in proper)


def refinement_weights(w: WeylElem, weights) -> tuple:
    """The weights relabeled for the refinement w: h_{(w-check)^{-1}(j)}."""
    from .weyl import check_involution
    wc_inv = check_involution(w).inv()
    return tuple(weights[wc_inv(j) - 1] for j in (1, 2, 3, 4))


def _valuations(p: int, alphas) -> list:
    return [padic_val(x, p) for x in alphas]


def weak_admissibility(d: PhiModuleData) -> bool:
    """Newton-above-Hodge over every phi-stable eigenvector span, with
    equality on the whole space.  General position is not required."""
    _require_structure(d, nondegenerate=False)
    members = _filtration_prefixes(d.a, d.b)
    jumps = tuple(-h for h in d.weights)
    vals = _valuations(d.p, d.alphas)
    subsets = [S for size in (1, 2, 3, 4) for S in combinations((1, 2, 3, 4), size)]
    return newton_above_hodge(
        [sum(vals[i - 1] for i in S) for S in subsets],
        [_hodge_t_invariant(jumps, _coordinate_meets(members, S)) for S in subsets],
    )


def partial_sum_set(p: int, alphas, weights) -> list[WeylElem]:
    """Weyl elements w with nonnegative partial sums of
    val(alpha_j) + h_{(w-check)^{-1}(j)} and full-sum equality."""
    from .weyl import W_ALL
    t_newton = list(accumulate(_valuations(p, alphas)))
    return [
        w
        for w in W_ALL
        if newton_above_hodge(t_newton, accumulate(-h for h in refinement_weights(w, weights)))
    ]


def admissible_refinements(d: PhiModuleData):
    """Weyl elements w whose weight pairing is Newton-above-Hodge.

    The w-condition pairs the eigenvalue prefixes (in their given order)
    against the filtration with its jump labels permuted by the
    check-involution of w; only the identity survives once the weight gaps
    dominate the valuation spread.  The Hodge sums along the prefixes
    E_{1..i} are the jump prefix sums at every (a, b), degenerate or not:
    dim(E_{1..i} ∩ F^j) = max(0, i + j - 4), since in c1 v1 + ... + cj vj
    the e4, e3 and e2 coordinates force c1, c2 and c3 to 0 in turn.  So
    this is partial_sum_set once the data are checked.
    """
    _require_structure(d, nondegenerate=False)
    return partial_sum_set(d.p, d.alphas, d.weights)


def hodge_parameters(doc: dict, symbolic: bool) -> tuple:
    """The Hodge parameters (a, b) of an input document, read by one rule
    for every command: a parameter that is absent or JSON null is missing,
    which over Q is a ParseError and over Q(a, b) is the variable itself."""
    from .scalars import parse_scalar
    texts = [doc.get(name) for name in ("a", "b")]
    if not symbolic and any(text is None for text in texts):
        raise ParseError("the document needs Hodge parameters a and b (or --symbolic)")
    return tuple(
        parse_scalar(name if text is None else str(text), symbolic) for name, text in zip(("a", "b"), texts)
    )


def phi_module_from_json(doc: dict, symbolic: bool) -> PhiModuleData:
    """Build PhiModuleData from its wire form (see External Interfaces).
    a and b live in Q(a, b) when symbolic is true.  A bad field raises its
    reader's ParseError, as in every other command."""
    from .scalars import parse_integer, parse_list, parse_scalar, required_field
    return PhiModuleData(
        parse_integer(required_field(doc, "p")),
        tuple(parse_scalar(str(s)) for s in parse_list(required_field(doc, "alphas"))),
        tuple(parse_integer(x) for x in parse_list(required_field(doc, "weights"))),
        *hodge_parameters(doc, symbolic),
    )
