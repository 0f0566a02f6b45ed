"""Desk-scale Hecke recipes: the degree-4 Frobenius characteristic
polynomial from unramified Hecke eigenvalues, the inverse maximal-ideal
generator map, and the classicality inequality classifier.

The two named constants in the weight-gap bound are kept verbatim from the
source construction.
"""

from __future__ import annotations

from fractions import Fraction as Q

from ._value import Value
from .errors import InconsistentData, InvalidData
from .scalars import INTEGER, RATIONAL, is_prime, padic_val, require_type

GAP_SLOPE = 20170901
GAP_OFFSET = 20260630


class HeckeData(Value):
    """The prime l and the three unramified Hecke eigenvalues: l an int,
    the eigenvalues ints or Fractions, stored as Fractions; a TypeError
    names any other field's type, a float and a bool among them."""

    l: int
    c0: Q
    c1: Q
    c2: Q

    def __post_init__(self):
        require_type("l", self.l, INTEGER)
        if not is_prime(self.l):
            raise InvalidData(f"l = {self.l} is not prime")
        for name in ("c0", "c1", "c2"):
            object.__setattr__(self, name, require_type(name, getattr(self, name), RATIONAL))
        if self.c0 == 0:
            raise InvalidData("c0 must be invertible")


class FrobeniusData(Value):
    """Monic quartic coefficients (T^4 + q3 T^3 + q2 T^2 + q1 T + q0) and
    the similitude value of Frobenius: ints or Fractions, stored as
    Fractions; a TypeError names any other field's type."""

    coeffs: tuple
    sim: Q

    def __post_init__(self):
        if len(self.coeffs) != 4:
            raise InvalidData("need exactly the four non-leading coefficients")
        coeffs = tuple(require_type(f"coeffs[{i}]", x, RATIONAL) for i, x in enumerate(self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sim", require_type("sim", self.sim, RATIONAL))


def hecke_charpoly(d: HeckeData) -> FrobeniusData:
    """Characteristic polynomial of Frobenius from the three eigenvalues:
    T^4 - c1 T^3 + ((l^3+l)c0 + l c2) T^2 - l^3 c0 c1 T + l^6 c0^2.
    A d that is not a HeckeData is a TypeError."""
    l = Q(require_type("d", d, (HeckeData,)).l)
    q3 = -d.c1
    q2 = (l**3 + l) * d.c0 + l * d.c2
    q1 = -(l**3) * d.c0 * d.c1
    q0 = l**6 * d.c0**2
    return FrobeniusData(coeffs=(q3, q2, q1, q0), sim=l**3 * d.c0)


def ideal_generators(f: FrobeniusData, l: int) -> HeckeData:
    """Invert the charpoly map: eigenvalues generating the attached maximal
    ideal.  Raises InconsistentData when the quartic cannot arise.

    hecke_charpoly gives sim = l^3 c0, q3 = -c1, q2 = (l^3 + l) c0 + l c2,
    q1 = sim q3 and q0 = sim^2.  So once q1 and q0 are checked, the
    inverse is the identity c0 = sim / l^3, c1 = -q3 and
    c2 = q2 / l - (l^-1 + l^-3) sim, over any field.  An f that is not a
    FrobeniusData, or an l that is not an int, is a TypeError."""
    require_type("f", f, (FrobeniusData,))
    if not is_prime(require_type("l", l, INTEGER)):
        raise InvalidData(f"l = {l} is not prime")
    lq = Q(l)
    q3, q2, q1, q0 = f.coeffs
    if q0 != f.sim**2:
        raise InconsistentData(f"constant term {q0} differs from sim^2 = {f.sim ** 2}")
    if q1 != f.sim * q3:
        raise InconsistentData(
            f"linear coefficient {q1} differs from sim * (cubic) = {f.sim * q3}"
        )
    c0 = f.sim / lq**3
    c1 = -q3
    c2 = q2 / lq - (1 / lq + 1 / lq**3) * f.sim
    return HeckeData(l=l, c0=c0, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# Classicality classifier
# ---------------------------------------------------------------------------


class ClassicalityReport(Value):
    bound_ok: bool
    bound_witness: str
    alternate_reading_differs: bool
    gap_ok: bool
    gap_witness: str
    admissible: tuple  # Weyl words satisfying the partial-sum conditions
    very_classical: bool

    def as_dict(self):
        return {**self._asdict(), "admissible": list(self.admissible)}


def classicality_classify(alphas, weights, p: int, C) -> ClassicalityReport:
    """Check the valuation bound, the weight-gap bound, and collect the
    admissible partial-sum set; flag very-classical when only the identity
    survives.  p and the weights are ints, the alphas and C ints or
    Fractions; a TypeError names any other, so no weight is truncated."""
    require_type("p", p, INTEGER)
    if not is_prime(p):
        raise InvalidData(f"p = {p} is not prime")
    C = require_type("C", C, RATIONAL)
    if C <= 0:
        raise InvalidData("the bound C must be positive")
    alphas, h = tuple(alphas), tuple(weights)
    if len(alphas) != 4 or len(h) != 4:
        raise InvalidData("alphas and weights need four entries each")
    alphas = tuple(require_type(f"alphas[{i}]", x, RATIONAL) for i, x in enumerate(alphas))
    for i, x in enumerate(h):
        require_type(f"weights[{i}]", x, INTEGER)
    if any(x == 0 for x in alphas):
        raise InvalidData("zero eigenvalue")
    if not (h[0] > h[1] > h[2] > h[3]) or h[0] + h[3] != h[1] + h[2]:
        raise InvalidData(f"bad weights {h}")

    vals = [padic_val(x, p) for x in alphas]

    # (a) per-index bound, plus the single-index literal reading for the
    # report (both readings coincide iff all valuations agree with val_1)
    bound_ok, witness = True, ""
    for i in range(4):
        if not -C <= h[i] + vals[i] <= C:
            bound_ok, witness = False, f"h_{i+1} + val(alpha_{i+1}) = {h[i] + vals[i]}"
            break
    literal_ok = all(-C <= h[i] + vals[0] <= C for i in range(4))
    alternate_differs = literal_ok != bound_ok

    # (b) strict gap bound
    bound = GAP_SLOPE * C + GAP_OFFSET
    gap_ok, gap_witness = True, ""
    for i in range(3):
        if not h[i] - h[i + 1] > bound:
            gap_ok, gap_witness = (
                False,
                f"h_{i+1} - h_{i+2} = {h[i] - h[i+1]} <= {bound}",
            )
            break

    from .phimodule import partial_sum_set  # only classify scans refinements: hecke compiles no phimodule

    admissible = partial_sum_set(p, alphas, h)
    very = (
        bound_ok
        and gap_ok
        and len(admissible) == 1
        and admissible[0].word == ""
    )
    return ClassicalityReport(
        bound_ok=bound_ok,
        bound_witness=witness,
        alternate_reading_differs=alternate_differs,
        gap_ok=gap_ok,
        gap_witness=gap_witness,
        admissible=tuple(w.word or "e" for w in admissible),
        very_classical=very,
    )
