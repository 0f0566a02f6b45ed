"""Root datum of (GSp4, B), the 8-element Weyl group, and torus characters.

The Weyl group is realized inside S4 as the permutations s with
s(1)+s(4) = s(2)+s(3) = 5.  Weights live on the rank-3 character lattice
with coordinates (n1, n2, n3) for p1^n1 p2^n2 p3^n3, where p1, p2, p3 read
off the entries (a, b, c) of diag(a, b, c/b, c/a).  Coroots and torus
elements are diagonal 4-tuples constrained by m1+m4 = m2+m3.
"""

from __future__ import annotations

from fractions import Fraction as Q

from ._value import Value
from .errors import ConstraintViolated, InvalidData, ParseError
from .scalars import padic_val


class WeylElem(Value):
    """Weyl group element in one-line permutation notation (1-indexed)."""

    perm: tuple[int, int, int, int]

    def __post_init__(self):
        if sorted(self.perm) != [1, 2, 3, 4]:
            raise InvalidData(f"not a permutation of 1..4: {self.perm}")
        if self.perm[0] + self.perm[3] != 5 or self.perm[1] + self.perm[2] != 5:
            raise InvalidData(f"permutation {self.perm} is not in the Weyl group")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        # (w * v)(i) = w(v(i)): v acts first, matching matrix products.
        return WeylElem(tuple(self.perm[other.perm[i] - 1] for i in range(4)))

    def inv(self) -> "WeylElem":
        out = [0] * 4
        for i, img in enumerate(self.perm):
            out[img - 1] = i + 1
        return WeylElem(tuple(out))

    def act_tuple(self, x: tuple) -> tuple:
        """Conjugation action on diagonal 4-tuples: entry i becomes x_{w^{-1}(i)}."""
        winv = self.inv()
        return tuple(x[winv(i + 1) - 1] for i in range(4))

    @property
    def word(self) -> str:
        return _WORDS[self.perm]

    def length(self) -> int:
        return len(self.word) // 2

    def __str__(self):
        return self.word or "e"

    def matrix(self):
        """Permutation matrix sending e_i to e_{w(i)} (no sign corrections)."""
        M = [[Q(0)] * 4 for _ in range(4)]
        for i in range(4):
            M[self.perm[i] - 1][i] = Q(1)
        return M


W_ID = WeylElem((1, 2, 3, 4))
S1 = WeylElem((2, 1, 4, 3))
S2 = WeylElem((1, 3, 2, 4))


def _build_words() -> dict:
    words = {W_ID.perm: ""}
    frontier = [W_ID]
    while frontier:
        nxt = []
        for w in frontier:
            for gen, letter in ((S1, "s1"), (S2, "s2")):
                v = gen * w
                if v.perm not in words:
                    words[v.perm] = letter + words[w.perm]
                    nxt.append(v)
        frontier = nxt
    return words


_WORDS = _build_words()

#: All eight elements, shortest words first, s1 before s2 at equal length.
W_ALL = tuple(sorted((WeylElem(p) for p in _WORDS), key=lambda w: (w.length(), w.word)))

S0 = WeylElem((4, 3, 2, 1))


def _act_word(word: str, x, s1, s2):
    """Apply the letters of a word like "s1s2" to x, rightmost first;
    s1(x) and s2(x) give the action of one letter."""
    tokens = word.replace(" ", "")
    if len(tokens) % 2:
        raise ParseError(f"bad Weyl word {word!r}")
    for i in range(len(tokens) - 2, -2, -2):
        letter = tokens[i : i + 2]
        if letter == "s1":
            x = s1(x)
        elif letter == "s2":
            x = s2(x)
        else:
            raise ParseError(f"bad Weyl word {word!r}")
    return x


def from_word(word: str) -> WeylElem:
    """Parse words like "s1s2s1"; "e" or "" is the identity."""
    word = word.strip()
    if word in ("", "e", "id"):
        return W_ID
    return _act_word(word, W_ID, S1.__mul__, S2.__mul__)


def from_oneline(perm) -> WeylElem:
    return WeylElem(tuple(int(x) for x in perm))


_SWAP_LETTERS = str.maketrans("12", "21")


def check_involution(w: WeylElem) -> WeylElem:
    """The diagram automorphism exchanging s1 and s2."""
    return from_word(w.word.translate(_SWAP_LETTERS))


# ---------------------------------------------------------------------------
# Weights and cocharacters
# ---------------------------------------------------------------------------


class Weight(Value):
    """Exponents (n1, n2, n3) of p1, p2, p3; rationals allowed for rho-shifts."""

    n1: Q
    n2: Q
    n3: Q

    def __post_init__(self):
        object.__setattr__(self, "n1", Q(self.n1))
        object.__setattr__(self, "n2", Q(self.n2))
        object.__setattr__(self, "n3", Q(self.n3))

    def coords(self) -> tuple[Q, Q, Q]:
        return (self.n1, self.n2, self.n3)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.n1 + other.n1, self.n2 + other.n2, self.n3 + other.n3)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.n1 - other.n1, self.n2 - other.n2, self.n3 - other.n3)


class CocharTuple(Value):
    """Diagonal cocharacter exponents (m1, m2, m3, m4) with m1+m4 = m2+m3."""

    m: tuple

    def __post_init__(self):
        m = tuple(Q(x) for x in self.m)
        if m[0] + m[3] != m[1] + m[2]:
            raise ConstraintViolated(f"m1+m4 != m2+m3 in {m}")
        object.__setattr__(self, "m", m)


ALPHA = Weight(1, -1, 0)      # short simple root p1/p2
BETA = Weight(0, 2, -1)       # long simple root p2^2/p3
SIM = Weight(0, 0, 1)
ALPHA_CHECK = CocharTuple((1, -1, 1, -1))
BETA_CHECK = CocharTuple((0, 1, -1, 0))

#: Half-sum of the positive roots alpha, beta, alpha*beta, alpha^2*beta.
RHO = Weight(2, 1, Q(-3, 2))


def _swap_12(c: tuple) -> tuple:
    return (c[1], c[0], c[2])


def weyl_act_weight(w: WeylElem, mu: Weight) -> Weight:
    """Action on the character lattice: s1 swaps n1, n2; s2 negates n2 into n3."""
    return Weight(*_act_word(w.word, mu.coords(), _swap_12, lambda c: (c[0], -c[1], c[1] + c[2])))


def weyl_act(w: WeylElem, x):
    """Action on Weight, CocharTuple or plain diagonal 4-tuples."""
    if isinstance(x, Weight):
        return weyl_act_weight(w, x)
    if isinstance(x, CocharTuple):
        return CocharTuple(w.act_tuple(x.m))
    if isinstance(x, tuple):
        return w.act_tuple(x)
    raise InvalidData(f"cannot act on {type(x).__name__}")


def pairing(mu: Weight, c: CocharTuple) -> Q:
    """Canonical character/cocharacter pairing."""
    m1, m2, _, m4 = c.m
    return mu.n1 * m1 + mu.n2 * m2 + mu.n3 * (m1 + m4)


def L_map(c: CocharTuple) -> Weight:
    """The lattice isomorphism diag(m1..m4) -> (m1-m3, m1-m2, m4)."""
    m1, m2, m3, m4 = c.m
    return Weight(m1 - m3, m1 - m2, m4)


def L_map_inverse(mu: Weight) -> CocharTuple:
    n1, n2, n3 = mu.coords()
    # m4 = n3, m2 = m1-n2, m3 = m1-n1; m1+m4 = m2+m3 forces m1 = n1+n2+n3.
    m1 = n1 + n2 + n3
    return CocharTuple((m1, m1 - n2, m1 - n1, n3))


def dot_action(u: WeylElem, lam: Weight) -> Weight:
    """Rho-shifted action u . lam = u(lam + rho) - rho."""
    return weyl_act_weight(u, lam + RHO) - RHO


# ---------------------------------------------------------------------------
# Locally algebraic characters of Qp^x and of the torus
# ---------------------------------------------------------------------------


class QpChar(Value):
    """Character unr(coef * p^pexp) * z^zexp of Qp^x.

    Canonical form keeps val_p(coef) = 0 by folding powers of p into pexp;
    rational exponents are allowed (the |.|^(3/2)-style twists need them).
    """

    p: int
    coef: Q = Q(1)
    pexp: Q = Q(0)
    zexp: Q = Q(0)

    def __post_init__(self):
        coef, pexp, zexp = Q(self.coef), Q(self.pexp), Q(self.zexp)
        if coef == 0:
            raise InvalidData("character unit must be nonzero")
        v = padic_val(coef, self.p)
        if v:
            coef = coef / Q(self.p) ** v
            pexp = pexp + v
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "pexp", pexp)
        object.__setattr__(self, "zexp", zexp)

    @staticmethod
    def unramified(p: int, alpha) -> "QpChar":
        return QpChar(p, coef=Q(alpha))

    @staticmethod
    def algebraic(p: int, k) -> "QpChar":
        return QpChar(p, zexp=Q(k))

    @staticmethod
    def norm_power(p: int, t) -> "QpChar":
        """|.|_p^t as a smooth character: unit value p^(-t)."""
        return QpChar(p, pexp=-Q(t))

    def __mul__(self, other: "QpChar") -> "QpChar":
        assert self.p == other.p
        return QpChar(self.p, self.coef * other.coef, self.pexp + other.pexp, self.zexp + other.zexp)

    def __truediv__(self, other: "QpChar") -> "QpChar":
        assert self.p == other.p
        return QpChar(self.p, self.coef / other.coef, self.pexp - other.pexp, self.zexp - other.zexp)

    def inv(self) -> "QpChar":
        return QpChar(self.p, 1 / self.coef, -self.pexp, -self.zexp)

    def is_smooth(self) -> bool:
        return self.zexp == 0

    def unit_str(self) -> str:
        if self.pexp.denominator == 1:
            return str(self.coef * Q(self.p) ** int(self.pexp))
        body = f"{self.p}^({self.pexp})"
        return body if self.coef == 1 else f"{self.coef}*{body}"

    def __str__(self):
        parts = []
        if not (self.coef == 1 and self.pexp == 0):
            parts.append(f"unr({self.unit_str()})")
        if self.zexp:
            parts.append(f"z^{self.zexp}" if self.zexp.denominator == 1 else f"z^({self.zexp})")
        return "*".join(parts) if parts else "1"


class TChar(Value):
    """Locally algebraic character of T(Qp) in (p1, p2, p3)-coordinates."""

    chars: tuple[QpChar, QpChar, QpChar]

    @property
    def p(self) -> int:
        return self.chars[0].p

    def __mul__(self, other: "TChar") -> "TChar":
        return TChar(tuple(x * y for x, y in zip(self.chars, other.chars)))

    def inv(self) -> "TChar":
        return TChar(tuple(x.inv() for x in self.chars))

    def is_smooth(self) -> bool:
        return all(c.is_smooth() for c in self.chars)

    def __str__(self):
        return " ; ".join(str(c) for c in self.chars)


def weyl_act_tchar(w: WeylElem, chi: TChar) -> TChar:
    """(w chi)(t) = chi(w^{-1} t w) in the three torus coordinates: the
    letter formulas of weyl_act_weight, written multiplicatively."""
    return TChar(_act_word(w.word, chi.chars, _swap_12, lambda c: (c[0], c[1].inv(), c[1] * c[2])))


def build_char(kind: str, p: int, alphas=None, weights=None, w: WeylElem | None = None) -> TChar:
    """The named characters used throughout: phi, eta, lambda, delta_w, llc_param."""
    if kind == "phi":
        a1, a2, a3, a4 = (Q(x) for x in alphas)
        return TChar((
            QpChar.unramified(p, a1 / a3),
            QpChar.unramified(p, a1 / a2),
            QpChar.unramified(p, a4),
        ))
    if kind == "eta":
        # |p1|^-2 |p2|^-1
        return TChar((QpChar.norm_power(p, -2), QpChar.norm_power(p, -1), QpChar(p)))
    if kind == "lambda":
        h1, h2, h3, h4 = weights
        return TChar((
            QpChar.algebraic(p, h1 - h3 - 2),
            QpChar.algebraic(p, h1 - h2 - 1),
            QpChar.algebraic(p, h4),
        ))
    if kind == "delta_w":
        phi = build_char("phi", p, alphas=alphas)
        eta = build_char("eta", p)
        lam = build_char("lambda", p, weights=weights)
        return weyl_act_tchar(w or W_ID, phi) * eta * lam
    if kind == "llc_param":
        phi = build_char("phi", p, alphas=alphas)
        eta = build_char("eta", p)
        half_twist = TChar((QpChar(p), QpChar(p), QpChar.norm_power(p, Q(3, 2))))
        return phi * eta * half_twist
    raise InvalidData(f"unknown character kind {kind!r}")
