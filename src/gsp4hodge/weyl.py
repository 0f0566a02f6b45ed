"""Root datum of (GSp4, B) and its 8-element Weyl group.

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
from .scalars import INTEGER, RATIONAL, require_type


class WeylElem(Value):
    """Weyl group element in one-line permutation notation (1-indexed), of ints."""

    perm: tuple[int, int, int, int]

    def __post_init__(self):
        for i, x in enumerate(self.perm):
            require_type(f"perm[{i}]", x, INTEGER)
        if sorted(self.perm) != [1, 2, 3, 4]:
            raise InvalidData(f"not a permutation of 1..4: {self.perm}")
        if self.perm[0] + self.perm[3] != 5 or self.perm[1] + self.perm[2] != 5:
            raise InvalidData(f"permutation {self.perm} is not in the Weyl group")

    def __call__(self, i: int) -> int:
        if require_type("i", i, INTEGER) not in (1, 2, 3, 4):
            raise InvalidData(f"index {i} is not in 1..4")
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


#: Torus elements with block coordinates x, y and z (kernel.torus_block_coords).
TORUS_BASIS = (
    (Q(1), Q(0), Q(0), Q(-1)),
    (Q(0), Q(1), Q(-1), Q(0)),
    (Q(0), Q(0), Q(1), Q(1)),
)

#: Bases of the centers of gsp4 (G) and of the Siegel (P) and Klingen (Q)
#: Levi subalgebras: diag(u,u,u,u), diag(u,u,v,v) and diag(u,v,v,2v-u).
LEVI_CENTERS = {
    "G": ((Q(1), Q(1), Q(1), Q(1)),),
    "P": ((Q(1), Q(1), Q(0), Q(0)), (Q(0), Q(0), Q(1), Q(1))),
    "Q": ((Q(1), Q(0), Q(0), Q(-1)), (Q(0), Q(1), Q(1), Q(2))),
}


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
    """Parse words like "s1s2s1"; "e" or "" is the identity.  A word that
    is not a str is a TypeError."""
    if not isinstance(word, str):
        raise TypeError(f"word must be a str, not {type(word).__name__!r}")
    word = word.strip()
    if word in ("", "e", "id"):
        return W_ID
    return _act_word(word, W_ID, S1.__mul__, S2.__mul__)


def from_oneline(perm) -> WeylElem:
    return WeylElem(tuple(perm))


_SWAP_LETTERS = str.maketrans("12", "21")


def check_involution(w: WeylElem) -> WeylElem:
    """The diagram automorphism exchanging s1 and s2."""
    return from_word(w.word.translate(_SWAP_LETTERS))


# ---------------------------------------------------------------------------
# Weights and cocharacters
# ---------------------------------------------------------------------------


class Weight(Value):
    """Exponents (n1, n2, n3) of p1, p2, p3: ints or Fractions, kept as Fractions."""

    n1: Q
    n2: Q
    n3: Q

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            object.__setattr__(self, name, require_type(name, getattr(self, name), RATIONAL))

    def coords(self) -> tuple[Q, Q, Q]:
        return (self.n1, self.n2, self.n3)


class CocharTuple(Value):
    """Diagonal cocharacter exponents (m1, m2, m3, m4), ints or Fractions, with m1+m4 = m2+m3."""

    m: tuple

    def __post_init__(self):
        m = tuple(require_type(f"m[{i}]", x, RATIONAL) for i, x in enumerate(self.m))
        if m[0] + m[3] != m[1] + m[2]:
            raise ConstraintViolated(f"m1+m4 != m2+m3 in {m}")
        object.__setattr__(self, "m", m)


ALPHA = Weight(1, -1, 0)      # short simple root p1/p2
BETA = Weight(0, 2, -1)       # long simple root p2^2/p3
SIM = Weight(0, 0, 1)
ALPHA_CHECK = CocharTuple((1, -1, 1, -1))
BETA_CHECK = CocharTuple((0, 1, -1, 0))


def _swap_12(c: tuple) -> tuple:
    return (c[1], c[0], c[2])


def weyl_act_weight(w: WeylElem, mu: Weight) -> Weight:
    """Action on the character lattice: s1 swaps n1, n2; s2 negates n2 into n3."""
    return Weight(*_act_word(w.word, mu.coords(), _swap_12, lambda c: (c[0], -c[1], c[1] + c[2])))


def weyl_act(w: WeylElem, x):
    """Action on Weight or CocharTuple."""
    if isinstance(x, Weight):
        return weyl_act_weight(w, x)
    if isinstance(x, CocharTuple):
        return CocharTuple(w.act_tuple(x.m))
    raise InvalidData(f"cannot act on {type(x).__name__}")


def pairing(mu: Weight, c: CocharTuple) -> Q:
    """Canonical character/cocharacter pairing."""
    m1, m2, _, m4 = c.m
    return mu.n1 * m1 + mu.n2 * m2 + mu.n3 * (m1 + m4)


def L_map(c: CocharTuple) -> Weight:
    """The lattice isomorphism diag(m1..m4) -> (m1-m3, m1-m2, m4)."""
    m1, m2, m3, m4 = c.m
    return Weight(m1 - m3, m1 - m2, m4)
