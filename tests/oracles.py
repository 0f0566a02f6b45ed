"""Second routes that the tests compare the library against.

Each function here computes, by a different route, something the library
computes or certifies, or a fact only the tests check; nothing under
``src/`` calls them.  Test modules import them as ``from oracles import ...``
(pytest's default import mode puts ``tests/`` on ``sys.path``).
"""

import ast
from fractions import Fraction as Q
from itertools import accumulate, combinations
from math import prod

from gsp4hodge.errors import DegreeCapExceeded, DivisionByZero, InvalidData, NotALine, ParseError
from gsp4hodge.extledger import AddChar, _qpchar, _tchar
from gsp4hodge.kernel import (
    GENERATOR_LABELS,
    LInvariantPlane,
    _require_nondegenerate,
    block_index,
    eigenline_grid,
    embed_block,
    glue_subspace,
    kernel_basis,
    nu_operator,
    recover_parameters,
)
from gsp4hodge.linalg import coerce_rows, inverse, mat_add, mat_mul, meet_coordinates, nullspace, rank, row_space
from gsp4hodge.phimodule import (
    PhiModuleData,
    _coordinate_meets,
    _filtration_prefixes,
    _hodge_t_invariant,
    _require_structure,
    _valuations,
    complete_flag,
    filtration_basis,
    newton_above_hodge,
    refinement_weights,
)
from gsp4hodge.scalars import (
    Poly2,
    RatFunc,
    Scalar,
    _add,
    _degree_cap,
    _lift,
    _mul,
    _poly,
    _strip,
    is_zero,
    parse_scalar,
    poly_divexact,
    poly_gcd,
    scalar_str,
)
from gsp4hodge.weyl import W_ALL, W_ID, CocharTuple, Weight, WeylElem, _act_word, from_word, weyl_act_weight

# ---------------------------------------------------------------------------
# Products in Q[a, b] and Q(a, b) by the general route
# ---------------------------------------------------------------------------
#
# The general-route bodies of Poly2.__mul__, Poly2.scale, RatFunc.const,
# RatFunc.__mul__, RatFunc.__truediv__ and RatFunc.__eq__, as they were
# before a constant factor became a new scale: every product runs _mul and
# reads the degree cap, and every constant is lifted to a RatFunc and met by
# the cross-gcds.  They call the library's own helpers and operators, so a
# test installs them all in place of those methods to run the whole route.


def poly2_scale_by_lift(self, c):
    c = Q(c)
    return _poly(self._view if c else {}, self._scale * c)


def poly2_mul_by_views(self, other):
    other = _lift(other, Poly2)
    if other is NotImplemented:
        return NotImplemented
    # A product of views is a view (Gauss's lemma).
    product = _poly(_mul(self._view, other._view), self._scale * other._scale)
    # Only a product outgrows its inputs' degree, so the cap is checked here.
    cap = _degree_cap()
    if cap is not None and product.total_degree() > cap:
        raise DegreeCapExceeded(
            f"polynomial degree {product.total_degree()} exceeds GSP4H_MAX_DEGREE={cap}"
        )
    return product


def ratfunc_const_by_gcd(c) -> RatFunc:
    return RatFunc(Poly2.const(c))


def ratfunc_mul_by_cross_gcds(self, other):
    other = _lift(other, RatFunc)
    if other is NotImplemented:
        return NotImplemented
    if self.is_zero() or other.is_zero():
        return RatFunc.const(0)
    g1 = poly_gcd(self.num, other.den)
    g2 = poly_gcd(other.num, self.den)
    n1 = self.num if g1.is_const() else poly_divexact(self.num, g1)
    d2 = other.den if g1.is_const() else poly_divexact(other.den, g1)
    n2 = other.num if g2.is_const() else poly_divexact(other.num, g2)
    d1 = self.den if g2.is_const() else poly_divexact(self.den, g2)
    return RatFunc(n1 * n2, d1 * d2)


def ratfunc_truediv_by_cross_gcds(self, other):
    other = _lift(other, RatFunc)
    if other is NotImplemented:
        return NotImplemented
    if other.is_zero():
        raise DivisionByZero("division by zero rational function")
    return self * RatFunc(other.den, other.num)


def ratfunc_eq_by_lift(self, other):
    other = _lift(other, RatFunc)
    if other is NotImplemented:
        return NotImplemented
    return self.num == other.num and self.den == other.den


# ---------------------------------------------------------------------------
# Sums in Q[a, b] and Q(a, b) by a second route
# ---------------------------------------------------------------------------


def poly2_add_by_scale_ratio(p: Poly2, q: Poly2) -> Poly2:
    """p + q as Poly2.__add__ summed before it called linear_combination:
    s*f + t*g = (s/d) * (d*f + n*g), where t/s = n/d, stripped once."""
    if not q._view:
        return p
    if not p._view:
        return q
    r = q._scale / p._scale
    f = p._view if r.denominator == 1 else _mul(p._view, {0: {0: r.denominator}})
    return _poly(*_strip(_add(f, q._view, r.numerator), p._scale / r.denominator))


def ratfunc_add_by_combining(x: RatFunc, y: RatFunc) -> RatFunc:
    """x + y over the product of the denominators, reduced by one gcd at
    the end, where Henrici's method cancels before and after it sums."""
    return RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)


# ---------------------------------------------------------------------------
# Scalar syntax by a whitelist walk
# ---------------------------------------------------------------------------

#: The node types a scalar expression could hold when a walk over the whole
#: tree checked them ahead of the evaluator.  The evaluator is now the only
#: syntax gate, and it must admit exactly these.
ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def parse_scalar_by_whitelist(text: str, symbolic: bool = False) -> Scalar:
    """parse_scalar behind the whitelist walk: a ParseError when the text
    does not parse or any node of its tree is not in ALLOWED_NODES, and
    otherwise whatever parse_scalar makes of it."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"bad scalar expression {text!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, ALLOWED_NODES):
            raise ParseError(f"forbidden syntax in scalar expression {text!r}")
    return parse_scalar(text, symbolic)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def det(A):
    """Determinant via Gaussian elimination with exact division."""
    n = len(A)
    M = [list(r) for r in coerce_rows(A)]
    d = M[0][0] - M[0][0] + 1  # one of the ambient field
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return d * 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            sign = -sign
        piv = M[c][c]
        d = d * piv
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] / piv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return d * sign


# The dense forms of three linalg routines, which touch every cell whether
# or not it is zero; the library skips zero cells and must agree with them.


def dense_rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    n, m = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def dense_mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            out[i][j] = acc
    return out


def dense_meet_coordinates(gens, ann):
    system = [[sum(x * z for x, z in zip(y, g) if x and z) for g in gens] for y in ann]
    return nullspace(system, len(gens))


def mat_sub(A, B):
    return [[A[i][j] - B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


# ---------------------------------------------------------------------------
# The symplectic space and gsp4
# ---------------------------------------------------------------------------


def symplectic_form(x, y) -> Scalar:
    """r(x, y) = x J y^T for row vectors x, y."""
    return (
        x[0] * y[3] + x[1] * y[2] - x[2] * y[1] - x[3] * y[0]
    )


# The basis of gsp4 that symplectic.gsp4_coordinates reads coordinates in.


def _E(i, j):
    M = [[Q(0)] * 4 for _ in range(4)]
    M[i][j] = Q(1)
    return M


def gsp4_basis():
    """The fixed ordered 11-element basis of gsp4."""
    H_a = [[Q(1), 0, 0, 0], [0, Q(0), 0, 0], [0, 0, Q(0), 0], [0, 0, 0, Q(-1)]]
    H_b = [[Q(0), 0, 0, 0], [0, Q(1), 0, 0], [0, 0, Q(-1), 0], [0, 0, 0, Q(0)]]
    H_c = [[Q(0), 0, 0, 0], [0, Q(0), 0, 0], [0, 0, Q(1), 0], [0, 0, 0, Q(1)]]
    X_a = mat_sub(_E(0, 1), _E(2, 3))
    X_ma = mat_sub(_E(1, 0), _E(3, 2))
    X_b = _E(1, 2)
    X_mb = _E(2, 1)
    X_ab = mat_add(_E(0, 2), _E(1, 3))
    X_mab = mat_add(_E(2, 0), _E(3, 1))
    X_aab = _E(0, 3)
    X_maab = _E(3, 0)
    return [coerce_rows(M) for M in (H_a, H_b, H_c, X_a, X_ma, X_b, X_mb, X_ab, X_mab, X_aab, X_maab)]


def hodge_borel_basis(a: Scalar, b: Scalar):
    """Rows (11-dim coordinates) of the gsp4 subalgebra preserving the flag."""
    _require_nondegenerate(a, b)
    basis = gsp4_basis()
    equations = []
    for V in complete_flag(a, b).members:
        ann = nullspace([list(r) for r in V.rows], 4)
        for r in V.rows:
            for y in ann:
                # condition: y . (M r^T) = 0, linear in the 11 coordinates
                eq = []
                for G in basis:
                    Gr = [sum(G[i][j] * r[j] for j in range(4)) for i in range(4)]
                    eq.append(sum(y[i] * Gr[i] for i in range(4)))
                equations.append(eq)
    return nullspace(equations, 11)


# ---------------------------------------------------------------------------
# Table evaluation by field operations
# ---------------------------------------------------------------------------


def _nondeg_factor_values(a: Scalar, b: Scalar):
    return (a, b, b + 1, a + b, a * b + a + b)


def table_evaluator_by_field_ops(a: Scalar, b: Scalar):
    """The function that evaluates table cells at (a, b), which lie in one
    field and make every denominator the cells use nonzero.  Values lie in
    that field; each distinct cell is evaluated once, and each denominator,
    the product of the nondegeneracy factors it indexes, is built by field
    operations and inverted on first use, so a table pays only for its own.
    The library's kernel._table_evaluator evaluates whole tables instead,
    each cell in the ring under the field, from the factor pairs of
    phimodule.nondeg_factors, reduced once; the tests compare the two
    routes' values cell by cell, in type and canonical form."""
    zero = a - a
    one = zero + 1
    ab = a * b
    factors = _nondeg_factor_values(a, b)
    monomials = (one, a, b, a * a, ab, b * b)
    values = {0: zero, 1: one}  # tables repeat cells
    inverses = {}

    def value(cell):
        x = values.get(cell)
        if x is None:
            if isinstance(cell, int):
                x = zero + cell
            else:
                den, *coeffs = cell
                x = zero
                for c, m in zip(coeffs, monomials):
                    if c:
                        x = x + (m if c == 1 else c * m)
                if den:
                    inv = inverses.get(den)
                    if inv is None:
                        inv = inverses[den] = one / prod((factors[i] for i in den), start=one)
                    x = x * inv
            values[cell] = x
        return x

    return value


# ---------------------------------------------------------------------------
# The generators and the matrix suite by elimination
# ---------------------------------------------------------------------------


#: Torus elements behind the distinguished generators.
T1 = (Q(-1), Q(-1), Q(1), Q(1))
T2 = (Q(-1), Q(0), Q(0), Q(1))

#: Each distinguished generator's torus element and Weyl element, built
#: from its word.  The plane table in kernel is written in these
#: generators' coordinates, in GENERATOR_LABELS order.
GENERATOR_DEF_BY_WORD = {
    "f1": (T1, W_ID),
    "f2": (T1, from_word("s2")),
    "f3": (T1, from_word("s1s2s1s2")),
    "f4": (T1, from_word("s2s1")),
    "g1": (T2, W_ID),
    "g2": (T2, from_word("s1")),
    "g3": (T2, from_word("s1s2")),
    "g4": (T2, from_word("s1s2s1s2")),
}


def generator_vector_by_word(label: str):
    t, w = GENERATOR_DEF_BY_WORD[label]
    return embed_block(t, w)


def matrix_suite_by_elimination(a: Scalar, b: Scalar) -> dict:
    """Images of the eight distinguished generators, written in the
    filtration basis (v1, v2, v3, v4): each nu_operator on the eigenline
    grid, conjugated by the filtration basis.  The library evaluates the
    committed suite table instead; TestCertificate proves the two agree."""
    grid = eigenline_grid(a, b)
    B = [list(col) for col in zip(*filtration_basis(a, b))]  # columns are v_i
    Binv = inverse(coerce_rows(B))
    out = {}
    for label in GENERATOR_LABELS:
        t, w = GENERATOR_DEF_BY_WORD[label]
        M = nu_operator(grid, w, t)
        out[label] = mat_mul(mat_mul(Binv, M), coerce_rows(B))
    return out


# ---------------------------------------------------------------------------
# Hodge-parameter recovery through the projection lines
# ---------------------------------------------------------------------------

# The paper's route from the kernel back to (a, b): meet the kernel with two
# generator spans (generator_meets) and read the two projected lines.
# The library reads a and b off two cells of the committed kernel table, and
# off the committed plane table; TestCertificate proves this route over
# Q(a, b).


#: The two generator spans that meet the kernel in a line: the first line
#: projects to (b+1) g2 - g3, the second to b g2 + a g4.  The invariant
#: plane takes its representatives from these meets.
RECOVERY_LABELS = (
    ("f1", "f2", "f3", "f4", "g1", "g2", "g3"),
    ("f1", "f2", "f3", "f4", "g1", "g2", "g4"),
)


def generator_meets(kernel_rows) -> tuple:
    """For each label set in RECOVERY_LABELS, a basis of the
    coordinates c with sum_j c_j (generator j) in the span of kernel_rows.

    With ann spanning the annihilator of the kernel, these are
    meet_coordinates(B, ann), B the independent generator vectors, so
    kernel_rows may be any spanning set, echelon or not."""
    ann = nullspace(list(kernel_rows), 24)
    return tuple(
        tuple(meet_coordinates([generator_vector_by_word(lbl) for lbl in labels], ann))
        for labels in RECOVERY_LABELS
    )


def _projected_line(coords, labels, pair):
    """Project the meet (generator coordinates) onto two generator
    coordinates; the result must be a line, returned as (u, v)."""
    if not coords:
        raise NotALine("kernel misses the generator span")
    i, j = (labels.index(pair[0]), labels.index(pair[1]))
    line = row_space([[c[i], c[j]] for c in coords])
    if len(line) != 1:
        raise NotALine(f"projection onto {pair} has dimension {len(line)}")
    return line[0]


def parameters_from_meets(meets):
    """Read (a, b) off the two meets that generator_meets returns."""
    (labels_b, labels_a), (meet_b, meet_a) = RECOVERY_LABELS, meets
    u, v = _projected_line(meet_b, labels_b, ("g2", "g3"))
    if is_zero(v):
        raise NotALine("degenerate projection: g3 coefficient vanishes")
    b = -u / v - 1
    u2, v2 = _projected_line(meet_a, labels_a, ("g2", "g4"))
    if is_zero(u2):
        raise NotALine("degenerate projection: g2 coefficient vanishes")
    a = b * v2 / u2
    return a, b


def l_invariant_plane_by_meets(a, b) -> LInvariantPlane:
    """kernel.l_invariant_plane by elimination: meet the kernel with the
    two generator spans, check that each meet is a line and that the two
    representatives complete the glue to the kernel, and recover (a, b)
    from the kernel."""
    K = kernel_basis(a, b)
    glue = glue_subspace()
    meets = generator_meets(K.rows)
    reps, basis_fg = [], []
    for labels, meet in zip(RECOVERY_LABELS, meets):
        if len(meet) != 1:
            raise NotALine(f"kernel meets span{labels} in dimension {len(meet)}")
        gens = [generator_vector_by_word(lbl) for lbl in labels]
        vec = mat_mul(meet, gens)[0]
        # the representative is the meet's echelon basis vector in E^24
        lead = next(x for x in vec if x)
        reps.append(tuple(x / lead for x in vec))
        coords = dict(zip(labels, meet[0]))
        zero = lead - lead
        basis_fg.append(tuple(coords.get(lbl, zero) / lead for lbl in GENERATOR_LABELS))
    # independence modulo the glue
    combined = rank(list(glue.rows) + reps)
    if combined != K.dim:
        raise NotALine("representatives do not complete the glue to the kernel")
    a_rec, b_rec = recover_parameters(K)
    return LInvariantPlane(
        basis_fg=tuple(basis_fg), a=a_rec, b=b_rec, kernel_dim=K.dim, glue_dim=glue.dim
    )


# ---------------------------------------------------------------------------
# Relabeling the refinement: the Weyl group on (a, b) and on the blocks
# ---------------------------------------------------------------------------


def phi_s1(point):
    """(a, b) after the refinement is relabeled by s1 = (2,1,4,3)."""
    a, b = point
    return 1 / a, b / a


def phi_s2(point):
    """(a, b) after the refinement is relabeled by s2 = (1,3,2,4)."""
    a, b = point
    return -a, -b / (b + 1)


def phi(w: WeylElem, point):
    """phi_w(a, b): the letters of w's word act rightmost first.  Both
    generators are involutions, and phi_vw = phi_v o phi_w."""
    return _act_word(w.word, point, phi_s1, phi_s2)


def block_permutation(w: WeylElem, rows) -> tuple:
    """R_w on rows of E^24: the block of u moves to the block of u * w^-1
    and keeps its (x, y, z), so that K(phi_w(a, b)) = R_w K(a, b)."""
    winv = w.inv()
    moves = [(3 * block_index(u), 3 * block_index(u * winv)) for u in W_ALL]
    out = []
    for row in rows:
        new = list(row)
        for i, j in moves:
            new[j : j + 3] = row[i : i + 3]
        out.append(tuple(new))
    return tuple(out)


# ---------------------------------------------------------------------------
# Phi-modules
# ---------------------------------------------------------------------------


def newton_hodge_shortcut(p: int, alphas, weights) -> bool:
    """Polygon form of weak admissibility: sorted-valuation partial sums
    against the weight partial sums.  Agrees with the subset checker in
    general position."""
    return newton_above_hodge(
        accumulate(sorted(_valuations(p, alphas))), accumulate(-h for h in weights)
    )


def admissible_refinements_by_meets(d: PhiModuleData):
    """The refinement set by the meet route that admissible_refinements
    replaced: the Hodge sums along the prefixes E_{1..i} count the actual
    meets dim(E_{1..i} ∩ F^j), found by linear algebra at (a, b)."""
    _require_structure(d, nondegenerate=False)
    members = _filtration_prefixes(d.a, d.b)
    t_newton = list(accumulate(_valuations(d.p, d.alphas)))
    prefix_meets = [_coordinate_meets(members, range(1, i + 1)) for i in (1, 2, 3, 4)]
    out = []
    for w in W_ALL:
        jumps = tuple(-h for h in refinement_weights(w, d.weights))
        if newton_above_hodge(t_newton, [_hodge_t_invariant(jumps, m) for m in prefix_meets]):
            out.append(w)
    return out


def siegel_plucker_minors(d: PhiModuleData):
    """2x2 minors of the F^2 basis matrix in column-pair order
    (12, 13, 14, 23, 24, 34)."""
    v1, v2, _, _ = filtration_basis(d.a, d.b)
    out = []
    for i, j in combinations(range(4), 2):
        out.append(v1[i] * v2[j] - v1[j] * v2[i])
    return out


def phi_module_to_json(d: PhiModuleData) -> dict:
    return {
        "p": d.p,
        "alphas": [scalar_str(Q(x)) for x in d.alphas],
        "weights": [int(x) for x in d.weights],
        "a": scalar_str(d.a),
        "b": scalar_str(d.b),
        "symbolic": d.symbolic,
    }


# ---------------------------------------------------------------------------
# Weights and characters
# ---------------------------------------------------------------------------


def is_dominant(mu: Weight) -> bool:
    return mu.n1 >= mu.n2 >= 0


def is_strictly_dominant(mu: Weight) -> bool:
    return mu.n1 > mu.n2 > 0


def L_map_inverse(mu: Weight) -> CocharTuple:
    n1, n2, n3 = mu.coords()
    # m4 = n3, m2 = m1-n2, m3 = m1-n1; m1+m4 = m2+m3 forces m1 = n1+n2+n3.
    m1 = n1 + n2 + n3
    return CocharTuple((m1, m1 - n2, m1 - n1, n3))


def ell_map_inverse(chi: AddChar) -> AddChar:
    if chi.shape != "T_to_E":
        raise InvalidData("ell_map_inverse expects a T_to_E character")
    return _qpchar(*(L_map_inverse(Weight(*half)).m for half in (chi.val, chi.log)))


def weyl_act_addchar(w: WeylElem, psi: AddChar) -> AddChar:
    if psi.shape == "qp_to_t":
        return _qpchar(w.act_tuple(psi.val), w.act_tuple(psi.log))
    # T_to_E: val and log each transform like a weight
    return _tchar(*(weyl_act_weight(w, Weight(*half)).coords() for half in (psi.val, psi.log)))
