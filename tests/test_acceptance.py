"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Everything is exact arithmetic; "tolerance 0" means structural
equality of canonical forms.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from gsp4hodge.extledger import (
    all_constituents,
    check_ledger,
    constituents,
    socle_constituents,
    socle_diagram,
)
from gsp4hodge.hecke import HeckeData, hecke_charpoly, ideal_generators
from gsp4hodge.kernel import (
    GENERATOR_LABELS,
    glue_generators,
    glue_subspace,
    jbar_matrix,
    jbar_rank,
    kernel_basis,
    matrix_suite,
    recover_parameters,
)
from gsp4hodge.linalg import mat_eq, mat_mul, mat_scale, nullspace, rank
from gsp4hodge.phimodule import PhiModuleData, weak_admissibility
from gsp4hodge.scalars import RatFunc
from gsp4hodge.symplectic import Subspace, adjoint, lie_membership, s_involution
from gsp4hodge.weyl import (
    ALPHA,
    ALPHA_CHECK,
    BETA,
    BETA_CHECK,
    S0,
    S1,
    S2,
    SIM,
    W_ALL,
    W_ID,
    CocharTuple,
    L_map,
    check_involution,
    pairing,
    weyl_act,
)
from oracles import newton_hodge_shortcut

A = RatFunc.var("a")
B = RatFunc.var("b")

_SEED = 20260809


def _random_points(n, seed=_SEED):
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        a = Q(rng.randint(-9, 9), rng.randint(1, 5))
        b = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if a * b * (b + 1) * (a + b) * (a * b + a + b) != 0:
            points.append((a, b))
    return points


@pytest.fixture(scope="module")
def sampled_kernels():
    """Per point: the evaluated kernel and the jbar matrix, which criteria
    2 and 3 eliminate as the cross-check."""
    pts = _random_points(100)
    return [(a, b, kernel_basis(a, b), jbar_matrix(a, b)) for a, b in pts]


def _report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, text


def _expected_suite_symbolic():
    a, b = A, B
    two = RatFunc.const(2)
    q = a * b + a + b
    s = a + b
    raw = {
        "f1": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "f2": [[1, 0, 0, 0], [0, 1, two / (b + 1), 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "f3": [
            [1, 0, two / q, two * (b + 1) / q],
            [0, 1, two * (a + 1) / q, two / q],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        "f4": [
            [1, 0, two / s, two / s],
            [0, 1, two / s, two / s],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        "g1": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
        "g2": [[1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
        "g3": [
            [1, -(b + 1), -1, 0],
            [0, 0, 0, -1],
            [0, 0, 0, b + 1],
            [0, 0, 0, -1],
        ],
        "g4": [
            [1, b / a, 1 / a, two / a],
            [0, 0, 0, 1 / a],
            [0, 0, 0, -(b / a)],
            [0, 0, 0, -1],
        ],
    }
    return {
        k: [[x if isinstance(x, RatFunc) else RatFunc.const(x) for x in row] for row in M]
        for k, M in raw.items()
    }


def test_criterion_1_matrix_reproduction():
    t0 = time.monotonic()
    got = matrix_suite(A, B)
    want = _expected_suite_symbolic()
    ok = all(mat_eq(got[k], want[k]) for k in GENERATOR_LABELS)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, f"eight generator matrices reproduced exactly over Q(a,b) in {elapsed:.2f}s")


def test_criterion_2_kernel_dimensions(sampled_kernels):
    t0 = time.monotonic()
    ok = jbar_rank(A, B) == 7 and kernel_basis(A, B).dim == 17
    for a, b, K, M in sampled_kernels:
        ok = ok and K.dim == 17 and jbar_rank(a, b) == 7 and rank(M) == 7
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(2, ok, f"rank 7 and kernel dimension 17 at 100 random points and symbolically in {elapsed:.1f}s")


def test_criterion_3_parameter_recovery(sampled_kernels):
    ok = recover_parameters(kernel_basis(A, B)) == (A, B)
    for a, b, K, M in sampled_kernels:
        eliminated = Subspace(rows=tuple(nullspace(M, 24)), ambient=24)
        ok = ok and recover_parameters(K) == (a, b) and recover_parameters(eliminated) == (a, b)
        if not ok:
            break
    _report(3, ok, "parameter recovery is the identity at 100 random points and symbolically")


def test_criterion_4_gluing_and_invariant_plane(sampled_kernels):
    glue = glue_subspace()
    ok = len(glue_generators()) == 16 and glue.dim == 15
    for a, b, K, _ in sampled_kernels:
        contained = rank(list(K.rows) + list(glue.rows)) == K.dim
        ok = ok and contained and K.dim - glue.dim == 2
        if not ok:
            break
    _report(4, ok, "gluing subspace has dim 15, sits inside every kernel, quotient dim 2")


def test_criterion_5_ledger():
    report = check_ledger()
    expected = {
        "deformations": 12,
        "deformations_triangular": 8,
        "deformations_parabolic": 9,
        "deformations_kernel0": 2,
        "deformations_derham": 5,
        "deformations_twisted_derham": 6,
        "ext_selfext": 4,
        "ext_selfext_lalg": 3,
        "ext_PS1": 6,
        "ext_pi1": 12,
        "ext_parabolic": 7,
        "ext_parabolic_gprime": 5,
        "deformations_U": 7,
        "deformations_U_triangular": 3,
        "ext_U_gprime": 1,
        "ext_U": 9,
    }
    ok = report.ok
    for name, dim in expected.items():
        ok = ok and report.entry(name).dim == dim
    ok = ok and report.entry("L_invariant").dim == 2
    _report(5, ok, "all named dimensions and additivity identities hold exactly")


def test_criterion_6_constituents_and_socles():
    labels = [c.label for c in all_constituents()]
    ok = len(labels) == 8 and len(set(labels)) == 8
    pairs = {frozenset(c.index_set) for c in constituents(2)}
    excluded = {frozenset({1, 4}), frozenset({2, 3})}
    from itertools import combinations

    every_pair = {frozenset(p) for p in combinations((1, 2, 3, 4), 2)}
    ok = ok and pairs == every_pair - excluded
    for I in pairs:
        ok = ok and len(socle_constituents("P", I)) == 3
    for x in (1, 2, 3, 4):
        ok = ok and len(socle_constituents("Q", {x})) == 3
    ps1 = socle_diagram("PS1", W_ID).layer_labels()
    ok = ok and ps1 == [["pi_alg"], ["C({1},s1)", "C({1,2},s2)"]]
    pi1 = socle_diagram("pi1").layer_labels()
    ok = ok and pi1[0] == ["pi_alg"] and len(pi1[1]) == 8
    pimin = socle_diagram("pimin").layer_labels()
    ok = ok and len(pimin) == 3 and pimin[2] == ["pi_alg", "pi_alg"]
    _report(6, ok, "8 constituent labels, correct exclusions, socle layers as stated")


def test_criterion_7_involution_suite():
    rng = random.Random(_SEED)

    def rand_mat():
        return [[Q(rng.randint(-6, 6)) for _ in range(4)] for _ in range(4)]

    # involution and fixed-space dimension
    ok = True
    cols = []
    proj_rows = []
    for i in range(4):
        for j in range(4):
            E = [[Q(1) if (r, c) == (i, j) else Q(0) for c in range(4)] for r in range(4)]
            D = mat_scale([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(E, s_involution(E))], Q(1, 2))
            cols.append([D[r][c] for r in range(4) for c in range(4)])
            P = mat_scale([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(E, s_involution(E))], Q(1, 2))
            proj_rows.append([P[r][c] for r in range(4) for c in range(4)])
    ok = ok and rank(cols) == 5 and rank(proj_rows) == 11
    for _ in range(60):
        M = rand_mat()
        ok = ok and mat_eq(s_involution(s_involution(M)), M)
        P = mat_scale([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(M, s_involution(M))], Q(1, 2))
        ok = ok and lie_membership(P)[0]
        ok = ok and mat_eq(
            mat_scale([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(P, s_involution(P))], Q(1, 2)), P
        )
    for _ in range(1000):
        M, N = rand_mat(), rand_mat()
        ok = ok and mat_eq(adjoint(mat_mul(M, N)), mat_mul(adjoint(N), adjoint(M)))
        if not ok:
            break
    _report(7, ok, "twist involution: fixed space dim 11, projection image exact, 1000 adjoint pairs")


def test_criterion_8_root_datum():
    ok = (
        pairing(ALPHA, ALPHA_CHECK) == 2
        and pairing(BETA, BETA_CHECK) == 2
        and pairing(ALPHA, BETA_CHECK) == -1
        and pairing(BETA, ALPHA_CHECK) == -2
        and pairing(SIM, ALPHA_CHECK) == 0
        and pairing(SIM, BETA_CHECK) == 0
    )
    ok = ok and S1 * S1 == W_ID and S2 * S2 == W_ID
    fourth = S1 * S2
    ok = ok and fourth * fourth * fourth * fourth == W_ID
    ok = ok and S1 * S2 * S1 * S2 == S0 and S2 * S1 * S2 * S1 == S0
    rng = random.Random(_SEED)
    for _ in range(40):
        m1, m2, m3 = (rng.randint(-6, 6) for _ in range(3))
        c = CocharTuple((m1, m2, m3, m2 + m3 - m1))
        for w in W_ALL:
            ok = ok and weyl_act(w, L_map(c)) == L_map(weyl_act(check_involution(w), c))
    _report(8, ok, "pairing table, presentation relations, lattice-map equivariance for all 8 elements")


def test_criterion_9_weak_admissibility():
    reference = PhiModuleData(
        p=3, alphas=(Q(1), Q(9), Q(81), Q(729)), weights=(0, -2, -4, -6), a=Q(1), b=Q(1)
    )
    ok = weak_admissibility(reference)
    bad = PhiModuleData(p=3, alphas=reference.alphas, weights=(3, 2, 1, 0), a=Q(1), b=Q(1))
    ok = ok and not weak_admissibility(bad)

    rng = random.Random(_SEED)
    tested = 0
    while tested < 50:
        h1 = rng.randint(1, 7)
        h2 = rng.randint(-3, h1 - 1)
        h3 = rng.randint(h2 - 4, h2 - 1)
        h4 = h2 + h3 - h1
        if not (h1 > h2 > h3 > h4):
            continue
        p = rng.choice([2, 3, 5])
        e1, e2 = rng.randint(-4, 6), rng.randint(-4, 6)
        s = rng.randint(-2, 10)
        alphas = (
            Q(p) ** e1 * 7,
            Q(p) ** e2 * 5,
            Q(p) ** (s - e2) * 7 * 11,
            Q(p) ** (s - e1) * 5 * 11,
        )
        while True:
            a = Q(rng.randint(-9, 9), rng.randint(1, 4))
            b = Q(rng.randint(-9, 9), rng.randint(1, 4))
            if a * b * (b + 1) * (a + b) * (a * b + a + b) != 0:
                break
        d = PhiModuleData(p=p, alphas=alphas, weights=(h1, h2, h3, h4), a=a, b=b)
        ok = ok and weak_admissibility(d) == newton_hodge_shortcut(p, alphas, (h1, h2, h3, h4))
        tested += 1
    _report(9, ok, "subset checker matches the polygon shortcut on 50 instances plus worked examples")


def test_criterion_10_hecke_round_trip():
    rng = random.Random(_SEED)
    ok = True
    for _ in range(1000):
        l = rng.choice([2, 3, 5, 7, 11])
        d = HeckeData(
            l=l,
            c0=Q(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]),
            c1=Q(rng.randint(-9, 9), rng.randint(1, 9)),
            c2=Q(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        f = hecke_charpoly(d)
        ok = ok and f.coeffs[3] == f.sim**2
        back = ideal_generators(f, l)
        ok = ok and back == d
        if not ok:
            break
    _report(10, ok, "1000 eigenvalue/charpoly round trips with the similitude identity")
