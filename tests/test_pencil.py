"""Pairs of symmetric forms: invariant form, parameter bijection, stabilizers."""

import gc
import random
from fractions import Fraction
from math import lcm

import pytest

from quadpencil import (
    BinaryForm,
    EtaleAlgebra,
    OrbitParam,
    SymPair,
    g_equivalent,
    h_equivalent,
    invariant_binary_form,
    orbit_witness_search,
    param_to_pencil,
    pencil_to_param,
    real_orbit_obstruction,
    stabilizer_rational,
)
from quadpencil import etale, pencil
from quadpencil.errors import DomainError
from quadpencil.etale import AlgElement, all_square_roots
from quadpencil.linalg import congruence, identity, mat_mul
from quadpencil.polys import Poly, is_squarefree

from util import (
    frac_det,
    random_monic_separable,
    random_param,
    random_rational,
    reference_congruence,
    reference_inverse,
    reference_invariant_form,
    reference_mat_vec,
    reference_orbit_witness_search,
    reference_pencil_to_param,
    reference_stabilizer,
    unimodular,
)

I2 = [[1, 0], [0, 1]]
ANTIDIAG2 = [[0, 1], [1, 0]]


def test_invariant_form_pinned():
    assert invariant_binary_form(SymPair(I2, ANTIDIAG2)) == BinaryForm([-1, 0, 1])
    A = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    B = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    assert invariant_binary_form(SymPair(A, B)) == BinaryForm([1, 0, 0, 1])


def test_invariant_form_degenerate_flagged():
    f = invariant_binary_form(SymPair(I2, I2))  # A = B
    assert f.disc() == 0
    assert not f.is_stable


def test_invariant_form_determinant_oracle():
    # compare against a scalar-specialization determinant at many points
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(2, 4)
        A = [[Fraction(0)] * n for _ in range(n)]
        B = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = Fraction(rng.randint(-4, 4))
                B[i][j] = B[j][i] = Fraction(rng.randint(-4, 4))
        f = invariant_binary_form(SymPair(A, B))
        sign = (-1) ** (n * (n - 1) // 2)
        for x in range(-2, 3):
            for y in range(-2, 3):
                M = [[x * A[i][j] - y * B[i][j] for j in range(n)] for i in range(n)]
                assert f(x, y) == sign * frac_det(M)


def random_symmetric(rng, n, rational):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rational:
                x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 10, 999_983]))
            else:
                x = Fraction(rng.randint(-4, 4))
            M[i][j] = M[j][i] = x
    return M


def assert_reduced(pair, A, B):
    """pair holds the Fraction matrices A, B as integer rows over the lcm of
    their denominators."""
    assert pair.den == lcm(*(x.denominator for row in A + B for x in row))
    assert pair.ints == ([[x * pair.den for x in row] for row in A],
                         [[x * pair.den for x in row] for row in B])
    assert (pair.A, pair.B) == (A, B)
    assert all(type(x) is Fraction for row in pair.A + pair.B for x in row)


def test_pair_held_as_integer_rows_over_one_denominator():
    rng = random.Random(56)
    A, B = [[2, -1], [-1, 0]], [[0, 3], [3, 5]]
    for same in ((A, B), ([[Fraction(x) for x in r] for r in A], [[Fraction(x) for x in r] for r in B]),
                 ([[str(x) for x in r] for r in A], [[str(x) for x in r] for r in B])):
        pair = SymPair(*same)
        assert (pair.den, pair.ints) == (1, (A, B))
    for _ in range(40):
        n = rng.randint(1, 5)
        A = random_symmetric(rng, n, rng.random() < 0.6)
        B = random_symmetric(rng, n, rng.random() < 0.6)
        pair = SymPair(A, B)
        assert_reduced(pair, A, B)
        strings = SymPair(*([[str(x) for x in row] for row in M] for M in (A, B)))
        assert (strings.den, strings.ints) == (pair.den, pair.ints) and strings == pair


def test_transformed_pair_matches_fraction_congruence():
    rng = random.Random(57)
    for _ in range(40):
        n = rng.randint(1, 5)
        pair = SymPair(random_symmetric(rng, n, True), random_symmetric(rng, n, False))
        P = random_rational(rng, n, rng.randint(1, 6))
        moved = pair.transformed(P)
        assert_reduced(moved, reference_congruence(P, pair.A), reference_congruence(P, pair.B))
        assert moved == SymPair(moved.A, moved.B)
        P = random_rational(rng, n, n)
        if frac_det(P) != 0:
            back = pair.transformed(P).transformed(reference_inverse(P))
            assert back == pair and back.den == pair.den
    pair = SymPair(I2, ANTIDIAG2)
    for P in ([[1, 2]], [[1], [2], [3]], [[1, 2], [3]]):
        with pytest.raises(DomainError, match="matrix shapes do not match"):
            pair.transformed(P)


def test_invariant_form_matches_fraction_matrices():
    # integer matrices over one denominator against Fraction matrices sA - B
    rng = random.Random(52)
    pairs = [SymPair([[Fraction(3, 4)]], [[Fraction(-5, 6)]]),  # n = 1
             SymPair([[0]], [[2]]),
             SymPair([[1, 1], [1, 1]], [[Fraction(1, 2), 0], [0, 3]])]  # singular A
    for _ in range(40):
        n = rng.randint(1, 6)
        A = random_symmetric(rng, n, rng.random() < 0.6)
        B = random_symmetric(rng, n, rng.random() < 0.6)
        if rng.random() < 0.25 and n > 1:
            A[0] = [Fraction(0)] * n  # singular A
            for row in A:
                row[0] = Fraction(0)
        pairs.append(SymPair(A, B))
    for pair in pairs:
        f = invariant_binary_form(pair)
        want = reference_invariant_form(pair)
        assert f.coeffs == want and hash(f.coeffs) == hash(want)
        assert all(type(c) is Fraction for c in f.coeffs)


BIG_DENS = [1, 2, 3, 7, 10, 999_983]


def big_den_symmetric(rng, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = Fraction(rng.randint(-30, 30), rng.choice(BIG_DENS))
    return M


def split_pencil(rng, n):
    """A stable pencil whose g is a product of factors of degree 1 and 2, so
    that the stabilizer has many idempotents, moved by a rational matrix."""
    while True:
        g = Poly([1])
        while g.degree < n:
            d = min(rng.choice((1, 1, 2)), n - g.degree)
            g = g * Poly([rng.randint(-6, 6) for _ in range(d)] + [1])
        if is_squarefree(g):
            break
    L = EtaleAlgebra(g)
    while True:
        alpha = L.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n)])
        if alpha.is_unit:
            break
    s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    f = BinaryForm.from_monic_part(s * s * alpha.norm(), g)
    pair = param_to_pencil(f, OrbitParam(L, alpha, s * alpha.norm()))
    while True:
        U = [[Fraction(rng.randint(-3, 3), rng.choice(BIG_DENS[:5])) for _ in range(n)]
             for _ in range(n)]
        if frac_det(U) != 0:
            return pair.transformed(U)


def assert_matches_fraction_routes(pair, seed=0):
    assert invariant_binary_form(pair).coeffs == reference_invariant_form(pair)
    q, want = pencil_to_param(pair, seed), reference_pencil_to_param(pair, seed)
    assert q == want and type(q.t) is Fraction
    S, R = stabilizer_rational(pair), reference_stabilizer(pair)
    assert (S.order, S.geometric_order) == (R.order, R.geometric_order)
    assert S.elements == R.elements and S.generators == R.generators
    assert all(type(x) is Fraction for M in S.elements + S.generators for row in M for x in row)


def test_orbit_pipeline_matches_fraction_routes():
    # integer rows over one denominator against Fraction matrices, n = 1..8
    rng = random.Random(57)
    for n in range(1, 9):
        # with many factors, the Fraction reference stabilizer takes seconds at n >= 7
        pairs = [split_pencil(rng, n)] if n <= 6 else []
        while len(pairs) < 3:
            pair = SymPair(big_den_symmetric(rng, n), big_den_symmetric(rng, n))
            if invariant_binary_form(pair).is_stable:
                pairs.append(pair)
        for pair in pairs:
            assert_matches_fraction_routes(pair)


def test_orbit_pipeline_rejects_singular_A_like_fraction_route():
    rng = random.Random(58)
    for n in range(2, 6):
        A, B = big_den_symmetric(rng, n), big_den_symmetric(rng, n)
        for row in A:
            row[-1] = Fraction(0)
        A[-1] = [Fraction(0)] * n
        pair = SymPair(A, B)
        assert invariant_binary_form(pair).coeffs == reference_invariant_form(pair)
        for fn, ref in ((pencil_to_param, reference_pencil_to_param),
                        (stabilizer_rational, reference_stabilizer)):
            with pytest.raises(DomainError) as got:
                fn(pair)
            with pytest.raises(DomainError) as want:
                ref(pair)
            assert str(got.value) == str(want.value) == "pencil is not stable: f0 = 0"


def test_to_param_takes_random_tries_like_fraction_route():
    # pencils on which no unit vector is cyclic for T = A^(-1) B: diagonal
    # pencils, and direct sums of two pencils, moved by a signed permutation
    rng = random.Random(59)
    pairs = []
    for n in (2, 3, 5):
        ratios = rng.sample(range(-20, 21), n)
        a = [Fraction(rng.randint(1, 9), rng.choice(BIG_DENS)) * rng.choice((1, -1))
             for _ in range(n)]
        pairs.append(SymPair([[a[i] * (i == j) for j in range(n)] for i in range(n)],
                             [[a[i] * ratios[i] * (i == j) for j in range(n)] for i in range(n)]))
    for n1, n2 in ((2, 2), (3, 3), (2, 4)):
        while True:
            P1 = param_to_pencil(*random_param(rng, n1))
            P2 = param_to_pencil(*random_param(rng, n2))
            n = n1 + n2
            A = [[Fraction(0)] * n for _ in range(n)]
            B = [[Fraction(0)] * n for _ in range(n)]
            for Q, off in ((P1, 0), (P2, n1)):
                for i in range(Q.n):
                    for j in range(Q.n):
                        A[off + i][off + j], B[off + i][off + j] = Q.A[i][j], Q.B[i][j]
            perm = rng.sample(range(n), n)
            U = [[Fraction(rng.choice((1, -1)) * (perm[i] == j)) for j in range(n)]
                 for i in range(n)]
            pair = SymPair(A, B).transformed(U)
            if invariant_binary_form(pair).is_stable:
                pairs.append(pair)
                break
    for pair in pairs:
        n = pair.n
        T = [reference_mat_vec(reference_inverse(pair.A), col) for col in zip(*pair.B)]
        T = [list(row) for row in zip(*T)]
        for k in range(n):
            vs = [[Fraction(int(i == k)) for i in range(n)]]
            for _ in range(n - 1):
                vs.append(reference_mat_vec(T, vs[-1]))
            assert frac_det(vs) == 0
        for seed in (0, 5):
            assert_matches_fraction_routes(pair, seed)


def test_to_param_pinned():
    p = pencil_to_param(SymPair(I2, ANTIDIAG2))
    assert tuple(p.alpha.coords) == (0, 1)  # alpha = beta in Q[x]/(x^2 - 1)
    assert p.t == 1


def test_from_param_pinned():
    f = BinaryForm([-1, 0, 1])
    L = EtaleAlgebra(f.monic_part())
    pair = param_to_pencil(f, OrbitParam(L, L.beta, Fraction(1)))
    assert pair.A == I2 and pair.B == ANTIDIAG2


def test_from_param_rejects_broken_identity():
    f = BinaryForm([-1, 0, 1])
    L = EtaleAlgebra(f.monic_part())
    p = OrbitParam(L, L.one, Fraction(1))  # f0 N(1) = -1 cannot be t^2
    with pytest.raises(DomainError):
        param_to_pencil(f, p)


def matrix_trace(a):
    M = a.mult_matrix()
    return sum(M[i][i] for i in range(len(M)))


def test_param_to_pencil_gram_matrices_differential():
    # the Hankel reading against all 2n^2 traces Tr(beta^(i+j[+1]) w)
    rng = random.Random(58)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(3):
            f, p = random_param(rng, n)
            L = p.algebra
            w = (p.alpha * L.from_poly(L.g.derivative())).inverse()
            Atil = [[matrix_trace(L.beta_pow(i + j) * w) for j in range(n)] for i in range(n)]
            Btil = [[matrix_trace(L.beta_pow(i + j + 1) * w) for j in range(n)]
                    for i in range(n)]
            U = identity(n)
            U[0][0] = p.t
            pair = param_to_pencil(f, p)
            assert pair.A == congruence(U, Atil)
            assert pair.B == congruence(U, Btil)


def g_equivalent_all_roots(p1, p2):
    """The former g_equivalent: the first of all 2^r roots with the right norm."""
    if p1.f0 != p2.f0:
        return None
    for c in all_square_roots(p1.algebra, p1.alpha / p2.alpha):
        assert c * c * p2.alpha == p1.alpha
        if frac_det(c.mult_matrix()) * p2.t == p1.t:
            return c
    return None


def product_of(*factors):
    out = Poly([1])
    for cs in factors:
        out = out * Poly(cs)
    return out


MIXED_PARITY = [
    product_of([-1, 1], [1, 0, 1]),  # degrees 1, 2
    product_of([1, 0, 1], [-2, 1]),  # 2, 1
    product_of([-2, 0, 0, 1], [-3, 0, 1]),  # 3, 2
    product_of([-1, 1], [1, 0, 1], [-2, 0, 0, 1]),  # 1, 2, 3
    product_of([-1, 1], [-2, 1], [1, 0, 1]),  # 1, 1, 2
    product_of([-1, 1], [-2, 1], [-3, 1]),  # 1, 1, 1
    product_of([1, 0, 1], [-3, 0, 1], [-5, 1]),  # 2, 2, 1
]
EVEN_ONLY = [
    product_of([1, 0, 1], [-3, 0, 1]),
    product_of([1, 0, 1], [-2, 0, 1], [5, 0, 1]),
]


def unit_of(rng, L):
    while True:
        a = L.element([Fraction(rng.randint(-3, 3)) for _ in range(L.n)])
        if a.is_unit:
            return a


def test_g_equivalent_matches_all_roots_loop():
    rng = random.Random(59)
    seen = {"plus": 0, "minus": 0, "none": 0}
    for g in MIXED_PARITY + EVEN_ONLY:
        L = EtaleAlgebra(g)
        degs = [gi.degree for gi in L.factors]
        assert len(degs) >= 2
        for _ in range(4):
            alpha2, c0 = unit_of(rng, L), unit_of(rng, L)
            t2 = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * alpha2.norm()
            p2 = OrbitParam(L, alpha2, t2)
            for sign in (1, -1):
                p1 = OrbitParam(L, c0 * c0 * alpha2, sign * c0.norm() * t2)
                got = g_equivalent(p1, p2)
                assert got == g_equivalent_all_roots(p1, p2)
                if sign == -1 and all(d % 2 == 0 for d in degs):
                    assert got is None
                    seen["none"] += 1
                else:
                    assert got is not None
                    assert got * got * alpha2 == p1.alpha and got.norm() * t2 == p1.t
                    seen["plus" if sign == 1 else "minus"] += 1
    assert min(seen.values()) > 0


def test_g_equivalent_non_square_ratio():
    # 3 is a square in no component of Q(i) x Q(sqrt 2)
    L = EtaleAlgebra(product_of([1, 0, 1], [-2, 0, 1]))
    rng = random.Random(60)
    alpha2 = unit_of(rng, L)
    p2 = OrbitParam(L, alpha2, alpha2.norm())
    p1 = OrbitParam(L, alpha2 * 3, 9 * alpha2.norm())  # N(3 alpha2) = 81 N(alpha2)
    assert p1.f0 == p2.f0
    assert g_equivalent(p1, p2) is None
    assert g_equivalent_all_roots(p1, p2) is None


def test_round_trip_small():
    rng = random.Random(52)
    for n in (2, 3):
        for _ in range(10):
            f, p = random_param(rng, n)
            pair = param_to_pencil(f, p)
            assert invariant_binary_form(pair) == f
            q = pencil_to_param(pair)
            c = g_equivalent(q, p)
            assert c is not None
            assert c * c * p.alpha == q.alpha
            assert c.norm() * p.t == q.t


def test_param_well_defined_on_orbits():
    rng = random.Random(53)
    for _ in range(6):
        f, p = random_param(rng, 3)
        pair = param_to_pencil(f, p)
        M = unimodular(rng, 3)
        moved = pair.transformed(M)
        assert invariant_binary_form(moved) == f
        assert g_equivalent(pencil_to_param(moved), p) is not None


def test_g_equivalence_scaling_witness():
    f = BinaryForm([-1, 0, 1])
    L = EtaleAlgebra(f.monic_part())
    p1 = OrbitParam(L, L.beta, Fraction(1))
    p2 = OrbitParam(L, L.beta * Fraction(1, 4), Fraction(1, 4))
    c = g_equivalent(p1, p2)
    assert c is not None
    assert c * c == L.from_rational(4)
    assert c.norm() == 4


def test_g_equivalence_sign_of_t():
    L = EtaleAlgebra(BinaryForm([-1, 0, 1]).monic_part())  # Q x Q
    p1 = OrbitParam(L, L.one, Fraction(1))
    p2 = OrbitParam(L, L.one, Fraction(-1))
    c = g_equivalent(p1, p2)
    assert c is not None
    assert c * c == L.one and c.norm() == -1


def test_g_equivalence_absent():
    L = EtaleAlgebra(BinaryForm([-1, 0, 1]).monic_part())
    p1 = OrbitParam(L, L.one, Fraction(1))
    p2 = OrbitParam(L, L.beta, Fraction(1))  # beta is not a square in Q x Q
    assert g_equivalent(p1, p2) is None


def test_g_equivalence_rejects_mixed_algebras():
    L1 = EtaleAlgebra(BinaryForm([-1, 0, 1]).monic_part())
    L2 = EtaleAlgebra(BinaryForm([1, 0, 1]).monic_part())
    with pytest.raises(DomainError):
        g_equivalent(
            OrbitParam(L1, L1.one, Fraction(1)), OrbitParam(L2, L2.one, Fraction(1))
        )


def test_h_equivalence_twist():
    rng = random.Random(54)
    for _ in range(8):
        f, p = random_param(rng, 2)
        d = rng.choice([2, 3, 5])
        twisted = OrbitParam(p.algebra, d * p.alpha, d * p.t)
        res = h_equivalent(twisted, p, extra_primes=(d,))
        assert res is not None
        c, dd = res
        assert c * c * dd * p.alpha == twisted.alpha
        assert c.norm() * dd * p.t == twisted.t


def test_h_equivalence_odd_dimension_rejected():
    rng = random.Random(55)
    f, p = random_param(rng, 3)
    with pytest.raises(DomainError):
        h_equivalent(p, p)


def test_stabilizer_pinned():
    S = stabilizer_rational(SymPair(I2, ANTIDIAG2))  # g = x^2 - 1
    assert S.order == 2
    assert S.geometric_order == 2
    elems = {tuple(tuple(row) for row in M) for M in S.elements}
    assert elems == {((1, 0), (0, 1)), ((-1, 0), (0, -1))}

    f = BinaryForm([1, 0, 1])  # g = x^2 + 1 irreducible of even degree
    L = EtaleAlgebra(f.monic_part())
    pair = param_to_pencil(f, OrbitParam(L, L.one, Fraction(1)))
    assert stabilizer_rational(pair).order == 2


def test_stabilizer_properties():
    rng = random.Random(56)
    for n in (2, 3, 4):
        for _ in range(5):
            f, p = random_param(rng, n)
            pair = param_to_pencil(f, p)
            S = stabilizer_rational(pair)
            assert S.geometric_order == 2 ** (n - 1)
            seen = {tuple(tuple(row) for row in M) for M in S.elements}
            assert len(seen) == S.order
            for M in S.elements:
                assert frac_det(M) == 1
                assert mat_mul(M, M) == identity(n)
                assert congruence(M, pair.A) == pair.A
                assert congruence(M, pair.B) == pair.B
            for M in S.elements:
                for N in S.elements:
                    prod = tuple(tuple(row) for row in mat_mul(M, N))
                    assert prod in seen


def test_stabilizer_rejects_unstable():
    with pytest.raises(DomainError):
        stabilizer_rational(SymPair(I2, I2))


def test_real_obstruction_pinned():
    assert real_orbit_obstruction(BinaryForm([-1, 0, -1]))  # -x^2 - y^2
    assert real_orbit_obstruction(BinaryForm([-1, 0, 0, 0, -1]))  # g = x^4 + 1
    assert not real_orbit_obstruction(BinaryForm([-1, 0, 1]))
    rng = random.Random(57)
    for _ in range(10):
        f, _ = random_param(rng, rng.randint(2, 4))
        if f.f0 > 0:
            assert not real_orbit_obstruction(f)


def test_witness_search():
    w = orbit_witness_search(BinaryForm([1, 0, 1]), 5)
    assert w is not None
    assert w.t**2 == w.alpha.norm()
    L = w.algebra
    assert g_equivalent(w, OrbitParam(L, L.one, Fraction(1))) is not None

    w = orbit_witness_search(BinaryForm([-1, 0, 1]), 5)
    assert w is not None and w.alpha.norm() == -1

    assert orbit_witness_search(BinaryForm([-1, 0, -1]), 15) is None


# leading coefficients: negative, rational, and with 4 to 12 divisors
SEARCH_F0 = [Fraction(-1), Fraction(1), Fraction(-6), Fraction(12), Fraction(-30),
             Fraction(60), Fraction(6, 5), Fraction(-2, 3), Fraction(2)]


def test_orbit_witness_search_matches_cube_search():
    """The same first (alpha, t) as the whole-cube scan."""
    rng = random.Random(59)
    top = {2: 5, 3: 3, 4: 2}
    found = 0
    for k in range(36):
        n = 2 + k % 3
        if k % 3 == 0:
            f, _ = random_param(rng, n)
        else:
            g = random_monic_separable(rng, n)
            if k % 3 == 2:  # a monic part with non-integral coefficients
                g = Poly([c / 2 for c in g.coeffs[:-1]] + [Fraction(1)])
            f = BinaryForm.from_monic_part(rng.choice(SEARCH_F0), g)
        if not f.is_stable:
            continue
        bound = rng.randint(0, top[n])
        w = orbit_witness_search(f, bound)
        assert w == reference_orbit_witness_search(f, bound), (f, bound)
        found += w is not None
    assert found >= 10


def test_obstructed_search_agrees_with_cube_search():
    """A None from the real obstruction, confirmed by the cube scan."""
    # (f, search bound, scan bound): an n = 4 cube at height 30 has 61^4 vectors
    for cs, bound, scan in [([-1, 0, -1], 30, 30), ([-1, 0, 0, 0, -1], 30, 4),
                            ([-3, 2, -5], 12, 12), ([-6, 0, -6, 0, -6], 4, 2)]:
        f = BinaryForm(cs)
        assert real_orbit_obstruction(f)
        assert orbit_witness_search(f, bound) is None
        assert reference_orbit_witness_search(f, scan) is None


def test_orbit_witness_search_takes_one_norm_per_shell_vector(monkeypatch):
    calls = []
    norm = AlgElement.norm

    def counted(self):
        calls.append(self)
        return norm(self)

    monkeypatch.setattr(AlgElement, "norm", counted)
    # t^2 = -(a^2 - 3 b^2) means 3 b^2 = a^2 + t^2: no witness at any height
    f = BinaryForm([-1, 0, 3])
    assert not real_orbit_obstruction(f)
    for bound in range(4):
        calls.clear()
        assert orbit_witness_search(f, bound) is None
        assert len(calls) == (2 * bound + 1) ** 2 - 1


def test_form_from_T_matches_determinants():
    # f from d = det A' and charpoly(d T) against the n + 1 determinants of
    # _form, which must still raise the same error text when the pencil is
    # not stable: singular A (f0 = 0) or repeated eigenvalues (disc 0)
    rng = random.Random(60)
    seen = {"stable": 0, "f0": 0, "disc": 0}
    for k in range(2600):
        n = rng.randint(1, 6)
        A = random_symmetric(rng, n, k % 3 == 1)
        B = random_symmetric(rng, n, k % 3 == 2)
        if k % 8 == 3:
            A = [[x % 2 for x in row] for row in A]  # often singular
        elif k % 8 == 5:
            c = Fraction(rng.randint(-3, 3), 2)
            B = [[c * x for x in row] for row in A]  # T = c I
        pair = SymPair(A, B)
        try:
            want = pencil._form(pair.den, *pair.ints)
            pencil._require_stable(want)
        except DomainError as e:
            with pytest.raises(DomainError) as got:
                pencil._stable_T(pair)
            assert str(got.value) == str(e), (A, B)
            seen["f0" if str(e).endswith("f0 = 0") else "disc"] += 1
            continue
        assert pencil._stable_T(pair)[0] == want, (A, B)
        seen["stable"] += 1
    assert seen["stable"] >= 2000 and seen["f0"] >= 50 and seen["disc"] >= 100, seen


def test_stable_context_is_memoized_per_pair():
    rng = random.Random(61)
    f, p = random_param(rng, 4)
    pair = param_to_pencil(f, p)
    ctx = pencil._stable_T(pair)
    assert pencil._stable_T(pair) is ctx and ctx[0] == f
    moved = pair.transformed(unimodular(rng, 4))
    assert moved._T is None and SymPair(pair.A, pair.B)._T is None
    assert pencil._stable_T(moved)[0] == f
    with pytest.raises(DomainError, match="disc"):
        pencil._stable_T(SymPair(I2, I2))


def test_round_trip_factors_g_once(monkeypatch):
    # param_to_pencil -> transformed -> pencil_to_param -> g_equivalent ->
    # stabilizer_rational share one algebra, so g is factored once
    calls = []
    factor_poly = etale.factor_poly

    def counted(g):
        calls.append(g)
        return factor_poly(g)

    monkeypatch.setattr(etale, "factor_poly", counted)
    g = Poly([-7, 1]) * Poly([-3, 0, 1]) * Poly([5, 1, 0, 1])
    assert g not in etale._LIVE
    L = EtaleAlgebra(g)
    alpha = L.element([1, 2, 0, -1, 1, 1])
    f = BinaryForm.from_monic_part(alpha.norm(), g)
    p = OrbitParam(L, alpha, alpha.norm())
    moved = param_to_pencil(f, p).transformed(unimodular(random.Random(62), 6))
    q = pencil_to_param(moved)
    assert g_equivalent(p, q) is not None
    assert stabilizer_rational(moved).order == 4
    assert calls == [g]


def test_stabilizer_after_param_matches_fresh_pair():
    rng = random.Random(63)
    for n in (2, 4, 5):
        pair = split_pencil(rng, n)
        q = pencil_to_param(pair)
        S = stabilizer_rational(pair)
        del q
        gc.collect()
        fresh = SymPair(pair.A, pair.B)
        assert fresh == pair and fresh._T is None
        R = stabilizer_rational(fresh)
        assert (S.order, S.geometric_order) == (R.order, R.geometric_order)
        assert S.elements == R.elements and S.generators == R.generators


def test_invariant_form_from_elimination_matches_determinants():
    # f read off the pair's one elimination (det A != 0) or from n + 1
    # determinants (det A = 0) against _form, on fresh pairs at n = 1..8
    rng = random.Random(64)
    seen = {"memo": 0, "singular": 0, "disc": 0}
    for k in range(400):
        n = 1 + k % 8
        A = random_symmetric(rng, n, k % 3 == 1)
        B = random_symmetric(rng, n, k % 3 == 2)
        if k % 6 == 3:
            A = [[x % 2 for x in row] for row in A]  # often singular
        elif k % 6 == 5:
            c = Fraction(rng.randint(-3, 3), 2)
            B = [[c * x for x in row] for row in A]  # T = c I, so disc f = 0
        pair = SymPair(A, B)
        f = invariant_binary_form(pair)
        assert f == pencil._form(pair.den, *pair.ints), (A, B)
        assert invariant_binary_form(pair) == f
        if pair._T is False:
            assert f.f0 == 0
            seen["singular"] += 1
        else:
            assert pair._T[0] is f and pair._T[-1] is None  # stability not yet checked
            seen["disc" if f.disc() == 0 else "memo"] += 1
    assert seen["memo"] >= 250 and seen["singular"] >= 20 and seen["disc"] >= 20, seen


def test_stable_T_errors_unchanged_after_invariant_form():
    S2 = [[0, 0], [0, 1]]
    for A, B, msg in ((S2, I2, "pencil is not stable: f0 = 0"),
                      (I2, I2, "pencil is not stable: disc(f) = 0")):
        for first in (False, True):
            pair = SymPair(A, B)
            if first:
                invariant_binary_form(pair)
            for _ in range(2):  # a rejected pair is rejected every time
                with pytest.raises(DomainError) as got:
                    pencil._stable_T(pair)
                assert str(got.value) == msg
            for call in (pencil_to_param, stabilizer_rational):
                with pytest.raises(DomainError) as got:
                    call(pair)
                assert str(got.value) == msg
            assert invariant_binary_form(pair) == pencil._form(pair.den, *pair.ints)


def test_pair_takes_one_elimination_and_one_monic_part(monkeypatch):
    # the workload's order: invariant form, orbit parameter, stabilizer
    rng = random.Random(65)
    for n in (2, 3, 5):
        moved = split_pencil(rng, n)
        eliminations, monic = [], []
        bareiss, monic_part = pencil._bareiss, BinaryForm.monic_part

        def counted(M, ncols, jordan):
            if len(M[0]) == 2 * n:
                eliminations.append(ncols)
            return bareiss(M, ncols, jordan)

        def counted_monic(self):
            monic.append(self)
            return monic_part(self)

        monkeypatch.setattr(pencil, "_bareiss", counted)
        monkeypatch.setattr(BinaryForm, "monic_part", counted_monic)
        f = invariant_binary_form(moved)
        q = pencil_to_param(moved)
        S = stabilizer_rational(moved)
        assert pencil._stable_T(moved)[-1] == q.algebra.g
        monkeypatch.undo()
        assert eliminations == [n] and monic == [f]
        assert invariant_binary_form(moved) is f
        fresh = SymPair(moved.A, moved.B)
        assert pencil_to_param(fresh) == q
        assert stabilizer_rational(fresh).elements == S.elements


def test_alpha_keeps_kappa_as_its_inverse():
    rng = random.Random(66)
    for n in (2, 4, 6):
        f, p = random_param(rng, n)
        q = pencil_to_param(param_to_pencil(f, p))
        kappa = q.alpha.inverse()  # the moment solution, kept by alpha
        assert q.alpha * kappa == q.algebra.one and q.alpha.inverse() is kappa
        assert kappa == AlgElement(q.algebra, q.alpha.poly()).inverse()
        assert kappa.inverse() == q.alpha
        assert g_equivalent(p, q) is not None
