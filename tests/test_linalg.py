"""Exact linear algebra checked against oracles that do not use linalg itself."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from quadpencil.adjoint import adjoint_invariants
from quadpencil.errors import DomainError
from quadpencil.linalg import (
    charpoly,
    congruence,
    det,
    hnf,
    inverse,
    mat,
    mat_mul,
    nullspace,
    solve,
    vec_mat,
)
from quadpencil.pencil import SymPair
from quadpencil.pfaffian import SkewTriple, pfaffian
from quadpencil.polys import Poly
from quadpencil.quadspace import QuadForm, gram_invariant

from util import (
    frac_det,
    random_invertible,
    reference_charpoly,
    reference_congruence,
    reference_hnf,
    reference_inverse,
    reference_nullspace,
    reference_solve,
    reference_vec_mat,
)


def rand_mat(rng, m, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)]


def product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def apply(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def unit(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_rank(rows):
    """Largest k with a nonzero k x k minor, from frac_det alone."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if frac_det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def low_rank(rng, m, n, r):
    """m x n integer matrix of rank at most r, as a product of random factors."""
    return product(rand_mat(rng, m, r, -3, 3), rand_mat(rng, r, n, -3, 3))


def test_det_matches_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 6)
        A = rand_mat(rng, n, n)
        assert det(A) == frac_det(A)
    for _ in range(10):
        A = low_rank(rng, 4, 4, rng.randint(1, 3))
        assert det(A) == frac_det(A) == 0
    assert det([[Fraction(1, 2), 3], [Fraction(2, 3), 5]]) == Fraction(1, 2)


def rand_rat_mat(rng, m, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(m)]


def test_bareiss_det_differential():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        A = rand_rat_mat(rng, n, n)
        assert det(A) == frac_det(A)
    # singular: a repeated row, and a rational low-rank product
    for _ in range(10):
        n = rng.randint(2, 6)
        A = rand_rat_mat(rng, n, n)
        A[-1] = list(A[0])
        assert det(A) == 0
        B = product(rand_rat_mat(rng, n, n - 1), rand_rat_mat(rng, n - 1, n))
        assert det(B) == frac_det(B) == 0
    # zero pivots force row swaps, at the first step and in the middle
    for _ in range(20):
        n = rng.randint(2, 7)
        A = rand_rat_mat(rng, n, n)
        A[0][0] = Fraction(0)
        k = rng.randrange(1, n)
        for j in range(k + 1):
            A[k][j] = Fraction(0)
        assert det(A) == frac_det(A)
    assert det([[0, 1], [1, 0]]) == -1
    swap_mid = [[1, 2, 3], [2, 4, 5], [1, 3, 4]]  # second pivot vanishes
    assert det(swap_mid) == frac_det(swap_mid) == 1
    assert det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    # 1 x 1, integer entries (ints, not Fractions), and the empty matrix
    assert det([[Fraction(-7, 3)]]) == Fraction(-7, 3)
    assert det([[0]]) == 0
    for _ in range(20):
        n = rng.randint(1, 7)
        A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        d = det(A)
        assert isinstance(d, Fraction) and d == frac_det(A)
    assert det([]) == 1


def test_mat_mul_matches_fraction_product():
    rng = random.Random(12)
    for _ in range(40):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A, B = rand_rat_mat(rng, m, k), rand_rat_mat(rng, k, n)
        assert mat_mul(A, B) == product(A, B)
    A = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
    B = rand_rat_mat(rng, 4, 2)
    assert mat_mul(A, B) == product(A, B)
    assert mat_mul([[Fraction(1, 2)]], [[Fraction(2, 3)]]) == [[Fraction(1, 3)]]


def test_mat_mul_rejects_mismatched_shapes():
    # a DomainError, not an assert, so that python -O keeps the check
    for A, B in (([[1, 2]], [[1], [2], [3]]), ([[1, 2, 3]], [[1], [2]]),
                 ([[1, 2], [3]], [[1], [2]])):
        with pytest.raises(DomainError, match="matrix shapes do not match"):
            mat_mul(A, B)


MISSHAPEN = {
    "det": (det, [([[1, 2, 3], [4, 5, 6]],), ([[1, 2], [3]],), ([[1], [2]],)]),
    "solve": (solve, [([[1, 0, 0], [0, 1, 0]], [1, 2]), ([[1]], [1, 2]),
                      ([[1, 0], [0, 1]], [1]), ([[1, 0], [0]], [1, 2])]),
    "inverse": (inverse, [([[1, 0, 5], [0, 1, 7]],), ([[1, 0], [0, 1], [1, 1]],),
                          ([[1, 0], [0]],)]),
    "charpoly": (charpoly, [([[1, 2, 3], [4, 5, 6]],), ([[1, 2], [3]],)]),
    "vec_mat": (vec_mat, [([1, 2, 3], [[1, 2], [3, 4]]), ([1], [[1, 2], [3, 4]]),
                          ([1, 2], [[1, 2], [3]])]),
    "congruence": (congruence, [([[1, 2]], [[1, 0], [0, 1]]), ([[1], [2], [3]], [[1, 0], [0, 1]]),
                                ([[1, 0], [0]], [[1, 0], [0, 1]]), ([[1, 0], [0, 1]], [[1, 0], [0]]),
                                ([[1], [2]], [[1, 0, 0], [0, 1, 0]])]),
}


@pytest.mark.parametrize("name", sorted(MISSHAPEN))
def test_kernels_reject_mismatched_shapes(name):
    # a DomainError, not an assert, so that python -O keeps the check
    kernel, cases = MISSHAPEN[name]
    for args in cases:
        with pytest.raises(DomainError, match="^matrix shapes do not match$"):
            kernel(*args)


def wide_rat_mat(rng, m, n):
    """Rational entries over large and mixed denominators, some zero."""
    dens = [1, 2, 3, 7, 10, 999_983, 2**61 - 1]
    return [[Fraction(rng.randint(-30, 30), rng.choice(dens)) if rng.random() < 0.8
             else Fraction(0) for _ in range(n)] for _ in range(m)]


def assert_same_fractions(got, want):
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


def test_congruence_matches_fraction_route():
    # square, wide, tall and singular U against the Fraction product U^T A U
    rng = random.Random(13)
    for _ in range(60):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        U, A = wide_rat_mat(rng, m, k), wide_rat_mat(rng, m, m)
        assert_same_fractions(congruence(U, A), reference_congruence(U, A))
    for m, k in ((3, 3), (4, 2), (2, 5)):
        U = [[Fraction(x) for x in row] for row in low_rank(rng, m, k, 1)]
        A = wide_rat_mat(rng, m, m)
        assert_same_fractions(congruence(U, A), reference_congruence(U, A))
    U = [[Fraction(0)] * 3 for _ in range(3)]
    assert congruence(U, wide_rat_mat(rng, 3, 3)) == [[0] * 3 for _ in range(3)]
    # int entries are accepted and the result is still Fractions
    U, A = [[1, 2], [0, 1], [3, 0]], [[2, 0, 1], [0, -1, 0], [1, 0, 5]]
    assert_same_fractions(congruence(U, A), reference_congruence(U, A))


def test_vec_mat_matches_fraction_route():
    rng = random.Random(14)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A, w = wide_rat_mat(rng, m, n), wide_rat_mat(rng, 1, m)[0]
        assert_same_fractions([vec_mat(w, A)], [reference_vec_mat(w, A)])
    assert vec_mat([1, -1], [[1, 2, 3], [4, 5, 6]]) == [-3, -3, -3]


def test_solve_satisfies_system():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 6)
        A = random_invertible(rng, n)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        assert apply(A, solve(A, b)) == b


def test_inverse_is_two_sided():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        A = random_invertible(rng, n)
        Ainv = inverse(A)
        assert product(A, Ainv) == unit(n)
        assert product(Ainv, A) == unit(n)


def test_singular_input_raises():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 5)
        A = low_rank(rng, n, n, n - 1)
        with pytest.raises(DomainError, match="^singular matrix in solve$"):
            solve(A, [1] * n)
        with pytest.raises(DomainError, match="^matrix not invertible$"):
            inverse(A)
    with pytest.raises(DomainError):
        inverse([[0, 0], [0, 0]])
    # rational low rank, a zero row, and 1 x 1 zero
    for _ in range(40):
        n = rng.randint(2, 6)
        A = product(rand_rat_mat(rng, n, n - 1), rand_rat_mat(rng, n - 1, n))
        with pytest.raises(DomainError, match="^singular matrix in solve$"):
            solve(A, [Fraction(1, 3)] * n)
        with pytest.raises(DomainError, match="^matrix not invertible$"):
            inverse(A)
    zero_row = [[Fraction(1, 2), Fraction(-3, 5)], [Fraction(0), Fraction(0)]]
    with pytest.raises(DomainError, match="^singular matrix in solve$"):
        solve(zero_row, [1, 1])
    for A in (zero_row, [[Fraction(0)]]):
        with pytest.raises(DomainError, match="^matrix not invertible$"):
            inverse(A)


def test_nullspace_is_kernel_of_full_size():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = low_rank(rng, m, n, rng.randint(1, min(m, n)))
        basis = nullspace(A)
        rank = frac_rank(A)
        assert len(basis) == n - rank
        for v in basis:
            assert len(v) == n and any(v)
            assert apply(A, v) == [0] * m
        if basis:
            assert frac_rank(basis) == len(basis)
    assert nullspace(unit(3)) == []
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]


def shaped(rng, m, n):
    """An m x n matrix of one of the kinds the elimination must handle:
    random rational entries with mixed denominators and signs, integers,
    rank deficient, with a zero row, sparse (forcing row swaps), or zero."""
    kind = rng.randrange(6)
    if kind == 0:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if kind == 1 and min(m, n) > 1:
        r = rng.randint(1, min(m, n) - 1)
        return product(rand_rat_mat(rng, m, r), rand_rat_mat(rng, r, n))
    A = rand_rat_mat(rng, m, n)
    if kind == 2:
        A[rng.randrange(m)] = [Fraction(0)] * n
    elif kind == 3:
        A = [[x if rng.random() < 0.4 else Fraction(0) for x in row] for row in A]
    elif kind == 4:
        A = [[Fraction(0)] * n for _ in range(m)]
    return A


def outcome(f, *args):
    """repr of f(*args), so that values and their types must both agree, or
    the message of the DomainError it raised."""
    try:
        return repr(f(*args))
    except DomainError as e:
        return "DomainError: " + str(e)


def test_solve_and_inverse_match_fraction_gauss_jordan():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 7)
        A = shaped(rng, n, n)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        assert det(A) == frac_det(A)
        assert outcome(solve, A, b) == outcome(reference_solve, A, b)
        assert outcome(inverse, A) == outcome(reference_inverse, A)
    assert solve([[Fraction(-2, 3)]], [Fraction(5, 7)]) == [Fraction(-15, 14)]
    assert inverse([[Fraction(-2, 3)]]) == [[Fraction(-3, 2)]]


def test_nullspace_matches_fraction_gauss_jordan():
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(1, 7)
        m = rng.choice([n, rng.randint(1, n), rng.randint(n, n + 3)])  # square, wide, tall
        A = shaped(rng, m, n)
        assert outcome(nullspace, A) == outcome(reference_nullspace, A)
    assert nullspace([[Fraction(0)]]) == [[1]]
    assert nullspace([[Fraction(3, 4)]]) == []
    assert nullspace([]) == []


def test_charpoly_matches_determinants():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = rand_mat(rng, n, n, -3, 3)
        P = charpoly(A)
        assert P.degree == n and P.lc == 1
        for s in range(-(n // 2), n + 1 - n // 2):
            sI_minus_A = [[(s if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
            assert P(Fraction(s)) == frac_det(sI_minus_A)


def test_charpoly_matches_fraction_faddeev_leverrier():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        A = rand_rat_mat(rng, n, n) if rng.random() < 0.7 else rand_mat(rng, n, n)
        assert outcome(charpoly, A) == outcome(reference_charpoly, A)
    singular = low_rank(rng, 4, 4, 2)
    assert charpoly(singular) == reference_charpoly(singular)
    assert charpoly(singular)[0] == charpoly(singular)[1] == 0
    assert charpoly([[Fraction(1, 3)]]) == Poly([Fraction(-1, 3), 1])
    assert charpoly([]) == Poly([1])


def in_row_lattice(H, v):
    """Is v an integer combination of the echelon rows H?"""
    v = list(v)
    for row in H:
        p = next(c for c, x in enumerate(row) if x != 0)
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def check_echelon(H, n):
    pivots = []
    for row in H:
        assert len(row) == n and all(isinstance(x, int) for x in row)
        p = next(c for c, x in enumerate(row) if x != 0)
        assert row[p] > 0
        assert not pivots or p > pivots[-1]
        pivots.append(p)
    for i, p in enumerate(pivots):
        for k in range(i):
            assert 0 <= H[k][p] < H[i][p]
    return pivots


def test_hnf_shape_and_lattice():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 2)
        while True:
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            minors = [frac_det([A[r] for r in rs]) for rs in combinations(range(m), n)]
            index = 0
            for d in minors:
                index = gcd(index, int(d))
            if index:
                break
        H = hnf(A)
        pivots = check_echelon(H, n)
        assert pivots == list(range(n))
        # L(A) inside L(H), and both have index gcd(maximal minors) in Z^n
        assert all(in_row_lattice(H, row) for row in A)
        covolume = 1
        for i in range(n):
            covolume *= H[i][i]
        assert covolume == index


def test_hnf_rank_deficient():
    rng = random.Random(8)
    for _ in range(20):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = [[int(x) for x in row] for row in low_rank(rng, m, n, rng.randint(1, min(m, n) - 1))]
        H = hnf(A)
        check_echelon(H, n)
        assert len(H) == frac_rank(A)
        assert all(in_row_lattice(H, row) for row in A)
    assert hnf([[0, 0], [0, 0]]) == []
    assert hnf([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]


def test_hnf_matches_min_abs_reference():
    # tall, wide, square, rank-deficient and zero-row matrices, with rows
    # that share no pivot divisibility (so the extended-gcd step runs)
    rng = random.Random(9)
    for trial in range(400):
        m, n = rng.randint(0, 9), rng.randint(1, 7)
        kind = trial % 4
        if kind == 0:
            A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        elif kind == 1 and m and n > 1:
            A = [[int(x) for x in row] for row in low_rank(rng, m, n, rng.randint(1, n - 1))]
        elif kind == 2:
            A = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        else:
            A = [[0] * n for _ in range(m)]
            for row in A[:rng.randint(0, m)]:
                row[:] = [rng.randint(-6, 6) * rng.choice((1, 12, 35)) for _ in range(n)]
            rng.shuffle(A)
        assert hnf(A) == reference_hnf(A), A
    assert hnf([]) == reference_hnf([]) == []
    A = [[6, 1], [4, 3], [10, 0]]
    assert hnf(A) == reference_hnf(A) == [[2, 0], [0, 1]]


def test_det_of_ints_leaves_input_alone():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        copy = [row[:] for row in A]
        assert det(A) == det([[Fraction(x) for x in row] for row in A]) == frac_det(A)
        assert A == copy


def _as_kind(entry, kind):
    """A rational entry written as an int, a bool, a Fraction, a "p/q"
    string or a float (kinds that cannot hold it fall back to Fraction)."""
    x = Fraction(entry)
    if kind == "int" and x.denominator == 1:
        return int(x)
    if kind == "bool" and x in (0, 1):
        return bool(x)
    if kind == "str":
        return str(x)
    if kind == "float" and x.denominator in (1, 2, 4):
        return float(x)
    return x


def _shaped(rows, kind, container):
    """rows as a list of lists, a tuple of tuples or a generator of generators."""
    rows = [[_as_kind(x, kind) for x in row] for row in rows]
    if container == "tuple":
        return tuple(map(tuple, rows))
    if container == "gen":
        return (iter(row) for row in rows)
    return rows


KINDS = ("int", "bool", "fraction", "str", "float")
CONTAINERS = ("list", "tuple", "gen")


def test_entry_conversion_matches_mat_first():
    """Anything Fraction() accepts, in rows of any iterable, gives what
    converting with mat() first gives."""
    rng = random.Random(20)
    h = Fraction(1, 2)
    for kind in KINDS:
        for container in CONTAINERS:
            for _ in range(3):
                A = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 4))) for _ in range(3)]
                     for _ in range(3)]
                S = [[A[i][j] + A[j][i] for j in range(3)] for i in range(3)]
                S01 = [[Fraction(int(i == j or i + j == 1)) for j in range(3)] for i in range(3)]
                K = [[A[i][j] - A[j][i] for j in range(3)] + [h, 0] for i in range(3)]
                K += [[-h, -h, -h, 0, 1], [0, 0, 0, -1, 0]]
                g = [[Fraction(int(i == j)) * (1 + h * (i % 2)) for j in range(5)]
                     for i in range(5)]
                w = [A[0][0], h, 1]

                def shaped(rows):
                    return _shaped(rows, kind, container)

                got, want = SymPair(shaped(S), shaped(S01)), SymPair(mat(S), mat(S01))
                assert (got.den, got.ints) == (want.den, want.ints)
                q = QuadForm(shaped(S))
                assert (q.den, q.ints) == (want.den, want.ints[0])
                (v,) = shaped([w])
                assert q.value(v) == q.value(mat([w])[0])
                got, want = gram_invariant(q, list(shaped(A[:2]))), gram_invariant(q, mat(A[:2]))
                assert (got.den, got.ints) == (want.den, want.ints)
                got, want = SkewTriple(shaped(K), shaped(K), K), SkewTriple(mat(K), mat(K), K)
                assert (got.den, got.ints) == (want.den, want.ints)
                got, want = got.transformed(shaped(g)), want.transformed(mat(g))
                assert (got.den, got.ints) == (want.den, want.ints)
                K4 = [row[1:] for row in K[1:]]
                assert pfaffian(shaped(K4)) == pfaffian(mat(K4))
                assert adjoint_invariants(shaped(A)) == adjoint_invariants(mat(A))


def test_bad_entries_raise_what_fraction_raises():
    """A bad entry raises what Fraction() raises for it, as through mat()."""
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    K = [[0, 1, 2, 3, 4], [-1, 0, 5, 6, 7], [-2, -5, 0, 8, 9], [-3, -6, -8, 0, 1],
         [-4, -7, -9, -1, 0]]
    for bad in ("x", None, [1], float("nan"), float("inf"), "1/0", 1j):
        with pytest.raises(Exception) as info:
            Fraction(bad)
        kind = info.type
        B = [[1, 0, 0], [0, bad, 0], [0, 0, 1]]
        Kb = [row[:] for row in K]
        Kb[1][2] = bad
        calls = [
            lambda: SymPair(I3, B),
            lambda: SymPair(B, [[0]]),
            lambda: QuadForm(B),
            lambda: QuadForm(I3).value([1, bad, 0]),
            lambda: gram_invariant(QuadForm(I3), [[1, 0, 0], [0, bad, 1]]),
            lambda: SkewTriple(K, K, Kb),
            lambda: SkewTriple(K, K, K).transformed(Kb),
            lambda: pfaffian([[0, bad], [1, 0]]),
            lambda: adjoint_invariants(B),
        ]
        for call in calls:
            with pytest.raises(kind):
                call()


def test_triple_with_two_faults_reports_the_first():
    """Each matrix is checked in turn: shape, then skewness, as through mat()."""
    K = [[0, 1, 2, 3, 4], [-1, 0, 5, 6, 7], [-2, -5, 0, 8, 9], [-3, -6, -8, 0, 1],
         [-4, -7, -9, -1, 0]]
    not_skew = [row[:] for row in K]
    not_skew[0][1] = 9
    four = [row[:4] for row in K[:4]]
    with pytest.raises(DomainError, match="^matrix must be skew-symmetric$"):
        SkewTriple(not_skew, four, K)
    with pytest.raises(DomainError, match="^triple must consist of 5x5 matrices$"):
        SkewTriple(four, not_skew, K)
    with pytest.raises(DomainError, match="^matrix must be skew-symmetric$"):
        SkewTriple(not_skew, [["x"] * 5] * 5, K)
