"""Conjugation invariants of square matrices and the canonical representative."""

import random
from fractions import Fraction

import pytest

from quadpencil.adjoint import (
    AdjointInvariants,
    adjoint_canonical_rep,
    adjoint_conjugator,
    adjoint_invariants,
    conjugator_is_unique,
    d_determinant,
    regularity_D,
)
from quadpencil.errors import DomainError
from quadpencil.linalg import charpoly, mat_mul

from util import (
    frac_det,
    mat,
    random_invertible,
    reference_adjoint_invariants,
    reference_conjugator_is_unique,
)

DIFFER = "invariants differ: matrices are not in the same orbit"


def rand_mat(rng, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def test_invariants_pinned():
    T = [[0, 1], [1, 0]]
    inv = adjoint_invariants(T)
    assert list(inv.c) == [0, -1]
    assert list(inv.a) == [0]
    assert regularity_D(T) == 1


def test_invariants_read_off_charpoly_and_corner():
    rng = random.Random(111)
    for _ in range(15):
        n = rng.randint(2, 4)
        T = rand_mat(rng, n)
        inv = adjoint_invariants(T)
        cp = charpoly(T)  # monic, lowest degree first
        assert list(inv.c) == [(-1) ** i * cp[n - i] for i in range(1, n + 1)]
        P = T
        corners = []
        for _ in range(1, n):
            corners.append(P[n - 1][n - 1])
            P = mat_mul(P, T)
        assert list(inv.a) == corners[: n - 1]


def test_regularity_two_routes():
    # direct Hankel of corner moments vs the recurrence-extended route
    rng = random.Random(112)
    for _ in range(20):
        n = rng.randint(2, 4)
        T = rand_mat(rng, n)
        assert regularity_D(T) == d_determinant(adjoint_invariants(T))


def test_regularity_pinned_two_by_two():
    rng = random.Random(113)
    for _ in range(15):
        T = rand_mat(rng, 2)
        assert regularity_D(T) == T[0][1] * T[1][0]


def test_canonical_rep_pinned():
    T = adjoint_canonical_rep(AdjointInvariants([Fraction(0), Fraction(-1)], [Fraction(0)]))
    assert T == [[0, 1], [1, 0]]


def test_canonical_rep_reproduces_invariants():
    rng = random.Random(114)
    done = 0
    while done < 15:
        n = rng.randint(2, 4)
        T = rand_mat(rng, n)
        inv = adjoint_invariants(T)
        if d_determinant(inv) == 0:
            continue
        C = adjoint_canonical_rep(inv)
        got = adjoint_invariants(C)
        assert got.c == inv.c and got.a == inv.a
        done += 1


def test_canonical_rep_rejects_irregular():
    with pytest.raises(DomainError):
        adjoint_canonical_rep(adjoint_invariants([[0, 1], [0, 0]]))


def test_conjugator_pinned():
    g = adjoint_conjugator([[0, 1], [1, 0]], [[0, Fraction(1, 2)], [2, 0]])
    assert g == [[Fraction(1, 2), 0], [0, 1]]


def invert(M):
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        scale = 1 / aug[c][c]
        aug[c] = [x * scale for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def test_conjugator_on_matched_orbits():
    rng = random.Random(115)
    done = 0
    while done < 12:
        n = rng.randint(2, 4)
        T = rand_mat(rng, n)
        if regularity_D(T) == 0:
            continue
        # conjugate by a block transform fixing the last coordinate line
        M = random_invertible(rng, n - 1) if n > 2 else [[Fraction(rng.randint(1, 3))]]
        g0 = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            for j in range(n - 1):
                g0[i][j] = M[i][j]
        g0[n - 1][n - 1] = Fraction(1)
        if frac_det(g0) == 0:
            continue
        ginv = invert(g0)
        Tp = mat_mul(g0, mat_mul(T, ginv))
        got = adjoint_invariants(Tp)
        want = adjoint_invariants(T)
        assert got.c == want.c and got.a == want.a
        g = adjoint_conjugator(T, Tp)
        assert mat_mul(g, T) == mat_mul(Tp, g)
        assert g[n - 1][n - 1] == 1
        assert all(g[n - 1][j] == 0 for j in range(n - 1))
        assert all(g[i][n - 1] == 0 for i in range(n - 1))
        assert conjugator_is_unique(T, Tp)
        done += 1


def test_conjugator_rejects_different_orbits():
    with pytest.raises(DomainError):
        adjoint_conjugator([[1, 0], [0, 1]], [[-1, 0], [0, -1]])


def test_conjugator_rejects_irregular():
    T = [[0, 1], [0, 0]]
    with pytest.raises(DomainError):
        adjoint_conjugator(T, T)


def block_conjugate(rng, T):
    """(H, H T H^-1) for a random H fixing e_n and e_n^T."""
    n = len(T)
    H = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3):
        if n > 2:
            a, b = rng.sample(range(n - 1), 2)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for r in range(n - 1):
                H[r][b] += c * H[r][a]
        elif n == 2:
            H[0][0] *= rng.choice((-1, 2, Fraction(1, 3)))
    return H, mat_mul(mat_mul(H, T), invert(H))


def test_conjugator_raises_exactly_when_irregular():
    # random rational T at n = 2..5, half of them with an invariant subspace
    # through e_n (T block upper triangular): irregular whenever it is proper
    rng = random.Random(118)
    seen = set()
    for k in range(120):
        n = 2 + k // 2 % 4
        T = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        if k % 2:
            m = rng.randint(1, n - 1)  # span(e_(m+1), ..., e_n) is T-invariant
            for i in range(m):
                for j in range(m, n):
                    T[i][j] = Fraction(0)
        _, Tp = block_conjugate(rng, T)
        irregular = d_determinant(adjoint_invariants(T)) == 0
        seen.add(irregular)
        if irregular:
            with pytest.raises(DomainError, match="^irregular: moment determinant vanishes$"):
                adjoint_conjugator(T, Tp)
        else:
            g = adjoint_conjugator(T, Tp)
            assert mat_mul(g, T) == mat_mul(Tp, g)
    assert seen == {True, False}


def test_conjugator_refuses_exactly_where_invariants_differ():
    # pairs with equal invariants (block conjugates, whose denominators
    # differ), equal charpoly but other moments (a conjugate by a general S),
    # equal moments but another charpoly (T_00 moved, n = 2, 3, where no
    # moment a_j, j < n, reads it), equal trace and moments but another
    # determinant, and unrelated pairs, with denominators
    rng = random.Random(119)
    cases = []
    for k in range(60):
        n = 2 + k % 3
        T = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)) if k % 2 else 1)
              for _ in range(n)] for _ in range(n)]
        _, Tb = block_conjugate(rng, T)
        S = random_invertible(rng, n)
        Ts = mat_mul(mat_mul(S, T), invert(S))
        cases += [(T, Tb), (T, Ts), (Tb, Ts), (T, rand_mat(rng, n, -3, 3))]
        if n < 4:
            Tc = [row[:] for row in T]
            Tc[0][0] += Fraction(1, rng.choice((1, 2)))
            cases += [(T, Tc), (Tc, Tb)]
        if n == 2:  # T_01 moved: trace and a_1 kept, the determinant not when T_10 != 0
            Td = [row[:] for row in T]
            Td[0][1] += 1
            cases.append((Tb, Td))
    kinds = set()
    for T, Tp in cases:
        (c, a), (cp, ap) = reference_adjoint_invariants(T), reference_adjoint_invariants(Tp)
        try:
            adjoint_conjugator(T, Tp)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert (got == DIFFER) == ((c, a) != (cp, ap)), (T, Tp)
        kinds.add((c == cp, a == ap))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    # the comparison comes after the shape check and before the regularity one
    with pytest.raises(DomainError, match="^expected nonempty square matrices of one size$"):
        adjoint_conjugator([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(DomainError, match="^" + DIFFER + "$"):
        adjoint_conjugator([[1, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(DomainError, match="^irregular: moment determinant vanishes$"):
        adjoint_conjugator([[Fraction(1, 2), 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]])


def test_conjugator_is_unique_matches_nullspace_reference():
    rng = random.Random(116)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 4)
        T = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.3:
            # block diagonal T: the identity on the block is in the kernel
            for i in range(n - 1):
                T[i][n - 1] = T[n - 1][i] = Fraction(0)
        H, Tp = block_conjugate(rng, T)
        cases += [(T, Tp), (T, T), (T, rand_mat(rng, n, -2, 2))]
        if n > 1 and regularity_D(T) != 0:
            assert adjoint_conjugator(T, Tp) == H
    # e_n an eigenvector, scalar and block-diagonal T: nontrivial kernels
    cases += [([[1, 0], [0, 1]],) * 2, ([[2, 0, 0], [0, 2, 0], [0, 0, 1]],) * 2,
              ([[1, 2, 0], [3, 4, 0], [0, 0, 5]],) * 2,
              ([[0, 1, 0], [0, 0, 0], [1, 0, 0]], [[0, 2, 0], [0, 0, 0], [1, 0, 0]])]
    seen = set()
    for T, Tp in cases:
        got = conjugator_is_unique(T, Tp)
        assert got == reference_conjugator_is_unique(mat(T), mat(Tp)), (T, Tp)
        seen.add(got)
    assert seen == {True, False}


def test_shapes_are_rejected_at_the_boundary():
    two, three = [[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    wide = [[1, 2, 3], [4, 5, 6]]
    calls = [
        lambda: conjugator_is_unique(two, three),
        lambda: conjugator_is_unique(wide, wide),
        lambda: adjoint_conjugator(two, three),
        lambda: adjoint_conjugator(wide, wide),
        lambda: adjoint_invariants(wide),
        lambda: adjoint_invariants([]),
        lambda: regularity_D([[1, 2], [3]]),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
