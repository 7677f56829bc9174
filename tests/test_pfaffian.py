"""Pfaffians of skew forms and the invariant conic of a skew triple."""

import random
from fractions import Fraction

import pytest

from quadpencil.errors import DomainError
from quadpencil.linalg import mat_mul
from quadpencil.pfaffian import SkewTriple, pfaffian, pi_invariant, sl5_stable, sub_pfaffian_forms

from util import (
    frac_det,
    random_invertible,
    random_skew,
    reference_pi_invariant,
    reference_sub_pfaffian_forms,
    reference_transformed,
    transpose,
    unimodular,
)

MONOMIALS = ("x2", "y2", "z2", "xy", "xz", "yz")


def eval_form(coeffs, x, y, z):
    vals = (x * x, y * y, z * z, x * y, x * z, y * z)
    return sum(c * v for c, v in zip(coeffs, vals))


def test_pfaffian_pinned():
    assert pfaffian([]) == 1
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    M = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    assert pfaffian(M) == 1 * 6 - 2 * 5 + 3 * 4  # af - be + cd


def test_pfaffian_squares_to_determinant():
    rng = random.Random(101)
    for n in (2, 4, 6, 8):
        for _ in range(4):
            M = random_skew(rng, n)
            assert pfaffian(M) ** 2 == frac_det(M)


def test_pfaffian_congruence_covariance():
    rng = random.Random(102)
    for _ in range(10):
        n = rng.choice([2, 4, 6])
        M = random_skew(rng, n)
        P = random_invertible(rng, n)
        moved = mat_mul(transpose(P), mat_mul(M, P))
        assert pfaffian(moved) == frac_det(P) * pfaffian(M)


def test_pfaffian_rejections():
    with pytest.raises(DomainError):
        pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])  # odd size
    with pytest.raises(DomainError):
        pfaffian([[0, 1], [1, 0]])  # not skew


def rand_triple(rng):
    return SkewTriple(random_skew(rng, 5), random_skew(rng, 5), random_skew(rng, 5))


def test_sub_pfaffians_against_point_evaluation():
    # evaluate the five quadratic forms at scalars and compare with the
    # Pfaffian of the corresponding numeric 4x4 minor
    rng = random.Random(103)
    for _ in range(10):
        v = rand_triple(rng)
        forms = sub_pfaffian_forms(v)
        assert len(forms) == 5 and all(len(q) == 6 for q in forms)
        for _ in range(3):
            x, y, z = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            M = [
                [v.A[i][j] * x + v.B[i][j] * y + v.C[i][j] * z for j in range(5)]
                for i in range(5)
            ]
            for i in range(5):
                keep = [r for r in range(5) if r != i]
                minor = [[M[a][b] for b in keep] for a in keep]
                sign = 1 if i % 2 == 0 else -1
                assert eval_form(forms[i], x, y, z) == sign * pfaffian(minor)


def test_pi_solves_the_coefficient_system():
    # the six coefficients read off pi annihilate every sub-Pfaffian row
    rng = random.Random(104)
    for _ in range(8):
        v = rand_triple(rng)
        forms = sub_pfaffian_forms(v)
        pi = pi_invariant(v)
        c = [
            pi[0][0],
            pi[1][1],
            pi[2][2],
            2 * pi[0][1],
            2 * pi[0][2],
            2 * pi[1][2],
        ]
        for row in forms:
            assert sum(rc * cc for rc, cc in zip(row, c)) == 0


def test_pi_congruence_invariant():
    rng = random.Random(105)
    for _ in range(8):
        v = rand_triple(rng)
        pi = pi_invariant(v)
        g = unimodular(rng, 5)
        assert frac_det(g) == 1
        moved = v.transformed(g)
        assert pi_invariant(moved) == pi
        assert sl5_stable(moved) == sl5_stable(v)


def test_degenerate_triple_has_zero_pi():
    rng = random.Random(106)
    zero = [[Fraction(0)] * 5 for _ in range(5)]
    for _ in range(5):
        v = SkewTriple(random_skew(rng, 5), random_skew(rng, 5), [row[:] for row in zero])
        pi = pi_invariant(v)
        assert pi == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert not sl5_stable(v)


def test_generic_triples_are_stable():
    rng = random.Random(107)
    hits = sum(1 for _ in range(10) if sl5_stable(rand_triple(rng)))
    assert hits >= 8


def rat_skew(rng, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4)))
            M[i][j], M[j][i] = x, -x
    return M


def small_skew(rng, vals):
    M = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            M[i][j] = Fraction(rng.choice(vals))
            M[j][i] = -M[i][j]
    return M


def test_triple_kernels_match_fraction_reference():
    rng = random.Random(108)
    zero = [[Fraction(0)] * 5 for _ in range(5)]
    for k in range(30):
        mats = [rat_skew(rng, 5) for _ in range(3)]
        if k % 5 == 0:
            mats[2] = zero  # degenerate: pi vanishes
        v = SkewTriple(*mats)
        assert [v.A, v.B, v.C] == mats
        assert sub_pfaffian_forms(v) == reference_sub_pfaffian_forms(*mats)
        assert pi_invariant(v) == reference_pi_invariant(*mats)
        g = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(5)]
             for _ in range(5)]
        moved = reference_transformed(mats, g)
        w = v.transformed(g)
        assert [w.A, w.B, w.C] == moved
        assert sub_pfaffian_forms(w) == reference_sub_pfaffian_forms(*moved)
        assert pi_invariant(w) == reference_pi_invariant(*moved)
        assert pi_invariant(w.transformed(unimodular(rng, 5))) == pi_invariant(w)
        assert pi_invariant(w) == pi_invariant(SkewTriple(*moved))
    # nonzero triples with entries in {-1, 0, 1} or {0, 1}: about a quarter
    # have rank < 5, and the free column is not always the last
    rng = random.Random(1080)
    zero_pi = free_not_last = 0
    for k in range(200):
        mats = [small_skew(rng, (-1, 0, 1) if k % 2 else (0, 1)) for _ in range(3)]
        pi = pi_invariant(SkewTriple(*mats))
        assert pi == reference_pi_invariant(*mats)
        zero_pi += pi == [[0] * 3] * 3
        free_not_last += pi != [[0] * 3] * 3 and pi[1][2] == 0
    assert zero_pi >= 20 and free_not_last >= 5, (zero_pi, free_not_last)


def test_pfaffian_on_rational_entries():
    rng = random.Random(109)
    for n in (2, 4, 6):
        for _ in range(4):
            M = rat_skew(rng, n)
            assert pfaffian(M) ** 2 == frac_det(M)


def test_shapes_are_rejected_at_the_boundary():
    v = rand_triple(random.Random(110))
    for g in ([[1] * 4 for _ in range(5)], [[1] * 5 for _ in range(4)],
              [[1] * 5 for _ in range(4)] + [[1] * 4]):
        with pytest.raises(DomainError):
            v.transformed(g)
    with pytest.raises(DomainError):
        SkewTriple([[0, 1], [-1, 0]], [[0]], [[0]])
