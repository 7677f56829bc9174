"""Quotient-algebra arithmetic: idempotents, norm/trace, square roots."""

import random
from fractions import Fraction

import pytest

from quadpencil import EtaleAlgebra, Poly
from quadpencil.errors import DomainError
from quadpencil.etale import all_square_roots, euler_trace_solve, sqrt_in_algebra
from quadpencil.polys import poly_from_ints

from util import frac_det, random_monic_separable


def rand_element(rng, A, lo=-4, hi=4):
    return A.element([Fraction(rng.randint(lo, hi)) for _ in range(A.n)])


def rand_unit(rng, A):
    while True:
        a = rand_element(rng, A)
        if a.is_unit:
            return a


def test_idempotent_splitting():
    for cs in ([-1, 0, 1], [0, -1, 0, 1], [-4, 0, 0, 0, 1]):
        A = EtaleAlgebra(poly_from_ints(cs))
        es = A.idempotents()
        assert len(es) == len(A.factors)
        total = A.zero
        for e in es:
            assert e * e == e
            total = total + e
        assert total == A.one
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert (es[i] * es[j]).is_zero


def test_component_count_pinned():
    assert len(EtaleAlgebra(poly_from_ints([-1, 0, 1])).factors) == 2  # x^2 - 1
    assert len(EtaleAlgebra(poly_from_ints([1, 0, 1])).factors) == 1  # x^2 + 1
    # (x-1)(x-2)(x^2+1)
    g = poly_from_ints([-1, 1]) * poly_from_ints([-2, 1]) * poly_from_ints([1, 0, 1])
    assert len(EtaleAlgebra(g).factors) == 3


def test_norm_trace_against_multiplication_matrix():
    rng = random.Random(41)
    for _ in range(25):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 5)))
        a = rand_element(rng, A)
        M = a.mult_matrix()
        assert a.norm() == frac_det(M)
        assert a.trace() == sum(M[i][i] for i in range(A.n))


def test_power_sum_trace_and_resultant_norm_differential():
    rng = random.Random(48)
    for _ in range(40):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(1, 8)))
        a = A.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(A.n)])
        M = a.mult_matrix()
        assert a.norm() == frac_det(M)
        assert a.trace() == sum(M[i][i] for i in range(A.n))
        # Tr(beta^k a) for k < 2n, against the matrix of beta^k a
        want = []
        for k in range(2 * A.n):
            Mk = (A.beta_pow(k) * a).mult_matrix()
            want.append(sum(Mk[i][i] for i in range(A.n)))
        assert [a.trace(k) for k in range(2 * A.n)] == want
    # non-integral g, zero and constant elements
    A = EtaleAlgebra(Poly([Fraction(1, 3), Fraction(-5, 2), 0, 1]))
    for a in (A.zero, A.from_rational(Fraction(-2, 7)), A.element([1, Fraction(1, 2), 3])):
        M = a.mult_matrix()
        assert a.norm() == frac_det(M)
        assert a.trace() == sum(M[i][i] for i in range(A.n))


def test_norm_multiplicative_trace_additive():
    rng = random.Random(42)
    for _ in range(25):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 4)))
        a, b = rand_element(rng, A), rand_element(rng, A)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()
        c = Fraction(3, 2)
        assert A.from_rational(c).norm() == c**A.n
        assert A.from_rational(c).trace() == c * A.n


def test_beta_charpoly_is_defining_polynomial():
    rng = random.Random(43)
    for _ in range(10):
        g = random_monic_separable(rng, rng.randint(2, 5))
        A = EtaleAlgebra(g)
        assert A.beta.charpoly() == g


def test_inverse():
    rng = random.Random(44)
    for _ in range(25):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 4)))
        a = rand_unit(rng, A)
        assert a * a.inverse() == A.one
    A = EtaleAlgebra(poly_from_ints([-1, 0, 1]))
    zero_divisor = A.beta - A.one  # vanishes in one component
    assert not zero_divisor.is_unit
    with pytest.raises(DomainError):
        zero_divisor.inverse()


def test_euler_trace_solve_round_trip():
    rng = random.Random(45)
    for _ in range(20):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 5)))
        kappa = rand_element(rng, A)
        gprime = A.from_poly(A.g.derivative())
        if not gprime.is_unit:
            continue
        targets = [(kappa * A.beta_pow(i) / gprime).trace() for i in range(A.n)]
        assert euler_trace_solve(A, targets) == kappa


def test_euler_trace_identity():
    # Tr(beta^j / g'(beta)) is 0 for j < n-1 and 1 for j = n-1
    rng = random.Random(46)
    for _ in range(15):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 6)))
        gprime = A.from_poly(A.g.derivative())
        if not gprime.is_unit:
            continue
        inv = gprime.inverse()
        for j in range(A.n):
            expect = 1 if j == A.n - 1 else 0
            assert (A.beta_pow(j) * inv).trace() == expect


def test_sqrt_of_squares():
    rng = random.Random(47)
    found = 0
    for _ in range(30):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(2, 4)))
        c = rand_unit(rng, A)
        s = sqrt_in_algebra(A, c * c)
        assert s is not None
        assert s * s == c * c
        found += 1
    assert found == 30


def test_sqrt_absent():
    A = EtaleAlgebra(poly_from_ints([-2, 0, 1]))  # real quadratic field
    assert sqrt_in_algebra(A, A.from_rational(-1)) is None
    B = EtaleAlgebra(poly_from_ints([1, 0, 1]))
    s = sqrt_in_algebra(B, B.from_rational(-1))
    assert s is not None and s * s == B.from_rational(-1)


def test_all_square_roots_count():
    # split algebra with r components: 2^r square roots of 1
    g = poly_from_ints([-1, 1]) * poly_from_ints([-2, 1]) * poly_from_ints([-3, 1])
    A = EtaleAlgebra(g)
    roots = all_square_roots(A, A.one)
    assert len(roots) == 8
    assert len(set(tuple(r.coords) for r in roots)) == 8
    for r in roots:
        assert r * r == A.one


def test_sqrt_deterministic():
    A = EtaleAlgebra(poly_from_ints([-2, 0, 0, 1]))
    a = A.from_rational(4)
    assert sqrt_in_algebra(A, a) == sqrt_in_algebra(A, a)
