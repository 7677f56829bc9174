"""Quotient-algebra arithmetic: idempotents, norm/trace, square roots."""

import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from operator import mul

import pytest

from quadpencil import EtaleAlgebra, Poly, etale
from quadpencil.errors import DomainError
from quadpencil.etale import (
    _canonical_sign,
    _component_sqrt,
    all_square_roots,
    euler_trace_solve,
    sqrt_in_algebra,
)
from quadpencil.polys import X, is_squarefree, poly_from_ints

from util import (
    frac_det,
    random_monic_separable,
    reference_alg_inverse,
    reference_component_norm,
    reference_component_sqrt,
    reference_mult_matrix,
    reference_solve,
    reference_trager_sqrt,
)


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


def rand_algebra(rng, n, kind=None):
    """Integral (kind 0), non-integral (1) or reducible (2) monic squarefree g
    of degree n; a random kind when none is given."""
    which = rng.randrange(3) if kind is None else kind
    if which == 2 and n >= 2:
        k = rng.randint(1, n - 1)
        g = random_monic_separable(rng, k) * random_monic_separable(rng, n - k)
    elif which == 1:
        g = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] + [1])
    else:
        g = random_monic_separable(rng, n)
    return EtaleAlgebra(g) if is_squarefree(g) else rand_algebra(rng, n, kind)


def rand_non_integral(rng, n):
    """An algebra whose monic g has a coefficient that is not an integer."""
    while True:
        A = rand_algebra(rng, n, 1)
        if A.g.den > 1:
            return A


def rand_sparse(rng, A):
    """Rational coordinates, about a third of them zero."""
    return A.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.randrange(3)
                      else Fraction(0) for _ in range(A.n)])


def test_mult_matrix_matches_column_products():
    rng = random.Random(53)
    for n in range(1, 9):
        for _ in range(4):
            A = rand_algebra(rng, n)
            for a in (rand_sparse(rng, A), A.zero, A.one, A.beta_pow(n - 1)):
                assert repr(a.mult_matrix()) == repr(reference_mult_matrix(a)), (A, a)
    # the shifted integer columns carry g's denominator
    for n in range(1, 9):
        for _ in range(3):
            A = rand_non_integral(rng, n)
            for a in (rand_sparse(rng, A), A.beta_pow(n - 1), A.beta_pow(2 * n - 2)):
                assert repr(a.mult_matrix()) == repr(reference_mult_matrix(a)), (A, a)


def test_inverse_matches_euclid_reference():
    rng = random.Random(49)
    for n in range(1, 9):
        for _ in range(6):
            A = rand_algebra(rng, n)
            a = rand_sparse(rng, A)
            try:
                want = reference_alg_inverse(a)
            except DomainError as e:
                with pytest.raises(DomainError, match=str(e)):
                    a.inverse()
                continue
            got = a.inverse()
            assert repr(got.coords) == repr(want.coords), (A, a)
            assert a * got == A.one
    for n in range(1, 9):
        for _ in range(3):
            A = rand_non_integral(rng, n)
            a = rand_unit(rng, A)
            got = a.inverse()
            assert repr(got.coords) == repr(reference_alg_inverse(a).coords), (A, a)
            assert a * got == got * a == A.one


def test_one_reduced_representative():
    """However an element is built, one class compares and hashes equal, and
    coords is its length-n Fraction view."""
    rng = random.Random(56)
    for n in range(1, 9):
        for kind in (0, 1, 2):
            A = rand_algebra(rng, n, kind)
            a, b = rand_sparse(rng, A), rand_unit(rng, A)
            trimmed = list(a.coords)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            q = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, n))] + [1])
            same = [
                A.element(trimmed),
                A.element(a.coords),
                A.element(c for c in a.coords),
                A.element([int(c) if c.denominator == 1 else str(c) for c in trimmed]),
                A.from_poly(a.poly() + q * A.g),
                (a + b) - b,
                -(-a),
                a + A.zero,
                a * A.one,
                (a * 3) * Fraction(1, 3),
                (a * b) * b.inverse(),
            ]
            for x in same:
                assert x == a and hash(x) == hash(a), (A, a, x)
                assert x.poly() == a.poly() and x.poly().degree < n
                assert len(x.coords) == n and all(type(c) is Fraction for c in x.coords)
                assert x.coords == a.coords
            zero = A.element([0] * n)
            assert zero == A.zero == a - a and hash(zero) == hash(A.zero)
            assert zero.is_zero and not A.one.is_zero
            assert A.zero.coords == (Fraction(0),) * n
            assert A.beta == A.from_poly(X) == A.beta_pow(1)
            with pytest.raises(DomainError, match="longer than the degree"):
                A.element([0] * (n + 1))


def test_inverse_of_zero_divisor_raises():
    g = poly_from_ints([-1, 1]) * poly_from_ints([1, 0, 1]) * poly_from_ints([-2, 0, 1])
    A = EtaleAlgebra(g)
    for a in (A.zero, A.beta - A.one, A.beta * A.beta + A.one, A.from_poly(g // poly_from_ints([-1, 1]))):
        assert not a.is_unit
        with pytest.raises(DomainError, match="element is not invertible"):
            a.inverse()
    with pytest.raises(DomainError, match="element is not invertible"):
        EtaleAlgebra(poly_from_ints([3, 1])).zero.inverse()


def test_charpoly_norm_equals_interpolated_norm():
    rng = random.Random(50)
    for n in range(1, 9):
        for _ in range(4):
            A = rand_algebra(rng, n)
            a = rand_sparse(rng, A)
            want = reference_component_norm(A, a, 0)
            chi = a.charpoly()
            assert want == Poly([chi[k // 2] if k % 2 == 0 else 0 for k in range(2 * n + 1)])


def test_component_sqrt_matches_euclid_reference():
    rng = random.Random(51)
    squares = 0
    for n in range(1, 9):
        for _ in range(3):
            A = rand_algebra(rng, n)
            for gi in A.factors:
                Li = EtaleAlgebra(gi)
                c = rand_sparse(rng, Li)
                while c.is_zero:
                    c = rand_sparse(rng, Li)
                x = c.coords[0] or Fraction(3, 2)
                cases = [c * c, c, Li.element([0] * (Li.n - 1) + [x])]
                # rationals, and beta^2 when g is even, need a shift s != 0
                cases += [Li.from_rational(x * x), Li.from_rational(-x)]
                cases += [Li.beta * Li.beta] if Li.n > 1 else []
                for a in cases:
                    got, want = _component_sqrt(gi, a.poly()), reference_component_sqrt(Li, a)
                    if want is None:
                        assert got is None, (Li, a)
                    else:
                        # either root; sqrt_in_algebra pins the canonical one
                        squares += 1
                        got = Li.from_poly(_canonical_sign(got))
                        want = Li.from_poly(_canonical_sign(want.poly()))
                        assert repr(got.coords) == repr(want.coords), (Li, a)
    assert squares >= 60


def test_sqrt_in_algebra_matches_euclid_reference():
    rng = random.Random(52)
    for n in range(1, 9):
        for _ in range(3):
            A = rand_algebra(rng, n)
            c = rand_sparse(rng, A)
            if not c.is_unit:
                continue
            for a in (c * c, c):
                root = Poly()
                for gi, ei in zip(A.factors, A.idempotents()):
                    Li = EtaleAlgebra(gi)
                    ci = reference_component_sqrt(Li, Li.from_poly(a.poly()))
                    if ci is None:
                        break
                    root = root + _canonical_sign(ci.poly()) * ei.poly()
                else:
                    want = A.from_poly(_canonical_sign(root % A.g))
                    assert sqrt_in_algebra(A, a) == want
                    continue
                assert sqrt_in_algebra(A, a) is None


def test_sqrt_rejects_element_of_another_algebra():
    A = EtaleAlgebra(poly_from_ints([-2, 0, 1]))
    B = EtaleAlgebra(poly_from_ints([-3, 0, 1]))
    for fn in (sqrt_in_algebra, all_square_roots):
        with pytest.raises(DomainError, match="elements of different algebras"):
            fn(A, B.element([2]))
    assert sqrt_in_algebra(A, EtaleAlgebra(poly_from_ints([-2, 0, 1])).element([2])) == A.beta


def test_sqrt_accepts_rationals():
    A = EtaleAlgebra(poly_from_ints([-2, 0, 1]))
    assert sqrt_in_algebra(A, 4) == A.from_rational(2)
    assert sqrt_in_algebra(A, Fraction(1, 2)) == A.beta * Fraction(1, 2)
    assert sqrt_in_algebra(A, -1) is None
    assert all_square_roots(A, 4) == [A.from_rational(2), A.from_rational(-2)]
    assert all_square_roots(A, Fraction(-3)) == []
    with pytest.raises(DomainError, match="invertible"):
        sqrt_in_algebra(A, 0)


def test_beta_powers_are_reduced_monomials():
    rng = random.Random(55)
    for n in range(1, 9):
        for _ in range(3):
            A = rand_algebra(rng, n)
            assert A._beta_pows == [(X**k) % A.g for k in range(max(2 * n - 1, 1))]


def rand_field(rng, d):
    """Q[x]/(g) for a random irreducible monic g of degree d, integral or not."""
    while True:
        A = rand_algebra(rng, d)
        if len(A.factors) == 1:
            return A


@pytest.fixture
def sqrt_route(monkeypatch):
    """_component_sqrt on the field Li and an element a of it, with the root as
    an element of Li and the route it took: 'symbol' (a None certified by a
    residue symbol), 'lift' (a verified p-adic lift) or 'bound' (a None
    certified by lifts past the height bound). run.calls has one entry per lift
    of the last call."""
    calls = []
    lift = etale._lift_sqrt
    monkeypatch.setattr(etale, "_lift_sqrt", lambda *args: calls.append(1) or lift(*args))

    def run(Li, a):
        del calls[:]
        r = _component_sqrt(Li.g, a.poly())
        if r is not None:
            return Li.from_poly(r), "lift"
        return None, "bound" if calls else "symbol"

    run.calls = calls
    return run


def check_against_trager(sqrt_route, Li, a):
    got, route = sqrt_route(Li, a)
    want = reference_trager_sqrt(Li, a)
    if want is None:
        assert got is None, (Li, a, route)
    else:
        assert got is not None and got * got == a, (Li, a, route)
        assert got in (want, -want), (Li, a, route)
    return route


def test_component_sqrt_matches_trager_reference(sqrt_route):
    rng = random.Random(54)
    seen = Counter()
    for d in range(2, 9):
        for _ in range(4):
            Li = rand_field(rng, d)
            c, b = rand_unit(rng, Li), rand_sparse(rng, Li)
            for a in (c * c, c * c * b, c):
                if a.is_unit:
                    seen[check_against_trager(sqrt_route, Li, a)] += 1
    assert seen["lift"] >= 28 and seen["symbol"] >= 28 and seen["bound"] >= 1


def test_component_sqrt_special_fields(sqrt_route):
    cases = [
        # x^2 + 1
        ([1, 0, 1], [[-1], [0, 2], [0, 1], [3], [Fraction(-9, 4)], [Fraction(3, 4), -1]]),
        # ramified at small primes: x^2 - 3, x^3 - 2
        ([-3, 0, 1], [[3], [Fraction(1, 3)], [0, 1], [-3], [4, Fraction(2, 3)]]),
        ([-2, 0, 0, 1], [[2], [4], [0, 0, 1], [0, 1], [Fraction(1, 4), Fraction(1, 3), 5]]),
        # monic with non-integral coefficients: x^2 + 1/4, x^3 - x/3 + 5/2
        ([Fraction(1, 4), 0, 1], [[-1], [0, 1], [0, -1], [Fraction(1, 4)], [2]]),
        ([Fraction(5, 2), Fraction(-1, 3), 0, 1], [[0, 0, 1], [3], [Fraction(4, 9)], [1, 1]]),
    ]
    for g, elems in cases:
        Li = EtaleAlgebra(Poly(g))
        assert len(Li.factors) == 1
        for cs in elems:
            for a in (Li.element(cs), Li.element(cs) * Li.element(cs)):
                check_against_trager(sqrt_route, Li, a)


def non_unit_at(Li, primes):
    """The product over p of beta - k for a root k of g mod p, or of p when
    g has none: not a unit at some prime above each p."""
    out = Li.one
    for p in primes:
        k = next((k for k in range(p) if Li.g(k) % p == 0), None)
        out = out * (Li.from_rational(p) if k is None else Li.beta - k)
    return out


def test_component_sqrt_skips_primes_where_a_is_not_a_unit(sqrt_route):
    # Euler's criterion at such a prime would call a square a non-square
    first = (3, 5, 7, 11, 13)
    for g in ([1, 0, 1], [-2, 0, 0, 1], [3, 1, 0, 0, 1], [1, -1, 0, 2, 0, 1]):
        Li = EtaleAlgebra(poly_from_ints(g))
        c = non_unit_at(Li, first)
        walked = [p for p, *_ in islice(etale._unit_primes(Li.g, (c * c).poly()), 2)]
        assert not set(walked) & set(first), (g, walked)
        for b in (Li.one, Li.beta + 2, Li.element([Fraction(1, 3), Fraction(5, 7)])):
            for a in (c * c * b * b, c * c * b, c * b * b):
                check_against_trager(sqrt_route, Li, a)


# Q(sqrt 2, sqrt 3) and Q(sqrt 2, sqrt 3, sqrt 5): Galois groups (Z/2)^2 and
# (Z/2)^3 have no 4- or 8-cycle, so no prime is inert, and every good prime
# has at least 2 and 4 residue fields
NO_INERT_PRIME = [([1, 0, -10, 0, 1], 2), ([576, 0, -960, 0, 352, 0, -40, 0, 1], 4)]


def test_component_sqrt_without_inert_prime_lifts_at_several_fields(sqrt_route):
    for g, fields in NO_INERT_PRIME:
        Li = EtaleAlgebra(poly_from_ints(g))
        b = Li.beta  # sqrt 2 + sqrt 3 (+ sqrt 5)
        seen = Counter()
        squares = [b * b, (b + 1) * (b + 1), (b * b - 3 * b + Fraction(1, 2)) ** 2]
        rationals = [Li.from_rational(x) for x in (2, 6, 30, Fraction(3, 4), -1)]
        others = [Li.from_rational(x) for x in (7, 11, 13, 14)] + [b, b + 1]
        for a in squares + rationals + others:
            route = check_against_trager(sqrt_route, Li, a)
            seen[route] += 1
            if route == "bound":  # every sign pattern was lifted
                assert len(sqrt_route.calls) >= 2 ** (fields - 1), (g, a)
        assert seen["lift"] >= 5 and seen["bound"] >= 3 and seen["symbol"] >= 2, (g, seen)


def test_component_sqrt_routes(sqrt_route):
    Li = EtaleAlgebra(poly_from_ints([1, 0, 1]))
    assert check_against_trager(sqrt_route, Li, Li.from_rational(3)) == "symbol"
    assert check_against_trager(sqrt_route, Li, Li.from_rational(-1)) == "lift"
    assert check_against_trager(sqrt_route, Li, Li.from_rational(5)) == "bound"
    K = EtaleAlgebra(poly_from_ints([1, 0, -10, 0, 1]))
    assert check_against_trager(sqrt_route, K, K.beta * K.beta) == "lift"
    assert check_against_trager(sqrt_route, K, K.from_rational(7)) == "bound"
    # large coordinates verify only after several doublings, non-squares at the bound
    M = EtaleAlgebra(poly_from_ints([-2, 0, 0, 1]))
    c = M.element([Fraction(1234567, 89), Fraction(-2, 3), 99991])
    assert check_against_trager(sqrt_route, M, c * c) == "lift"
    assert check_against_trager(sqrt_route, M, c * c * 11) == "bound"


def test_height_bounds_the_scaled_root():
    # H bounds every coordinate of c r in the basis of powers of beta' = e beta
    rng = random.Random(56)
    cases = []
    for d in range(2, 9):
        for _ in range(3):
            Li = rand_field(rng, d)
            cases.append((Li, rand_unit(rng, Li)))
    for g, r in (([Fraction(1, 4), 0, 1], [Fraction(1, 2), -3]),
                 ([Fraction(5, 2), Fraction(-1, 3), 0, 1], [Fraction(2, 3), 5, Fraction(-7, 2)]),
                 ([-2, 0, 0, 1], [Fraction(1234567, 89), Fraction(-2, 3), 99991])):
        Li = EtaleAlgebra(Poly(g))
        cases.append((Li, Li.element(r)))
    for Li, r in cases:
        e = Li.g.den
        ge = Poly(etale._integral(Li.g))
        in_beta1 = lambda x: Poly([v / e**j for j, v in enumerate(x.coords)])
        a1 = in_beta1(r * r)
        c = ge.derivative() * a1.den
        H = etale._height(ge, c, a1, *etale._gram_inverse(ge))
        w = (c * in_beta1(r)) % ge
        assert w.den == 1 and max(map(abs, w.num)) <= H, (Li, r)


def test_integer_inverse_matches_mult_matrix_solve():
    # one elimination on the integer columns against the Fraction columns
    # a * beta^j and a Fraction solve against e_0, degree 1..8
    rng = random.Random(64)
    singular = 0
    for n in range(1, 9):
        for k in range(12):
            A = rand_non_integral(rng, n) if k % 4 == 3 else rand_algebra(rng, n)
            a = rand_sparse(rng, A)
            if k % 4 == 1 and len(A.factors) > 1:
                a = a * A.idempotents()[0]  # a zero divisor
            try:
                want = reference_solve(reference_mult_matrix(a), [1] + [0] * (n - 1))
            except DomainError:
                singular += 1
                with pytest.raises(DomainError, match="element is not invertible"):
                    a.inverse()
                continue
            got = a.inverse()
            assert repr(got.coords) == repr(tuple(want)), (A, a)
            assert got.poly() == Poly(want)
    assert singular >= 10


def test_one_live_algebra_per_g():
    g = poly_from_ints([11, -4, 0, 1])
    A = EtaleAlgebra(g)
    assert EtaleAlgebra(g) is A
    assert EtaleAlgebra(Poly(g.coeffs)) is A
    assert EtaleAlgebra(Poly([Fraction(c) for c in g.coeffs])) is A
    factors = A.factors
    assert EtaleAlgebra(Poly(g.coeffs)).factors is factors
    assert EtaleAlgebra(poly_from_ints([12, -4, 0, 1])) is not A


def test_rejected_g_is_never_stored():
    bad = {
        Poly([5]): "degree >= 1",
        Poly([1, 2]): "monic",
        poly_from_ints([-1, 1]) ** 2: "not squarefree",
    }
    for g, msg in bad.items():
        for _ in range(3):
            with pytest.raises(DomainError, match=msg) as info:
                EtaleAlgebra(g)
            assert g not in etale._LIVE  # while the traceback holds the object
            del info


def test_registry_drops_dead_algebra():
    g = poly_from_ints([-13, 7, 0, 0, 1])
    A = EtaleAlgebra(g)
    assert etale._LIVE[g] is A
    del A
    gc.collect()
    assert g not in etale._LIVE
    assert EtaleAlgebra(g)._factors is None


def test_integer_traces_match_fraction_power_sums():
    # the integer dot product over den e^K against the Fraction dot product
    # with power_sums, for every shift k < 2n
    rng = random.Random(49)
    algebras = [EtaleAlgebra(Poly([Fraction(1, 3), Fraction(-5, 2), 0, 1])),
                EtaleAlgebra(Poly([Fraction(7, 4), 0, Fraction(1, 6), Fraction(-1, 2), 1]))]
    while len(algebras) < 12:
        n = rng.randint(1, 7)
        g = Poly([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 9))) for _ in range(n)] + [1])
        if is_squarefree(g):
            algebras.append(EtaleAlgebra(g))
    assert sum(A.g.den > 1 for A in algebras) >= 8
    for A in algebras:
        p = A.power_sums
        assert len(p) == 3 * A.n - 1 and p[0] == A.n
        elements = [A.zero, A.one, A.from_rational(Fraction(-2, 7))]
        elements += [A.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                for _ in range(A.n)]) for _ in range(4)]
        for a in elements:
            for k in range(2 * A.n):
                want = sum(map(mul, a.poly().coeffs, p[k:]), Fraction(0))
                got = a.trace(k)
                assert got == want and type(got) is Fraction, (A, a, k)
        assert A.zero.trace(2 * A.n - 1) == 0
        assert A.from_rational(Fraction(-2, 7)).trace() == Fraction(-2, 7) * A.n


def test_inverse_of_inverse_is_the_element():
    rng = random.Random(50)
    for _ in range(20):
        A = EtaleAlgebra(random_monic_separable(rng, rng.randint(1, 6)))
        a = rand_unit(rng, A)
        x = a.inverse()
        assert x.inverse() is a and a * x == A.one
        assert a.inverse() == x  # recomputed: a does not hold x
        assert a / x == a * a and (x ** -2) == a * a
    A = EtaleAlgebra(poly_from_ints([-1, 0, 1]))
    zero_divisor = A.beta - A.one
    for _ in range(2):
        with pytest.raises(DomainError, match="not invertible"):
            zero_divisor.inverse()
    with pytest.raises(DomainError):
        A.zero.inverse()
