"""Exact polynomial layer: division, resultants, discriminants, real roots."""

import math
import random
from fractions import Fraction

import pytest

from quadpencil import Poly, discriminant, real_root_count, resultant
from quadpencil.errors import DomainError
from quadpencil.polys import (
    is_squarefree,
    lagrange_interpolate,
    poly_from_ints,
    poly_gcd,
    poly_gcdex,
    squarefree_decomposition,
)

from util import (
    ReferencePoly,
    cubic_disc,
    quadratic_disc,
    reference_poly_gcd,
    reference_squarefree_decomposition,
    sylvester_resultant,
)


def rand_poly(rng, deg, lo=-6, hi=6):
    while True:
        p = Poly([Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)])
        if p.degree == deg:
            return p


def test_divmod_recombines():
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 6))
        q = rand_poly(rng, rng.randint(1, 4))
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


def test_resultant_matches_sylvester_determinant():
    # dual route: subresultant chain inside, plain determinant here
    rng = random.Random(12)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(1, 5))
        q = rand_poly(rng, rng.randint(1, 5))
        assert resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_fractional_coefficients():
    rng = random.Random(13)
    for _ in range(20):
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)])
        q = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        if p.degree != 3 or q.degree != 2:
            continue
        assert resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_multiplicative():
    rng = random.Random(14)
    for _ in range(25):
        p = rand_poly(rng, 2)
        q = rand_poly(rng, 2)
        r = rand_poly(rng, rng.randint(1, 3))
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


def test_resultant_root_evaluation():
    # Res(p, q) = lc(p)^deg(q) * prod q(root of p) for split p
    rng = random.Random(15)
    for _ in range(25):
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        p = Poly([Fraction(1)])
        for r in roots:
            p = p * Poly([Fraction(-r), Fraction(1)])
        q = rand_poly(rng, rng.randint(1, 3))
        expect = Fraction(1)
        for r in roots:
            expect *= q(r)
        assert resultant(p, q) == expect


def test_discriminant_quadratic_formula():
    rng = random.Random(16)
    for _ in range(40):
        a = rng.choice([x for x in range(-6, 7) if x])
        b, c = rng.randint(-6, 6), rng.randint(-6, 6)
        assert discriminant(poly_from_ints([c, b, a])) == quadratic_disc(a, b, c)


def test_discriminant_cubic_formula():
    rng = random.Random(17)
    for _ in range(40):
        a = rng.choice([x for x in range(-5, 6) if x])
        b, c, d = (rng.randint(-5, 5) for _ in range(3))
        assert discriminant(poly_from_ints([d, c, b, a])) == cubic_disc(a, b, c, d)


def test_discriminant_pinned():
    assert discriminant(poly_from_ints([1, 0, 0, 1])) == -27  # x^3 + 1
    assert discriminant(poly_from_ints([0, -1, 0, 1])) == 4  # x^3 - x
    assert discriminant(poly_from_ints([-2, 0, 1])) == 8  # x^2 - 2
    assert discriminant(poly_from_ints([1, 1, 0, 0, 1])) == 229  # x^4 + x + 1


def test_gcd_and_bezout():
    rng = random.Random(18)
    for _ in range(30):
        d = rand_poly(rng, rng.randint(0, 2))
        p = rand_poly(rng, rng.randint(1, 3)) * d
        q = rand_poly(rng, rng.randint(1, 3)) * d
        g = poly_gcd(p, q)
        assert (p % g).is_zero and (q % g).is_zero
        assert g.lc == 1 or g.degree == 0
        u, v, g2 = poly_gcdex(p, q)
        assert u * p + v * q == g2
        assert g2 == g


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(19)
    for _ in range(30):
        roots = rng.sample(range(-6, 7), rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in roots]
        lc = Fraction(rng.choice([1, 2, -3]))
        p = Poly([lc])
        for r, m in zip(roots, mults):
            p = p * Poly([Fraction(-r), Fraction(1)]) ** m
        c, parts = squarefree_decomposition(p)
        assert c == lc
        rebuilt = Poly([c])
        for g, m in parts:
            assert is_squarefree(g)
            assert g.lc == 1
            rebuilt = rebuilt * g**m
        assert rebuilt == p
        assert sorted(m for _, m in parts) == sorted(set(mults))


def test_squarefree_decomposition_pinned():
    # (x-1)^2 (x+2)^3
    p = Poly([Fraction(-1), Fraction(1)]) ** 2 * Poly([Fraction(2), Fraction(1)]) ** 3
    c, parts = squarefree_decomposition(p)
    assert c == 1
    assert parts == [
        (Poly([Fraction(-1), Fraction(1)]), 2),
        (Poly([Fraction(2), Fraction(1)]), 3),
    ]


def test_real_root_count_known_roots():
    rng = random.Random(20)
    for _ in range(30):
        roots = rng.sample(range(-7, 8), rng.randint(0, 4))
        p = Poly([Fraction(1)])
        for r in roots:
            p = p * Poly([Fraction(-r), Fraction(1)])
        if rng.random() < 0.5:
            p = p * poly_from_ints([1, 0, 1])  # extra complex pair
        if p.degree == 0:
            continue
        assert real_root_count(p) == len(roots)


def test_real_root_count_pinned():
    assert real_root_count(poly_from_ints([1, 0, 1])) == 0  # x^2 + 1
    assert real_root_count(poly_from_ints([0, -2, 0, 1])) == 3  # x^3 - 2x
    assert real_root_count(poly_from_ints([1, 0, 0, 0, 1])) == 0  # x^4 + 1
    assert real_root_count(poly_from_ints([-2, 0, 1])) == 2  # x^2 - 2


def test_real_root_count_rejects_repeated_roots():
    with pytest.raises(DomainError):
        real_root_count(Poly([Fraction(-1), Fraction(1)]) ** 2)


def test_lagrange_interpolation_round_trip():
    rng = random.Random(21)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(0, 4))
        xs = [Fraction(x) for x in rng.sample(range(-10, 11), p.degree + 1)]
        q = lagrange_interpolate(xs, [p(x) for x in xs])
        assert q == p


def reference_lagrange(xs, ys):
    """Sum of y_i times the Lagrange basis polynomials, built with Poly products."""
    out = Poly()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Poly([yi])
        for j, xj in enumerate(xs):
            if j != i:
                term = term * Poly([-xj, 1]) * Fraction(1, xi - xj)
        out = out + term
    return out


def test_lagrange_matches_reference():
    rng = random.Random(22)
    for _ in range(60):
        m = rng.randint(1, 9)
        xs = [Fraction(x, rng.randint(1, 3)) for x in rng.sample(range(-12, 13), m)]
        if len(set(xs)) < m:
            continue
        ys = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(m)]
        if rng.random() < 0.2:
            ys[rng.randrange(m)] = Fraction(0)
        assert lagrange_interpolate(xs, ys) == reference_lagrange(xs, ys)
    assert lagrange_interpolate([1, 2, 3], [0, 0, 0]) == Poly()
    assert lagrange_interpolate([5], [Fraction(2, 3)]) == Poly([Fraction(2, 3)])


def test_lagrange_rejects_bad_points():
    # DomainErrors, not asserts, so that python -O keeps the checks
    for xs, ys in (([0, 1], [5, 6, 7]), ([0, 1, 2], [5, 6])):
        with pytest.raises(DomainError, match="as many values as points"):
            lagrange_interpolate(xs, ys)
    for xs in ([1, 2, 1], [Fraction(1, 2), 0, Fraction(2, 4)]):
        with pytest.raises(DomainError, match="points must be distinct"):
            lagrange_interpolate(xs, [5, 6, 7])


def test_negative_power_rejected():
    assert Poly([1, 1]) ** 0 == Poly([1])
    with pytest.raises(DomainError):
        Poly([1, 1]) ** -1


def test_negative_power_rejected_without_asserts():
    # python -O strips assert statements; the guard must not be one
    import os
    import subprocess
    import sys

    import quadpencil

    src = os.path.dirname(os.path.dirname(quadpencil.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from quadpencil import Poly\n"
            "from quadpencil.errors import DomainError\n"
            "try:\n"
            "    Poly([1, 1]) ** -1\n"
            "except DomainError:\n"
            "    print('rejected')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"


def test_from_monic_part_needs_monic():
    from quadpencil import BinaryForm

    assert BinaryForm.from_monic_part(2, Poly([3, 0, 1])).coeffs == (2, 0, 6)
    with pytest.raises(DomainError):
        BinaryForm.from_monic_part(2, Poly([3, 0, 2]))


# Differential checks against ReferencePoly, the tuple-of-Fractions polynomial
# that the integer numerators over one denominator replaced: every result must
# carry the same Fraction coefficients and the same hash.

BIG_DENS = [999_983, 1_000_003, 2**61 - 1, 3**20, 10**12 + 39]


def rand_rational_poly(rng, deg):
    """A Poly of degree deg with small, rational or large-denominator
    coefficients and a leading coefficient of either sign."""
    kind = rng.randrange(3)
    while True:
        cs = []
        for _ in range(deg + 1):
            if kind == 0:
                cs.append(Fraction(rng.randint(-9, 9)))
            elif kind == 1:
                cs.append(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
            else:
                cs.append(Fraction(rng.randint(-10**6, 10**6), rng.choice(BIG_DENS)))
        p = Poly(cs)
        if p.degree == deg:
            return p


def operand_pairs(rng, count):
    """Random pairs plus zero, constants, and pairs whose leading terms cancel."""
    zero, one = Poly(), Poly([1])
    pairs = [(zero, zero), (zero, one), (one, zero), (Poly([Fraction(-3, 7)]), one),
             (Poly([0, 0, Fraction(1, 2)]), Poly([Fraction(5, 3)]))]
    for _ in range(count):
        p = rand_rational_poly(rng, rng.randint(0, 6))
        q = rand_rational_poly(rng, rng.randint(0, 5))
        pairs.append((p, q))
        if p.degree >= 1 and rng.random() < 0.5:
            # same degree, leading coefficients cancel in p + q
            tail = rand_rational_poly(rng, rng.randint(0, p.degree - 1))
            pairs.append((p, Poly(list(tail.coeffs) + [0] * (p.degree - tail.degree - 1)
                                  + [-p.lc])))
    return pairs


def ref(p):
    return ReferencePoly(p.coeffs)


def assert_same(p, r):
    assert type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == r.coeffs
    assert hash(p) == hash(r)
    assert p.den > 0 and (not p.num or p.num[-1] != 0)
    assert math.gcd(p.den, *p.num) == 1


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(31)
    for p, q in operand_pairs(rng, 150):
        rp, rq = ref(p), ref(q)
        assert_same(p, rp)
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(p * q, rp * rq)
        for c in (0, -2, Fraction(-5, 12), Fraction(7, 999_983)):
            assert_same(p * c, rp * c)
            assert_same(c * p, rp * c)
            assert_same(p + c, rp + ReferencePoly([c]))
            assert_same(c - p, ReferencePoly([c]) - rp)
        assert_same(-p, rp * -1)
        assert_same(p.derivative(), rp.derivative())
        assert_same(p.monic(), rp.monic())
        P, c = p.primitive_int()
        rP, rc = rp.primitive_int()
        assert_same(P, rP)
        assert P.den == 1 and c == rc and type(c) is Fraction
        assert p.lc == rp.lc and type(p.lc) is Fraction
        assert (p == q) == (rp == rq) and p == Poly(rp.coeffs)
        if not q.is_zero:
            quo, rem = p.divmod(q)
            rquo, rrem = rp.divmod(rq)
            assert_same(quo, rquo)
            assert_same(rem, rrem)
            assert_same(p // q, rquo)
            assert_same(p % q, rrem)


def test_divmod_by_monic_integer_and_negative_leading_divisors():
    rng = random.Random(32)
    for _ in range(80):
        p = rand_rational_poly(rng, rng.randint(0, 8))
        d = rng.randint(1, 5)
        lead = rng.choice([1, -1, 2, -3, Fraction(-2, 5), Fraction(7, 3)])
        q = Poly([rng.randint(-9, 9) for _ in range(d)] + [lead])
        quo, rem = p.divmod(q)
        rquo, rrem = ref(p).divmod(ref(q))
        assert_same(quo, rquo)
        assert_same(rem, rrem)


def test_resultant_gcd_and_squarefree_match_fraction_reference():
    rng = random.Random(33)
    for p, q in operand_pairs(rng, 60):
        assert resultant(p, q) == sylvester_resultant(ref(p), ref(q))
        assert_same(poly_gcd(p, q), reference_poly_gcd(ref(p), ref(q)))
    for _ in range(40):
        a = rand_rational_poly(rng, rng.randint(0, 3))
        b = rand_rational_poly(rng, rng.randint(1, 2))
        c = rand_rational_poly(rng, rng.randint(1, 2))
        p = a * b**2 * c**rng.randint(1, 3)
        got_c, got = squarefree_decomposition(p)
        want_c, want = reference_squarefree_decomposition(ref(p))
        assert got_c == want_c and type(got_c) is Fraction
        assert [m for _, m in got] == [m for _, m in want]
        for (g, _), (rg, _) in zip(got, want):
            assert_same(g, rg)
