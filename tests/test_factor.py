"""Rational factorization against frozen factor lists and a mod-p oracle."""

import itertools
import random
from fractions import Fraction

from quadpencil import Poly, factor_poly, is_irreducible
from quadpencil.factor import _gf_ddf, _gf_split, _good_primes, gf_divmod, gf_from_int
from quadpencil.factor import gf_is_squarefree, gf_monic, gf_mul
from quadpencil.intutil import next_prime

# known irreducibles over Q, constant coefficient first
POOL = [
    [1, 1],  # x + 1
    [-3, 1],  # x - 3
    [2, 1],  # x + 2
    [1, 0, 1],  # x^2 + 1
    [-2, 0, 1],  # x^2 - 2
    [1, 1, 1],  # x^2 + x + 1
    [3, 1, 0, 1],  # x^3 + x + 3
    [-2, 0, 0, 1],  # x^3 - 2
    [1, 1, 0, 1],  # x^3 + x + 1
]


def as_poly(cs):
    return Poly(cs)


def key(p):
    return tuple(p[i] for i in range(p.degree + 1))


def test_pool_members_are_irreducible():
    for cs in POOL:
        assert is_irreducible(as_poly(cs)), cs


def test_factor_recovers_known_products():
    rng = random.Random(31)
    for _ in range(40):
        picks = rng.sample(range(len(POOL)), rng.randint(1, 3))
        mults = {i: rng.randint(1, 2) for i in picks}
        lc = Fraction(rng.choice([1, 1, 2, -3]))
        p = Poly([lc])
        for i, m in mults.items():
            p = p * as_poly(POOL[i]) ** m
        got = factor_poly(p)
        expect = sorted((key(as_poly(POOL[i])), m) for i, m in mults.items())
        assert sorted((key(g), m) for g, m in got) == expect
        rebuilt = Poly([lc])
        for g, m in got:
            rebuilt = rebuilt * g**m
        assert rebuilt == p


def test_factor_pinned():
    got = factor_poly(Poly([-1, 0, 0, 0, 1]))  # x^4 - 1
    assert [(key(g), m) for g, m in got] == [
        ((Fraction(-1), Fraction(1)), 1),
        ((Fraction(1), Fraction(1)), 1),
        ((Fraction(1), Fraction(0), Fraction(1)), 1),
    ]
    got = factor_poly(as_poly([1, 0, 1]) ** 2 * as_poly([-3, 1]))
    assert [(g.degree, m) for g, m in got] == [(1, 1), (2, 2)]


def test_irreducible_pinned():
    assert is_irreducible(Poly([1, 0, 0, 0, 1]))  # x^4 + 1
    assert is_irreducible(Poly([1, 0, -10, 0, 1]))  # x^4 - 10x^2 + 1
    assert is_irreducible(Poly([1] * 7))  # 1 + x + ... + x^6
    assert not is_irreducible(Poly([-1, 0, 0, 0, 1]))
    assert not is_irreducible(Poly([1, 2, 1]))


def gf_all_monic(deg, p):
    """All monic polynomials of exact degree deg over GF(p)."""
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def gf_irreducible_by_trial(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in gf_all_monic(d, p):
            _, r = gf_divmod(f, g, p)
            if not r:
                return False
    return True


def test_gf_factor_against_trial_division():
    rng = random.Random(32)
    for p in (3, 5, 7):
        for _ in range(12):
            deg = rng.randint(2, 5)
            f = gf_from_int([rng.randrange(p) for _ in range(deg)] + [1], p)
            if len(f) - 1 != deg or not gf_is_squarefree(f, p):
                continue
            factors = _gf_split(_gf_ddf(f, p), p, random.Random(0x5EED))
            prod = [1]
            for g in factors:
                assert g[-1] == 1
                assert gf_irreducible_by_trial(g, p)
                prod = gf_mul(prod, g, p)
            assert prod == f


def test_good_primes_walk():
    # 3 x^2 - 77 with den = 5 * 13: 3 divides lc, 5 and 13 the den, and
    # 7 and 11 the discriminant (x^2 mod 7 and mod 11)
    F, den = [-77, 0, 3], 5 * 13
    walked = list(itertools.islice(_good_primes(F, den), 8))
    assert [p for p, _, _ in walked] == [17, 19, 23, 29, 31, 37, 41, 43]
    for p, fp, ddf in walked:
        assert fp == gf_monic(gf_from_int(F, p), p) and fp[-1] == 1 and len(fp) == 3
        assert ddf == _gf_ddf(fp, p)
    for p in (3, 5, 7, 11, 13):
        assert (F[-1] * den) % p == 0 or not gf_is_squarefree(gf_monic(gf_from_int(F, p), p), p)
    # den = 1 keeps 5 and 13; the leading coefficient alone skips 3
    assert [p for p, _, _ in itertools.islice(_good_primes(F), 3)] == [5, 13, 17]


def int_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def int_divmod_monic(f, h):
    """Schoolbook division over Z by a monic h."""
    r = list(f)
    q = [0] * max(len(f) - len(h) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(h) - 1]
        for i, b in enumerate(h):
            r[k + i] -= q[k] * b
    return q, r[: len(h) - 1]


def mod(f, m):
    out = [c % m for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def test_gf_helpers_take_a_prime_power_modulus():
    """Hensel lifting runs gf_from_int, gf_mul and division by a monic
    divisor mod p^k; they agree there with integer schoolbook results."""
    rng = random.Random(33)
    for p, k in ((3, 4), (5, 3), (7, 2), (2, 6)):
        m = p**k
        for _ in range(40):
            f = [rng.randint(-10**4, 10**4) for _ in range(rng.randint(1, 8))]
            g = [rng.randint(-10**4, 10**4) for _ in range(rng.randint(1, 5))]
            h = g[:-1] + [1]
            assert gf_from_int(f, m) == mod(f, m)
            assert gf_mul(gf_from_int(f, m), gf_from_int(g, m), m) == mod(int_mul(f, g), m)
            q, r = int_divmod_monic(f, h)
            assert gf_divmod(gf_from_int(f, m), gf_from_int(h, m), m) == (mod(q, m), mod(r, m))


def test_factor_content_handling():
    # non-monic, non-primitive input
    p = Poly([Fraction(6), Fraction(0), Fraction(-6)])  # -6(x-1)(x+1)
    got = factor_poly(p)
    assert [(key(g), m) for g, m in got] == [
        ((Fraction(-1), Fraction(1)), 1),
        ((Fraction(1), Fraction(1)), 1),
    ]


def primorial_lc():
    """2 times the first 40 odd primes: every prime the Zassenhaus walk used
    to try divides it."""
    P, p = 2, 2
    for _ in range(40):
        p = next_prime(p)
        P *= p
    return P


def test_factor_walks_past_forty_bad_primes():
    P = primorial_lc()
    assert P % 179 == 0 and P % 181
    # P x^2 + 1: no root, so irreducible; the first good prime is 181
    assert factor_poly(Poly([1, 0, P])) == [(Poly([Fraction(1, P), 0, 1]), 1)]
    # and a split one: (P x - 1)(x + 1)
    assert factor_poly(Poly([-1, P - 1, P])) == [
        (Poly([Fraction(-1, P), 1]), 1), (Poly([1, 1]), 1)]
