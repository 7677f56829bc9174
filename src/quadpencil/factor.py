"""Factorization of rational polynomials into monic irreducibles.

Pipeline: Yun squarefree decomposition, then for each squarefree part taken
primitive over Z: reduce mod a good odd prime (the first three of the walk
`_good_primes`, which etale's square roots share; fewest modular factors
wins, counted from the distinct-degree split), equal-degree splitting
at the chosen prime only, quadratic Hensel lifting past the Landau-Mignotte
bound, and subset recombination. Degrees at desk scale (<= 12) keep the subset
stage cheap.
"""

from itertools import combinations, islice
from math import isqrt
import random

from .errors import DomainError
from .intutil import next_prime
from .polys import Poly, squarefree_decomposition

# Polynomials mod m: int lists in [0, m), low degree first, no top zeros.
# gf_from_int, gf_add, gf_sub, gf_mul and gf_derivative work for any m >= 2,
# and so does gf_divmod by a monic divisor; the rest need m = p prime.


def _gf_strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def gf_from_int(cs, p):
    return _gf_strip([c % p for c in cs])


def gf_add(f, g, p):
    n = max(len(f), len(g))
    return _gf_strip([
        ((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
        for i in range(n)
    ])


def gf_sub(f, g, p):
    n = max(len(f), len(g))
    return _gf_strip([
        ((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
        for i in range(n)
    ])


def gf_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _gf_strip(out)


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, p)
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * inv % p
        if c:
            q[k] = c
            for i, b in enumerate(g):
                r[k + i] = (r[k + i] - c * b) % p
    return _gf_strip(q), _gf_strip(r[:dg])


def gf_monic(f, p):
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gf_gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    return gf_monic(a, p)


def gf_gcdex(f, g, p):
    """(s, t, h): s*f + t*g = h with h the monic gcd, deg s < deg g - deg h."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    scale = lambda h: [c * inv % p for c in h]
    return scale(s0), scale(t0), scale(r0)


def gf_pow_mod(f, e, g, p):
    out = [1]
    base = gf_divmod(f, g, p)[1]
    while e:
        if e & 1:
            out = gf_divmod(gf_mul(out, base, p), g, p)[1]
        base = gf_divmod(gf_mul(base, base, p), g, p)[1]
        e >>= 1
    return out


def gf_derivative(f, p):
    return _gf_strip([i * c % p for i, c in enumerate(f)][1:])


def gf_is_squarefree(f, p):
    return len(gf_gcd(f, gf_derivative(f, p), p)) == 1


def _gf_ddf(f, p):
    """Distinct-degree split of a monic squarefree f: [(product, degree)]."""
    out = []
    h = [0, 1]
    cur = list(f)
    d = 0
    while len(cur) - 1 > 0:
        d += 1
        if 2 * d > len(cur) - 1:
            out.append((cur, len(cur) - 1))
            break
        h = gf_pow_mod(h, p, cur, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), cur, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            cur = gf_divmod(cur, g, p)[0]
            h = gf_divmod(h, cur, p)[1]
    return out


def _gf_edf(f, d, p, rng):
    """Equal-degree split: f monic squarefree, all factors of degree d; p odd."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        r = _gf_strip(r)
        g = gf_gcd(r, f, p)
        if 0 < len(g) - 1 < n:
            break
        s = gf_pow_mod(r, (p**d - 1) // 2, f, p)
        g = gf_gcd(gf_sub(s, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            break
    other = gf_divmod(f, g, p)[0]
    return _gf_edf(gf_monic(g, p), d, p, rng) + _gf_edf(gf_monic(other, p), d, p, rng)


def _gf_split(ddf, p, rng):
    """The irreducible factors of a distinct-degree split, sorted."""
    out = [h for part, d in ddf for h in _gf_edf(part, d, p, rng)]
    out.sort(key=lambda h: (len(h), h[::-1]))
    return out


def _good_primes(F, den=1):
    """(p, F mod p made monic, its distinct-degree split) for the odd primes p,
    increasing, where p does not divide lc(F) den and the integer list F stays
    squarefree mod p; finitely many are skipped when F is squarefree."""
    bad, p = F[-1] * den, 2
    while True:
        p = next_prime(p)
        if bad % p:
            fp = gf_monic(gf_from_int(F, p), p)
            if gf_is_squarefree(fp, p):
                yield p, fp, _gf_ddf(fp, p)


# Hensel lifting, mod p^k with the helpers above that take any modulus.


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2."""
    M = m * m
    e = gf_sub(gf_from_int(f, M), gf_mul(g, h, M), M)
    q, r = gf_divmod(gf_mul(s, e, M), h, M)
    g1 = gf_add(g, gf_add(gf_mul(t, e, M), gf_mul(q, g, M), M), M)
    h1 = gf_add(h, r, M)
    b = gf_sub(gf_add(gf_mul(s, g1, M), gf_mul(t, h1, M), M), [1], M)
    c, d = gf_divmod(gf_mul(s, b, M), h1, M)
    s1 = gf_sub(s, d, M)
    t1 = gf_sub(t, gf_add(gf_mul(t, b, M), gf_mul(c, g1, M), M), M)
    return g1, h1, s1, t1


def _hensel_lift(p, f, factors, l):
    """Lift f = lc(f) * prod(factors) (mod p) to monic factors mod p^l."""
    r = len(factors)
    lc = f[-1]
    if r == 1:
        inv = pow(lc % p**l, -1, p**l)
        return [gf_from_int([c * inv for c in f], p**l)]
    k = r // 2
    d = 1
    while 2**d < l:
        d += 1
    g = [lc % p]
    for fi in factors[:k]:
        g = gf_mul(g, fi, p)
    h = factors[k]
    for fi in factors[k + 1 :]:
        h = gf_mul(h, fi, p)
    s, t, unit = gf_gcdex(g, h, p)
    assert unit == [1]
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


def _symmetric(f, m):
    half = m // 2
    return [c - m if c > half else c for c in f]


def _primitive(f):
    from math import gcd
    g = 0
    for c in f:
        g = gcd(g, c)
    if g == 0:
        return list(f)
    return [c // g for c in f]


def _zassenhaus(F, rng):
    """Irreducible factors over Z of a primitive squarefree integer poly F.

    Returns primitive integer coefficient lists with positive leading
    coefficient (except possibly the last leftover, sign-normalized too).
    """
    n = len(F) - 1
    if n == 1:
        return [_primitive(F) if F[-1] > 0 else [-c for c in F]]
    lc = F[-1]
    A = max(abs(c) for c in F)
    bound = (isqrt(n + 1) + 1) * 2**n * A * abs(lc)

    candidates = []
    for p, _, ddf in islice(_good_primes(F), 3):
        # the number of modular factors, from the distinct-degree split alone
        candidates.append((sum((len(part) - 1) // d for part, d in ddf), p, ddf))
        if candidates[-1][0] == 1:
            return [F if lc > 0 else [-c for c in F]]
    _, p, ddf = min(candidates, key=lambda t: t[:2])
    modular = _gf_split(ddf, p, rng)

    l = 1
    while p**l < 2 * bound + 1:
        l += 1
    lifted = _hensel_lift(p, F, modular, l)
    P = p**l

    result = []
    alive = list(range(len(lifted)))
    f_cur = list(F)
    s = 1
    while 2 * s <= len(alive):
        found = False
        for S in combinations(alive, s):
            G = [f_cur[-1] % P]
            for i in S:
                G = gf_mul(G, lifted[i], P)
            G = _primitive(_symmetric(G, P))
            if G[-1] < 0:
                G = [-c for c in G]
            q, r = Poly(f_cur).divmod(Poly(G))
            if r.is_zero and q.den == 1:
                result.append(G)
                f_cur = list(q.num)
                alive = [i for i in alive if i not in S]
                found = True
                break
        if not found:
            s += 1
    if len(f_cur) - 1 > 0:
        f_cur = _primitive(f_cur)
        if f_cur[-1] < 0:
            f_cur = [-c for c in f_cur]
        result.append(f_cur)
    return result


def factor_poly(p: Poly):
    """Factor p over Q: sorted list of (monic irreducible Poly, multiplicity).

    The product of the factors with multiplicity equals p up to the rational
    constant p / prod; ordering is (degree, coefficient tuple).
    """
    if p.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    rng = random.Random(0x5EED)
    out = []
    _, sqf = squarefree_decomposition(p)
    for q, mult in sqf:
        P, _ = q.primitive_int()
        for fac in _zassenhaus(list(P.num), rng):
            out.append((Poly(fac).monic(), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    facs = factor_poly(p)
    return len(facs) == 1 and facs[0][1] == 1
