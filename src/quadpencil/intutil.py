"""Integer helpers: primality, factorization, square and squarefree parts,
and the height shells that the witness searches walk.

Everything here is exact; inputs are Python ints (arbitrary precision) and
Fractions where noted.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt
import random

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed bases 2..41 (the first 13 primes).

    Proven correct for n < 3,317,044,064,679,887,385,961,981 (about 3.3e24),
    the least strong pseudoprime to all 13 bases (Sorenson and Webster,
    Math. Comp. 86, 2017); the first 12 bases alone pass the composite
    318,665,857,834,031,151,167,461.
    Above that bound the same fixed test runs: it is neither a proof nor a
    randomized test, so a True there is unproven.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


def _pollard_rho(n: int, rng: random.Random) -> int:
    # Brent's cycle variant; n composite, odd, not a prime power of interest
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorint(n: int) -> dict:
    """Prime factorization of |n| as {prime: exponent}; ignores the sign.

    factorint(0) raises, factorint(+-1) is {}.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division a bit further before falling back to rho
    p = 43
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n == 1:
        return out
    rng = random.Random(0xC0FFEE ^ n)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d = _pollard_rho(m, rng)
        stack.extend([d, m // d])
    return out


def squarefree_part(a) -> int:
    """Squarefree integer s with a = s * (square); sign of s = sign of a.

    Accepts ints and Fractions (a and a*den^2 share a square class).
    """
    if isinstance(a, Fraction):
        if a == 0:
            return 0
        a = a.numerator * a.denominator
    if a == 0:
        return 0
    s = -1 if a < 0 else 1
    for p, e in factorint(a).items():
        if e % 2:
            s *= p
    return s


def is_square_rational(a) -> bool:
    """True when a (int or Fraction) is the square of a rational."""
    a = Fraction(a)
    if a < 0:
        return False
    nr = isqrt(a.numerator)
    dr = isqrt(a.denominator)
    return nr * nr == a.numerator and dr * dr == a.denominator


def rational_sqrt(a) -> Fraction:
    """Positive square root of a rational square; raises if not a square."""
    a = Fraction(a)
    if not is_square_rational(a):
        raise ValueError("%s is not a rational square" % a)
    return Fraction(isqrt(a.numerator), isqrt(a.denominator))


def divisors(n: int) -> list:
    """Sorted positive divisors of |n|, n != 0."""
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def shell_prefixes(m: int, h: int):
    """(p, on_shell) for every p in [-h, h]^m in lexicographic order, h >= 1.

    on_shell is max |p_i| = h. The vector p + (c,) with |c| <= h lies on the
    height-h shell of Z^(m+1) exactly when on_shell or |c| = h, and taking c
    in increasing order under each p walks that shell in lexicographic order.
    """
    for p in product(range(-h, h + 1), repeat=m):
        yield p, h in p or -h in p
