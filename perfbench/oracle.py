"""Exact arithmetic for the oracles, written apart from the library.

Nothing here imports quadpencil: inputs are generated and results are checked
with this code, so a defect in a library kernel cannot also hide in its check.
Polynomials are coefficient lists, constant term first.
"""

from fractions import Fraction
from itertools import product
from math import isqrt


def det(M):
    """Determinant by Gaussian elimination over Fractions."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            d = -d
        piv = A[c][c]
        d *= piv
        for r in range(c + 1, n):
            if A[r][c]:
                k = A[r][c] / piv
                A[r] = [a - k * b for a, b in zip(A[r], A[c])]
    return d


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def congruence(U, A):
    return mat_mul(transpose(U), mat_mul(A, U))


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def unimodular(rng, n, steps):
    """Product of `steps` elementary column operations: an integer matrix of det 1."""
    U = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):
            U[r][j] += c * U[r][i]
    return U


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def poly_rem(p, g):
    r = [Fraction(x) for x in trim(p)]
    g = trim(g)
    while r and len(r) >= len(g):
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        for i, b in enumerate(g):
            r[shift + i] -= c * b
        r = trim(r)
    return r


def poly_gcd_degree(p, q):
    a, b = trim(p), trim(q)
    while b:
        a, b = b, poly_rem(a, b)
    return len(a) - 1


def derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def is_squarefree(g):
    return poly_gcd_degree(g, derivative(g)) == 0


def mul_mod(a, b, g):
    """a * b in Q[x]/(g), as a length-n coordinate list."""
    n = len(g) - 1
    r = poly_rem(poly_mul(a, b), g)
    return [Fraction(x) for x in r] + [Fraction(0)] * (n - len(r))


def norm(a, g):
    """N(a) in Q[x]/(g): determinant of multiplication by a."""
    n = len(g) - 1
    cols = []
    col = [Fraction(x) for x in a] + [Fraction(0)] * (n - len(a))
    x = [Fraction(0), Fraction(1)]
    for _ in range(n):
        cols.append(col)
        col = mul_mod(col, x, g)
    return det(transpose(cols))


def form_values_match(coeffs, A, B):
    """f(x, 1) = (-1)^(n(n-1)/2) det(xA - B) at n + 1 points, f given f0..fn."""
    n = len(A)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    for x in range(n + 1):
        fx = sum(Fraction(c) * x ** (n - i) for i, c in enumerate(coeffs))
        M = [[x * A[i][j] - B[i][j] for j in range(n)] for i in range(n)]
        if sign * det(M) != fx:
            return False
    return True


def sylvester_resultant(p, q):
    """Res(p, q) as the determinant of the Sylvester matrix."""
    p, q = trim(p), trim(q)
    m, k = len(p) - 1, len(q) - 1
    size = m + k
    rows = []
    for i in range(k):
        rows.append([Fraction(0)] * i + list(reversed(p)) + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + list(reversed(q)) + [Fraction(0)] * (size - k - 1 - i))
    return det(rows)


def form_disc(coeffs):
    """disc of the binary form f0..fn: (-1)^(n(n-1)/2) Res(p, p') / f0, p = f(x, 1)."""
    n = len(coeffs) - 1
    p = [Fraction(c) for c in reversed(coeffs)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(p, derivative(p)) / p[-1]


def is_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    a, b = q.numerator, q.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def prime_factors(n):
    """Primes dividing the nonzero integer n, by trial division (small n only)."""
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def hankel_regular(T):
    """det[(T^(i+j))_(n,n)] != 0, the regularity condition of the adjoint action."""
    n = len(T)
    P = identity(n)
    moments = []
    for _ in range(2 * n - 1):
        moments.append(P[n - 1][n - 1])
        P = mat_mul(P, T)
    return det([[moments[i + j] for j in range(n)] for i in range(n)]) != 0


def _primes(limit):
    return [p for p in range(2, limit) if all(p % q for q in range(2, isqrt(p) + 1))]


CERT_PRIMES = _primes(300)


def _divmod_p(a, b, p):
    """(quotient, remainder) of a by b over F_p; b's leading coefficient is a unit."""
    r = trim([x % p for x in a])
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            r[shift + i] = (r[shift + i] - c * y) % p
        r = trim(r)
    return q, r


def _rem_p(a, b, p):
    return _divmod_p(a, b, p)[1]


def _mulmod_p(a, b, h, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _rem_p(out, h, p)


def _gcd_p(a, b, p):
    a, b = trim([x % p for x in a]), trim([x % p for x in b])
    while b:
        a, b = b, _rem_p(a, b, p)
    return a


def _sub_p(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return trim([(x - y) % p for x, y in zip(a, b)])


def degree_pattern_mod_p(h, p):
    """Degrees of the irreducible factors of the integer polynomial h over F_p.

    Distinct-degree factorization; None when p divides the leading coefficient
    or h mod p is not squarefree, since then the pattern says nothing.
    """
    if h[-1] % p == 0:
        return None
    h = [x % p for x in h]
    if len(_gcd_p(h, [k * c for k, c in enumerate(h)][1:], p)) != 1:
        return None
    degs, d, xp = [], 0, [0, 1]
    while len(h) > 1:
        d += 1
        if 2 * d > len(h) - 1:
            degs.append(len(h) - 1)
            break
        xp = _frobenius_p(xp, h, p)
        common = _gcd_p(h, _sub_p(xp, [0, 1], p), p)
        k = len(common) - 1
        if k:
            degs += [d] * (k // d)
            h = _divmod_p(h, common, p)[0]
            xp = _rem_p(xp, h, p)
    return degs


def _frobenius_p(a, h, p):
    """a^p mod h over F_p."""
    out, base, e = [1], a, p
    while e:
        if e & 1:
            out = _mulmod_p(out, base, h, p)
        base = _mulmod_p(base, base, h, p)
        e >>= 1
    return out


def open_factor_degrees(h):
    """Degrees 0 < d < deg h that a factor of h over Q could still have.

    h is a squarefree integer polynomial.  A factor over Q reduces mod p to a
    product of some of h's irreducible factors there, so its degree is a
    subset sum of every good prime's degree pattern.  An empty result
    certifies h irreducible over Q.
    """
    n = len(h) - 1
    possible = set(range(1, n))
    for p in CERT_PRIMES:
        if not possible:
            break
        degs = degree_pattern_mod_p(h, p)
        if degs is None:
            continue
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        possible &= sums
    return possible


def _eval(h, x):
    return sum(c * x ** k for k, c in enumerate(h))


def _divisors(v):
    v = abs(v)
    ds = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
    ds += [v // d for d in ds if d * d != v]
    return ds + [-d for d in ds]


def has_factor_of_degree(h, e):
    """Whether the monic integer polynomial h has a monic integer factor of degree e.

    Kronecker's method: such a factor q takes at each integer point x a value
    dividing h(x), and a monic q of degree e is fixed by its values at e points.
    """
    pts = sorted((x for x in range(-8, 9) if _eval(h, x)),
                 key=lambda x: len(_divisors(_eval(h, x))))[:e]
    base = [Fraction(1)]
    for x in pts:
        base = poly_mul(base, [-x, 1])
    lagrange = []  # the degree < e polynomial that is 1 at pts[k] and 0 at the others
    for k, xk in enumerate(pts):
        b = [Fraction(1)]
        for j, xj in enumerate(pts):
            if j != k:
                b = poly_mul(b, [Fraction(-xj, xk - xj), Fraction(1, xk - xj)])
        lagrange.append(b + [Fraction(0)] * (e - len(b)))
    for vals in product(*(_divisors(_eval(h, x)) for x in pts)):
        q = list(base)
        for v, b in zip(vals, lagrange):
            for i, c in enumerate(b):
                q[i] += v * c
        if all(c.denominator == 1 for c in q) and not poly_rem(h, q):
            return True
    return False


def is_irreducible(h):
    """Whether the monic squarefree integer polynomial h is irreducible over Q."""
    return not any(has_factor_of_degree(h, e) for e in open_factor_degrees(h)
                   if 2 * e <= len(h) - 1)


def rat(x):
    """Canonical string of a rational, as the CLI prints it."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def rats(xs):
    return [rat(x) for x in xs]


def rat_mat(M):
    return [rats(row) for row in M]


def inverse(M):
    """Inverse by Gauss-Jordan elimination over Fractions; M must be invertible."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        piv = A[c][c]
        A[c] = [x / piv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                k = A[r][c]
                A[r] = [a - k * b for a, b in zip(A[r], A[c])]
    return [row[n:] for row in A]
