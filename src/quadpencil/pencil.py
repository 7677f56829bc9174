"""Pencils of symmetric bilinear forms over Q and their orbit invariants.

A pencil is a pair (A, B) of symmetric n x n rational matrices with invariant
binary form f(x,y) = (-1)^(n(n-1)/2) det(xA - yB). Stable pencils (f0 != 0,
disc f != 0) correspond to pairs (alpha, t) with alpha a unit in
L = Q[x]/(g), f(x,1) = f0 g(x), and t^2 = f0 N(alpha); two pairs give the
same orbit exactly when (alpha, t) = (c^2 alpha', N(c) t') for a unit c.
A pair is held as integer rows over one denominator, on which the invariant
form, T = A^(-1) B and the congruence action are computed. When det A != 0
one elimination gives T and d = det A, and the invariant form is read off the
same elimination, by the identity det(sA - B) = det(A) det(sI - T) and the
characteristic polynomial of T; the pair memoizes this, so its invariant
form, orbit parameter and stabilizer share it.
"""

from fractions import Fraction
from itertools import combinations, product
import random
from math import gcd, lcm
from operator import mul

from .binforms import BinaryForm
from .errors import DomainError
from .etale import EtaleAlgebra, euler_trace_solve, sqrt_in_algebra
from .intutil import (
    divisors,
    factorint,
    is_square_rational,
    rational_sqrt,
    shell_prefixes,
)
from .linalg import _bareiss, _clear, _congruence, _fractions, _int_mul, charpoly, det, is_symmetric
from .polys import discriminant, real_root_count


class SymPair:
    """A pair of symmetric n x n rational matrices, held as integer rows
    `ints` = (D A, D B) over `den` = D, the lcm of the entries' denominators;
    `A` and `B` read them as Fraction matrices; `_T` memoizes the one
    elimination (_eliminate) that T and, when det A != 0, f are read off."""

    __slots__ = ("den", "ints", "_T")

    def __init__(self, A, B):
        (da, A), (db, B) = _clear(A), _clear(B)
        D = self.den = lcm(da, db)
        self.ints = tuple([[x * (D // d) for x in r] for r in M] for d, M in ((da, A), (db, B)))
        self._T = None
        if len(A) != len(B) or not all(map(is_symmetric, self.ints)):
            raise DomainError("need two symmetric matrices of equal size")

    A = property(lambda self: _fractions(self.den, self.ints[0]))
    B = property(lambda self: _fractions(self.den, self.ints[1]))
    n = property(lambda self: len(self.ints[0]))

    def transformed(self, M):
        """(M^T A M, M^T B M), the congruence action, on the integer rows."""
        out = object.__new__(SymPair)
        out.den, out.ints = _congruence(M, self.den, *self.ints)
        out._T = None
        return out

    def __eq__(self, other):
        if isinstance(other, SymPair):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented


class OrbitParam:
    """(alpha, t) with alpha a unit of an etale algebra and t a nonzero rational."""

    __slots__ = ("algebra", "alpha", "t", "f0")

    def __init__(self, algebra, alpha, t):
        t = Fraction(t)
        if t == 0:
            raise DomainError("t must be nonzero")
        norm = alpha.norm()
        if norm == 0:
            raise DomainError("alpha must be invertible")
        self.algebra = algebra
        self.alpha = alpha
        self.t = t
        self.f0 = t**2 / norm  # the leading coefficient forced by t^2 = f0 N(alpha)

    def __eq__(self, other):
        if isinstance(other, OrbitParam):
            return (
                self.algebra == other.algebra
                and self.alpha == other.alpha
                and self.t == other.t
            )
        return NotImplemented

    def __repr__(self):
        return "OrbitParam(alpha=%r, t=%s)" % (self.alpha, self.t)


class StabilizerGroup:
    """Finite 2-group of rational self-congruences of a stable pencil."""

    __slots__ = ("generators", "order", "geometric_order", "elements")

    def __init__(self, generators, order, geometric_order, elements):
        self.generators = generators
        self.order = order
        self.geometric_order = geometric_order
        self.elements = elements


def _form(D, A, B) -> BinaryForm:
    """f from the cleared A' = DA and B' = DB: det(sA' - B') = D^n det(sA - B)
    has integer coefficients, so its Newton form at s = 0..n does too (the
    k-th forward difference of an integer polynomial is divisible by k!)."""
    n = len(A)
    c = [det([[s * a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]).numerator
         for s in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // k
    q = []  # Horner: q <- q (s - i) + c_i, coefficients low first
    for i in range(n, -1, -1):
        q = [a - i * b for a, b in zip([c[i], *q], [*q, 0])]
    Dn, sign = D**n, _sign(n)
    return BinaryForm([Fraction(sign * q[n - i], Dn) for i in range(n + 1)])


def _sign(n):
    """(-1)^(n(n-1)/2), the sign in f(x,y) = (-1)^(n(n-1)/2) det(xA - yB)."""
    return -1 if (n * (n - 1) // 2) % 2 else 1


def invariant_binary_form(pair: SymPair) -> BinaryForm:
    """f(x,y) = (-1)^(n(n-1)/2) det(xA - yB), coefficients f0..fn: read off
    the pair's one elimination when det A != 0, else n + 1 determinants."""
    memo = _eliminate(pair)
    return memo[0] if memo else _form(pair.den, *pair.ints)


def _eliminate(pair: SymPair):
    """(f, D, A', B', d, S, g) when det A != 0 and False when det A = 0,
    memoized on the pair: (D, (A', B')) its integer rows, d = det A', S = d T
    for T = A^(-1) B, and g = f.monic_part() once _stable_T has checked f
    (None before).

    One Jordan elimination of [A' | B'] leaves d I on the left and S on the
    right. Since det(sA' - B') = d det(sI - T) and charpoly(S)(x) =
    d^n det(x/d - T), f_i = sign chi_(n-i) d / (D^n d^i) for chi =
    charpoly(S) (Bareiss, Math. Comp. 22, 1968; Faddeev-LeVerrier). Fewer
    than n pivots means det A = 0.
    """
    if pair._T is None:
        n = pair.n
        D, (A, B) = pair.den, pair.ints
        M = [ra + rb for ra, rb in zip(A, B)]
        pivots, d = _bareiss(M, n, True)
        if len(pivots) < n:
            pair._T = False
            return False
        S = [row[n:] for row in M]
        chi, Dn, sign = charpoly(S).num, D**n, _sign(n)
        f = BinaryForm([Fraction(sign * chi[n - i] * d, Dn * d**i) for i in range(n + 1)])
        pair._T = f, D, A, B, d, S, None
    return pair._T


def _stable_T(pair: SymPair):
    """The memo of _eliminate for a stable pencil, its g filled in by the
    pair's one stability check; det A = 0 means f0 = 0."""
    memo = _eliminate(pair)
    if not memo:
        raise DomainError("pencil is not stable: f0 = 0")
    if memo[-1] is None:
        _require_stable(memo[0])
        pair._T = memo = (*memo[:-1], memo[0].monic_part())
    return memo


def _require_stable(f: BinaryForm):
    if f.f0 == 0:
        raise DomainError("pencil is not stable: f0 = 0")
    if f.disc() == 0:
        raise DomainError("pencil is not stable: disc(f) = 0")


def _cyclic_vector(S, seed=0):
    """Independent integer vectors m, S m, ..., S^(n-1) m and their determinant,
    for S = d T: the unit vectors first, then rounds of 8 random ones. Their
    determinant is d^(n(n-1)/2) times T's, so the same m is chosen as for T."""
    n = len(S)
    rng = random.Random(seed)
    tries = [[int(i == k) for i in range(n)] for k in range(n)]
    while True:
        for m in tries:
            krylov = [m]
            for _ in range(n - 1):
                krylov.append([sum(map(mul, row, krylov[-1])) for row in S])
            d = det(krylov).numerator
            if d != 0:
                return krylov, d
        tries = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(8)]


def pencil_to_param(pair: SymPair, seed=0) -> OrbitParam:
    """Orbit parameter (alpha, t) of a stable pencil.

    T = A^(-1) B is self-adjoint for A with characteristic polynomial g; for a
    cyclic vector m the moments a_i = <m, T^i m>_A determine kappa through
    Tr(kappa beta^i / g'(beta)) = a_i, and alpha = kappa^(-1) (which keeps
    kappa as its inverse, so dividing by alpha takes no elimination),
    t = 1/det[m | Tm | ... | T^(n-1) m]. On the cleared A' = DA, B' = DB and
    d T = d A'^(-1) B': a_i = m^T A' (dT)^i m / (D d^i), and the determinant
    of the integer Krylov vectors is d^(n(n-1)/2) / t.
    """
    f, D, A, B, d, S, g = _stable_T(pair)
    L = EtaleAlgebra(g)
    n = pair.n
    # f at the point (1, 1), apart from charpoly(S): sign det(A' - B') = D^n f(1, 1)
    assert _sign(n) * det([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]) \
        == D**n * sum(f.coeffs)
    krylov, dK = _cyclic_vector(S, seed)
    Am = [sum(map(mul, row, krylov[0])) for row in A]
    moments = [Fraction(sum(map(mul, Am, v)), D * d**k) for k, v in enumerate(krylov)]
    t = Fraction(d ** (n * (n - 1) // 2), dK)
    p = OrbitParam(L, euler_trace_solve(L, moments).inverse(), t)
    assert p.f0 == f.f0
    return p


def param_to_pencil(f: BinaryForm, p: OrbitParam) -> SymPair:
    """Symmetric pair with invariant form f from the parameter (alpha, t).

    Gram matrices of (mu, lambda) -> Tr(mu lambda / (alpha g'(beta))) and its
    beta-twist in the power basis, rescaled so the invariant form is exactly f.
    Both are Hankel: A_ij = h_(i+j) and B_ij = h_(i+j+1) with
    h_k = Tr(beta^k / (alpha g'(beta))), so 2n traces fill them.
    """
    _require_stable(f)
    g = f.monic_part()
    L = p.algebra
    if L.g != g:
        raise DomainError("parameter algebra does not match the form")
    if p.f0 != f.f0:
        raise DomainError("t^2 = f0 N(alpha) violated")
    n = f.n
    w = (p.alpha * L.from_poly(g.derivative())).inverse()
    h = [w.trace(k) for k in range(2 * n)]
    # U^T H U for U = diag(t, 1, ..., 1): row and column 0 scaled by t
    u = [p.t] + [1] * (n - 1)
    pair = SymPair([[h[i + j] * u[i] * u[j] for j in range(n)] for i in range(n)],
                   [[h[i + j + 1] * u[i] * u[j] for j in range(n)] for i in range(n)])
    assert invariant_binary_form(pair) == f
    return pair


def g_equivalent(p1: OrbitParam, p2: OrbitParam):
    """Witness c with c^2 alpha2 = alpha1 and N(c) t2 = t1, or None.

    Every root of alpha1/alpha2 is c * sum(s_i E_i) for the canonical root c
    and signs s_i, with norm N(c) * prod s_i^(deg g_i); equal f0 gives
    N(c) t2 = +-t1. For -t1 this returns c * (1 - 2 E_i), i the last factor of
    odd degree: the first root with the right norm when the roots are listed
    as in all_square_roots. With no odd-degree factor there is none.
    """
    if p1.algebra != p2.algebra:
        raise DomainError("parameters live in different algebras")
    if p1.f0 != p2.f0:
        return None
    L = p1.algebra
    c = sqrt_in_algebra(L, p1.alpha / p2.alpha)
    if c is None:
        return None
    assert c * c * p2.alpha == p1.alpha
    if c.norm() * p2.t == p1.t:
        return c
    odd = [i for i, gi in enumerate(L.factors) if gi.degree % 2]
    if not odd:
        return None
    root = c * (1 - 2 * L.idempotents()[odd[-1]])
    assert root.norm() * p2.t == p1.t
    return root


def _support_primes(f0: Fraction, disc_g: Fraction, extra):
    val = f0 * disc_g
    ps = set(extra)
    for part in (val.numerator, val.denominator):
        ps.update(factorint(part))
    return sorted(ps)


def h_equivalent(p1: OrbitParam, p2: OrbitParam, extra_primes=()):
    """Witness (c, d) with c^2 d alpha2 = alpha1, N(c) d^(n/2) t2 = t1, or None.

    Only defined for even n. d runs over squarefree integers supported on
    extra_primes, -1, and the primes of f0 * disc(f); complete relative to
    that support.
    """
    if p1.algebra != p2.algebra:
        raise DomainError("parameters live in different algebras")
    n = p1.algebra.n
    if n % 2:
        raise DomainError("skew route undefined for odd n")
    disc_g = discriminant(p1.algebra.g)
    support = _support_primes(p1.f0, p1.f0 ** (2 * n - 2) * disc_g, extra_primes)
    cands = []
    for size in range(len(support) + 1):
        for sub in combinations(support, size):
            d0 = 1
            for q in sub:
                d0 *= q
            cands.extend([d0, -d0])
    for d in cands:
        scaled = OrbitParam(p2.algebra, d * p2.alpha, Fraction(d) ** (n // 2) * p2.t)
        c = g_equivalent(p1, scaled)
        if c is not None:
            return c, d
    return None


def stabilizer_rational(pair: SymPair) -> StabilizerGroup:
    """Rational self-congruences of a stable pencil.

    These are the sign combinations sum(s_i E_i(T)) over the idempotents of
    the factors g_i with prod s_i^(deg g_i) = 1; the order is 2^(r-1) when
    some factor has odd degree and 2^r otherwise. Over the separable closure
    every factor splits linearly, giving order 2^(n-1).

    Each E_i(T) comes from Horner's rule on the integer matrix d T, all over
    one denominator C; each element M / C is checked to fix the pair (one
    integer congruence), to square to I and to have determinant 1.
    """
    *_, d, S, g = _stable_T(pair)
    n = pair.n
    L = EtaleAlgebra(g)
    degs = [gi.degree for gi in L.factors]
    r = len(degs)

    # E_i = P(beta), P = num / den of degree m: E_i(T) = H / (den d^m) for the
    # Horner sum H <- H (d T) + num_k d^(m-k) I, reduced by its entries' gcd
    E_ints, dens = [], []
    for e in L.idempotents():
        P = e.poly()
        m = P.degree
        H = [[0] * n for _ in range(n)]
        for k in range(m, -1, -1):
            H = _int_mul(H, S) if k < m else H
            for i in range(n):
                H[i][i] += P.num[k] * d ** (m - k)
        c = P.den * d**m
        q = gcd(c, *(x for row in H for x in row))
        E_ints.append([[x // q for x in row] for row in H])
        dens.append(c // q)
    C = lcm(*dens)
    E_ints = [[[x * (C // c) for x in row] for row in H] for H, c in zip(E_ints, dens)]

    def combination(signs):
        return [[sum(s * E[i][j] for s, E in zip(signs, E_ints)) for j in range(n)]
                for i in range(n)]

    C2 = C * C
    elements = []
    for signs in product([1, -1], repeat=r):
        parity = 1
        for s, dg in zip(signs, degs):
            parity *= s**dg
        if parity != 1:
            continue
        M = combination(signs)
        elements.append(_fractions(C, M))
        assert _congruence(M, pair.den * C2, *pair.ints) == (pair.den, pair.ints)
        assert _int_mul(M, M) == [[C2 * (i == j) for j in range(n)] for i in range(n)]
        assert det(M) == C**n

    # generating sign flips: kernel basis of s -> sum deg_i s_i over F_2
    odd = [i for i, dg in enumerate(degs) if dg % 2]
    gens = []
    for i in range(r):
        if odd and i == odd[0]:
            continue
        bits = [0] * r
        bits[i] = 1
        if odd and degs[i] % 2:
            bits[odd[0]] = 1
        M = combination([(-1) ** b for b in bits])
        gens.append(_fractions(C, M))

    order = 2 ** (r - 1) if odd else 2**r
    assert len(elements) == order
    return StabilizerGroup(gens, order, 2 ** (n - 1), elements)


def real_orbit_obstruction(f: BinaryForm) -> bool:
    """True when no real orbit exists: g has no real root and f0 < 0."""
    _require_stable(f)
    r1 = real_root_count(f.monic_part())
    return r1 == 0 and f.f0 < 0


def orbit_witness_search(f: BinaryForm, bound: int):
    """Bounded search for (alpha, t) with t^2 = f0 N(alpha); None if not found.

    The certificate comes first: under the real obstruction g has no real
    root, so N(alpha) > 0 for every unit alpha, f0 N(alpha) < 0 is never a
    square, and the answer is None without a search. Otherwise this is a
    semi-decision: v runs over the integer coordinate vectors of height
    h = 1, 2, ..., bound, each height-h shell in lexicographic order, and
    alpha = v / d over the positive divisors d of the numerator of f0 in
    increasing order. Each v takes one norm, since N(v / d) = N(v) / d^n.
    """
    return _orbit_search(f, bound)[1]


def _orbit_search(f: BinaryForm, bound: int):
    """(real_orbit_obstruction(f), orbit_witness_search(f, bound)) in one pass."""
    if real_orbit_obstruction(f):
        return True, None
    L = EtaleAlgebra(f.monic_part())
    n = f.n
    dens = divisors(f.f0.numerator) if abs(f.f0.numerator) != 1 else [1]
    for h in range(1, bound + 1):
        for p, on_shell in shell_prefixes(n - 1, h):
            for c in range(-h, h + 1) if on_shell else (-h, h):
                vec = p + (c,)
                nrm = L.element(vec).norm()
                if nrm == 0:
                    continue
                for den in dens:
                    val = f.f0 * nrm / den**n
                    if is_square_rational(val):
                        alpha = L.element([Fraction(v, den) for v in vec])
                        return False, OrbitParam(L, alpha, rational_sqrt(val))
    return False, None
