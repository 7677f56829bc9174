"""Etale algebras L = Q[x]/(g) for monic squarefree g, with exact arithmetic.

An element is its reduced representative: one Poly of degree < n in beta,
the class of x, so arithmetic runs on integer numerators over one
denominator; `coords` is the Fraction view in the power basis
1, beta, ..., beta^(n-1), padded to length n. The trace form identity
Tr(beta^j / g'(beta)) = [j = n-1] (j <= n-1) drives the moment solver used by
the pencil module. A trace is one integer dot product with the power sums of
beta' = e beta (e = g.den), norms are resultants N(a) = Res(g, a), and an
inverse is one fraction-free elimination on the integer multiplication matrix
M_a; the inverse keeps its own inverse.
There is one live algebra per g; its caches are shared: constructing an
algebra for a g equal to that of one still alive returns that one, with the
factors and idempotents it has already computed.

Square roots are decided on each field component K = Q[x]/(g_i) of degree d,
its elements held as polynomials mod g_i, by one certified route. Euler's
criterion at a few odd primes p where a is a unit and g_i stays squarefree
(the walk factor._good_primes, shared with factorization) certifies a
non-square. Otherwise square roots in the residue fields at one such p are
joined by CRT and lifted p-adically by Newton's iteration. A scaled root c r
lies in Z[beta'] for an integral generator beta' and an explicit c, and an
exact integer bound H on its coordinates comes from the trace form; once
p^k > 2H, the lift either gives c r as a symmetric residue whose square is
c^2 a, or certifies that a is not a square (Couveignes, LNM 1554, 1993;
Cohen, GTM 138, 4.5).
"""

import random
import weakref
from fractions import Fraction
from itertools import chain, product
from math import isqrt
from operator import mul

from .errors import DomainError
from .factor import _gf_split, _good_primes, factor_poly, gf_divmod, gf_from_int, gf_gcd
from .factor import gf_gcdex, gf_mul, gf_pow_mod, gf_sub
from .intutil import is_square_rational, rational_sqrt
from .linalg import _bareiss, _fractions
from .linalg import charpoly as mat_charpoly
from .linalg import det as mat_det  # noqa: F401  (perfbench's tests trace this alias)
from .linalg import solve as mat_solve
from .polys import Poly, X, _make, is_squarefree, poly_gcdex, resultant

# the live algebra of each g, held weakly: stored at the end of
# EtaleAlgebra.__init__, so a rejected g is never stored, and looked up by __new__
_LIVE = weakref.WeakValueDictionary()

# square roots in a component field (_component_sqrt)
_SYMBOL_PRIMES = 2  # good primes whose residue symbols are taken before a lift
_INERT_PRIMES = 40  # good primes walked for an inert one


class EtaleAlgebra:
    def __new__(cls, g):
        live = _LIVE.get(g)
        return live if live is not None else super().__new__(cls)

    def __init__(self, g: Poly):
        if "g" in self.__dict__:
            return  # the live algebra for this g, from __new__
        if g.degree < 1:
            raise DomainError("defining polynomial must have degree >= 1")
        if g.lc != 1:
            raise DomainError("defining polynomial must be monic")
        if not is_squarefree(g):
            raise DomainError("not etale: defining polynomial is not squarefree")
        self.g = g
        self.n = g.degree
        self._factors = None
        self._idempotents = None
        # powers of beta mod g up to beta^(2n-2), for beta_pow and euler_trace_solve:
        # each is the last one shifted up, less its top coefficient times the monic g
        n, G, E = self.n, g.num, g.den
        pows = [Poly([1])]
        for _ in range(2 * n - 2):
            num, den = [0, *pows[-1].num], pows[-1].den
            if len(num) > n:
                top = num[n]
                num, den = [E * c - top * gc for c, gc in zip(num, G)], den * E
            pows.append(_make(num, den))
        self._beta_pows = pows
        self._traces = None
        _LIVE[g] = self

    @property
    def factors(self):
        """Monic irreducible factors of g, sorted; all multiplicity 1."""
        if self._factors is None:
            facs = factor_poly(self.g)
            assert all(m == 1 for _, m in facs)
            self._factors = [f for f, _ in facs]
        return self._factors

    def _trace_ints(self):
        """(q, e^K) with Tr(beta^k) = q_k / e^K for k <= K = 3n - 2, all integers:
        q_k = e^(K-k) Tr(beta'^k) for beta' = e beta, e = g.den (_power_sums)."""
        if self._traces is None:
            e, K = self.g.den, 3 * self.n - 2
            sums = _power_sums(_integral(self.g), K + 1)
            self._traces = [x * e ** (K - k) for k, x in enumerate(sums)], e**K
        return self._traces

    @property
    def power_sums(self):
        """p_k = Tr(beta^k) for k < 3n - 1, as Fractions."""
        q, eK = self._trace_ints()
        return [Fraction(x, eK) for x in q]

    def element(self, coords):
        cs = list(coords)
        if len(cs) > self.n:
            raise DomainError("coordinate vector longer than the degree")
        return AlgElement(self, Poly(cs))

    def from_poly(self, p: Poly):
        return AlgElement(self, p if p.degree < self.n else p % self.g)

    def from_rational(self, c):
        return AlgElement(self, Poly([c]))

    @property
    def zero(self):
        return AlgElement(self, Poly())

    @property
    def one(self):
        return AlgElement(self, Poly([1]))

    @property
    def beta(self):
        return self.from_poly(X)

    def beta_pow(self, m):
        """beta^m as an element, cached for m <= 2n-2."""
        if m < len(self._beta_pows):
            return AlgElement(self, self._beta_pows[m])
        return self.beta**m

    def __eq__(self, other):
        if isinstance(other, EtaleAlgebra):
            return self.g == other.g
        return NotImplemented

    def __hash__(self):
        return hash(self.g)

    def __repr__(self):
        return "EtaleAlgebra(%r)" % (self.g,)

    def idempotents(self):
        """Primitive idempotents E_i, one per irreducible factor, E_i = 1 mod g_i."""
        if self._idempotents is None:
            out = []
            for gi in self.factors:
                hi = self.g // gi
                u, v, d = poly_gcdex(gi, hi)
                assert d.degree == 0 and d.lc == 1
                out.append(self.from_poly(v * hi))
            # exactness of the splitting
            total = self.zero
            for e in out:
                assert e * e == e
                total = total + e
            assert total == self.one
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    assert (out[i] * out[j]).is_zero
            self._idempotents = out
        return self._idempotents


class AlgElement:
    __slots__ = ("A", "_poly", "_inv")

    def __init__(self, algebra, poly):
        self.A = algebra
        self._poly = poly
        self._inv = None  # set on an element that inverse() returned

    def poly(self) -> Poly:
        return self._poly

    @property
    def coords(self):
        """The coordinates in the power basis, as n Fractions."""
        cs = self._poly.coeffs
        return cs + (Fraction(0),) * (self.A.n - len(cs))

    @property
    def is_zero(self):
        return not self._poly

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.A == other.A and self._poly == other._poly
        return NotImplemented

    def __hash__(self):
        return hash((self.A.g, self._poly))

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.A != self.A:
                raise DomainError("elements of different algebras")
            return other
        return self.A.from_rational(other)

    def __add__(self, other):
        return AlgElement(self.A, self._poly + self._coerce(other)._poly)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.A, -self._poly)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.A, self._poly * other)
        return self.A.from_poly(self._poly * self._coerce(other)._poly)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.A.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def _mult_ints(self):
        """(M, e) with M / e the matrix of multiplication by self in the power
        basis (columns a*beta^j), M integer.

        Each column is the last one times beta: its integer numerators shifted up
        one place, less its top coordinate times the monic g (as in _beta_pows).
        Each column's denominator divides the last one, e.
        """
        n, G, E = self.A.n, self.A.g.num, self.A.g.den
        num, den = [*self._poly.num, *[0] * (n - len(self._poly.num))], self._poly.den
        cols = [(num, den)]
        for _ in range(n - 1):
            top, num = num[-1], [0, *num[:-1]]
            if top:
                num, den = [E * c - top * gc for c, gc in zip(num, G)], den * E
            cols.append((num, den))
        cols = [[c * (den // dc) for c in col] for col, dc in cols]
        return [list(row) for row in zip(*cols)], den

    def mult_matrix(self):
        """Matrix of multiplication by self in the power basis (columns a*beta^j)."""
        M, e = self._mult_ints()
        return _fractions(e, M)

    def trace(self, shift=0) -> Fraction:
        """Tr(beta^shift * self) for 0 <= shift < 2n: one integer dot product
        of the numerators with q[shift:], over den e^K (_trace_ints)."""
        q, eK = self.A._trace_ints()
        return Fraction(sum(map(mul, self._poly.num, q[shift:])), self._poly.den * eK)

    def norm(self) -> Fraction:
        return resultant(self.A.g, self._poly)

    def charpoly(self) -> Poly:
        """det(x - mult-by-self); equals Res_y(g(y), x - a(y)) for monic g."""
        return mat_charpoly(self.mult_matrix())

    @property
    def is_unit(self):
        return self.norm() != 0

    def inverse(self):
        """The x with self * x = 1: for the multiplication matrix M / e, one
        fraction-free elimination of [M | e e_0] leaves [d I | d x]. x keeps
        self as its inverse (self keeps nothing: no reference cycle)."""
        if self._inv is not None:
            return self._inv
        n = self.A.n
        M, e = self._mult_ints()
        for i, row in enumerate(M):
            row.append(e if i == 0 else 0)
        pivots, d = _bareiss(M, n, True)
        if len(pivots) < n:
            raise DomainError("element is not invertible")
        x = AlgElement(self.A, _make([row[n] for row in M], d))
        x._inv = self
        return x

    def __repr__(self):
        return "AlgElement(%s)" % (tuple(str(c) for c in self.coords),)


def euler_trace_solve(A: EtaleAlgebra, targets):
    """The unique kappa with Tr(kappa * beta^i / g'(beta)) = targets[i], all i < n.

    Since Tr(nu / g'(beta)) is the beta^(n-1) coordinate of nu, this is a
    Hankel system whose matrix has unit antidiagonal, hence is nonsingular.
    """
    n = A.n
    targets = [Fraction(t) for t in targets]
    if len(targets) != n:
        raise DomainError("need exactly n target values")
    H = [[A._beta_pows[i + j][n - 1] for j in range(n)] for i in range(n)]
    kappa = mat_solve(H, targets)
    return A.element(kappa)


def _canonical_sign(r: Poly):
    """Flip so the lowest nonzero coefficient is positive."""
    return -r if next((x for x in r.num if x), 0) < 0 else r


def _reduce(P: Poly, m):
    """P mod m as a gf list, for a Poly whose denominator is prime to m."""
    inv = pow(P.den, -1, m)
    return gf_from_int([c * inv for c in P.num], m)


def _unit_primes(ge: Poly, a1: Poly):
    """(p, ge mod p, a1 mod p, split) along _good_primes(ge), where a1 is a
    unit at every prime of Q[x]/(ge) above p: gcd(a1, ge) = 1 mod p."""
    for p, gp, ddf in _good_primes(ge.num, a1.den):
        ap = _reduce(a1, p)
        if len(gf_gcd(ap, gp, p)) == 1:
            yield p, gp, ap, ddf


def _is_nonresidue(p, ap, ddf):
    """Euler's criterion: is a^((p^k - 1)/2) != 1 modulo some degree-k part?"""
    return any(gf_pow_mod(ap, (p**k - 1) // 2, part, p) != [1] for part, k in ddf)


def _nonsquare_shift(g, p):
    """A k with x + k a non-square in the field F_p[x]/(g), or None: one whose
    norm (-1)^d g(-k) is a non-square mod p."""
    sign = (-1) ** (len(g) - 1)
    norms = ((k, sign * sum(c * (-k) ** i for i, c in enumerate(g))) for k in range(p))
    return next((k for k, v in norms if pow(v, (p - 1) // 2, p) == p - 1), None)


def _gf_sqrt(a, g, p, k):
    """A square root of a != 0 in the field F_p[x]/(g), or None if a is not a
    square: Tonelli-Shanks with the non-square x + k (the power a^((q+1)/4)
    when q = 3 mod 4)."""
    mulmod = lambda f, h: gf_divmod(gf_mul(f, h, p), g, p)[1]
    q = p ** (len(g) - 1)
    e, m = 0, q - 1
    while m % 2 == 0:
        e, m = e + 1, m // 2
    w = gf_pow_mod(a, (m - 1) // 2, g, p)
    x, t = mulmod(w, a), mulmod(mulmod(w, w), a)  # x^2 = a t, t of order 2^i, i < e
    c = None
    while t != [1]:
        i, t2 = 0, t
        while t2 != [1]:
            t2, i = mulmod(t2, t2), i + 1
            if i == e:
                return None
        c = c or gf_pow_mod([k, 1], m, g, p)  # of order 2^e
        b = gf_pow_mod(c, 2 ** (e - i - 1), g, p)
        x, c = mulmod(x, b), mulmod(b, b)
        t, e = mulmod(t, c), i
    return x


def _integral(g: Poly):
    """The integer coefficients of the monic g_e(x) = e^d g(x / e), e = g.den,
    whose root is beta' = e beta."""
    d, e = g.degree, g.den
    return [e ** (d - 1 - i) * x for i, x in enumerate(g.num[:d])] + [1]


def _power_sums(G, count):
    """Tr(beta^k) for k < count, beta a root of the monic integer G (low first).

    Newton's identities for G = x^n + c_(n-1) x^(n-1) + ... + c_0:
    p_k = -k c_(n-k) [k <= n] - sum_(i=1)^(min(k-1, n)) c_(n-i) p_(k-i).
    """
    n = len(G) - 1
    p = [n]
    for k in range(1, count):
        acc = k * G[n - k] if k <= n else 0
        p.append(-acc - sum(G[n - i] * p[k - i] for i in range(1, min(k - 1, n) + 1)))
    return p


def _gram_inverse(ge):
    """(rows, D) with rows = D G^-1 for the trace Gram matrix
    G = (Tr(beta'^(i+j))) of the root beta' of the monic integral ge, from
    one integer elimination; D = +-det G = +-disc(ge)."""
    d = ge.degree
    ps = _power_sums(ge.num, 2 * d - 1)
    M = [[*ps[i:i + d], *(int(i == j) for j in range(d))] for i in range(d)]
    _, D = _bareiss(M, d, True)  # M becomes [D I | D G^-1]
    return [row[d:] for row in M], D


def _height(ge, c, a1, rows, D):
    """An integer H >= |w_j| for the coordinates of w = c r, for every r with
    r^2 = a, in the basis of powers of the root beta' of the monic integral
    ge; (rows, D) from _gram_inverse.

    By Cauchy's bound every |sigma(beta')| <= B = 1 + max |ge_i|, which bounds
    |sigma(c)| and |sigma(a)|; as |sigma(w)|^2 = |sigma(c)|^2 |sigma(a)|, each
    trace T_i = Tr(w beta'^i) = sum_sigma sigma(w) sigma(beta')^i is at most
    d |sigma(c)| sqrt|sigma(a)| B^i, and w = G^-1 T.
    """
    d = ge.degree
    B = 1 + max(map(abs, ge.num[:d]))
    size = lambda P: sum(abs(x) * B**j for j, x in enumerate(P.num))  # >= P.den |sigma(P)|
    T = [d * size(c) * (isqrt(size(a1) // a1.den) + 1) * B**i for i in range(d)]
    return max(-(-sum(abs(x) * t for x, t in zip(row, T)) // abs(D)) for row in rows)


def _lift_sqrt(p, y, ge, a1, c, target, H):
    """The w = c r with r^2 = a lifted from y = a^(-1/2) mod p, or None once
    p^k > 2H.

    Each Newton step y <- y (3 - a y^2) / 2 doubles the precision of y; after
    each, the symmetric residue z of c a y is accepted when z^2 = c^2 a = target.
    """
    m = p
    while True:
        G, am = _reduce(ge, m), _reduce(a1, m)
        mulmod = lambda f, h: gf_divmod(gf_mul(f, h, m), G, m)[1]
        if m > p:
            y = [x * (m + 1) // 2 % m for x in mulmod(y, gf_sub([3], mulmod(am, mulmod(y, y)), m))]
        z = Poly([x - m if 2 * x > m else x for x in mulmod(_reduce(c, m), mulmod(am, y))])
        if (z * z) % ge == target:
            return z
        if m > 2 * H:
            return None
        m *= m


def _component_sqrt(gi: Poly, a: Poly):
    """A root r of r^2 = a in the field Q[x]/(gi), or None; either root when a
    is a square. gi is monic irreducible, a and r have degree < deg gi.

    Degree 1 is a rational square root. For d >= 2 the work is in the basis of
    powers of beta' = e beta, e = gi.den, a root of the monic integral
    g_e(x) = e^d gi(x / e). With delta the lcm of the denominators of a in that
    basis, delta r is integral when r^2 = a, and so c r is in Z[beta'] for
    c = delta g_e'(beta'), as the ring of integers lies in g_e'(beta')^-1 Z[beta'].
    _height bounds its coordinates by an integer H.

    At a good prime p (_unit_primes), a is a unit at every prime above p, so a
    non-square in some residue field (Euler's criterion) certifies a
    non-square: it is tested at the first _SYMBOL_PRIMES good primes. The lift
    prime is the first inert one (g_e irreducible mod p) among the first
    _INERT_PRIMES good primes, or, when there is none (no d-cycle in the
    Galois group, as for x^4 - 10x^2 + 1), the walked prime with the fewest
    residue fields, each of which needs a non-square x + k for Tonelli-Shanks;
    if none qualifies, the walk goes on, and by Weil's bound every
    p > (d - 1)^2 does. Tonelli-Shanks gives a square root in each residue
    field; their inverses, joined by CRT with signs fixed in the first field,
    are lifted by _lift_sqrt. Past p^k > 2H, the symmetric residue of c r is c r itself for
    one of the 2^(k-1) sign patterns of k fields, so when none verifies, a is
    certified not a square.
    """
    d = gi.degree
    if d == 1:
        return Poly([rational_sqrt(a[0])]) if is_square_rational(a[0]) else None
    e = gi.den
    ge = Poly(_integral(gi))
    a1 = Poly([x / e**j for j, x in enumerate(a.coeffs)])
    primes, walked, inert = _unit_primes(ge, a1), [], False
    for p, gp, ap, ddf in primes:
        if ddf[0][1] < d and len(walked) < _SYMBOL_PRIMES and _is_nonresidue(p, ap, ddf):
            return None
        walked.append((p, gp, ap, ddf))
        inert = inert or ddf[0][1] == d
        if inert and len(walked) >= _SYMBOL_PRIMES or len(walked) == _INERT_PRIMES:
            break
    walked.sort(key=lambda w: sum((len(part) - 1) // k for part, k in w[3]))
    for p, gp, ap, ddf in chain(walked, primes):
        fields = [(h, _nonsquare_shift(h, p)) for h in _gf_split(ddf, p, random.Random(p))]
        if all(k is not None for _, k in fields):
            break
    ys = []
    for h, k in fields:
        x = _gf_sqrt(gf_divmod(ap, h, p)[1], h, p, k)
        if x is None:
            return None  # Euler's criterion fails in this residue field
        q = gf_divmod(gp, h, p)[0]  # y = q / (x q) is 1 / x mod h and 0 mod the other fields
        ys.append(gf_mul(gf_gcdex(gf_mul(x, q, p), h, p)[0], q, p))
    rows, D = _gram_inverse(ge)
    c = ge.derivative() * a1.den
    target, H = (c * c * a1) % ge, _height(ge, c, a1, rows, D)
    for signs in product((1, -1), repeat=len(ys) - 1):
        y = [0] * d
        for s, u in zip((1, *signs), ys):
            for j, x in enumerate(u):
                y[j] += s * x
        w = _lift_sqrt(p, gf_from_int(y, p), ge, a1, c, target, H)
        if w is not None:
            # Tr(r beta'^i) = Tr(w beta'^i / g_e'(beta')) / delta is the top
            # coordinate of w beta'^i over delta (Euler), and r = G^-1 (traces)
            tops, col = [], [*w.num, *[0] * (d - len(w.num))]
            for _ in range(d):
                tops.append(col[-1])
                col = [x - col[-1] * gc for x, gc in zip([0, *col[:-1]], ge.num)]
            return _make([sum(map(mul, row, tops)) * e**j for j, row in enumerate(rows)],
                         D * a1.den)
    return None


def sqrt_in_algebra(A: EtaleAlgebra, a):
    """A square root of the unit a (an element, coordinates or a rational) in
    A, or None if a is not a square.

    Decided on a mod g_i for every irreducible factor g_i; the roots r_i,
    each and then their sum of r_i E_i mod g canonicalized to a positive first
    nonzero coordinate, are joined by the idempotents E_i.
    """
    a = A.one._coerce(a) if isinstance(a, (AlgElement, int, Fraction)) else A.element(a)
    if not a.is_unit:
        raise DomainError("sqrt_in_algebra needs an invertible element")
    ap, root = a.poly(), Poly()
    for gi, ei in zip(A.factors, A.idempotents()):
        ri = _component_sqrt(gi, ap % gi)
        if ri is None:
            return None
        root = root + _canonical_sign(ri) * ei.poly()
    c = A.from_poly(_canonical_sign(root % A.g))
    assert c * c == a
    return c


def all_square_roots(A: EtaleAlgebra, a):
    """All 2^r square roots of a (empty list when a is not a square)."""
    c = sqrt_in_algebra(A, a)
    if c is None:
        return []
    es = A.idempotents()
    return [c * sum(map(mul, signs, es), A.zero) for signs in product([1, -1], repeat=len(es))]
