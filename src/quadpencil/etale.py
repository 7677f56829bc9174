"""Etale algebras L = Q[x]/(g) for monic squarefree g, with exact arithmetic.

Elements are coordinate vectors in the power basis 1, beta, ..., beta^(n-1)
where beta is the class of x. The trace form identity
Tr(beta^j / g'(beta)) = [j = n-1] (j <= n-1) drives the moment solver used by
the pencil module. Traces are dot products with the power sums
p_k = Tr(beta^k), norms are resultants N(a) = Res(g, a), and an inverse is
one integer solve with the multiplication matrix M_a.

Square roots are decided on each field component K = Q[x]/(g_i) of degree d.
Euler's criterion at a few odd primes p where a is a unit and g_i stays
squarefree certifies a non-square. At an inert p (g_i irreducible mod p) a
square root in F_(p^d) is lifted p-adically by Newton's iteration, rationally
reconstructed, and returned only when its square is a exactly. Trager's norm
method decides when no inert prime turns up or no lift verifies.
"""

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from operator import mul

from .errors import DomainError
from .factor import _gf_ddf, factor_poly, gf_divmod, gf_from_int, gf_gcd, gf_gcdex
from .factor import gf_is_squarefree, gf_mul, gf_pow_mod, gf_sub
from .intutil import is_square_rational, next_prime, rational_sqrt
from .linalg import charpoly as mat_charpoly
from .linalg import det as mat_det  # noqa: F401  (perfbench's tests trace this alias)
from .linalg import solve as mat_solve
from .polys import Poly, X, _make, is_squarefree, lagrange_interpolate, poly_gcdex, resultant

# square roots in a component field (_component_sqrt)
_SYMBOL_PRIMES = 2  # good primes whose residue symbols are taken before a lift
_MORE_SYMBOL_PRIMES = 10  # further good primes whose symbols come before the norm route
_INERT_PRIMES = 40  # good primes walked for an inert one
_LIFT_CAP_BITS = 2048  # the lift stops once p^k has this many bits
_SHIFTS = [0] + [s for k in range(1, 10) for s in (k, -k)]  # the norm route's shifts, in order


class EtaleAlgebra:
    def __init__(self, g: Poly):
        if g.degree < 1:
            raise DomainError("defining polynomial must have degree >= 1")
        if g.lc != 1:
            raise DomainError("defining polynomial must be monic")
        if not is_squarefree(g):
            raise DomainError("not etale: defining polynomial is not squarefree")
        self.g = g
        self.n = g.degree
        self._factors = None
        self._components = None
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
        self._power_sums = None

    @property
    def factors(self):
        """Monic irreducible factors of g, sorted; all multiplicity 1."""
        if self._factors is None:
            facs = factor_poly(self.g)
            assert all(m == 1 for _, m in facs)
            self._factors = [f for f, _ in facs]
        return self._factors

    @property
    def power_sums(self):
        """p_k = Tr(beta^k) for k < 3n - 1, enough for Tr(beta^k a), k < 2n.

        Newton's identities for monic g = x^n + c_(n-1) x^(n-1) + ... + c_0:
        p_k = -k c_(n-k) [k <= n] - sum_(i=1)^(min(k-1, n)) c_(n-i) p_(k-i).
        """
        if self._power_sums is None:
            n, c = self.n, self.g.coeffs
            p = [Fraction(n)]
            for k in range(1, 3 * n - 1):
                acc = k * c[n - k] if k <= n else Fraction(0)
                for i in range(1, min(k - 1, n) + 1):
                    acc += c[n - i] * p[k - i]
                p.append(-acc)
            self._power_sums = p
        return self._power_sums

    def element(self, coords):
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.n:
            raise DomainError("coordinate vector longer than the degree")
        cs += [Fraction(0)] * (self.n - len(cs))
        return AlgElement(self, tuple(cs))

    def from_poly(self, p: Poly):
        r = p % self.g
        return self.element(list(r.coeffs))

    def from_rational(self, c):
        return self.element([Fraction(c)])

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([1])

    @property
    def beta(self):
        if self.n == 1:
            return self.from_poly(X)
        return self.element([0, 1])

    def beta_pow(self, m):
        """beta^m as an element, cached for m <= 2n-2."""
        if m < len(self._beta_pows):
            return self.from_poly(self._beta_pows[m])
        return self.beta**m

    def __eq__(self, other):
        if isinstance(other, EtaleAlgebra):
            return self.g == other.g
        return NotImplemented

    def __hash__(self):
        return hash(self.g)

    def __repr__(self):
        return "EtaleAlgebra(%r)" % (self.g,)

    def components(self):
        """[(g_i, EtaleAlgebra(g_i))] for the irreducible factors g_i."""
        if self._components is None:
            self._components = [(gi, EtaleAlgebra(gi)) for gi in self.factors]
        return self._components

    def project(self, a, i):
        """Image of a in the i-th component field."""
        gi, Li = self.components()[i]
        return Li.from_poly(a.poly())

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

    def lift_components(self, comp_elems):
        """Element with prescribed image in every component, via idempotents."""
        es = self.idempotents()
        assert len(comp_elems) == len(es)
        out = self.zero
        for ci, ei in zip(comp_elems, es):
            out = out + self.from_poly(ci.poly()) * ei
        return out


class AlgElement:
    __slots__ = ("A", "coords")

    def __init__(self, algebra, coords):
        self.A = algebra
        self.coords = coords

    def poly(self) -> Poly:
        return Poly(self.coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.A == other.A and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.A.g, self.coords))

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.A != self.A:
                raise DomainError("elements of different algebras")
            return other
        return self.A.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return AlgElement(self.A, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.A, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return AlgElement(self.A, tuple(a * c for a in self.coords))
        o = self._coerce(other)
        return self.A.from_poly(self.poly() * o.poly())

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

    def mult_matrix(self):
        """Matrix of multiplication by self in the power basis (columns a*beta^j).

        Each column is the last one times beta: shifted up one place, less its
        top coordinate times the monic g.
        """
        g = self.A.g.coeffs
        col = self.coords
        cols = [col]
        for _ in range(self.A.n - 1):
            top = col[-1]
            col = (Fraction(0),) + col[:-1]
            if top:
                col = tuple(c - top * gc for c, gc in zip(col, g))
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def trace(self, shift=0) -> Fraction:
        """Tr(beta^shift * self) for 0 <= shift < 2n, a dot product with power sums."""
        p = self.A.power_sums[shift:]
        return sum(map(mul, self.coords, p), Fraction(0))

    def norm(self) -> Fraction:
        return resultant(self.A.g, self.poly())

    def charpoly(self) -> Poly:
        """det(x - mult-by-self); equals Res_y(g(y), x - a(y)) for monic g."""
        return mat_charpoly(self.mult_matrix())

    @property
    def is_unit(self):
        return self.norm() != 0

    def inverse(self):
        """The x with self * x = 1: one integer solve of M_self x = e_0."""
        try:
            x = mat_solve(self.mult_matrix(), [1] + [0] * (self.A.n - 1))
        except DomainError:
            raise DomainError("element is not invertible") from None
        return AlgElement(self.A, tuple(x))

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


def _canonical_sign(c):
    """Flip so the first nonzero coordinate is positive."""
    for x in c.coords:
        if x != 0:
            return -c if x < 0 else c
    return c


def _reduce(P: Poly, m):
    """P mod m as a gf list, for a Poly whose denominator is prime to m."""
    inv = pow(P.den, -1, m)
    return gf_from_int([c * inv for c in P.num], m)


def _good_primes(g: Poly, A: Poly):
    """(p, g mod p, A mod p, distinct-degree split of g mod p) for the odd p
    dividing no denominator with g squarefree and gcd(A, g) = 1 mod p: then
    A, of degree < deg g, is a unit at every prime of Q[x]/(g) above p."""
    D, p = g.den * A.den, 2
    while True:
        p = next_prime(p)
        if D % p:
            gp, ap = _reduce(g, p), _reduce(A, p)
            if gf_is_squarefree(gp, p) and len(gf_gcd(ap, gp, p)) == 1:
                yield p, gp, ap, _gf_ddf(gp, p)


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


def _rational_reconstruction(c, m):
    """The u / v = c mod m with |u|, v <= sqrt(m / 2), or None."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift_sqrt(Li: EtaleAlgebra, a, p, y):
    """r with r * r == a, from y = a^(-1/2) mod p, or None past _LIFT_CAP_BITS.

    Each Newton step y <- y (3 - a y^2) / 2 doubles the precision of y; then
    the coordinates of r = a y are rationally reconstructed and checked.
    """
    g, A, m = Li.g, a.poly(), p
    while m.bit_length() < _LIFT_CAP_BITS:
        m *= m
        G = _reduce(g, m)
        mulmod = lambda f, h: gf_divmod(gf_mul(f, h, m), G, m)[1]
        am = _reduce(A, m)
        y = [c * (m + 1) // 2 % m for c in mulmod(y, gf_sub([3], mulmod(am, mulmod(y, y)), m))]
        r = mulmod(am, y)
        cs = [_rational_reconstruction(c, m) for c in r + [0] * (Li.n - len(r))]
        if None not in cs:
            root = Li.element(cs)
            if root * root == a:
                return root
    return None


def _norm_route_root(Li: EtaleAlgebra, r, p):
    """r or -r, whichever _trager_sqrt returns for a = r^2, p a good prime.

    There N_s = chi_u chi_v for u = s beta + r and v = s beta - r (at s = 0,
    chi_v(z) = (-1)^d chi_u(-z)), and at the first s where N_s is squarefree
    the first factor, the smaller coefficient tuple, gives r if it is chi_u.
    """
    for s in _SHIFTS:
        fu = (s * Li.beta + r).charpoly()
        if s:
            fv = (s * Li.beta - r).charpoly()
        else:
            fv = Poly([-c if (Li.n - k) % 2 else c for k, c in enumerate(fu.coeffs)])
        N = fu * fv
        if gf_is_squarefree(_reduce(N, p), p) or is_squarefree(N):
            return r if fu.coeffs < fv.coeffs else -r
    raise AssertionError("no squarefree norm shift found")


def _component_sqrt(Li: EtaleAlgebra, a):
    """A root of z^2 = a in the field Li, or None.

    Degree 1 is a rational square root. For d >= 2, a is a unit at every
    prime above a good prime p, so a failed Euler criterion modulo a part of
    g mod p (a residue field) certifies a non-square: it is tested at the
    first _SYMBOL_PRIMES good primes and at the first inert p (g irreducible
    mod p), where Tonelli-Shanks also gives a^(-1/2) in F_(p^d) to lift. A
    lifted r is returned only if r * r == a; a field has only the roots +-r,
    and _norm_route_root picks the one Trager's norm route gives. With no
    inert prime among the first _INERT_PRIMES good primes (no d-cycle in the
    Galois group, as for x^4 - 10x^2 + 1) or no verified lift, symbols at
    _MORE_SYMBOL_PRIMES further good primes come first, then _trager_sqrt.
    """
    d = Li.n
    if d == 1:
        val = a.coords[0]
        if is_square_rational(val):
            return Li.element([rational_sqrt(val)])
        return None
    primes, y = _good_primes(Li.g, a.poly()), None
    for tried, (p, gp, ap, ddf) in enumerate(primes, 1):
        if y is None and ddf[0][1] == d and (k := _nonsquare_shift(gp, p)) is not None:
            x = _gf_sqrt(ap, gp, p, k)  # None: Euler's criterion fails at p
            if x is None:
                return None
            y, inert = gf_gcdex(x, gp, p)[0], p
        elif tried <= _SYMBOL_PRIMES and _is_nonresidue(p, ap, ddf):
            return None
        if y is not None and tried >= _SYMBOL_PRIMES or tried == _INERT_PRIMES:
            break
    r = None if y is None else _lift_sqrt(Li, a, inert, y)
    if r is not None:
        return _norm_route_root(Li, r, inert)
    for p, gp, ap, ddf in islice(primes, _MORE_SYMBOL_PRIMES):
        if _is_nonresidue(p, ap, ddf):
            return None
    return _trager_sqrt(Li, a)


def _trager_sqrt(Li: EtaleAlgebra, a):
    """A root of z^2 = a in the field Li of degree d >= 2, or None.

    Norm method (Trager, SYMSAC 1976): take a shift s making
    N_s(z) = Res_x(g_i(x), (z - s x)^2 - a(x)) squarefree. N_0(z) = chi_a(z^2)
    comes from the characteristic polynomial of a; other shifts interpolate
    2d + 1 resultants. If a is not a square in Li, N_s is irreducible over Q.
    Otherwise N_s is the product of the distinct minimal polynomials of the
    roots s beta + c and s beta - c of r(z) = (z - s beta)^2 - a, and a
    factor F of degree d vanishes at exactly one of them. Reducing F modulo
    the monic r leaves u z + v with u != 0, so that root is -v / u and
    -v / u - s beta is a square root of a.
    """
    d = Li.n
    gpol = Li.g
    apol = a.poly()
    for s in _SHIFTS:
        if s == 0:
            coeffs = [Fraction(0)] * (2 * d + 1)
            coeffs[::2] = a.charpoly().coeffs
            N = Poly(coeffs)
        else:
            pts = []
            vals = []
            z0 = 0
            while len(pts) < 2 * d + 1:
                q = (Poly([z0]) - s * X) ** 2 - apol
                pts.append(Fraction(z0))
                vals.append(resultant(gpol, q))
                z0 = -z0 + (1 if z0 <= 0 else 0)
            N = lagrange_interpolate(pts, vals)
        assert N.degree == 2 * d
        if is_squarefree(N):
            break
    else:
        raise AssertionError("no squarefree norm shift found")
    F = factor_poly(N)[0][0]
    if F.degree > d:
        return None
    sbeta = s * Li.beta
    c0 = sbeta * sbeta - a  # r(z) = z^2 - 2 s beta z + c0
    u = v = Li.zero
    for c in reversed(F.coeffs):  # (u z + v) z + c, with z^2 = 2 s beta z - c0
        u, v = v + 2 * sbeta * u, c - c0 * u
    root = -v * u.inverse() - sbeta
    assert root * root == a
    return root


def sqrt_in_algebra(A: EtaleAlgebra, a):
    """A square root of the unit a (an element, coordinates or a rational) in
    A, or None if a is not a square.

    Decided independently on every irreducible component; the returned root is
    canonicalized so each component image, then the whole element, has positive
    first nonzero coordinate.
    """
    a = A.one._coerce(a) if isinstance(a, (AlgElement, int, Fraction)) else A.element(a)
    if not a.is_unit:
        raise DomainError("sqrt_in_algebra needs an invertible element")
    comp_roots = []
    for i, (gi, Li) in enumerate(A.components()):
        ci = _component_sqrt(Li, A.project(a, i))
        if ci is None:
            return None
        comp_roots.append(_canonical_sign(ci))
    c = A.lift_components(comp_roots)
    c = _canonical_sign(c)
    assert c * c == a
    return c


def all_square_roots(A: EtaleAlgebra, a):
    """All 2^r square roots of a (empty list when a is not a square)."""
    c = sqrt_in_algebra(A, a)
    if c is None:
        return []
    from itertools import product

    es = A.idempotents()
    out = []
    for signs in product([1, -1], repeat=len(es)):
        u = A.zero
        for s, e in zip(signs, es):
            u = u + (e if s == 1 else -e)
        out.append(c * u)
    return out
