"""Dense univariate polynomials over the rationals.

A Poly stores one tuple of integer numerators `num`, low degree first with
no trailing zeros, over one positive integer denominator `den`, reduced so
that gcd(num..., den) = 1; the zero polynomial is ((), 1). Arithmetic runs
on the integers: sums align the two denominators, products convolve the
numerators, and division is integer pseudo-division. `coeffs`, `lc` and
indexing give the coefficients as Fractions, and `Poly(...)` accepts
anything `Fraction()` accepts. All arithmetic is exact.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import DomainError


def _make(num, den=1):
    """The Poly num / den, from a list of ints (consumed) and a nonzero int."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(Poly)
    p.num, p.den, p._coeffs = tuple(num), den, None
    return p


def _pdiv(A, B):
    """Pseudo-division of integer coefficient lists, low first, B nonzero.

    Returns (Q, R, e) with lc(B)^e * A = Q*B + R and deg R < deg B. A step
    scales by lc(B) only when lc(B) does not divide its leading coefficient,
    so e = 0 when lc(B) = +-1 (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).
    """
    d = len(B) - 1
    lb = B[-1]
    R = list(A)
    Q = [0] * max(len(A) - d, 0)
    e = 0
    for k in range(len(Q) - 1, -1, -1):
        c = R[k + d]
        if not c:
            continue
        t, rem = divmod(c, lb)
        if rem:
            # only R[:k + d] is still read
            R = [lb * x for x in R[:k + d]]
            Q = [lb * x for x in Q]
            e += 1
            t = c
        Q[k] = t
        for i in range(d):
            R[k + i] -= t * B[i]
    return Q, R[:d], e


class Poly:
    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _make([c.numerator * (den // c.denominator) for c in cs], den)
        self.num, self.den, self._coeffs = p.num, p.den, None

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions, low degree first."""
        if self._coeffs is None:
            d = self.den
            self._coeffs = tuple(Fraction(c, d) for c in self.num)
        return self._coeffs

    @property
    def degree(self):
        """Degree, -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def lc(self):
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    @property
    def is_zero(self):
        return not self.num

    def __getitem__(self, k):
        if 0 <= k < len(self.num):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, x):
        """Horner evaluation at a Fraction (or anything with + and *)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.num)

    def __neg__(self):
        return _make([-c for c in self.num], self.den)

    def _combine(self, other, sign):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // other.den) for x in b]
        if sign > 0:
            return _make([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)
        return _make([x - y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return _make([x * c for x in self.num], self.den * other.denominator)
        A, B = self.num, other.num
        if not A or not B:
            return Poly()
        out = [0] * (len(A) + len(B) - 1)
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B, i):
                    out[j] += a * b
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative polynomial power")
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other):
        """Euclidean division; other must be nonzero.

        With l^e * self.num = Q * other.num + R over the integers, l the
        leading numerator of other, the quotient is Q * other.den / (l^e *
        self.den) and the remainder is R / (l^e * self.den).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        Q, R, e = _pdiv(self.num, other.num)
        den = other.num[-1] ** e * self.den
        if other.den != 1:
            Q = [other.den * c for c in Q]
        return _make(Q, den), _make(R, den)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self):
        return _make([i * c for i, c in enumerate(self.num)][1:], self.den)

    def monic(self):
        if self.is_zero:
            return self
        return self * Fraction(self.den, self.num[-1])

    def primitive_int(self):
        """(P, c) with self = c * P, P a primitive integer-coefficient Poly.

        c is a positive Fraction; P keeps the sign of the leading coefficient.
        Zero maps to (zero, 1).
        """
        if self.is_zero:
            return self, Fraction(1)
        g = gcd(*self.num)
        return _make([c // g for c in self.num]), Fraction(g, self.den)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*x^%d" % (c, i))
        return "Poly(%s)" % " + ".join(terms)


X = Poly((0, 1))


def _prem(A, B):
    """Pseudo-remainder of integer coefficient lists, low first.

    lc(B)^(deg A - deg B + 1) * A = Q*B + R with deg R < deg B.
    """
    _, R, e = _pdiv(A, B)
    f = B[-1] ** (len(A) - len(B) + 1 - e)
    R = [f * c for c in R]
    while R and R[-1] == 0:
        R.pop()
    return R


def _subresultant_int(A, B):
    """Resultant of primitive integer polynomials via the subresultant PRS.

    Both inputs have degree >= 1. Returns an int.
    """
    A = list(A)
    B = list(B)
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
    g = h = 1
    while len(B) - 1 > 0:
        dA, dB = len(A) - 1, len(B) - 1
        d = dA - dB
        if dA % 2 and dB % 2:
            s = -s
        R = _prem(A, B)
        if not R:
            return 0  # nonconstant common factor
        div = g * h**d
        newB = [c // div for c in R]
        assert all(c * div == r for c, r in zip(newB, R))
        A, B = B, newB
        g = A[-1]
        if d == 1:
            h = g
        elif d > 1:
            num = g**d
            assert num % h ** (d - 1) == 0
            h = num // h ** (d - 1)
    # B is now the last nonzero constant of the PRS
    dA = len(A) - 1
    num = B[0] ** dA
    if dA > 1:
        assert num % h ** (dA - 1) == 0
        return s * (num // h ** (dA - 1))
    return s * num


def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q) with Res(p, q) = lc(p)^deg(q) * prod q(alpha) over roots of p.

    Computed through the subresultant PRS on primitive integer parts, so
    intermediate coefficient growth stays polynomial.
    """
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if p.degree == 0:
        return p.lc**q.degree
    if q.degree == 0:
        return q.lc**p.degree
    P, cp = p.primitive_int()
    Q, cq = q.primitive_int()
    r = _subresultant_int(P.num, Q.num)
    return cp**q.degree * cq**p.degree * r


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p) for deg p = d >= 1."""
    d = p.degree
    if d < 1:
        raise DomainError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd (zero if both are zero), by the primitive integer PRS."""
    b, a = sorted((list(p.num), list(q.num)), key=len)
    while b:
        r = _prem(a, b)
        g = gcd(*r)
        a, b = b, [c // g for c in r]
    return _make(a, a[-1]) if a else Poly()


def poly_gcdex(p: Poly, q: Poly):
    """(u, v, d): u*p + v*q = d with d the monic gcd."""
    r0, r1 = p, q
    u0, u1 = Poly([1]), Poly()
    v0, v1 = Poly(), Poly([1])
    while not r1.is_zero:
        qq, rr = r0.divmod(r1)
        r0, r1 = r1, rr
        u0, u1 = u1, u0 - qq * u1
        v0, v1 = v1, v0 - qq * v1
    if r0.is_zero:
        return Poly(), Poly(), Poly()
    c = 1 / r0.lc
    return u0 * c, v0 * c, r0 * c


def is_squarefree(p: Poly) -> bool:
    if p.degree <= 0:
        return not p.is_zero
    return poly_gcd(p, p.derivative()).degree == 0


def squarefree_decomposition(p: Poly):
    """Yun decomposition: (c, [(g_i monic squarefree, i)]) with p = c*prod g_i^i."""
    if p.is_zero:
        raise DomainError("zero polynomial")
    c = p.lc
    if p.degree == 0:
        return c, []
    out = []
    g = poly_gcd(p, p.derivative())
    c1 = p // g
    d = p.derivative() // g - c1.derivative()
    i = 1
    while c1.degree > 0:
        step = poly_gcd(c1, d)
        c1_next = c1 // step
        d = d // step - c1_next.derivative()
        if step.degree > 0:
            out.append((step, i))
        c1 = c1_next
        i += 1
    return c, out


def sign_variations(values) -> int:
    """Sign changes in a sequence of Fractions, zeros dropped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(p: Poly):
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero:
            break
        chain.append(-r)
    return chain


def real_root_count(p: Poly) -> int:
    """Number of distinct real roots of a squarefree p, by Sturm's theorem."""
    if p.is_zero:
        raise DomainError("zero polynomial")
    if p.degree == 0:
        return 0
    if not is_squarefree(p):
        raise DomainError("real_root_count requires a squarefree polynomial")
    chain = sturm_chain(p)
    at_minus = [q.lc * (-1) ** q.degree for q in chain]
    at_plus = [q.lc for q in chain]
    return sign_variations(at_minus) - sign_variations(at_plus)


def lagrange_interpolate(xs, ys) -> Poly:
    """Unique Poly of degree < len(xs) through the given rational points.

    Newton divided differences, then the Newton form expanded by Horner's rule.
    """
    if len(xs) != len(ys):
        raise DomainError("need as many values as points")
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation points must be distinct")
    xs = [Fraction(x) for x in xs]
    dd = [Fraction(y) for y in ys]
    m = len(xs)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    out = []
    for i in range(m - 1, -1, -1):
        # out <- out * (x - xs[i]) + dd[i]
        out = [Fraction(0)] + out
        for k in range(len(out) - 1):
            out[k] -= xs[i] * out[k + 1]
        out[0] += dd[i]
    return Poly(out)
