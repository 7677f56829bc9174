"""Triples of 5x5 alternating forms: sub-Pfaffian quadrics and the pi invariant.

A triple (A, B, C) spans a pencil P(x,y,z) = Ax + By + Cz. The five signed
4x4 principal sub-Pfaffians of P are ternary quadratics Q_1..Q_5; the signed
maximal minors of their 5x6 coefficient matrix cut out a single ternary
quadratic pi, the basic invariant of the action. The triple is stable exactly
when det(pi) is nonzero. A triple is held as integer rows over one
denominator, and the action, the Q_i and the minors run on integers.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError
from .linalg import _bareiss, _clear, _fractions, det

MONOMIALS = ("x2", "y2", "z2", "xy", "xz", "yz")


def _check_skew(M):
    n = len(M)
    for i in range(n):
        if len(M[i]) != n:
            raise DomainError("matrix must be square")
        for j in range(n):
            if M[i][j] != -M[j][i]:
                raise DomainError("matrix must be skew-symmetric")


def pfaffian(M):
    """Pfaffian of an even-dimensional skew matrix, Pf^2 = det; expanded on
    the integer D*M, D the lcm of the denominators: Pf(D*M) = D^(n/2) Pf(M)."""
    D, B = _clear(M)
    _check_skew(B)
    n = len(B)
    if n % 2:
        raise DomainError("Pfaffian needs even dimension")
    return Fraction(_pf(B), D ** (n // 2))


def _pf(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 2:
        return M[0][1]
    total = 0
    sign = 1
    for j in range(1, n):
        if M[0][j] != 0:
            rest = [r for r in range(n) if r not in (0, j)]
            minor = [[M[a][b] for b in rest] for a in rest]
            total += sign * M[0][j] * _pf(minor)
        sign = -sign
    return total


class SkewTriple:
    """Three 5x5 alternating forms A, B, C, held as integer rows `ints` over
    one denominator `den`; `A`, `B` and `C` read them as Fraction matrices."""

    __slots__ = ("den", "ints")

    def __init__(self, A, B, C):
        mats = []
        for M in (A, B, C):
            e, M = _clear(M)
            if len(M) != 5:
                raise DomainError("triple must consist of 5x5 matrices")
            _check_skew(M)
            mats.append((e, M))
        D = self.den = lcm(*(e for e, _ in mats))
        self.ints = tuple([[x * (D // e) for x in row] for row in M] for e, M in mats)

    A = property(lambda self: _fractions(self.den, self.ints[0]))
    B = property(lambda self: _fractions(self.den, self.ints[1]))
    C = property(lambda self: _fractions(self.den, self.ints[2]))

    def transformed(self, g):
        """The action v -> (g A g^T, g B g^T, g C g^T): with G = e g cleared
        once, each G M G^T on integers over den e^2, skew by construction."""
        e, G = _clear(g)
        if len(G) != 5 or any(len(row) != 5 for row in G):
            raise DomainError("g must be a 5x5 matrix")
        out = object.__new__(SkewTriple)
        out.den = self.den * e * e
        out.ints = tuple(_skew_congruence(G, M) for M in self.ints)
        return out


def _skew_congruence(G, M):
    """G M G^T for integer rows G and an alternating integer M."""
    H = list(zip(*([sum(map(mul, row, g)) for g in G] for row in M)))
    R = [[0] * 5 for _ in range(5)]
    for r in range(5):
        for c in range(r + 1, 5):
            x = sum(map(mul, G[r], H[c]))
            R[r][c], R[c][r] = x, -x
    return R


def _lin_mul(u, v):
    """Product of two linear forms in (x, y, z) as a 6-tuple over MONOMIALS."""
    return (
        u[0] * v[0],
        u[1] * v[1],
        u[2] * v[2],
        u[0] * v[1] + u[1] * v[0],
        u[0] * v[2] + u[2] * v[0],
        u[1] * v[2] + u[2] * v[1],
    )


def _sub_pfaffians(v: SkewTriple):
    """Q_1..Q_5 of `sub_pfaffian_forms` times den^2, as integer 6-tuples."""
    A, B, C = v.ints
    out = []
    for i in range(5):
        p, q, r, s = (k for k in range(5) if k != i)
        sign = -1 if i % 2 else 1
        acc = [0] * 6
        # Pf of a 4x4 with linear-form entries: m01 m23 - m02 m13 + m03 m12
        for coeff, (a, b), (c, d) in (
            (sign, (p, q), (r, s)),
            (-sign, (p, r), (q, s)),
            (sign, (p, s), (q, r)),
        ):
            prod = _lin_mul((A[a][b], B[a][b], C[a][b]), (A[c][d], B[c][d], C[c][d]))
            acc = [x + coeff * y for x, y in zip(acc, prod)]
        out.append(tuple(acc))
    return out


def sub_pfaffian_forms(v: SkewTriple):
    """Q_1..Q_5: signed 4x4 sub-Pfaffians of Ax + By + Cz as 6-tuples.

    Q_i = (-1)^(i+1) Pf of the minor deleting row and column i (1-based),
    coefficients listed in the order x^2, y^2, z^2, xy, xz, yz.
    """
    d = v.den ** 2
    return [tuple(Fraction(c, d) for c in q) for q in _sub_pfaffians(v)]


def pi_invariant(v: SkewTriple):
    """The invariant ternary quadratic as a symmetric 3x3 matrix.

    Rows of the 5x6 matrix M are the coefficient vectors of Q_1..Q_5; the
    kernel direction is written out by Cramer's rule as alternating-sign
    maximal minors, then folded into a Gram matrix with halved off-diagonals.
    One fraction-free Jordan elimination of the integer rows den^2 Q_i gives
    the minors (den^10 times the rational ones): at rank 5, minor j0 of the
    free column is +- the last pivot and column j0 of the pivot rows the rest.
    """
    M = [list(q) for q in _sub_pfaffians(v)]
    pivots, p = _bareiss(M, 6, True)
    c = [0] * 6
    if len(pivots) == 5:
        j0 = 15 - sum(pivots)  # the free column
        c[j0] = (-1) ** j0 * p
        for row, k in zip(M, pivots):
            c[k] = (-1) ** (j0 + 1) * row[j0]
    d = v.den ** 10
    h = 2 * d
    return [
        [Fraction(c[0], d), Fraction(c[3], h), Fraction(c[4], h)],
        [Fraction(c[3], h), Fraction(c[1], d), Fraction(c[5], h)],
        [Fraction(c[4], h), Fraction(c[5], h), Fraction(c[2], d)],
    ]


def sl5_stable(v: SkewTriple) -> bool:
    return det(pi_invariant(v)) != 0
