"""Triples of 5x5 alternating forms: sub-Pfaffian quadrics and the pi invariant.

A triple (A, B, C) spans a pencil P(x,y,z) = Ax + By + Cz. The five signed
4x4 principal sub-Pfaffians of P are ternary quadratics Q_1..Q_5; the signed
maximal minors of their 5x6 coefficient matrix cut out a single ternary
quadratic pi, the basic invariant of the action. The triple is stable exactly
when det(pi) is nonzero.
"""

from fractions import Fraction

from .errors import DomainError
from .linalg import congruence, det, mat, transpose

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
    """Pfaffian of an even-dimensional skew matrix, Pf^2 = det."""
    M = mat(M)
    _check_skew(M)
    n = len(M)
    if n % 2:
        raise DomainError("Pfaffian needs even dimension")
    return _pf(M)


def _pf(M):
    n = len(M)
    if n == 0:
        return Fraction(1)
    if n == 2:
        return M[0][1]
    total = Fraction(0)
    sign = 1
    for j in range(1, n):
        if M[0][j] != 0:
            rest = [r for r in range(n) if r not in (0, j)]
            minor = [[M[a][b] for b in rest] for a in rest]
            total += sign * M[0][j] * _pf(minor)
        sign = -sign
    return total


class SkewTriple:
    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        mats = []
        for M in (A, B, C):
            M = mat(M)
            if len(M) != 5:
                raise DomainError("triple must consist of 5x5 matrices")
            _check_skew(M)
            mats.append(M)
        self.A, self.B, self.C = mats

    def transformed(self, g):
        """The action v -> (g A g^T, g B g^T, g C g^T)."""
        gT = transpose(mat(g))
        return SkewTriple(*(congruence(gT, M) for M in (self.A, self.B, self.C)))


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


def sub_pfaffian_forms(v: SkewTriple):
    """Q_1..Q_5: signed 4x4 sub-Pfaffians of Ax + By + Cz as 6-tuples.

    Q_i = (-1)^(i+1) Pf of the minor deleting row and column i (1-based),
    coefficients listed in the order x^2, y^2, z^2, xy, xz, yz.
    """
    out = []
    for i in range(5):
        keep = [r for r in range(5) if r != i]

        def entry(a, b):
            return (v.A[a][b], v.B[a][b], v.C[a][b])

        p, q, r, s = keep
        # Pf of a 4x4 with linear-form entries: m01 m23 - m02 m13 + m03 m12
        acc = [Fraction(0)] * 6
        for coeff, (e1, e2) in (
            (1, ((p, q), (r, s))),
            (-1, ((p, r), (q, s))),
            (1, ((p, s), (q, r))),
        ):
            prod = _lin_mul(entry(*e1), entry(*e2))
            acc = [a + coeff * c for a, c in zip(acc, prod)]
        sign = 1 if i % 2 == 0 else -1
        out.append(tuple(sign * c for c in acc))
    return out


def pi_invariant(v: SkewTriple):
    """The invariant ternary quadratic as a symmetric 3x3 matrix.

    Rows of the 5x6 matrix M are the coefficient vectors of Q_1..Q_5; the
    kernel direction is written out by Cramer's rule as alternating-sign
    maximal minors, then folded into a Gram matrix with halved off-diagonals.
    """
    Q = sub_pfaffian_forms(v)
    M = [list(q) for q in Q]
    c = []
    sign = 1
    for j in range(6):
        cols = [k for k in range(6) if k != j]
        minor = [[M[r][k] for k in cols] for r in range(5)]
        c.append(sign * det(minor))
        sign = -sign
    h = Fraction(1, 2)
    return [
        [c[0], h * c[3], h * c[4]],
        [h * c[3], c[1], h * c[5]],
        [h * c[4], h * c[5], c[2]],
    ]


def sl5_stable(v: SkewTriple) -> bool:
    return det(pi_invariant(v)) != 0
