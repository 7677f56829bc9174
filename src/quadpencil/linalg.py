"""Exact linear algebra over the rationals, plus integer Hermite normal form.

Matrices are plain lists of lists of Fractions (rows); everything is exact.
`det` and `mat_mul` clear denominators row by row and work on Python
integers, which avoids a gcd per Fraction operation; the rest is Fraction
Gauss-Jordan, meant for desk scale (n <= 12 or so).
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError
from .polys import Poly


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    c = Fraction(c)
    return [[c * a for a in row] for row in A]


def _int_rows(A):
    """[(d, d * row)] for each row, d the lcm of its denominators: integer rows."""
    out = []
    for row in A:
        d = lcm(*(x.denominator for x in row))
        out.append((d, [x.numerator * (d // x.denominator) for x in row]))
    return out


def mat_mul(A, B):
    """A B: each entry is an integer row of A times an integer column of B,
    over the product of their two denominators."""
    assert len(A[0]) == len(B)
    cols = _int_rows(zip(*B))
    return [[Fraction(sum(map(mul, ra, cb)), da * db) for db, cb in cols]
            for da, ra in _int_rows(A)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def vec_mat(v, A):
    return [sum(x * A[i][j] for i, x in enumerate(v)) for j in range(len(A[0]))]


def det(A):
    """Determinant by Bareiss fraction-free elimination on integer rows.

    Entries are ints or Fractions. Each row is scaled to integers by the lcm
    of its denominators, and the integer determinant is divided by the
    product of those scales. Every division in the elimination is exact
    (Bareiss, Math. Comp. 22, 1968).
    """
    n = len(A)
    if n == 0:
        return Fraction(1)
    scale = 1
    M = []
    for d, row in _int_rows(A):
        scale *= d
        M.append(row)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        top = M[c]
        p = top[c]
        for r in range(c + 1, n):
            row = M[r]
            a = row[c]
            for j in range(c + 1, n):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
    return Fraction(sign * M[n - 1][n - 1], scale)


def _reduce(M, ncols):
    """Gauss-Jordan on the first ncols columns of M, in place; returns pivot columns.

    Rows of M are Fractions; afterwards M is in reduced row echelon form there.
    """
    m = len(M)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return pivots


def solve(A, b):
    """Solve A x = b for square invertible A; b a vector."""
    n = len(A)
    M = [
        [Fraction(x) for x in row] + [bb]
        for row, bb in zip(A, [Fraction(x) for x in b])
    ]
    if len(_reduce(M, n)) < n:
        raise DomainError("singular matrix in solve")
    return [M[i][n] for i in range(n)]


def inverse(A):
    n = len(A)
    M = [
        [Fraction(x) for x in row] + ident_row
        for row, ident_row in zip(A, identity(n))
    ]
    if len(_reduce(M, n)) < n:
        raise DomainError("matrix not invertible")
    return [row[n:] for row in M]


def nullspace(A):
    """Basis (list of vectors) of the right kernel of A."""
    if not A:
        return []
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M[0])
    pivots = _reduce(M, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


def charpoly(A) -> Poly:
    """det(x*I - A) as a monic Poly, by the Faddeev-LeVerrier recurrence."""
    n = len(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [row[:] for row in A]
    c = -sum(M[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        M = mat_mul(A, mat_add(M, mat_scale(identity(n), c)))
        c = -Fraction(sum(M[i][i] for i in range(n)), k)
        coeffs[n - k] = c
    return Poly(coeffs)


def congruence(U, A):
    """U^T A U."""
    return mat_mul(transpose(U), mat_mul(A, U))


def is_symmetric(A):
    n = len(A)
    return all(len(r) == n for r in A) and all(
        A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n)
    )


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the unique echelon basis of the row lattice: pivots positive,
    entries above each pivot reduced into [0, pivot). Zero rows are dropped.
    """
    A = [[int(x) for x in row] for row in rows]
    if not A:
        return []
    m, n = len(A), len(A[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            A[r], A[i0] = A[i0], A[r]
            if all(A[i][c] == 0 for i in range(r + 1, m)):
                break
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        if A[r][c] if r < m else 0:
            if A[r][c] < 0:
                A[r] = [-a for a in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
            if r == m:
                break
    out = [row for row in A[:r]]
    return out
