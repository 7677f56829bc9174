"""Exact linear algebra over the rationals, plus integer Hermite normal form.

Matrices are rows of anything `Fraction()` accepts. `_clear` is the one
conversion: it makes integer rows over one denominator once per input (no
kernel calls the public `mat`), kernels run on integers, and `_fractions`
builds what they return. `det`, `solve`, `inverse` and `nullspace` share the
fraction-free `_bareiss`; `congruence` is `_congruence`, which `SymPair` and
`QuadForm` apply to their own rows. Mismatched shapes raise DomainError.
`hnf` is incremental, by Euclid's algorithm on row pairs.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DomainError
from .polys import Poly, _make


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def _clear(A):
    """(D, D * A as new integer rows), D the lcm of the denominators of the
    rows A (iterables of what `Fraction()` accepts); ints are only copied."""
    A = [list(row) for row in A]
    if all(type(x) is int for row in A for x in row):
        return 1, A
    A = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in A]
    D = lcm(*(x.denominator for row in A for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in A]


def _fractions(den, rows):
    """The Fraction matrix of integer rows over den, as `_clear` leaves them."""
    return [[Fraction(x, den) for x in row] for row in rows]


def _require(ok):
    if not ok:
        raise DomainError("matrix shapes do not match")


def _is_square(A):
    return set(map(len, A)) <= {len(A)}


def mat_mul(A, B):
    """A B: each entry is an integer row of A times an integer column of B,
    over the product of their two denominators."""
    _require(all(len(row) == len(B) for row in A))
    (da, A), (db, B) = _clear(A), _clear(B)
    cols = list(zip(*B))
    return [[Fraction(sum(map(mul, row, col)), da * db) for col in cols] for row in A]


def _int_mul(A, B):
    """A B for matrices of ints."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def vec_mat(v, A):
    """v A, with v and A each cleared once."""
    _require(len(v) == len(A) and all(len(row) == len(A[0]) for row in A))
    (dv, (v,)), (da, A) = _clear([v]), _clear(A)
    return [Fraction(sum(map(mul, v, col)), da * dv) for col in zip(*A)]


def _bareiss(M, ncols, jordan):
    """Fraction-free elimination of the integer rows M, in place.

    Pivots are taken in the first ncols columns; a swap negates the row it
    moves down, so determinants keep their sign. Every division is exact
    (Bareiss, Math. Comp. 22, 1968). Without jordan, only the rows below
    each pivot are cleared, right of the pivot column, and the first column
    without a pivot ends the loop. With jordan, every other row is cleared
    in every column and a column without a pivot is skipped; then each pivot
    equals the last one, d, and the pivot rows are d times the reduced row
    echelon form (Nakos, Turner and Williams, SIGSAM Bull. 31(3), 1997).
    Returns (pivot columns, d), with d = 1 when there is no pivot.
    """
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(M):
            break
        if not M[r][c]:
            piv = next((i for i in range(r + 1, len(M)) if M[i][c]), None)
            if piv is None:
                if jordan:
                    continue
                break
            M[r], M[piv] = M[piv], [-x for x in M[r]]
        top = M[r]
        p = top[c]
        cols = range(0 if jordan else c + 1, len(top))
        for row in M[:r] + M[r + 1:] if jordan else M[r + 1:]:
            a = row[c]
            for j in cols:
                row[j] = (p * row[j] - a * top[j]) // d
        d = p
        pivots.append(c)
    return pivots, d


def det(A):
    """Determinant by Bareiss elimination on the integer rows D * A:
    det(D A) / D^n."""
    _require(_is_square(A))
    D, M = _clear(A)
    pivots, last = _bareiss(M, len(M), False)
    return Fraction(last, D ** len(M)) if len(pivots) == len(M) else Fraction(0)


def solve(A, b):
    """Solve A x = b for square invertible A; b a vector."""
    n = len(A)
    _require(_is_square(A) and len(b) == n)
    _, M = _clear([[*row, x] for row, x in zip(A, b)])
    pivots, d = _bareiss(M, n, True)
    if len(pivots) < n:
        raise DomainError("singular matrix in solve")
    return [Fraction(row[n], d) for row in M]


def inverse(A):
    n = len(A)
    _require(_is_square(A))
    _, M = _clear([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(A)])
    pivots, d = _bareiss(M, n, True)
    if len(pivots) < n:
        raise DomainError("matrix not invertible")
    return [[Fraction(x, d) for x in row[n:]] for row in M]


def nullspace(A):
    """Basis (list of vectors) of the right kernel of A: one vector per
    column without a pivot, read off the reduced row echelon form."""
    if not A:
        return []
    n = len(A[0])
    _, M = _clear(A)
    pivots, d = _bareiss(M, n, True)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(M, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


def charpoly(A) -> Poly:
    """det(x*I - A) as a monic Poly, by the Faddeev-LeVerrier recurrence on
    B = D*A, D the lcm of the denominators: M_k = B (M_(k-1) + c_(k-1) I) and
    c_k = -tr(M_k) / k, exact on integers. A's coefficient k is c_k / D^k."""
    n = len(A)
    _require(_is_square(A))
    D, B = _clear(A)
    num = [0] * n + [D ** n]
    M, c = [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += c
        M = _int_mul(B, M)
        c = -sum(M[i][i] for i in range(n)) // k
        num[n - k] = c * D ** (n - k)
    return _make(num, D ** n)


def _congruence(U, den, *mats):
    """(E, (U^T M U for M in mats)) for integer m x m rows M over den and a
    rational m x k U: integer rows over E, the lcm of their denominators."""
    e, U = _clear(U)
    m, k = len(U), len(U[0]) if U else 0
    _require(all(len(row) == k for row in U)
             and all(len(M) == m and _is_square(M) for M in mats))
    Ut = list(zip(*U))
    out = [_int_mul(Ut, _int_mul(M, U)) for M in mats]
    g = gcd(den * e * e, *(x for M in out for row in M for x in row))
    return den * e * e // g, tuple([[x // g for x in row] for row in M] for M in out)


def congruence(U, A):
    """U^T A U for an m x k U and an m x m A, with U and A each cleared once."""
    den, (R,) = _congruence(U, *_clear(A))
    return _fractions(den, R)


def is_symmetric(A):
    return _is_square(A) and all(A[i][j] == A[j][i] for i in range(len(A)) for j in range(i))


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the unique echelon basis of the row lattice: pivots positive,
    entries above each pivot reduced into [0, pivot). Zero rows are dropped.
    Each row is inserted into an echelon basis kept by pivot column: where
    it meets a basis row's pivot, Euclid's algorithm on the two rows (each
    step a unimodular row operation, with remainders in [0, pivot)) leaves
    the gcd as the pivot and clears the row there, often in one step. Then
    each basis row, from the bottom up, is reduced by the finished rows
    below it.
    """
    basis = {}
    for row in rows:
        v = [int(x) for x in row]
        for c in range(len(v)):
            if not v[c]:
                continue
            b = basis.get(c)
            if b is None:
                basis[c] = v if v[c] > 0 else [-x for x in v]
                break
            while v[c]:
                q = v[c] // b[c]
                v = [y - q * x for x, y in zip(b, v)]
                if v[c]:
                    b, v = v, b
            basis[c] = b
    cols = sorted(basis)
    H = [basis[c] for c in cols]
    for i in range(len(H) - 2, -1, -1):
        row = H[i]
        for c, below in zip(cols[i + 1:], H[i + 1:]):
            q = row[c] // below[c]
            if q:
                row = [a - q * b for a, b in zip(row, below)]
        H[i] = row
    return H
