"""Conjugation invariants of n x n matrices for the block subgroup fixing e_n.

The invariants of T are the characteristic coefficients c_1..c_n (signs so
that c_1 = trace, c_n = det for n = 2) together with the moments
a_j = (T^j)_(n,n). The regularity determinant D is the Hankel determinant of
the moment sequence; when D != 0 the invariants pin down a unique orbit and
the conjugator between two matrices with equal invariants is unique.
Moments, the conjugator and its uniqueness come from integer Krylov vectors
T^j e_n and fraction-free eliminations on the cleared matrices.
"""

from fractions import Fraction
from operator import mul

from .errors import DomainError
from .linalg import _bareiss, _clear, charpoly, det, inverse, mat_mul


class AdjointInvariants:
    __slots__ = ("c", "a")

    def __init__(self, c, a):
        self.c = tuple(Fraction(x) for x in c)
        self.a = tuple(Fraction(x) for x in a)
        if len(self.a) != len(self.c) - 1:
            raise DomainError("need n charpoly coefficients and n-1 moments")

    @property
    def n(self):
        return len(self.c)

    def __eq__(self, other):
        if isinstance(other, AdjointInvariants):
            return self.c == other.c and self.a == other.a
        return NotImplemented

    def __repr__(self):
        return "AdjointInvariants(c=%r, a=%r)" % (list(self.c), list(self.a))


def _square(*Ts):
    """(D, D T as integer rows) for each T, cleared once; DomainError unless
    square, nonempty, one size."""
    Ms = [_clear(T) for T in Ts]
    n = len(Ms[0][1])
    if not n or any(len(M) != n or any(len(row) != n for row in M) for _, M in Ms):
        raise DomainError("expected nonempty square matrices of one size")
    return Ms


def _krylov(B, count):
    """[B^j e_n for j < count] on the integer rows B."""
    vs = [[0] * (len(B) - 1) + [1]]
    while len(vs) < count:
        vs.append([sum(map(mul, row, vs[-1])) for row in B])
    return vs


def adjoint_invariants(T) -> AdjointInvariants:
    """c from `charpoly` of B = D T, whose coefficient of x^(n-i) is D^i
    times T's, and a_j = (T^j)_(n,n), the last entry of the Krylov vector
    B^j e_n over D^j."""
    (D, B), = _square(T)
    n = len(B)
    P = charpoly(B)  # monic, integer numerators low-order first over P.den
    c = [Fraction((-1) ** i * P.num[n - i], P.den * D ** i) for i in range(1, n + 1)]
    a = [Fraction(v[n - 1], D ** j) for j, v in enumerate(_krylov(B, n)) if j]
    return AdjointInvariants(c, a)


def _moments(inv: AdjointInvariants, count):
    """m_0..m_(count-1), extended past n-1 by the charpoly recurrence."""
    n = inv.n
    m = [Fraction(1)] + list(inv.a)
    while len(m) < count:
        k = len(m)
        m.append(sum((-1) ** (i + 1) * inv.c[i - 1] * m[k - i] for i in range(1, n + 1)))
    return m[:count]


def regularity_D(T) -> Fraction:
    """det[(T^(i+j))_(n,n)] for 0 <= i, j <= n-1, computed from powers of T:
    the last entries of the Krylov vectors (D T)^k e_n, D^(i+j) times the
    entries, so the integer determinant is D^(n(n-1)) times the rational one."""
    (D, B), = _square(T)
    n = len(B)
    vs = _krylov(B, 2 * n - 1)
    return det([[vs[i + j][-1] for j in range(n)] for i in range(n)]) / D ** (n * (n - 1))


def d_determinant(inv: AdjointInvariants) -> Fraction:
    """The same Hankel determinant computed from the invariants alone."""
    n = inv.n
    m = _moments(inv, 2 * n - 1)
    H = [[m[i + j] for j in range(n)] for i in range(n)]
    return det(H)


def adjoint_canonical_rep(inv: AdjointInvariants):
    """Representative with the given invariants, built on the cyclic model.

    Multiplication by x on Q[x]/(charpoly) in the basis
    (x - m_1, x^2 - m_2, ..., x^(n-1) - m_(n-1), 1) has moments exactly m_j.
    """
    if d_determinant(inv) == 0:
        raise DomainError("irregular: moment determinant vanishes")
    n = inv.n
    # companion matrix of the characteristic polynomial in the power basis
    p = [(-1) ** i * inv.c[i - 1] for i in range(1, n + 1)]  # monic tail coeffs
    C = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = Fraction(1)
    for i in range(n):
        C[i][n - 1] = -p[n - 1 - i]
    # basis columns in power coordinates: u_k = x^k - m_k, u_n = 1
    S = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n):
        S[k][k - 1] = Fraction(1)
        S[0][k - 1] = -inv.a[k - 1]
    S[0][n - 1] = Fraction(1)
    T = mat_mul(inverse(S), mat_mul(C, S))
    assert adjoint_invariants(T) == inv
    return T


def adjoint_conjugator(T, Tprime):
    """g with g T g^-1 = T', g e_n = e_n, e_n^T g = e_n^T; unique when D != 0.

    The invariants are compared on integers, as `adjoint_invariants` reads
    them: c_i is (-1)^i times coefficient n - i of `charpoly(B)` over D^i,
    and a_j the last entry of the Krylov vector B^j e_n over D^j, so each
    pair is compared cross-multiplied by the other side's D^i.
    D = `regularity_D(T)` = `d_determinant` (Cayley-Hamilton), read off the
    Krylov vectors B^j e_n, j < 2n - 1, of the integer B. Then g maps (T^j e_n)
    to (T'^j e_n), j < n: g^T solves Q^T X = Q'^T, one integer Bareiss solve.
    """
    (D, B), (Dp, Bp) = _square(T, Tprime)
    n = len(B)
    vs, vps = _krylov(B, 2 * n - 1), _krylov(Bp, n)
    P, Pp = charpoly(B), charpoly(Bp)
    if not (all(P.num[n - i] * Pp.den * Dp ** i == Pp.num[n - i] * P.den * D ** i
                for i in range(1, n + 1))
            and all(vs[j][-1] * Dp ** j == vps[j][-1] * D ** j for j in range(1, n))):
        raise DomainError("invariants differ: matrices are not in the same orbit")
    if not det([[vs[i + j][-1] for j in range(n)] for i in range(n)]):
        raise DomainError("irregular: moment determinant vanishes")
    # row j of [Q^T | Q'^T], times (D D')^j
    M = [[x * Dp ** j for x in v] + [x * D ** j for x in vp]
         for j, (v, vp) in enumerate(zip(vs, vps))]
    pivots, d = _bareiss(M, n, True)
    assert len(pivots) == n
    G = [[M[j][n + i] for j in range(n)] for i in range(n)]  # d g
    # g T = T' g, times d D D'
    assert (mat_mul(G, [[Dp * x for x in r] for r in B])
            == mat_mul([[D * x for x in r] for r in Bp], G))
    g = [[Fraction(x, d) for x in row] for row in G]
    assert all(g[i][n - 1] == (1 if i == n - 1 else 0) for i in range(n))
    assert all(g[n - 1][j] == (1 if j == n - 1 else 0) for j in range(n))
    return g


def conjugator_is_unique(T, Tprime) -> bool:
    """Trivial kernel of the linear system cutting out block conjugators.

    X e_n = 0 and e_n^T X = 0 leave the (n-1) x (n-1) block Y of X as the
    unknowns; X T - T' X = 0, cleared to D' X B - D B' X = 0 with B = D T
    and B' = D' T', gives n^2 integer rows in them. The kernel is trivial
    iff a fraction-free elimination finds (n-1)^2 pivots.
    """
    (D, B), (Dp, Bp) = _square(T, Tprime)
    n = len(B)
    m = n - 1
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (m * m)
            for k in range(m):
                if i < m:
                    row[i * m + k] += Dp * B[k][j]
                if j < m:
                    row[k * m + j] -= D * Bp[i][k]
            rows.append(row)
    return len(_bareiss(rows, m * m, False)[0]) == m * m
