"""Rings and oriented module classes attached to integral binary forms.

For an integral f of degree n with f0 != 0 and theta the class of x in
L = Q[x]/(g), g = f(x,1)/f0, the ring R_f has Z-basis
1, zeta_1, ..., zeta_(n-1) with zeta_k = f0 theta^k + f1 theta^(k-1) + ...
+ f_(k-1) theta. The modules I_f(k) with basis 1, theta, ..., theta^k,
zeta_(k+1), ..., zeta_(n-1) are R_f-stable, I_f(k) = I_f(1)^k, and the signed
norm of I_f(k) is 1/f0^k. The integer multiplication table of R_f has a
closed form (Nakagawa, Invent. Math. 97, 1989; Wood, J. London Math. Soc. 83,
2011): with zeta_0 = 1 and zeta_n = -f_n, for 1 <= i <= j <= n-1,
    zeta_i zeta_j = sum_(k=j+1)^(min(i+j,n)) f_(i+j-k) zeta_k
                    - sum_(k=max(i+j-n,1))^(i) f_(i+j-k) zeta_k.
The basis rows are triangular with diagonal f0, so coordinates come by
integer back-substitution, exact after one scaling by a power of f0. Ideals
are stored with a global denominator and an integer HNF basis in R_f
coordinates, an orientation sign, and a module bit that only `unit_ideal`,
`power_ideal`, `ideal_mul` (R I J = I (R J)) and `scalar_ideal` set, each when
it knows R_f I = I. Products of ideals and scalars multiply those integer rows
through the table, one dot product per coordinate over the table columns
precomputed with the order, then take the HNF. Each ideal keeps the powers
`ideal_pow` has computed, so R_f I^k costs one product per new k. Membership
is integer forward substitution on the HNF of the basis, which is upper
triangular with a positive diagonal, and the norm of an ideal in HNF is the
product of that diagonal.
The module pair of (I, alpha) reads off the same table products: the
zeta_(n-2) and zeta_(n-1) coordinates of b_i b_j / alpha are its coordinates
on the last two vectors of the natural basis of I_f(n-3), whose other vectors
span the same space as zeta_0, ..., zeta_(n-3), and (I, alpha) passes the
containment test when all of those natural coordinates are integers.
"""

from fractions import Fraction
from math import gcd as int_gcd, prod
from operator import mul

from .binforms import BinaryForm
from .errors import DomainError
from .etale import EtaleAlgebra
from .linalg import _clear, det, hnf, vec_mat
from .pencil import SymPair, invariant_binary_form


class Order:
    """R_f: basis zeta_k (integer rows Z in the power basis) and table, read off f."""

    def __init__(self, f: BinaryForm):
        if not f.is_integral:
            raise DomainError("form must have integer coefficients")
        if f.f0 == 0:
            raise DomainError("f0 = 0")
        if f.disc() == 0:
            raise DomainError("form is degenerate")
        self.f = f
        self.algebra = EtaleAlgebra(f.monic_part())
        n = f.n
        a = [int(c) for c in f.coeffs]
        self.Z = [[a[k - m] if 0 < m <= k else int(k == m) for m in range(n)] for k in range(n)]
        T = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = [0] * (n + 1)
                c[j] = int(i == 0)  # zeta_0 zeta_j = zeta_j
                for k in range(j + 1, min(i + j, n) + 1):
                    c[k] = a[i + j - k]
                for k in range(max(i + j - n, 1), i + 1):
                    c[k] = -a[i + j - k]
                c[0] -= a[n] * c[n]  # zeta_n = -f_n
                T[i][j] = T[j][i] = tuple(c[:n])
        self.table = T
        # cols[k][j][i] = coordinate k of zeta_i zeta_j
        self.cols = [[tuple(T[i][j][k] for i in range(n)) for j in range(n)] for k in range(n)]

    @property
    def n(self):
        return self.f.n

    def to_basis(self, elem):
        """Coordinates of an algebra element in the zeta basis."""
        d, c = self._coords(elem)
        return [Fraction(x, d) for x in c]

    def _coords(self, elem):
        """(d, c): the zeta coordinates of elem are the integers c over d > 0."""
        if elem.A != self.algebra:
            raise DomainError("elements of different algebras")
        p = elem.poly()
        d, c = self._natural([*p.num, *[0] * (self.n - len(p.num))], 0)
        return d * p.den, c

    def natural_coords(self, x, k):
        """Coordinates of the power-basis vector x in the basis 1, theta, ...,
        theta^k, zeta_(k+1), ..., zeta_(n-1) of I_f(k)."""
        d, (v,) = _clear([x])
        e, c = self._natural(v, k)
        return [Fraction(y, d * e) for y in c]

    def _natural(self, v, k):
        """(e, c): natural_coords(v, k) as the integers c over e = |f0|^(n-1-k), for
        an integer v; on v f0^(n-1-k), each division by f0 is exact."""
        f0, n = self.Z[-1][-1], len(v)  # Z[n-1][n-1] = f0; n = 1 divides by nothing
        s = f0 ** max(n - 1 - k, 0)
        c = [x * s for x in v]
        for m in range(n - 1, k, -1):
            q = c[m] = c[m] // f0
            for j, z in enumerate(self.Z[m][1:m], 1):
                c[j] -= q * z
        return (s, c) if s > 0 else (-s, [-x for x in c])

    def from_basis(self, coords):
        return self.algebra.element(vec_mat(coords, self.Z))

    def __eq__(self, other):
        if isinstance(other, Order):
            return self.f == other.f
        return NotImplemented


def form_order(f: BinaryForm) -> Order:
    return Order(f)


def order_disc(order: Order) -> Fraction:
    """det of the trace form on the basis of R_f; equals disc(f). Tr(zeta_i zeta_j)
    is T[i][j] dotted with the integers Tr(zeta_k), each Z[k] dotted with p / D."""
    D, (p,) = _clear([order.algebra.power_sums[:order.n]])
    tr = [sum(map(mul, row, p)) // D for row in order.Z]
    return det([[sum(map(mul, t, tr)) for t in row] for row in order.table])


class OrientedIdeal:
    """Full-rank R_f-lattice with orientation: the rows of the tuple mat over den,
    in the zeta basis. The bit `module` (R_f I = I is known) is False unless a
    constructor below that proves it sets it; `_pows` holds the powers that
    `ideal_pow` has computed."""

    __slots__ = ("order", "den", "mat", "eps", "module", "_pows")

    def __init__(self, order, den, mat, eps):
        if eps not in (1, -1) or den <= 0:
            raise DomainError("ideal needs eps = +1 or -1 and a positive denominator")
        g = int_gcd(den, *(x for row in mat for x in row))
        self.order = order
        self.den = den // g
        self.mat = tuple(map(tuple, mat if g == 1 else ([x // g for x in row] for row in mat)))
        self.eps = eps
        self.module = False
        self._pows = None

    def norm(self) -> Fraction:
        """eps det(mat) / den^n; the determinant is the product of the diagonal
        when mat is upper triangular (every HNF), else a Bareiss elimination."""
        M, n = self.mat, self.order.n
        upper = not any(M[i][j] for i in range(1, n) for j in range(i))
        d = prod(M[i][i] for i in range(n)) if upper else det(M)
        return self.eps * Fraction(d, self.den ** n)

    def contains(self, elem) -> bool:
        """Is elem in the lattice?"""
        return self._holds(*self.order._coords(elem))

    def _holds(self, d, *vs) -> bool:
        """Are all the zeta coordinate rows v / d in the lattice: is y H = den v / d
        integral for H = hnf(mat)? H is upper triangular with a positive diagonal,
        so y comes by forward substitution; the first inexact division says no."""
        H = hnf(self.mat)
        if len(H) != self.order.n:
            raise DomainError("ideal basis is not full rank")
        for v in vs:
            y = []
            for c, col in zip(v, zip(*H)):
                q, r = divmod(self.den * c - d * sum(map(mul, y, col)), d * col[len(y)])
                if r:
                    return False
                y.append(q)
        return True

    def __eq__(self, other):
        if isinstance(other, OrientedIdeal):
            return (
                self.order == other.order
                and self.den == other.den
                and self.mat == other.mat
                and self.eps == other.eps
            )
        return NotImplemented

    def __repr__(self):
        return "OrientedIdeal(den=%d, mat=%r, eps=%d)" % (self.den, self.mat, self.eps)


def _products(order, A, B):
    """Zeta coordinates of a*b for integer coordinate rows a in A, b in B:
    M[k][j], coordinate k of a zeta_j, is a dotted with a table column."""
    out = []
    for a in A:
        M = [[sum(map(mul, a, col)) for col in cols] for cols in order.cols]
        out.extend([sum(map(mul, b, row)) for row in M] for b in B)
    return out


def _ideal_from_rows(order, den, rows, eps, module):
    """The ideal spanned by the integer rows over den, with eps and module."""
    H = hnf(rows)
    if len(H) != order.n:
        raise DomainError("ideal basis is not full rank")
    ideal = OrientedIdeal(order, den, H, eps)
    ideal.module = module
    return ideal


def unit_ideal(order: Order) -> OrientedIdeal:
    n = order.n
    ideal = OrientedIdeal(order, 1, [[int(i == j) for j in range(n)] for i in range(n)], 1)
    ideal.module = True
    return ideal


def power_ideal(order: Order, k: int) -> OrientedIdeal:
    """I_f(k), 0 <= k <= n-1; signed norm 1/f0^k."""
    n = order.n
    if not 0 <= k <= n - 1:
        raise DomainError("k out of range")
    # the natural basis in zeta coordinates over e: theta^j for j <= k, then zeta_j;
    # lower triangular with diagonal 1, 1/f0 (k times), 1, ..., so eps = sign(f0)^k
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    nat = [order._natural(row, 0) for row in unit[:k + 1]]
    e = nat[0][0]
    rows = [c for _, c in nat] + [[e * x for x in row] for row in unit[k + 1:]]
    ideal = _ideal_from_rows(order, e, rows, -1 if order.f.f0 < 0 and k % 2 else 1, True)
    assert ideal.norm() == Fraction(1) / order.f.f0**k
    return ideal


def ideal_mul(I: OrientedIdeal, J: OrientedIdeal) -> OrientedIdeal:
    if I.order != J.order:
        raise DomainError("ideals of different orders")
    rows = _products(I.order, I.mat, J.mat)
    return _ideal_from_rows(I.order, I.den * J.den, rows, I.eps * J.eps, I.module or J.module)


def ideal_pow(I: OrientedIdeal, k: int) -> OrientedIdeal:
    """R_f I^k. I keeps the powers R_f I^j (j >= 1) it has computed, so each
    costs one product, made once: R_f I is I when its module bit is set (kept
    as None, so that I holds no reference to itself), else the product R_f I;
    then R_f I^(j+1) = R_f I^j I. Each is the one reduced HNF over the least
    denominator of its lattice."""
    if k < 0:
        raise DomainError("negative ideal power")
    if k == 0:
        return unit_ideal(I.order)
    pows = I._pows = I._pows or [None if I.module else ideal_mul(unit_ideal(I.order), I)]
    while len(pows) < k:
        pows.append(ideal_mul(pows[-1] or I, I))
    return pows[k - 1] or I


def scalar_ideal(c, I: OrientedIdeal) -> OrientedIdeal:
    """The ideal c*I with orientation eps(I) * sign(N(c))."""
    nc = c.norm()
    if nc == 0:
        raise DomainError("scalar must be invertible")
    den, row = I.order._coords(c)
    eps = I.eps * (1 if nc > 0 else -1)
    return _ideal_from_rows(I.order, den * I.den, _products(I.order, [row], I.mat), eps, I.module)


def module_stable(I: OrientedIdeal) -> bool:
    """R_f * I = I as a lattice?"""
    return ideal_mul(unit_ideal(I.order), I).mat == tuple(map(tuple, hnf(I.mat)))


def _module_pair(order: Order, I: OrientedIdeal, alpha):
    """(message, A, B): message is None and (A, B) the pair when (I, alpha)
    is valid; otherwise message names the first condition that fails.

    b_i b_j lies in alpha*I_f(n-3) exactly when the coordinates of
    b_i b_j / alpha in the natural basis of I_f(n-3) are integers. Those are
    table products over the rows of I.mat (b_0 negated when eps = -1, which
    orients the basis) and the zeta row of 1/alpha: their zeta_(n-2) and
    zeta_(n-1) coordinates, and the theta^m coordinates sum_(k<=n-3) c_k Z[k][m].
    """
    n = order.n
    if n < 3:
        raise DomainError("module route needs n >= 3")
    if I.order != order:
        raise DomainError("ideal of a different order")
    if not alpha.is_unit:
        raise DomainError("alpha must be invertible")
    da, ainv = order._coords(alpha.inverse())
    den = I.den * I.den * da
    rows = [[-x for x in I.mat[0]], *I.mat[1:]] if I.eps < 0 else I.mat
    bb = [p for i in range(n) for p in _products(order, [rows[i]], rows[i:])]
    Zcols = list(zip(*order.Z[:n - 2]))[:n - 2]
    A = [[None] * n for _ in range(n)]
    B = [[None] * n for _ in range(n)]
    ij = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), c in zip(ij, _products(order, [ainv], bb)):
        nat = [sum(map(mul, c, col)) for col in Zcols] + c[n - 2:]
        if any(x % den for x in nat):
            return ("product of basis elements %d and %d escapes alpha*I_f(%d)" % (i, j, n - 3),
                    None, None)
        A[i][j] = A[j][i] = nat[n - 1] // den
        B[i][j] = B[j][i] = nat[n - 2] // den
    if I.norm() ** 2 != alpha.norm() / order.f.f0 ** (n - 3):
        return "norm condition N(I)^2 = N(alpha)/f0^(n-3) fails", None, None
    return None, A, B


def ideal_pair_valid(order: Order, I: OrientedIdeal, alpha):
    """(ok, message): I^2 inside alpha*I_f(n-3) and N(I)^2 = N(alpha)/f0^(n-3)."""
    msg = _module_pair(order, I, alpha)[0]
    return msg is None, msg


def ideal_pair_to_matrices(order: Order, I: OrientedIdeal, alpha) -> SymPair:
    """Integral symmetric pair with invariant form f from a valid (I, alpha).

    Entries are the zeta_(n-1) and zeta_(n-2) coefficients of b_i b_j / alpha
    expanded in the natural basis of I_f(n-3), for the oriented basis b of I:
    its rows over den, b_0 negated when eps = -1.
    """
    msg, A, B = _module_pair(order, I, alpha)
    if msg is not None:
        raise DomainError(msg)
    pair = SymPair(A, B)
    assert invariant_binary_form(pair) == order.f
    return pair


def rational_params_of_pair(order: Order, I: OrientedIdeal, alpha):
    """(gamma, t) = (f0 * alpha, f0^(n-1) * N(I)) for the orbit of the pair."""
    if order.n < 3:
        raise DomainError("module route needs n >= 3")
    f0 = order.f.f0
    return f0 * alpha, f0 ** (order.n - 1) * I.norm()


def canonical_odd_orbit(order: Order):
    """(pair, I, alpha) for the distinguished orbit when n is odd.

    I = I_f(1)^((n-3)/2), alpha = 1; the rational parameters come out as
    (f0, f0^((n+1)/2)).
    """
    n = order.n
    if n < 3 or n % 2 == 0:
        raise DomainError("canonical orbit needs odd n >= 3")
    I = ideal_pow(power_ideal(order, 1), (n - 3) // 2)
    alpha = order.algebra.one
    pair = ideal_pair_to_matrices(order, I, alpha)
    return pair, I, alpha


def inverse_different_check(order: Order):
    """(contained, index) for R_f inside (1/f'(theta)) I_f(n-2).

    Also verifies on the full basis that Tr(lambda mu / f'(theta)) equals the
    zeta_(n-1) coefficient of lambda mu in the natural basis of I_f(n-2).
    For zeta_i zeta_j both sides are T[i][j] dotted with their values at the
    zeta_k, Z[k] dotted with Tr(theta^m / f'(theta)) and Z[k][n-1] / f0; with
    T[0][k] = e_k, they agree on all products exactly when those values agree.
    """
    n = order.n
    if n < 2:
        raise DomainError("need n >= 2")
    fpinv = order.algebra.from_poly(order.f.dehomogenized().derivative()).inverse()
    Ddual = scalar_ideal(fpinv, power_ideal(order, n - 2))
    contained = Ddual._holds(1, *([int(i == j) for j in range(n)] for i in range(n)))
    shifted = [fpinv.trace(shift=m) for m in range(n)]
    traces = [sum(map(mul, row, shifted)) for row in order.Z]
    tops = [Fraction(row[n - 1], order.f.f0) for row in order.Z]
    assert traces == tops
    index = Fraction(1) / abs(Ddual.norm())
    assert index.denominator == 1
    return contained, int(index)
