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
back-substitution. Ideals are stored with a global denominator and an integer
HNF basis in R_f coordinates, plus an orientation sign. Products of ideals and
scalars multiply those integer rows through the table, then take the HNF.
"""

from fractions import Fraction
from math import gcd as int_gcd
from operator import mul

from .binforms import BinaryForm
from .errors import DomainError
from .etale import EtaleAlgebra
from .linalg import _clear, det, hnf, solve, transpose, vec_mat
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
        self.basis = [self.algebra.element(row) for row in self.Z]
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

    @property
    def n(self):
        return self.f.n

    def to_basis(self, elem):
        """Coordinates of an algebra element in the zeta basis."""
        if elem.A != self.algebra:
            raise DomainError("elements of different algebras")
        return self.natural_coords(elem.coords, 0)

    def natural_coords(self, x, k):
        """Coordinates of the power-basis vector x in the basis 1, theta, ...,
        theta^k, zeta_(k+1), ..., zeta_(n-1) of I_f(k), by back-substitution:
        zeta_m (m >= 1) has top coefficient f0 at theta^m and no constant term."""
        c = [Fraction(v) for v in x]
        for m in range(len(c) - 1, k, -1):
            c[m] /= self.f.f0
            for j in range(1, m):
                c[j] -= c[m] * self.Z[m][j]
        return c

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
    is T[i][j] dotted with the Tr(zeta_k), each Z[k] dotted with the power sums."""
    p = order.algebra.power_sums
    tr = [sum(map(mul, row, p)) for row in order.Z]
    return det([[sum(map(mul, t, tr)) for t in row] for row in order.table])


class OrientedIdeal:
    """Full-rank R_f-lattice with orientation: rows/den in the zeta basis."""

    __slots__ = ("order", "den", "mat", "eps")

    def __init__(self, order, den, mat, eps):
        if eps not in (1, -1) or den <= 0:
            raise DomainError("ideal needs eps = +1 or -1 and a positive denominator")
        g = int_gcd(den, *(x for row in mat for x in row))
        self.order = order
        self.den = den // g
        self.mat = [[x // g for x in row] for row in mat]
        self.eps = eps

    def norm(self) -> Fraction:
        return self.eps * Fraction(det(self.mat), Fraction(self.den) ** self.order.n)

    def basis_elements(self):
        return [
            self.order.from_basis([Fraction(x, self.den) for x in row])
            for row in self.mat
        ]

    def oriented_basis(self):
        """Basis whose wedge equals norm * (top wedge of the R_f basis)."""
        elems = self.basis_elements()
        if self.eps < 0:
            elems[0] = -elems[0]
        return elems

    def contains(self, elem) -> bool:
        x = self.order.to_basis(elem)
        y = solve(transpose(self.mat), [self.den * c for c in x])
        return all(c.denominator == 1 for c in y)

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


def _comb(c, rows):
    """The integer combination sum c_i rows_i, skipping the zero c_i."""
    terms = [(x, r) for x, r in zip(c, rows) if x]
    return [sum(x * r[k] for x, r in terms) for k in range(len(rows[0]))]


def _products(order, A, B):
    """Zeta coordinates of a*b for integer coordinate rows a in A, b in B."""
    by_j = list(zip(*order.table))  # by_j[j][i] = T[i][j], zeta_i zeta_j
    out = []
    for a in A:
        Ma = [_comb(a, col) for col in by_j]  # row j: a zeta_j
        out.extend(_comb(b, Ma) for b in B)
    return out


def _ideal_from_rows(order, den, rows, eps):
    """The ideal spanned by the integer rows over den, oriented by eps."""
    H = hnf(rows)
    if len(H) != order.n:
        raise DomainError("ideal basis is not full rank")
    return OrientedIdeal(order, den, H, eps)


def unit_ideal(order: Order) -> OrientedIdeal:
    n = order.n
    return OrientedIdeal(order, 1, [[int(i == j) for j in range(n)] for i in range(n)], 1)


def power_ideal(order: Order, k: int) -> OrientedIdeal:
    """I_f(k), 0 <= k <= n-1; signed norm 1/f0^k."""
    n = order.n
    if not 0 <= k <= n - 1:
        raise DomainError("k out of range")
    # the natural basis in zeta coordinates: theta^j for j <= k, then zeta_j
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [order.natural_coords(e, 0) for e in unit[:k + 1]] + unit[k + 1:]
    ideal = _ideal_from_rows(order, *_clear(rows), 1 if det(rows) > 0 else -1)
    assert ideal.norm() == Fraction(1) / order.f.f0**k
    return ideal


def ideal_mul(I: OrientedIdeal, J: OrientedIdeal) -> OrientedIdeal:
    if I.order != J.order:
        raise DomainError("ideals of different orders")
    rows = _products(I.order, I.mat, J.mat)
    return _ideal_from_rows(I.order, I.den * J.den, rows, I.eps * J.eps)


def ideal_pow(I: OrientedIdeal, k: int) -> OrientedIdeal:
    if k < 0:
        raise DomainError("negative ideal power")
    out = unit_ideal(I.order)
    for _ in range(k):
        out = ideal_mul(out, I)
    return out


def scalar_ideal(c, I: OrientedIdeal) -> OrientedIdeal:
    """The ideal c*I with orientation eps(I) * sign(N(c))."""
    nc = c.norm()
    if nc == 0:
        raise DomainError("scalar must be invertible")
    den, (row,) = _clear([I.order.to_basis(c)])
    eps = I.eps * (1 if nc > 0 else -1)
    return _ideal_from_rows(I.order, den * I.den, _products(I.order, [row], I.mat), eps)


def module_stable(I: OrientedIdeal) -> bool:
    """R_f * I = I as a lattice?"""
    return ideal_mul(unit_ideal(I.order), I).mat == hnf(I.mat)


def ideal_pair_valid(order: Order, I: OrientedIdeal, alpha):
    """(ok, message): I^2 inside alpha*I_f(n-3) and N(I)^2 = N(alpha)/f0^(n-3)."""
    n = order.n
    if n < 3:
        raise DomainError("module route needs n >= 3")
    if not alpha.is_unit:
        raise DomainError("alpha must be invertible")
    target = scalar_ideal(alpha, power_ideal(order, n - 3))
    bs = I.basis_elements()
    for i in range(n):
        for j in range(i, n):
            if not target.contains(bs[i] * bs[j]):
                return False, "product of basis elements %d and %d escapes alpha*I_f(%d)" % (
                    i, j, n - 3)
    if I.norm() ** 2 != alpha.norm() / order.f.f0 ** (n - 3):
        return False, "norm condition N(I)^2 = N(alpha)/f0^(n-3) fails"
    return True, None


def ideal_pair_to_matrices(order: Order, I: OrientedIdeal, alpha) -> SymPair:
    """Integral symmetric pair with invariant form f from a valid (I, alpha).

    Entries are the zeta_(n-1) and zeta_(n-2) coefficients of b_i b_j / alpha
    expanded in the natural basis of I_f(n-3), for the oriented basis b of I.
    """
    ok, msg = ideal_pair_valid(order, I, alpha)
    if not ok:
        raise DomainError(msg)
    n = order.n
    bs = I.oriented_basis()
    ainv = alpha.inverse()
    A = [[None] * n for _ in range(n)]
    B = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            coords = order.natural_coords((bs[i] * bs[j] * ainv).coords, n - 3)
            assert all(c.denominator == 1 for c in coords)
            A[i][j] = A[j][i] = coords[n - 1]
            B[i][j] = B[j][i] = coords[n - 2]
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
    zeta_k: Tr(zeta_k / f'(theta)), and Z[k][n-1] / f0.
    """
    n = order.n
    if n < 2:
        raise DomainError("need n >= 2")
    L = order.algebra
    fprime = L.from_poly(order.f.dehomogenized().derivative())
    fpinv = fprime.inverse()
    Ddual = scalar_ideal(fpinv, power_ideal(order, n - 2))
    contained = all(Ddual.contains(b) for b in order.basis)
    traces = [(b * fpinv).trace() for b in order.basis]
    tops = [Fraction(row[n - 1], order.f.f0) for row in order.Z]
    assert all(sum(map(mul, t, traces)) == sum(map(mul, t, tops))
               for row in order.table for t in row)
    index = Fraction(1) / abs(Ddual.norm())
    assert index.denominator == 1
    return contained, int(index)
