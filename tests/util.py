"""Shared generators and independent oracles for the test suite.

The random generators for forms, parameters and unimodular matrices are the
ones the selftest criteria draw from, so draw order and ranges are shared.

The oracles here deliberately avoid the package's own routines: determinants
are recomputed with a local elimination, resultants come from the Sylvester
matrix, and discriminants of low degree use the textbook closed forms.
The reference ideal products keep the algebra-element route (products of
basis elements, each a sum of the zeta_k as algebra elements, mapped back
through the reference order's Fraction inverse of the basis matrix, not the
library's integer back-substitution) that the integer-table products in
`orders` replaced, and put the rows in HNF by the min-abs loop that the
incremental insertion in `linalg.hnf` replaced. The reference ideal power keeps
the loop of k - 1 products from a fresh start on every call that the powers
each ideal keeps in `orders` replaced. The reference membership
keeps the Fraction solve that integer forward substitution replaced, on the
reference order's coordinates, and the reference validity of a
module pair tests each b_i b_j for membership in the ideal alpha*I_f(n-3),
where `orders` reads the integrality of natural coordinates off the table.
The reference order keeps the construction of R_f
from powers of theta, with its table, coordinates, discriminant and
inverse-different check by algebra products and the Fraction inverse of the
basis matrix, that the closed-form integer table and back-substitution
replaced. The reference witness searches keep the whole-cube scans
that the certificate-first, shell-only searches replaced: they decide
nothing in advance, so a None from them is an independent brute-force check.
The reference solve, inverse and nullspace keep the Fraction Gauss-Jordan
elimination that the integer fraction-free kernel in `linalg` replaced.
The reference multiplication matrix keeps the column-by-column products
a * beta^j that the shifted columns replaced, the reference algebra inverse
keeps the extended Euclid over Q that one solve with that matrix replaced,
and the reference component square root keeps the resultant-interpolated
norm N_0 and the Euclidean gcd over the field that the characteristic-
polynomial norm and the reduction modulo (z - s beta)^2 - a replaced, and
the reference Trager square root keeps that norm route in full (the norm
from the multiplication matrix's characteristic polynomial or from 2d + 1
resultants, factored by factor_poly), which residue symbols and a p-adic
lift, certified by a height bound, replaced.
The reference polynomial keeps the tuple of Fractions, with Euclidean
division over Q, that the integer numerators over one denominator in
`polys` replaced, and the reference invariant form keeps the Fraction
matrices sA - B that the integer matrices replaced.
The reference isotropy decision, equivalence and spin class keep the
squarefree parts of products of diagonal entries, taken by factoring, that
gcds of squarefree entries replaced, and the reference adjoint invariants
keep the Fraction charpoly and moments whose comparison the conjugator now
makes on integers, cross-multiplied.
The reference diagonalization, Hilbert symbol, sub-Pfaffians, pi invariant,
congruence g M g^T, characteristic polynomial and conjugator uniqueness keep
the Fraction routes that the integer kernels replaced: rational elimination
steps, valuations of the squarefree parts, Fraction minors and products,
Faddeev-LeVerrier over Q, and the nullspace of the full n^2-unknown system.
The reference congruence, matrix-vector products, orbit parameter and
stabilizer keep the Fraction matrices that the integer rows over one
denominator replaced: U^T A U and A v entry by entry, T = A^(-1) B from the
Fraction inverse with Fraction Krylov vectors, and each E_i(T) as a sum of
Fraction powers of T.
"""

import functools
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from quadpencil.acceptance import (  # noqa: F401  (shared with selftest)
    random_integral_form,
    random_monic_separable,
    random_param,
    unimodular,
)
from quadpencil.binforms import BinaryForm
from quadpencil.errors import DomainError
from quadpencil.etale import EtaleAlgebra, euler_trace_solve
from quadpencil.factor import factor_poly
from quadpencil.intutil import (
    divisors,
    factorint,
    is_square_rational,
    rational_sqrt,
    squarefree_part,
)
from quadpencil.linalg import charpoly
from quadpencil.orders import OrientedIdeal, ideal_mul, unit_ideal
from quadpencil.pencil import OrbitParam, StabilizerGroup
from quadpencil.polys import X, Poly, is_squarefree, lagrange_interpolate, poly_gcdex, resultant


def frac_det(rows):
    """Fraction-exact determinant by Gaussian elimination, local to the tests."""
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        out *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] == 0:
                continue
            factor = M[r][c] * inv
            for k in range(c, n):
                M[r][k] -= factor * M[c][k]
    return sign * out


def sylvester_resultant(p, q):
    """Res(p, q) as the determinant of the Sylvester matrix."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return Fraction(0)
    size = m + n
    # coefficient rows, highest power first
    pc = [p[m - i] for i in range(m + 1)]
    qc = [q[n - i] for i in range(n + 1)]
    rows = []
    for shift in range(n):
        rows.append([Fraction(0)] * shift + pc + [Fraction(0)] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([Fraction(0)] * shift + qc + [Fraction(0)] * (size - shift - n - 1))
    return frac_det(rows)


def quadratic_disc(a, b, c):
    return Fraction(b) ** 2 - 4 * Fraction(a) * Fraction(c)


def cubic_disc(a, b, c, d):
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def random_skew(rng, n, lo=-5, hi=5):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(rng.randint(lo, hi))
            M[j][i] = -M[i][j]
    return M


def random_invertible(rng, n, lo=-3, hi=3):
    while True:
        M = [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if frac_det(M) != 0:
            return M


def random_rational(rng, m, k):
    """m x k matrix of small rationals over mixed denominators."""
    return [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))) for _ in range(k)]
            for _ in range(m)]


def reference_hnf(rows):
    """Row HNF by the min-abs loop that the incremental insertion in `linalg`
    replaced: per column, bring the entry of least absolute value up as the
    pivot and reduce the rows below by it until they are zero, then reduce
    the rows above into [0, pivot)."""
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
    return A[:r]


def order_basis(order):
    """The zeta_k of the order as algebra elements: the rows of Z."""
    return [order.algebra.element(row) for row in order.Z]


def ideal_basis(I):
    """The basis of I as algebra elements: each row over den, summed over
    the zeta_k of the order as algebra elements."""
    zero, zs = I.order.algebra.zero, order_basis(I.order)
    return [sum((Fraction(x, I.den) * z for x, z in zip(row, zs)), zero) for row in I.mat]


@functools.lru_cache(maxsize=None)
def _reference_order(f):
    return ReferenceOrder(f)


def _reference_ideal(order, elems, eps):
    """The ideal with generators elems: zeta coordinates by the reference
    order's to_basis, cleared of denominators over their lcm, then put in HNF."""
    R = _reference_order(order.f)
    return _reference_ideal_rows(order, [R.to_basis(e) for e in elems], eps)


def _reference_ideal_rows(order, rows, eps):
    den = lcm(*(c.denominator for row in rows for c in row))
    H = reference_hnf([[int(c * den) for c in row] for row in rows])
    assert len(H) == order.n
    return OrientedIdeal(order, den, H, eps)


def reference_ideal_mul(I, J):
    """I*J through algebra elements: the n^2 products of the two bases."""
    elems = [bi * bj for bi in ideal_basis(I) for bj in ideal_basis(J)]
    return _reference_ideal(I.order, elems, I.eps * J.eps)


def reference_ideal_pow(I, k):
    """R_f I^k by k - 1 products, started afresh on every call: from I when
    its module bit is set, else from the unit ideal."""
    if k < 0:
        raise DomainError("negative ideal power")
    out, k = (I, k - 1) if k and I.module else (unit_ideal(I.order), k)
    for _ in range(k):
        out = ideal_mul(out, I)
    return out


def reference_scalar_ideal(c, I):
    """c*I through algebra elements, oriented by eps(I) * sign(N(c))."""
    nc = c.norm()
    if nc == 0:
        raise DomainError("scalar must be invertible")
    elems = [c * b for b in ideal_basis(I)]
    return _reference_ideal(I.order, elems, I.eps * (1 if nc > 0 else -1))


def reference_module_stable(I):
    """R_f * I = I, by membership of every product zeta_i * b in I."""
    return all(reference_contains(I, z * b) for z in order_basis(I.order) for b in ideal_basis(I))


def reference_contains(I, elem):
    """Membership by the Fraction Gauss-Jordan solve of mat^T y = den x, x
    the zeta coordinates from the reference order."""
    x = _reference_order(I.order.f).to_basis(elem)
    y = reference_solve([list(col) for col in zip(*I.mat)], [I.den * c for c in x])
    return all(c.denominator == 1 for c in y)


def reference_pair_valid(R, I, alpha):
    """(ok, failed condition) of ideal_pair_valid through ideals: alpha*I_f(n-3)
    as the reference scalar ideal of the reference power ideal, each b_i b_j
    tested by `reference_contains`, and N(I) from frac_det."""
    n = R.f.n
    target = reference_scalar_ideal(alpha, reference_power_ideal(I.order, R, n - 3))
    bs = ideal_basis(I)
    if not all(reference_contains(target, bi * bj) for bi in bs for bj in bs):
        return False, "escapes"
    norm = I.eps * frac_det(I.mat) / Fraction(I.den) ** n
    if norm ** 2 != alpha.norm() / Fraction(R.f.f0) ** (n - 3):
        return False, "norm condition"
    return True, None


class ReferenceOrder:
    """R_f from algebra elements: zeta_k as a sum of powers of theta, and each
    table entry a product of two basis elements mapped back through the
    Fraction inverse Zinv of the basis matrix."""

    def __init__(self, f):
        self.f = f
        self.algebra = L = EtaleAlgebra(f.monic_part())
        n = f.n
        basis = [L.one]
        for k in range(1, n):
            zk = L.zero
            for i in range(k):
                zk = zk + f.coeffs[i] * L.beta ** (k - i)
            basis.append(zk)
        self.basis = basis
        self.Zinv = reference_inverse([list(b.coords) for b in basis])
        self.table = []
        for bi in basis:
            row = []
            for bj in basis:
                cs = self.to_basis(bi * bj)
                assert all(c.denominator == 1 for c in cs)
                row.append(tuple(int(c) for c in cs))
            self.table.append(row)

    def to_basis(self, elem):
        n = len(self.Zinv)
        return [sum((x * row[j] for x, row in zip(elem.coords, self.Zinv)), Fraction(0))
                for j in range(n)]

    def natural_basis(self, k):
        """1, theta, ..., theta^k, zeta_(k+1), ..., zeta_(n-1): the basis of I_f(k)."""
        return [self.algebra.beta ** j for j in range(k + 1)] + self.basis[k + 1:]

    def natural_coords(self, x, k):
        """Coordinates of the power-basis vector x in the natural basis of
        I_f(k), through the Fraction inverse of that basis matrix."""
        Winv = reference_inverse([list(e.coords) for e in self.natural_basis(k)])
        return [sum((Fraction(c) * row[j] for c, row in zip(x, Winv)), Fraction(0))
                for j in range(len(Winv))]


def reference_order_disc(R):
    """det of the trace form Tr(zeta_i zeta_j) from the n^2 products."""
    return frac_det([[(bi * bj).trace() for bj in R.basis] for bi in R.basis])


def reference_power_ideal(order, R, k):
    """I_f(k) from its natural basis of algebra elements, oriented by the
    sign of their determinant in the zeta basis."""
    rows = [R.to_basis(e) for e in R.natural_basis(k)]
    return _reference_ideal_rows(order, rows, 1 if frac_det(rows) > 0 else -1)


def reference_pair_matrices(R, I, alpha):
    """(A, B) of ideal_pair_to_matrices by algebra products: the basis of I
    from the zeta_k, b_0 negated if eps = -1, and each b_i b_j / alpha in the
    natural basis of I_f(n-3) through the Fraction inverse of its matrix."""
    n = R.f.n
    bs = [sum((Fraction(x, I.den) * z for x, z in zip(row, R.basis)), R.algebra.zero)
          for row in I.mat]
    if I.eps < 0:
        bs[0] = -bs[0]
    ainv = reference_alg_inverse(alpha)
    Winv = reference_inverse([list(e.coords) for e in R.natural_basis(n - 3)])
    C = [[[sum(c * row[k] for c, row in zip((bi * bj * ainv).coords, Winv)) for k in range(n)]
          for bj in bs] for bi in bs]
    return [[c[n - 1] for c in row] for row in C], [[c[n - 2] for c in row] for row in C]


def reference_inverse_different_check(R):
    """(contained, index, identity) for R_f inside D = (1/f'(theta)) I_f(n-2).

    D has the basis e / f'(theta) for e in the natural basis of I_f(n-2); each
    zeta_k is tested by a Fraction solve, and identity says whether
    Tr(lambda mu / f'(theta)) equals the zeta_(n-1) coefficient of lambda mu
    in that natural basis for all n^2 products of basis elements.
    """
    n = R.f.n
    L = R.algebra
    fpinv = reference_alg_inverse(L.from_poly(R.f.dehomogenized().derivative()))
    nat = R.natural_basis(n - 2)
    rows = [R.to_basis(fpinv * e) for e in nat]
    cols = [list(col) for col in zip(*rows)]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    contained = all(all(c.denominator == 1 for c in reference_solve(cols, e)) for e in unit)
    Winv = reference_inverse([list(e.coords) for e in nat])
    identity = True
    for lam in R.basis:
        for mu in R.basis:
            prod = lam * mu
            coeff = sum(x * row[n - 1] for x, row in zip(prod.coords, Winv))
            identity = identity and (prod * fpinv).trace() == coeff
    index = 1 / abs(frac_det(rows))
    return contained, index, identity


def reference_isotropy_witness(q, bound):
    """First zero y of the diagonal, height 1..bound, each whole cube
    [-h, h]^n scanned in lexicographic order and filtered to max |y_i| = h;
    mapped back through P and made primitive. The diagonalization is
    `reference_diagonalize`, the Fraction route, not the library's."""
    entries, P = reference_diagonalize(q)
    n = len(entries)
    for h in range(1, bound + 1):
        for y in product(range(-h, h + 1), repeat=n):
            if max(abs(c) for c in y) != h:
                continue
            if sum(entries[i] * y[i] * y[i] for i in range(n)) != 0:
                continue
            x = reference_mat_vec(P, [Fraction(c) for c in y])
            den = 1
            for c in x:
                den = den * c.denominator // gcd(den, c.denominator)
            ints = [int(c * den) for c in x]
            g = 0
            for c in ints:
                g = gcd(g, c)
            return [c // g for c in ints]
    return None


def reference_orbit_witness_search(f, bound):
    """First (alpha, t) with t^2 = f0 N(alpha): the whole cube [-h, h]^n at
    each height, filtered to the shell, and a norm for every vector and
    divisor of the numerator of f0."""
    L = EtaleAlgebra(f.monic_part())
    n = f.n
    dens = divisors(f.f0.numerator) if abs(f.f0.numerator) != 1 else [1]
    for h in range(bound + 1):
        for vec in product(range(-h, h + 1), repeat=n):
            if max((abs(v) for v in vec), default=0) != h:
                continue
            if all(v == 0 for v in vec):
                continue
            for den in dens:
                alpha = L.element([Fraction(v, den) for v in vec])
                nrm = alpha.norm()
                if nrm == 0:
                    continue
                val = f.f0 * nrm
                if is_square_rational(val):
                    return OrbitParam(L, alpha, rational_sqrt(val))
    return None


def _reference_reduce(M, ncols):
    """Fraction Gauss-Jordan on the first ncols columns of M, in place;
    returns the pivot columns. Afterwards M is in reduced row echelon form there."""
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


def reference_solve(A, b):
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(A, b)]
    if len(_reference_reduce(M, n)) < n:
        raise DomainError("singular matrix in solve")
    return [M[i][n] for i in range(n)]


def reference_inverse(A):
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    if len(_reference_reduce(M, n)) < n:
        raise DomainError("matrix not invertible")
    return [row[n:] for row in M]


def reference_nullspace(A):
    if not A:
        return []
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M[0])
    pivots = _reference_reduce(M, n)
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


def reference_mult_matrix(a):
    """Matrix of multiplication by a, column j the coordinates of a * beta^j."""
    cols = [(a * a.A.beta_pow(j)).coords for j in range(a.A.n)]
    return [[col[i] for col in cols] for i in range(a.A.n)]


def reference_alg_inverse(a):
    """Inverse of an algebra element by the extended Euclid over Q."""
    u, v, d = poly_gcdex(a.poly(), a.A.g)
    if d.degree != 0:
        raise DomainError("element is not invertible")
    return a.A.from_poly(u * (1 / d.lc))


def reference_component_norm(Li, a, s):
    """N_s(z) = Res_x(g(x), (z - s x)^2 - a(x)), interpolated at 2d + 1 points."""
    pts, vals = [], []
    z0 = 0
    while len(pts) < 2 * Li.n + 1:
        q = (Poly([z0]) - s * X) ** 2 - a.poly()
        pts.append(Fraction(z0))
        vals.append(resultant(Li.g, q))
        z0 = -z0 + (1 if z0 <= 0 else 0)
    return lagrange_interpolate(pts, vals)


def _reference_alg_poly_divmod(f, g):
    A = g[-1].A
    inv = reference_alg_inverse(g[-1])
    r = list(f)
    dg = len(g) - 1
    q = [A.zero] * max(len(r) - dg, 0)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * inv
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = r[k + i] - c * b
    r = r[:dg]
    while r and r[-1].is_zero:
        r.pop()
    return q, r


def _reference_alg_poly_gcd(f, g):
    a, b = list(f), list(g)
    while b:
        _, r = _reference_alg_poly_divmod(a, b)
        a, b = b, r
    inv = reference_alg_inverse(a[-1])
    return [c * inv for c in a]


def reference_component_sqrt(Li, a):
    """A root of z^2 = a in the field Li or None, by interpolated norms and a
    Euclidean gcd over Li."""
    d = Li.n
    if d == 1:
        val = a.coords[0]
        return Li.element([rational_sqrt(val)]) if is_square_rational(val) else None
    shifts = [0]
    for k in range(1, 10):
        shifts += [k, -k]
    for s in shifts:
        N = reference_component_norm(Li, a, s)
        if is_squarefree(N):
            break
    beta = Li.beta
    r_poly = [(s * beta) * (s * beta) - a, (-2 * s) * beta, Li.one]
    for F, _ in factor_poly(N):
        if F.degree > d:
            continue
        G = _reference_alg_poly_gcd(r_poly, [Li.from_rational(c) for c in F.coeffs])
        if len(G) == 2:
            return -G[0] - s * beta
    return None


def reference_trager_sqrt(Li, a):
    """A root of z^2 = a in the field Li or None, by Trager's norm route: the
    first squarefree N_s(z) = Res_x(g(x), (z - s x)^2 - a(x)), its first
    factor F, and F reduced modulo (z - s beta)^2 - a."""
    d = Li.n
    if d == 1:
        val = a.coords[0]
        return Li.element([rational_sqrt(val)]) if is_square_rational(val) else None
    gpol, apol = Li.g, a.poly()
    shifts = [0]
    for k in range(1, 10):
        shifts += [k, -k]
    for s in shifts:
        if s == 0:
            coeffs = [Fraction(0)] * (2 * d + 1)
            coeffs[::2] = charpoly(a.mult_matrix()).coeffs
            N = Poly(coeffs)
        else:
            pts, vals = [], []
            z0 = 0
            while len(pts) < 2 * d + 1:
                q = (Poly([z0]) - s * X) ** 2 - apol
                pts.append(Fraction(z0))
                vals.append(resultant(gpol, q))
                z0 = -z0 + (1 if z0 <= 0 else 0)
            N = lagrange_interpolate(pts, vals)
        if is_squarefree(N):
            break
    else:
        raise AssertionError("no squarefree norm shift found")
    F = factor_poly(N)[0][0]
    if F.degree > d:
        return None
    sbeta = s * Li.beta
    c0 = sbeta * sbeta - a
    u = v = Li.zero
    for c in reversed(F.coeffs):
        u, v = v + 2 * sbeta * u, c - c0 * u
    return -v * u.inverse() - sbeta


class ReferencePoly:
    """Polynomial as a tuple of Fractions, low degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    @property
    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ReferencePoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ReferencePoly([self[i] - other[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ReferencePoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return ReferencePoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ReferencePoly(out)

    def divmod(self, other):
        q = [Fraction(0)] * max(self.degree - other.degree + 1, 0)
        r = list(self.coeffs)
        d = other.degree
        inv_lc = 1 / other.lc
        for k in range(len(r) - 1 - d, -1, -1):
            c = r[k + d] * inv_lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
        return ReferencePoly(q), ReferencePoly(r[:d] if d > 0 else [])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self):
        return ReferencePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        return self if self.is_zero else self * (1 / self.lc)

    def primitive_int(self):
        if self.is_zero:
            return self, Fraction(1)
        den = lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        return ReferencePoly([c // g for c in ints]), Fraction(g, den)


def reference_poly_gcd(p, q):
    """Monic gcd by Euclid over Q on ReferencePoly."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a if a.is_zero else a.monic()


def reference_squarefree_decomposition(p):
    """Yun's decomposition (c, [(g_i, i)]) on ReferencePoly."""
    c = p.lc
    f = p.monic()
    if f.degree == 0:
        return c, []
    out = []
    g = reference_poly_gcd(f, f.derivative())
    c1 = f // g
    d = f.derivative() // g - c1.derivative()
    i = 1
    while c1.degree > 0:
        step = reference_poly_gcd(c1, d)
        c1_next = c1 // step
        d = d // step - c1_next.derivative()
        if step.degree > 0:
            out.append((step, i))
        c1 = c1_next
        i += 1
    return c, out


def reference_invariant_form(pair):
    """Coefficients f0..fn of (-1)^(n(n-1)/2) det(xA - yB), from n + 1
    determinants of the Fraction matrices sA - B."""
    n = pair.n
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    xs = [Fraction(k) for k in range(n + 1)]
    ys = [frac_det([[s * a - b for a, b in zip(ra, rb)] for ra, rb in zip(pair.A, pair.B)])
          for s in xs]
    q = lagrange_interpolate(xs, ys)
    return tuple(sign * q[n - i] for i in range(n + 1))


def reference_diagonalize(q):
    """The Fraction route of `diagonalize`: the same pivot sequence, each
    step col_j += c col_i with a rational c, then each column scaled so its
    diagonal entry becomes its squarefree part."""
    n = q.dim
    G = [row[:] for row in q.gram]
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        for r in range(n):
            G[r][dst] += c * G[r][src]
        for r in range(n):
            G[dst][r] += c * G[src][r]
        for r in range(n):
            P[r][dst] += c * P[r][src]

    def swap_cols(i, j):
        for r in range(n):
            G[r][i], G[r][j] = G[r][j], G[r][i]
        G[i], G[j] = G[j], G[i]
        for r in range(n):
            P[r][i], P[r][j] = P[r][j], P[r][i]

    for i in range(n):
        if G[i][i] == 0:
            j = next((k for k in range(i + 1, n) if G[k][k] != 0), None)
            if j is not None:
                swap_cols(i, j)
            else:
                j = next((k for k in range(i + 1, n) if G[i][k] != 0), None)
                if j is None:
                    raise DomainError("degenerate quadratic form")
                add_col(i, j, 1 / (2 * G[i][j]))
        for j in range(i + 1, n):
            if G[i][j] != 0:
                add_col(j, i, -G[i][j] / G[i][i])
    entries = []
    for i in range(n):
        d = G[i][i]
        s = squarefree_part(d)
        c = rational_sqrt(Fraction(s) / d)
        for r in range(n):
            P[r][i] *= c
        entries.append(s)
    return entries, P


# the reference symbols factor the same entries at every place
_reference_sqf = functools.lru_cache(maxsize=None)(squarefree_part)


def reference_hilbert_symbol(a, b, place):
    """(a, b)_place from the valuations of the squarefree parts of a and b."""
    A, B = _reference_sqf(Fraction(a)), _reference_sqf(Fraction(b))
    if place == 0:
        return -1 if (A < 0 and B < 0) else 1
    p = place

    def val(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v, x

    (al, u), (be, w) = val(A), val(B)
    if p == 2:
        e = ((u - 1) // 2) * ((w - 1) // 2)
        e += al * ((w * w - 1) // 8) + be * ((u * u - 1) // 8)
        return -1 if e % 2 else 1

    def leg(x):
        return 1 if pow(x % p, (p - 1) // 2, p) == 1 else -1

    s = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        s *= leg(u)
    if al % 2:
        s *= leg(w)
    return s


def reference_hasse(entries, place):
    s = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s *= reference_hilbert_symbol(entries[i], entries[j], place)
    return s


def _reference_places(entries):
    places = {0, 2}
    for d in entries:
        places.update(factorint(abs(d)))
    return places


def _reference_local_square(d, place):
    """Is the squarefree integer d a square at the place?"""
    if place == 0:
        return d > 0
    if place == 2:
        return d % 8 == 1
    return d % place != 0 and pow(d % place, (place - 1) // 2, place) == 1


def _reference_signature(entries):
    pos = sum(1 for d in entries if d > 0)
    return pos, len(entries) - pos


def reference_is_isotropic(q):
    """The certified isotropy decision on the diagonal of
    `reference_diagonalize`, each discriminant the squarefree part of a
    product of entries, found by factoring."""
    entries = reference_diagonalize(q)[0]
    n = len(entries)
    if n <= 1:
        return False
    if n == 2:
        return is_square_rational(Fraction(-entries[0] * entries[1]))
    d = prod(entries)
    places = _reference_places(entries)
    if n == 3:
        m = squarefree_part(-d)
        return all(reference_hilbert_symbol(-1, m, v) == reference_hasse(entries, v)
                   for v in places)
    if n == 4:
        m = squarefree_part(d)
        return all(not _reference_local_square(m, v)
                   or reference_hasse(entries, v) == reference_hilbert_symbol(-1, -1, v)
                   for v in places)
    pos, neg = _reference_signature(entries)
    return pos > 0 and neg > 0


def reference_forms_equivalent(q1, q2):
    """Dimension, discriminant (squarefree part of the product, by
    factoring), signature and Hasse invariants at every place of either."""
    e1, e2 = reference_diagonalize(q1)[0], reference_diagonalize(q2)[0]
    if len(e1) != len(e2) or squarefree_part(prod(e1)) != squarefree_part(prod(e2)):
        return False
    if _reference_signature(e1) != _reference_signature(e2):
        return False
    places = _reference_places(e1) | _reference_places(e2)
    return all(reference_hasse(e1, v) == reference_hasse(e2, v) for v in places)


def reference_quaternion_places(u, v):
    """Ramified places of (u, v): the symbol -1 among 0, 2 and the primes of
    the squarefree parts of u and v."""
    U, V = squarefree_part(Fraction(u)), squarefree_part(Fraction(v))
    return frozenset(w for w in _reference_places([U, V])
                     if reference_hilbert_symbol(U, V, w) == -1)


def reference_spin_obstruction(q):
    """The even Clifford class of an odd form as a frozenset of places: the
    entries -a_m a_i, each split-off pair's quaternion class, and the
    squarefree part of every new entry taken by factoring."""
    entries = reference_diagonalize(q)[0]
    if len(entries) == 1:
        return frozenset()
    if len(entries) == 3:
        a, b, c = entries
        return reference_quaternion_places(-a * b, -a * c)
    e = [-entries[-1] * x for x in entries[:-1]]
    acc = frozenset()
    while len(e) > 2:
        a, b = e[-2], e[-1]
        acc ^= reference_quaternion_places(a, b)
        e = [squarefree_part(Fraction(-a * b * x)) for x in e[:-2]]
    return acc ^ reference_quaternion_places(e[0], e[1])


def reference_adjoint_invariants(T):
    """(charpoly, moments (T^j)_(n,n) for 0 < j < n) on Fraction matrices."""
    n = len(T)
    v = [Fraction(int(i == n - 1)) for i in range(n)]
    moments = []
    for _ in range(n - 1):
        v = reference_mat_vec(T, v)
        moments.append(v[-1])
    return reference_charpoly(T), moments


def _frac_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            for row in A]


def reference_transformed(mats, g):
    """(g M g^T for M in mats) on Fraction matrices."""
    gT = [list(col) for col in zip(*g)]
    return [_frac_mul(_frac_mul(g, M), gT) for M in mats]


def reference_sub_pfaffian_forms(A, B, C):
    """Q_1..Q_5 as 6-tuples of Fractions from the Fraction matrices A, B, C."""
    def lin_mul(u, v):
        return (u[0] * v[0], u[1] * v[1], u[2] * v[2], u[0] * v[1] + u[1] * v[0],
                u[0] * v[2] + u[2] * v[0], u[1] * v[2] + u[2] * v[1])

    out = []
    for i in range(5):
        p, q, r, s = [k for k in range(5) if k != i]
        acc = [Fraction(0)] * 6
        for coeff, (a, b), (c, d) in ((1, (p, q), (r, s)), (-1, (p, r), (q, s)),
                                      (1, (p, s), (q, r))):
            prod = lin_mul((A[a][b], B[a][b], C[a][b]), (A[c][d], B[c][d], C[c][d]))
            acc = [x + coeff * y for x, y in zip(acc, prod)]
        sign = 1 if i % 2 == 0 else -1
        out.append(tuple(sign * x for x in acc))
    return out


def reference_pi_invariant(A, B, C):
    """pi from Fraction minors of the 5x6 coefficient matrix of Q_1..Q_5."""
    M = reference_sub_pfaffian_forms(A, B, C)
    c = [(-1) ** j * frac_det([[row[k] for k in range(6) if k != j] for row in M])
         for j in range(6)]
    h = Fraction(1, 2)
    return [[c[0], h * c[3], h * c[4]], [h * c[3], c[1], h * c[5]],
            [h * c[4], h * c[5], c[2]]]


def reference_charpoly(A):
    """det(x*I - A) by Faddeev-LeVerrier on Fraction matrices."""
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [row[:] for row in A]
    c = -sum(M[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        for i in range(n):
            M[i][i] += c
        M = _frac_mul(A, M)
        c = -Fraction(sum(M[i][i] for i in range(n)), k)
        coeffs[n - k] = c
    return Poly(coeffs)


def reference_conjugator_is_unique(T, Tp):
    """Trivial kernel of X T - T' X = 0, X e_n = 0, e_n^T X = 0 in all n^2
    unknowns, by the Fraction Gauss-Jordan nullspace."""
    n = len(T)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[i * n + k] += T[k][j]
                row[k * n + j] -= Tp[i][k]
            rows.append(row)
    for i in range(n):
        rows.append([Fraction(int(c == i * n + n - 1)) for c in range(n * n)])
        rows.append([Fraction(int(c == (n - 1) * n + i)) for c in range(n * n)])
    return not reference_nullspace(rows)


def reference_congruence(U, A):
    """U^T A U on Fraction matrices."""
    return _frac_mul([list(col) for col in zip(*U)], _frac_mul(A, U))


def reference_mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def reference_vec_mat(v, A):
    return [sum(x * A[i][j] for i, x in enumerate(v)) for j in range(len(A[0]))]


def _reference_stable_form(pair):
    f = BinaryForm(reference_invariant_form(pair))
    if f.f0 == 0:
        raise DomainError("pencil is not stable: f0 = 0")
    if f.disc() == 0:
        raise DomainError("pencil is not stable: disc(f) = 0")
    return f


def reference_pencil_to_param(pair, seed=0):
    """(alpha, t) from T = A^(-1) B as a Fraction matrix: the first cyclic
    vector m among the unit vectors, then rounds of 8 random ones, the
    moments <m, T^i m>_A, and t = 1 / det[m | Tm | ... | T^(n-1) m]."""
    f = _reference_stable_form(pair)
    g = f.monic_part()
    L = EtaleAlgebra(g)
    T = _frac_mul(reference_inverse(pair.A), pair.B)
    assert reference_charpoly(T) == g
    n = len(T)
    rng = random.Random(seed)
    tries = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    krylov = None
    while krylov is None:
        for m in tries:
            vs = [m]
            for _ in range(n - 1):
                vs.append(reference_mat_vec(T, vs[-1]))
            dQ = frac_det(vs)
            if dQ != 0:
                krylov = vs
                break
        tries = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(8)]
    Am = reference_mat_vec(pair.A, krylov[0])
    moments = [sum(a * x for a, x in zip(Am, v)) for v in krylov]
    alpha = reference_alg_inverse(euler_trace_solve(L, moments))
    return OrbitParam(L, alpha, 1 / dQ)


def reference_stabilizer(pair):
    """The StabilizerGroup with each E_i(T) = sum c_k T^k on Fraction powers
    of T = A^(-1) B, and the group laws checked on Fraction matrices."""
    f = _reference_stable_form(pair)
    n = pair.n
    L = EtaleAlgebra(f.monic_part())
    T = _frac_mul(reference_inverse(pair.A), pair.B)
    E_mats = []
    for e in L.idempotents():
        out = [[Fraction(0)] * n for _ in range(n)]
        P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in e.poly().coeffs:
            out = [[out[i][j] + c * P[i][j] for j in range(n)] for i in range(n)]
            P = _frac_mul(P, T)
        E_mats.append(out)
    degs = [gi.degree for gi in L.factors]
    r = len(degs)

    def combination(signs):
        return [[sum(s * E[i][j] for s, E in zip(signs, E_mats)) for j in range(n)]
                for i in range(n)]

    elements = []
    for signs in product([1, -1], repeat=r):
        if sum(dg % 2 for s, dg in zip(signs, degs) if s < 0) % 2:
            continue
        M = combination(signs)
        assert reference_congruence(M, pair.A) == pair.A
        assert reference_congruence(M, pair.B) == pair.B
        assert _frac_mul(M, M) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert frac_det(M) == 1
        elements.append(M)
    odd = [i for i, dg in enumerate(degs) if dg % 2]
    gens = []
    for i in range(r):
        if odd and i == odd[0]:
            continue
        signs = [1] * r
        signs[i] = -1
        if odd and degs[i] % 2:
            signs[odd[0]] = -1
        gens.append(combination(signs))
    order = 2 ** (r - 1) if odd else 2**r
    assert len(elements) == order
    return StabilizerGroup(gens, order, 2 ** (n - 1), elements)
