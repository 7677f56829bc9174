"""Executable acceptance suite: numbered checks with pinned worked examples.

Each criterion is a callable raising AssertionError on failure; the CLI
`selftest` subcommand prints one pass/fail line per criterion. Expected
values are either structural identities checked exactly or oracles computed
by an independent route inside the criterion body.
"""

import random
from fractions import Fraction

from .adjoint import (
    AdjointInvariants,
    adjoint_canonical_rep,
    adjoint_conjugator,
    adjoint_invariants,
    conjugator_is_unique,
    d_determinant,
    regularity_D,
)
from .binforms import BinaryForm
from .etale import EtaleAlgebra
from .factor import factor_poly
from .hyper import CurvePoint, on_curve, point_to_orbit
from .intutil import factorint, squarefree_part
from .linalg import congruence, det, identity, mat_mul
from .orders import (
    canonical_odd_orbit,
    form_order,
    ideal_pow,
    order_disc,
    power_ideal,
    rational_params_of_pair,
)
from .pencil import (
    OrbitParam,
    g_equivalent,
    invariant_binary_form,
    orbit_witness_search,
    param_to_pencil,
    pencil_to_param,
    real_orbit_obstruction,
    stabilizer_rational,
)
from .pfaffian import SkewTriple, pfaffian, pi_invariant, sub_pfaffian_forms
from .polys import Poly, is_squarefree
from .quadspace import (
    REAL_PLACE,
    QuadForm,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic,
    isotropy_witness,
    spin_obstruction,
)


# ---------------------------------------------------------------- generators

def random_monic_separable(rng, n):
    while True:
        g = Poly([Fraction(rng.randint(-5, 5)) for _ in range(n)] + [Fraction(1)])
        if is_squarefree(g):
            return g


def random_integral_form(rng, n, lo=-6, hi=6):
    while True:
        cs = [rng.randint(lo, hi) for _ in range(n + 1)]
        if cs[0] == 0:
            continue
        f = BinaryForm(cs)
        if f.disc() != 0:
            return f


def random_param(rng, n):
    """Valid (f, p): f0 = s^2 N(alpha), t = s N(alpha), so t^2 = f0 N(alpha)."""
    while True:
        g = random_monic_separable(rng, n)
        L = EtaleAlgebra(g)
        alpha = L.element([Fraction(rng.randint(-3, 3)) for _ in range(n)])
        if not alpha.is_unit:
            continue
        s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            s = -s
        f0 = s * s * alpha.norm()
        f = BinaryForm.from_monic_part(f0, g)
        return f, OrbitParam(L, alpha, s * alpha.norm())


def unimodular(rng, n, steps=6):
    U = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):
            U[r][j] += c * U[r][i]
    return U


def _random_skew(rng, n, lo=-6, hi=6):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(rng.randint(lo, hi))
            M[j][i] = -M[i][j]
    return M


# ---------------------------------------------------------------- criteria

def c01_round_trip(rng):
    """Param -> pencil -> param closes up to equivalence, witness verified."""
    for n in (2, 3, 4, 5):
        for _ in range(25):
            f, p = random_param(rng, n)
            pair = param_to_pencil(f, p)
            assert invariant_binary_form(pair) == f
            q = pencil_to_param(pair)
            c = g_equivalent(p, q)
            assert c is not None
            assert c * c * q.alpha == p.alpha
            assert c.norm() * q.t == p.t


def c02_t_squared(rng):
    """t^2 = f0 N(alpha) exactly on extractions from transformed pencils."""
    for n in (2, 3, 4, 5):
        for _ in range(25):
            f, p = random_param(rng, n)
            pair = param_to_pencil(f, p).transformed(unimodular(rng, n))
            q = pencil_to_param(pair)
            f2 = invariant_binary_form(pair)
            assert q.t ** 2 == f2.f0 * q.alpha.norm()


def c03_stabilizer(rng):
    """Order 2^(r-1) or 2^r, elements fix the pair, square to I, det 1."""
    for n in (2, 3, 4, 5):
        for _ in range(50):
            f, p = random_param(rng, n)
            pair = param_to_pencil(f, p)
            S = stabilizer_rational(pair)
            factors = factor_poly(f.monic_part())
            r = len(factors)
            degrees = [g.degree for g, _ in factors]
            expected = 2 ** (r - 1) if any(d % 2 for d in degrees) else 2 ** r
            assert S.order == expected
            assert S.geometric_order == 2 ** (n - 1)
            assert len(S.elements) == S.order
            I = identity(n)
            for M in S.elements:
                assert mat_mul(M, M) == I
                assert det(M) == 1
                assert congruence(M, pair.A) == pair.A
                assert congruence(M, pair.B) == pair.B


def c04_order_disc(rng):
    """disc of the trace form on R_f equals disc(f), 100 integral forms."""
    for n in (2, 3, 4, 5):
        for _ in range(25):
            f = random_integral_form(rng, n)
            assert order_disc(form_order(f)) == f.disc()


def c05_power_ideals(rng):
    """I_f(k) = I_f(1)^k with signed norm 1/f0^k, n up to 6."""
    for n in range(2, 7):
        for _ in range(8):
            f = random_integral_form(rng, n)
            O = form_order(f)
            I1 = power_ideal(O, 1)
            for k in range(n):
                Ik = power_ideal(O, k)
                assert Ik.norm() == Fraction(1) / f.f0 ** k
                assert ideal_pow(I1, k) == Ik


def c06_module_reconstruction(rng):
    """Canonical odd orbit: integral matrices, invariant f, stated parameters."""
    f = BinaryForm([1, 0, 0, 1])
    pair, I, alpha = canonical_odd_orbit(form_order(f))
    assert pair.A == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert pair.B == [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    assert invariant_binary_form(pair) == f
    for n in (3, 5):
        for _ in range(25):
            f = random_integral_form(rng, n, lo=-4, hi=4)
            O = form_order(f)
            pair, I, alpha = canonical_odd_orbit(O)
            for row in pair.A + pair.B:
                assert all(x.denominator == 1 for x in row)
            assert invariant_binary_form(pair) == f
            gamma, t = rational_params_of_pair(O, I, alpha)
            assert gamma == f.f0 * O.algebra.one
            assert t == Fraction(f.f0) ** ((n + 1) // 2)


def c07_hyperelliptic(rng):
    """Curve points map to valid parameters; N(u - beta) = g(u) exactly."""
    done = 0
    while done < 50:
        n = rng.randint(2, 5)
        g = random_monic_separable(rng, n)
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if g(u) == 0:
            continue
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if rng.random() < 0.5:
            w = -w
        f = BinaryForm.from_monic_part(w * w / g(u), g)
        pt = CurvePoint(u, w)
        assert on_curve(f, pt)
        p = point_to_orbit(f, pt)
        assert p.alpha.norm() == g(u)
        assert p.t ** 2 == f.f0 * p.alpha.norm()
        done += 1


def c08_real_obstruction(rng):
    """-x^2 - y^2 is obstructed with empty search; f0 > 0 never obstructs."""
    f = BinaryForm([-1, 0, -1])
    assert real_orbit_obstruction(f)
    assert orbit_witness_search(f, 100) is None
    for _ in range(50):
        n = rng.randint(2, 5)
        g = random_monic_separable(rng, n)
        f = BinaryForm.from_monic_part(Fraction(rng.randint(1, 9)), g)
        assert not real_orbit_obstruction(f)


def _local_solvable(a, b, p, k):
    """Primitive solution of z^2 = a x^2 + b y^2 mod p^k, unit normalized."""
    m = p ** k
    squares = {z * z % m for z in range(m)}
    b_sq = {b * y * y % m for y in range(m)}
    for x in range(m):
        if (1 - a * x * x) % m in b_sq:
            return True
    for y in range(m):
        if (a + b * y * y) % m in squares:
            return True
    for x in range(m):
        if (a * x * x + b) % m in squares:
            return True
    return False


CURATED_FORMS = [
    # (diagonal entries or Gram, expected isotropy, search bound)
    ([1, -1], True, 10),
    ([4, -9], True, 10),
    ([3, -3], True, 10),
    ([1, 2, -3], True, 10),
    ([2, 3, -5], True, 10),
    ([1, 1, -2], True, 10),
    ([1, -1, 5], True, 10),
    ([1, 1, 1, -3], True, 10),
    ([1, -1, 1, -1], True, 10),
    ([1, 1, 1, 1, -1], True, 10),
    ([1, 1], False, 50),
    ([1, -2], False, 50),
    ([1, -3], False, 50),
    ([2, -5], False, 50),
    ([1, 1, 1], False, 20),
    ([1, 1, -7], False, 20),
    ([1, 1, -3], False, 20),
    ([1, 1, 1, 1], False, 8),
    ([1, 1, 1, -7], False, 8),
    ([1, 1, 1, 1, 1], False, 5),
]


def c09_hilbert_and_isotropy(rng):
    """Reciprocity, brute-force local oracle to p = 47, curated isotropy suite."""
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        places = {REAL_PLACE, 2}
        places.update(factorint(abs(squarefree_part(a))))
        places.update(factorint(abs(squarefree_part(b))))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
    units = [1, -1, 2, -2, 3, 5, -5, 6, 7, -7, 10, 11, -3]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        k = 6 if p == 2 else 3
        for _ in range(4):
            a = rng.choice(units + [p, -p, 2 * p])
            b = rng.choice(units + [p, -p, 3 * p])
            a, b = squarefree_part(Fraction(a)), squarefree_part(Fraction(b))
            want = 1 if _local_solvable(a, b, p, k) else -1
            assert hilbert_symbol(a, b, p) == want, (a, b, p)
    for entries, expected, bound in CURATED_FORMS:
        n = len(entries)
        q = QuadForm([[Fraction(entries[i] if i == j else 0) for j in range(n)]
                      for i in range(n)])
        assert is_isotropic(q) == expected, entries
        w = isotropy_witness(q, bound)
        if expected:
            assert w is not None and q.value(w) == 0, entries
        else:
            assert w is None, entries


def c10_spin(rng):
    """Pinned classes, even cardinality, dim-3 versus norm-form oracle."""
    e3 = QuadForm(identity(3))
    assert spin_obstruction(e3).places == {REAL_PLACE, 2}
    lor = QuadForm([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert spin_obstruction(lor).places == frozenset()

    def norm_form_ramified(u, v):
        # quaternion (u, v): norm form <1, -u, -v, uv> anisotropic at w
        e = [1, squarefree_part(Fraction(-u)), squarefree_part(Fraction(-v)),
             squarefree_part(Fraction(u * v))]
        places = {REAL_PLACE, 2}
        for x in e:
            places.update(factorint(abs(x)))
        out = set()
        for w in places:
            eps = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    eps *= hilbert_symbol(e[i], e[j], w)
            # det is a square, so anisotropic at w iff eps != (-1,-1)_w
            if eps != hilbert_symbol(-1, -1, w):
                out.add(w)
        return frozenset(out)

    pool = [1, -1, 2, 3, -3, 5, 6, -7, 10, -2, -5, 7]
    for _ in range(30):
        a, b, c = (rng.choice(pool) for _ in range(3))
        q = QuadForm([[Fraction(a), 0, 0], [0, Fraction(b), 0], [0, 0, Fraction(c)]])
        s = spin_obstruction(q)
        assert len(s.places) % 2 == 0
        assert s.places == norm_form_ramified(-a * b, -a * c), (a, b, c)
    for _ in range(10):
        n = rng.choice([3, 5])
        while True:
            G = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            G = [[G[i][j] + G[j][i] for j in range(n)] for i in range(n)]
            q = QuadForm(G)
            if q.is_nondegenerate:
                break
        assert len(spin_obstruction(q).places) % 2 == 0


def c11_pfaffian(rng):
    """Pf^2 = det to 8x8; pi invariance over 50 triples x 20 transforms."""
    for n in (2, 4, 6, 8):
        for _ in range(10):
            M = _random_skew(rng, n)
            assert pfaffian(M) ** 2 == det(M)
    z5 = [[Fraction(0)] * 5 for _ in range(5)]
    for _ in range(10):
        v = SkewTriple(_random_skew(rng, 5), _random_skew(rng, 5), z5)
        assert pi_invariant(v) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for _ in range(50):
        v = SkewTriple(_random_skew(rng, 5, -4, 4), _random_skew(rng, 5, -4, 4),
                       _random_skew(rng, 5, -4, 4))
        pi = pi_invariant(v)
        for _ in range(20):
            g = unimodular(rng, 5, steps=5)
            assert det(g) == 1
            assert pi_invariant(v.transformed(g)) == pi


def c12_adjoint(rng):
    """Conjugator to the canonical model exists and is unique; D = bc at n = 2."""
    for _ in range(20):
        a, b, c, d = (Fraction(rng.randint(-6, 6)) for _ in range(4))
        assert regularity_D([[a, b], [c, d]]) == b * c
    done = 0
    while done < 50:
        n = rng.randint(2, 5)
        T = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if regularity_D(T) == 0:
            continue
        inv = adjoint_invariants(T)
        assert d_determinant(inv) == regularity_D(T)
        Tc = adjoint_canonical_rep(inv)
        assert adjoint_invariants(Tc) == inv
        g = adjoint_conjugator(T, Tc)
        assert mat_mul(g, T) == mat_mul(Tc, g)
        assert conjugator_is_unique(T, Tc)
        done += 1


def c13_euler(rng):
    """Tr(beta^j / g'(beta)) = [j = n-1] for 50 random separable g."""
    for _ in range(50):
        n = rng.randint(2, 6)
        g = random_monic_separable(rng, n)
        L = EtaleAlgebra(g)
        dginv = L.from_poly(g.derivative()).inverse()
        for j in range(n):
            want = Fraction(1 if j == n - 1 else 0)
            assert (L.beta_pow(j) * dginv).trace() == want


CRITERIA = [
    (1, "pencil round trip with verified equivalence witness", c01_round_trip),
    (2, "t^2 = f0 N(alpha) exact on extracted parameters", c02_t_squared),
    (3, "rational stabilizer order and element properties", c03_stabilizer),
    (4, "disc(R_f) = disc(f) on integral forms", c04_order_disc),
    (5, "I_f(k) = I_f(1)^k with norms 1/f0^k", c05_power_ideals),
    (6, "module pair reconstruction and canonical odd orbit", c06_module_reconstruction),
    (7, "curve points give valid orbit parameters", c07_hyperelliptic),
    (8, "real obstruction for negative definite invariant forms", c08_real_obstruction),
    (9, "Hilbert symbols, reciprocity, isotropy suite", c09_hilbert_and_isotropy),
    (10, "even Clifford classes of odd-dimensional forms", c10_spin),
    (11, "Pfaffians and the invariant ternary quadratic", c11_pfaffian),
    (12, "conjugation invariants and unique conjugator", c12_adjoint),
    (13, "Euler trace identity", c13_euler),
]


def run_all(seed=0):
    """[(number, description, passed, error message or None)]"""
    results = []
    for num, desc, fn in CRITERIA:
        rng = random.Random(seed * 1000003 + num)
        try:
            fn(rng)
            results.append((num, desc, True, None))
        except AssertionError as exc:
            results.append((num, desc, False, str(exc) or "assertion failed"))
        except Exception as exc:
            results.append((num, desc, False, "%s: %s" % (type(exc).__name__, exc)))
    return results


def run_selftest(seed=0) -> int:
    results = run_all(seed=seed)
    width = max(len(desc) for _, desc, _, _ in results)
    failed = 0
    for num, desc, ok, err in results:
        status = "pass" if ok else "FAIL"
        line = "%2d  %-*s  %s" % (num, width, desc, status)
        if err:
            line += "  (%s)" % err
        print(line)
        failed += 0 if ok else 1
    print("%d/%d criteria passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1
