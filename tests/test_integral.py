"""The distinguished order of an integral form, its power ideals, and the
module description of integral pairs."""

import random
from fractions import Fraction

import pytest

from quadpencil import BinaryForm, OrbitParam, g_equivalent, invariant_binary_form, pencil_to_param
from quadpencil.errors import DomainError
from quadpencil.jsonio import ideal_to_json, json_to_ideal
from quadpencil.linalg import is_symmetric, mat_mul, transpose
from quadpencil.orders import (
    OrientedIdeal,
    canonical_odd_orbit,
    form_order,
    ideal_mul,
    ideal_pair_to_matrices,
    ideal_pair_valid,
    ideal_pow,
    inverse_different_check,
    module_stable,
    order_disc,
    power_ideal,
    rational_params_of_pair,
    scalar_ideal,
    unit_ideal,
)

from util import (
    ReferenceOrder,
    frac_det,
    order_basis,
    random_integral_form,
    reference_ideal_mul,
    reference_ideal_pow,
    reference_inverse_different_check,
    reference_contains,
    reference_module_stable,
    reference_order_disc,
    reference_pair_matrices,
    reference_pair_valid,
    reference_power_ideal,
    reference_scalar_ideal,
    unimodular,
)

F2357 = BinaryForm([2, 3, 5, 7])
FCUBE = BinaryForm([1, 0, 0, 1])  # x^3 + y^3


def test_distinguished_basis_pinned():
    O = form_order(F2357)
    basis = order_basis(O)
    assert tuple(basis[1].coords) == (0, 2, 0)  # 2 theta
    assert tuple(basis[2].coords) == (0, 3, 2)  # 2 theta^2 + 3 theta
    # zeta_1^2 = 2 zeta_2 - 3 zeta_1
    assert O.to_basis(basis[1] * basis[1]) == [0, -3, 2]
    assert O.table[1][1] == (0, -3, 2)


def test_monic_form_gives_power_basis():
    O = form_order(FCUBE)
    for k, z in enumerate(order_basis(O)):
        assert z == O.algebra.beta_pow(k)


def test_multiplication_table_integral():
    rng = random.Random(61)
    for _ in range(15):
        O = form_order(random_integral_form(rng, rng.randint(2, 5)))
        for row in O.table:
            for entry in row:
                assert all(isinstance(c, int) for c in entry)


def test_order_disc_equals_form_disc():
    rng = random.Random(62)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            f = random_integral_form(rng, n)
            assert order_disc(form_order(f)) == f.disc()


def test_order_disc_pinned():
    assert order_disc(form_order(FCUBE)) == -27
    rng = random.Random(63)
    for _ in range(10):
        a = rng.choice([x for x in range(-5, 6) if x])
        b, c = rng.randint(-5, 5), rng.randint(-5, 5)
        f = BinaryForm([a, b, c])
        if f.disc() == 0:
            continue
        assert order_disc(form_order(f)) == b * b - 4 * a * c


def test_power_ideals():
    rng = random.Random(64)
    for n in (3, 4, 5):
        for _ in range(4):
            O = form_order(random_integral_form(rng, n))
            assert power_ideal(O, 0) == unit_ideal(O)
            I1 = power_ideal(O, 1)
            for k in range(1, n):
                Ik = power_ideal(O, k)
                assert Ik == ideal_pow(I1, k)
                assert Ik.norm() == Fraction(1, O.f.f0**k)
                assert module_stable(Ik)


def test_power_ideal_pinned():
    O = form_order(F2357)
    I1 = power_ideal(O, 1)
    assert (I1.den, I1.mat, I1.eps) == (2, ((2, 0, 0), (0, 1, 0), (0, 0, 2)), 1)
    assert ideal_mul(I1, I1) == power_ideal(O, 2)


def test_ideal_out_of_range():
    O = form_order(FCUBE)
    with pytest.raises(DomainError):
        power_ideal(O, 3)


def test_module_pair_pinned():
    O = form_order(FCUBE)
    pair = ideal_pair_to_matrices(O, unit_ideal(O), O.algebra.one)
    assert pair.A == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert pair.B == [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    assert invariant_binary_form(pair) == FCUBE


def test_module_pair_properties():
    rng = random.Random(65)
    for _ in range(8):
        f = random_integral_form(rng, 3)
        O = form_order(f)
        pair = ideal_pair_to_matrices(O, unit_ideal(O), O.algebra.one)
        assert is_symmetric(pair.A) and is_symmetric(pair.B)
        for M in (pair.A, pair.B):
            for row in M:
                assert all(x.denominator == 1 for x in row)
        assert invariant_binary_form(pair) == f


def test_rebasing_acts_by_congruence():
    # changing the Z-basis of I by U changes the Gram pair by U . U^T
    rng = random.Random(66)
    for _ in range(6):
        f = random_integral_form(rng, 3)
        O = form_order(f)
        I = unit_ideal(O)
        pair = ideal_pair_to_matrices(O, I, O.algebra.one)
        U = unimodular(rng, 3)
        rebased = [[int(x) for x in row] for row in mat_mul(U, I.mat)]
        J = OrientedIdeal(O, I.den, rebased, I.eps)
        moved = ideal_pair_to_matrices(O, J, O.algebra.one)
        assert moved.A == mat_mul(U, mat_mul(pair.A, transpose(U)))
        assert moved.B == mat_mul(U, mat_mul(pair.B, transpose(U)))


def test_validity_rejections():
    O = form_order(FCUBE)
    half = OrientedIdeal(O, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)  # (1/2) R_f
    ok, msg = ideal_pair_valid(O, half, O.algebra.one)
    assert not ok and "escapes" in msg
    ok, msg = ideal_pair_valid(O, unit_ideal(O), O.algebra.beta)
    assert not ok and "norm condition" in msg
    with pytest.raises(DomainError):
        ideal_pair_to_matrices(O, half, O.algebra.one)


def test_scalar_twist_preserves_validity():
    # (I, alpha) -> (kappa I, kappa^2 alpha) stays valid, same invariant form
    rng = random.Random(67)
    for _ in range(5):
        f = random_integral_form(rng, 3)
        O = form_order(f)
        kappa = O.algebra.from_rational(rng.choice([2, 3, Fraction(1, 2)]))
        I = scalar_ideal(kappa, unit_ideal(O))
        alpha = kappa * kappa
        ok, msg = ideal_pair_valid(O, I, alpha)
        assert ok, msg
        pair = ideal_pair_to_matrices(O, I, alpha)
        assert invariant_binary_form(pair) == f


def test_rational_dictionary():
    O = form_order(FCUBE)
    gamma, t = rational_params_of_pair(O, unit_ideal(O), O.algebra.one)
    assert gamma == O.algebra.one and t == 1
    rng = random.Random(68)
    for n in (3, 5):
        for _ in range(4):
            f = random_integral_form(rng, n)
            O = form_order(f)
            pair, I, alpha = canonical_odd_orbit(O)
            gamma, t = rational_params_of_pair(O, I, alpha)
            f0 = Fraction(f.f0)
            assert gamma == O.algebra.from_rational(f0)
            assert t == f0 ** ((n + 1) // 2)
            # (gamma, t) names the rational orbit of the reconstructed pair
            p = pencil_to_param(pair)
            q = OrbitParam(O.algebra, gamma, t)
            assert g_equivalent(p, q) is not None


def test_canonical_orbit_shape():
    rng = random.Random(69)
    for _ in range(4):
        f = random_integral_form(rng, 5)
        pair, I, alpha = canonical_odd_orbit(form_order(f))
        assert invariant_binary_form(pair) == f
        for M in (pair.A, pair.B):
            for row in M:
                assert all(x.denominator == 1 for x in row)
    with pytest.raises(DomainError):
        canonical_odd_orbit(form_order(random_integral_form(rng, 4)))


def test_inverse_different_pinned():
    assert inverse_different_check(form_order(FCUBE)) == (True, 27)
    for d in (2, 3, 5, 7):
        f = BinaryForm([1, 0, -d])  # x^2 - d y^2
        assert inverse_different_check(form_order(f)) == (True, 4 * d)


def test_inverse_different_index_is_disc():
    rng = random.Random(70)
    for _ in range(8):
        f = random_integral_form(rng, rng.randint(2, 4))
        contained, index = inverse_different_check(form_order(f))
        assert contained
        assert index == abs(f.disc())


def test_oriented_ideal_rejects_bad_orientation_and_denominator():
    O = form_order(F2357)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert OrientedIdeal(O, 1, rows, -1).eps == -1
    for den, eps in ((1, 0), (1, 2), (0, 1), (-2, 1)):
        with pytest.raises(DomainError):
            OrientedIdeal(O, den, rows, eps)


# Forms for the differential tests: random ones for n = 2..6 at fixed seeds,
# plus forms with negative f0 (random_integral_form draws f0 of both signs).
NEG_F0 = [
    BinaryForm([-3, 1, 4]),
    BinaryForm([-2, 3, 5, 7]),
    BinaryForm([-5, 0, 2, -1, 3]),
    BinaryForm([-4, 1, 0, -3, 2, 6]),
]


def _diff_forms():
    rng = random.Random(71)
    forms = [random_integral_form(rng, n) for n in (2, 3, 4, 5, 6) for _ in range(2)]
    return forms + NEG_F0


def _ideals(rng, O):
    """Power ideals, a rebased non-HNF copy of eps -1, and a scalar twist."""
    n = O.n
    out = [power_ideal(O, k) for k in range(n)]
    I = out[rng.randrange(n)]
    U = unimodular(rng, n)
    rebased = [[int(x) for x in row] for row in mat_mul(U, I.mat)]
    out.append(OrientedIdeal(O, I.den, rebased, -1))
    c = O.algebra.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
    if c.norm() != 0:
        out.append(reference_scalar_ideal(c, out[-1]))
    return out


def _key(I):
    return (I.den, I.mat, I.eps)


def test_ideal_mul_matches_element_products():
    rng = random.Random(72)
    for f in _diff_forms():
        O = form_order(f)
        ideals = _ideals(rng, O)
        for _ in range(6):
            I, J = rng.choice(ideals), rng.choice(ideals)
            assert _key(ideal_mul(I, J)) == _key(reference_ideal_mul(I, J))


def test_ideal_pow_is_power_ideal():
    for f in _diff_forms():
        O = form_order(f)
        I1 = power_ideal(O, 1)
        for k in range(O.n):
            assert _key(ideal_pow(I1, k)) == _key(power_ideal(O, k))


def test_ideal_pow_matches_product_loop_in_any_order():
    # the powers an ideal keeps equal the k - 1 product loop's, whatever order
    # they are asked in: ascending, descending, repeated and k = 0; for I_f(1)
    # with the module bit, and without it for a rebased or scalar-twisted
    # lattice and for I_f(1) read back from JSON
    rng = random.Random(84)
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        orders = [list(range(n)), list(range(n - 1, -1, -1)),
                  [rng.randrange(n) for _ in range(2 * n)]]
        for make in (lambda: power_ideal(O, 1), lambda: _ideals(rng, O)[-1],
                     lambda: json_to_ideal(O, ideal_to_json(power_ideal(O, 1)))):
            for ks in orders:
                I = make()
                ref = {k: _key(reference_ideal_pow(I, k)) for k in set(ks)}
                for k in ks:
                    P = ideal_pow(I, k)
                    assert _key(P) == ref[k]
                    if k:
                        assert P is ideal_pow(I, k)
                assert all(P is not I for P in I._pows or ())
                with pytest.raises(DomainError):
                    ideal_pow(I, -1)


def test_norm_matches_determinant():
    # eps det(mat) / den^n on HNF, row-permuted, lower-triangular and
    # negative-diagonal mats, and at n = 1
    rng = random.Random(85)
    for f in _diff_forms() + [BinaryForm([2, 3]), BinaryForm([-5, 1])]:
        O = form_order(f)
        n = O.n
        for I in [power_ideal(O, k) for k in range(n)] + (_ideals(rng, O)[n:] if n > 1 else []):
            H = [list(row) for row in I.mat]
            perm = rng.sample(H, n)
            L = [[rng.randint(-3, 3) if c < r else rng.choice((1, -1)) * (c == r)
                  for c in range(n)] for r in range(n)]
            lower = [[x * rng.choice((1, 2, -3)) if c <= r else 0 for c, x in enumerate(row)]
                     for r, row in enumerate(L)]
            negdiag = [[-x if c == r else x for c, x in enumerate(row)] for r, row in enumerate(H)]
            for mat in (H, perm, lower, negdiag, mat_mul(L, H)):
                for eps in (1, -1):
                    J = OrientedIdeal(O, I.den, [[int(x) for x in row] for row in mat], eps)
                    assert J.norm() == eps * frac_det(J.mat) / Fraction(J.den) ** n


def _doubled_lattice(O):
    """Z + 2 zeta_1 Z + ... + 2 zeta_(n-1) Z, not an R_f-module: zeta_1 * 1
    is missing."""
    n = O.n
    return OrientedIdeal(O, 1, [[int(i == j) * (1 if i == 0 else 2) for j in range(n)]
                                for i in range(n)], 1)


def test_module_bit_only_on_proven_modules():
    # every ideal that carries the bit is R_f-stable by the independent
    # reference check; direct construction and json_to_ideal never set it
    rng = random.Random(82)
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        built = [unit_ideal(O)] + [power_ideal(O, k) for k in range(n)]
        assert all(I.module for I in built)
        others = _ideals(rng, O)[n:] + [_doubled_lattice(O),
                                        json_to_ideal(O, ideal_to_json(built[2]))]
        assert not any(I.module for I in others)
        for _ in range(4):
            I, J = rng.choice(built + others), rng.choice(built + others)
            P = ideal_mul(I, J)
            assert P.module == (I.module or J.module)
            built.append(P)
            c = O.algebra.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(n)])
            if c.norm() != 0:
                S = scalar_ideal(c, I)
                assert S.module == I.module
                built.append(S)
        for I in built:
            if I.module:
                assert reference_module_stable(I)
        # module_stable decides from the lattice, never from the bit
        forged = _doubled_lattice(O)
        forged.module = True
        assert not module_stable(forged)


def test_ideal_pow_without_module_bit_starts_from_unit_ideal():
    # R_f L^k by repeated reference products from the unit ideal, for a
    # rebased copy with eps = -1, a lattice that is no R_f-module, and an
    # ideal read from JSON
    rng = random.Random(83)
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        I = power_ideal(O, rng.randrange(n))
        U = unimodular(rng, n)
        rebased = OrientedIdeal(O, I.den, [[int(x) for x in row] for row in mat_mul(U, I.mat)], -1)
        read = json_to_ideal(O, ideal_to_json(power_ideal(O, 1)))
        for L in (rebased, _doubled_lattice(O), read):
            assert not L.module
            want = unit_ideal(O)
            for k in range(n):
                assert _key(ideal_pow(L, k)) == _key(want)
                want = reference_ideal_mul(want, L)


def test_scalar_ideal_matches_element_products():
    rng = random.Random(73)
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        ideals = _ideals(rng, O)
        for _ in range(4):
            c = O.algebra.element(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
            if c.norm() == 0:
                continue
            I = rng.choice(ideals)
            assert _key(scalar_ideal(c, I)) == _key(reference_scalar_ideal(c, I))


def test_scalar_with_fractional_coordinates_and_negative_norm():
    for f in (F2357, BinaryForm([-2, 3, 5, 7])):
        O = form_order(f)
        c = O.algebra.element([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 1)])
        c = c if c.norm() < 0 else -c
        assert c.norm() < 0
        assert any(x.denominator != 1 for x in O.to_basis(c))
        for k in range(3):
            I = power_ideal(O, k)
            J = scalar_ideal(c, I)
            assert _key(J) == _key(reference_scalar_ideal(c, I))
            assert J.eps == -I.eps
            assert J.norm() == c.norm() * I.norm()


def test_module_stable_on_power_ideals_and_other_lattices():
    rng = random.Random(74)
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        for k in range(n):
            assert module_stable(power_ideal(O, k))
        # rebased and scaled ideals are stable too
        for I in _ideals(rng, O)[n:]:
            assert module_stable(I) and reference_module_stable(I)
        # Z + 2 zeta_1 Z + ... + 2 zeta_(n-1) Z is not
        L = _doubled_lattice(O)
        assert not module_stable(L)
        assert not reference_module_stable(L)
        for _ in range(3):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if frac_det(rows) == 0:
                continue
            M = OrientedIdeal(O, rng.randint(1, 3), rows, 1)
            assert module_stable(M) == reference_module_stable(M)


def test_foreign_elements_are_rejected():
    O = form_order(BinaryForm([2, 0, 1, 3]))
    other = form_order(BinaryForm([1, 1, 0, 5])).algebra.element([1, 1, 0])
    I = power_ideal(O, 1)
    with pytest.raises(DomainError, match="different algebras"):
        I.contains(other)
    with pytest.raises(DomainError, match="different algebras"):
        scalar_ideal(other, I)
    with pytest.raises(DomainError, match="different algebras"):
        O.to_basis(other)


def _closed_form_forms():
    """Forms for the closed-form table: n = 2..8, coefficients up to +-50,
    one of each kind per degree: any f0, negative f0, and f_n = 0."""
    rng = random.Random(75)
    out = []
    for n in range(2, 9):
        for kind in ("any", "negative f0", "f_n = 0"):
            while True:
                cs = [rng.randint(-50, 50) for _ in range(n + 1)]
                if kind == "negative f0":
                    cs[0] = -abs(cs[0])
                if kind == "f_n = 0":
                    cs[n] = 0
                if cs[0] and BinaryForm(cs).disc() != 0:
                    break
            out.append(BinaryForm(cs))
    return out


CLOSED_FORM = [(f, ReferenceOrder(f)) for f in _closed_form_forms()]


def test_closed_form_table_matches_element_products():
    for f, R in CLOSED_FORM:
        O = form_order(f)
        assert O.table == R.table
        assert order_basis(O) == R.basis
        assert order_disc(O) == reference_order_disc(R) == f.disc()


def test_to_basis_matches_inverse_basis_matrix():
    rng = random.Random(76)
    for f, R in CLOSED_FORM:
        O = form_order(f)
        n = O.n
        for _ in range(4):
            x = O.algebra.element(
                [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)])
            coords = O.to_basis(x)
            assert coords == R.to_basis(x)
            assert O.from_basis(coords) == x


def test_integer_coordinates_with_negative_f0():
    # natural coordinates at every k, the orientation sign(f0)^k of I_f(k),
    # and the discriminant, against the reference order; f0^(n-1-k) < 0
    # must not leave a negative denominator
    rng = random.Random(84)
    parities = set()
    for f, R in CLOSED_FORM:
        if f.f0 > 0:
            continue
        parities.add(f.n % 2)
        O = form_order(f)
        n = O.n
        for k in range(n):
            for _ in range(3):
                x = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)]
                assert O.natural_coords(x, k) == R.natural_coords(x, k)
            I = power_ideal(O, k)
            assert I.eps == (-1) ** k
            assert _key(I) == _key(reference_power_ideal(O, R, k))
        assert order_disc(O) == reference_order_disc(R)
    assert parities == {0, 1}


def test_power_ideals_match_element_route():
    for f, R in CLOSED_FORM:
        O = form_order(f)
        for k in range(O.n):
            assert _key(power_ideal(O, k)) == _key(reference_power_ideal(O, R, k))


def test_inverse_different_matches_element_route():
    for f, R in CLOSED_FORM:
        contained, index, identity = reference_inverse_different_check(R)
        assert identity
        assert inverse_different_check(form_order(f)) == (contained, index) == (True, abs(f.disc()))


def test_module_pair_matches_element_products():
    # (kappa I, kappa^2) for the canonical I, with N(kappa) of both signs
    rng = random.Random(78)
    signs = set()
    for f, R in CLOSED_FORM:
        n = f.n
        if n % 2 == 0:
            continue
        O = form_order(f)
        I0 = ideal_pow(power_ideal(O, 1), (n - 3) // 2)
        kappa = O.algebra.zero
        while kappa.norm() == 0:
            kappa = O.algebra.element([rng.randint(-3, 3) for _ in range(n)])
        for c in (O.algebra.one, kappa, -kappa):
            I = scalar_ideal(c, I0)
            pair = ideal_pair_to_matrices(O, I, c * c)
            assert (pair.A, pair.B) == reference_pair_matrices(R, I, c * c)
            signs.add(I.eps)
    assert signs == {1, -1}


def test_module_pair_on_rebased_basis_with_negative_orientation():
    # a unimodular change of basis of the twisted canonical ideal, with
    # eps = -1, so the rows are no HNF and b_0 is negated
    rng = random.Random(79)
    for f, R in CLOSED_FORM:
        n = f.n
        if n % 2 == 0:
            continue
        O = form_order(f)
        I0 = ideal_pow(power_ideal(O, 1), (n - 3) // 2)
        c = O.algebra.element([rng.randint(-2, 2) for _ in range(n)])
        c = c if c.norm() != 0 else O.algebra.one
        I = scalar_ideal(c, I0)
        U = unimodular(rng, n)
        J = OrientedIdeal(O, I.den, [[int(x) for x in row] for row in mat_mul(U, I.mat)], -1)
        pair = ideal_pair_to_matrices(O, J, c * c)
        assert (pair.A, pair.B) == reference_pair_matrices(R, J, c * c)


def test_module_pair_validity_matches_ideal_route():
    # random lattices, twists of the canonical ideal, and R_f with alpha = 1/m
    # (products inside, norm condition fails), against membership in the
    # reference ideal alpha*I_f(n-3)
    rng = random.Random(80)
    seen = set()
    for f, R in CLOSED_FORM[:15]:
        n = f.n
        if n % 2 == 0:
            continue
        O = form_order(f)
        I0 = ideal_pow(power_ideal(O, 1), (n - 3) // 2)
        cases = [(unit_ideal(O), O.algebra.from_rational(Fraction(1, rng.randint(2, 3))))]
        for _ in range(3):
            c = O.algebra.element([rng.randint(-2, 2) for _ in range(n)])
            if c.norm() != 0:
                cases.append((scalar_ideal(c, I0), c * c))
        for _ in range(3):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if frac_det(rows) != 0:
                alpha = O.algebra.element([rng.randint(-2, 2) for _ in range(n)])
                alpha = alpha if alpha.norm() != 0 else O.algebra.one
                I = OrientedIdeal(O, rng.randint(1, 3), rows, rng.choice((1, -1)))
                cases.append((I, alpha))
        for I, alpha in cases:
            ok, msg = ideal_pair_valid(O, I, alpha)
            want_ok, want = reference_pair_valid(R, I, alpha)
            assert ok == want_ok and (ok or want in msg), (I, alpha, msg, want)
            seen.add(want)
    assert seen == {None, "escapes", "norm condition"}


def test_module_pair_rejects_ideal_of_another_order():
    # same algebra Q[x]/(x^3 + 2), different orders: a DomainError, also
    # under python -O, never a pair read off the wrong table
    O = form_order(BinaryForm([1, 0, 0, 2]))
    other = form_order(BinaryForm([2, 0, 0, 4]))
    assert other.algebra == O.algebra
    for I in (unit_ideal(other), power_ideal(other, 1)):
        with pytest.raises(DomainError, match="different order"):
            ideal_pair_valid(O, I, O.algebra.one)
        with pytest.raises(DomainError, match="different order"):
            ideal_pair_to_matrices(O, I, O.algebra.one)


def _membership_ideals(rng, O):
    """HNF ideals and user-built ones: a rebased copy, random rows, and
    upper triangular rows with unreduced entries, with and without a
    negative diagonal entry."""
    n = O.n
    out = _ideals(rng, O)
    for _ in range(3):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if frac_det(rows) != 0:
            out.append(OrientedIdeal(O, rng.randint(1, 4), rows, 1))
    tri = [[0] * i + [rng.randint(1, 4)] + [rng.randint(-9, 9) for _ in range(n - i - 1)]
           for i in range(n)]
    out.append(OrientedIdeal(O, rng.randint(1, 4), tri, 1))
    neg = [row[:] for row in tri]
    neg[-1][-1] = -neg[-1][-1]
    out.append(OrientedIdeal(O, rng.randint(1, 4), neg, 1))
    return out


def test_contains_matches_fraction_solve():
    # members, members moved by e_k / den (den x integral, y maybe not),
    # and members moved by e_k / (p den) (den x not integral)
    rng = random.Random(81)
    seen = set()
    for f in _diff_forms():
        O = form_order(f)
        n = O.n
        for I in _membership_ideals(rng, O):
            assert I.contains(O.algebra.zero)
            for kind in (0, 1, 1, 2) * 2:
                c = [rng.randint(-3, 3) for _ in range(n)]
                x = [Fraction(sum(a * row[k] for a, row in zip(c, I.mat)), I.den)
                     for k in range(n)]
                if kind:
                    p = rng.choice((2, 3)) if kind == 2 else 1
                    x[rng.randrange(n)] += Fraction(1, p * I.den)
                e = O.from_basis(x)
                got = I.contains(e)
                assert got == reference_contains(I, e), (I, x)
                assert got or kind
                seen.add((kind, got))
    assert seen == {(0, True), (1, True), (1, False), (2, False)}
