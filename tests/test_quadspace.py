"""Rational quadratic forms: diagonalization, local symbols, isotropy,
equivalence, and even Clifford classes."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from quadpencil import intutil, quadspace
from quadpencil.errors import DomainError
from quadpencil.quadspace import (
    REAL_PLACE,
    BrauerClass2,
    QuadForm,
    _hasse,
    _sqf_mul,
    certified_places,
    diagonalize,
    forms_equivalent,
    gram_invariant,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic,
    isotropy_witness,
    quaternion_class,
    signature,
    so_orbit_target,
    spin_obstruction,
)

from quadpencil.acceptance import _local_solvable
from quadpencil.intutil import factorint, shell_prefixes, squarefree_part

from util import (
    frac_det,
    random_invertible,
    random_rational,
    reference_congruence,
    reference_diagonalize,
    reference_forms_equivalent,
    reference_hasse,
    reference_hilbert_symbol,
    reference_inverse,
    reference_is_isotropic,
    reference_isotropy_witness,
    reference_spin_obstruction,
)

BIG_PRIME = 1_000_003
# a 60-digit semiprime: 3 * 10^29 + 7 and 7 * 10^29 + 33 are prime
SEMIPRIME = 300000000000000000000000000007 * 700000000000000000000000000033


def diag(*entries):
    n = len(entries)
    return QuadForm([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def rand_form(rng, n, lo=-5, hi=5):
    while True:
        G = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = Fraction(rng.randint(lo, hi))
        q = QuadForm(G)
        if q.is_nondegenerate:
            return q


def test_diagonalize_congruence():
    rng = random.Random(81)
    for _ in range(20):
        q = rand_form(rng, rng.randint(1, 5))
        entries, P = diagonalize(q)
        n = q.dim
        for i in range(n):
            for j in range(n):
                got = sum(P[a][i] * q.gram[a][b] * P[b][j] for a in range(n) for b in range(n))
                assert got == (entries[i] if i == j else 0)
        for d in entries:
            assert isinstance(d, int) and d != 0
            assert all(e == 1 for e in factorint(abs(d)).values())  # squarefree


def test_diagonalize_hyperbolic_pinned():
    entries, _ = diagonalize(QuadForm([[0, 1], [1, 0]]))
    assert entries == [1, -1]


def rat_form(rng, n, zero_diagonal):
    """Symmetric rational Gram matrix; with zero_diagonal, the hyperbolic
    branch of the elimination is taken."""
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + int(zero_diagonal), n):
            x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 9)))
            G[i][j] = G[j][i] = x
    return QuadForm(G)


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as e:
        return "DomainError: " + str(e)


def test_diagonalize_matches_fraction_reference():
    rng = random.Random(86)
    degenerate = 0
    for n in range(1, 7):
        for k in range(40):
            q = rat_form(rng, n, zero_diagonal=k % 3 == 0)
            got = outcome(diagonalize, q)
            assert got == outcome(reference_diagonalize, q)
            degenerate += isinstance(got, str)
    assert degenerate > 5
    # U^T (diag(d) + hyperbolic planes) U, U unit upper triangular: the
    # hyperbolic branch runs on columns that earlier steps have scaled
    for n in range(3, 7):
        for _ in range(10):
            k = rng.randint(1, n - 2)
            H = [[Fraction(0)] * n for _ in range(n)]
            for i in range(k):
                H[i][i] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
            for i in range(k, n - 1, 2):
                H[i][i + 1] = H[i + 1][i] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            U = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if c > r else Fraction(int(c == r))
                  for c in range(n)] for r in range(n)]
            q = QuadForm(H).transformed(U)
            assert outcome(diagonalize, q) == outcome(reference_diagonalize, q)
    for G in ([[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
              [[0, 2, 1], [2, 0, 0], [1, 0, 0]], [[Fraction(1, 2), 1], [1, 2]],
              [[0, Fraction(1, 3), 0, 0], [Fraction(1, 3), 0, 0, 0], [0, 0, 0, 5], [0, 0, 5, 0]]):
        q = QuadForm(G)
        assert outcome(diagonalize, q) == outcome(reference_diagonalize, q)


def test_diagonalize_output_pinned_on_random_forms():
    # sha256 of repr((entries, P)) over the random forms of the two tests
    # above, as diagonalize gave them on Gram matrices stored as Fractions
    h = hashlib.sha256()
    rng = random.Random(81)
    for _ in range(20):
        h.update(repr(diagonalize(rand_form(rng, rng.randint(1, 5)))).encode())
    rng = random.Random(86)
    for n in range(1, 7):
        for k in range(40):
            q = rat_form(rng, n, zero_diagonal=k % 3 == 0)
            h.update(repr(outcome(diagonalize, q)).encode())
    assert h.hexdigest() == "05bdcff6c02cd84cfbc1b63b45091e7977c288ad3323d032932387a85d055b46"


def test_elimination_runs_once_per_form(monkeypatch):
    runs = []
    eliminate = quadspace._eliminate

    def spy(D, ints):
        runs.append(ints)
        return eliminate(D, ints)

    monkeypatch.setattr(quadspace, "_eliminate", spy)
    q = QuadForm([[0, -1, 2], [-1, -4, 1], [2, 1, 3]])
    first = diagonalize(q)
    hasse_invariant(q, 2)
    certified_places(q)
    signature(q)
    is_isotropic(q)
    isotropy_witness(q, 3)
    forms_equivalent(q, q)
    spin_obstruction(q)
    assert diagonalize(q) == first and len(runs) == 1
    moved = q.transformed([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert forms_equivalent(moved, q) and len(runs) == 2
    assert diagonalize(moved) == reference_diagonalize(moved) and len(runs) == 2
    twin = QuadForm(q.gram)
    assert twin == q and diagonalize(twin) == first and len(runs) == 3
    assert signature(twin) == signature(moved) and len(runs) == 3


def test_diagonalize_returns_fresh_lists():
    q = QuadForm([[2, 1, 0], [1, -3, 4], [0, 4, 1]])
    entries, P = diagonalize(q)
    kept = (list(entries), [list(row) for row in P])
    entries.append(7)
    entries[0] = 0
    P[0][0] = Fraction(99)
    P[1].clear()
    P.append([1])
    assert diagonalize(q) == kept == reference_diagonalize(q)


def test_degenerate_form_is_never_memoized():
    for G in ([[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        q = QuadForm(G)
        for query in (diagonalize, diagonalize, signature, is_isotropic, diagonalize):
            with pytest.raises(DomainError, match="^degenerate quadratic form$"):
                query(q)
            assert q._diag is None


def test_witness_is_the_same_across_the_memo():
    """is_isotropic first, then isotropy_witness on the same object, gives
    the witness of a fresh copy and of the cube scan; each form is moved from
    one that was diagonalized first."""
    rng = random.Random(94)
    forms = [QuadForm([[0, -1], [-1, -4]]), QuadForm([[0, 1], [1, 0]])]
    for k in range(40):
        n = 2 + k % 4
        H = [[0] * n for _ in range(n)]
        H[0][1] = H[1][0] = rng.choice((1, -1, 2, -3))
        for i in range(2, n):
            H[i][i] = rng.choice((-5, -3, -1, 1, 2, 7))
        base = QuadForm(H)
        assert is_isotropic(base)
        forms.append(base.transformed(random_invertible(rng, n, -2, 2)))
    found = 0
    for q in forms:
        bound = 4 if q.dim < 5 else 2
        assert is_isotropic(q)
        w = isotropy_witness(q, bound)
        assert w == isotropy_witness(QuadForm(q.gram), bound)
        assert w == reference_isotropy_witness(QuadForm(q.gram), bound)
        found += w is not None
    assert isotropy_witness(forms[0], 2) == [-1, 0]
    assert found >= 25


def assert_reduced(q, G):
    """q holds the Fraction matrix G as integer rows over the lcm of its
    denominators."""
    assert q.den == lcm(*(x.denominator for row in G for x in row))
    assert q.ints == [[x * q.den for x in row] for row in G]
    assert q.gram == G and all(type(x) is Fraction for row in q.gram for x in row)


def test_gram_held_as_integer_rows_over_one_denominator():
    rng = random.Random(92)
    G = [[2, -1, 0], [-1, 4, 3], [0, 3, 6]]
    q = QuadForm(G)
    assert (q.den, q.ints) == (1, G)
    for same in ([[Fraction(x) for x in row] for row in G], [[str(x) for x in row] for row in G]):
        assert (QuadForm(same).den, QuadForm(same).ints) == (1, G)
    for n in range(1, 6):
        for _ in range(10):
            q = rat_form(rng, n, zero_diagonal=rng.random() < 0.3)
            G = q.gram
            assert_reduced(q, G)
            for same in (QuadForm(G), QuadForm([[str(x) for x in row] for row in G])):
                assert (same.den, same.ints) == (q.den, q.ints) and same == q


def test_transformed_matches_fraction_congruence():
    rng = random.Random(93)
    for n in range(1, 6):
        for _ in range(10):
            q = rat_form(rng, n, zero_diagonal=rng.random() < 0.3)
            P = random_rational(rng, n, rng.randint(1, 6))
            moved = q.transformed(P)
            assert_reduced(moved, reference_congruence(P, q.gram))
            assert moved == QuadForm(moved.gram)
            P = random_rational(rng, n, n)
            if frac_det(P) != 0:
                back = q.transformed(P).transformed(reference_inverse(P))
                assert back == q and back.den == q.den


def test_transformed_rejects_mismatched_shapes():
    q = QuadForm([[1, 0], [0, 1]])
    for P in ([[1, 2]], [[1], [2], [3]], [[1, 2], [3]], []):
        with pytest.raises(DomainError, match="matrix shapes do not match"):
            q.transformed(P)


def test_empty_form_queries():
    q = QuadForm([])
    assert diagonalize(q) == ([], [])
    assert not is_isotropic(q)
    assert isotropy_witness(q, 3) is None
    assert signature(q) == (0, 0)
    assert hasse_invariant(q, 2) == 1
    assert certified_places(q) == {REAL_PLACE, 2}
    assert forms_equivalent(q, QuadForm([]))
    assert not forms_equivalent(q, diag(1))


def test_hilbert_symbol_pinned():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(3, 5, 3) == -1
    assert hilbert_symbol(-1, 5, 5) == 1
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(2, 7, 7) == 1


def test_hilbert_symbol_algebra():
    rng = random.Random(82)
    nz = [x for x in range(-10, 11) if x]
    for _ in range(40):
        a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
        v = rng.choice([REAL_PLACE, 2, 3, 5, 7])
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, -a, v) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1
        assert (
            hilbert_symbol(a * b, c, v)
            == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
        )


def test_hilbert_symbol_vs_local_solvability():
    # z^2 = a x^2 + b y^2 has a nontrivial p-adic solution iff the symbol is 1
    rng = random.Random(83)
    squarefree = [1, -1, 2, -2, 3, -3, 5, 6, -7, 10]
    for p in (2, 3, 5, 7, 11, 13):
        k = 6 if p == 2 else 3
        for _ in range(4):
            a, b = rng.choice(squarefree), rng.choice(squarefree)
            expect = 1 if _local_solvable(a, b, p, k) else -1
            assert hilbert_symbol(a, b, p) == expect


def test_hilbert_reciprocity():
    rng = random.Random(84)
    nz = [x for x in range(-20, 21) if x]
    for _ in range(50):
        a, b = rng.choice(nz), rng.choice(nz)
        places = certified_places(diag(a, b))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_symbols_match_valuation_reference():
    rng = random.Random(87)
    pool = [d for d in range(-40, 41) if d and all(e == 1 for e in factorint(abs(d)).values())]
    for _ in range(300):
        entries = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        places = {REAL_PLACE, 2, 3, 5, 7}
        for d in entries:
            places.update(factorint(abs(d)))
        for v in places:
            assert _hasse(entries, v) == reference_hasse(entries, v), (entries, v)
    for _ in range(300):
        a = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 12))
        b = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 12))
        for v in (REAL_PLACE, 2, 3, 5, 7, 11, 13):
            assert hilbert_symbol(a, b, v) == reference_hilbert_symbol(a, b, v), (a, b, v)


def test_hilbert_symbol_matches_squarefree_reference_on_prime_powers():
    # numerators and denominators with high powers of the places and both
    # signs: dividing out p^2 must agree with taking squarefree parts
    rng = random.Random(301)

    def draw():
        num, den = rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30)
        for p in (2, 3, 5, 7, 11, BIG_PRIME):
            e = rng.choice((0, 0, 1, 2, 3, rng.randint(4, 13 if p < 12 else 5)))
            if rng.random() < 0.5:
                num *= p ** e
            else:
                den *= p ** e
        return Fraction(num, den)

    seen = set()
    for _ in range(200):
        a, b = draw(), draw()
        for v in (REAL_PLACE, 2, 3, 5, 7, BIG_PRIME):
            got = hilbert_symbol(a, b, v)
            assert got == reference_hilbert_symbol(a, b, v), (a, b, v)
            seen.add((v, got))
    assert len(seen) == 12


def test_hilbert_symbol_factors_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError("factorint(%d) called" % n)

    monkeypatch.setattr(quadspace, "factorint", refuse)
    monkeypatch.setattr(intutil, "factorint", refuse)
    N = SEMIPRIME  # 7 mod 8 and 1 mod 5
    assert [hilbert_symbol(N, 3, v) for v in (5, 2, REAL_PLACE)] == [1, -1, 1]
    assert hilbert_symbol(Fraction(-N, 3), -N, REAL_PLACE) == -1
    assert hilbert_symbol(Fraction(2 * N, 9), 3 ** 5, 3) == -1  # (2N | 3) = -1
    assert hilbert_symbol(N * 25, Fraction(5, N), 5) == 1  # (N | 5) = 1


def test_hilbert_symbol_rejections():
    with pytest.raises(DomainError):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(DomainError):
        hilbert_symbol(2, 3, 4)
    with pytest.raises(DomainError):
        hasse_invariant(diag(1, 2, 3), 9)


def test_signature_and_hasse():
    assert signature(diag(1, 1, 1)) == (3, 0)
    assert signature(diag(1, -4, 9)) == (2, 1)
    assert hasse_invariant(diag(1, 1, 1), 2) == 1
    assert hasse_invariant(diag(-1, -1), REAL_PLACE) == -1
    rng = random.Random(85)
    for _ in range(10):
        q = rand_form(rng, 3)
        P = random_invertible(rng, 3)
        moved = q.transformed(P)
        for v in certified_places(q) | certified_places(moved):
            assert hasse_invariant(q, v) == hasse_invariant(moved, v)


# (form, isotropic, witness search bound); anisotropic bounds kept small
# because the search must then scan the whole box
ISOTROPY_CASES = [
    (diag(1, -1), True, 12),
    (diag(2, -8), True, 12),
    (diag(1, 1), False, 20),
    (diag(1, -2), False, 20),
    (diag(1, 1, -2), True, 12),
    (diag(1, 1, -7), False, 12),
    (diag(1, 1, 1), False, 12),
    (diag(1, 2, -3), True, 12),
    (diag(1, 1, 1, -7), False, 6),
    (diag(1, 1, 1, -1), True, 12),
    (diag(1, 3, 5, -2), True, 12),
    (diag(1, 1, 1, 1, 1), False, 4),
    (diag(1, 1, 1, 1, -1), True, 12),
    (diag(-1, -2, -5), False, 12),
]


@pytest.mark.parametrize(
    ("q", "expect", "bound"),
    ISOTROPY_CASES,
    ids=[",".join(str(q.gram[i][i]) for i in range(q.dim)) for q, _, _ in ISOTROPY_CASES],
)
def test_isotropy(q, expect, bound):
    assert is_isotropic(q) == expect
    w = isotropy_witness(q, bound)
    if expect:
        assert w is not None
        assert q.value(w) == 0
        assert any(x != 0 for x in w)
    else:
        assert w is None


def test_isotropic_diagonal_forms_have_small_witnesses():
    rng = random.Random(86)
    nz = [x for x in range(-7, 8) if x]
    for _ in range(20):
        q = diag(*(rng.choice(nz) for _ in range(rng.randint(2, 4))))
        if is_isotropic(q):
            w = isotropy_witness(q, 30)
            assert w is not None and q.value(w) == 0


def test_shell_prefixes_walk_the_shell_in_lexicographic_order():
    for m in range(4):
        for h in range(1, 4):
            walked = [p + (c,) for p, on_shell in shell_prefixes(m, h)
                      for c in range(-h, h + 1) if on_shell or abs(c) == h]
            cube = [y for y in itertools.product(range(-h, h + 1), repeat=m + 1)
                    if max(abs(c) for c in y) == h]
            assert walked == cube


def test_isotropy_witness_matches_cube_search():
    """The same first witness as the whole-cube scan, diagonal or not."""
    rng = random.Random(88)
    nz = [x for x in range(-7, 8) if x]
    top = {2: 8, 3: 8, 4: 6, 5: 3}
    found = 0
    for k in range(48):
        n = 2 + k % 4
        if k % 8 < 4:
            q = diag(*(rng.choice(nz) for _ in range(n)))
        else:
            q = rand_form(rng, n, -3, 3)
        bound = rng.randint(0, top[n])
        w = isotropy_witness(q, bound)
        assert w == reference_isotropy_witness(q, bound), (q, bound)
        found += w is not None
    assert found >= 20


def test_certified_none_agrees_with_cube_search():
    """Every None the isotropy certificate gives, the cube scan confirms."""
    for q, expect, bound in ISOTROPY_CASES:
        if not expect:
            assert isotropy_witness(q, bound) is None
            assert reference_isotropy_witness(q, bound) is None
    rng = random.Random(89)
    top = {2: 12, 3: 8, 4: 5, 5: 3}
    for k in range(16):
        n = 2 + k % 4
        M = random_invertible(rng, n)
        sign = rng.choice((1, -1))
        G = [[sign * sum(M[r][i] * M[r][j] for r in range(n)) for j in range(n)]
             for i in range(n)]
        q = QuadForm(G)
        assert not is_isotropic(q)
        assert isotropy_witness(q, top[n]) is None
        assert reference_isotropy_witness(q, top[n]) is None


def test_forms_equivalent():
    assert forms_equivalent(diag(1, -1), diag(2, -2))
    assert not forms_equivalent(diag(3, 5), diag(1, 15))  # split at 3 differs
    assert not forms_equivalent(diag(1, 1), diag(1, -1))
    assert not forms_equivalent(diag(1, 1), diag(1, 1, 1))
    rng = random.Random(87)
    for _ in range(10):
        q = rand_form(rng, rng.randint(2, 4))
        P = random_invertible(rng, q.dim)
        assert forms_equivalent(q, q.transformed(P))


def test_sqf_mul_matches_squarefree_part_of_the_product():
    rng = random.Random(302)
    pool = [d for d in range(-70, 71) if d and squarefree_part(d) == d]
    pool += [BIG_PRIME, -2 * BIG_PRIME, 3 * 7 * BIG_PRIME]
    for a in (1, -1):
        for b in pool:
            assert _sqf_mul(a, b) == _sqf_mul(b, a) == squarefree_part(a * b)
    for _ in range(600):
        a, b = rng.choice(pool), rng.choice(pool)
        assert _sqf_mul(a, b) == squarefree_part(a * b), (a, b)


def test_queries_match_factoring_reference():
    """diagonalize's P, the isotropy decision and witness, equivalence and the
    spin class on random non-diagonal Gram matrices with denominators, n = 2..5,
    against the routes that took squarefree parts of products by factoring."""
    rng = random.Random(303)
    seen = set()
    witnesses = 0
    for k in range(100):
        n = 2 + k % 4
        G = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 9)))
        q = QuadForm(G)
        if not q.is_nondegenerate:
            continue
        assert diagonalize(q) == reference_diagonalize(q)
        iso = is_isotropic(q)
        assert iso == reference_is_isotropic(q)
        bound = 3 if n < 4 else 2
        w = isotropy_witness(QuadForm(G), bound)
        assert w == reference_isotropy_witness(q, bound)
        witnesses += w is not None
        # congruent, negated, and the diagonal with two entries times a prime
        # (same discriminant and signature, Hasse data may differ)
        e = reference_diagonalize(q)[0]
        p = rng.choice((3, 5, 7, 11))
        for other in (q.transformed(random_invertible(rng, n)),
                      QuadForm([[-x for x in row] for row in G]),
                      diag(*([p * e[0], p * e[1]] + e[2:]))):
            got = forms_equivalent(q, other)
            assert got == reference_forms_equivalent(q, other)
            seen.add(("equiv", got))
        if n % 2:
            places = spin_obstruction(q).places
            assert places == reference_spin_obstruction(q)
            seen.add(("spin", bool(places)))
        seen.add(("iso", iso))
    assert witnesses >= 20
    assert seen == {(kind, b) for kind in ("equiv", "spin", "iso") for b in (True, False)}


def test_gram_invariant_matches_direct_values():
    rng = random.Random(88)
    for _ in range(10):
        space = rand_form(rng, 4)
        vectors = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        got = gram_invariant(space, vectors)
        for i in range(3):
            for j in range(3):
                direct = sum(
                    vectors[i][a] * space.gram[a][b] * vectors[j][b]
                    for a in range(4)
                    for b in range(4)
                )
                assert got.gram[i][j] == direct


def test_so_orbit_target():
    split4 = diag(1, 1, -1, -1)
    target, lifts = so_orbit_target(diag(1, 1, -1), split4)
    assert lifts
    target, lifts = so_orbit_target(diag(1, 1, 1), split4)
    assert not lifts
    with pytest.raises(DomainError):
        so_orbit_target(diag(1, 1), split4)


def test_quaternion_class_pinned():
    assert quaternion_class(-1, -1).places == frozenset({REAL_PLACE, 2})
    assert quaternion_class(2, 3).places == frozenset({2, 3})
    assert quaternion_class(1, 7).is_trivial
    assert quaternion_class(3, -3).is_trivial


def test_quaternion_class_matches_symbols():
    rng = random.Random(89)
    nz = [x for x in range(-15, 16) if x]
    for _ in range(20):
        u, v = rng.choice(nz), rng.choice(nz)
        cls = quaternion_class(u, v)
        for w in cls.places:
            assert hilbert_symbol(u, v, w) == -1
        for w in certified_places(diag(u, v)) - cls.places:
            assert hilbert_symbol(u, v, w) == 1


def test_brauer_class_parity():
    with pytest.raises(DomainError):
        BrauerClass2({2})
    assert BrauerClass2(set()).is_trivial
    assert BrauerClass2({2, 5}) == BrauerClass2({5, 2})


def test_spin_obstruction_pinned():
    assert spin_obstruction(diag(1, 1, 1)).places == frozenset({REAL_PLACE, 2})
    assert spin_obstruction(diag(1, 1, -1)).is_trivial
    assert spin_obstruction(diag(5)).is_trivial
    assert spin_obstruction(diag(1, 1, 1, 1, 1)).places == frozenset({REAL_PLACE, 2})
    with pytest.raises(DomainError):
        spin_obstruction(diag(1, 1))


def test_spin_matches_quaternion_in_dimension_three():
    # <a,b,c> has even Clifford algebra (-ab, -ac)
    rng = random.Random(90)
    nz = [x for x in range(-10, 11) if x]
    for _ in range(15):
        a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
        assert spin_obstruction(diag(a, b, c)) == quaternion_class(-a * b, -a * c)


def test_spin_is_congruence_invariant():
    rng = random.Random(91)
    for dim in (3, 5):
        for _ in range(5):
            q = rand_form(rng, dim)
            P = random_invertible(rng, dim)
            assert spin_obstruction(q) == spin_obstruction(q.transformed(P))
