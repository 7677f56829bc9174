"""Rational quadratic spaces and their local-global invariants.

Forms are symmetric Gram matrices G, held as integer rows over one
denominator; q(w) = w^T G w. Places are encoded as integers: 0 for the real
place, otherwise a prime p. Local data (Hilbert symbols, Hasse invariants) is
computed on a squarefree-integer diagonalization, found by fraction-free
elimination once per form and kept on it as integers; only `diagonalize`
builds the Fraction matrix P. The valuation of a squarefree entry at p is
whether p divides it, and squarefree parts of products of entries come from
gcds. Hilbert symbols of rationals factor nothing (see `hilbert_symbol`).
Global questions (isotropy, equivalence, the spin class) use the
local-global principle over the finite certified place set
{0, 2, primes of the diagonal}.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DomainError
from .intutil import factorint, is_prime, shell_prefixes, squarefree_part
from .linalg import _clear, _congruence, _fractions, _int_mul, det, is_symmetric, vec_mat

REAL_PLACE = 0


class QuadForm:
    """A symmetric Gram matrix G, held as integer rows `ints` = D G over
    `den` = D, the lcm of its entries' denominators; `gram` reads them as a
    Fraction matrix. `ints` is read-only: the form keeps its one
    diagonalization in `_diag` (set by the first query, see `_diagonal`)."""

    __slots__ = ("den", "ints", "_diag")

    def __init__(self, gram):
        self.den, self.ints = _clear(gram)
        if not is_symmetric(self.ints):
            raise DomainError("Gram matrix must be symmetric")
        self._diag = None

    gram = property(lambda self: _fractions(self.den, self.ints))
    dim = property(lambda self: len(self.ints))

    def value(self, w):
        e, (v,) = _clear([w])
        return Fraction(sum(map(mul, vec_mat(v, self.ints), v)), self.den * e * e)

    def det(self):
        return det(self.ints) / self.den ** self.dim

    @property
    def is_nondegenerate(self):
        return self.det() != 0

    def transformed(self, P):
        """P^T G P, the congruence action, on the integer rows."""
        out = object.__new__(QuadForm)
        out.den, (out.ints,) = _congruence(P, self.den, self.ints)
        out._diag = None
        return out

    def __eq__(self, other):
        if isinstance(other, QuadForm):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __repr__(self):
        return "QuadForm(%r)" % (self.gram,)


def _require_nondegenerate(q):
    if not q.is_nondegenerate:
        raise DomainError("degenerate quadratic form")


def _eliminate(D, ints):
    """(g, P, s): P^T (D G) P = diag(g) for the integer rows `ints` = D G.

    Fraction-free: each column c of the integer P carries a scale s_c, so
    that the true column is P[.][c] / s_c and the true G[r][c] is
    G[r][c] / (D s_r s_c). A step col_j <- a col_j + b col_i acts on both
    sides of G and on P, and s_j *= a; the pivot sequence is that of the
    rational elimination.
    """
    n = len(ints)
    G = [row[:] for row in ints]
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [1] * n

    def combine(j, i, a, b):
        # col_j <- a col_j + b col_i on G (both sides) and on P, a / b reduced
        g = gcd(a, b)
        a, b = a // g, b // g
        for M in (G, P):
            for row in M:
                row[j] = a * row[j] + b * row[i]
        G[j] = [a * x + b * y for x, y in zip(G[j], G[i])]
        s[j] *= a

    def swap_cols(i, j):
        for M in (G, P):
            for row in M:
                row[i], row[j] = row[j], row[i]
        G[i], G[j] = G[j], G[i]
        s[i], s[j] = s[j], s[i]

    for i in range(n):
        if G[i][i] == 0:
            j = next((k for k in range(i + 1, n) if G[k][k] != 0), None)
            if j is not None:
                swap_cols(i, j)
            else:
                j = next((k for k in range(i + 1, n) if G[i][k] != 0), None)
                if j is None:
                    raise DomainError("degenerate quadratic form")
                # both diagonals vanish here; this choice makes the entry 1
                combine(i, j, 2 * G[i][j], D * s[i] ** 2)
        for j in range(i + 1, n):
            if G[i][j] != 0:
                combine(j, i, G[i][i], -G[i][j])
    g = [G[i][i] for i in range(n)]
    assert _int_mul(zip(*P), _int_mul(ints, P)) == [
        [g[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return g, P, s


def _diagonal(q: QuadForm):
    """(entries, P, scales), kept on the form: the squarefree diagonal, the
    integer P of `_eliminate`, and per column an integer pair (a_i, b_i)
    such that column i of the rational transform is P[.][i] a_i / b_i.

    From `_eliminate`, the true diagonal entry is d_i = g_i / (D s_i^2), in
    the square class of g_i D, so e_i is the squarefree part of g_i D (their
    common square divided out first), and column i of P is scaled by
    sign(s_i) sqrt(e_i D / g_i) = a_i / b_i.
    """
    if q._diag is None:
        g, P, s = _eliminate(q.den, q.ints)
        D, entries, scales = q.den, [], []
        for gi, si in zip(g, s):
            k = gcd(gi, D)
            e = squarefree_part(gi // k * (D // k))
            c = gcd(e * D, gi) if gi > 0 else -gcd(e * D, gi)
            a, b = isqrt(e * D // c), isqrt(gi // c)
            assert a * a * c == e * D and b * b * c == gi  # e D / g_i = a^2 / b^2, reduced
            entries.append(e)
            scales.append((a if si > 0 else -a, b))
        q._diag = tuple(entries), tuple(map(tuple, P)), tuple(scales)
    return q._diag


def diagonalize(q: QuadForm):
    """(entries, P) with P^T G P = diag(entries), entries squarefree integers.

    The elimination runs once per form and its result is kept on the form
    (`_diagonal`); each call builds P, whose column i is the integer column
    times a_i / b_i, as fresh lists.
    """
    entries, P, scales = _diagonal(q)
    return list(entries), [[Fraction(x * a, b) for x, (a, b) in zip(row, scales)] for row in P]


def _legendre(u, p):
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _check_place(place):
    if place != REAL_PLACE and not (isinstance(place, int) and is_prime(place)):
        raise DomainError("place must be 0 or a prime")


def _symbol(A, B, p) -> int:
    """(A, B)_p for nonzero integers A, B and p = 0 or a prime, p^2 dividing
    neither (as for squarefree A, B): the valuation at p is 0 or 1, whether
    p divides.
    """
    if p == REAL_PLACE:
        return -1 if (A < 0 and B < 0) else 1
    al, be = A % p == 0, B % p == 0
    u = A // p if al else A
    w = B // p if be else B
    if p == 2:
        e = ((u - 1) // 2) * ((w - 1) // 2)
        e += al * ((w * w - 1) // 8) + be * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = -1 if al and be and p % 4 == 3 else 1
    if be:
        s *= _legendre(u, p)
    if al:
        s *= _legendre(w, p)
    return s


def _strip_square(A, p):
    """A with p^2 divided out while it divides: then v_p(A) is 0 or 1."""
    pp = p * p
    while A % pp == 0:
        A //= pp
    return A


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v: 1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution.

    Nothing is factored. The integer A = num(a) den(a) is in the square class
    of a, and so is A with p^2 divided out, whose v_p is 0 or 1. The symbol
    at p depends only on the valuations and on the unit parts mod p, mod 8
    at p = 2 (Serre, A Course in Arithmetic, ch. III, Thm. 1), which is what
    `_symbol` reads. The real place reads only the signs.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol needs nonzero arguments")
    _check_place(place)
    A, B = a.numerator * a.denominator, b.numerator * b.denominator
    if place != REAL_PLACE:
        A, B = _strip_square(A, place), _strip_square(B, place)
    return _symbol(A, B, place)


def _hasse(entries, place) -> int:
    """Product of (e_i, e_j)_place over i < j, entries squarefree integers."""
    s = 1
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            s *= _symbol(a, b, place)
    return s


def _places(entries):
    places = {REAL_PLACE, 2}
    for d in entries:
        places.update(factorint(abs(d)))
    return places


def _sqf_mul(a, b):
    """squarefree_part(a * b) for squarefree integers a and b: a b is
    g^2 (a/g)(b/g) with g = gcd(a, b), and a/g, b/g are coprime."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def _sqf_prod(entries, start=1):
    """squarefree_part(start * prod(entries)), start and entries squarefree."""
    return reduce(_sqf_mul, entries, start)


def _signature(entries):
    pos = sum(1 for d in entries if d > 0)
    return pos, len(entries) - pos


def hasse_invariant(q: QuadForm, place) -> int:
    entries = _diagonal(q)[0]
    _check_place(place)
    return _hasse(entries, place)


def certified_places(q: QuadForm):
    """{0, 2, odd primes dividing the squarefree diagonal}: symbols are 1 elsewhere."""
    return _places(_diagonal(q)[0])


def signature(q: QuadForm):
    return _signature(_diagonal(q)[0])


def _local_square(D, place) -> bool:
    """Is the squarefree integer D a square at the place?"""
    if D == 1:
        return True
    if place == REAL_PLACE:
        return D > 0
    p = place
    if p == 2:
        return D % 8 == 1
    if D % p == 0:
        return False
    return _legendre(D, p) == 1


def _isotropic(entries) -> bool:
    n = len(entries)
    if n <= 1:
        return False
    if n == 2:
        return _sqf_mul(-entries[0], entries[1]) == 1
    if n == 3:
        m = _sqf_prod(entries, -1)
        return all(_symbol(-1, m, v) == _hasse(entries, v) for v in _places(entries))
    if n == 4:
        m = _sqf_prod(entries)
        for v in _places(entries):
            if _local_square(m, v) and _hasse(entries, v) != _symbol(-1, -1, v):
                return False
        return True
    pos, neg = _signature(entries)
    return pos > 0 and neg > 0


def is_isotropic(q: QuadForm) -> bool:
    """Does q represent zero nontrivially over the rationals?"""
    return _isotropic(_diagonal(q)[0])


def isotropy_witness(q: QuadForm, bound: int):
    """Primitive integer zero vector of height <= bound, or None.

    The certified decision comes first: an anisotropic form gets None without
    a search. An isotropic form is searched on the diagonal <e_1, ..., e_n>,
    height h = 1, 2, ..., bound in turn, each height-h shell (max |y_i| = h)
    in lexicographic order. The last coordinate is solved, not enumerated:
    e_n t^2 = -(e_1 y_1^2 + ... + e_(n-1) y_(n-1)^2), and -t comes before +t.
    The first zero y found is mapped back through P and made primitive.
    """
    return _isotropy_search(q, bound)[1]


def _isotropy_search(q: QuadForm, bound: int):
    """(is_isotropic(q), isotropy_witness(q, bound)) from one diagonalization."""
    entries, P, scales = _diagonal(q)
    if not _isotropic(entries):
        return False, None
    # L P for the rational P of `diagonalize`, L = lcm(b_i) > 0: a positive
    # multiple keeps each column's sign, and the witness is made primitive
    L = lcm(*(b for _, b in scales))
    P = [[x * a * (L // b) for x, (a, b) in zip(row, scales)] for row in P]
    head, last = entries[:-1], entries[-1]
    for h in range(1, bound + 1):
        for p, on_shell in shell_prefixes(len(head), h):
            t2, r = divmod(-sum(e * c * c for e, c in zip(head, p)), last)
            if r or t2 < 0:
                continue
            t = isqrt(t2)
            if t * t != t2 or t > h or not (on_shell or t == h):
                continue
            x = [sum(map(mul, row, p + (-t,))) for row in P]
            g = gcd(*x)
            ints = [c // g for c in x]
            assert q.value(ints) == 0
            return True, ints
    return True, None


def forms_equivalent(q1: QuadForm, q2: QuadForm) -> bool:
    """Rational equivalence: dim, discriminant class, signature, local Hasse data."""
    e1 = _diagonal(q1)[0]
    e2 = _diagonal(q2)[0]
    if q1.dim != q2.dim:
        return False
    if _sqf_prod(e1) != _sqf_prod(e2):
        return False
    if _signature(e1) != _signature(e2):
        return False
    places = _places(e1) | _places(e2)
    return all(_hasse(e1, v) == _hasse(e2, v) for v in places)


def gram_invariant(space: QuadForm, vectors) -> QuadForm:
    """Pullback form q(x_1 w_1 + ... + x_n w_n) for n = dim(space) - 1 vectors."""
    n = space.dim - 1
    if len(vectors) != n:
        raise DomainError("need dim - 1 vectors")
    ws = [list(w) for w in vectors]  # cleared once, by `transformed`
    if any(len(w) != space.dim for w in ws):
        raise DomainError("vector of wrong length")
    return space.transformed([[w[i] for w in ws] for i in range(space.dim)])


def so_orbit_target(f: QuadForm, space: QuadForm):
    """(W', lifts): W' = f orthogonal-plus <c> with disc(W') = disc(space).

    A tuple with pullback form f arises from a special-orthogonal orbit on
    space iff W' is equivalent to space.
    """
    _require_nondegenerate(f)
    _require_nondegenerate(space)
    if space.dim != f.dim + 1:
        raise DomainError("ambient space must have dimension dim(f) + 1")
    c = squarefree_part(space.det() * f.det())
    target = QuadForm([row + [0] for row in f.gram] + [[0] * f.dim + [c]])
    assert squarefree_part(target.det()) == squarefree_part(space.det())
    return target, forms_equivalent(target, space)


class BrauerClass2:
    """2-torsion Brauer class given by its ramified places (even cardinality)."""

    __slots__ = ("places",)

    def __init__(self, places):
        ps = frozenset(places)
        if len(ps) % 2:
            raise DomainError("a Brauer class has an even number of ramified places")
        self.places = ps

    @property
    def is_trivial(self):
        return not self.places

    def __eq__(self, other):
        if isinstance(other, BrauerClass2):
            return self.places == other.places
        return NotImplemented

    def __hash__(self):
        return hash(self.places)

    def __repr__(self):
        body = sorted(self.places, key=lambda v: (v != REAL_PLACE, v))
        return "BrauerClass2(%r)" % (body,)


def quaternion_class(u, v) -> BrauerClass2:
    """Ramified places of the quaternion algebra (u, v)."""
    u, v = Fraction(u), Fraction(v)
    if u == 0 or v == 0:
        raise DomainError("quaternion parameters must be nonzero")
    U = squarefree_part(u)
    V = squarefree_part(v)
    return BrauerClass2(_ramified(U, V, _places([U, V])))


def _ramified(U, V, places):
    """The places in `places` where (U, V) ramifies, for squarefree integers
    U, V and a set holding 0, 2 and every prime dividing U V."""
    return frozenset(p for p in places if _symbol(U, V, p) == -1)


def spin_obstruction(q: QuadForm) -> BrauerClass2:
    """Brauer class of the even Clifford algebra of an odd-dimensional form.

    Dimension 3 with diagonal <a, b, c> gives the quaternion class (-ab, -ac).
    Higher odd dimensions reduce by splitting off two-dimensional pieces:
    the full Clifford class of e + <a, b> is that of <-ab> e plus (a, b),
    and the even Clifford algebra of an odd form <a_1..a_m> is the full
    Clifford algebra of <-a_m a_1, ..., -a_m a_(m-1)>. Every entry on the
    way is the squarefree part of a product of diagonal entries, taken by
    `_sqf_mul`, so only the primes of the diagonal can ramify.
    """
    if q.dim % 2 == 0:
        raise DomainError("even Clifford class computed only for odd dimension")
    entries = _diagonal(q)[0]
    if q.dim == 1:
        return BrauerClass2(frozenset())
    places = _places(entries)
    if q.dim == 3:
        a, b, c = entries
        return BrauerClass2(_ramified(_sqf_mul(-a, b), _sqf_mul(-a, c), places))
    e = [_sqf_mul(-entries[-1], x) for x in entries[:-1]]
    acc = frozenset()
    while len(e) > 2:
        a, b = e[-2], e[-1]
        acc ^= _ramified(a, b, places)
        ab = _sqf_mul(-a, b)
        e = [_sqf_mul(ab, x) for x in e[:-2]]
    acc ^= _ramified(e[0], e[1], places)
    return BrauerClass2(acc)
