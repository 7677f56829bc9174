"""JSON encoding of the domain objects used by the command-line interface.

Rationals are strings "p/q" (or bare integer strings), matrices are nested
row-major arrays, polynomial and form coefficient lists are highest degree
first (f0..fn), algebra-element coordinates are constant first in the power
basis, and the real place is spelled "oo".
"""

from fractions import Fraction

from .binforms import BinaryForm
from .errors import DomainError
from .etale import EtaleAlgebra
from .intutil import is_prime
from .linalg import det
from .orders import OrientedIdeal, Order
from .pencil import OrbitParam, SymPair
from .polys import Poly
from .quadspace import REAL_PLACE, BrauerClass2, QuadForm


class PayloadError(ValueError):
    """Input that does not match the documented JSON schema."""


def fields(obj, *keys):
    """[obj[k] for k in keys] for a JSON object that must carry every key."""
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise PayloadError("expected {%s}" % ", ".join('"%s"' % k for k in keys))
    return [obj[k] for k in keys]


def rat_to_json(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def json_to_rat(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise PayloadError("rationals must be integers or 'p/q' strings")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise PayloadError("bad rational %r" % (v,)) from exc
    raise PayloadError("bad rational %r" % (v,))


def vec_to_json(v):
    return [rat_to_json(x) for x in v]


def json_to_vec(v):
    if not isinstance(v, list):
        raise PayloadError("expected a list of rationals")
    return [json_to_rat(x) for x in v]


def mat_to_json(M):
    return [vec_to_json(row) for row in M]


def json_to_mat(M, square=False):
    if not isinstance(M, list) or not M:
        raise PayloadError("expected a nonempty matrix")
    rows = [json_to_vec(row) for row in M]
    if len({len(r) for r in rows}) != 1:
        raise PayloadError("ragged matrix")
    if square and len(rows[0]) != len(rows):
        raise PayloadError("expected a square matrix")
    return rows


def form_to_json(f: BinaryForm):
    return {"f": vec_to_json(f.coeffs)}


def parse_form_arg(text: str) -> BinaryForm:
    """Comma-separated f0..fn, each an integer or p/q."""
    try:
        coeffs = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PayloadError("bad coefficient list %r" % (text,)) from exc
    return BinaryForm(coeffs)


def parse_int_arg(text, name, lo=None) -> int:
    """An integer flag value, at least lo when lo is given."""
    try:
        v = int(text)
    except ValueError as exc:
        raise PayloadError("%s must be an integer, not %r" % (name, text)) from exc
    if lo is not None and v < lo:
        raise PayloadError("%s must be at least %d" % (name, lo))
    return v


def parse_primes_arg(text: str) -> tuple:
    """Comma-separated primes; the empty string gives none."""
    ps = tuple(parse_int_arg(part, "--primes") for part in text.split(",")) if text else ()
    for p in ps:
        if not is_prime(p):
            raise PayloadError("--primes: %d is not a prime" % p)
    return ps


def parse_place_arg(text: str):
    """--place: "oo" for the real place, otherwise an integer."""
    return REAL_PLACE if text == "oo" else parse_int_arg(text, "--place")


def poly_to_json(p: Poly):
    # highest degree first, like form coefficients
    cs = list(p.coeffs[::-1]) if p.degree >= 0 else [Fraction(0)]
    return vec_to_json(cs)


def json_to_poly(v) -> Poly:
    return Poly(json_to_vec(v)[::-1])


def pair_to_json(pair: SymPair):
    return {"A": mat_to_json(pair.A), "B": mat_to_json(pair.B)}


def json_to_pair(obj) -> SymPair:
    A, B = fields(obj, "A", "B")
    return SymPair(json_to_mat(A), json_to_mat(B))


def param_to_json(p: OrbitParam):
    return {
        "g": poly_to_json(p.algebra.g),
        "alpha": vec_to_json(p.alpha.coords),
        "t": rat_to_json(p.t),
    }


def json_to_param(obj) -> OrbitParam:
    g, alpha, t = fields(obj, "g", "alpha", "t")
    L = EtaleAlgebra(json_to_poly(g))
    return OrbitParam(L, L.element(json_to_vec(alpha)), json_to_rat(t))


def ideal_to_json(I: OrientedIdeal):
    return {
        "den": I.den,
        "mat": [[int(x) for x in row] for row in I.mat],
        "eps": I.eps,
    }


def _is_int(v):
    """A JSON integer; JSON true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_to_ideal(order: Order, obj) -> OrientedIdeal:
    den, rows, eps = fields(obj, "den", "mat", "eps")
    if not _is_int(den) or den <= 0 or not _is_int(eps) or eps not in (1, -1):
        raise PayloadError("den must be a positive integer, eps +1 or -1")
    if not isinstance(rows, list) or any(
        not isinstance(r, list) or any(not _is_int(x) for x in r) for r in rows
    ):
        raise PayloadError("mat must be an integer matrix")
    if len(rows) != order.n or any(len(r) != order.n for r in rows):
        raise PayloadError("mat must be %d x %d" % (order.n, order.n))
    d = det(rows)
    if d == 0:
        raise DomainError("ideal basis is not full rank")
    ideal = OrientedIdeal(order, den, [list(r) for r in rows], eps)
    ideal._norm = eps * Fraction(d, den ** order.n)  # unchanged by the gcd reduction
    return ideal


def place_to_json(v):
    return "oo" if v == REAL_PLACE else v


def brauer_to_json(b: BrauerClass2):
    body = sorted(b.places, key=lambda v: (v != REAL_PLACE, v))
    return {"ramified": [place_to_json(v) for v in body]}


def quadform_to_json(q: QuadForm):
    return {"gram": mat_to_json(q.gram)}


def json_to_quadform(obj) -> QuadForm:
    if isinstance(obj, dict):
        (obj,) = fields(obj, "gram")
    return QuadForm(json_to_mat(obj))
