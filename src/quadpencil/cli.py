"""Command-line interface: one executable exposing every library operation.

Structured inputs (matrices, parameter payloads) are JSON, read from stdin or
passed inline with --json; small inputs ride on flags. Results are printed as
a single JSON object. Exit codes: 0 success, 1 malformed input, 2 violated
precondition.
"""

import argparse
import json
import sys

from . import jsonio
from .adjoint import (
    AdjointInvariants,
    adjoint_canonical_rep,
    adjoint_conjugator,
    adjoint_invariants,
    conjugator_is_unique,
    regularity_D,
)
from .errors import DomainError
from .etale import EtaleAlgebra
from .hyper import CurvePoint, point_to_orbit
from .jsonio import PayloadError
from .orders import (
    canonical_odd_orbit,
    form_order,
    ideal_pair_to_matrices,
    inverse_different_check,
    order_disc,
    power_ideal,
    rational_params_of_pair,
)
from .pencil import (
    OrbitParam,
    _orbit_search,
    g_equivalent,
    h_equivalent,
    invariant_binary_form,
    param_to_pencil,
    pencil_to_param,
    real_orbit_obstruction,
    stabilizer_rational,
)
from .pfaffian import SkewTriple, pfaffian, pi_invariant, sl5_stable, sub_pfaffian_forms
from .quadspace import (
    QuadForm,
    _isotropy_search,
    forms_equivalent,
    gram_invariant,
    hilbert_symbol,
    so_orbit_target,
    spin_obstruction,
)


def _payload(args):
    text = args.json if getattr(args, "json", None) else sys.stdin.read()
    return json.loads(text)


def _emit(obj):
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


# ---------------------------------------------------------------- pencil

def cmd_pencil_invariant(args):
    pair = jsonio.json_to_pair(_payload(args))
    _emit(jsonio.form_to_json(invariant_binary_form(pair)))


def cmd_pencil_to_param(args):
    pair = jsonio.json_to_pair(_payload(args))
    p = pencil_to_param(pair, seed=args.seed)
    _emit(jsonio.param_to_json(p))


def cmd_pencil_from_param(args):
    f = jsonio.parse_form_arg(args.f)
    alpha, t = jsonio.fields(_payload(args), "alpha", "t")
    L = EtaleAlgebra(f.monic_part())
    p = OrbitParam(L, L.element(jsonio.json_to_vec(alpha)), jsonio.json_to_rat(t))
    _emit(jsonio.pair_to_json(param_to_pencil(f, p)))


def _param_pair(args):
    return [jsonio.json_to_param(p) for p in jsonio.fields(_payload(args), "p1", "p2")]


def cmd_pencil_equiv(args):
    p1, p2 = _param_pair(args)
    c = g_equivalent(p1, p2)
    out = {"equivalent": c is not None}
    if c is not None:
        out["witness"] = jsonio.vec_to_json(c.coords)
    _emit(out)


def cmd_pencil_h_equiv(args):
    p1, p2 = _param_pair(args)
    extra = jsonio.parse_primes_arg(args.primes)
    res = h_equivalent(p1, p2, extra_primes=extra)
    out = {"equivalent": res is not None}
    if res is not None:
        c, d = res
        out["witness"] = jsonio.vec_to_json(c.coords)
        out["d"] = jsonio.rat_to_json(d)
    _emit(out)


def cmd_pencil_stab(args):
    pair = jsonio.json_to_pair(_payload(args))
    S = stabilizer_rational(pair)
    _emit(
        {
            "order": S.order,
            "geometric_order": S.geometric_order,
            "generators": [jsonio.mat_to_json(g) for g in S.generators],
            "elements": [jsonio.mat_to_json(g) for g in S.elements],
        }
    )


def cmd_pencil_real_obstruction(args):
    f = jsonio.parse_form_arg(args.f)
    _emit({"obstructed": real_orbit_obstruction(f)})


def cmd_pencil_search(args):
    f = jsonio.parse_form_arg(args.f)
    obstructed, p = _orbit_search(f, jsonio.parse_int_arg(args.bound, "--bound", lo=0))
    if p is None:
        _emit({"found": False, "real_obstruction": obstructed})
    else:
        _emit({"found": True, "alpha": jsonio.vec_to_json(p.alpha.coords),
               "t": jsonio.rat_to_json(p.t)})


# ---------------------------------------------------------------- integral

def cmd_integral_order(args):
    O = form_order(jsonio.parse_form_arg(args.f))
    _emit(
        {
            "basis": [jsonio.vec_to_json(b.coords) for b in O.basis],
            "table": [[list(entry) for entry in row] for row in O.table],
        }
    )


def cmd_integral_disc(args):
    f = jsonio.parse_form_arg(args.f)
    O = form_order(f)
    d1 = order_disc(O)
    d2 = f.disc()
    _emit(
        {
            "order_disc": jsonio.rat_to_json(d1),
            "form_disc": jsonio.rat_to_json(d2),
            "equal": d1 == d2,
        }
    )


def cmd_integral_ideal(args):
    O = form_order(jsonio.parse_form_arg(args.f))
    I = power_ideal(O, args.k)
    out = jsonio.ideal_to_json(I)
    out["norm"] = jsonio.rat_to_json(I.norm())
    _emit(out)


def cmd_integral_wood(args):
    O = form_order(jsonio.parse_form_arg(args.f))
    ideal, alpha = jsonio.fields(_payload(args), "ideal", "alpha")
    I = jsonio.json_to_ideal(O, ideal)
    alpha = O.algebra.element(jsonio.json_to_vec(alpha))
    pair = ideal_pair_to_matrices(O, I, alpha)
    gamma, t = rational_params_of_pair(O, I, alpha)
    out = jsonio.pair_to_json(pair)
    out["gamma"] = jsonio.vec_to_json(gamma.coords)
    out["t"] = jsonio.rat_to_json(t)
    _emit(out)


def cmd_integral_canonical(args):
    O = form_order(jsonio.parse_form_arg(args.f))
    pair, I, alpha = canonical_odd_orbit(O)
    gamma, t = rational_params_of_pair(O, I, alpha)
    out = jsonio.pair_to_json(pair)
    out["ideal"] = jsonio.ideal_to_json(I)
    out["gamma"] = jsonio.vec_to_json(gamma.coords)
    out["t"] = jsonio.rat_to_json(t)
    _emit(out)


def cmd_integral_different(args):
    O = form_order(jsonio.parse_form_arg(args.f))
    contained, index = inverse_different_check(O)
    _emit({"contained": contained, "index": index})


# ---------------------------------------------------------------- hyper

def cmd_hyper(args):
    f = jsonio.parse_form_arg(args.f)
    parts = args.point.split(",")
    if len(parts) != 2:
        raise PayloadError("--point must be u,v")
    pt = CurvePoint(jsonio.json_to_rat(parts[0]), jsonio.json_to_rat(parts[1]))
    _emit(jsonio.param_to_json(point_to_orbit(f, pt)))


# ---------------------------------------------------------------- quad

def cmd_quad_iso(args):
    q = jsonio.json_to_quadform(_payload(args))
    bound = jsonio.parse_int_arg(args.bound, "--bound", lo=0)
    isotropic, witness = _isotropy_search(q, bound)
    out = {"isotropic": isotropic}
    if bound:
        out["witness"] = witness
    _emit(out)


def cmd_quad_equiv(args):
    q1, q2 = (jsonio.json_to_quadform(q) for q in jsonio.fields(_payload(args), "q1", "q2"))
    _emit({"equivalent": forms_equivalent(q1, q2)})


def cmd_quad_hilbert(args):
    place = jsonio.parse_place_arg(args.place)
    a, b = jsonio.json_to_rat(args.a), jsonio.json_to_rat(args.b)
    _emit({"symbol": hilbert_symbol(a, b, place)})


def cmd_quad_spin(args):
    q = jsonio.json_to_quadform(_payload(args))
    _emit(jsonio.brauer_to_json(spin_obstruction(q)))


def cmd_quad_gram(args):
    space, vectors = jsonio.fields(_payload(args), "space", "vectors")
    if not isinstance(vectors, list):
        raise PayloadError("expected a list of vectors")
    space = jsonio.json_to_quadform(space)
    vectors = [jsonio.json_to_vec(v) for v in vectors]
    _emit(jsonio.quadform_to_json(gram_invariant(space, vectors)))


def cmd_quad_lift(args):
    f, space = (jsonio.json_to_quadform(q) for q in jsonio.fields(_payload(args), "f", "space"))
    target, lifts = so_orbit_target(f, space)
    _emit({"lifts": lifts, "target": jsonio.mat_to_json(target.gram)})


# ---------------------------------------------------------------- pf

def _triple(args):
    mats = jsonio.fields(_payload(args), "A", "B", "C")
    return SkewTriple(*(jsonio.json_to_mat(M) for M in mats))


def cmd_pf_pfaffian(args):
    M = jsonio.json_to_mat(_payload(args))
    _emit({"pfaffian": jsonio.rat_to_json(pfaffian(M))})


def cmd_pf_sub(args):
    forms = sub_pfaffian_forms(_triple(args))
    _emit(
        {
            "monomials": ["x2", "y2", "z2", "xy", "xz", "yz"],
            "forms": [jsonio.vec_to_json(q) for q in forms],
        }
    )


def cmd_pf_pi(args):
    _emit({"pi": jsonio.mat_to_json(pi_invariant(_triple(args)))})


def cmd_pf_stable(args):
    _emit({"stable": sl5_stable(_triple(args))})


# ---------------------------------------------------------------- adj

def cmd_adj_inv(args):
    T = jsonio.json_to_mat(_payload(args), square=True)
    inv = adjoint_invariants(T)
    _emit(
        {
            "c": jsonio.vec_to_json(inv.c),
            "a": jsonio.vec_to_json(inv.a),
            "D": jsonio.rat_to_json(regularity_D(T)),
        }
    )


def cmd_adj_canon(args):
    c, a = jsonio.fields(_payload(args), "c", "a")
    inv = AdjointInvariants(jsonio.json_to_vec(c), jsonio.json_to_vec(a))
    _emit({"T": jsonio.mat_to_json(adjoint_canonical_rep(inv))})


def cmd_adj_conj(args):
    T, Tp = (jsonio.json_to_mat(M, square=True)
             for M in jsonio.fields(_payload(args), "T", "Tprime"))
    g = adjoint_conjugator(T, Tp)
    _emit({"g": jsonio.mat_to_json(g), "unique": conjugator_is_unique(T, Tp)})


# ---------------------------------------------------------------- selftest

def cmd_selftest(args):
    if not __debug__:
        raise DomainError("selftest checks its criteria with assert, which python -O strips")
    from .acceptance import run_selftest

    return run_selftest(seed=args.seed)


class _Parser(argparse.ArgumentParser):
    """A usage error (bad or missing flag) is malformed input: exit 1, one line."""

    def error(self, message):
        raise PayloadError("%s: %s" % (self.prog, message))


def build_parser():
    ap = _Parser(
        prog="quadpencil",
        description=(
            "Exact arithmetic of pencils of quadrics and related orbit "
            "problems. Binary form coefficients are listed f0..fn (leading "
            "power of x first); structured inputs are JSON on stdin or via "
            "--json; rationals are 'p/q' strings; the real place is 'oo'."
        ),
    )
    sub = ap.add_subparsers(dest="group", required=True)

    def add(parent, name, fn, *, f=False, bound=None, seed=False, json_in=False,
            extra=()):
        p = parent.add_parser(name)
        if f:
            p.add_argument("--f", required=True,
                           help="form coefficients f0..fn, comma separated")
        if bound is not None:
            p.add_argument("--bound", default=bound)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if json_in:
            p.add_argument("--json", help="inline JSON payload (default: stdin)")
        for arg, kw in extra:
            p.add_argument(arg, **kw)
        p.set_defaults(func=fn)
        return p

    pencil = sub.add_parser("pencil").add_subparsers(dest="cmd", required=True)
    add(pencil, "invariant", cmd_pencil_invariant, json_in=True)
    add(pencil, "to-param", cmd_pencil_to_param, json_in=True, seed=True)
    add(pencil, "from-param", cmd_pencil_from_param, f=True, json_in=True)
    add(pencil, "equiv", cmd_pencil_equiv, json_in=True)
    add(pencil, "h-equiv", cmd_pencil_h_equiv, json_in=True,
        extra=(("--primes", {"default": "", "help": "extra primes, comma separated"}),))
    add(pencil, "stab", cmd_pencil_stab, json_in=True)
    add(pencil, "real-obstruction", cmd_pencil_real_obstruction, f=True)
    add(pencil, "search", cmd_pencil_search, f=True, bound=20)

    integral = sub.add_parser("integral").add_subparsers(dest="cmd", required=True)
    add(integral, "order", cmd_integral_order, f=True)
    add(integral, "disc", cmd_integral_disc, f=True)
    add(integral, "ideal", cmd_integral_ideal, f=True,
        extra=(("--k", {"type": int, "required": True}),))
    add(integral, "wood", cmd_integral_wood, f=True, json_in=True)
    add(integral, "canonical", cmd_integral_canonical, f=True)
    add(integral, "different", cmd_integral_different, f=True)

    add(sub, "hyper", cmd_hyper, f=True,
        extra=(("--point", {"required": True, "help": "u,v"}),))

    quad = sub.add_parser("quad").add_subparsers(dest="cmd", required=True)
    add(quad, "iso", cmd_quad_iso, json_in=True, bound=0)
    add(quad, "equiv", cmd_quad_equiv, json_in=True)
    add(quad, "hilbert", cmd_quad_hilbert,
        extra=(("--a", {"required": True}), ("--b", {"required": True}),
               ("--place", {"required": True})))
    add(quad, "spin", cmd_quad_spin, json_in=True)
    add(quad, "gram", cmd_quad_gram, json_in=True)
    add(quad, "lift", cmd_quad_lift, json_in=True)

    pf = sub.add_parser("pf").add_subparsers(dest="cmd", required=True)
    add(pf, "pfaffian", cmd_pf_pfaffian, json_in=True)
    add(pf, "sub", cmd_pf_sub, json_in=True)
    add(pf, "pi", cmd_pf_pi, json_in=True)
    add(pf, "stable", cmd_pf_stable, json_in=True)

    adj = sub.add_parser("adj").add_subparsers(dest="cmd", required=True)
    add(adj, "inv", cmd_adj_inv, json_in=True)
    add(adj, "canon", cmd_adj_canon, json_in=True)
    add(adj, "conj", cmd_adj_conj, json_in=True)

    st = sub.add_parser("selftest")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)

    return ap


_VALUE_FLAGS = {"--f", "--a", "--b", "--point", "--json", "--primes", "--place"}


def _merge_value_flags(argv):
    # let flag values start with '-' (e.g. --f -1,0,-1) by gluing them on
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_merge_value_flags(list(argv)))
        rc = args.func(args)
        return 0 if rc is None else rc
    except (json.JSONDecodeError, PayloadError) as exc:
        print("input error: %s" % (exc,), file=sys.stderr)
        return 1
    except DomainError as exc:
        print("domain error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
