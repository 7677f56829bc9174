"""The four benchmark workloads: input generators, timed ops and oracles.

Op i of a workload draws its input from random.Random("<workload>:<seed>:<i>")
only, so the inputs do not depend on how many ops a run reaches.  ``run`` holds
the library calls that are timed; ``check`` verifies the result with an
identity computed by ``oracle`` (or, for the CLI, against the in-process
answer) and raises ``OracleError`` on a wrong answer; ``record`` gives the
canonical JSON form that goes into the output digest.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracle as O
from worker import BARE_REF_S, python_run_s
from quadpencil import (
    BinaryForm,
    EtaleAlgebra,
    OrbitParam,
    Poly,
    QuadForm,
    SkewTriple,
    adjoint_conjugator,
    canonical_odd_orbit,
    conjugator_is_unique,
    factor_poly,
    form_order,
    forms_equivalent,
    g_equivalent,
    hilbert_symbol,
    ideal_pow,
    invariant_binary_form,
    inverse_different_check,
    is_isotropic,
    isotropy_witness,
    orbit_witness_search,
    order_disc,
    param_to_pencil,
    pencil_to_param,
    pfaffian,
    pi_invariant,
    power_ideal,
    rational_params_of_pair,
    spin_obstruction,
    stabilizer_rational,
)


class OracleError(AssertionError):
    """A library answer that fails its independent check."""


def expect(cond, msg):
    if not cond:
        raise OracleError(msg)


def _monic_separable(rng, n, lo=-5, hi=5):
    while True:
        g = [Fraction(rng.randint(lo, hi)) for _ in range(n)] + [Fraction(1)]
        if O.is_squarefree(g):
            return g


def _unit(rng, g, lo, hi):
    """Random coordinates of an invertible element of Q[x]/(g), with its norm."""
    n = len(g) - 1
    while True:
        a = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
        N = O.norm(a, g)
        if N:
            return a, N


def _pad(v, n):
    return list(v) + [Fraction(0)] * (n - len(v))


def _skew(rng, n, lo, hi):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(rng.randint(lo, hi))
            M[j][i] = -M[i][j]
    return M


def _diag(entries):
    n = len(entries)
    return [[Fraction(entries[i] if i == j else 0) for j in range(n)] for i in range(n)]


class Workload:
    name = ""
    MIN_OPS = 100  # p90 keeps at least ten samples beyond it
    SPAWNS = False  # whether an op starts an interpreter

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def rng(self, i):
        return random.Random("%s:%d:%s" % (self.name, self.seed, i))

    def input(self, i):
        return self.make(i, self.rng(i))

    def warmup_inputs(self):
        """The untimed warm-up ops' inputs; the same at every seed, so that
        set-up time does not depend on the seed."""
        rng = random.Random("%s:warmup" % self.name)
        return [self.make(i, rng) for i in self.WARMUP]

    def latency(self, res, dt, scale):
        """((raw, scaled) op time, scaled extra figure or None) of one op.

        `scale` converts times measured in this process to reference speed.
        """
        return (dt, dt * scale), None


# ------------------------------------------------------------------ orbits

class Orbits(Workload):
    """Full orbit round trip on a random stable parameter (alpha, t)."""

    name = "orbits"
    DEGREES = (3, 6, 8)
    CYCLE = len(DEGREES)
    WARMUP = (0,)  # one n = 3 op

    def make(self, i, rng):
        n = self.DEGREES[i % len(self.DEGREES)]
        g = _monic_separable(rng, n)
        alpha, N = _unit(rng, g, -3, 3)
        s = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        f0 = s * s * N
        return {"n": n, "g": g, "alpha": alpha, "t": s * N,
                "f": [f0 * c for c in reversed(g)], "U": O.unimodular(rng, n, 6)}

    def run(self, inp):
        L = EtaleAlgebra(Poly(inp["g"]))
        p = OrbitParam(L, L.element(inp["alpha"]), inp["t"])
        pair = param_to_pencil(BinaryForm(inp["f"]), p)
        moved = pair.transformed(inp["U"])
        form = invariant_binary_form(moved)
        q = pencil_to_param(moved)
        c = g_equivalent(p, q)
        stab = stabilizer_rational(moved)
        return pair, moved, form, q, c, stab

    def check(self, inp, res):
        pair, moved, form, q, c, stab = res
        g, n, f0 = inp["g"], inp["n"], inp["f"][0]
        expect(list(form.coeffs) == inp["f"], "invariant form of the moved pencil is not f")
        expect(list(q.algebra.g.coeffs) == g, "pencil_to_param changed the algebra")
        qa = list(q.alpha.coords)
        expect(q.t ** 2 == f0 * O.norm(qa, g), "t^2 != f0 N(alpha) on the extracted parameter")
        expect(c is not None, "g_equivalent found no witness for equivalent parameters")
        cc = list(c.coords)
        expect(O.mul_mod(O.mul_mod(cc, cc, g), qa, g) == _pad(inp["alpha"], n),
               "witness fails c^2 alpha2 = alpha1")
        expect(O.norm(cc, g) * q.t == inp["t"], "witness fails N(c) t2 = t1")
        # The degrees come from factor_poly, but the factorization is checked
        # here: the factors are integral, multiply back to g, and each one is
        # certified irreducible by oracle.is_irreducible.
        factors = [list(fac.coeffs) for fac, mult in factor_poly(Poly(g)) if mult == 1]
        expect(all(c.denominator == 1 for fac in factors for c in fac),
               "a monic factor of a monic integer g is not integral")
        prod = [Fraction(1)]
        for fac in factors:
            prod = O.poly_mul(prod, fac)
        expect(prod == g, "factors of g do not multiply back to g")
        expect(all(O.is_irreducible([int(c) for c in fac]) for fac in factors),
               "factor_poly returned a reducible factor of g")
        degs = [len(fac) - 1 for fac in factors]
        r = len(degs)
        want = 2 ** (r - 1) if any(d % 2 for d in degs) else 2 ** r
        expect(stab.order == want == len(stab.elements), "stabilizer order %s, want %s"
               % (stab.order, want))
        expect(stab.geometric_order == 2 ** (n - 1), "geometric stabilizer order")
        for M in stab.generators:
            expect(O.congruence(M, moved.A) == moved.A and O.congruence(M, moved.B) == moved.B,
                   "stabilizer generator does not fix the pencil")

    def record(self, inp, res):
        pair, moved, form, q, c, stab = res
        return {"pair": [O.rat_mat(pair.A), O.rat_mat(pair.B)],
                "moved": [O.rat_mat(moved.A), O.rat_mat(moved.B)],
                "alpha": O.rats(q.alpha.coords), "t": O.rat(q.t), "c": O.rats(c.coords),
                "order": stab.order, "gens": [O.rat_mat(M) for M in stab.generators]}


# ------------------------------------------------------------------ ideals

class Ideals(Workload):
    """R_f, its power ideals and their products, and the inverse different."""

    name = "ideals"
    DEGREES = (3, 4, 5, 5, 6)  # p50 falls inside the n = 5 ops, p90 inside n = 6
    CYCLE = len(DEGREES)
    WARMUP = (0,)  # one n = 3 op, which also runs the odd-n steps

    def make(self, i, rng):
        n = self.DEGREES[i % len(self.DEGREES)]
        while True:
            cs = [rng.randint(-6, 6) for _ in range(n + 1)]
            if cs[0] == 0:
                continue
            disc = O.form_disc(cs)
            if disc != 0:
                return {"n": n, "f": cs, "disc": disc}

    def run(self, inp):
        n = inp["n"]
        R = form_order(BinaryForm(inp["f"]))
        disc = order_disc(R)
        ideals = [power_ideal(R, k) for k in range(n)]
        norms = [I.norm() for I in ideals]
        pows = [ideal_pow(ideals[1], k) for k in range(n)]
        contained, index = inverse_different_check(R)
        canon = None
        if n % 2:
            pair, I, alpha = canonical_odd_orbit(R)
            canon = (pair, rational_params_of_pair(R, I, alpha))
        return disc, ideals, norms, pows, contained, index, canon

    def check(self, inp, res):
        disc, ideals, norms, pows, contained, index, canon = res
        n, f0 = inp["n"], inp["f"][0]
        expect(disc == inp["disc"], "order_disc != disc(f)")
        for k, (I, nrm, P) in enumerate(zip(ideals, norms, pows)):
            own = I.eps * O.det(I.mat) / Fraction(I.den) ** n
            expect(own == nrm == Fraction(1) / Fraction(f0) ** k, "N(I_f(%d)) != 1/f0^%d" % (k, k))
            expect((P.den, P.mat, P.eps) == (I.den, I.mat, I.eps), "I_f(1)^%d != I_f(%d)" % (k, k))
        expect(contained, "R_f not inside its inverse different")
        expect(index == abs(inp["disc"]), "inverse different index != |disc f|")
        if canon is not None:
            pair, (gamma, t) = canon
            expect(all(x.denominator == 1 for row in pair.A + pair.B for x in row),
                   "canonical pair is not integral")
            expect(O.form_values_match(inp["f"], pair.A, pair.B),
                   "canonical pair has the wrong invariant form")
            expect(list(gamma.coords) == _pad([Fraction(f0)], n), "gamma != f0")
            expect(t == Fraction(f0) ** ((n + 1) // 2), "t != f0^((n+1)/2)")

    def record(self, inp, res):
        disc, ideals, norms, pows, contained, index, canon = res
        out = {"disc": O.rat(disc), "index": index,
               "ideals": [[I.den, I.mat, I.eps] for I in ideals]}
        if canon is not None:
            pair, (gamma, t) = canon
            out["canonical"] = [O.rat_mat(pair.A), O.rat_mat(pair.B), O.rat(t)]
        return out


# ------------------------------------------------------------------ forms

ISO_BOUNDS = {2: 50, 3: 16, 4: 8, 5: 5}  # exhaustive searches of similar size
OBSTRUCTED_BOUND = 20
FOUND_BOUND = 4


def _isotropic_case(rng, dim):
    """Diagonal form with a known zero v of height <= 2 (entries scaled by v_n^2)."""
    while True:
        head = [rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]) for _ in range(dim - 1)]
        v = [rng.randint(-2, 2) for _ in range(dim - 1)] + [rng.choice([-2, -1, 1, 2])]
        last = -sum(a * x * x for a, x in zip(head, v))
        if last:
            return [a * v[-1] ** 2 for a in head] + [last]


def _equiv_case(rng, dim):
    """(G, U^T G U, -G) for a random nondegenerate integer Gram matrix G."""
    while True:
        G = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        G = [[G[a][b] + G[b][a] for b in range(dim)] for a in range(dim)]
        if O.det(G):
            break
    return G, O.congruence(O.unimodular(rng, dim, 6), G), [[-x for x in row] for row in G]


def _adjoint_case(rng, n):
    """(T, T', H): T regular, T' = H T H^-1 with H fixing e_n on both sides."""
    while True:
        T = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if O.hankel_regular(T):
            break
    H = O.identity(n)
    if n == 2:
        H[0][0] = Fraction(rng.choice((-1, 2, 3)))
    else:
        for _ in range(4):
            a, b = rng.sample(range(n - 1), 2)
            c = rng.randint(-2, 2)
            for r in range(n - 1):
                H[r][b] += c * H[r][a]
    return T, O.mat_mul(O.mat_mul(H, T), O.inverse(H)), H


class Forms(Workload):
    """Many small fixed-size problems; two slots in eight are searches.

    The query slots bundle one case of every size, so each slot's cost is
    steady; the two search slots rotate through their sizes every four cycles.
    """

    name = "forms"
    SLOTS = ("hilbert", "isotropic", "pi", "pi", "equiv", "adjoint",
             "anisotropic", "orbit_search")
    CYCLE = 4 * len(SLOTS)
    # One op of every slot, from the second cycle: its searches are the cheap
    # sizes (dimension 3, and a form with a witness), which keeps set-up short.
    WARMUP = tuple(range(len(SLOTS), 2 * len(SLOTS)))

    def make(self, i, rng):
        slot = self.SLOTS[i % len(self.SLOTS)]
        return dict(getattr(self, "_make_" + slot)(rng, i // len(self.SLOTS)), slot=slot)

    def _make_hilbert(self, rng, j):
        pairs = []
        for _ in range(20):
            a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
            b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
            places = {0, 2}
            for x in (a.numerator, a.denominator, b.numerator, b.denominator):
                places |= O.prime_factors(x)
            pairs.append((a, b, sorted(places)))
        return {"pairs": pairs}

    def _make_isotropic(self, rng, j):
        return {"cases": [(_isotropic_case(rng, dim), ISO_BOUNDS[dim]) for dim in range(2, 6)]}

    def _make_anisotropic(self, rng, j):
        dim = 2 + j % 4
        if dim == 2:
            while True:
                a, b = rng.randint(1, 30), rng.randint(1, 30)
                if not O.is_square(a * b):
                    entries = [a, -b]
                    break
        else:  # definite
            sign = rng.choice((1, -1))
            entries = [sign * rng.randint(1, 9) for _ in range(dim)]
        return {"cases": [(entries, ISO_BOUNDS[dim])]}

    def _make_equiv(self, rng, j):
        return {"cases": [_equiv_case(rng, 3), _equiv_case(rng, 5)]}

    def _make_pi(self, rng, j):
        return {"mats": [_skew(rng, 5, -4, 4) for _ in range(3)],
                "gs": [O.unimodular(rng, 5, 5) for _ in range(2)],
                "skew6": _skew(rng, 6, -6, 6)}

    def _make_adjoint(self, rng, j):
        return {"cases": [_adjoint_case(rng, n) for n in range(2, 6)]}

    def _make_orbit_search(self, rng, j):
        if j % 2 == 0:
            # f0 = -1 and g = x^2 + bx + c without real roots: really obstructed
            b = 0 if j % 4 == 0 else rng.randint(-3, 3)
            c = 1 if j % 4 == 0 else b * b // 4 + rng.randint(1, 6)
            return {"f": [-1, -b, -c], "bound": OBSTRUCTED_BOUND, "found": False}
        g = _monic_separable(rng, 3, -3, 3)
        alpha, N = _unit(rng, g, -2, 2)
        s = rng.randint(1, 3)
        return {"f": [s * s * N * x for x in reversed(g)], "bound": FOUND_BOUND, "found": True}

    def run(self, inp):
        slot = inp["slot"]
        if slot == "hilbert":
            return [[hilbert_symbol(a, b, v) for v in places] for a, b, places in inp["pairs"]]
        if slot in ("isotropic", "anisotropic"):
            out = []
            for entries, bound in inp["cases"]:
                q = QuadForm(_diag(entries))
                out.append((is_isotropic(q), isotropy_witness(q, bound)))
            return out
        if slot == "equiv":
            out = []
            for G, G2, G3 in inp["cases"]:
                q1, q2, q3 = QuadForm(G), QuadForm(G2), QuadForm(G3)
                out.append((forms_equivalent(q1, q2), forms_equivalent(q1, q3),
                            spin_obstruction(q1).places, spin_obstruction(q2).places))
            return out
        if slot == "pi":
            v = SkewTriple(*inp["mats"])
            return (pi_invariant(v), [pi_invariant(v.transformed(g)) for g in inp["gs"]],
                    pfaffian(inp["skew6"]))
        if slot == "adjoint":
            return [(adjoint_conjugator(T, Tp), conjugator_is_unique(T, Tp))
                    for T, Tp, _ in inp["cases"]]
        return orbit_witness_search(BinaryForm(inp["f"]), inp["bound"])

    def check(self, inp, res):
        slot = inp["slot"]
        if slot == "hilbert":
            for (a, b, places), syms in zip(inp["pairs"], res):
                expect(set(syms) <= {1, -1}, "Hilbert symbol not +-1")
                prod = 1
                for s in syms:
                    prod *= s
                expect(prod == 1, "Hilbert reciprocity fails for (%s, %s)" % (a, b))
                expect(syms[0] == (-1 if a < 0 and b < 0 else 1), "wrong real Hilbert symbol")
        elif slot == "isotropic":
            for (entries, _), (iso, w) in zip(inp["cases"], res):
                expect(iso, "form with a known zero reported anisotropic")
                expect(w is not None and any(w), "no witness within the bound of a known zero")
                expect(sum(e * x * x for e, x in zip(entries, w)) == 0, "witness is not a zero")
        elif slot == "anisotropic":
            expect(res == [(False, None)], "anisotropic form reported isotropic")
        elif slot == "equiv":
            for same, other, s1, s2 in res:
                expect(same, "congruent forms reported inequivalent")
                expect(not other, "forms with non-square determinant ratio reported equivalent")
                expect(len(s1) % 2 == 0, "odd number of ramified places")
                expect(s1 == s2, "spin class changed under congruence")
        elif slot == "pi":
            pi0, moved, pf = res
            expect(all(p == pi0 for p in moved), "pi invariant moved under SL5(Z)")
            expect(pf * pf == O.det(inp["skew6"]), "Pf^2 != det")
        elif slot == "adjoint":
            for (T, Tp, H), (g, unique) in zip(inp["cases"], res):
                expect(O.mat_mul(g, T) == O.mat_mul(Tp, g), "g T != T' g")
                expect(g == H, "conjugator differs from the known unique one")
                expect(unique, "regular matrix reported a non-unique conjugator")
        else:
            f = inp["f"]
            if not inp["found"]:
                expect(res is None, "search found a witness for an obstructed form")
                expect(f[0] < 0 and f[1] ** 2 - 4 * f[0] * f[2] < 0, "form is not obstructed")
            else:
                expect(res is not None, "search missed a witness within the bound")
                g = list(res.algebra.g.coeffs)
                expect(res.t ** 2 == f[0] * O.norm(list(res.alpha.coords), g),
                       "witness fails t^2 = f0 N(alpha)")

    def record(self, inp, res):
        slot = inp["slot"]
        if slot == "equiv":
            return [[same, other, sorted(s1), sorted(s2)] for same, other, s1, s2 in res]
        if slot == "pi":
            return [O.rat_mat(p) for p in [res[0]] + res[1]] + [O.rat(res[2])]
        if slot == "adjoint":
            return [[O.rat_mat(g), unique] for g, unique in res]
        if slot == "orbit_search":
            return None if res is None else [O.rats(res.alpha.coords), O.rat(res.t)]
        return res


# ------------------------------------------------------------------ cli

def _json_poly(g):
    """Low-first coefficients as the CLI's highest-first rational strings."""
    return O.rats(reversed(g))


def _form_arg(coeffs):
    return ",".join(O.rat(c) for c in coeffs)


def _stable_pair2(rng):
    """Symmetric 2x2 integer pencil with f0 != 0 and disc f != 0."""
    while True:
        a1, a2, a3, b1, b2, b3 = (rng.randint(-4, 4) for _ in range(6))
        # f = -det(xA - yB) for n = 2
        f = [-(a1 * a3 - a2 * a2), a1 * b3 + a3 * b1 - 2 * a2 * b2, -(b1 * b3 - b2 * b2)]
        if f[0] and f[1] ** 2 - 4 * f[0] * f[2]:
            return {"A": [[a1, a2], [a2, a3]], "B": [[b1, b2], [b2, b3]]}


def _param(rng, n):
    g = _monic_separable(rng, n, -3, 3)
    alpha, N = _unit(rng, g, -2, 2)
    s = rng.randint(1, 3)
    return g, alpha, s * s * N, s * N


def _int_form(rng, n):
    while True:
        cs = [rng.randint(-4, 4) for _ in range(n + 1)]
        if cs[0] and O.form_disc(cs):
            return cs


def _payload(obj):
    import json

    return json.dumps(obj, separators=(",", ":"))


def _cli_valid(rng, kind):
    """argv of a valid command of the given kind, 0..22, over every group."""
    if kind == 0:
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        N = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        A = [[M[i][j] + M[j][i] for j in range(3)] for i in range(3)]
        B = [[N[i][j] + N[j][i] for j in range(3)] for i in range(3)]
        return ["pencil", "invariant", "--json", _payload({"A": A, "B": B})]
    if kind == 1:
        return ["pencil", "to-param", "--json", _payload(_stable_pair2(rng))]
    if kind == 2:
        g, alpha, f0, t = _param(rng, rng.choice((2, 3)))
        return ["pencil", "from-param", "--f", _form_arg([f0 * c for c in reversed(g)]),
                "--json", _payload({"alpha": O.rats(alpha), "t": O.rat(t)})]
    if kind == 3:
        g, alpha, f0, t = _param(rng, 2)
        c, Nc = _unit(rng, g, -2, 2)
        alpha2 = O.mul_mod(O.mul_mod(c, c, g), alpha, g)
        p1 = {"g": _json_poly(g), "alpha": O.rats(alpha2), "t": O.rat(t * Nc)}
        p2 = {"g": _json_poly(g), "alpha": O.rats(alpha), "t": O.rat(t)}
        return ["pencil", "equiv", "--json", _payload({"p1": p1, "p2": p2})]
    if kind == 4:
        return ["pencil", "stab", "--json", _payload(_stable_pair2(rng))]
    if kind == 5:
        b = rng.randint(-3, 3)
        return ["pencil", "real-obstruction", "--f", _form_arg([-1, b, -(b * b // 4 + 1)])]
    if kind == 6:
        g, alpha, f0, t = _param(rng, 2)
        return ["pencil", "search", "--f", _form_arg([f0 * c for c in reversed(g)]),
                "--bound", "3"]
    if 7 <= kind <= 11:
        sub = ("order", "disc", "ideal", "canonical", "different")[kind - 7]
        argv = ["integral", sub, "--f", _form_arg(_int_form(rng, 3))]
        return argv + (["--k", "1"] if sub == "ideal" else [])
    if kind == 12:
        g = _monic_separable(rng, rng.choice((2, 3)), -3, 3)
        while True:
            u = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            gu = sum(c * u ** k for k, c in enumerate(g))
            if gu:
                break
        w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        f0 = w * w / gu
        return ["hyper", "--f", _form_arg([f0 * c for c in reversed(g)]),
                "--point", "%s,%s" % (O.rat(u), O.rat(w))]
    if kind == 13:
        entries = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(3)]
        return ["quad", "iso", "--bound", "3", "--json", _payload(O.rat_mat(_diag(entries)))]
    if kind in (14, 16):
        while True:
            G = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            G = [[G[i][j] + G[j][i] for j in range(3)] for i in range(3)]
            if O.det(G):
                break
        if kind == 16:
            return ["quad", "spin", "--json", _payload(G)]
        G2 = O.rat_mat(O.congruence(O.unimodular(rng, 3, 3), G))
        return ["quad", "equiv", "--json", _payload({"q1": G, "q2": G2})]
    if kind == 15:
        return ["quad", "hilbert", "--a", str(rng.randint(-30, 30) or 1),
                "--b", str(rng.randint(-30, 30) or 1),
                "--place", rng.choice(["oo", "2", "3", "5", "7"])]
    if kind == 17:
        return ["pf", "pfaffian", "--json", _payload(O.rat_mat(_skew(rng, 4, -5, 5)))]
    if kind in (18, 19):
        triple = {k: O.rat_mat(_skew(rng, 5, -3, 3)) for k in "ABC"}
        return ["pf", "pi" if kind == 18 else "stable", "--json", _payload(triple)]
    if kind == 20:
        return ["adj", "inv", "--json",
                _payload([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])]
    while True:
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(2 if kind == 21 else 3)]
             for _ in range(2 if kind == 21 else 3)]
        if O.hankel_regular(T):
            break
    if kind == 21:
        c = [T[0][0] + T[1][1], T[0][0] * T[1][1] - T[0][1] * T[1][0]]
        return ["adj", "canon", "--json", _payload({"c": O.rats(c), "a": [O.rat(T[1][1])]})]
    H = O.identity(3)
    H[0][1] = Fraction(rng.choice((-2, -1, 1, 2)))
    Tp = O.mat_mul(O.mat_mul(H, T), O.inverse(H))
    return ["adj", "conj", "--json", _payload({"T": O.rat_mat(T), "Tprime": O.rat_mat(Tp)})]


def _cli_rejected(rng, k):
    """argv the CLI must reject with exit 1 or 2 and a one-line message."""
    kind = k % 6
    x = rng.randint(1, 9)
    if kind == 0:
        return ["integral", "order", "--f", "1,x%d,2" % x]
    if kind == 1:
        return ["pencil", "invariant", "--json",
                _payload({"A": [[1, x], [x + 1, 2]], "B": [[1, 0], [0, 1]]})]
    if kind == 2:
        return ["quad", "iso", "--json", _payload([[0, 0], [0, 0]])]
    if kind == 3:
        return ["pf", "pfaffian", "--json", _payload([[0, x], [x, 0]])]
    if kind == 4:
        return ["pencil", "equiv", "--json", _payload({"p1": x})]
    return ["quad", "hilbert", "--a", "%d/0" % x, "--b", "2", "--place", "3"]


# ROADMAP item 4: inputs that must be rejected but are not.  They run once per
# run, untimed, and are reported apart from the ops.
DEFECT_PROBES = [
    ["quad", "hilbert", "--a", "2", "--b", "3", "--place", "abc"],
    ["adj", "inv", "--json", "[[1,2]]"],
    ["pencil", "search", "--f", "-1,0,-1", "--bound", "-5"],
    ["pencil", "h-equiv", "--primes", "x", "--json",
     '{"p1":{"g":["1","0","1"],"alpha":["1"],"t":"1"},'
     '"p2":{"g":["1","0","1"],"alpha":["1"],"t":"1"}}'],
    ["adj", "conj", "--json", '{"T":[[1,2,3],[4,5,6]],"Tprime":[[1,2,3],[4,5,6]]}'],
]


def _cli_layout():
    """One cycle of 28 calls: (rejected?, index) for 23 valid kinds and 5 rejects."""
    layout, valid, rejected = [], 0, 0
    for k in range(28):
        if k % 6 == 5 or k == 27:
            layout.append((True, rejected))
            rejected += 1
        else:
            layout.append((False, valid))
            valid += 1
    return layout


def cli_env(root):
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def rejected_properly(rc, out, err):
    return rc in (1, 2) and not out and err.count("\n") == 1 and "Traceback" not in err


class Cli(Workload):
    """One `python -m quadpencil.cli` subprocess per op; compared in-process."""

    name = "cli"
    LAYOUT = _cli_layout()
    CYCLE = len(LAYOUT)
    MIN_OPS = 4 * CYCLE
    SPAWNS = True
    WARMUP = (0,)  # one call fills the bytecode cache, as an installed user's is

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import quadpencil.cli

        self.main = quadpencil.cli.main
        self.env = cli_env(root)
        self.bares, self.scaled_ops = [], 0  # bare start-up times in s, and their ops

    def make(self, i, rng):
        reject, k = self.LAYOUT[i % self.CYCLE]
        if reject:
            return {"argv": _cli_rejected(rng, i // self.CYCLE * 5 + k), "reject": True}
        return {"argv": _cli_valid(rng, k), "reject": False}

    def subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "quadpencil.cli"] + argv,
                              capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.main(list(argv))
            except SystemExit as exc:  # argparse or sys.exit: the exit code a process gets
                rc = exc.code
                if isinstance(rc, str):
                    print(rc, file=sys.stderr)
                    rc = 1
                elif rc is None:
                    rc = 0
        return rc, out.getvalue(), err.getvalue()

    def run(self, inp):
        t = time.perf_counter()
        sub = self.subprocess(inp["argv"])
        t_sub = time.perf_counter() - t
        t = time.perf_counter()
        inproc = self.inprocess(inp["argv"])
        t_in = time.perf_counter() - t
        return {"sub": sub, "inproc": inproc, "t_sub": t_sub, "t_in": t_in}

    def latency(self, res, dt, scale):
        # The op's latency is the subprocess alone; the in-process run of the
        # same argv is the extra figure.  A subprocess spends its time starting
        # an interpreter, which the loop tracks poorly, so it is scaled by a
        # bare interpreter's start-up instead: the mean of the last two, timed
        # after every second op to halve their cost.
        if self.scaled_ops % 2 == 0:
            self.bares = self.bares[-1:] + [python_run_s("pass", self.env)]
        self.scaled_ops += 1
        t = res["t_sub"]
        bare = sum(self.bares) / len(self.bares)
        return (t, t * BARE_REF_S / bare), res["t_in"] * scale

    def check(self, inp, res):
        rc, out, err = res["sub"]
        if inp["reject"]:
            expect(rejected_properly(rc, out, err),
                   "bad input not rejected cleanly: exit %s, stderr %r" % (rc, err[-200:]))
        else:
            expect(rc == 0 and not err, "exit %s, stderr %r" % (rc, err[-200:]))
            expect(out.endswith("\n") and out.count("\n") == 1, "output is not one JSON line")
        expect(res["inproc"] == (rc, out, err), "subprocess output differs from in-process")

    def record(self, inp, res):
        rc, out, _ = res["sub"]
        return [rc, out]

    def probe_defects(self):
        """[(argv, ok)] for the known-defect inputs."""
        out = []
        for argv in DEFECT_PROBES:
            rc, sout, serr = self.subprocess(argv)
            out.append((argv, rejected_properly(rc, sout, serr)))
        return out


WORKLOADS = {w.name: w for w in (Orbits, Ideals, Forms, Cli)}
