"""Write tests/golden/cli.jsonl: pinned in-process `cli.main` calls.

Each line is one JSON object {"argv", "stdin", "stdout", "stderr", "exit"}:
the call's arguments and standard input, and what it printed and returned.
`tests/test_golden.py` replays every line and compares byte for byte. The
cases are drawn from a fixed seed, so the file changes only when the cases or
the program's output change; regenerate it on request, never inside a test:

    PYTHONPATH=src python tests/make_golden.py [--out PATH]

`--out` writes the corpus elsewhere, so a check can diff a fresh one against
the committed file. The cases cover `quad iso/equiv/hilbert/spin/gram/lift`,
`adj conj`, `pencil invariant/to-param/from-param/equiv/stab/
real-obstruction/search`, and `integral order/disc/different/ideal/canonical/
wood`; each group draws from the one generator after the groups before it, so
a new group is appended at the end. Search bounds stay small, so the whole
replay takes a few seconds.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from quadpencil import cli

SEED = 2023
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.jsonl")


def run_case(argv, stdin=""):
    """One in-process call as a golden record."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return {"argv": list(argv), "stdin": stdin, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exit": rc}


def _r(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _js(M):
    return [[_r(x) for x in row] for row in M]


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _t(A):
    return [list(c) for c in zip(*A)]


def _sym(rng, n, rational=False):
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)) if rational else 1)
            G[i][j] = G[j][i] = x
    return G


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: unit triangular factors."""
    L = [[rng.randint(-2, 2) if c < r else int(c == r) for c in range(n)] for r in range(n)]
    U = [[rng.randint(-2, 2) if c > r else rng.choice((1, -1)) * (c == r) for c in range(n)]
         for r in range(n)]
    return _mul(L, U)


def _isotropic(rng, n):
    """U^T (hyperbolic plane + random diagonal) U: isotropic by construction."""
    H = [[Fraction(0)] * n for _ in range(n)]
    H[0][1] = H[1][0] = Fraction(rng.choice((1, -1, 2, -3)))
    for i in range(2, n):
        H[i][i] = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)))
    U = _unimodular(rng, n)
    return _mul(_t(U), _mul(H, U))


def _iso_cases(rng):
    fixed = [([[0, -1], [-1, -4]], 2), ([[0, 1], [1, 0]], 1), ([[1, 0], [0, -1]], 3),
             ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), ([[1, 0, 0], [0, 1, 0], [0, 0, -3]], 3),
             ([[1, 0, 0], [0, 1, 0], [0, 0, -7]], 2), ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 1),
             ([["1/2", 1], [1, 2]], 2), ([[2, 3], [3, 1]], 0)]
    for G, b in fixed:
        yield ["quad", "iso", "--bound", str(b)], json.dumps({"gram": G})
    for k in range(36):
        n = 2 + k % 4
        G = _isotropic(rng, n) if k % 2 else _sym(rng, n, rational=k % 3 == 0)
        b = 3 if n < 5 else 2
        if k % 4 == 1:
            yield ["quad", "iso", "--bound", str(b), "--json", json.dumps(_js(G))], ""
        else:
            yield ["quad", "iso", "--bound", str(b)], json.dumps({"gram": _js(G)})


def _equiv_cases(rng):
    for k in range(14):
        n = 2 + k % 4
        q1 = _sym(rng, n, rational=k % 4 == 3)
        if k % 2:
            U = _unimodular(rng, n)
            q2 = _mul(_t(U), _mul(q1, U))
        else:
            q2 = _sym(rng, n)
        yield ["quad", "equiv"], json.dumps({"q1": _js(q1), "q2": _js(q2)})
    yield ["quad", "equiv"], json.dumps({"q1": [[1, 0], [0, 1]], "q2": [[1]]})
    yield ["quad", "equiv"], json.dumps({"q1": [[1, 0], [0, 0]], "q2": [[1, 0], [0, 1]]})
    yield ["quad", "equiv"], json.dumps({"q1": [[1, 0], [0, 1]]})


def _hilbert_cases(rng):
    for a, b, v in ((-1, -1, "oo"), (-1, -1, "2"), (2, 5, "5"), ("3/4", -7, "7"), (6, -2, "3"),
                    (0, 1, "3"), (1, 1, "4"), (2, 3, "x"), ("1/0", 2, "2"), (1, 2, "-3")):
        yield ["quad", "hilbert", "--a", str(a), "--b", str(b), "--place", v], ""
    for _ in range(6):
        a = rng.choice((-1, 1)) * rng.randint(1, 60)
        b = rng.choice((-1, 1)) * rng.randint(1, 60)
        v = rng.choice(("oo", "2", "3", "5", "7", "11"))
        yield ["quad", "hilbert", "--a", str(a), "--b", str(b), "--place", v], ""


def _spin_cases(rng):
    for k in range(10):
        n = (1, 3, 5)[k % 3]
        G = _sym(rng, n, rational=k % 4 == 2)
        yield ["quad", "spin"], json.dumps({"gram": _js(G)})
    yield ["quad", "spin"], json.dumps({"gram": [[1, 0], [0, 1]]})
    yield ["quad", "spin"], json.dumps({"gram": [[1, 0, 0], [0, 0, 0], [0, 0, 2]]})


def _gram_cases(rng):
    for k in range(8):
        n = 3 + k % 2
        space = _sym(rng, n)
        vs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        yield ["quad", "gram"], json.dumps({"space": _js(space), "vectors": vs})
    yield ["quad", "gram"], json.dumps({"space": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                        "vectors": [[1, 0, 0]]})
    yield ["quad", "gram"], json.dumps({"space": [[1, 0], [0, 1]], "vectors": [[1, 2, 3]]})
    yield ["quad", "gram"], json.dumps({"space": [[1, 0], [0, 1]], "vectors": "x"})


def _lift_cases(rng):
    for k in range(8):
        m = 1 + k % 3
        f, space = _sym(rng, m), _sym(rng, m + 1)
        if k % 2:  # space = f + <c>, a lift that holds
            space = [row + [0] for row in f] + [[0] * m + [rng.choice((-3, -1, 1, 2))]]
        yield ["quad", "lift"], json.dumps({"f": _js(f), "space": _js(space)})
    yield ["quad", "lift"], json.dumps({"f": [[1]], "space": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    yield ["quad", "lift"], json.dumps({"f": [[0]], "space": [[1, 0], [0, 1]]})


def _block_conjugate(rng, T):
    """g T g^-1 with g fixing e_n and e_n^T: g = diag(Y, 1), Y unimodular."""
    n = len(T)
    Y = _unimodular(rng, n - 1)
    g = [[Fraction(x) for x in row] + [0] for row in Y] + [[0] * (n - 1) + [1]]
    gi = _inverse(g)
    return _mul(g, _mul([[Fraction(x) for x in r] for r in T], gi))


def _inverse(A):
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def _conj_cases(rng):
    for k in range(14):
        n = 2 + k % 3
        T = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2))) for _ in range(n)]
             for _ in range(n)]
        Tp = _block_conjugate(rng, T) if k % 5 else T
        yield ["adj", "conj"], json.dumps({"T": _js(T), "Tprime": _js(Tp)})
    irregular = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    yield ["adj", "conj"], json.dumps({"T": irregular, "Tprime": irregular})
    yield ["adj", "conj"], json.dumps({"T": [[0, 1], [1, 0]], "Tprime": [[1, 1], [1, 0]]})
    yield ["adj", "conj"], json.dumps({"T": [[1, 2], [3, 4]], "Tprime": [[1, 2, 3]]})
    yield ["adj", "conj"], json.dumps({"T": [[1, 2], [3, 4]],
                                       "Tprime": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})


MALFORMED = [
    (["quad", "iso"], '{"gram": [[1, 2], [3, 4]]}'),
    (["quad", "iso"], '{"gram": [[1, 2], [3]]}'),
    (["quad", "iso"], '{"gram": []}'),
    (["quad", "iso"], '{"gram": [[1.5, 0], [0, 1]]}'),
    (["quad", "iso"], '{"gram": [[true, 0], [0, 1]]}'),
    (["quad", "iso"], '{"gram": [["1/0", 0], [0, 1]]}'),
    (["quad", "iso"], '{"gram": [[1, 0], [0, 1]'),
    (["quad", "iso", "--bound", "-1"], '[[1, 0], [0, -1]]'),
    (["quad", "iso", "--bound", "two"], '[[1, 0], [0, -1]]'),
    (["quad", "iso"], '{"matrix": [[1]]}'),
    (["quad", "spin"], '"gram"'),
    (["quad", "equiv"], '[[1]]'),
    (["quad", "lift"], '{"f": [[1, 2], [2]], "space": [[1]]}'),
    (["adj", "conj"], '{"T": [[1, 2], [3, 4]], "Tprime": [[1, 2], [3, "a"]]}'),
    (["adj", "conj"], '{"T": [[1, 2]], "Tprime": [[1, 2]]}'),
    (["adj", "conj"], '{"T": [[1]]}'),
    (["quad", "hilbert", "--a", "1"], ""),
    (["quad", "frob"], ""),
]


def _det(M):
    """det M by Gaussian elimination on Fractions."""
    M = [[Fraction(x) for x in row] for row in M]
    n, out = len(M), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p], out = M[p], M[c], -out
        out *= M[c][c]
        for r in range(c + 1, n):
            q = M[r][c] / M[c][c]
            M[r] = [x - q * y for x, y in zip(M[r], M[c])]
    return out


def _res(p, q):
    """Res(p, q) as the Sylvester determinant, coefficients low first, p monic."""
    p, q = list(p), list(q)
    while q and not q[-1]:
        q.pop()
    n, m = len(p) - 1, len(q) - 1
    rows = [[0] * i + p[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + q[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return _det(rows)


def _mulmod(a, b, g):
    """a b mod the monic g, coefficients low first, padded to deg g."""
    n = len(g) - 1
    c = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in range(len(c) - 1, n - 1, -1):
        top, c[k] = c[k], 0
        for i in range(n):
            c[k - n + i] -= top * g[i]
    return c[:n]


def _separable(rng, n):
    """A random monic integer g of degree n with disc g != 0, low first."""
    while True:
        g = [rng.randint(-4, 4) for _ in range(n)] + [1]
        if _res(g, [i * c for i, c in enumerate(g)][1:]):
            return g


def _unit(rng, g):
    """(alpha, N(alpha)) for a random alpha of L = Q[x]/(g) with N(alpha) != 0."""
    while True:
        alpha = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in g[1:]]
        N = _res(g, alpha)
        if N:
            return alpha, N


def _form_arg(g, f0):
    return ",".join(str(_r(f0 * c)) for c in reversed(g))


def _param(g, alpha, t):
    return {"g": [_r(c) for c in reversed(g)], "alpha": [_r(a) for a in alpha], "t": _r(t)}


def _pencil_pairs(rng):
    """Random pairs at n = 2..6: integer, rational and split (diagonal, moved)."""
    for k in range(15):
        n = 2 + k % 5
        if k % 3 == 2:
            D1 = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 5))) * (i == j) for j in range(n)]
                  for i in range(n)]
            r = rng.sample(range(-4, 5), n)  # distinct eigenvalues of T = A^-1 B
            D2 = [[r[i] * D1[i][j] for j in range(n)] for i in range(n)]
            U = _unimodular(rng, n)
            yield _mul(_t(U), _mul(D1, U)), _mul(_t(U), _mul(D2, U))
        else:
            yield _sym(rng, n, rational=k % 3 == 1), _sym(rng, n, rational=k % 4 == 0)


def _pencil_cases(rng):
    singular = {"A": [[1, 1, 0], [1, 1, 0], [0, 0, 2]], "B": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}
    repeated = {"A": [[1, 0], [0, 1]], "B": [["1/2", 0], [0, "1/2"]]}
    bad = [singular, repeated, {"A": [[1, 2], [3, 4]], "B": [[1, 0], [0, 1]]},
           {"A": [[1, 0], [0, 1]], "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
           {"A": [[1, 0], [0]], "B": [[1, 0], [0, 1]]}, {"A": [[1]]}]
    for k, (A, B) in enumerate(_pencil_pairs(rng)):
        payload = json.dumps({"A": _js(A), "B": _js(B)})
        yield ["pencil", "invariant"], payload
        yield ["pencil", "to-param"] + (["--seed", str(k % 3)] if k % 4 == 3 else []), payload
        if len(A) < 6 or k % 2:
            yield ["pencil", "stab"], payload
    for payload in bad:
        for cmd in ("invariant", "to-param", "stab"):
            yield ["pencil", cmd], json.dumps(payload)
    yield ["pencil", "invariant", "--json", json.dumps(singular)], ""

    params = []
    for k in range(10):
        n = 2 + k % 5
        g = _separable(rng, n)
        alpha, N = _unit(rng, g)
        s = Fraction(rng.randint(1, 3), rng.choice((1, 2))) * rng.choice((1, -1))
        params.append((g, alpha, s * N))
        payload = json.dumps({"alpha": [_r(a) for a in alpha], "t": _r(s * N)})
        yield ["pencil", "from-param", "--f", _form_arg(g, s * s * N)], payload
        if k % 3 == 0:  # t^2 != f0 N(alpha)
            yield ["pencil", "from-param", "--f", _form_arg(g, 2 * s * s * N)], payload
    yield ["pencil", "from-param", "--f", "1,0,-1"], json.dumps({"alpha": [1, 1], "t": 1})
    yield ["pencil", "from-param", "--f", "1,2,1"], json.dumps({"alpha": [1, 0], "t": 1})

    for k, (g, alpha, t) in enumerate(params):
        c = [Fraction(rng.randint(-2, 2)) for _ in g[1:]]
        Nc = _res(g, c)
        if not Nc:
            c, Nc = [Fraction(1)] + [Fraction(0)] * (len(g) - 2), Fraction(1)
        c2a = _mulmod(_mulmod(c, c, g), alpha, g)
        if k % 3 == 2 and len(g) % 2:  # n even: -c^2 alpha, same f0, a square iff -1 is
            p2 = _param(g, [-x for x in c2a], Nc * t)
        elif k % 3 == 2:  # another alpha, another f0
            alpha2, N2 = _unit(rng, g)
            p2 = _param(g, alpha2, t * N2 / _res(g, alpha))
        else:
            p2 = _param(g, c2a, Nc * t * (-1 if k % 4 == 1 else 1))
        yield ["pencil", "equiv"], json.dumps({"p1": _param(g, alpha, t), "p2": p2})
    yield ["pencil", "equiv"], json.dumps({"p1": {"g": [1, 0, 1], "alpha": [0, 1], "t": 1},
                                           "p2": {"g": [1, 0, 1], "alpha": [0, -1], "t": 1}})
    g1, a1, t1 = params[0]
    g2, a2, t2 = params[5]
    yield ["pencil", "equiv"], json.dumps({"p1": _param(g1, a1, t1), "p2": _param(g2, a2, t2)})
    yield ["pencil", "equiv"], json.dumps({"p1": _param(g1, a1, t1)})

    for f in ("-1,0,-1", "1,0,1", "-1,0,3", "-2,1,-1,3", "-1,0,-2,0,-3", "3,1,0,-2,1",
              "-1,0,0,0,0,0,-1", "1,0,-1,0,0,5,7", "1,2,1", "0,1,1", "1,x", "1"):
        yield ["pencil", "real-obstruction", "--f", f], ""
    for f, b in (("-1,0,-1", 3), ("1,0,-2", 3), ("1,0,-3", 2), ("2,0,-1", 3), ("-1,0,3", 1),
                 ("1,0,0,-2", 3), ("3,1,0,-2,1", 2), ("-1,0,-2,0,-3", 3), ("2,0,1,0,-1,3", 1),
                 ("1,1,0,0,0,0,-7", 1), ("1,0,-1", 0), ("1,2,1", 2), ("1,0,-2", -1),
                 ("1,0,-2", "x")):
        yield ["pencil", "search", "--f", f, "--bound", str(b)], ""
    for n in (2, 3, 4):
        g = _separable(rng, n)
        yield ["pencil", "search", "--f", _form_arg(g, rng.choice((-3, -1, 2, 5))),
               "--bound", "3"], ""


def _int_form(rng, n):
    """A random integral form f0..fn with f0 != 0 and disc f != 0, as --f."""
    while True:
        cs = [rng.randint(-5, 5) for _ in range(n + 1)]
        g = [Fraction(c, cs[0]) for c in reversed(cs)] if cs[0] else None
        if g and _res(g, [i * c for i, c in enumerate(g)][1:]):
            return ",".join(map(str, cs))


def _ideal_of(f, k):
    """The JSON ideal I_f(k) as `integral ideal` prints it."""
    out = json.loads(run_case(["integral", "ideal", "--f", f, "--k", str(k)])["stdout"])
    del out["norm"]
    return out


def _wood(f, ideal, alpha):
    return ["integral", "wood", "--f", f], json.dumps({"ideal": ideal, "alpha": alpha})


def _integral_cases(rng):
    forms = ["2,3,5,7", "1,0,0,1", "-3,1,0,2", "2,3", "-1,0,1"]
    forms += [_int_form(rng, n) for n in (2, 3, 3, 4, 5, 5, 6, 7)]
    for f in forms + ["1,2,1", "0,1,1", "1/2,0,1", "1,x"]:
        for cmd in ("order", "disc", "different"):
            yield ["integral", cmd, "--f", f], ""
    for f in forms:
        n = len(f.split(",")) - 1
        for k in range(-1, n + 1):
            yield ["integral", "ideal", "--f", f, "--k", str(k)], ""
    for n in (3, 5, 7, 4):
        yield ["integral", "canonical", "--f", _int_form(rng, n)], ""
    yield ["integral", "canonical", "--f", "-1,0,1"], ""

    # (I, alpha) at n = 3, 5, 7: the canonical I_f((n-3)/2) with alpha = 1 in HNF,
    # rows permuted, a lower-triangular basis of the same lattice (when the HNF
    # is diagonal), eps = -1; then alpha = 0, alpha too long, alpha = 1/2 (the
    # products lie in alpha R_f, but N(I)^2 != N(alpha)) and a random alpha
    for n in (3, 5, 7):
        f = _int_form(rng, n)
        I = _ideal_of(f, (n - 3) // 2)
        one = [1] + [0] * (n - 1)
        yield _wood(f, I, one)
        yield _wood(f, dict(I, mat=I["mat"][1:] + I["mat"][:1]), one)
        if all(x == 0 for r, row in enumerate(I["mat"]) for c, x in enumerate(row) if c != r):
            L = [[rng.randint(-2, 2) if c < r else int(c == r) for c in range(n)]
                 for r in range(n)]
            yield _wood(f, dict(I, mat=_js(_mul(L, I["mat"]))), one)
        yield _wood(f, dict(I, eps=-1), one)
        yield _wood(f, I, [0] * n)
        yield _wood(f, I, one + [0])
        yield _wood(f, I, ["1/2"] + [0] * (n - 1))
        yield _wood(f, I, [rng.randint(-2, 2) for _ in range(n)])
    I = _ideal_of("2,3,5,7", 0)
    for payload in ({"ideal": dict(I, mat=[[1, 0, 0], [0, 1, 0], [1, 1, 0]]), "alpha": [1, 0, 0]},
                    {"ideal": dict(I, mat=[[1, 0], [0, 1]]), "alpha": [1, 0, 0]},
                    {"ideal": dict(I, den=0), "alpha": [1, 0, 0]},
                    {"ideal": dict(I, mat=[[1, 0, 0], [0, 1, 0], [0, 0, "1/2"]]),
                     "alpha": [1, 0, 0]},
                    {"ideal": I}):
        yield ["integral", "wood", "--f", "2,3,5,7"], json.dumps(payload)
    yield _wood("1,0,-1", _ideal_of("1,0,-1", 0), [1, 0])


def cases():
    rng = random.Random(SEED)
    for group in (_iso_cases, _equiv_cases, _hilbert_cases, _spin_cases, _gram_cases,
                  _lift_cases, _conj_cases):
        yield from group(rng)
    yield from MALFORMED
    yield from _pencil_cases(rng)
    yield from _integral_cases(rng)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Write the golden CLI corpus.")
    ap.add_argument("--out", default=GOLDEN, help="output path (default: %(default)s)")
    out = ap.parse_args(argv).out
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        for argv, stdin in cases():
            fh.write(json.dumps(run_case(argv, stdin)) + "\n")


if __name__ == "__main__":
    main()
