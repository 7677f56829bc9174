"""Write tests/golden/cli.jsonl: pinned in-process `cli.main` calls.

Each line is one JSON object {"argv", "stdin", "stdout", "stderr", "exit"}:
the call's arguments and standard input, and what it printed and returned.
`tests/test_golden.py` replays every line and compares byte for byte. The
cases are drawn from a fixed seed, so the file changes only when the cases or
the program's output change; regenerate it on request, never inside a test:

    PYTHONPATH=src python tests/make_golden.py

This slice covers `quad iso/equiv/hilbert/spin/gram/lift` and `adj conj`.
Search bounds stay small, so the whole replay takes well under 2 s.
"""

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


def cases():
    rng = random.Random(SEED)
    for group in (_iso_cases, _equiv_cases, _hilbert_cases, _spin_cases, _gram_cases,
                  _lift_cases, _conj_cases):
        yield from group(rng)
    yield from MALFORMED


def main():
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        for argv, stdin in cases():
            fh.write(json.dumps(run_case(argv, stdin)) + "\n")


if __name__ == "__main__":
    main()
