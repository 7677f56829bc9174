"""End-to-end command-line checks: pinned payloads and exit codes."""

import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import quadpencil
from quadpencil import linalg
from quadpencil.cli import main
from quadpencil.intutil import next_prime


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_pencil_invariant(capsys):
    payload = '{"A": [[1, 0], [0, 1]], "B": [[0, 1], [1, 0]]}'
    out = run_json(capsys, "pencil", "invariant", "--json", payload)
    assert out == {"f": ["-1", "0", "1"]}


def test_pencil_round_trip_through_cli(capsys):
    payload = '{"A": [[1, 0], [0, 1]], "B": [[0, 1], [1, 0]]}'
    out = run_json(capsys, "pencil", "to-param", "--json", payload)
    assert out["alpha"] == ["0", "1"] and out["t"] == "1"
    back = run_json(
        capsys, "pencil", "from-param", "--f", "-1,0,1",
        "--json", json.dumps({"alpha": out["alpha"], "t": out["t"]}),
    )
    assert back == {"A": [["1", "0"], ["0", "1"]], "B": [["0", "1"], ["1", "0"]]}


def test_pencil_search_negative(capsys):
    out = run_json(capsys, "pencil", "search", "--f", "-1,0,-1", "--bound", "20")
    assert out == {"found": False, "real_obstruction": True}


def test_pencil_search_positive(capsys):
    out = run_json(capsys, "pencil", "search", "--f", "1,0,1", "--bound", "10")
    assert out["found"] is True
    assert "alpha" in out and "t" in out


def test_pencil_stab(capsys):
    payload = '{"A": [[1, 0], [0, 1]], "B": [[0, 1], [1, 0]]}'
    out = run_json(capsys, "pencil", "stab", "--json", payload)
    assert out["order"] == 2 and out["geometric_order"] == 2


def test_pencil_stab_with_det_divisible_by_forty_primes(capsys):
    # det A = 2 * 3 * 5 * ... * 179: factoring g must walk on to the prime 181
    P, p = 2, 2
    for _ in range(40):
        p = next_prime(p)
        P *= p
    payload = json.dumps({"A": [[1, 0], [0, P]], "B": [[0, 1], [1, 0]]})
    out = run_json(capsys, "pencil", "stab", "--json", payload)
    assert out["order"] == 2 and out["geometric_order"] == 2
    # the same without asserts, through stdin as a separate process
    src = os.path.dirname(os.path.dirname(quadpencil.__file__))
    proc = subprocess.run([sys.executable, "-O", "-m", "quadpencil.cli", "pencil", "stab"],
                          input=payload, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1 and json.loads(proc.stdout)["order"] == 2


def test_integral_canonical(capsys):
    out = run_json(capsys, "integral", "canonical", "--f", "1,0,0,1")
    assert out["A"] == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]
    assert out["B"] == [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]
    assert out["gamma"] == ["1", "0", "0"] and out["t"] == "1"


def test_integral_ideal(capsys):
    out = run_json(capsys, "integral", "ideal", "--f", "2,3,5,7", "--k", "1")
    assert out == {
        "den": 2,
        "mat": [[2, 0, 0], [0, 1, 0], [0, 0, 2]],
        "eps": 1,
        "norm": "1/2",
    }


def test_integral_wood_eliminates_the_rows_once(capsys, monkeypatch):
    # json_to_ideal's full-rank check hands its determinant on as the norm, so
    # a basis that is not triangular (the rows of I_f(1) rotated) goes through
    # one elimination in linalg, where the norm used to take two more
    ideal = run_json(capsys, "integral", "ideal", "--f", "2,3,5,7,1,1", "--k", "1")
    del ideal["norm"]
    ideal["mat"] = ideal["mat"][1:] + ideal["mat"][:1]
    payload = json.dumps({"ideal": ideal, "alpha": [1, 0, 0, 0, 0]})
    bareiss, calls = linalg._bareiss, []

    def counted(M, ncols, jordan):
        calls.append(len(M))
        return bareiss(M, ncols, jordan)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    out = run_json(capsys, "integral", "wood", "--f", "2,3,5,7,1,1", "--json", payload)
    assert out["gamma"] == ["2", "0", "0", "0", "0"] and out["t"] == "8"
    assert calls == [5]


def test_integral_different(capsys):
    out = run_json(capsys, "integral", "different", "--f", "1,0,0,1")
    assert out == {"contained": True, "index": 27}


def test_integral_disc(capsys):
    out = run_json(capsys, "integral", "disc", "--f", "2,3,5,7")
    assert out["equal"] is True and out["order_disc"] == out["form_disc"]


def test_hyper(capsys):
    out = run_json(capsys, "hyper", "--f", "1,0,0,1", "--point", "2,3")
    assert out == {"g": ["1", "0", "0", "1"], "alpha": ["2", "-1", "0"], "t": "3"}


def test_quad_hilbert(capsys):
    out = run_json(capsys, "quad", "hilbert", "--a", "2", "--b", "3", "--place", "3")
    assert out == {"symbol": -1}
    out = run_json(capsys, "quad", "hilbert", "--a", "-1", "--b", "-1", "--place", "oo")
    assert out == {"symbol": -1}


def test_quad_iso_and_spin(capsys):
    q = json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-7"]])
    out = run_json(capsys, "quad", "iso", "--json", q, "--bound", "10")
    assert out == {"isotropic": False, "witness": None}
    q = json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    out = run_json(capsys, "quad", "spin", "--json", q)
    assert out == {"ramified": ["oo", 2]}


@pytest.mark.parametrize(("gram", "stdout"), [
    ("[[1,0,0],[0,1,0],[0,0,1]]", '{"isotropic": false, "witness": null}\n'),
    ("[[1,1,0],[1,3,0],[0,0,-2]]", '{"isotropic": true, "witness": [1, -1, -1]}\n'),
])
def test_quad_iso_output_pinned(capsys, gram, stdout):
    rc, out, err = run(capsys, "quad", "iso", "--json", gram, "--bound", "3")
    assert (rc, out, err) == (0, stdout, "")


@pytest.mark.parametrize(("argv", "target", "stdout"), [
    ("quad iso --json [[1,1,0],[1,3,0],[0,0,-2]] --bound 3", "quadspace._eliminate",
     '{"isotropic": true, "witness": [1, -1, -1]}\n'),
    ("quad iso --json [[1,0,0],[0,1,0],[0,0,1]] --bound 3", "quadspace._eliminate",
     '{"isotropic": false, "witness": null}\n'),
    ("quad iso --json [[1,1,0],[1,3,0],[0,0,-2]] --bound 0", "quadspace._eliminate",
     '{"isotropic": true}\n'),
    ("pencil search --f -1,0,-1 --bound 20", "pencil.real_orbit_obstruction",
     '{"found": false, "real_obstruction": true}\n'),
    ("pencil search --f -1,0,1 --bound 0", "pencil.real_orbit_obstruction",
     '{"found": false, "real_obstruction": false}\n'),
    ("pencil search --f 2,0,0,1 --bound 2", "pencil.real_orbit_obstruction",
     '{"found": true, "alpha": ["0", "-1/2", "-1/2"], "t": "1/4"}\n'),
])
def test_search_commands_decide_once(capsys, monkeypatch, argv, target, stdout):
    module, name = target.split(".")
    fn = getattr(importlib.import_module("quadpencil." + module), name)
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for mod in list(sys.modules.values()):  # every alias, the CLI's imports too
        if mod.__name__.startswith("quadpencil") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out, err, len(calls)) == (0, stdout, "", 1)


def test_pf_pfaffian_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[[0, 5], [-5, 0]]"))
    out = run_json(capsys, "pf", "pfaffian")
    assert out == {"pfaffian": "5"}


def test_adj_canon(capsys):
    out = run_json(capsys, "adj", "canon", "--json", '{"c": ["0", "-1"], "a": ["0"]}')
    assert out == {"T": [["0", "1"], ["1", "0"]]}


def test_exit_code_bad_json(capsys):
    rc, out, err = run(capsys, "pencil", "invariant", "--json", "{not json")
    assert rc == 1
    assert "input error" in err


def test_exit_code_bad_schema(capsys):
    rc, out, err = run(capsys, "pencil", "invariant", "--json", '{"A": [[1]]}')
    assert rc == 1
    assert "input error" in err


def test_exit_code_domain_error(capsys):
    payload = '{"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]]}'
    rc, out, err = run(capsys, "pencil", "to-param", "--json", payload)
    assert rc == 2
    assert "domain error" in err


def test_selftest_refuses_stripped_asserts():
    # its criteria are asserts: under -O it would print "pass" for each unchecked
    src = os.path.dirname(os.path.dirname(quadpencil.__file__))
    proc = subprocess.run([sys.executable, "-O", "-m", "quadpencil.cli", "selftest"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("domain error:")


def test_singular_ideal_is_a_domain_error(capsys):
    payload = '{"ideal": {"den": 1, "mat": [[0,0,0],[0,0,0],[0,0,0]], "eps": 1}, "alpha": ["1"]}'
    rc, out, err = run(capsys, "integral", "wood", "--f", "1,0,0,-2", "--json", payload)
    assert rc == 2 and out == ""
    assert err == "domain error: ideal basis is not full rank\n"


def test_exit_code_hilbert_zero(capsys):
    rc, out, err = run(capsys, "quad", "hilbert", "--a", "0", "--b", "3", "--place", "5")
    assert rc == 2


def test_exit_code_hilbert_composite_place(capsys):
    # 318665857834031151167461 passes Miller-Rabin to the bases 2..37
    rc, out, err = run(capsys, "quad", "hilbert", "--a", "2", "--b", "3",
                       "--place", "318665857834031151167461")
    assert rc == 2 and out == ""
    assert "place must be 0 or a prime" in err


H_EQUIV_PAYLOAD = json.dumps({"p1": {"g": ["1", "0", "1"], "alpha": ["1"], "t": "1"},
                              "p2": {"g": ["1", "0", "1"], "alpha": ["1"], "t": "1"}})

MALFORMED = {
    "place-not-a-number": ["quad", "hilbert", "--a", "2", "--b", "3", "--place", "abc"],
    "primes-not-a-number": ["pencil", "h-equiv", "--primes", "x", "--json", H_EQUIV_PAYLOAD],
    "primes-not-prime": ["pencil", "h-equiv", "--primes", "3,4", "--json", H_EQUIV_PAYLOAD],
    "negative-bound": ["pencil", "search", "--f", "-1,0,-1", "--bound", "-5"],
    "bound-not-a-number": ["quad", "iso", "--json", "[[1,0],[0,1]]", "--bound", "x"],
    "adj-inv-not-square": ["adj", "inv", "--json", "[[1,2]]"],
    "adj-conj-not-square": ["adj", "conj", "--json",
                            '{"T": [[1,2,3],[4,5,6]], "Tprime": [[1,2,3],[4,5,6]]}'],
    "missing-field": ["adj", "canon", "--json", '{"c": ["0", "-1"]}'],
    "vectors-not-a-list": ["quad", "gram", "--json", '{"space": [[1,0],[0,1]], "vectors": 5}'],
    # argparse's own usage errors
    "k-not-a-number": ["integral", "ideal", "--f", "1,0,0,1", "--k", "x"],
    "seed-not-a-number": ["selftest", "--seed", "x"],
    "missing-required-f": ["integral", "order"],
    "missing-subcommand": ["pencil"],
    "unknown-group": ["nope"],
    # JSON true is not an integer
    "ideal-bool-den-eps": ["integral", "wood", "--f", "1,0,0,1", "--json",
                           '{"ideal": {"den": true, "mat": [[1,0,0],[0,1,0],[0,0,1]],'
                           ' "eps": true}, "alpha": ["1"]}'],
    "ideal-bool-entry": ["integral", "wood", "--f", "1,0,0,1", "--json",
                         '{"ideal": {"den": 1, "mat": [[true,0,0],[0,1,0],[0,0,1]],'
                         ' "eps": 1}, "alpha": ["1"]}'],
}


@pytest.mark.parametrize("argv", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_1_with_one_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_primes_flag_accepts_primes(capsys):
    out = run_json(capsys, "pencil", "h-equiv", "--primes", "5,3", "--json", H_EQUIV_PAYLOAD)
    assert out == {"equivalent": True, "witness": ["1", "0"], "d": "1"}
