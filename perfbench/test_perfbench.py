"""Checks of the benchmark itself: the tracer sees every alias, the workloads
exercise the layers they are meant to, and leave the others idle.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

from tracer import REPORTED, Tracer  # noqa: E402

# Functions each workload must call (the metric mapping in README.md).
EXERCISED = {
    "orbits": [
        "linalg.det", "linalg.solve", "linalg.inverse", "linalg.mat_mul",
        "etale.EtaleAlgebra.__init__", "etale.AlgElement.__mul__", "etale.AlgElement.trace",
        "etale.AlgElement.norm", "etale.AlgElement.inverse", "etale.euler_trace_solve",
        "etale.sqrt_in_algebra", "polys.Poly.__mul__", "polys.Poly.divmod",
        "polys.resultant", "polys.poly_gcdex", "polys.lagrange_interpolate",
        "factor.factor_poly", "pencil.invariant_binary_form", "pencil.param_to_pencil",
        "pencil.pencil_to_param", "pencil.g_equivalent", "pencil.stabilizer_rational",
        "linalg.charpoly",
    ],
    "ideals": [
        "orders.Order.__init__", "orders.power_ideal", "orders.ideal_mul",
        "orders.Order.to_basis", "orders.OrientedIdeal.contains",
        "orders.inverse_different_check", "linalg.hnf", "etale.AlgElement.__mul__",
    ],
    "forms": [
        "linalg.det", "linalg.inverse", "linalg.mat_mul", "linalg.nullspace",
        "etale.AlgElement.norm", "quadspace.diagonalize", "quadspace.hilbert_symbol",
        "quadspace.is_isotropic", "quadspace.isotropy_witness",
        "quadspace.forms_equivalent", "quadspace.spin_obstruction", "intutil.factorint",
        "intutil.is_prime", "pfaffian.pfaffian", "pfaffian.pi_invariant",
        "pfaffian.SkewTriple.transformed", "adjoint.adjoint_invariants",
        "adjoint.adjoint_conjugator", "adjoint.conjugator_is_unique",
        "pencil.orbit_witness_search",
    ],
    "cli": ["cli.build_parser", "cli.command", "jsonio.decode", "jsonio.encode"],
}
# Layers a workload must not touch at all.
IDLE = {
    "orbits": ("orders.", "quadspace.", "pfaffian.", "adjoint.", "cli.", "jsonio."),
    "ideals": ("quadspace.", "pfaffian.", "adjoint.", "cli.", "jsonio."),
    "forms": ("orders.", "cli.", "jsonio."),
    "cli": (),
}
# Enough ops to reach every op kind of the workload once.
OPS = {"orbits": 6, "ideals": 5, "forms": 16, "cli": 28}


@pytest.fixture
def tracer():
    tr = Tracer()
    import workloads

    tr.install(extra_modules=[workloads])
    yield tr
    tr.uninstall()


def test_pencil_to_param_spans_cover_aliases(tracer):
    import quadpencil.pencil as P
    import workloads

    wl = workloads.Orbits(0, ROOT)
    inp = wl.input(0)
    assert inp["n"] == 3
    pair = wl.run(inp)[1]
    tracer.active = True
    P.pencil_to_param(pair)
    tracer.active = False
    for name in ("linalg.det", "etale.euler_trace_solve", "polys.Poly.__mul__"):
        assert tracer.count_under(name, "pencil.pencil_to_param") > 0, name


def test_uninstall_restores_originals():
    import quadpencil.etale as E
    import quadpencil.linalg as L

    before = (L.det, E.mat_det, E.AlgElement.__mul__, E.AlgElement.__rmul__)
    tr = Tracer()
    tr.install()
    assert E.mat_det is L.det is not before[0]
    assert E.AlgElement.__rmul__ is E.AlgElement.__mul__ is not before[2]
    tr.uninstall()
    assert (L.det, E.mat_det, E.AlgElement.__mul__, E.AlgElement.__rmul__) == before


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_workload_layers(tracer, name):
    import workloads
    from worker import run_ops

    wl = workloads.WORKLOADS[name](0, ROOT)
    ops = run_ops(wl, 0, tracer, limit=OPS[name])
    assert all(op.ok for op in ops), [op.error for op in ops if op.error]
    calls = {k: v[0] for k, v in tracer.summary().items()}
    missing = [f for f in EXERCISED[name] if not calls.get(f)]
    assert not missing, "never called on %s: %s" % (name, missing)
    busy = [f for f in REPORTED if f.startswith(IDLE[name]) and calls.get(f)]
    assert not busy, "called on %s but should be idle: %s" % (name, busy)


def test_irreducibility_certificate():
    import oracle as O

    # x^4 - x^2 + 1 splits modulo every prime, so only Kronecker's step decides it
    assert O.open_factor_degrees([1, 0, -1, 0, 1]) == {2}
    assert O.is_irreducible([1, 0, -1, 0, 1])
    assert O.is_irreducible([1, 1, 1]) and O.is_irreducible([-5, 1, 0, 0, 0, 0, 0, 0, 1])
    assert not O.is_irreducible([4, 0, 0, 0, 1])  # (x^2 + 2x + 2)(x^2 - 2x + 2)
    assert not O.is_irreducible([-2, 0, -1, 0, 1])  # (x^2 + 1)(x^2 - 2)


def test_orbits_oracle_rejects_an_underfactored_g(monkeypatch):
    import workloads
    from quadpencil import Poly

    wl = workloads.Orbits(0, ROOT)
    inp = wl.input(0)
    res = wl.run(inp)
    wl.check(inp, res)
    g = Poly([2, 0, -3, 0, 1])  # (x^2 - 1)(x^2 - 2), passed off as irreducible
    monkeypatch.setattr(workloads, "factor_poly", lambda p: [(g, 1)])
    inp = dict(inp, g=list(g.coeffs))
    with pytest.raises(workloads.OracleError):
        wl.check(inp, res)


def test_cli_inprocess_turns_system_exit_into_an_exit_code():
    import workloads

    rc, out, err = workloads.Cli(0, ROOT).inprocess(["--no-such-option"])
    assert rc == 2 and not out and err
