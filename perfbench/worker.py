"""One benchmark workload in a fresh interpreter; prints one JSON line.

Started by run.py with the parent's clock reading, so that set-up time counts
from interpreter start.  With --setup-only it stops once set-up is done.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TRACE_OPS = 100    # the traced run covers exactly the digest prefix
DIGEST_OPS = 100   # output_sha256 covers the first DIGEST_OPS ops
HARD_CAP_S = 110   # past this, stop at the next whole cycle even below MIN_OPS


# Timings are scaled to a reference machine speed.  The machine is shared, and
# its speed swings by up to 2x within seconds, so every op is bracketed by a
# fixed pure-Python workload (calibrate) and its time is multiplied by
# CAL_REF_S / (mean of the two calibration times).  CAL_REF_S is what one
# calibration takes on an idle core of a 2-core x86-64 machine, CPython 3.11.
CAL_REF_S = 0.002


def calibrate():
    """Seconds taken by a fixed Fraction workload, about 2 ms on an idle core."""
    t = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 400):
        x = (x * 3 + Fraction(1, i)) / 2
        if x.denominator > 10 ** 40:
            x = Fraction(1)
    return time.perf_counter() - t


def calibrate_steady():
    """Median of five calibrations: one burst of load does not move it."""
    return statistics.median(calibrate() for _ in range(5))


# A bare interpreter's start-up, `python -c pass`, takes about this long on
# an idle core of the same machine: the reference for steps that start one.
BARE_REF_S = 0.045


def python_run_s(code, env=None):
    """Seconds a fresh interpreter takes to run `code`."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return time.perf_counter() - t


class SetupClock:
    """Set-up time, a step at a time, in two sums scaled in different ways.

    Steps that start an interpreter (this one's start and imports, and each
    cli warm-up call) go unscaled into `spawn_s`.  A loop in this process
    tracks them poorly, so run.py scales them by bare start-ups timed before
    and after this process.  Other steps go into `compute_s`, each scaled by
    the calibrations just before and after it, as an op is.  The calibrations
    themselves are left out.  There are few steps, so each takes the steadier
    calibrate_steady().
    """

    def __init__(self, start):
        self.t, self.cal = start, None
        self.spawn_s = self.compute_s = 0.0

    def step(self, spawns=False):
        dt = time.perf_counter() - self.t
        cal = calibrate_steady()
        if spawns:
            self.spawn_s += dt
        else:
            self.compute_s += dt * CAL_REF_S / ((self.cal + cal) / 2)
        self.t, self.cal = time.perf_counter(), cal


# One finished op: scaled and raw latency in s, whether its oracle passed, the
# error text, its digest record, the scaled extra figure (CLI in-process time)
# and the op's speed scale.
Op = namedtuple("Op", "scaled raw ok error record aux scale")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_ms(env, rounds=5):
    """Median time, in ms, to import quadpencil.cli in a fresh interpreter.

    Read from -X importtime, as the cumulative time of the top-level import,
    and scaled by the loop.  The difference of the wall times of that
    interpreter and a bare one is noisier than the import itself, once the
    bytecode cache is in use.
    """
    cal = calibrate_steady()
    times = []
    for _ in range(rounds):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadpencil.cli"],
                             env=env, check=True, timeout=60, capture_output=True,
                             text=True).stderr
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].rstrip() == " quadpencil.cli":
                times.append(int(fields[1]) / 1000.0)
    cal = (cal + calibrate_steady()) / 2
    return statistics.median(times) * CAL_REF_S / cal


def trace_metrics(tracer, scales, env):
    """Per-layer metrics and ratios from the recorded spans of len(scales) ops."""
    from tracer import LAYER_FUNCTIONS, REPORTED

    summary = tracer.summary(scales)
    m = {}
    for name in REPORTED:
        calls, self_ns = summary.get(name, (0, 0))
        m[name + ".calls"] = (calls, "count")
        m[name + ".self_ms"] = (self_ns / 1e6, "ms")

    def ratio(key, num, base_key, base):
        m[key] = (num / base if base else 0.0, "ratio")
        m[base_key] = (base, "count")

    calls = {name: summary.get(name, (0, 0))[0] for name in REPORTED}
    ratio("factor.factor_poly.primes_per_call",
          tracer.count_under("intutil.next_prime", "factor.factor_poly"),
          "factor.factor_poly.primes_per_call.base", calls["factor.factor_poly"])
    ratio("etale.sqrt_in_algebra.resultants_per_call",
          tracer.count_under("polys.resultant", "etale.sqrt_in_algebra"),
          "etale.sqrt_in_algebra.resultants_per_call.base", calls["etale.sqrt_in_algebra"])
    ratio("pencil.g_equivalent.roots_per_call",
          tracer.count_under("etale.all_square_roots", "pencil.g_equivalent", value=True),
          "pencil.g_equivalent.roots_per_call.base", calls["pencil.g_equivalent"])
    ratio("pencil.orbit_witness_search.norms_per_call",
          tracer.count_under("etale.AlgElement.norm", "pencil.orbit_witness_search"),
          "pencil.orbit_witness_search.norms_per_call.base",
          calls["pencil.orbit_witness_search"])
    queries = [name for name in LAYER_FUNCTIONS if name.startswith("quadspace.")
               and name not in ("quadspace.diagonalize", "quadspace.hilbert_symbol")]
    ratio("quadspace.diagonalize.per_query",
          tracer.count_under("quadspace.diagonalize", queries),
          "quadspace.diagonalize.per_query.base", tracer.count_outermost(queries))
    ratio("etale.EtaleAlgebra.per_op", calls["etale.EtaleAlgebra.__init__"],
          "etale.EtaleAlgebra.per_op.base", len(scales))
    m["cli.import_ms"] = (import_ms(env), "ms")
    return m


def run_ops(wl, seconds, tracer=None, limit=None, first=None):
    """Closed loop, one client: a list of Op.

    Runs exactly `limit` ops when given, else for `seconds` and at least
    wl.MIN_OPS ops, stopping only after a whole cycle of op kinds, so that
    every run has the same mix.  Past HARD_CAP_S it stops at the next whole
    cycle even below wl.MIN_OPS; the result then says "truncated".  `first` is
    op 0's input when set-up already made it.  `scale` turns the op's measured
    times into reference-speed times.
    """
    ops = []
    start = time.perf_counter()
    inp = first
    cal_before = calibrate()
    while True:
        i = len(ops)
        elapsed = time.perf_counter() - start
        if limit is not None:
            if i >= limit:
                break
        elif (elapsed >= seconds and i % wl.CYCLE == 0
              and (i >= wl.MIN_OPS or elapsed >= HARD_CAP_S)):
            break
        if inp is None:
            inp = wl.input(i)
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        err = None
        t = time.perf_counter()
        try:
            res = wl.run(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res, err = None, "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
        cal_after = calibrate()
        scale = CAL_REF_S / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        raw_s, scaled_s, rec, aux = dt, dt * scale, None, None
        if err is None:
            (raw_s, scaled_s), aux = wl.latency(res, dt, scale)
            try:
                wl.check(inp, res)
                rec = wl.record(inp, res)
            except Exception as exc:
                err = "%s: %s" % (type(exc).__name__, exc)
        ops.append(Op(scaled_s, raw_s, err is None, err, rec, aux, scale))
        inp = None
    return ops


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads  # after install(), so its library names are the wrapped ones

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    clock = SetupClock(args.t0)
    clock.step(spawns=True)
    # Untimed and untraced; on cli this also fills the bytecode cache.  A wrong
    # answer here aborts the run.
    for inp in wl.warmup_inputs():
        res = wl.run(inp)
        clock.step(spawns=wl.SPAWNS)
        wl.check(inp, res)
        clock.t = time.perf_counter()  # the check is not set-up time
    first = wl.input(0)
    clock.step()
    if args.setup_only:
        print(json.dumps({"spawn_s": clock.spawn_s, "compute_s": clock.compute_s}))
        return 0

    ops = run_ops(wl, args.seconds, tracer, TRACE_OPS if tracer else None, first)
    lat = [op.scaled for op in ops]
    raw = [op.raw for op in ops]
    ok = sum(1 for op in ops if op.ok)
    digest = hashlib.sha256()
    for op in ops[:DIGEST_OPS]:
        digest.update(canonical(op.record).encode())
        digest.update(b"\n")
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(ops),
        "truncated": tracer is None and len(ops) < wl.MIN_OPS,
        "failed": len(ops) - ok,
        "errors": sorted({op.error for op in ops if op.error})[:10],
        "timed_s": sum(raw),
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "raw_ops_per_s": ok / sum(raw),
        "raw_op_p50_ms": 1000 * statistics.median(raw),
        "speed": statistics.median(op.scale for op in ops),
        "peak_rss_mb": peak_rss_mb(),
        "digest_ops": min(len(ops), DIGEST_OPS),
        "output_sha256": digest.hexdigest(),
    }
    if args.workload == "cli":
        out["inproc_p50_ms"] = 1000 * statistics.median(
            op.aux for op in ops if op.aux is not None)
    else:
        out["inproc_p50_ms"] = out["op_p50_ms"]  # library ops already run in-process
    if args.workload == "cli" or tracer is not None:
        probes = workloads.Cli(args.seed, ROOT).probe_defects()
        out["defect_probes"] = [[argv, good] for argv, good in probes]
    if tracer is not None:
        scales = [op.scale for op in ops]
        out["layers"] = trace_metrics(tracer, scales, workloads.cli_env(ROOT))
        out["layers"]["cli.defect_probes.failed"] = (
            sum(1 for _, good in probes if not good), "count")
        out["spans"] = len(tracer.spans)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", "spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
