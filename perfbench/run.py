"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload orbits --seed 0 --seconds 12 --trace 0

Runs from the root of a checkout and imports quadpencil from its src/.  The
workload itself runs in worker.py, in a fresh interpreter.  Before and after
it, more fresh interpreters, at least three each time, only do the set-up;
setup_s is their median.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run over the first 100 ops.  Human-readable lines come first; the last line
is the JSON result.  The exit code is non-zero, and no result is printed,
when the library is missing or any step fails to run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import BARE_REF_S, python_run_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("orbits", "ideals", "forms", "cli")
# Set-up-only interpreters run in two windows, one before the timed loop and
# one after it, so that no single phase of the machine's load sets setup_s.
# Each window runs them until SETUP_BUDGET_S have passed, at least SETUP_MIN
# and at most SETUP_MAX of them.  A cheap set-up thus gets more of them, as
# its noise (interpreter start, imports) is the larger share.
SETUP_BUDGET_S = 2.5
SETUP_MIN, SETUP_MAX = 3, 12
DEFAULT_SEED = 0
DEFAULT_SECONDS = 12
TIMEOUT_S = 170


def worker(args, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args):
    """Scaled set-up times of set-up-only interpreters, run one after another."""
    setups = []
    start = time.perf_counter()
    bare = python_run_s("pass")
    while len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or time.perf_counter() - start < SETUP_BUDGET_S):
        probe = worker(args, setup_only=True)
        before, bare = bare, python_run_s("pass")
        setups.append(probe["spawn_s"] * BARE_REF_S / ((before + bare) / 2)
                      + probe["compute_s"])
    return setups


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def line_count(rel):
    """Lines of the .py files under ROOT/rel."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, rel)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def expected_digest(workload, seed, ops):
    with open(os.path.join(HERE, "expected_digests.json")) as fh:
        table = json.load(fh)
    entry = table.get(workload)
    if entry and entry["seed"] == seed and entry["ops"] == ops:
        return entry["sha256"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadpencil", "__init__.py")):
        sys.exit("no src/quadpencil next to %s: run from a full checkout" % HERE)
    # Every child may write and read bytecode caches, as an installed user's
    # imports do, whatever the caller's environment says.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children, so that each op and the
        # calibrations around it run on the same core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setups = [] if args.trace else setup_times(args)
    res = worker(args)
    if not args.trace:
        setups += setup_times(args)

    want = expected_digest(args.workload, args.seed, res["digest_ops"])
    digest_ok = want is None or want == res["output_sha256"]
    correct = res["failed"] == 0 and digest_ok

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("env: python %s, %s, nproc %d, commit %s" % (
        sys.version.split()[0], platform.platform(), os.cpu_count() or 0, git_commit()))
    print("size: src/quadpencil %d lines, tests %d lines" % (
        line_count(os.path.join("src", "quadpencil")), line_count("tests")))
    print("ops per run: %s" % (
        "the first %d, traced" % res["attempted"] if args.trace
        else "%d, over %d s or more and whole cycles" % (res["attempted"], args.seconds)))
    print("ops: %d attempted, %d failed, %.2f s timed" % (
        res["attempted"], res["failed"], res["timed_s"]))
    if res["truncated"]:
        print("TRUNCATED: the time cap stopped the run below its minimum op count,"
              " so p50 and p90 rest on fewer samples")
    for err in res["errors"]:
        print("  error: %s" % err)
    print("output_sha256 over the first %d ops: %s (%s)" % (
        res["digest_ops"], res["output_sha256"],
        "no recorded digest for this seed" if want is None
        else "matches the recorded digest" if digest_ok else "DIFFERS from the recorded digest"))
    for argv, good in res.get("defect_probes", []):
        print("defect probe %s: %s" % ("ok" if good else "FAILS", " ".join(argv)))

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        print("traced: %.3f ops/s, %d spans in %s, peak RSS %.1f MB" % (
            res["ops_per_s"], res["spans"], res["spans_file"], res["peak_rss_mb"]))
        metrics["trace.ops_per_s"] = {"value": res["ops_per_s"], "unit": "1/s"}
        metrics["trace.spans"] = {"value": res["spans"], "unit": "count"}
        metrics["trace.peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    else:
        n = res["attempted"]
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": res["op_p90_ms"], "unit": "ms"},
            "verified_ratio": {"value": (n - res["failed"]) / n, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "inproc_p50_ms": {"value": res["inproc_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print("latency samples: %d (p50 and p90 below)" % n)
        print("setup_s samples: %s" % ", ".join("%.4f" % s for s in setups))
        print("unscaled wall clock: %.4g ops/s, p50 %.4g ms; median speed %.2f x reference" % (
            res["raw_ops_per_s"], res["raw_op_p50_ms"], res["speed"]))
    for name, m in metrics.items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
