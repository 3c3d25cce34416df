"""One workload process: set-up, the timed closed loop, then the checks.

    python -m certbench.worker --workload NAME --seed N --seconds S
        --trace 0|1 --mode setup|run --t0 T

`--t0` is the launcher's time.monotonic() just before it started this
process, so set-up time covers interpreter start and every import.  With
--mode setup the process stops after the warm-up certificate.  The last
line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import slicebound

from . import checks, workloads
from .trace import Tracer


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    return parser.parse_args(argv)


def _environment(args, rounds):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "slicebound": slicebound.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
    }


def _run_ops(ops, ctx):
    """The timed phase: one certificate at a time, each timed."""
    results = []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            ok, out = workloads.certify(op, ctx)
            error = None
        except Exception as exc:      # a failed operation: count it, go on
            ok, out, error = False, None, f"{type(exc).__name__}: {exc}"
        results.append({"ok": ok, "out": out, "seconds":
                        time.perf_counter() - t, "error": error})
    return results, time.perf_counter() - start


def _corruptions(op, out, refs):
    """(label, corrupted output, name of the check that must then fail):
    each bound moved 1 % past its reference on the wrong side, estimates
    shifted by 10 sigma, exact values by 1e-6."""
    z = checks.Z
    if "bounds" in out:
        for i, (name, value, gate_ok) in enumerate(out["bounds"]):
            if not gate_ok:
                continue
            r = workloads.bound_reference(name, refs)
            if name in workloads.LOWER_VOLUME_BOUNDS:
                wrong = 1.01 * (r.value + z * r.sigma)
            else:
                wrong = 0.99 * (r.value - z * r.sigma)
            bad = list(out["bounds"])
            bad[i] = (name, wrong, gate_ok)
            yield f"{name} -> {wrong:.6g}", {**out, "bounds": bad}, name
        mean, se = out["mc"]
        shift = 10 * math.hypot(se, refs["volume"].sigma)
        mc_name = "mc_kp_section_volume" if op.kind == "kp" else "mc_volume"
        yield "mc + 10 sigma", {**out, "mc": [mean + shift, se]}, mc_name
        if "exact" in out:
            yield ("exact x (1 + 1e-6)",
                   {**out, "exact": out["exact"] * (1 + 1e-6)},
                   "exact_volume_smallk")
    elif "lhs" in out:
        yield "lhs x 1.1", {**out, "lhs": out["lhs"] * 1.1}, "parseval.lhs"
        yield "rhs x 1.1", {**out, "rhs": out["rhs"] * 1.1}, "parseval.rhs"
    else:
        r = refs["wills_functional"]
        shift = 10 * math.hypot(out["oracle_std_error"], r.sigma)
        yield ("oracle + 10 sigma",
               {**out, "oracle_mean": out["oracle_mean"] + shift},
               "wills_oracle")
        wrong = 0.99 * (r.value - z * r.sigma)
        yield (f"bound -> {wrong:.6g}", {**out, "bound": wrong},
               "wills_functional")


def _check_all(ops, results, round_size):
    """Checks every completed certificate; on the first round, also
    requires each check to fail on corrupted copies of its outputs."""
    checked, failures, tried, missed = 0, [], 0, []
    for i, (op, res) in enumerate(zip(ops, results)):
        if res["out"] is None:
            continue
        refs = workloads.references(op)
        for c in workloads.assess(op, res["out"], refs):
            checked += 1
            if not c.ok:
                failures.append(f"op {i} {op.slot.system} k={op.slot.k} "
                                f"{c.name}: {c.detail}")
        if i >= round_size:
            continue
        for label, bad, must_fail in _corruptions(op, res["out"], refs):
            tried += 1
            if all(c.ok for c in workloads.assess(op, bad, refs)
                   if c.name == must_fail):
                missed.append(f"op {i} {op.slot.system}: {label}")
    return checked, failures, tried, missed


def main(argv=None):
    args = _parse(argv)
    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(workload, args.seconds)
    ctx = workloads.Context(workload)
    ops = workloads.generate(workload, args.seed, rounds, ctx.dims)
    workloads.certify(workloads.warmup_op(workload, ctx.dims), ctx)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        results, wall_s = _run_ops(ops, ctx)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if tracer:
        trace = tracer.summary()
        trace["trace.overhead"] = tracer.overhead(wall_s)

    # outside the timed phase: references, checks and the self-test
    failed = [i for i, r in enumerate(results) if not r["ok"]]
    unexpected = [f"op {i} {ops[i].slot}: {results[i]['error'] or 'verdict'}"
                  for i in failed if not ops[i].slot.expect_fail]
    checked, check_failures, tried, missed = _check_all(
        ops, results, len(workload.round))
    completed = [r["seconds"] for r in results if r["ok"]]
    digest = hashlib.sha256(json.dumps(
        [[r["ok"], r["out"]] for r in results]).encode()).hexdigest()
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": len(results),
        "failed": len(failed),
        "completed": len(completed),
        "cert_p50_s": statistics.median(completed) if completed else None,
        "cert_seconds": [r["seconds"] for r in results],
        "peak_rss_mb": peak_rss_mb,
        "unexpected_failures": unexpected,
        "checks": checked,
        "check_failures": check_failures,
        "self_test": tried,
        "self_test_missed": missed,
        "correct": bool(not unexpected and not check_failures and not missed
                        and tried > 0),
        "outputs_digest": digest,
        "environment": _environment(args, rounds),
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
