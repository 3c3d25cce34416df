"""Certificate benchmark for slicebound.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Each workload runs in fresh worker processes with one BLAS thread:
three set-up measurements, the middle one in the process that then runs
one closed loop over the seeded inputs.  --trace 1 skips the other two
and reports the per-layer metrics of a traced loop instead of the
end-to-end ones.

Writes a full record to certbench/runs/ and prints, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_values

DEADLINE_S = 170.0           # every worker of one run ends within this
ROOT = Path.cwd()
RUNS_DIR = ROOT / "certbench" / "runs"


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)  # the worker checks it
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _environment():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = _environment()

    def __call__(self, mode, trace=0):
        a = self.args
        t0 = time.monotonic()
        cmd = [sys.executable, "-m", "certbench.worker",
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(trace),
               "--mode", mode, "--t0", repr(t0)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                              capture_output=True,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    args = _parse()
    if not (ROOT / "src" / "slicebound" / "__init__.py").is_file():
        sys.exit(f"no slicebound source tree under {ROOT / 'src'}; run from "
                 "the root of a checkout")
    launch = Launcher(args, time.monotonic() + DEADLINE_S)
    # set-up samples before and after the measured process, so that their
    # median does not rest on one stretch of the machine's speed
    setups = []
    if not args.trace:
        setups.append(launch("setup")["setup_s"])
    res = launch("run", args.trace)
    setups.append(res["setup_s"])
    if not args.trace:
        setups.append(launch("setup")["setup_s"])

    units = {name: unit for name, unit, _ in END_TO_END}
    if args.trace:
        values = layer_values(res["trace"])
        metrics = {name: _metric(values[name], unit)
                   for name, unit in PER_LAYER}
    else:
        values = {
            "certs_per_s": res["completed"] / res["wall_s"],
            "cert_p50_s": res["cert_p50_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], units[name])
                   for name in units}

    record = {"args": vars(args), "setup_samples_s": setups,
              "metrics": metrics, **res}
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    path = RUNS_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                       ".json")
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "record": str(path.relative_to(ROOT)),
        "environment": res["environment"],
        "outputs_digest": res["outputs_digest"],
        "checks": res["checks"], "check_failures": res["check_failures"],
        "unexpected_failures": res["unexpected_failures"],
        "self_test": res["self_test"],
        "self_test_missed": res["self_test_missed"],
    }))
    print(json.dumps({"correct": res["correct"], "attempted":
                      res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
