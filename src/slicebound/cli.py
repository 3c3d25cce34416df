"""Command-line driver: validate / project / bound / verify / construct /
sweep over decomposition fixtures, emitting JSON or CSV reports.

Each subcommand accepts only the options its handler reads.  The
tolerances are the fixed constants decomp.TOL_IDENTITY and decomp.TOL_PROJ;
Monte-Carlo seeds come from --seed alone (default 0).

Exit codes: 0 success; 1 structural error: bad input, schema or domain, an
input a check cannot handle (such as a d = 2 Parseval quadrature that does
not converge), or a usage error (an unknown or unread option, a bad choice,
a missing argument); 2 gate violation (with --force the formula values are
still emitted) or a Wills bound that fails to dominate its Monte-Carlo
oracle.
"""

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import bodies, bounds, decomp, oracle
from .errors import GateError, SliceboundError, StructuralError

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_GATE = 2
# a Monte-Carlo side of an identity agrees, and a Monte-Carlo value is
# dominated, within this many standard errors
MC_SIGMAS = 5.0


def _fmt(x):
    return float(f"{x:.17g}")


def _load_json_arg(value, option):
    """Inline JSON object or path to a JSON file, given to --option."""
    if value is None:
        raise StructuralError(f"missing required option --{option}")
    if value.lstrip().startswith("{"):
        return json.loads(value)
    with open(value) as fh:
        return json.load(fh)


def _load_input(path):
    """Returns (decomposition, ball) — ball is None for plain systems."""
    data = _load_json_arg(path, "input")
    if "p" in data and "alphas" in data:
        inner = decomp.JohnDecomposition.from_dict(data["decomp"])
        ball = bodies.KpBall(inner, data["p"], data["alphas"])
        return inner, ball
    return decomp.JohnDecomposition.from_dict(data), None


def _load_subspace(spec, dim):
    return decomp.Subspace.from_dict(_load_json_arg(spec, "subspace"), dim)


def _emit(payload, args):
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _to_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(payload, dict) and "rows" in payload:
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])
    elif isinstance(payload, dict) and "entries" in payload:
        writer.writerow(["name", "value", "gate_condition", "gate_satisfied"])
        for e in payload["entries"]:
            writer.writerow([
                e["name"], f"{e['value']:.17g}",
                e["gate"]["required_condition"], e["gate"]["satisfied"],
            ])
    else:
        for key, val in payload.items():
            writer.writerow([key, val])
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    system, _ = _load_input(args.input)
    report = decomp.validate(system)
    _emit({
        "passed": report.passed,
        "unit_residual": _fmt(report.unit_residual),
        "identity_residual": _fmt(report.identity_residual),
        "trace_residual": _fmt(report.trace_residual),
        "centering_residual": _fmt(report.centering_residual),
        "checks": report.checks,
    }, args)
    return EXIT_OK if report.passed else EXIT_STRUCTURAL


def cmd_project(args):
    system, _ = _load_input(args.input)
    H = _load_subspace(args.subspace, system.dim)
    proj = decomp.project(system, H)
    _emit({
        "support": proj.support.tolist(),
        "directions": proj.directions.tolist(),
        "tilde_weights": [_fmt(x) for x in proj.tilde_weights],
        "thresholds": [_fmt(x) for x in proj.thresholds],
        "near_threshold": list(proj.near_threshold),
        "identity_residual": _fmt(proj.identity_residual()),
    }, args)
    return EXIT_OK


def _parse_bounds_arg(value):
    if value is None or value == "all":
        return "all"
    return [b.strip() for b in value.split(",") if b.strip()]


def cmd_bound(args):
    system, ball = _load_input(args.input)
    subspace = _load_subspace(args.subspace, system.dim)
    proj = nl = None
    if ball is None:
        proj = decomp.project(system, subspace)
        if system.centered and system.centering_holds():
            nl = decomp.lift_nonsymmetric(system, subspace)
    report = bounds.build_report(
        _parse_bounds_arg(args.bounds), proj=proj, ball=ball,
        subspace=subspace, nl=nl, force=args.force,
    )
    _emit(report.to_dict(), args)
    return EXIT_OK if report.gates_satisfied() else EXIT_GATE


def _section_certificate(system, ball, H, args, seed, oracle_kind):
    """(bound report, Monte-Carlo estimate, exact volume) for the section of
    the input by H; the estimate is None for oracle_kind "exact", and the
    exact volume is None unless asked for and k <= oracle.EXACT_MAX_K."""
    names = _parse_bounds_arg(args.bounds)
    if ball is not None:
        if oracle_kind == "exact":
            raise StructuralError("no exact oracle for l_p ball sections")
        est = oracle.mc_kp_section_volume(ball, H, args.samples, seed)
        report = bounds.build_report(names, ball=ball, subspace=H,
                                     force=args.force)
        return report, est, None
    proj = decomp.project(system, H)
    poly = bodies.section_polytope(proj)
    est = exact = None
    if oracle_kind != "exact":
        est = oracle.mc_volume(poly, args.samples, seed)
    if oracle_kind == "exact" or (oracle_kind == "both"
                                  and proj.k <= oracle.EXACT_MAX_K):
        exact = oracle.exact_volume_smallk(poly)
    report = bounds.build_report(names, proj=proj, force=args.force)
    return report, est, exact


def cmd_verify(args):
    if args.what not in ("section", "parseval", "wills"):
        raise StructuralError(f"unknown verify mode {args.what!r}; valid "
                              "modes: section, parseval, wills")
    if args.what != "section":            # options only sections read
        given = [f"--{name}" for name in ("bounds", "oracle", "force")
                 if getattr(args, name) not in (None, False)]
        if given:
            raise StructuralError(
                f"verify {args.what} does not read {', '.join(given)}")
    system, ball = _load_input(args.input)
    H = _load_subspace(args.subspace, system.dim)
    if args.what == "section":
        report, est, exact = _section_certificate(
            system, ball, H, args, args.seed, args.oracle or "both")
        out = {"seed": args.seed, "samples": args.samples}
        if est is not None:
            out["mc_mean"] = _fmt(est.mean)
            out["mc_std_error"] = _fmt(est.std_error)
            out["mc_hit_rate"] = _fmt(est.hit_rate)
        if exact is not None:
            out["exact"] = _fmt(exact)
        out["bounds"] = report.entries
        _emit(out, args)
        return EXIT_OK if report.gates_satisfied() else EXIT_GATE
    if ball is not None:
        raise StructuralError(
            f"verify {args.what} checks polytope sections, not l_p balls")
    proj = decomp.project(system, H)
    if args.what == "parseval":
        lhs, rhs, gates = oracle.parseval_check(
            proj, samples=args.samples, seed=args.seed)
        tol = 0.01 * lhs if gates["mc_rhs"] else 1e-8
        agree = abs(lhs - rhs) <= tol + MC_SIGMAS * gates["lhs_std_error"]
        _emit({"lhs": _fmt(lhs), "rhs": _fmt(rhs),
               "abs_difference": _fmt(abs(lhs - rhs)),
               "gates": gates, "agree": agree}, args)
        return EXIT_OK if agree else EXIT_STRUCTURAL
    poly = bodies.section_polytope(proj)
    est = oracle.wills_oracle(poly, args.samples, args.seed)
    bound_val = bounds.bound_wills_functional(proj, 1.0)
    dominates = bound_val >= est.mean - MC_SIGMAS * est.std_error
    _emit({"oracle_mean": _fmt(est.mean),
           "oracle_std_error": _fmt(est.std_error),
           "bound": _fmt(bound_val),
           "dominates": dominates,
           "distances": ("exact" if proj.k <= oracle.EXACT_MAX_K
                         else "dykstra"),
           "samples": est.samples, "seed": est.seed}, args)
    return EXIT_OK if dominates else EXIT_GATE


def cmd_construct(args):
    if args.body == "hadamard":
        system = bodies.hadamard_decomposition(args.k, args.n)
    elif args.body == "cube":
        system = bodies.cube_decomposition(args.n, one_sided=args.one_sided)
    else:                             # "simplex", the parser's last choice
        system = bodies.simplex_decomposition(args.n)
    _emit(system.to_dict(), args)
    return EXIT_OK


def cmd_sweep(args):
    if args.count < 0:
        raise StructuralError(f"--count must be >= 0, got {args.count}")
    system, ball = _load_input(args.input)
    rng = np.random.default_rng(args.seed)
    columns = None
    rows = []
    for i in range(args.count):
        H = decomp.Subspace.random(system.dim, args.k, rng)
        report, est, _ = _section_certificate(system, ball, H, args,
                                              args.seed + i + 1, "mc")
        entry_names = [e["name"] for e in report.entries]
        if columns is None:
            columns = (["row", "inputs_digest", "k"] + entry_names
                       + ["oracle_mean", "oracle_std_error"])
        digest = report.entries[0]["inputs_digest"] if report.entries else ""
        rows.append([i, digest, args.k]
                    + [e["value"] for e in report.entries]
                    + [est.mean, est.std_error])
    if columns is None:
        columns = ["row", "inputs_digest", "k", "oracle_mean",
                   "oracle_std_error"]
    _emit({"columns": columns, "rows": rows}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise StructuralError, so they exit 1 like bad input
    rather than with argparse's 2, which is the gate-violation code."""

    def error(self, message):
        raise StructuralError(f"{self.prog}: {message}")


# every option a subcommand can declare; --bounds and --oracle default to
# None ("all" and "both") so that verify can tell whether one was given
_OPTIONS = {
    "--input": {},
    "--subspace": {},
    "--bounds": {
        "help": "'all' (every bound the inputs allow, the default) or a "
                "comma-separated list of: " + ", ".join(bounds.ALL_BOUNDS)},
    "--oracle": {"choices": ["mc", "exact", "both"],
                 "help": "section oracle (default: both)"},
    "--force": {"action": "store_true"},
    "--samples": {"type": int, "default": 10 ** 5},
    "--seed": {"type": int, "default": 0},
    "--count": {"type": int, "default": 10},
    "--k": {"type": int, "default": 2},
    "--n": {"type": int, "default": 2},
    "--one-sided": {"action": "store_true"},
    "--output": {},
    "--format": {"choices": ["json", "csv"], "default": "json"},
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """Built once: parse_args returns a new namespace on every call."""
    parser = _Parser(
        prog="slicebound",
        description="Volume bounds for sections of convex bodies in John "
                    "position, with Monte-Carlo and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, *options):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for option in options + ("--output", "--format"):
            p.add_argument(option, **_OPTIONS[option])
        return p

    command("validate", cmd_validate, "check decomposition invariants",
            "--input")
    command("project", cmd_project, "project a system onto a subspace",
            "--input", "--subspace")
    command("bound", cmd_bound, "evaluate bound formulas",
            "--input", "--subspace", "--bounds", "--force")
    p = command("verify", cmd_verify, "compare bounds against oracles",
                "--input", "--subspace", "--bounds", "--oracle", "--force",
                "--samples", "--seed")
    # checked in cmd_verify: with argparse choices, an unknown option's
    # value would be reported as an invalid mode instead
    p.add_argument("what", nargs="?", default="section",
                   help="section (the default), parseval or wills")
    p = command("construct", cmd_construct, "emit a canonical decomposition",
                "--k", "--n", "--one-sided")
    p.add_argument("body", choices=["hadamard", "cube", "simplex"])
    command("sweep", cmd_sweep, "bounds vs oracle over random subspaces",
            "--input", "--count", "--k", "--bounds", "--force", "--samples",
            "--seed")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except GateError as exc:
        print(f"gate violation: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (SliceboundError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
