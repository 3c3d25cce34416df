"""Command-line driver: validate / project / bound / verify / construct /
sweep over decomposition fixtures, emitting JSON or CSV reports.

Exit codes: 0 success, 1 structural error (bad input, schema, domain),
2 gate violation (with --force the formula values are still emitted).
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import bodies, bounds, decomp, oracle
from .errors import GateError, SliceboundError, StructuralError

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_GATE = 2
# a Monte-Carlo side of an identity agrees within this many standard errors
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
        ball = bodies.KpBall(inner, float(data["p"]),
                             np.asarray(data["alphas"], dtype=float))
        return inner, ball
    return decomp.JohnDecomposition.from_dict(data), None


def _load_subspace(spec, dim):
    return decomp.Subspace.from_dict(_load_json_arg(spec, "subspace"), dim)


def _emit(payload, args):
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2, default=_json_default)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


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


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SLICEBOUND_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    system, _ = _load_input(args.input)
    report = decomp.validate(system, tol_identity=args.tol_identity)
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
    proj = decomp.project(system, H, tol_proj=args.tol_proj)
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
    names = _parse_bounds_arg(args.bounds)
    proj = None
    subspace = None
    nl = None
    if args.subspace:
        subspace = _load_subspace(args.subspace, system.dim)
        if ball is None:
            proj = decomp.project(system, subspace, tol_proj=args.tol_proj)
            if system.centered and system.centering_residual() < 1e-8:
                nl = decomp.lift_nonsymmetric(system, subspace)
    report = bounds.build_report(
        names, proj=proj, ball=ball, subspace=subspace, nl=nl,
        force=args.force,
        metadata={"tol_identity": args.tol_identity,
                  "tol_proj": args.tol_proj},
    )
    _emit(report.to_dict(), args)
    return EXIT_OK if report.gates_satisfied() else EXIT_GATE


def cmd_verify(args):
    system, ball = _load_input(args.input)
    seed = _resolve_seed(args)
    names = _parse_bounds_arg(args.bounds)
    H = _load_subspace(args.subspace, system.dim)
    proj = decomp.project(system, H, tol_proj=args.tol_proj)
    if args.what == "parseval":
        lhs, rhs, gates = oracle.parseval_check(
            proj, samples=args.samples, seed=seed)
        tol = max(1e-6, 0.01 * lhs if gates["mc_rhs"] else 1e-6)
        agree = abs(lhs - rhs) <= tol + MC_SIGMAS * gates["lhs_std_error"]
        _emit({"lhs": _fmt(lhs), "rhs": _fmt(rhs),
               "abs_difference": _fmt(abs(lhs - rhs)),
               "gates": gates, "agree": agree}, args)
        return EXIT_OK if agree else EXIT_STRUCTURAL
    if args.what == "wills":
        poly = bodies.section_polytope(proj)
        est = oracle.wills_oracle(poly, args.samples, seed)
        bound_val = bounds.bound_wills_functional(proj, 1.0)
        _emit({"oracle_mean": _fmt(est.mean),
               "oracle_std_error": _fmt(est.std_error),
               "bound": _fmt(bound_val),
               "dominates": bound_val >= est.mean - 3 * est.std_error,
               "samples": est.samples, "seed": est.seed}, args)
        return EXIT_OK
    # section-volume verification
    out = {"seed": seed, "samples": args.samples}
    if ball is not None:
        est = oracle.mc_kp_section_volume(ball, H, args.samples, seed)
        out["mc_mean"] = _fmt(est.mean)
        out["mc_std_error"] = _fmt(est.std_error)
        report = bounds.build_report(names, ball=ball, subspace=H,
                                     force=args.force)
    else:
        poly = bodies.section_polytope(proj)
        if args.oracle in ("mc", "both"):
            est = oracle.mc_volume(poly, args.samples, seed)
            out["mc_mean"] = _fmt(est.mean)
            out["mc_std_error"] = _fmt(est.std_error)
        if args.oracle == "exact" or (args.oracle == "both"
                                      and proj.k <= oracle.EXACT_MAX_K):
            out["exact"] = _fmt(oracle.exact_volume_smallk(poly))
        report = bounds.build_report(names, proj=proj, force=args.force)
    out["bounds"] = report.to_dict()["entries"]
    _emit(out, args)
    return EXIT_OK if report.gates_satisfied() else EXIT_GATE


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
    system, ball = _load_input(args.input)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    names = _parse_bounds_arg(args.bounds)
    columns = None
    rows = []
    for i in range(args.count):
        H = decomp.Subspace.random(system.dim, args.k, rng)
        if ball is not None:
            report = bounds.build_report(names, ball=ball, subspace=H,
                                         force=args.force)
            est = oracle.mc_kp_section_volume(ball, H, args.samples,
                                              seed + i + 1)
        else:
            proj = decomp.project(system, H, tol_proj=args.tol_proj)
            report = bounds.build_report(names, proj=proj, force=args.force)
            poly = bodies.section_polytope(proj)
            est = oracle.mc_volume(poly, args.samples, seed + i + 1)
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


def _add_common(parser, subspace=False):
    parser.add_argument("--input", required=False)
    if subspace:
        parser.add_argument("--subspace")
    parser.add_argument(
        "--bounds", default="all",
        help="'all' (every bound the inputs allow) or a comma-separated "
             "list of: " + ", ".join(bounds.ALL_BOUNDS))
    parser.add_argument("--oracle", choices=["mc", "exact", "both"],
                        default="both")
    parser.add_argument("--samples", type=int, default=10 ** 5)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol-identity", type=float, default=1e-8,
                        dest="tol_identity")
    parser.add_argument("--tol-proj", type=float, default=1e-9,
                        dest="tol_proj")
    parser.add_argument("--force", action="store_true")
    parser.add_argument("--output")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slicebound",
        description="Volume bounds for sections of convex bodies in John "
                    "position, with Monte-Carlo and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check decomposition invariants")
    _add_common(p)

    p = sub.add_parser("project", help="project a system onto a subspace")
    _add_common(p, subspace=True)

    p = sub.add_parser("bound", help="evaluate bound formulas")
    _add_common(p, subspace=True)

    p = sub.add_parser("verify", help="compare bounds against oracles")
    p.add_argument("what", nargs="?", default="section",
                   choices=["section", "parseval", "wills"])
    _add_common(p, subspace=True)

    p = sub.add_parser("construct", help="emit a canonical decomposition")
    p.add_argument("body", choices=["hadamard", "cube", "simplex"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--one-sided", action="store_true", dest="one_sided")
    _add_common(p)

    p = sub.add_parser("sweep", help="bounds vs oracle over random subspaces")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    _add_common(p)
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "project": cmd_project,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "construct": cmd_construct,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GateError as exc:
        print(f"gate violation: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (SliceboundError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
