"""The four certificate workloads.

A certificate is the bounds for one section plus the oracle evidence for
it; one certificate is one operation.  Each workload is a fixed round of
certificate slots.  A run generates whole rounds of inputs from the
workload seed before timing starts, so equal seeds give equal work and the
share of failing operations is the same in every run.

Only generated inputs reach the program.  Everything slicebound is looked
up at call time through its module attributes (``bounds.build_report``,
``oracle.mc_volume``...), which is where the traced run wraps them.
"""

import contextlib
import io
import json
import zlib
from dataclasses import dataclass

import numpy as np

from slicebound import bodies, bounds, cli, decomp, oracle

from . import checks, reference as ref

# Sample counts and the relative standard error each must reach.
SYM_SAMPLES = 10 ** 5           # the CLI default
SYM_TARGET = 0.01
KP_SAMPLES = 4 * 10 ** 5
KP_TARGET = 0.05
HIGHK_SAMPLES = 10 ** 6
HIGHK_TARGET = 0.01
WILLS_SAMPLES = 10 ** 5         # the CLI default
WILLS_TARGET = 0.015
PARSEVAL_FULL_SEED = 0          # full-space checks do not depend on --seed
PARSEVAL_FULL_SAMPLES = 10 ** 5  # the CLI default, used for the k = 4 lhs

HIGHK_BOUNDS = ("symmetric_case1", "symmetric_case1_coarse", "ab_old",
                "wills_volume", "mean_width")
UPPER_VOLUME_BOUNDS = {"symmetric_case1", "symmetric_case1_coarse", "ab_old",
                       "wills_volume", "k1_upper", "k1_intermediate",
                       "kp_upper"}
LOWER_VOLUME_BOUNDS = {"k1_lower", "kp_lower"}
ALPHA_RANGE = (0.75, 1.5)
# Interior exponents per round.  The spline's cost falls from 1.0 s at
# p = 1.1 to 0.45 s at p = 1.7, so narrow ranges keep the work per seed even.
P_RANGES = {"a": (1.3, 1.4), "b": (1.6, 1.7)}


def _cube(n):
    return bodies.cube_decomposition(n)


def _cube1(n):
    return bodies.cube_decomposition(n, one_sided=True)


def _had(k, n):
    return bodies.hadamard_decomposition(k, n)


# name -> (program construction, benchmark's own contact vectors)
SYSTEMS = {
    "cube3": (lambda: _cube(3), lambda: np.eye(3)),
    "cube4": (lambda: _cube(4), lambda: np.eye(4)),
    "cube5": (lambda: _cube(5), lambda: np.eye(5)),
    "cube6": (lambda: _cube(6), lambda: np.eye(6)),
    "cube7": (lambda: _cube(7), lambda: np.eye(7)),
    "cube1s3": (lambda: _cube1(3), lambda: np.eye(3)),
    "cube1s4": (lambda: _cube1(4), lambda: np.eye(4)),
    "cube1s5": (lambda: _cube1(5), lambda: np.eye(5)),
    "had24": (lambda: _had(2, 4), lambda: ref.hadamard_vectors(2, 4)),
    "had45": (lambda: _had(4, 5), lambda: ref.hadamard_vectors(4, 5)),
    "had46": (lambda: _had(4, 6), lambda: ref.hadamard_vectors(4, 6)),
    "had48": (lambda: _had(4, 8), lambda: ref.hadamard_vectors(4, 8)),
    "had812": (lambda: _had(8, 12), lambda: ref.hadamard_vectors(8, 12)),
    "simplex4": (lambda: bodies.simplex_decomposition(4),
                 lambda: ref.simplex_vectors(4)),
}


@dataclass(frozen=True)
class Slot:
    """One certificate position in a round.  ``coords`` fixes a coordinate
    section and ``basis`` a section spanned by the given rows; otherwise
    the section is random.  ``p`` is 1, 2, or the name of an interior
    exponent drawn once per round ("a", "b")."""

    kind: str
    system: str
    k: int
    coords: tuple = None
    basis: tuple = None
    p: object = None
    expect_fail: bool = False


# Planes of R^3 orthogonal to (1, 1, 1), (1, 2, 3) and (1, 1, 2).
HEXAGON = ((1, -1, 0), (1, 1, -2))
PLANE_123 = ((2, -1, 0), (3, 0, -1))
PLANE_112 = ((1, -1, 0), (2, 0, -1))


@dataclass(frozen=True)
class Op:
    """A generated certificate input."""

    slot: Slot
    n: int
    rows: np.ndarray          # spanning rows of the section, (k, n)
    mc_seed: int
    p: float = None
    alphas: np.ndarray = None

    @property
    def kind(self):
        return self.slot.kind


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple
    warmup: Slot
    round_s: float            # one round's wall time at this commit


WORKLOADS = {w.name: w for w in (
    # what `sweep` and `verify section` do on symmetric bodies; wills_g
    # (through bounds.wills_functional) takes most of each certificate.
    # The three middle-cost slots hold the median certificate, so the
    # median is taken over certificates spread through the whole run.
    Workload(
        "sweep-sym",
        (Slot("sym", "cube4", 3), Slot("sym", "had46", 3),
         Slot("sym", "had48", 3), Slot("sym", "had48", 3),
         Slot("sym", "had48", 3), Slot("sym", "cube5", 2),
         Slot("sym", "had46", 2)),
        Slot("sym", "had45", 3), 4.0,
    ),
    # l_p balls: two interior p per round, each used twice, plus the
    # closed-form ends; interior p rebuild the gamma_p spline in kp_lower
    Workload(
        "sweep-kp",
        (Slot("kp", "cube1s4", 2, p=1.0), Slot("kp", "had46", 3, p=2.0),
         Slot("kp", "cube1s5", 3, p="a"), Slot("kp", "had46", 2, p="a"),
         Slot("kp", "had45", 3, p="b"), Slot("kp", "cube1s4", 2, p="b")),
        Slot("kp", "cube1s5", 2, p=1.5), 3.3,
    ),
    # `verify parseval` (complement dimension 1 and 3) and `verify wills`
    # through cli.main.  Complement dimension 2 is left out: its identity
    # side misses the method's 1e-8 accuracy on some random sections.  The
    # Wills sections are fixed, because the Dykstra oracle's time depends
    # on the section's shape and ranges from 0.2 s to 10 s over random
    # sections of cube(3); their Monte-Carlo seeds still come from the seed.
    # The hexagon and the (1, 1, 2) plane cost the same and sit between
    # two fast slots and two slow ones, so the median certificate is one of
    # them.  They stand on both sides of the long d = 3 check, so that the
    # median is drawn from the whole run, not from a few adjacent seconds.
    Workload(
        "verify-fourier",
        (Slot("wills", "cube3", 2, basis=HEXAGON),
         Slot("parseval", "cube1s3", 2),
         Slot("wills", "cube3", 2, basis=PLANE_112),
         Slot("parseval", "cube1s5", 2),
         Slot("wills", "cube3", 2, basis=HEXAGON),
         Slot("wills", "cube3", 3, (0, 1, 2)),
         Slot("wills", "cube3", 2, basis=PLANE_123),
         Slot("wills", "cube3", 2, basis=PLANE_112)),
        Slot("wills", "cube3", 2, basis=HEXAGON), 12.0,
    ),
    # high-precision MC where the program has no exact oracle, plus
    # full-space Parseval checks at n = 4 that fail on every run (their
    # Monte-Carlo side is compared at an absolute tolerance of 1e-6)
    Workload(
        "verify-highk",
        (Slot("highk", "had48", 4), Slot("highk", "had48", 6),
         Slot("highk", "had812", 4), Slot("highk", "had812", 5),
         Slot("highk", "cube6", 4), Slot("highk", "cube7", 5),
         Slot("highk", "cube7", 6),
         Slot("parseval", "simplex4", 4, (0, 1, 2, 3), expect_fail=True),
         Slot("parseval", "had24", 4, (0, 1, 2, 3), expect_fail=True)),
        Slot("highk", "had48", 4), 2.0,
    ),
)}


def rounds_for(workload, seconds):
    """Whole rounds that fill `seconds` at this commit's round time."""
    return max(1, round(seconds / workload.round_s))


def _stream(*words):
    return np.random.default_rng([zlib.crc32(str(w).encode()) for w in words])


def _op(slot, rng, n, p_values):
    if slot.coords is not None:
        rows = np.eye(n)[list(slot.coords)]
    elif slot.basis is not None:
        rows = np.array(slot.basis, dtype=float)
    else:
        rows = rng.standard_normal((slot.k, n))
    mc_seed = (PARSEVAL_FULL_SEED if slot.expect_fail
               else int(rng.integers(2 ** 31)))
    if slot.kind != "kp":
        return Op(slot, n, rows, mc_seed)
    p = p_values.get(slot.p, slot.p)
    m = len(SYSTEMS[slot.system][1]())
    return Op(slot, n, rows, mc_seed, float(p), rng.uniform(*ALPHA_RANGE, m))


def generate(workload, seed, rounds, dims):
    """The run's fixed list of inputs: `rounds` rounds drawn from `seed`."""
    rng = _stream(workload.name, seed)
    ops = []
    for _ in range(rounds):
        p_values = {name: rng.uniform(*span)
                    for name, span in P_RANGES.items()}
        ops += [_op(s, rng, dims[s.system], p_values) for s in workload.round]
    return ops


def warmup_op(workload, dims):
    """The fixed warm-up certificate; it does not depend on the seed."""
    slot = workload.warmup
    return _op(slot, _stream(workload.name, "warm-up"), dims[slot.system], {})


# ---------------------------------------------------------------------------
# running a certificate: returns (program verdict ok, outputs)


class Context:
    """The workload's systems, built and validated during set-up."""

    def __init__(self, workload):
        names = {s.system for s in workload.round + (workload.warmup,)}
        self.systems = {}
        self.inputs = {}
        for name in sorted(names):
            system = SYSTEMS[name][0]()
            report = decomp.validate(system)
            if not report.passed:
                raise RuntimeError(f"system {name} fails validation")
            self.systems[name] = system
            self.inputs[name] = json.dumps(system.to_dict())
        self.dims = {name: s.dim for name, s in self.systems.items()}


def _subspace(op):
    return decomp.Subspace(op.n, op.rows)


def _entries(report):
    return [(e["name"], e["value"], e["gate"]["satisfied"])
            for e in report.entries]


def _symmetric(op, ctx, names, samples):
    proj = decomp.project(ctx.systems[op.slot.system], _subspace(op))
    report = bounds.build_report(names, proj=proj, force=True)
    poly = bodies.section_polytope(proj)
    est = oracle.mc_volume(poly, samples, op.mc_seed)
    out = {"bounds": _entries(report), "mc": [est.mean, est.std_error]}
    if op.slot.k <= 3:
        out["exact"] = oracle.exact_volume_smallk(poly)
    return True, out


def _kp(op, ctx):
    ball = bodies.KpBall(ctx.systems[op.slot.system], op.p, op.alphas)
    H = _subspace(op)
    report = bounds.build_report("all", ball=ball, subspace=H)
    est = oracle.mc_kp_section_volume(ball, H, KP_SAMPLES, op.mc_seed)
    return True, {"bounds": _entries(report), "mc": [est.mean, est.std_error]}


def _cli(op, ctx, what, extra=()):
    sub = ({"coordinate": list(op.slot.coords)} if op.slot.coords is not None
           else {"basis": op.rows.tolist()})
    argv = ["verify", what, "--input", ctx.inputs[op.slot.system],
            "--subspace", json.dumps(sub), "--seed", str(op.mc_seed),
            *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code == 0, json.loads(buf.getvalue())


def certify(op, ctx):
    kind = op.kind
    if kind == "sym":
        return _symmetric(op, ctx, "all", SYM_SAMPLES)
    if kind == "highk":
        return _symmetric(op, ctx, list(HIGHK_BOUNDS), HIGHK_SAMPLES)
    if kind == "kp":
        return _kp(op, ctx)
    if kind == "parseval":
        return _cli(op, ctx, "parseval")
    return _cli(op, ctx, "wills", ("--samples", str(WILLS_SAMPLES)))


# ---------------------------------------------------------------------------
# checking a certificate against the benchmark's own references


def _section(op):
    vectors = SYSTEMS[op.slot.system][1]()
    return vectors, ref.orthonormal_basis(op.rows)


def references(op):
    """The benchmark's own reference quantities for one certificate:
    "volume" always; "mean_width" (V_1) and "wills_functional" (the Wills
    functional, k <= 3) where the certificate bounds them."""
    vectors, basis = _section(op)
    if op.kind == "kp":
        if op.p == 1.0:
            rows = ref.l1_halfspaces(vectors, op.alphas, basis)
            return {"volume": ref.Estimate(ref.polytope(rows).volume)}
        if op.p == 2.0:
            return {"volume": ref.Estimate(
                ref.ellipsoid_volume(vectors, op.alphas, basis))}
        return {"volume": ref.lp_volume(vectors, op.alphas, op.p, basis)}
    poly = ref.polytope(ref.symmetric_halfspaces(vectors, basis))
    refs = {"volume": ref.Estimate(poly.volume)}
    if op.kind in ("sym", "highk"):
        refs["mean_width"] = ref.intrinsic_v1(poly)
    if op.kind == "wills" and op.slot.coords is not None:
        refs["wills_functional"] = ref.Estimate(3.0 ** op.slot.k)  # cubes
    elif op.kind in ("sym", "wills") and poly.k <= 3:
        refs["wills_functional"] = ref.wills_value(poly)
    return refs


def bound_reference(name, refs):
    """The reference quantity a named bound is held against."""
    if name in UPPER_VOLUME_BOUNDS or name in LOWER_VOLUME_BOUNDS:
        return refs["volume"]
    return refs[name]


def _bound_checks(entries, refs):
    out = []
    for name, value, gate_ok in entries:
        if not gate_ok:
            continue                  # forced and recorded, not asserted
        target = bound_reference(name, refs)
        if name in LOWER_VOLUME_BOUNDS:
            out.append(checks.lower(name, value, target))
        else:
            out.append(checks.upper(name, value, target))
    return out


def _parseval_checks(op, out, volume):
    if op.slot.k <= 3:
        return [checks.exact("parseval.lhs", out["lhs"], volume.value),
                checks.parseval("parseval.rhs", out["rhs"], out["lhs"],
                                out["gates"]["mc_rhs"])]
    # the lhs is hit-or-miss in the ball of radius sqrt(sum c_j) = sqrt(n),
    # so the identity side is held against the exact volume instead
    env = ref.unit_ball_volume(op.slot.k) * op.n ** (op.slot.k / 2.0)
    sigma = ref.binomial_sigma(volume.value, env, PARSEVAL_FULL_SAMPLES)
    return [checks.within("parseval.lhs", out["lhs"], volume, sigma),
            checks.parseval("parseval.rhs", out["rhs"], volume.value,
                            out["gates"]["mc_rhs"])]


def assess(op, out, refs):
    """Every check of one certificate's outputs against `references(op)`."""
    kind = op.kind
    if kind == "parseval":
        return _parseval_checks(op, out, refs["volume"])
    if kind == "wills":
        wills = refs["wills_functional"]
        return [checks.mc("wills_oracle", out["oracle_mean"],
                          out["oracle_std_error"], wills, WILLS_TARGET),
                checks.upper("wills_functional", out["bound"], wills)]
    target = {"sym": SYM_TARGET, "highk": HIGHK_TARGET, "kp": KP_TARGET}[kind]
    mc_name = "mc_kp_section_volume" if kind == "kp" else "mc_volume"
    result = [checks.mc(mc_name, *out["mc"], refs["volume"], target)]
    if "exact" in out:
        result.append(checks.exact("exact_volume_smallk", out["exact"],
                                   refs["volume"].value))
    return result + _bound_checks(out["bounds"], refs)
