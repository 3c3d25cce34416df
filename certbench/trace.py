"""Per-layer tracing from outside the program.

The layers are slicebound's modules.  `Tracer.install` replaces each layer's
public functions by a timing wrapper at every module attribute that holds
them, which is where callers look them up, and `uninstall` puts the
originals back.  A wrapper keeps calls, total and self time (total minus
the time of wrapped callees) and the counts named in `COUNTERS`, all in
memory.
"""

import inspect
import time
import warnings
from collections import defaultdict

from scipy.integrate import IntegrationWarning

import slicebound
from slicebound import _kernels, bodies, bounds, cli, decomp, oracle, specfun

LAYERS = {"cli": cli, "decomp": decomp, "bodies": bodies, "bounds": bounds,
          "specfun": specfun, "oracle": oracle, "kernels": _kernels}
# The CLI's layer boundary is its entry point: the subcommand handlers are
# reached through a dict, and parsing, loading and emitting count as main.
ENTRY_ONLY = {"cli": ("main",)}
# Not wrapped, so their time stays in the caller's self time: pointwise
# integrand helpers, which run once per quadrature node and would multiply
# the trace overhead, and the input digests of build_report's assembly.
UNWRAPPED = {"indicator_ft", "exp_ft", "gauss_sine_integral", "dist_sq_ft",
             "wills_integrand_A", "inputs_digest"}
# Bound functions are reported under their report names.
BOUND_NAMES = {"bound_volume_via_wills": "wills_volume"}


def _metric_name(layer, fn_name):
    if layer == "bounds" and fn_name.startswith("bound_"):
        fn_name = BOUND_NAMES.get(fn_name, fn_name[len("bound_"):])
    return f"{layer}.{fn_name}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _evals(stat, args, kwargs, result):
    stat["evals"] += result.evaluations


def _samples_at(index):
    def count(stat, args, kwargs, result):
        stat["samples"] += _arg(args, kwargs, index, "samples")
    return count


def _spline_builds(stat, args, kwargs, result):
    p = float(_arg(args, kwargs, 0, "p"))
    if p not in (1.0, 2.0):           # the closed forms build no spline
        stat["builds"] += 1
        stat.setdefault("distinct_p", set()).add(p)


def _sign_terms(stat, args, kwargs, result):
    stat["sign_terms"] += 2 ** len(_arg(args, kwargs, 0, "betas"))


def _count_inside(stat, args, kwargs, result):
    points, normals = args[0], args[1]
    n_pts, dim = points.shape
    n_con = normals.shape[0]
    stat["points"] += n_pts
    # computed from array sizes: the product points @ normals.T, then one
    # comparison per entry; reads of points, normals and offsets, and the
    # dot-product array written and read back plus its boolean mask
    stat["flops_computed"] += n_pts * n_con * (2 * dim + 1)
    stat["bytes_computed"] += (8 * (n_pts * dim + n_con * dim + n_con)
                               + 17 * n_pts * n_con)


def _points(stat, args, kwargs, result):
    stat["points"] += args[0].shape[0]


COUNTERS = {
    "specfun.wills_g": _evals,
    "specfun.sinc_power_integral": _evals,
    "specfun.gamma_p_interpolator": _spline_builds,
    "specfun.sinc_product_integral": _sign_terms,
    "oracle.mc_volume": _samples_at(1),
    "oracle.wills_oracle": _samples_at(1),
    "oracle.mc_kp_section_volume": _samples_at(2),
    "kernels.count_inside": _count_inside,
    "kernels.dykstra_distances": _points,
}


def _targets():
    """(metric name, original function) for every traced function."""
    for layer, module in LAYERS.items():
        names = ENTRY_ONLY.get(layer)
        for attr, value in vars(module).items():
            if (inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_") and attr not in UNWRAPPED
                    and (names is None or attr in names)):
                yield _metric_name(layer, attr), value


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))
        self.quad_warnings = 0
        self.other_warnings = 0
        self._stack = []              # [metric name, child seconds]
        self._patched = []            # (owner, attribute, original)
        self._showwarning = None

    def wrap(self, name, fn):
        stats, stack = self.stats, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = stats[name]
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[1]
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        wrappers = {fn: self.wrap(name, fn) for name, fn in _targets()}
        modules = [slicebound] + list(LAYERS.values())
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        norm = bodies.KpBall.norm
        self._patched.append((bodies.KpBall, "norm", norm))
        bodies.KpBall.norm = self.wrap("bodies.kp_norm", norm)
        warnings.simplefilter("always", IntegrationWarning)
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._on_warning

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        warnings.showwarning = self._showwarning

    def _on_warning(self, message, category, *rest, **kwargs):
        inside_specfun = self._stack and self._stack[-1][0].startswith(
            "specfun.")
        if issubclass(category, IntegrationWarning) and inside_specfun:
            self.quad_warnings += 1
        else:
            self.other_warnings += 1

    def overhead(self, wall_s, calls=100_000):
        """The share of `wall_s` the wrappers added: wrapped calls times one
        wrapper's cost, timed on a function that does nothing."""
        def noop():
            return None

        wrapped = Tracer().wrap("noop", noop)
        costs = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
        total = sum(stat["calls"] for stat in self.stats.values())
        per_call = sorted(costs)[1]
        return {"calls": total, "per_call_s": per_call,
                "share": total * per_call / wall_s}

    def summary(self):
        """Plain-number stats per traced function, derived ratios included."""
        out = {}
        for name, stat in sorted(self.stats.items()):
            row = {k: v for k, v in stat.items() if k != "distinct_p"}
            if "builds" in stat:
                row["builds_per_p"] = stat["builds"] / len(stat["distinct_p"])
            out[name] = row
        out["specfun.quad_warnings"] = {"count": self.quad_warnings}
        out["other_warnings"] = {"count": self.other_warnings}
        return out

