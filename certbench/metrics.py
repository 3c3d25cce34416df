"""Metric names, units and better directions; BENCHMARK.json lists the same.

Standard library only: the launcher, run.py, imports this without numpy.
"""

END_TO_END = (
    ("certs_per_s", "1/s", "higher"),
    ("cert_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_BOUNDS = ("symmetric_case1", "symmetric_case1_coarse", "ab_old",
           "wills_volume", "wills_functional", "mean_width", "k1_upper",
           "k1_intermediate", "k1_lower", "kp_upper", "kp_lower")

# "<layer>.<function>.<field>"; `kernels` is the `_kernels` module.
PER_LAYER = (
    ("specfun.wills_g.self_s", "s"),
    ("specfun.wills_g.calls", "count"),
    ("specfun.wills_g.evals", "count"),
    ("specfun.gamma_p_interpolator.self_s", "s"),
    ("specfun.gamma_p_interpolator.calls", "count"),
    ("specfun.gamma_p_interpolator.builds_per_p", "ratio"),
    ("specfun.gamma_p.self_s", "s"),
    ("specfun.gamma_p.calls", "count"),
    ("specfun.sinc_product_integral.self_s", "s"),
    ("specfun.sinc_product_integral.calls", "count"),
    ("specfun.sinc_product_integral.sign_terms", "count"),
    ("oracle.parseval_check.self_s", "s"),
    ("oracle.mc_volume.self_s", "s"),
    ("oracle.mc_volume.samples", "count"),
    ("kernels.count_inside.self_s", "s"),
    ("kernels.count_inside.points", "count"),
    ("kernels.count_inside.flops_computed", "flop"),
    ("kernels.count_inside.bytes_computed", "B"),
    ("oracle.wills_oracle.self_s", "s"),
    ("oracle.wills_oracle.samples", "count"),
    ("kernels.dykstra_distances.self_s", "s"),
    ("kernels.dykstra_distances.points", "count"),
    ("oracle.mc_kp_section_volume.self_s", "s"),
    ("oracle.mc_kp_section_volume.samples", "count"),
    ("bodies.kp_norm.self_s", "s"),
    ("specfun.sinc_power_integral.self_s", "s"),
    ("specfun.sinc_power_integral.evals", "count"),
    ("oracle.exact_volume_smallk.self_s", "s"),
    ("oracle.exact_volume_smallk.calls", "count"),
    *((f"bounds.{name}.self_s", "s") for name in _BOUNDS),
    ("bounds.build_report.self_s", "s"),
    ("decomp.project.self_s", "s"),
    ("decomp.lift.self_s", "s"),
    ("bodies.section_polytope.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("specfun.quad_warnings", "count"),
    ("trace.overhead.share", "ratio"),
)


def layer_values(summary):
    """Every PER_LAYER metric from a trace summary; a function that never
    ran reads 0."""
    values = {}
    for metric, _ in PER_LAYER:
        fn, field = metric.rsplit(".", 1)
        if metric == "specfun.quad_warnings":
            fn, field = metric, "count"
        values[metric] = summary.get(fn, {}).get(field, 0)
    return values
