"""Pass/fail checks of program outputs against reference quantities.

Each check is a pure function of numbers, so the self-test can hand it a
corrupted value and require a failure.
"""

import math
from dataclasses import dataclass

Z = 5.0                  # sigmas allowed between an estimate and its reference
EXACT_REL = 1e-9         # exact_volume_smallk against Qhull
PARSEVAL_ABS = 1e-8      # the identity's quadrature accuracy (no MC side)
PARSEVAL_MC_REL = 0.02   # the d = 3 sphere-grid average
ROUND_REL = 1e-12        # floating-point slack where a bound is sharp


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _fmt(x):
    return f"{x:.10g}"


def upper(name, value, ref):
    """An upper bound must be at least the reference (minus z sigma)."""
    floor = ref.value - Z * ref.sigma - ROUND_REL * abs(ref.value)
    return Check(name, value >= floor,
                 f"upper {_fmt(value)} vs reference {_fmt(ref.value)}"
                 f" +- {_fmt(ref.sigma)}")


def lower(name, value, ref):
    """A lower bound must be at most the reference (plus z sigma)."""
    ceiling = ref.value + Z * ref.sigma + ROUND_REL * abs(ref.value)
    return Check(name, value <= ceiling,
                 f"lower {_fmt(value)} vs reference {_fmt(ref.value)}"
                 f" +- {_fmt(ref.sigma)}")


def within(name, value, ref, sigma):
    """An estimate with standard error `sigma` within z combined sigmas."""
    total = math.hypot(sigma, ref.sigma)
    return Check(name, abs(value - ref.value) <= Z * total,
                 f"{_fmt(value)} +- {_fmt(sigma)} vs {_fmt(ref.value)}"
                 f" +- {_fmt(ref.sigma)}")


def mc(name, mean, std_error, ref, target):
    """A Monte-Carlo estimate: within z sigma and at its error target."""
    near = within(name, mean, ref, std_error)
    rel = std_error / ref.value
    return Check(name, near.ok and 0.0 < rel <= target,
                 f"{near.detail}; relative error {rel:.4g} (target {target})")


def exact(name, value, ref_value):
    """Two exact computations of one number agree to EXACT_REL."""
    rel = abs(value - ref_value) / abs(ref_value)
    return Check(name, rel <= EXACT_REL,
                 f"{_fmt(value)} vs {_fmt(ref_value)} (relative {rel:.3g})")


def parseval(name, rhs, volume, mc_rhs):
    """The identity side against the exact volume, at the method's own
    accuracy: quadrature to PARSEVAL_ABS, the sphere grid to 2 %."""
    diff = abs(rhs - volume)
    limit = PARSEVAL_MC_REL * volume if mc_rhs else PARSEVAL_ABS
    return Check(name, diff <= limit,
                 f"rhs {_fmt(rhs)} vs volume {_fmt(volume)} "
                 f"(difference {diff:.3g}, limit {limit:.3g})")
