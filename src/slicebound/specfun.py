"""One-dimensional special functions and integrals consumed by the bounds.

Everything here is a pure function.  Quadrature is delegated to
scipy.integrate.quad (adaptive Gauss-Kronrod); truncated tails are either
summed exactly via the Hurwitz zeta function (sinc powers) or bounded
analytically and folded into the error estimate.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import DomainError, GateError


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class WillsIntegrandParams:
    """Parameters of the shifted-Gaussian Fourier integrand: scale alpha > 0
    and exponent p > 1."""

    alpha: float
    p: float

    def __post_init__(self):
        if self.p <= 1:
            raise DomainError(f"p must be > 1, got {self.p}")
        if self.alpha < 0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")


# Above this p the integrand's peak at 0 is too narrow for the quadrature,
# which then returns values near 0 with a near-0 error estimate.
SINC_POWER_MAX_P = 1e5


def sinc_power_integral(p):
    """Integral of |sin(x)/x|^p over the real line, 1 < p <= SINC_POWER_MAX_P.

    Split at multiples of pi; all periods beyond the first are summed in
    closed form through the Hurwitz zeta function, so only two smooth
    finite-interval quadratures remain.
    """
    if p <= 1:
        raise DomainError(f"integral diverges for p <= 1 (got p={p})")
    if p > SINC_POWER_MAX_P:
        raise DomainError(
            f"quadrature unreliable for p > {SINC_POWER_MAX_P:g} (got p={p})")
    evals = [0]

    def head(u):
        evals[0] += 1
        if u == 0.0:
            return 1.0
        return abs(math.sin(u) / u) ** p

    def tail(u):
        # sum over periods k >= 1 of sin(u)^p / (u + k*pi)^p
        evals[0] += 1
        return math.sin(u) ** p * math.pi ** (-p) * special.zeta(p, 1.0 + u / math.pi)

    v1, e1 = integrate.quad(head, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10,
                            limit=400)
    v2, e2 = integrate.quad(tail, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10,
                            limit=400)
    return QuadratureResult(2.0 * (v1 + v2), 2.0 * (e1 + e2), evals[0])


def ball_integral_bound_check(p):
    """Compare the sinc-power integral against sqrt(2)*pi/sqrt(p), p >= 2."""
    if p < 2:
        raise GateError(f"comparison asserted only for p >= 2, got p={p}")
    lhs = sinc_power_integral(p).value
    rhs = math.sqrt(2.0) * math.pi / math.sqrt(p)
    return lhs, rhs, lhs <= rhs + 1e-9


def gamma_p(p, y):
    """Fourier transform of exp(-|x|^p) at y, for p in [1, 2]; real-valued.

    Closed forms at p = 1, at p = 2 and at y = 0 (2 Gamma(1 + 1/p));
    otherwise one cosine-weighted quadrature over [0, cutoff]."""
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"supported range is 1 <= p <= 2, got p={p}")
    if p == 1.0:
        return 2.0 / (1.0 + y * y)
    if p == 2.0:
        return math.sqrt(math.pi) * math.exp(-y * y / 4.0)
    y = float(y)
    if y == 0.0:
        return 2.0 * math.gamma(1.0 + 1.0 / p)
    cutoff = (36.8) ** (1.0 / p)  # exp(-x^p) < 1e-16 beyond
    val, _ = integrate.quad(
        lambda x: math.exp(-x ** p), 0.0, cutoff,
        weight="cos", wvar=y, epsabs=1e-11, limit=400,
    )
    return 2.0 * val


def indicator_ft(c, t):
    """Fourier transform of the indicator of [-c, c]: 2*sin(c*t)/t."""
    if c <= 0:
        raise DomainError(f"half-width must be positive, got {c}")
    ct = c * t
    if abs(ct) < 1e-4:
        ct2 = ct * ct
        # 5-term even Taylor series of sin(ct)/(ct)
        series = 1.0 - ct2 / 6.0 + ct2 ** 2 / 120.0 - ct2 ** 3 / 5040.0 \
            + ct2 ** 4 / 362880.0
        return 2.0 * c * series
    return 2.0 * math.sin(ct) / t


def gauss_sine_integral(s):
    """I(s) = integral_0^inf exp(-pi y^2) sin(y s) dy, odd in s.

    Evaluated through the Dawson function: I(s) = D(s/(2 sqrt(pi)))/sqrt(pi).
    """
    return float(special.dawsn(s / (2.0 * math.sqrt(math.pi)))) / math.sqrt(math.pi)


def dist_sq_ft(alpha, z):
    """Fourier transform of exp(-pi * dist(x, [-alpha, alpha])^2).

    Equals 2 sin(az)/z + cos(az) e^{-z^2/4pi} - 2 sin(az) I(z); the value at
    z = 0 is 2*alpha + 1.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    b = math.cos(alpha * z) * math.exp(-z * z / (4.0 * math.pi))
    if alpha == 0.0:
        return b
    a = indicator_ft(alpha, z)
    c = -2.0 * math.sin(alpha * z) * gauss_sine_integral(z)
    return a + b + c


# Empirical sup of |1 - s I(s)| (1 + s^2); used only for tail envelopes.
_M_SINE_ENVELOPE = 2.2


def wills_g(params):
    """g(alpha) = integral over R of |A_alpha(s)|^p ds.

    The integrand is even; beyond the quadrature window the envelope
    |A_alpha(s)| <= 2 M / s^3 + gaussian is used as a tail bound, added to
    the error estimate.
    """
    p = params.p
    alpha = params.alpha
    evals = [0]

    def f(s):
        evals[0] += 1
        return abs(dist_sq_ft(alpha, s)) ** p

    cut1, cut2 = 40.0, 2000.0
    v1, e1 = integrate.quad(f, 0.0, cut1, epsabs=1e-11, epsrel=1e-12,
                            limit=400)
    v2, e2 = integrate.quad(f, cut1, cut2, epsabs=1e-11, epsrel=1e-10,
                            limit=2000)
    env = 2.0 * _M_SINE_ENVELOPE
    # integral of (env/s^3)^p beyond cut2
    tail = env ** p * cut2 ** (1.0 - 3.0 * p) / (3.0 * p - 1.0)
    value = 2.0 * (v1 + v2)
    return QuadratureResult(value, 2.0 * (e1 + e2) + 2.0 * tail, evals[0])


def sinc_product_integral(betas, q):
    """integral_0^inf prod_j sin(beta_j r) / r^q dr, exact tail.

    Splits at Y: the head is a short Gauss-Legendre rule (the integrand is
    entire), and the tail is summed in closed form by expanding the sine
    product over sign patterns and integrating each exponential term through
    the Si/Ci recursion.  Requires q >= 1 and len(betas) >= q (convergence);
    a zero combined frequency at q = 1 is divergent and raises.
    """
    import itertools

    betas = np.asarray(betas, dtype=float).ravel()
    m = betas.size
    if q < 1 or m < q:
        raise DomainError(f"need 1 <= q <= len(betas), got q={q}, m={m}")
    sign = 1.0
    for b in betas:
        if b < 0:
            sign = -sign
    betas = np.abs(betas)
    if np.any(betas == 0.0):
        return 0.0
    gamma_max = float(betas.sum())
    y_cut = 4.0 / gamma_max

    nodes, wts = np.polynomial.legendre.leggauss(48)
    r = 0.5 * y_cut * (nodes + 1.0)
    vals = np.prod(np.sin(np.outer(r, betas)), axis=1) / r ** q
    head = 0.5 * y_cut * float(wts @ vals)

    def t_tail(gamma, qq):
        # integral_Y^inf e^(i gamma y) y^(-qq) dy
        if gamma == 0.0:
            if qq == 1:
                raise DomainError("divergent zero-frequency term at q = 1")
            return complex(y_cut ** (1 - qq) / (qq - 1))
        conj = gamma < 0
        g = abs(gamma)
        si, ci = special.sici(g * y_cut)
        t = complex(-ci, math.pi / 2.0 - si)
        for j in range(2, qq + 1):
            t = (np.exp(1j * g * y_cut) * y_cut ** (1 - j)
                 + 1j * g * t) / (j - 1)
        return np.conj(t) if conj else t

    pref = (2j) ** (-m)
    acc = 0j
    for eps in itertools.product((1.0, -1.0), repeat=m):
        g = float(np.dot(eps, betas))
        acc += np.prod(eps) * t_tail(g, q)
    tail = float((pref * acc).real)
    return sign * (head + tail)
