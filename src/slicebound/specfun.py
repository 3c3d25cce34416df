"""One-dimensional special functions and integrals consumed by the bounds.

Everything here is a pure function.  The Wills factor wills_g uses fixed
Gauss-Jacobi rules on panels between the zeros of its integrand.  The
sine-product integrals use a fixed Gauss-Legendre head and an exact Si/Ci
tail, evaluated for a batch of rows at once by _sinc_product_integrals;
sinc_product_integral is its one-row case.  The other quadratures are
delegated to scipy.integrate.quad (adaptive Gauss-Kronrod).  Truncated tails
are summed exactly (the Hurwitz zeta function for sinc powers, Si/Ci for sine
products) or bounded analytically and folded into the error estimate.
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
    """Fourier transform of the indicator of [-c, c]: 2*sin(c*t)/t.

    t may be a scalar or an array; the value at t = 0 is 2c."""
    if c <= 0:
        raise DomainError(f"half-width must be positive, got {c}")
    return 2.0 * c * np.sinc(c * np.asarray(t, dtype=float) / math.pi)


def gauss_sine_integral(s):
    """I(s) = integral_0^inf exp(-pi y^2) sin(y s) dy, odd in s.

    Evaluated through the Dawson function: I(s) = D(s/(2 sqrt(pi)))/sqrt(pi).
    s may be a scalar or an array.
    """
    return special.dawsn(np.asarray(s, dtype=float)
                         / (2.0 * math.sqrt(math.pi))) / math.sqrt(math.pi)


def dist_sq_ft(alpha, z):
    """Fourier transform of exp(-pi * dist(x, [-alpha, alpha])^2).

    Equals 2 sin(az)/z + cos(az) e^{-z^2/4pi} - 2 sin(az) I(z); the value at
    z = 0 is 2*alpha + 1.  z may be a scalar or an array.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    z = np.asarray(z, dtype=float)
    b = np.cos(alpha * z) * np.exp(-z * z / (4.0 * math.pi))
    if alpha == 0.0:
        return b
    a = indicator_ft(alpha, z)
    c = -2.0 * np.sin(alpha * z) * gauss_sine_integral(z)
    return a + b + c


# Bound on |1 - s I(s)| s^2 for s >= 2000, the end of wills_g's window.
# With x = s/(2 sqrt(pi)), s I(s) = 2x D(x) for Dawson's function D, and
# D(x) = int_0^x exp(u^2 - 2xu) du.  Expanding exp(u^2) = 1 + u^2 + u^4/2 + R
# with 0 <= R <= u^6 exp(u^2)/6, and using u^2 - 2xu <= -xu on [0, x],
# D(x) = 1/(2x) + 1/(4x^3) + 3/(8x^5) + r with 0 <= r <= 120/x^7, up to a
# term below exp(-2x^2).  Hence
#     |1 - s I(s)| s^2 <= 2 pi + 12 pi^2/s^2 + 15360 pi^3/s^4,
# which is 6.283215 at s = 2000 and tends to 2 pi.  The margin to 6.3 also
# covers the Gaussian term of A_alpha, s^3 exp(-s^2/4pi) < 1e-100 there.
_M_SINE_ENVELOPE = 6.3


def _gauss_jacobi_rules(n, p):
    """n-point rules on [-1, 1] for |A|^p on a panel, indexed by which ends
    are zeros of A: 0 neither, 1 left, 2 right, 3 both.

    A zero end carries the Jacobi weight (1 -+ x)^p.  Each weight is divided
    by its rule's weight function at the node, so every rule is applied to
    |A|^p itself."""
    x0, w0 = special.roots_legendre(n)
    x1, w1 = special.roots_jacobi(n, 0.0, p)
    x3, w3 = special.roots_jacobi(n, p, p)
    w1 = w1 / (1.0 + x1) ** p
    w3 = w3 / ((1.0 - x3) * (1.0 + x3)) ** p
    return (np.stack([x0, x1, -x1[::-1], x3]),
            np.stack([w0, w1, w1[::-1], w3]))


def _dist_sq_ft_zeros(alpha, s_sine, cut):
    """Zeros of A_alpha = dist_sq_ft(alpha, .) on (0, cut), and the number
    of evaluations spent finding them.

    From s_sine on, A_alpha(s) = 2 sin(alpha s)(1 - s I(s))/s to double
    precision with 1 - s I(s) < 0, so the zeros are the multiples of
    pi/alpha.  Below s_sine, sign changes on a grid finer than an eighth of
    pi/alpha are refined together by bisection and a final secant step.
    """
    if alpha == 0.0:
        return np.empty(0), 0          # A_0 is a Gaussian
    grid = np.linspace(0.0, s_sine, int(math.ceil(
        s_sine * max(10.0, 8.0 * alpha / math.pi))) + 1)
    f = dist_sq_ft(alpha, grid)
    i = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    lo, hi, flo, fhi = grid[i], grid[i + 1], f[i], f[i + 1]
    steps = 20 if i.size else 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = dist_sq_ft(alpha, mid)
        left = np.signbit(fmid) == np.signbit(flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fmid, flo)
        hi, fhi = np.where(left, hi, mid), np.where(left, fhi, fmid)
    near = lo - flo * (hi - lo) / (fhi - flo)
    far = np.arange(math.ceil(s_sine * alpha / math.pi),
                    math.ceil(cut * alpha / math.pi)) * (math.pi / alpha)
    zeros = np.concatenate([near, far[far < cut]])
    return zeros, grid.size + steps * i.size


def wills_g(params):
    """g(alpha) = integral over R of |A_alpha(s)|^p ds, A_alpha = dist_sq_ft.

    The integrand is even.  The window (0, 2000) is split at the zeros of
    A_alpha and at fixed steps, 2.5 apart up to 25 and geometric (ratio
    below 2) beyond, which grade the stretches where A_alpha does not
    oscillate (alpha = 0, or sin(alpha s) without a zero below 2000).  A step
    nearer to a zero than to its neighbouring steps is dropped.  Every panel
    is integrated in one vectorised pass by an 8- and a 16-point
    Gauss-Jacobi rule whose weight |s - z|^p absorbs |A_alpha|^p's
    non-analytic behaviour at each end z that is a zero (Legendre where
    neither end is).

    The value is the 16-point sum.  The error estimate is the sum over
    panels of |16-point - 8-point|, plus the tail beyond the window bounded
    through |A_alpha(s)| <= 2 _M_SINE_ENVELOPE / s^3.  `evaluations` counts
    every point at which A_alpha was evaluated, the zero search included.
    """
    p, alpha = params.p, params.alpha
    cut, s_sine, n_lo, n_hi = 2000.0, 25.0, 8, 16
    zeros, evals = _dist_sq_ft_zeros(alpha, s_sine, cut)
    steps = np.union1d(np.linspace(0.0, s_sine, 11),
                       np.geomspace(s_sine, cut, 8))
    if zeros.size:
        # Drop an inner step nearer to a zero than to its neighbouring
        # steps: the panel beside it would stop just short of the zero.
        gap = np.minimum(np.diff(steps, prepend=-np.inf),
                         np.diff(steps, append=np.inf))
        j = np.searchsorted(zeros, steps)
        near = np.minimum(
            np.abs(steps - zeros[np.maximum(j - 1, 0)]),
            np.abs(steps - zeros[np.minimum(j, zeros.size - 1)]))
        steps = steps[(near >= gap) | (steps == 0.0) | (steps == cut)]
    edges = np.union1d(steps, zeros)
    at_zero = np.isin(edges, zeros)
    kind = at_zero[:-1] + 2 * at_zero[1:]
    rules = [_gauss_jacobi_rules(n, p) for n in (n_lo, n_hi)]
    x = np.hstack([r[0] for r in rules])
    w = np.hstack([r[1] for r in rules])
    value = err = 0.0
    # 4,096 panels per pass bounds the memory for large alpha
    for start in range(0, kind.size, 4096):
        part = slice(start, start + 4096)
        a, k = edges[:-1][part], kind[part]
        half = 0.5 * (edges[1:][part] - a)
        s = (a + half)[:, None] + half[:, None] * x[k]
        q = half[:, None] * w[k] * np.abs(dist_sq_ft(alpha, s)) ** p
        q_lo, q_hi = q[:, :n_lo].sum(axis=1), q[:, n_lo:].sum(axis=1)
        value += q_hi.sum()
        err += np.abs(q_hi - q_lo).sum()
        evals += s.size
    env = 2.0 * _M_SINE_ENVELOPE
    # integral of (env/s^3)^p beyond the window
    tail = env ** p * cut ** (1.0 - 3.0 * p) / (3.0 * p - 1.0)
    return QuadratureResult(float(2.0 * value), float(2.0 * (err + tail)),
                            evals)


# 48-point Gauss-Legendre rule on [-1, 1] for sinc_product_integral's head
_HEAD_X, _HEAD_W = np.polynomial.legendre.leggauss(48)
# complex values per pass of _sinc_product_integrals: bounds its memory
_SINC_PASS = 1 << 16


def _sinc_product_integrals(betas, q):
    """integral_0^inf prod_j sin(beta_j r) / r^q dr for each row of betas.

    betas has shape (B, m) and q is shared by the rows; returns shape (B,).
    Each row splits at Y = 4 / sum_j |beta_j|: the head is the 48-point
    Gauss-Legendre rule on [0, Y] (the integrand is entire), and the tail is
    exact: the sine product expands over the 2^m sign patterns eps into
    exponentials exp(i (eps . beta) r), each integrated over [Y, inf)
    through Si/Ci and the recursion in the power of r.  A row with a zero
    beta is 0.  A row with a zero combined frequency eps . beta at q = 1
    diverges and comes back NaN.  Rows are processed in passes of at most
    _SINC_PASS values of the (rows, 2^m) frequency array or the
    (rows, 48, m) head array, so that large m cannot inflate the memory.
    Requires q >= 1 and m >= q (convergence).
    """
    betas = np.asarray(betas, dtype=float)
    m = betas.shape[1]
    if q < 1 or m < q:
        raise DomainError(f"need 1 <= q <= len(betas), got q={q}, m={m}")
    # sign patterns in itertools.product((1, -1), repeat=m) order
    eps = 1.0 - 2.0 * ((np.arange(2 ** m)[:, None]
                        >> np.arange(m - 1, -1, -1)) & 1)
    parity = np.prod(eps, axis=1)
    pref = (2j) ** (-m)
    out = np.empty(len(betas))
    rows = max(1, _SINC_PASS // max(2 ** m, _HEAD_X.size * m))
    for start in range(0, len(betas), rows):
        part = slice(start, start + rows)
        sign = np.prod(np.sign(betas[part]), axis=1)
        b = np.abs(betas[part])
        total = b.sum(axis=1)
        y = 4.0 / np.where(total > 0.0, total, 1.0)
        r = 0.5 * y[:, None] * (_HEAD_X + 1.0)
        vals = np.prod(np.sin(r[:, :, None] * b[:, None, :]), axis=2) / r ** q
        head = 0.5 * y * (vals @ _HEAD_W)

        # integral_Y^inf e^(i gamma r) r^(-q) dr, gamma = eps . beta; for
        # gamma < 0 the conjugate of the value at |gamma|
        gam = b @ eps.T
        g = np.abs(gam)
        y_col = y[:, None]
        zero = g == 0.0
        si, ci = special.sici(np.where(zero, 1.0, g) * y_col)
        t = -ci + 1j * (math.pi / 2.0 - si)
        e = np.exp(1j * g * y_col)
        for j in range(2, q + 1):
            t = (e * y_col ** (1 - j) + 1j * g * t) / (j - 1)
        t = np.where(gam < 0.0, np.conj(t), t)
        if q > 1:                       # at q = 1 a zero frequency diverges
            t = np.where(zero, y_col ** (1 - q) / (q - 1), t)
        tail = (pref * (t @ parity)).real
        divergent = (q == 1) & zero.any(axis=1) & (sign != 0.0)
        out[part] = np.where(divergent, np.nan, sign * (head + tail))
    return out


def sinc_product_integral(betas, q):
    """integral_0^inf prod_j sin(beta_j r) / r^q dr, exact tail.

    The one-row case of _sinc_product_integrals, which describes the
    method.  Requires q >= 1 and len(betas) >= q (convergence); a zero
    combined frequency at q = 1 is divergent and raises.
    """
    value = _sinc_product_integrals(
        np.asarray(betas, dtype=float).reshape(1, -1), q)[0]
    if math.isnan(value):
        raise DomainError("divergent zero-frequency term at q = 1")
    return float(value)
