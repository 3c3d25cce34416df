"""One-dimensional special functions and integrals consumed by the bounds
and the Parseval oracle.

Everything here is a pure function.  Ball's sinc-power integral I_p and the
Wills factor wills_g share one fixed-rule panel integrator, _panel_sum: an
8- and a 16-point Gauss-Jacobi rule on each panel, whose weight absorbs the
|s - z|^p behaviour of the integrand at each end z that is a zero, and
whose nodes and weights _panel_rules builds once per exponent p.  The
sine-product integrals use a fixed Gauss-Legendre head and an exact Si/Ci
tail, evaluated for a batch of rows at once by _sinc_product_integrals,
whose one caller is the Parseval oracle.  Only gamma_p still calls
scipy.integrate.quad (adaptive Gauss-Kronrod with a cosine weight).
Truncated tails are summed exactly (the Hurwitz zeta function for sinc
powers, Si/Ci for sine products) or bounded analytically and folded into
the error estimate.
"""

import functools
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


# sinc_power_integral's domain: at this p it meets the Laplace form
# sqrt(6 pi/p)(1 - 3/(20p)) to 1e-9, and beyond it the bounds take Ball's
# inequality I_p <= sqrt(2) pi/sqrt(p) instead.
SINC_POWER_MAX_P = 1e5


def _sinc_power(p):
    """u -> (sin(u)/u)^p on (0, pi), as exp(p log1p((sin u - u)/u)) with
    sin u - u from its Taylor series below 1, where the difference cancels:
    the exponent then keeps a relative error of a few ulps at any p."""
    # coefficients of sin u - u in u^3, u^5, ..., u^19, highest first
    series = [(-1.0) ** k / math.factorial(2 * k + 1) for k in range(9, 0, -1)]

    def integrand(u):
        small = np.minimum(u, 1.0)
        diff = np.where(u < 1.0,
                        np.polyval(series, small * small) * small ** 3,
                        np.sin(u) - u)
        return np.exp(p * np.log1p(diff / u))
    return integrand


def sinc_power_integral(p):
    """Integral of |sin(x)/x|^p over the real line, 1 < p <= SINC_POWER_MAX_P.

    Split at multiples of pi, the half-integral is
        int_0^pi (sin u/u)^p du + pi^-p int_0^pi sin(u)^p zeta(p, 1 + u/pi) du,
    all periods beyond the first summed by the Hurwitz zeta function.
    _panel_sum integrates the head on dyadic panels [pi 2^-j-1, pi 2^-j]
    down to below 2/sqrt(p), which resolves the peak of width ~sqrt(6/p) at
    0; the last panel ends at the zero pi.  The tail is one panel, a half
    period of sin, whose rule carries sin(u)^p in its weights.
    """
    if p <= 1:
        raise DomainError(f"integral diverges for p <= 1 (got p={p})")
    if p > SINC_POWER_MAX_P:
        raise DomainError(
            f"quadrature unreliable for p > {SINC_POWER_MAX_P:g} (got p={p})")
    halvings = max(2, math.ceil(math.log2(math.pi * math.sqrt(p) / 2.0)))
    edges = np.r_[0.0, math.pi * 2.0 ** -np.arange(halvings, -1, -1.0)]
    kind = np.zeros(halvings + 1, dtype=int)
    kind[-1] = 2
    head = _panel_sum(_sinc_power(p), edges[:-1], edges[1:], kind, p)
    # [0, pi] is a half period of sin: kind 4 carries sin(u)^p
    tail = _panel_sum(
        lambda u: math.pi ** -p * special.zeta(p, 1.0 + u / math.pi),
        np.array([0.0]), np.array([math.pi]), np.array([4]), p)
    return QuadratureResult(2.0 * (head[0] + tail[0]),
                            2.0 * (head[1] + tail[1]), head[2] + tail[2])


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
    # at the default epsrel QUADPACK accepts a 15-point estimate at isolated
    # y that is off by up to 6.4e-7 relative
    val, _ = integrate.quad(
        lambda x: math.exp(-x ** p), 0.0, cutoff,
        weight="cos", wvar=y, epsabs=1e-11, epsrel=1e-10, limit=400,
    )
    return 2.0 * val


def indicator_ft(c, t):
    """Fourier transform of the indicator of [-c, c]: 2*sin(c*t)/t.

    t may be a scalar or an array; the value at t = 0 is 2c.  Its sin(ct)
    is bit-identical to dist_sq_ft's, so that their terms cancel
    consistently near the zeros of A_alpha."""
    if c <= 0:
        raise DomainError(f"half-width must be positive, got {c}")
    t = np.asarray(t, dtype=float)
    return 2.0 * np.divide(np.sin(c * t), t, out=np.full_like(t, c),
                           where=t != 0.0)


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


# _panel_sum's two rule orders; the value is the larger one's sum
_PANEL_SIZES = (8, 16)
# Gauss-Legendre rules of _PANEL_SIZES on [-1, 1], which depend on no p
_LEGENDRE = {n: special.roots_legendre(n) for n in _PANEL_SIZES}
# roots_jacobi overflows from p near 511 on (its weights carry 2^(2p+1)).
# Above this p a zero end of a panel takes the Legendre rule instead: |A|^p
# is then C^400 there, and |16-point - 8-point| still measures the panel.
# sinc_power_integral, the one caller above WILLS_G_MAX_P, has below 1e-77
# of I_p on such panels there.
_JACOBI_MAX_P = 400.0
# panels per vectorised pass of _panel_sum: bounds its memory
_PANEL_PASS = 4096
# _panel_sum's allowance for rounding, relative to the value: 32 ulps cover
# a few ulps in each node's integrand and the pairwise sums over the nodes,
# where two converged rule orders can agree more closely than either does
# with the integral
_PANEL_ROUNDING = 32.0 * np.finfo(float).eps


def _gauss_jacobi_rules(n, p):
    """n-point rules on [-1, 1] for |A|^p on a panel, indexed by kind:
    which ends are zeros of A, 0 neither, 1 left, 2 right, 3 both; and 4 for
    a panel that is a half period of A = sin(.) h, applied to |h|^p alone.

    A zero end carries the Jacobi weight (1 -+ x)^p.  Each weight is divided
    by its rule's weight function at the node, so every rule is applied to
    |A|^p itself; kind 4 is kind 3 with sin(pi (1 + x)/2)^p folded into its
    weights.  Above _JACOBI_MAX_P kinds 0-3 are the Legendre rule."""
    x0, w0 = _LEGENDRE[n]
    if p > _JACOBI_MAX_P:
        x1, w1, x3, w3 = x0, w0, x0, w0
    else:
        x1, w1 = special.roots_jacobi(n, 0.0, p)
        x3, w3 = special.roots_jacobi(n, p, p)
        w1 = w1 / (1.0 + x1) ** p
        w3 = w3 / ((1.0 - x3) * (1.0 + x3)) ** p
    # sin(pi (1 + x)/2) = sin(pi (1 - |x|)/2), exact in 1 - |x| near the ends
    w4 = w3 * np.sin(0.5 * math.pi * (1.0 - np.abs(x3))) ** p
    return (np.stack([x0, x1, -x1[::-1], x3, x3]),
            np.stack([w0, w1, w1[::-1], w3, w4]))


@functools.lru_cache(maxsize=64)
def _panel_rules(p):
    """Nodes and weights of shape (5, 24) for exponent p: the 8-point rules
    of _gauss_jacobi_rules in the first 8 columns, the 16-point ones in the
    rest, rows indexed by panel kind.  Cached per p and read-only."""
    rules = [_gauss_jacobi_rules(n, p) for n in _PANEL_SIZES]
    x = np.hstack([r[0] for r in rules])
    w = np.hstack([r[1] for r in rules])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_sum(integrand, lo, hi, kind, p):
    """Sum over the panels [lo[i], hi[i]] of integrand's integral by
    _panel_rules(p)[kind[i]]: the 16-point value, an error estimate (the
    sum of |16-point - 8-point| over the panels plus _PANEL_ROUNDING times
    the value), and the number of nodes.

    integrand maps an array of nodes to non-negative values: |A|^p for a
    rule whose zero ends are zeros of A, |h|^p for kind 4."""
    x, w = _panel_rules(p)
    n_lo = _PANEL_SIZES[0]
    value = err = 0.0
    for start in range(0, kind.size, _PANEL_PASS):
        part = slice(start, start + _PANEL_PASS)
        k = kind[part]
        half = 0.5 * (hi[part] - lo[part])
        s = (lo[part] + half)[:, None] + half[:, None] * x[k]
        q = half[:, None] * w[k] * integrand(s)
        q_lo, q_hi = q[:, :n_lo].sum(axis=1), q[:, n_lo:].sum(axis=1)
        value += q_hi.sum()
        err += np.abs(q_hi - q_lo).sum()
    return (float(value), float(err + _PANEL_ROUNDING * value),
            kind.size * x.shape[1])


def _dist_sq_ft_and_slope(alpha, z):
    """dist_sq_ft(alpha, z) and its derivative in z, for z != 0, through the
    closed form I'(s) = (1 - s I(s)) / (2 pi) of gauss_sine_integral's
    derivative."""
    z = np.asarray(z, dtype=float)
    sin, cos = np.sin(alpha * z), np.cos(alpha * z)
    i = gauss_sine_integral(z)
    gauss = np.exp(-z * z / (4.0 * math.pi))
    value = 2.0 * sin * (1.0 / z - i) + cos * gauss
    slope = (2.0 * (alpha * cos * z - sin) / (z * z)
             - (alpha * sin + cos * z / (2.0 * math.pi)) * gauss
             - 2.0 * alpha * cos * i - sin * (1.0 - z * i) / math.pi)
    return value, slope


def _dist_sq_ft_zeros(alpha, s_sine, cut):
    """Zeros of A_alpha = dist_sq_ft(alpha, .) on (0, cut), and the number
    of evaluations spent finding them.

    From s_sine on, A_alpha(s) = 2 sin(alpha s)(1 - s I(s))/s to double
    precision with 1 - s I(s) < 0, so the zeros are the multiples of
    pi/alpha.  Below s_sine, sign changes on a grid finer than an eighth of
    pi/alpha are narrowed together by 4 bisections, then refined by 3
    Newton steps from the midpoint, each clipped to the bracket.
    """
    if alpha == 0.0:
        return np.empty(0), 0          # A_0 is a Gaussian
    grid = np.linspace(0.0, s_sine, int(math.ceil(
        s_sine * max(10.0, 8.0 * alpha / math.pi))) + 1)
    f = dist_sq_ft(alpha, grid)
    i = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    lo, hi, flo = grid[i], grid[i + 1], f[i]
    bisections, newton = (4, 3) if i.size else (0, 0)
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        fmid = dist_sq_ft(alpha, mid)
        left = np.signbit(fmid) == np.signbit(flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    near = 0.5 * (lo + hi)
    for _ in range(newton):
        f, slope = _dist_sq_ft_and_slope(alpha, near)
        step = np.divide(f, slope, out=np.zeros_like(near),
                         where=slope != 0.0)
        near = np.clip(near - step, lo, hi)
    far = np.arange(math.ceil(s_sine * alpha / math.pi),
                    math.ceil(cut * alpha / math.pi)) * (math.pi / alpha)
    zeros = np.concatenate([near, far[far < cut]])
    return zeros, grid.size + (bisections + newton) * i.size


# Above this p, g(alpha) grows like (1 + 2 alpha)^p / sqrt(p), which leaves
# the floating-point range from p = 296 at alpha = 5, and the peak of
# |A_alpha|^p at 0 narrows to a small part of the first panel (g's error
# estimate is 5e-4 relative at alpha = 0 and p = 100).
# bound_wills_functional bounds g beyond it through g at this p.
WILLS_G_MAX_P = 100.0


def wills_g(params):
    """g(alpha) = integral over R of |A_alpha(s)|^p ds, A_alpha = dist_sq_ft,
    for p <= WILLS_G_MAX_P.

    The integrand is even.  The window (0, 2000) is split at the zeros of
    A_alpha and at fixed steps, 2.5 apart up to 25 and geometric (ratio
    below 2) beyond, which grade the stretches where A_alpha does not
    oscillate (alpha = 0, or sin(alpha s) without a zero below 2000).  A step
    nearer to a zero than to its neighbouring steps is dropped.  _panel_sum
    integrates every panel with an 8- and a 16-point Gauss-Jacobi rule whose
    weight |s - z|^p absorbs |A_alpha|^p's non-analytic behaviour at each
    end z that is a zero (Legendre where neither end is).  From 25 on,
    A_alpha is 2 sin(alpha s)(1 - s I(s))/s up to a Gaussian term below
    4e-19 of its envelope, so a panel between two zeros is a half period of
    sin(alpha s): its rule carries |sin|^p in its weights, and only
    |2 (1 - s I(s))/s|^p is evaluated at its nodes.

    The value and error estimate are _panel_sum's, the estimate plus the
    tail beyond the window bounded through
    |A_alpha(s)| <= 2 _M_SINE_ENVELOPE / s^3.  `evaluations` counts
    every point at which A_alpha was evaluated, the zero search included.
    """
    p, alpha = params.p, params.alpha
    if p > WILLS_G_MAX_P:
        raise DomainError(
            f"g overflows for p > {WILLS_G_MAX_P:g} (got p={p})")
    cut, s_sine = 2000.0, 25.0
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
    lo, hi = edges[:-1], edges[1:]
    at_zero = np.isin(edges, zeros)
    kind = at_zero[:-1] + 2 * at_zero[1:]
    # from s_sine on, a panel between two zeros is a half period of
    # sin(alpha s): kind 4 folds |sin(alpha s)|^p into the weights
    fold = (kind == 3) & (lo >= s_sine)
    kind[fold] = 4

    def full(s):
        return np.abs(dist_sq_ft(alpha, s)) ** p

    def envelope(s):
        return np.abs(2.0 * (1.0 - s * gauss_sine_integral(s)) / s) ** p

    value = err = 0.0
    for integrand, part in ((full, ~fold), (envelope, fold)):
        v, dv, n = _panel_sum(integrand, lo[part], hi[part], kind[part], p)
        value, err, evals = value + v, err + dv, evals + n
    # integral of (env/s^3)^p beyond the window, env = 2 _M_SINE_ENVELOPE
    tail = cut * (2.0 * _M_SINE_ENVELOPE / cut ** 3) ** p / (3.0 * p - 1.0)
    return QuadratureResult(2.0 * value, 2.0 * (err + tail), evals)


# 48-point Gauss-Legendre rule on [-1, 1] for _sinc_product_integrals' head
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
