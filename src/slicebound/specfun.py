"""One-dimensional special functions and integrals consumed by the bounds
and the Parseval oracle.

Everything here is a pure function.  Ball's sinc-power integral I_p and the
Wills factor wills_g share one fixed-rule panel integrator, _panel_sum: an
8- and a 16-point Gauss-Jacobi rule on each panel, whose weight absorbs the
|s - z|^p behaviour of the integrand at each end z that is a zero, and
whose nodes and weights _panel_rules builds once per exponent p.  The
sine-product integrals use a fixed Gauss-Legendre head and an exact Si/Ci
tail, evaluated for a batch of rows at once by _sinc_product_integrals,
whose one caller is the Parseval oracle.  gamma_p takes a power series,
Zolotarev's integral on fixed Gauss-Legendre panels or an asymptotic
series, chosen by p and y alone, for a whole array at once.  Nothing here
calls an adaptive quadrature.  Truncated tails are summed exactly (the
Hurwitz zeta function for sinc powers, Si/Ci for sine products) or bounded
analytically and folded into the error estimate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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


# gamma_p's domain below p = 2 (p = 1 has its closed form), where the
# tests and the 30-digit references stop.  Toward p = 1 the Zolotarev
# integrand's peak narrows like p - 1 and the rounding of its exponent
# grows like p/(p - 1), which is 51 here.
_GAMMA_P_MIN_P = 1.02
# terms of each of gamma_p's two series: Gamma(1 + (2k+1)/p) and
# Gamma(pk + 1) stay finite for k <= 64 and p in [_GAMMA_P_MIN_P, 2]
_SERIES_TERMS = 64
# A series is used only where its first omitted term is at most this share
# of the value (the leading term, for the asymptotic series), so that the
# truncation stays below the value's last bit ...
_SERIES_TOL = 2.0 ** -56
# ... and, for the power series, where the sum of its terms' magnitudes is
# at most this multiple of the value, which bounds the cancellation.  Its
# limit is the largest multiple of _SERIES_Y_STEP that passes both tests.
_SERIES_CANCEL = 4.0
_SERIES_Y_STEP = 1.0 / 32.0
# Zolotarev's integral is taken in tau = log cot(theta).  Its log integrand
# G is tabulated on this tau grid (ends and step), where the tables invert
# it for the panel edges; at the grid's ends the integrand is below 1e-44 of
# its peak at every p and y of the middle branch.
_ZOL_TAU = (-60.0, 20.0, 1.0 / 16.0)
# Panel edges around the peak w = 0 of z e^-z, z = e^w: levels of w + tau
# below it, where the integrand falls like exp(w + tau); levels of w above
# it, where it falls like exp(-e^w), the last one ending the range; and
# between the peak and that end, pieces at most _ZOL_TAU_WIDTH long in tau,
# which resolve the plateau of w that forms as p nears 2.
_ZOL_BELOW = (-44.0, -26.0, -13.0, -4.5)
_ZOL_ABOVE = (1.5, 3.0, 4.5)
_ZOL_TAU_WIDTH = 2.5


def _zolotarev_log(p, tau):
    """Zolotarev's integrand at tau = log cot(theta) in log form: G with
    log z = p/(p-1) log y + G, and log(sin theta cos theta) = log |d theta /
    d tau|.  theta and phi = pi/2 - theta come from the arctangent of
    exp(-|tau|) and its complement, so that neither end loses digits, and
    sin(p theta) and cos((p-1) theta) are taken at arguments below pi/2."""
    a = p / (p - 1.0)
    e = np.exp(-np.abs(tau))
    near = np.arctan(e)                     # the smaller of theta and phi
    theta = np.where(tau >= 0.0, near, 0.5 * math.pi - near)
    phi = np.where(tau >= 0.0, 0.5 * math.pi - near, near)
    log1p = np.log1p(e * e)
    log_cos = np.minimum(tau, 0.0) - 0.5 * log1p
    rest = 0.5 * math.pi * (2.0 - p)         # pi - p pi/2
    sin_p = np.sin(np.where(p * theta <= 0.5 * math.pi, p * theta,
                            rest + p * phi))
    cos_p1 = np.sin(rest + (p - 1.0) * phi)
    g = (a - 1.0) * log_cos - a * np.log(sin_p) + np.log(cos_p1)
    return g, -np.abs(tau) - log1p


@functools.lru_cache(maxsize=64)
def _gamma_p_rules(p):
    """gamma_p's data for one p in [_GAMMA_P_MIN_P, 2), cached per p and
    read-only: (y_series, y_asym, coef, tables).  The power series serves
    y <= y_series and the asymptotic series y >= y_asym, with coefficients
    in rows 0 (powers of y^2) and 1 (powers of y^-p) of coef.  tables is
    _zolotarev's (tau, G(tau), G(tau) + tau, pieces above the peak)."""
    k = np.arange(_SERIES_TERMS + 1)
    # power series: term k is (-1)^k c_k y^2k
    c = 2.0 * special.gamma(1.0 + (2 * k + 1) / p) / special.factorial(
        2 * k + 1)
    y = _SERIES_Y_STEP * np.arange(1, 129)
    size = c * (y * y)[:, None] ** k
    value = size[:, :-1] @ (-1.0) ** k[:-1]
    good = ((size[:, :-1].sum(axis=1) <= _SERIES_CANCEL * value)
            & (size[:, -1] <= _SERIES_TOL * value))
    bad = np.flatnonzero(~good)
    y_series = float(y[(bad[0] if bad.size else y.size) - 1])
    # asymptotic series: term j is (2/y) b_j y^-pj, |b_j| <= m_j; it keeps
    # the terms before the one that reaches _SERIES_TOL |b_1| y^-p at the
    # smallest y
    j = k[1:]
    m = special.gamma(p * j + 1.0) / special.factorial(j)
    # sin(pi p j/2) from p j/2 mod 2 folded exactly into [-1/2, 1/2], which
    # keeps it accurate near its zeros, as when p nears 2
    r = np.remainder(0.5 * p * j, 2.0)
    r = np.where(r <= 0.5, r, np.where(r <= 1.5, 1.0 - r, r - 2.0))
    b = (-1.0) ** (j + 1) * m * np.sin(math.pi * r)
    reach = (m[1:] / (_SERIES_TOL * abs(b[0]))) ** (1.0 / (p * j[:-1]))
    kept = int(np.argmin(reach)) + 1
    coef = np.zeros((2, _SERIES_TERMS))
    coef[0] = (-1.0) ** k[:-1] * c[:-1]
    coef[1, 1:kept + 1] = b[:kept]
    lo, hi, step = _ZOL_TAU
    tau = np.linspace(lo, hi, round((hi - lo) / step) + 1)
    g = _zolotarev_log(p, tau)[0]
    shift = p / (p - 1.0) * np.log(
        np.geomspace(y_series, reach[kept - 1], 33))
    span = (np.interp(_ZOL_ABOVE[-1] - shift, g, tau)
            - np.interp(-shift, g, tau))
    pieces = max(1, math.ceil(span.max() / _ZOL_TAU_WIDTH))
    xi = g + tau
    for table in (coef, tau, g, xi):
        table.setflags(write=False)
    return y_series, float(reach[kept - 1]), coef, (tau, g, xi, pieces)


def _series(coef, v):
    """sum_k coef[:, k] v^k for each row, by Estrin's scheme: each level
    folds pairs of coefficients into one and squares v."""
    while coef.shape[1] > 1:
        coef = coef[:, 0::2] + coef[:, 1::2] * v[:, None]
        v = v * v
    return coef[:, 0]


def _zolotarev(p, tables, y):
    """gamma_p by Zolotarev's integral, for y > 0 (see gamma_p)."""
    tau, g, xi, pieces = tables
    a = p / (p - 1.0)
    shift = a * np.log(y)
    peak = np.interp(-shift, g, tau)
    above = np.interp(np.add.outer(-shift, _ZOL_ABOVE), g, tau)
    below = np.interp(np.add.outer(peak - shift, _ZOL_BELOW), xi, tau)
    between = np.multiply.outer(above[:, -1] - peak,
                                np.arange(1, pieces) / pieces)
    edges = np.sort(np.hstack(
        [below, peak[:, None], above, peak[:, None] + between]), axis=1)
    x, w = _LEGENDRE[16]
    half = 0.5 * np.diff(edges, axis=1)[..., None]
    g, jac = _zolotarev_log(p, edges[:, :-1, None] + half * (1.0 + x))
    log_z = shift[:, None, None] + g
    q = half * w * np.exp(log_z - np.exp(log_z) + jac)
    return 2.0 * a / y * q.reshape(len(y), -1).sum(axis=1)


def gamma_p(p, y):
    """Fourier transform of exp(-|x|^p) at y: 2 int_0^inf exp(-x^p)
    cos(x y) dx, for p = 1 and p in [_GAMMA_P_MIN_P, 2]; y a scalar (the
    result is a float) or an array (an array of its shape).

    Closed forms at p = 1 and p = 2.  Between them gamma_p = 2 pi f_p, with
    f_p the symmetric p-stable density, and |y| takes one of three branches
    chosen from p and y alone (_gamma_p_rules):
    - y <= y_series: the power series sum_k (-1)^k c_k y^2k, with
      c_k = 2 Gamma(1 + (2k+1)/p)/(2k+1)!, which is entire for p > 1;
    - y >= y_asym: the asymptotic series (2/y) sum_j (-1)^(j+1)
      Gamma(pj + 1)/j! sin(pi p j/2) y^-pj;
    - between them, Zolotarev's integral (Nolan 1997)
      gamma_p = 2 a/y int_0^pi/2 z e^-z d theta, a = p/(p-1), with
      z = (y cos theta/sin(p theta))^a cos((p-1) theta)/cos theta, on 16-point
      Gauss-Legendre panels in tau = log cot(theta) graded around the peak
      z = 1.
    Both series sum _SERIES_TERMS coefficients at most, by Estrin's scheme;
    no branch calls an adaptive quadrature, and the value at each y is the
    same whatever else the array holds."""
    if p != 1.0 and not _GAMMA_P_MIN_P <= p <= 2.0:
        raise DomainError(f"supported p are 1 and {_GAMMA_P_MIN_P} <= p <= 2,"
                          f" got p={p}")
    y = np.abs(np.asarray(y, dtype=float))
    if p == 1.0:
        out = 2.0 / (1.0 + y * y)
    elif p == 2.0:
        out = math.sqrt(math.pi) * np.exp(-y * y / 4.0)
    else:
        y_series, y_asym, coef, tables = _gamma_p_rules(p)
        flat = y.ravel()
        out = np.empty_like(flat)
        power = flat <= y_series
        asym = flat >= y_asym
        v = np.empty_like(flat)
        v[power] = flat[power] ** 2
        v[asym] = flat[asym] ** -p
        series = power | asym
        out[series] = _series(coef[asym[series].astype(int)], v[series])
        out[asym] *= 2.0 / flat[asym]
        if not series.all():
            out[~series] = _zolotarev(p, tables, flat[~series])
        out = out.reshape(y.shape)
    return float(out) if out.ndim == 0 else out


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
# wills_g's window (0, _WILLS_CUT): below _WILLS_SINE_START the zeros of
# A_alpha are searched for, and from it on they are the multiples of pi/alpha
_WILLS_SINE_START = 25.0
_WILLS_CUT = 2000.0


@functools.lru_cache(maxsize=64)
def _wills_layout(alpha):
    """wills_g's panels for scale alpha, which depend on no p: the panels
    integrated as |A_alpha|^p and the kind-4 half periods of sin(alpha s),
    each as read-only (lo, hi, kind) arrays, and the number of evaluations
    the zero search spent.  Cached per alpha, as _panel_rules is per p.

    The window is split at the zeros of A_alpha and at fixed steps, 2.5
    apart up to _WILLS_SINE_START and geometric (ratio below 2) beyond,
    which grade the stretches where A_alpha does not oscillate (alpha = 0,
    or sin(alpha s) without a zero in the window).  A step nearer to a zero
    than to its neighbouring steps is dropped."""
    zeros, evals = _dist_sq_ft_zeros(alpha, _WILLS_SINE_START, _WILLS_CUT)
    steps = np.union1d(np.linspace(0.0, _WILLS_SINE_START, 11),
                       np.geomspace(_WILLS_SINE_START, _WILLS_CUT, 8))
    if zeros.size:
        # Drop an inner step nearer to a zero than to its neighbouring
        # steps: the panel beside it would stop just short of the zero.
        gap = np.minimum(np.diff(steps, prepend=-np.inf),
                         np.diff(steps, append=np.inf))
        j = np.searchsorted(zeros, steps)
        near = np.minimum(
            np.abs(steps - zeros[np.maximum(j - 1, 0)]),
            np.abs(steps - zeros[np.minimum(j, zeros.size - 1)]))
        steps = steps[(near >= gap) | (steps == 0.0) | (steps == _WILLS_CUT)]
    edges = np.union1d(steps, zeros)
    lo, hi = edges[:-1], edges[1:]
    at_zero = np.isin(edges, zeros)
    kind = at_zero[:-1] + 2 * at_zero[1:]
    # from _WILLS_SINE_START on, a panel between two zeros is a half period
    # of sin(alpha s): kind 4 folds |sin(alpha s)|^p into the weights
    fold = (kind == 3) & (lo >= _WILLS_SINE_START)
    kind[fold] = 4
    parts = tuple((lo[part], hi[part], kind[part]) for part in (~fold, fold))
    for arrays in parts:
        for a in arrays:
            a.setflags(write=False)
    return parts, evals


def wills_g(params):
    """g(alpha) = integral over R of |A_alpha(s)|^p ds, A_alpha = dist_sq_ft,
    for p <= WILLS_G_MAX_P.

    The integrand is even.  Its window (0, 2000) is split into panels by
    _wills_layout, which depends on alpha alone and is built once per alpha.
    _panel_sum integrates every panel with an 8- and a 16-point Gauss-Jacobi
    rule whose weight |s - z|^p absorbs |A_alpha|^p's non-analytic behaviour
    at each end z that is a zero (Legendre where neither end is).  From 25
    on, A_alpha is 2 sin(alpha s)(1 - s I(s))/s up to a Gaussian term below
    4e-19 of its envelope, so a panel between two zeros is a half period of
    sin(alpha s): its rule carries |sin|^p in its weights, and only
    |2 (1 - s I(s))/s|^p is evaluated at its nodes.

    The value and error estimate are _panel_sum's, the estimate plus the
    tail beyond the window bounded through
    |A_alpha(s)| <= 2 _M_SINE_ENVELOPE / s^3.  `evaluations` counts the
    points at which this call evaluated A_alpha: the panels' nodes, and the
    zero search's points only on the call that built the layout, so a
    later call at the same alpha counts its nodes alone.
    """
    p, alpha = params.p, params.alpha
    if p > WILLS_G_MAX_P:
        raise DomainError(
            f"g overflows for p > {WILLS_G_MAX_P:g} (got p={p})")
    built = _wills_layout.cache_info().misses
    parts, evals = _wills_layout(alpha)
    if _wills_layout.cache_info().misses == built:
        evals = 0                      # an earlier call ran the zero search

    def full(s):
        return np.abs(dist_sq_ft(alpha, s)) ** p

    def envelope(s):
        return np.abs(2.0 * (1.0 - s * gauss_sine_integral(s)) / s) ** p

    value = err = 0.0
    for integrand, (lo, hi, kind) in zip((full, envelope), parts):
        v, dv, n = _panel_sum(integrand, lo, hi, kind, p)
        value, err, evals = value + v, err + dv, evals + n
    # integral of (env/s^3)^p beyond the window, env = 2 _M_SINE_ENVELOPE
    tail = (_WILLS_CUT * (2.0 * _M_SINE_ENVELOPE / _WILLS_CUT ** 3) ** p
            / (3.0 * p - 1.0))
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
