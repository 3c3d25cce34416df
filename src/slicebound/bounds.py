"""Section-volume bounds: closed forms and quadrature-backed estimates.

Every operation is a pure function from a projected decomposition, a KpBall,
or a nonsymmetric lift to a positive real.  Formulas stated only under a
hypothesis raise GateError when it fails; passing ``force=True`` evaluates
anyway (the report then records the gate as unsatisfied).
"""

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .bodies import vol_ball_p, vol_simplex_inradius1
from .decomp import project
from .errors import DegenerateRegimeError, GateError, StructuralError
from .specfun import (
    _GAMMA_P_MIN_P,
    SINC_POWER_MAX_P,
    WILLS_G_MAX_P,
    WillsIntegrandParams,
    gamma_p,
    sinc_power_integral,
    wills_g,
)

GATE_SLACK = 1e-12
LIMIT_EPS = 1e-9     # 1 - tc below this: use the tc -> 1 limit branch

# bound_kp_lower's fixed outer rule (_kp_lower_integral)
_KP_HEAD_NODES = 12     # Gauss-Jacobi nodes on [0, 1/max s_j]
_KP_PANEL_NODES = 12    # Gauss-Legendre nodes per tail panel
_KP_PANEL_WIDTH = 2.0   # tail panel width in log t
_KP_TAIL_RTOL = 1e-13   # stop at a panel adding at most this share
# the tail panels' Gauss-Legendre rule on [-1, 1]
_KP_PANEL_RULE = np.polynomial.legendre.leggauss(_KP_PANEL_NODES)


# ---------------------------------------------------------------------------
# symmetric-body bounds (cube-type sections)


def _below_half(values):
    return np.flatnonzero(np.asarray(values) < 0.5 - GATE_SLACK)


def _check_half_gate(values, label, force):
    bad = _below_half(values)
    if bad.size and not force:
        raise GateError(
            f"{label} >= 1/2 fails at indices {bad.tolist()}",
            offending=bad.tolist(),
        )
    return bad.size == 0


def bound_symmetric_case1(proj, force=False):
    """2^((m0+k)/2) * prod_j c_j^(tc_j / 2), valid when all tc_j >= 1/2."""
    _check_half_gate(proj.tilde_weights, "tilde weight", force)
    log_prod = float(np.sum(proj.tilde_weights * np.log(proj.weights))) / 2.0
    return 2.0 ** ((proj.m0 + proj.k) / 2.0) * math.exp(log_prod)


def bound_symmetric_case1_coarse(proj, force=False):
    """2^k ((n - 2k + m0)/(m0 - k))^((m0-k)/2); 2^k when m0 = k."""
    _check_half_gate(proj.tilde_weights, "tilde weight", force)
    m0, k = proj.m0, proj.k
    n = proj.subspace.ambient_dim
    if m0 == k:
        return 2.0 ** k
    return 2.0 ** k * ((n - 2.0 * k + m0) / (m0 - k)) ** ((m0 - k) / 2.0)


def _case2_regime(n, k):
    return n / 2.0 <= k <= n


def bound_symmetric_case2(n, k):
    """2^((n+k)/2), the large-section regime bound; requires n/2 <= k <= n."""
    if not _case2_regime(n, k):
        raise DegenerateRegimeError(
            f"stated only for n/2 <= k <= n, got n={n}, k={k}"
        )
    return 2.0 ** ((n + k) / 2.0)


def bound_ab_old(proj):
    """Baseline 2^k * prod_j (c_j / tc_j)^(tc_j / 2); no hypothesis."""
    tc = proj.tilde_weights
    log_prod = float(np.sum(tc * (np.log(proj.weights) - np.log(tc)))) / 2.0
    return 2.0 ** proj.k * math.exp(log_prod)


def _sinc_power_upper(p):
    # The upper end of I_p's interval: value plus error estimate.  Beyond the
    # quadrature-friendly range, Ball's integral inequality
    # I_p <= sqrt(2) pi / sqrt(p), proven for p >= 2.
    if p > SINC_POWER_MAX_P:
        return math.sqrt(2.0) * math.pi / math.sqrt(p)
    result = sinc_power_integral(p)
    return result.value + result.abs_error_estimate


def bound_volume_via_wills(proj):
    """Volume bound assembled from sinc-power integrals:
    2^k / pi^(m0-k) * prod_j (1-tc)^(-1/(2p)) I_p^(1/p) (sqrt(tc) t_j)^tc
    with p_j = 1/(1 - tc_j); factors with tc_j -> 1 use the limit branch.
    The factor increases with I_p, so it takes the upper end of I_p's
    interval, computed once per distinct p."""
    m0, k = proj.m0, proj.k
    log_acc = k * math.log(2.0) - (m0 - k) * math.log(math.pi)
    sinc_power = functools.cache(_sinc_power_upper)
    for tc, t in zip(proj.tilde_weights, proj.thresholds):
        log_acc += tc * math.log(math.sqrt(tc) * t)
        defect = 1.0 - tc
        if defect < LIMIT_EPS:
            continue                       # remaining factors tend to 1
        p = 1.0 / defect
        log_acc += -math.log(defect) / (2.0 * p)
        log_acc += math.log(sinc_power(p)) / p
    return math.exp(log_acc)


def bound_wills_functional(proj, lam):
    """Upper bound on the Wills functional of the lam-scaled section:
    (2 pi)^-(m0-k) * prod_j (integral of the j-th factor)^(1 - tc_j).
    The Wills factor g is computed once per distinct (alpha, p).  Beyond
    P = WILLS_G_MAX_P it is bounded by (1 + 2 alpha)^(p - P) g(P), in log
    space: |A_alpha| <= A_alpha(0) = 1 + 2 alpha, as A_alpha is the Fourier
    transform of a positive function."""
    if lam <= 0:
        raise StructuralError(f"scale must be positive, got {lam}")
    m0, k = proj.m0, proj.k
    log_acc = -(m0 - k) * math.log(2.0 * math.pi)
    g_of = functools.cache(
        lambda alpha, p: wills_g(WillsIntegrandParams(alpha=alpha, p=p)))
    for tc, t in zip(proj.tilde_weights, proj.thresholds):
        alpha = lam * math.sqrt(tc) * t
        defect = 1.0 - tc
        if defect < LIMIT_EPS:
            # p -> infinity: the factor tends to the sup of the Fourier
            # transform, which is its value at 0
            log_acc += math.log(1.0 + 2.0 * alpha)
            continue
        p = 1.0 / defect
        excess = max(p - WILLS_G_MAX_P, 0.0)
        g = g_of(alpha, min(p, WILLS_G_MAX_P))
        # the factor increases with g, so the upper end of g's interval
        factor = (g.value + g.abs_error_estimate) / math.sqrt(defect)
        log_acc += defect * (math.log(factor)
                             + excess * math.log1p(2.0 * alpha))
    return math.exp(log_acc)


def bound_mean_width(proj):
    """First-intrinsic-volume bound 2 * sum_j tc_j t_j; no hypothesis."""
    return 2.0 * float(np.sum(proj.tilde_weights * proj.thresholds))


# ---------------------------------------------------------------------------
# generalized l_p ball bounds


def _ball_projection(ball, H):
    proj = project(ball.decomp, H)
    alphas = ball.alphas[proj.support]
    return proj, alphas


def bound_k1_upper(ball, H):
    """vol(B_1^k) * prod_j (sqrt(c_j)/alpha_j)^(tc_j): kp_upper at p = 1."""
    if ball.p != 1.0:
        raise StructuralError("bound stated for p = 1 only")
    return bound_kp_upper(ball, H)


def bound_k1_intermediate(ball, H):
    """Sharper p = 1 upper bound carrying the Gamma-ratio correction on the
    indices with tc_j < 1; coincides with the plain bound at coordinate H."""
    if ball.p != 1.0:
        raise StructuralError("bound stated for p = 1 only")
    proj, alphas = _ball_projection(ball, H)
    m0, k = proj.m0, proj.k
    log_acc = k * math.log(2.0) - (m0 - k) / 2.0 * math.log(math.pi)
    log_acc += float(np.sum(
        proj.tilde_weights * (0.5 * np.log(proj.weights) - np.log(alphas))
    ))
    for tc in proj.tilde_weights:
        defect = 1.0 - tc
        if defect < LIMIT_EPS:
            continue                       # limit factor is 1
        p = 1.0 / defect
        # log of Gamma(p - 1/2) / (sqrt(defect) Gamma(p)); log-space keeps
        # the ratio finite when p is large
        log_ratio = (math.lgamma(p - 0.5) - math.lgamma(p)
                     - 0.5 * math.log(defect))
        log_acc += defect * log_ratio
    return math.exp(log_acc) / math.gamma(1.0 + k)


def bound_k1_lower(ball, H):
    """Explicit positive lower bound for p = 1 sections; needs m0 > k."""
    if ball.p != 1.0:
        raise StructuralError("bound stated for p = 1 only")
    proj, alphas = _ball_projection(ball, H)
    m0, k = proj.m0, proj.k
    if m0 == k:
        raise DegenerateRegimeError("lower bound degenerates when m0 = k")
    s = float(np.sum(alphas ** 2 / proj.weights))
    log_acc = m0 * math.log(m0) - (m0 - k) / 2.0 * math.log(math.pi)
    log_acc -= (m0 + k) / 2.0 * math.log(s)
    log_acc += float(np.sum(np.log(alphas) - 0.5 * np.log(proj.weights)))
    log_acc += math.lgamma((m0 + k) / 2.0) - math.lgamma(m0)
    return math.exp(log_acc) * vol_ball_p(k, 1.0)


def bound_kp_upper(ball, H):
    """vol(B_p^k) * prod_j (sqrt(c_j)/alpha_j^(1/p))^(tc_j)."""
    proj, alphas = _ball_projection(ball, H)
    p = ball.p
    log_prod = float(np.sum(
        proj.tilde_weights * (0.5 * np.log(proj.weights) - np.log(alphas) / p)
    ))
    return vol_ball_p(proj.k, p) * math.exp(log_prod)


@functools.lru_cache(maxsize=16)
def _kp_head_rule(beta):
    """_KP_HEAD_NODES-node Gauss-Jacobi rule on [-1, 1] with weight
    (1 + x)^(beta - 1), cached per beta and read-only."""
    x, w = special.roots_jacobi(_KP_HEAD_NODES, 0.0, beta - 1.0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _kp_lower_integral(p, beta, s):
    """integral_0^inf t^(beta-1) prod_j gamma_p(sqrt(t s_j)) dt, all s_j > 0.

    Head: Gauss-Jacobi with weight t^(beta-1) on [0, 1/max s_j], where the
    product is entire in t.  Tail: fixed-width Gauss-Legendre panels in
    u = log t (each factor is a translate of gamma_p(e^(u/2))) until a panel
    adds at most _KP_TAIL_RTOL of the sum.  The head and each panel take
    one gamma_p call on their (nodes, factors) array.  With a factors the
    tail decays at rate a(1+p)/2 - beta in u; at most k-1 of the tc_j are
    1, so that is at least (p(m0-k+1)+1)/2 > 0.  A walk that never stopped
    would end in a FloatingPointError from an overflowing exp."""
    s = np.asarray(s, dtype=float)

    def prod(t):
        return np.prod(gamma_p(p, np.sqrt(np.multiply.outer(t, s))), axis=1)

    t_head = 1.0 / s.max()
    x, w = _kp_head_rule(beta)
    total = (t_head / 2.0) ** beta * float(
        w @ prod(t_head * (1.0 + x) / 2.0))
    x, w = _KP_PANEL_RULE
    half = _KP_PANEL_WIDTH / 2.0
    u0 = math.log(t_head)
    with np.errstate(over="raise"):
        while True:
            u = u0 + half * (1.0 + x)
            panel = half * float(w @ (np.exp(beta * u) * prod(np.exp(u))))
            total += panel
            if panel <= _KP_TAIL_RTOL * total:
                return total
            u0 += _KP_PANEL_WIDTH


def bound_kp_lower(ball, H):
    """Quadrature lower bound for p in [1, 2] sections; needs m0 > k.

    Integrates t^(beta-1) * prod_j gamma_p(sqrt(t s_j)) over t > 0 with
    beta = (m0-k)/2 and s_j = (c_j / alpha_j^(2/p)) (1 - tc_j); indices with
    tc_j = 1 (s_j < LIMIT_EPS) contribute the constant gamma_p(0).  The
    outer integral is one fixed rule (_kp_lower_integral), whose nodes take
    one gamma_p call per panel.  The integrand is positive (gamma_p is 2 pi
    times a symmetric p-stable density), so cutting the tail only lowers
    the value; neither the rule's nor gamma_p's error is subtracted.
    It takes gamma_p's domain, p = 1 or 1.02 <= p <= 2: for 1 < p < 1.02 it
    raises DomainError.  Raises DegenerateRegimeError when m0 = k, or when
    no s_j reaches LIMIT_EPS (a constant times t^(beta-1) has no finite
    integral)."""
    proj, alphas = _ball_projection(ball, H)
    m0, k = proj.m0, proj.k
    p = ball.p
    if m0 == k:
        raise DegenerateRegimeError("lower bound degenerates when m0 = k")
    beta = (m0 - k) / 2.0
    s = proj.weights / alphas ** (2.0 / p) * (1.0 - proj.tilde_weights)
    s = np.maximum(s, 0.0)
    active = s[s >= LIMIT_EPS].tolist()
    if not active:
        raise DegenerateRegimeError(
            "lower bound diverges: every s_j is below LIMIT_EPS")
    const = gamma_p(p, 0.0) ** (len(s) - len(active))
    integral = const * _kp_lower_integral(p, beta, active)
    log_pref = float(np.sum(0.5 * np.log(proj.weights) - np.log(alphas) / p))
    log_pref -= (m0 - k) * math.log(2.0 * math.pi)
    log_pref += beta * math.log(math.pi) + beta * math.log(m0 - k)
    log_pref -= math.lgamma(beta)
    return math.exp(log_pref) * integral / math.gamma(1.0 + k / p)


# ---------------------------------------------------------------------------
# non-symmetric bounds


def bound_nonsym_fourier(nl, force=False):
    """Section bound for a centered contact polytope via the lifted system.

    Requires min kappa_j >= 1/2; returns the bound on the section volume
    itself, normalized by the inradius-1 regular k-simplex volume."""
    _check_half_gate(nl.kappa, "kappa", force)
    n, k = nl.n, nl.k
    m = len(nl.support)
    delta = nl.lifted_weights[nl.support]
    log_acc = (k + 1.0 - m) / 2.0 * math.log(2.0)
    log_acc += k / 2.0 * math.log(n) + (k + 1.0) / 2.0 * math.log(n + 1.0)
    log_acc -= k / 2.0 * math.log(k) + (k + 1.0) / 2.0 * math.log(k + 1.0)
    log_acc -= float(np.sum(nl.kappa * np.log(delta))) / 2.0
    return math.exp(log_acc) * vol_simplex_inradius1(k)


def bound_nonsym_hyperplane(n):
    """Hyperplane-section bound for centered bodies in terms of the regular
    simplex: (1/sqrt2) sqrt((n+1)/n) ((n+1)/(n-1))^((n-1)/2) vol(S_{n-1})."""
    if n < 2:
        raise StructuralError(f"need n >= 2, got {n}")
    pref = (1.0 / math.sqrt(2.0)) * math.sqrt((n + 1.0) / n)
    pref *= ((n + 1.0) / (n - 1.0)) ** ((n - 1) / 2.0)
    return pref * vol_simplex_inradius1(n - 1)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class BoundReport:
    """Named bound values with gate status and input digests."""

    entries: list = field(default_factory=list)

    def gates_satisfied(self):
        return all(e["gate"]["satisfied"] for e in self.entries)

    def to_dict(self):
        return {"entries": self.entries}


def inputs_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


# Input kinds: what a bound of the kind needs, and the digest of that input.
# A "ball" input is the pair (KpBall, subspace).
_KINDS = {
    "proj": ("a projected system", lambda proj: inputs_digest(
        proj.directions, proj.tilde_weights, proj.thresholds)),
    "ball": ("a KpBall and subspace", lambda bh: inputs_digest(
        bh[0].decomp.vectors, bh[0].decomp.weights, bh[0].alphas,
        [bh[0].p], bh[1].basis)),
    "nl": ("a nonsymmetric lift", lambda nl: inputs_digest(
        nl.lifted_vectors, nl.lifted_weights, nl.kappa)),
}


@dataclass(frozen=True)
class _Bound:
    """One registry row.  evaluate(x, force), gate(x) and in_all(x)
    take the input x of the row's kind; in_all says whether "all" includes
    the bound.  Evaluators look the bound functions up by name at call time,
    so wrapping a module attribute wraps the registry's call too."""

    kind: str
    evaluate: object
    gate: object = None             # None: no hypothesis
    gate_text: str = "none"
    in_all: object = lambda x: True


def _tc_half(proj):
    return _below_half(proj.tilde_weights).size == 0


def _kappa_half(nl):
    return _below_half(nl.kappa).size == 0


def _is_l1(bh):
    return bh[0].p == 1.0


def _lower_regime(bh):
    # where the lower bounds, and the gamma_p inside kp_lower, do not raise
    proj, _ = _ball_projection(*bh)
    return (bh[0].p == 1.0 or bh[0].p >= _GAMMA_P_MIN_P) and proj.m0 > proj.k


_REGISTRY = {
    "symmetric_case1": _Bound(
        "proj", lambda proj, force: bound_symmetric_case1(proj, force),
        _tc_half, "all tilde weights >= 1/2"),
    "symmetric_case1_coarse": _Bound(
        "proj",
        lambda proj, force: bound_symmetric_case1_coarse(proj, force),
        _tc_half, "all tilde weights >= 1/2"),
    "symmetric_case2": _Bound(
        "proj", lambda proj, force: bound_symmetric_case2(
            proj.subspace.ambient_dim, proj.k),
        lambda proj: _case2_regime(proj.subspace.ambient_dim, proj.k),
        "n/2 <= k <= n", in_all=lambda proj: False),
    "ab_old": _Bound("proj", lambda proj, force: bound_ab_old(proj)),
    "wills_volume": _Bound(
        "proj", lambda proj, force: bound_volume_via_wills(proj)),
    "wills_functional": _Bound(
        "proj", lambda proj, force: bound_wills_functional(proj, 1.0)),
    "mean_width": _Bound(
        "proj", lambda proj, force: bound_mean_width(proj)),
    "k1_upper": _Bound(
        "ball", lambda bh, force: bound_k1_upper(*bh), in_all=_is_l1),
    "k1_intermediate": _Bound(
        "ball", lambda bh, force: bound_k1_intermediate(*bh),
        in_all=_is_l1),
    "k1_lower": _Bound(
        "ball", lambda bh, force: bound_k1_lower(*bh),
        in_all=lambda bh: _is_l1(bh) and _lower_regime(bh)),
    "kp_upper": _Bound("ball", lambda bh, force: bound_kp_upper(*bh)),
    "kp_lower": _Bound("ball", lambda bh, force: bound_kp_lower(*bh),
                       in_all=_lower_regime),
    "nonsym_fourier": _Bound(
        "nl", lambda nl, force: bound_nonsym_fourier(nl, force),
        _kappa_half, "all kappa >= 1/2"),
    "nonsym_hyperplane": _Bound(
        "nl", lambda nl, force: bound_nonsym_hyperplane(nl.n),
        _kappa_half, "all kappa >= 1/2 (reported alongside)"),
}
ALL_BOUNDS = tuple(_REGISTRY)


def build_report(names="all", proj=None, ball=None, subspace=None, nl=None,
                 force=False):
    """Evaluate the named bounds against whichever inputs are supplied.

    names may be "all" (every bound applicable to the given inputs) or an
    explicit list; asking for a bound whose inputs are missing, or for an
    unknown name, is a structural error.
    """
    inputs = {"proj": proj, "nl": nl,
              "ball": (ball, subspace) if ball is not None
              and subspace is not None else None}
    if names == "all":
        wanted = [name for name, row in _REGISTRY.items()
                  if inputs[row.kind] is not None
                  and row.in_all(inputs[row.kind])]
    else:
        wanted = list(names)
        unknown = [n for n in wanted if n not in _REGISTRY]
        if unknown:
            raise StructuralError(
                f"unknown bound identifiers {unknown}; valid names: "
                + ", ".join(ALL_BOUNDS)
            )
    report = BoundReport()
    for name in wanted:
        report.entries.append(_evaluate_one(name, inputs, force))
    return report


def _evaluate_one(name, inputs, force):
    row = _REGISTRY[name]
    x = inputs[row.kind]
    needs, digest = _KINDS[row.kind]
    if x is None:
        raise StructuralError(f"bound {name} needs {needs}")
    gate = {"required_condition": row.gate_text,
            "satisfied": row.gate is None or bool(row.gate(x))}
    value = row.evaluate(x, force)
    if not math.isfinite(value) or value <= 0:
        raise StructuralError(f"bound {name} produced non-positive {value}")
    return {"name": name, "value": float(value), "gate": gate,
            "inputs_digest": digest(x)}
