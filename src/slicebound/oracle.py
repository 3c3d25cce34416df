"""Independent ground truth: Monte-Carlo and exact section volumes, the
two-sided Fourier/Parseval identity checker, and Wills / mean-width oracles.

Nothing in this module reuses a bound formula; estimates come from rejection
sampling, Qhull halfspace intersection, or quadrature of Fourier transforms,
so agreement with the bounds module is evidence rather than tautology.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from ._kernels import count_inside, dykstra_distances
from .bodies import section_polytope
from .decomp import lift
from .errors import (DegenerateRegimeError, DomainError, GateError,
                     StructuralError)
from .specfun import _sinc_product_integrals, sinc_product_integral

_CHUNK = 1 << 16          # fixed batch size keeps streams seed-reproducible
EXACT_MAX_K = 3           # exact volume, V_1 and Parseval lhs up to this k


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    hit_rate: float

    def within(self, value, n_sigma=3.0):
        return abs(value - self.mean) <= n_sigma * self.std_error


def unit_ball_volume(k):
    return math.pi ** (k / 2.0) / math.gamma(1.0 + k / 2.0)


def _ball_points(rng, count, k, radius):
    g = rng.standard_normal((count, k))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / k)
    return g / norms[:, None] * r[:, None]


def _check_bounded(poly):
    normals, offsets = poly.expanded_constraints()
    if np.linalg.matrix_rank(normals, tol=1e-10) < poly.k:
        raise StructuralError("polytope is unbounded: normals do not span")
    if not poly.symmetric:
        # spanning normals bound the polytope iff they also span positively:
        # some lambda >= 1 has sum_i lambda_i a_i = 0
        res = linprog(np.zeros(len(normals)), A_eq=normals.T,
                      b_eq=np.zeros(poly.k), bounds=(1.0, None))
        if res.status != 0:
            raise StructuralError("polytope is unbounded in some direction")


def _sample_chunks(samples, seed, k, radius):
    """Uniform points in the k-ball of the given radius, drawn in chunks of
    fixed size so that equal seeds give equal streams."""
    if samples < 1000:
        raise StructuralError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    for done in range(0, samples, _CHUNK):
        yield _ball_points(rng, min(_CHUNK, samples - done), k, radius)


def _hit_or_miss(count_hits, samples, seed, k, radius):
    """Volume of a body inside the k-ball of the given radius from the hit
    count of each chunk of uniform points in that ball."""
    hits = sum(count_hits(pts)
               for pts in _sample_chunks(samples, seed, k, radius))
    if hits == 0:
        raise DegenerateRegimeError(f"no hit in {samples} samples")
    env = unit_ball_volume(k) * radius ** k
    p = hits / samples
    return McEstimate(
        mean=env * p,
        std_error=env * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=seed,
        hit_rate=p,
    )


def mc_volume(poly, samples, seed):
    """Rejection-sampling volume of an H-representation polytope."""
    _check_bounded(poly)
    return _hit_or_miss(
        lambda pts: count_inside(pts, poly.normals, poly.offsets,
                                 poly.symmetric),
        samples, seed, poly.k, poly.circumradius)


def _hull(poly):
    """Vertices (rows) and Qhull hull of a bounded section with k <=
    EXACT_MAX_K; for k = 1 the hull is None and the vertices are the
    interval's ends.  Flat or empty sections raise DegenerateRegimeError."""
    k = poly.k
    if k > EXACT_MAX_K:
        raise StructuralError(f"exact geometry for k <= {EXACT_MAX_K} only")
    _check_bounded(poly)
    normals, offsets = poly.expanded_constraints()
    flat = 1e-9 * poly.circumradius  # an inradius below this is flat
    if k == 1:
        a = normals[:, 0]
        verts = np.array([[np.max(offsets[a < 0] / a[a < 0])],
                          [np.min(offsets[a > 0] / a[a > 0])]])
        if verts[1, 0] - verts[0, 0] <= 2.0 * flat:
            raise DegenerateRegimeError(f"flat interval {verts.ravel()}")
        return verts, None
    # Chebyshev centre: the centre x of the largest ball of radius r inside
    scale = np.linalg.norm(normals, axis=1)
    res = linprog(np.r_[np.zeros(k), -1.0],
                  A_ub=np.column_stack([normals, scale]), b_ub=offsets,
                  bounds=[(None, None)] * k + [(0.0, None)])
    if res.status != 0 or res.x[-1] <= flat:
        raise DegenerateRegimeError("flat or empty polytope: no interior")
    try:
        verts = HalfspaceIntersection(
            np.column_stack([normals, -offsets]), res.x[:k]).intersections
        return verts, ConvexHull(verts)
    except QhullError as exc:
        raise DegenerateRegimeError(f"flat polytope: {exc}") from exc


def exact_volume_smallk(poly):
    """Exact volume from the Qhull hull; supports k <= EXACT_MAX_K.  A flat
    (lower-dimensional) polytope raises DegenerateRegimeError."""
    verts, hull = _hull(poly)
    return float(np.ptp(verts)) if hull is None else float(hull.volume)


def mc_kp_section_volume(ball, H, samples, seed):
    """Monte-Carlo volume of {x in H : ||x||_ball <= 1}."""
    # |x|^2 = sum c_j <x,v_j>^2 <= sum c_j alpha_j^(-2/p) on the unit ball
    radius = math.sqrt(float(np.sum(
        ball.decomp.weights * ball.alphas ** (-2.0 / ball.p)
    )))
    return _hit_or_miss(
        lambda pts: int(np.count_nonzero(ball.norm(pts @ H.basis) <= 1.0)),
        samples, seed, H.k, radius)


def _complement_integral(a, b, w, d):
    """Integral over R^d of prod_j indicator_ft(a_j, b_j <y, w_j>).

    a: half-widths; b: defect scales sqrt(1-tc); w: rows in R^d.
    """
    scaled = b[:, None] * w          # (m1, d)

    def radial_terms(thetas, q_drop):
        """The radial integrals of r^(d-1) prod_j factor_j(r theta) over
        r > 0, for the rows theta of thetas, as sinc-product integrals.

        Factors whose projection on theta vanishes contribute constants;
        the rest reduce to a sinc-product integral with exponent
        m_active - q_drop.  Yields (rows, constants, betas, q), one per
        pattern of active factors; rows with q < 1 are left out, as their
        value is 0 (a measure-zero degenerate direction).
        """
        s = thetas @ scaled.T
        active = np.abs(s) > 1e-13
        for pattern in np.unique(active, axis=0):
            q = int(pattern.sum()) - q_drop
            if q < 1:
                continue
            rows = np.flatnonzero((active == pattern).all(axis=1))
            s_act = s[np.ix_(rows, pattern)]
            const = (float(np.prod(2.0 * a[~pattern]))
                     * np.prod(2.0 / s_act, axis=1))
            yield rows, const, a[pattern] * s_act, q

    def radial_value(theta, q_drop):
        for _, const, betas, q in radial_terms(theta[None], q_drop):
            return float(const[0]) * sinc_product_integral(betas[0], q)
        return 0.0

    def radial_value_safe(theta, q_drop):
        # the radial integral log-diverges on a measure-zero set of exactly
        # degenerate directions; nudge off such a direction when hit
        try:
            return radial_value(theta, q_drop)
        except DomainError:
            nudge = np.arange(1.0, 1.0 + len(theta)) * 2.5e-9
            shifted = theta + nudge
            return radial_value(shifted / np.linalg.norm(shifted), q_drop)

    if d == 1:
        return 2.0 * radial_value(np.array([1.0]), 0), False
    if d == 2:
        def angular(phi):
            return radial_value_safe(np.array([math.cos(phi), math.sin(phi)]), 1)

        v, _ = integrate.quad(angular, 0.0, math.pi, epsabs=2e-9, limit=400)
        return 2.0 * v, False
    # d = 3: deterministic sphere grid for the angular average, one batched
    # sinc-product call per pattern of active factors; the radial integral
    # stays exact, but the kinked angular integrand limits the grid average
    # to about 1% relative accuracy (reported via the flag)
    dirs = _sphere_grid(4000)
    vals = np.zeros(len(dirs))
    for rows, const, betas, q in radial_terms(dirs, 2):
        vals[rows] = const * _sinc_product_integrals(betas, q)
    for i in np.flatnonzero(np.isnan(vals)):    # divergent: nudge off
        vals[i] = radial_value_safe(dirs[i], 2)
    return 4.0 * math.pi * float(vals.sum()) / len(dirs), True


def parseval_check(proj, samples=10 ** 6, seed=0):
    """Two-sided check of the section-volume Fourier identity.

    lhs: volume of the section polytope (exact when k <= EXACT_MAX_K, MC
    otherwise, with its standard error in gates["lhs_std_error"]).
    rhs: (2 pi)^-d times the integral over the lifted orthogonal complement
    of the product of interval Fourier transforms.  Gates: the defect
    vectors must have full rank d, and more than d factors must be
    nontrivial, else the identity is not asserted.
    """
    lf = lift(proj)
    d = proj.m0 - proj.k
    gates = {"rank_full": True, "factor_count": True, "mc_rhs": False,
             "lhs_std_error": 0.0}
    a_all = np.sqrt(proj.tilde_weights) * proj.thresholds
    if d == 0:
        rhs = float(np.prod(2.0 * a_all))
    else:
        defect_rank = np.linalg.matrix_rank(
            np.sqrt(lf.defect_weights)[:, None] * lf.complement_vectors,
            tol=1e-10,
        )
        gates["rank_full"] = bool(defect_rank == d)
        m1 = len(lf.complement_indices)
        gates["factor_count"] = bool(m1 > d)
        if not (gates["rank_full"] and gates["factor_count"]):
            raise GateError(
                "identity not asserted: defect rank "
                f"{defect_rank}/{d}, nontrivial factors {m1}"
            )
        if d > 3:
            raise StructuralError("complement dimension > 3 unsupported")
        const = 1.0
        trivial = np.setdiff1d(np.arange(proj.m0), lf.complement_indices)
        for j in trivial:
            const *= 2.0 * a_all[j]
        a = a_all[lf.complement_indices]
        b = np.sqrt(lf.defect_weights)
        integral, used_mc = _complement_integral(
            a, b, lf.complement_vectors, d)
        gates["mc_rhs"] = used_mc
        rhs = const * integral / (2.0 * math.pi) ** d

    poly = section_polytope(proj)
    if proj.k <= EXACT_MAX_K:
        lhs = exact_volume_smallk(poly)
    else:
        est = mc_volume(poly, samples, seed)
        lhs = est.mean
        gates["lhs_std_error"] = est.std_error
    return lhs, rhs, gates


def wills_oracle(poly, samples, seed):
    """MC estimate of the Wills functional: integral of exp(-pi dist^2).

    hit_rate is the fraction of samples inside the polytope, where the
    Dykstra distance is exactly 0."""
    _check_bounded(poly)
    k = poly.k
    radius = poly.circumradius + 3.0   # exp(-pi dist^2) < 1e-12 beyond
    env = unit_ball_volume(k) * radius ** k
    normals, offsets = poly.expanded_constraints()
    scale = np.linalg.norm(normals, axis=1)
    normals = normals / scale[:, None]
    offsets = offsets / scale
    total = 0.0
    total_sq = 0.0
    hits = 0
    for pts in _sample_chunks(samples, seed, k, radius):
        dist = dykstra_distances(pts, normals, offsets, 10 ** 4, 1e-9)
        vals = np.exp(-math.pi * dist ** 2)
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        hits += int(np.count_nonzero(dist == 0.0))
    mean_v = total / samples
    var_v = max(total_sq / samples - mean_v ** 2, 0.0)
    return McEstimate(
        mean=env * mean_v,
        std_error=env * math.sqrt(var_v / samples),
        samples=samples,
        seed=seed,
        hit_rate=hits / samples,
    )


def _sphere_grid(count):
    """Fibonacci lattice of count points on S^2."""
    i = np.arange(count) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def v1_oracle(poly):
    """First intrinsic volume from the Qhull hull; supports k <= EXACT_MAX_K.
    V_1 is the length for k = 1, half the perimeter for k = 2, and for k = 3
    the sum over edges of length times exterior angle, over 2 pi."""
    verts, hull = _hull(poly)
    if hull is None:
        return float(np.ptp(verts))
    if poly.k == 2:
        return 0.5 * float(hull.area)
    # triangle i meets neighbors[i, m] along the edge opposite its vertex m
    ends = verts[hull.simplices[:, [[1, 2], [2, 0], [0, 1]]]]
    length = np.linalg.norm(ends[:, :, 0] - ends[:, :, 1], axis=2)
    n_i = hull.equations[:, None, :3]
    n_j = hull.equations[hull.neighbors, :3]
    angle = np.arctan2(np.linalg.norm(np.cross(n_i, n_j), axis=2),
                       np.sum(n_i * n_j, axis=2))
    return float(np.sum(length * angle) / (4.0 * math.pi))  # each edge twice
