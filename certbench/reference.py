"""Reference quantities computed apart from slicebound.

Everything here uses numpy and scipy only and takes the body as raw data
(contact vectors, alphas, a subspace basis), so that agreement with the
program's bounds and oracles is evidence, not a copy of its arithmetic.

A section of the symmetric body {x : |<x, v_j>| <= 1 for all j} by a
subspace with orthonormal basis rows B is {y in R^k : |<y, B v_j>| <= 1};
an l_1 ball sum_j alpha_j |<x, v_j>| <= 1 is the same kind of polytope
written with one halfspace per sign pattern.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard
from scipy.spatial import ConvexHull, HalfspaceIntersection

V1_DIRECTIONS = 1 << 15      # sphere directions for the mean-width estimate
POLAR_DIRECTIONS = 1 << 17   # sphere directions for k >= 3 l_p volumes
POLAR_GRID_2D = 1 << 16      # angles on [0, pi) for k = 2 l_p volumes
_REF_SEED = 20251014         # fixed: the reference never shares a stream


@dataclass(frozen=True)
class Estimate:
    """A reference value with its standard error (0 when exact)."""

    value: float
    sigma: float = 0.0


def unit_ball_volume(k):
    return math.pi ** (k / 2.0) / math.gamma(1.0 + k / 2.0)


def orthonormal_basis(rows):
    """Orthonormal rows spanning the given rows (the benchmark's own QR)."""
    q, _ = np.linalg.qr(np.asarray(rows, dtype=float).T)
    return q.T


def hadamard_vectors(k, n):
    """The 2k contact vectors of the Hadamard system in R^n: the columns
    of the first n rows of a Sylvester matrix of order 2k, over sqrt(n)."""
    return hadamard(2 * k)[:n].T / math.sqrt(n)


def simplex_vectors(n):
    """n + 1 unit vectors in R^n with pairwise inner products -1/n."""
    centred = np.eye(n + 1) - 1.0 / (n + 1)
    _, _, vt = np.linalg.svd(centred)
    coords = centred @ vt[:n].T           # coordinates in the hyperplane
    return coords / np.linalg.norm(coords, axis=1)[:, None]


def symmetric_halfspaces(vectors, basis):
    """Rows a with {y : <a, y> <= 1} for the section of {|<x, v_j>| <= 1}."""
    w = np.asarray(vectors, dtype=float) @ np.asarray(basis, dtype=float).T
    w = w[np.linalg.norm(w, axis=1) > 1e-12]
    return np.vstack([w, -w])


def l1_halfspaces(vectors, alphas, basis):
    """Rows for the section of {sum_j alpha_j |<x, v_j>| <= 1}."""
    w = (np.asarray(alphas, dtype=float)[:, None]
         * (np.asarray(vectors, dtype=float) @ np.asarray(basis).T))
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(w))))
    return signs @ w


@dataclass(frozen=True)
class Polytope:
    """Exact geometry of a bounded polytope {y : A y <= 1} around 0."""

    vertices: np.ndarray
    volume: float
    boundary: float          # perimeter (k = 2) or surface area (k = 3)

    @property
    def k(self):
        return self.vertices.shape[1]


def polytope(rows):
    """Vertices, volume and boundary measure of {y : rows @ y <= 1}."""
    rows = np.unique(np.round(np.asarray(rows, dtype=float), 14), axis=0)
    k = rows.shape[1]
    halfspaces = np.hstack([rows, -np.ones((len(rows), 1))])
    hs = HalfspaceIntersection(halfspaces, np.zeros(k))
    # From k = 4 on, random sections with hundreds of vertices can stop
    # Qhull on precision errors; joggled input ("QJ") always completes and
    # moved volumes by under 1e-7 relative in trials, far inside the
    # Monte-Carlo checks that are all that use them there.
    hull = ConvexHull(hs.intersections, qhull_options="QJ" if k >= 4 else None)
    return Polytope(hs.intersections[hull.vertices], float(hull.volume),
                    float(hull.area))


def intrinsic_v1(poly, n_dirs=V1_DIRECTIONS):
    """First intrinsic volume.  Exact at k = 2 (half the perimeter); above
    that V_1 = k w_k / w_{k-1} times the mean support function over the
    sphere, estimated from fixed random directions with its standard error.
    """
    k = poly.k
    if k == 2:
        return Estimate(poly.boundary / 2.0)
    g = np.random.default_rng(_REF_SEED).standard_normal((n_dirs, k))
    g /= np.linalg.norm(g, axis=1)[:, None]
    h = (g @ poly.vertices.T).max(axis=1)
    factor = k * unit_ball_volume(k) / unit_ball_volume(k - 1)
    return Estimate(factor * float(h.mean()),
                    factor * float(h.std(ddof=1)) / math.sqrt(n_dirs))


def wills_value(poly):
    """Wills functional sum_i V_i by the Steiner/Hadwiger identity, k <= 3."""
    v1 = intrinsic_v1(poly)
    if poly.k == 2:
        return Estimate(poly.volume + v1.value + 1.0)
    if poly.k == 3:
        return Estimate(poly.volume + poly.boundary / 2.0 + v1.value + 1.0,
                        v1.sigma)
    raise ValueError(f"Wills reference implemented for k <= 3, got {poly.k}")


def ellipsoid_volume(vectors, alphas, basis):
    """Section of {sum_j alpha_j <x, v_j>^2 <= 1}: w_k / sqrt(det Gram)."""
    w = np.asarray(vectors, dtype=float) @ np.asarray(basis, dtype=float).T
    gram = (np.asarray(alphas, dtype=float)[:, None] * w).T @ w
    k = gram.shape[0]
    return unit_ball_volume(k) / math.sqrt(float(np.linalg.det(gram)))


def lp_volume(vectors, alphas, p, basis):
    """Section of {sum_j alpha_j |<x, v_j>|^p <= 1} by the polar formula
    vol = w_k E_u[rho(u)^k], rho = 1/norm.  k = 2 integrates the angle on
    a trapezoid grid (error from halving the grid); k >= 3 averages over
    fixed random directions (standard error)."""
    w = np.asarray(vectors, dtype=float) @ np.asarray(basis, dtype=float).T
    alphas = np.asarray(alphas, dtype=float)
    k = w.shape[1]

    def rho_k(u):
        norm = (np.abs(u @ w.T) ** p @ alphas) ** (1.0 / p)
        return norm ** (-float(k))

    if k == 2:
        theta = np.arange(POLAR_GRID_2D) * (math.pi / POLAR_GRID_2D)
        vals = rho_k(np.column_stack([np.cos(theta), np.sin(theta)]))
        fine = math.pi * float(vals.mean())
        coarse = math.pi * float(vals[::2].mean())
        return Estimate(fine, abs(fine - coarse))
    g = np.random.default_rng(_REF_SEED).standard_normal((POLAR_DIRECTIONS, k))
    g /= np.linalg.norm(g, axis=1)[:, None]
    vals = rho_k(g)
    vk = unit_ball_volume(k)
    return Estimate(vk * float(vals.mean()),
                    vk * float(vals.std(ddof=1)) / math.sqrt(len(vals)))


def binomial_sigma(volume, envelope, samples):
    """Standard error of a hit-or-miss estimate of volume in envelope."""
    rate = min(max(volume / envelope, 0.0), 1.0)
    return envelope * math.sqrt(rate * (1.0 - rate) / samples)
