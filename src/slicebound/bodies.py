"""Canonical constructions: cube and cross-polytope systems, the Hadamard
extremal polytope, the regular simplex, generalized l_p balls, and
H-representation polytopes restricted to a subspace."""

import math
from dataclasses import dataclass

import numpy as np

from .decomp import JohnDecomposition, Subspace
from .errors import DomainError, StructuralError

DEDUP_TOL = 1e-10


@dataclass(frozen=True)
class HPolytopeSection:
    """Polytope in subspace coordinates: {y : <y, a_i> <= b_i}.

    When symmetric, each (a_i, b_i) stands for the pair +-a_i.
    circumradius is an a-priori bound on the Euclidean norm over the body.
    It is the scale below which a section counts as flat, and it bounds the
    slabs of a one-sided polytope in the parallelotope that the Monte-Carlo
    volume and Wills oracles sample.
    """

    subspace: Subspace
    normals: np.ndarray
    offsets: np.ndarray
    symmetric: bool
    circumradius: float

    @property
    def k(self):
        return self.normals.shape[1]

    def expanded_constraints(self):
        """Return (normals, offsets) with symmetric pairs written out."""
        if self.symmetric:
            return (
                np.vstack([self.normals, -self.normals]),
                np.concatenate([self.offsets, self.offsets]),
            )
        return self.normals, self.offsets


def sylvester_hadamard(order):
    """Sylvester Hadamard matrix of the given power-of-two order."""
    if order < 1 or order & (order - 1) != 0:
        raise DomainError(f"order must be a power of 2, got {order}")
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def hadamard_decomposition(k, n):
    """Extremal system of 2k unit vectors in R^n with weights n/(2k).

    Built from the upper n x 2k submatrix of the Sylvester matrix of order
    2k; requires k <= n <= 2k and k a power of 2.
    """
    if not k <= n <= 2 * k:
        raise StructuralError(f"need k <= n <= 2k, got k={k}, n={n}")
    h2k = sylvester_hadamard(2 * k)
    b = h2k[:n, :]
    vectors = (b / math.sqrt(n)).T          # columns -> rows
    weights = np.full(2 * k, n / (2.0 * k))
    return JohnDecomposition(dim=n, vectors=vectors, weights=weights,
                             centered=False)


def hadamard_section_exact(k, n):
    """Exact volume of the coordinate k-section of the Hadamard polytope.

    Returns (n/k)^(k/2) * 2^k and cross-checks it against the determinant
    route |det W| * (2 sqrt(n/k))^k with W = H_k / sqrt(k).
    """
    closed = (n / k) ** (k / 2.0) * 2.0 ** k
    w = sylvester_hadamard(k) / math.sqrt(k)
    det_route = abs(np.linalg.det(w)) * (2.0 * math.sqrt(n / k)) ** k
    if abs(det_route - closed) > 1e-9 * closed:
        raise StructuralError(
            f"determinant route disagrees: {det_route} vs {closed}"
        )
    return closed


def _dedupe_signed(normals, offsets):
    """Drop duplicate +-pairs: rows equal up to sign with equal offsets."""
    keep_n, keep_o = [], []
    for a, b in zip(normals, offsets):
        nz = np.flatnonzero(np.abs(a) > DEDUP_TOL)
        canon = a if (nz.size == 0 or a[nz[0]] > 0) else -a
        dup = False
        for a2, b2 in zip(keep_n, keep_o):
            if abs(b - b2) <= DEDUP_TOL and np.abs(canon - a2).max() <= DEDUP_TOL:
                dup = True
                break
        if not dup:
            keep_n.append(canon)
            keep_o.append(b)
    return np.array(keep_n), np.array(keep_o)


def section_polytope(proj):
    """H-representation of {x in H : |<x, u_j>| <= t_j} in H-coordinates."""
    normals, offsets = _dedupe_signed(proj.directions, proj.thresholds)
    return HPolytopeSection(
        subspace=proj.subspace,
        normals=normals,
        offsets=offsets,
        symmetric=True,
        circumradius=math.sqrt(float(proj.weights.sum())),
    )


def nonsym_section_polytope(decomp, F):
    """Section {x in F : <x, v_j> <= 1} of the contact polytope, in
    F-coordinates.  The centered identity forces a circumradius <= 2n."""
    if not decomp.centering_holds():
        raise StructuralError("nonsymmetric sections require a centered system")
    normals = decomp.vectors @ F.basis.T
    keep = np.linalg.norm(normals, axis=1) > 1e-12
    return HPolytopeSection(
        subspace=F,
        normals=normals[keep],
        offsets=np.ones(int(keep.sum())),
        symmetric=False,
        circumradius=2.0 * decomp.dim,
    )


def cube_decomposition(n, one_sided=False):
    """Contact system of the unit cube: {+-e_j, c=1/2}, or the one-sided
    variant {e_j, c=1} resolving the same identity with m = n."""
    eye = np.eye(n)
    if one_sided:
        return JohnDecomposition(n, eye, np.ones(n), centered=False)
    vectors = np.vstack([eye, -eye])
    return JohnDecomposition(n, vectors, np.full(2 * n, 0.5), centered=True)


def simplex_decomposition(n):
    """Contact system of the regular simplex: n+1 unit vectors with pairwise
    inner product -1/n and weights n/(n+1); centered."""
    if n < 1:
        raise StructuralError("n must be >= 1")
    # orthonormal basis of the hyperplane sum=0 in R^{n+1}, deterministic
    ones = np.ones(n + 1) / math.sqrt(n + 1)
    q, _ = np.linalg.qr(
        np.eye(n + 1) - np.outer(ones, ones)
    )
    # keep the n columns not parallel to ones
    cols = [c for c in q.T if abs(c @ ones) < 1e-8][:n]
    q = np.array(cols).T                      # (n+1, n), orthonormal columns
    vectors = math.sqrt((n + 1.0) / n) * q    # rows are the n+1 unit vectors
    return JohnDecomposition(
        n, vectors, np.full(n + 1, n / (n + 1.0)), centered=True
    )


@dataclass(frozen=True)
class KpBall:
    """Unit ball of (sum_j alpha_j |<x, v_j>|^p)^(1/p) for a decomposition
    system and positive scalars alpha_j, p in [1, 2]."""

    decomp: JohnDecomposition
    p: float
    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        a = np.asarray(self.alphas, dtype=float).ravel()
        if not 1.0 <= self.p <= 2.0:
            raise StructuralError(f"p must lie in [1, 2], got {self.p}")
        if a.shape[0] != self.decomp.m:
            raise StructuralError("alphas length must match decomposition")
        if np.any(a <= 0):
            raise StructuralError("alphas must be positive")
        object.__setattr__(self, "alphas", a)

    def norm(self, x):
        return self.norm_from_dots(self.decomp.vectors @ np.atleast_2d(x).T)

    def norm_from_dots(self, dots):
        """The norm of the points whose dot products <x, v_j> are the rows
        of the (m, N) array dots, which it overwrites."""
        np.abs(dots, out=dots)
        dots **= self.p
        return (self.alphas @ dots) ** (1.0 / self.p)


def cross_polytope_ball(n):
    """B_1^n as a KpBall: v_j = e_j, c_j = 1, alpha_j = 1, p = 1."""
    return KpBall(cube_decomposition(n, one_sided=True), 1.0, np.ones(n))


def vol_ball_p(k, p):
    """Volume of the unit l_p ball in R^k."""
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** k / math.gamma(1.0 + k / p)


def vol_simplex_inradius1(k):
    """Volume of the regular k-simplex with inradius 1:
    k^(k/2) (k+1)^((k+1)/2) / k!."""
    return k ** (k / 2.0) * (k + 1.0) ** ((k + 1) / 2.0) / math.factorial(k)
