"""Weighted unit-vector systems resolving the identity, subspaces, projections
and orthonormal-frame lifts.

A decomposition is a system ``(c_j, v_j)`` of positive weights and unit
vectors with ``sum_j c_j v_j (x) v_j = Id``.  Projecting onto a subspace H
induces a decomposition on H with weights ``tc_j = c_j * |P_H v_j|^2``; that
projected system can be lifted to an orthonormal frame of R^{m0} splitting as
``sqrt(tc_j) u_j  (+)  sqrt(1 - tc_j) w_j``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

TOL_UNIT = 1e-8
TOL_IDENTITY = 1e-8
TOL_PROJ = 1e-9
GS_PIVOT_TOL = 1e-8


def op_norm_residual(mat, target):
    """Operator-norm distance between a symmetric matrix and a target."""
    diff = np.asarray(mat, dtype=float) - target
    diff = 0.5 * (diff + diff.T)
    if diff.size == 0:
        return 0.0
    eig = np.linalg.eigvalsh(diff)
    return float(max(abs(eig[0]), abs(eig[-1])))


@dataclass(frozen=True)
class JohnDecomposition:
    """System (c_j, v_j) with sum c_j v_j (x) v_j = Id_n.

    vectors: (m, n) array of unit rows; weights: (m,) positive.
    centered asserts sum c_j v_j = 0 in addition.
    """

    dim: int
    vectors: np.ndarray
    weights: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if v.shape[1] != self.dim:
            raise StructuralError(
                f"vectors have dimension {v.shape[1]}, expected {self.dim}"
            )
        if v.shape[0] != w.shape[0]:
            raise StructuralError("weights/vectors length mismatch")
        if np.any(w <= 0):
            raise StructuralError("weights must be positive")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "weights", w)

    @property
    def m(self):
        return self.vectors.shape[0]

    def identity_residual(self):
        mat = (self.weights[:, None] * self.vectors).T @ self.vectors
        return op_norm_residual(mat, np.eye(self.dim))

    def centering_residual(self):
        return float(np.linalg.norm(self.weights @ self.vectors))

    def centering_holds(self):
        return self.centering_residual() <= TOL_IDENTITY

    def to_dict(self):
        return {
            "dim": self.dim,
            "vectors": self.vectors.tolist(),
            "weights": self.weights.tolist(),
            "centered": self.centered,
        }

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(
                dim=int(d["dim"]),
                vectors=np.asarray(d["vectors"], dtype=float),
                weights=np.asarray(d["weights"], dtype=float),
                centered=bool(d.get("centered", False)),
            )
        except KeyError as exc:
            raise StructuralError(f"missing field {exc} in decomposition") from exc


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    unit_residual: float
    identity_residual: float
    trace_residual: float
    centering_residual: float
    checks: dict = field(default_factory=dict)


def validate(decomp):
    """Check the identity-resolution invariants, returning residuals."""
    if decomp.dim < 1:
        raise StructuralError("dim must be >= 1")
    if decomp.m < decomp.dim:
        raise StructuralError("need at least dim vectors")
    unit_res = float(np.abs(np.linalg.norm(decomp.vectors, axis=1) - 1.0).max())
    id_res = decomp.identity_residual()
    trace_res = float(abs(decomp.weights.sum() - decomp.dim))
    cent_res = decomp.centering_residual()
    checks = {
        "unit_norms": unit_res <= TOL_UNIT,
        "identity_resolution": id_res <= TOL_IDENTITY,
        "trace": trace_res <= TOL_IDENTITY,
    }
    if decomp.centered:
        checks["centering"] = decomp.centering_holds()
    return ValidationReport(
        passed=all(checks.values()),
        unit_residual=unit_res,
        identity_residual=id_res,
        trace_residual=trace_res,
        centering_residual=cent_res,
        checks=checks,
    )


def _gram_schmidt(out, candidates, tol):
    """Gram-Schmidt of the candidate rows against the orthonormal rows in
    the list out, appending each normalized residual longer than tol until
    out spans the space; returns the appended rows."""
    n = np.shape(candidates)[1]
    added = []
    for r in candidates:
        if len(out) == n:
            break
        v = np.array(r, dtype=float)
        for b in out:
            v -= (v @ b) * b
        # second pass for numerical stability
        for b in out:
            v -= (v @ b) * b
        nrm = np.linalg.norm(v)
        if nrm > tol:
            out.append(v / nrm)
            added.append(out[-1])
    return np.array(added) if added else np.zeros((0, n))


def _orthonormalize(rows, tol=1e-12):
    """Gram-Schmidt on the given rows, dropping near-dependent ones."""
    return _gram_schmidt([], rows, tol)


def _complete(rows, n):
    """Rows completing the orthonormal rows to a basis of R^n, found by
    Gram-Schmidt of e_0, e_1, ... in index order against them."""
    # copies: dots with row views of a transposed array round differently
    out = [np.array(r, dtype=float) for r in rows]
    comp = _gram_schmidt(out, np.eye(n), GS_PIVOT_TOL)
    if len(rows) + len(comp) != n:
        raise StructuralError("orthonormal completion failed")
    return comp


@dataclass(frozen=True)
class Subspace:
    """k-dimensional subspace of R^n with orthonormal basis rows (k, n)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.shape[1] != self.ambient_dim:
            raise StructuralError("basis rows must have length ambient_dim")
        if b.shape[0] == 0:
            raise StructuralError("a subspace needs at least one basis row")
        ortho = _orthonormalize(b)
        if ortho.shape[0] != b.shape[0]:
            raise StructuralError("basis rows are linearly dependent")
        gram_res = op_norm_residual(ortho @ ortho.T, np.eye(ortho.shape[0]))
        if gram_res > TOL_UNIT:
            raise StructuralError("could not orthonormalize basis")
        object.__setattr__(self, "basis", ortho)

    @property
    def k(self):
        return self.basis.shape[0]

    @classmethod
    def coordinate(cls, ambient_dim, indices):
        idx = list(indices)
        b = np.zeros((len(idx), ambient_dim))
        for r, i in enumerate(idx):
            if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
                    or not 0 <= i < ambient_dim):
                raise StructuralError(
                    f"coordinate index {i!r} is not an integer in "
                    f"[0, {ambient_dim})")
            b[r, i] = 1.0
        return cls(ambient_dim, b)

    @classmethod
    def orthogonal_to(cls, normals):
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        n = a.shape[1]
        return cls(n, _complete(_orthonormalize(a), n))

    @classmethod
    def random(cls, ambient_dim, k, rng):
        if not 1 <= k <= ambient_dim:
            raise StructuralError(f"need 1 <= k <= {ambient_dim}, got k={k}")
        g = rng.standard_normal((k, ambient_dim))
        return cls(ambient_dim, _orthonormalize(g))

    @classmethod
    def from_dict(cls, d, ambient_dim):
        if "basis" in d:
            return cls(ambient_dim, np.asarray(d["basis"], dtype=float))
        if "coordinate" in d:
            return cls.coordinate(ambient_dim, d["coordinate"])
        if "orthogonal_to" in d:
            return cls.orthogonal_to(np.asarray(d["orthogonal_to"], dtype=float))
        raise StructuralError(
            "subspace spec needs one of: basis, coordinate, orthogonal_to"
        )


@dataclass(frozen=True)
class ProjectedDecomposition:
    """Decomposition induced on a subspace H.

    directions are unit vectors in H-coordinates (m0, k);
    tilde_weights tc_j = c_j |P_H v_j|^2; thresholds t_j = |P_H v_j|^{-1}.
    """

    subspace: Subspace
    support: np.ndarray          # indices into the parent decomposition
    directions: np.ndarray
    tilde_weights: np.ndarray
    thresholds: np.ndarray
    weights: np.ndarray          # parent c_j restricted to the support
    near_threshold: tuple = ()

    @property
    def m0(self):
        return len(self.support)

    @property
    def k(self):
        return self.subspace.k

    def identity_residual(self):
        mat = (self.tilde_weights[:, None] * self.directions).T @ self.directions
        return op_norm_residual(mat, np.eye(self.k))


def project(decomp, H):
    """Project a decomposition onto subspace H, keeping indices with
    ``|P_H v_j| > TOL_PROJ`` (relative threshold on unit vectors)."""
    if H.ambient_dim != decomp.dim:
        raise StructuralError("subspace ambient dimension mismatch")
    coords = decomp.vectors @ H.basis.T      # (m, k)
    norms = np.linalg.norm(coords, axis=1)
    keep = norms > TOL_PROJ
    near = np.flatnonzero((norms > TOL_PROJ * 0.1) & (norms <= TOL_PROJ * 10))
    support = np.flatnonzero(keep)
    dirs = coords[keep] / norms[keep][:, None]
    tc = decomp.weights[keep] * norms[keep] ** 2
    t = 1.0 / norms[keep]
    return ProjectedDecomposition(
        subspace=H,
        support=support,
        directions=dirs,
        tilde_weights=tc,
        thresholds=t,
        weights=decomp.weights[keep],
        near_threshold=tuple(int(i) for i in near),
    )


@dataclass(frozen=True)
class Lift:
    """Orthonormal frame (x_j) of R^{m0} with P_H x_j = sqrt(tc_j) u_j,
    H embedded as the first k coordinates.  complement_vectors w_j are the
    normalized H-perp parts, for indices with tc_j < 1."""

    frame: np.ndarray                 # (m0, m0), rows are x_j
    complement_vectors: np.ndarray    # (len(j1), m0 - k)
    complement_indices: np.ndarray    # positions within the support with tc < 1
    defect_weights: np.ndarray        # 1 - tc_j on complement_indices
    k: int


def lift(proj):
    """Lift a projected decomposition to an orthonormal frame of R^{m0}."""
    m0, k = proj.m0, proj.k
    if m0 < k:
        raise StructuralError(f"need m0 >= k, got m0={m0}, k={k}")
    rows = np.sqrt(proj.tilde_weights)[None, :] * proj.directions.T  # (k, m0)
    gram_res = op_norm_residual(rows @ rows.T, np.eye(k))
    if gram_res > TOL_IDENTITY:
        raise StructuralError(
            f"projected system rows not orthonormal (residual {gram_res:.3e})"
        )
    comp = _complete(rows, m0)
    for v in comp:
        # sign rule: the first nonzero entry of a completed row is positive
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            v *= -1.0
    frame = np.vstack([rows, comp]).T      # first k rows of the basis span H
    defect = 1.0 - proj.tilde_weights
    j1 = np.flatnonzero(defect > TOL_PROJ)
    comp = frame[j1, k:] / np.sqrt(defect[j1])[:, None]
    return Lift(
        frame=frame,
        complement_vectors=comp,
        complement_indices=j1,
        defect_weights=defect[j1],
        k=k,
    )


@dataclass(frozen=True)
class NonsymLift:
    """One-dimension-up lift of a centered decomposition.

    lifted vectors v_j = sqrt(n/(n+1)) (-u_j, 1/sqrt(n)) with weights
    delta_j = (n+1)/n c_j resolve the identity in R^{n+1}; the subspace F of
    R^n lifts to H = F x {0} + span(e_{n+1}) of dimension k+1.
    """

    lifted_vectors: np.ndarray     # (m, n+1)
    lifted_weights: np.ndarray     # (m,)
    lifted_subspace: Subspace      # in R^{n+1}
    support: np.ndarray
    kappa: np.ndarray
    directions: np.ndarray         # unit P_H v_j in H-coordinates

    @property
    def n(self):
        return self.lifted_vectors.shape[1] - 1

    @property
    def k(self):
        return self.lifted_subspace.k - 1


def lift_nonsymmetric(decomp, F):
    """Lift a centered decomposition and a subspace F one dimension up."""
    if not decomp.centering_holds():
        raise StructuralError("decomposition not centered (residual "
                              f"{decomp.centering_residual():.3e})")
    n = decomp.dim
    if F.ambient_dim != n:
        raise StructuralError("subspace ambient dimension mismatch")
    scale = np.sqrt(n / (n + 1.0))
    lifted = scale * np.hstack(
        [-decomp.vectors, np.full((decomp.m, 1), 1.0 / np.sqrt(n))]
    )
    delta = (n + 1.0) / n * decomp.weights
    hb = np.zeros((F.k + 1, n + 1))
    hb[: F.k, :n] = F.basis
    hb[F.k, n] = 1.0
    proj = project(JohnDecomposition(n + 1, lifted, delta),
                   Subspace(n + 1, hb))
    return NonsymLift(
        lifted_vectors=lifted,
        lifted_weights=delta,
        lifted_subspace=proj.subspace,
        support=proj.support,
        kappa=proj.tilde_weights,
        directions=proj.directions,
    )
