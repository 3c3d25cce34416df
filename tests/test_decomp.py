import numpy as np
import pytest

from slicebound import (
    JohnDecomposition,
    StructuralError,
    Subspace,
    cube_decomposition,
    hadamard_decomposition,
    lift,
    lift_nonsymmetric,
    project,
    simplex_decomposition,
    validate,
)
from slicebound.decomp import _complete, op_norm_residual


def random_rotation(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestValidate:
    def test_cube_passes(self):
        report = validate(cube_decomposition(4))
        assert report.passed
        assert report.identity_residual < 1e-12
        assert report.checks["centering"]

    def test_hadamard_passes(self):
        assert validate(hadamard_decomposition(4, 6)).passed

    def test_trace_equals_dim(self):
        d = simplex_decomposition(5)
        assert abs(d.weights.sum() - 5) < 1e-12

    def test_bad_weights_rejected(self):
        with pytest.raises(StructuralError):
            JohnDecomposition(2, np.eye(2), np.array([1.0, -1.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            JohnDecomposition(3, np.eye(2), np.ones(2))

    def test_non_unit_vectors_flagged(self):
        d = JohnDecomposition(2, 2.0 * np.eye(2), np.ones(2))
        report = validate(d)
        assert not report.checks["unit_norms"]
        assert not report.passed

    def test_roundtrip_dict(self):
        d = cube_decomposition(3)
        d2 = JohnDecomposition.from_dict(d.to_dict())
        assert np.allclose(d.vectors, d2.vectors)
        assert d2.centered

    def test_missing_field(self):
        with pytest.raises(StructuralError):
            JohnDecomposition.from_dict({"dim": 2})


class TestSubspace:
    def test_coordinate(self):
        H = Subspace.coordinate(4, [1, 3])
        assert H.k == 2
        assert np.allclose(H.basis @ H.basis.T, np.eye(2))

    def test_complement_orthogonal(self):
        rng = np.random.default_rng(0)
        H = Subspace.random(5, 2, rng)
        comp = _complete(H.basis, 5)
        assert comp.shape == (3, 5)
        assert np.abs(H.basis @ comp.T).max() < 1e-12

    def test_orthogonal_to(self):
        H = Subspace.orthogonal_to([[1.0, 1.0, 1.0]])
        assert H.k == 2
        assert np.abs(H.basis @ np.ones(3)).max() < 1e-12

    def test_non_orthonormal_input_fixed(self):
        H = Subspace(3, np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        assert np.allclose(H.basis @ H.basis.T, np.eye(2))

    def test_dependent_rows_rejected(self):
        with pytest.raises(StructuralError):
            Subspace(3, np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))

    def test_embed_project_consistency(self):
        rng = np.random.default_rng(1)
        H = Subspace.random(6, 3, rng)
        x = rng.standard_normal(6)
        coords = H.basis @ x
        # embedding the coordinates reproduces the orthogonal projection
        proj_x = coords @ H.basis
        assert np.allclose(proj_x, H.basis.T @ H.basis @ x)
        assert np.allclose(H.basis @ (x - proj_x), 0.0)

    @pytest.mark.parametrize("indices", [[-1], [3], [5], [0.5], [1.0],
                                         [True], [0, "1"]])
    def test_bad_coordinate_index_rejected(self, indices):
        # -1 would silently pick e_2; 5 and 0.5 would fail while indexing
        with pytest.raises(StructuralError, match="coordinate index"):
            Subspace.coordinate(3, indices)
        with pytest.raises(StructuralError, match="coordinate index"):
            Subspace.from_dict({"coordinate": indices}, 3)

    def test_numpy_integer_indices(self):
        H = Subspace.coordinate(3, np.arange(1, 3))
        assert np.array_equal(H.basis, np.eye(3)[1:])

    def test_empty_or_oversized_subspace_rejected(self):
        with pytest.raises(StructuralError, match="at least one"):
            Subspace(3, np.zeros((0, 3)))
        for k in (0, 4):
            with pytest.raises(StructuralError, match="1 <= k <= 3"):
                Subspace.random(3, k, np.random.default_rng(2))
        with pytest.raises(StructuralError, match="at least one"):
            Subspace.orthogonal_to(np.eye(3))

    def test_from_dict_variants(self):
        assert Subspace.from_dict({"coordinate": [0]}, 3).k == 1
        assert Subspace.from_dict({"orthogonal_to": [[0, 0, 1.0]]}, 3).k == 2
        assert Subspace.from_dict({"basis": [[1.0, 0, 0]]}, 3).k == 1
        with pytest.raises(StructuralError):
            Subspace.from_dict({}, 3)


class TestProject:
    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        d = cube_decomposition(5)
        H = Subspace.random(5, 3, rng)
        proj = project(d, H)
        assert abs(proj.tilde_weights.sum() - 3) < 1e-10
        assert proj.identity_residual() < 1e-10

    def test_unit_directions(self):
        rng = np.random.default_rng(3)
        proj = project(simplex_decomposition(4), Subspace.random(4, 2, rng))
        norms = np.linalg.norm(proj.directions, axis=1)
        assert np.abs(norms - 1).max() < 1e-12

    def test_coordinate_cube_support(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0, 1]))
        # +-e_3 drop out of the support
        assert proj.m0 == 4
        assert np.allclose(proj.tilde_weights, 0.5)
        assert np.allclose(proj.thresholds, 1.0)

    def test_threshold_times_tilde_weight(self):
        # tc_j * t_j = c_j |P_H v_j| by construction
        rng = np.random.default_rng(4)
        d = hadamard_decomposition(4, 5)
        H = Subspace.random(5, 2, rng)
        proj = project(d, H)
        norms = np.linalg.norm(d.vectors[proj.support] @ H.basis.T, axis=1)
        assert np.allclose(proj.tilde_weights * proj.thresholds,
                           proj.weights * norms)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        d = cube_decomposition(4)
        H = Subspace.random(4, 2, rng)
        rot = random_rotation(4, rng)
        d_rot = JohnDecomposition(4, d.vectors @ rot.T, d.weights, True)
        H_rot = Subspace(4, H.basis @ rot.T)
        p1 = project(d, H)
        p2 = project(d_rot, H_rot)
        assert np.allclose(np.sort(p1.tilde_weights),
                           np.sort(p2.tilde_weights))

    def test_ambient_mismatch(self):
        with pytest.raises(StructuralError):
            project(cube_decomposition(3), Subspace.coordinate(4, [0]))


class TestLift:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (5, 2), (5, 4)])
    def test_frame_orthonormal(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        proj = project(cube_decomposition(n), Subspace.random(n, k, rng))
        lf = lift(proj)
        m0 = proj.m0
        assert lf.frame.shape == (m0, m0)
        assert np.allclose(lf.frame @ lf.frame.T, np.eye(m0), atol=1e-10)

    def test_projection_of_frame(self):
        # the first k coordinates of x_j recover sqrt(tc_j) u_j
        rng = np.random.default_rng(11)
        proj = project(hadamard_decomposition(4, 6),
                       Subspace.random(6, 3, rng))
        lf = lift(proj)
        expected = np.sqrt(proj.tilde_weights)[:, None] * proj.directions
        assert np.allclose(lf.frame[:, :proj.k], expected, atol=1e-10)

    def test_complement_resolves_identity(self):
        rng = np.random.default_rng(12)
        proj = project(cube_decomposition(4), Subspace.random(4, 2, rng))
        lf = lift(proj)
        mat = (lf.defect_weights[:, None] * lf.complement_vectors).T @ (
            lf.complement_vectors)
        assert op_norm_residual(mat, np.eye(proj.m0 - proj.k)) < 1e-10

    def test_bad_projection_rejected(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0, 1]))
        broken = type(proj)(
            subspace=proj.subspace,
            support=proj.support,
            directions=proj.directions,
            tilde_weights=proj.tilde_weights * 1.5,
            thresholds=proj.thresholds,
            weights=proj.weights,
        )
        with pytest.raises(StructuralError):
            lift(broken)

    def test_deterministic(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0]))
        f1 = lift(proj).frame
        f2 = lift(proj).frame
        assert np.array_equal(f1, f2)


class TestNonsymLift:
    def test_lifted_identity(self):
        d = simplex_decomposition(3)
        F = Subspace.coordinate(3, [0, 1])
        nl = lift_nonsymmetric(d, F)
        n = 3
        mat = (nl.lifted_weights[:, None] * nl.lifted_vectors).T \
            @ nl.lifted_vectors
        assert np.allclose(mat, np.eye(n + 1), atol=1e-10)
        assert abs(nl.lifted_weights.sum() - (n + 1)) < 1e-10

    def test_kappa_sums_to_k_plus_1(self):
        rng = np.random.default_rng(13)
        d = simplex_decomposition(4)
        F = Subspace.random(4, 2, rng)
        nl = lift_nonsymmetric(d, F)
        assert abs(nl.kappa.sum() - 3) < 1e-10
        assert nl.k == 2

    def test_uncentered_rejected(self):
        with pytest.raises(StructuralError, match="centered"):
            lift_nonsymmetric(cube_decomposition(3, one_sided=True),
                              Subspace.coordinate(3, [0]))

    def test_directions_unit(self):
        d = simplex_decomposition(2)
        F = Subspace.coordinate(2, [0])
        nl = lift_nonsymmetric(d, F)
        assert np.allclose(np.linalg.norm(nl.directions, axis=1), 1.0)
