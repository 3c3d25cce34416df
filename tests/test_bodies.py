import math

import numpy as np
import pytest

from slicebound import (
    DomainError,
    HPolytopeSection,
    KpBall,
    StructuralError,
    Subspace,
    cross_polytope_ball,
    cube_decomposition,
    hadamard_decomposition,
    hadamard_section_exact,
    nonsym_section_polytope,
    project,
    section_polytope,
    simplex_decomposition,
    sylvester_hadamard,
    validate,
)
from slicebound._kernels import count_inside
from slicebound.bodies import vol_ball_p, vol_simplex_inradius1


class TestSylvesterHadamard:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
    def test_orthogonal_columns(self, order):
        h = sylvester_hadamard(order)
        assert np.allclose(h.T @ h, order * np.eye(order))
        assert np.all(np.abs(h) == 1)

    @pytest.mark.parametrize("order", [0, 3, 6, 12])
    def test_bad_order(self, order):
        with pytest.raises(DomainError):
            sylvester_hadamard(order)


class TestHadamardDecomposition:
    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (4, 4),
                                     (4, 6), (4, 8)])
    def test_valid_system(self, k, n):
        d = hadamard_decomposition(k, n)
        assert d.m == 2 * k
        assert validate(d).passed

    def test_regime_check(self):
        with pytest.raises(StructuralError):
            hadamard_decomposition(2, 5)
        with pytest.raises(StructuralError):
            hadamard_decomposition(2, 1)

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (4, 6)])
    def test_exact_section_closed_form(self, k, n):
        assert hadamard_section_exact(k, n) == pytest.approx(
            (n / k) ** (k / 2) * 2 ** k, rel=1e-12)


class TestSectionPolytope:
    def test_cube_coordinate_dedupes(self):
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0, 1]))
        poly = section_polytope(proj)
        # +-e_j pairs collapse to one symmetric constraint each
        assert poly.normals.shape == (2, 2)
        assert poly.symmetric

    def test_contains(self):
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0, 1]))
        poly = section_polytope(proj)
        inside = [count_inside(y[None], poly.normals, poly.offsets,
                               poly.symmetric) == 1
                  for y in np.array([[0.0, 0.0], [0.5, -0.5], [1.5, 0.0]])]
        assert inside == [True, True, False]

    def test_circumradius_is_valid_envelope(self):
        rng = np.random.default_rng(8)
        d = hadamard_decomposition(4, 6)
        proj = project(d, Subspace.random(6, 3, rng))
        poly = section_polytope(proj)
        # vertices of the section, the ends of its edges, must fit inside
        # the envelope ball
        from slicebound.oracle import _hull
        _, ends, _ = _hull(poly)
        assert np.linalg.norm(ends, axis=2).max() <= poly.circumradius + 1e-9

    def test_expanded_constraints(self):
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0]))
        poly = section_polytope(proj)
        normals, offsets = poly.expanded_constraints()
        assert normals.shape[0] == 2 * poly.normals.shape[0]
        assert len(offsets) == normals.shape[0]


class TestNonsymSectionPolytope:
    def test_simplex_full_space(self):
        d = simplex_decomposition(2)
        F = Subspace.coordinate(2, [0, 1])
        poly = nonsym_section_polytope(d, F)
        assert not poly.symmetric
        assert poly.normals.shape[0] == 3
        assert count_inside(np.zeros((1, 2)), poly.normals, poly.offsets,
                            poly.symmetric) == 1

    def test_uncentered_rejected(self):
        with pytest.raises(StructuralError):
            nonsym_section_polytope(cube_decomposition(2, one_sided=True),
                                    Subspace.coordinate(2, [0]))


class TestCanonicalDecompositions:
    def test_cube_two_sided(self):
        d = cube_decomposition(4)
        assert d.m == 8
        assert d.centered
        assert validate(d).passed

    def test_cube_one_sided(self):
        d = cube_decomposition(4, one_sided=True)
        assert d.m == 4
        assert validate(d).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_simplex(self, n):
        d = simplex_decomposition(n)
        assert d.m == n + 1
        assert validate(d).passed
        gram = d.vectors @ d.vectors.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / n)


class TestKpBall:
    def test_cross_polytope_norm(self):
        ball = cross_polytope_ball(3)
        x = np.array([0.5, -0.25, 0.25])
        assert ball.norm(x)[0] == pytest.approx(1.0, rel=1e-12)

    def test_p2_cube_system_is_euclidean(self):
        ball = KpBall(cube_decomposition(3, one_sided=True), 2.0, np.ones(3))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3))
        assert np.allclose(ball.norm(x), np.linalg.norm(x, axis=1))

    def test_validation(self):
        d = cube_decomposition(2, one_sided=True)
        with pytest.raises(StructuralError):
            KpBall(d, 3.0, np.ones(2))
        with pytest.raises(StructuralError):
            KpBall(d, 1.5, np.ones(3))
        with pytest.raises(StructuralError):
            KpBall(d, 1.5, np.array([1.0, -1.0]))


class TestReferenceVolumes:
    def test_ball_volumes(self):
        assert vol_ball_p(3, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert vol_ball_p(2, 2.0) == pytest.approx(math.pi, rel=1e-12)
        assert vol_ball_p(4, 2.0) == pytest.approx(math.pi ** 2 / 2,
                                                   rel=1e-12)

    def test_simplex_volumes(self):
        # inradius-1 regular simplex: segment of length 2, triangle 3 sqrt 3
        assert vol_simplex_inradius1(1) == pytest.approx(2.0, rel=1e-12)
        assert vol_simplex_inradius1(2) == pytest.approx(3 * math.sqrt(3),
                                                         rel=1e-12)
