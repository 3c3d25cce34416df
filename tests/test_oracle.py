import math

import numpy as np
import pytest

from slicebound import (
    DegenerateRegimeError,
    StructuralError,
    Subspace,
    cross_polytope_ball,
    cube_decomposition,
    exact_volume_smallk,
    hadamard_decomposition,
    kp_ball,
    mc_kp_section_volume,
    mc_volume,
    nonsym_section_polytope,
    parseval_check,
    project,
    section_polytope,
    simplex_decomposition,
    v1_oracle,
    wills_oracle,
)
from slicebound.bodies import HPolytopeSection, vol_simplex_inradius1
from slicebound import oracle
from slicebound._kernels import count_inside
from slicebound.oracle import (McEstimate, _complement_integral, _hull,
                               _sample_chunks, _sphere_grid)


def square_section(n=2):
    proj = project(cube_decomposition(n), Subspace.coordinate(n, [0, 1]))
    return section_polytope(proj)


def diagonal_segment():
    proj = project(cube_decomposition(2), Subspace(2, np.array([[1.0, 1.0]])))
    return section_polytope(proj)


class TestMcEstimate:
    def test_within(self):
        est = McEstimate(mean=1.0, std_error=0.1, samples=1000, seed=0,
                         hit_rate=0.5)
        assert est.within(1.25)
        assert not est.within(1.5)


class TestMcVolume:
    def test_square(self):
        est = mc_volume(square_section(), 10 ** 5, seed=1)
        assert est.within(4.0)
        assert est.std_error < 0.05

    def test_diagonal_segment(self):
        # the envelope coincides with the segment: hit rate 1, zero variance
        est = mc_volume(diagonal_segment(), 10 ** 5, seed=2)
        assert est.mean == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert est.std_error == 0.0

    def test_hadamard_section(self):
        proj = project(hadamard_decomposition(2, 3),
                       Subspace.coordinate(3, [0, 1]))
        est = mc_volume(section_polytope(proj), 2 * 10 ** 5, seed=3)
        assert est.within(6.0)

    def test_deterministic(self):
        poly = square_section()
        # chunked sampling must give bit-identical streams per seed
        e1 = mc_volume(poly, 2 * 10 ** 5, seed=7)
        e2 = mc_volume(poly, 2 * 10 ** 5, seed=7)
        assert e1.mean == e2.mean
        assert e1.hit_rate == e2.hit_rate
        e3 = mc_volume(poly, 2 * 10 ** 5, seed=8)
        assert e3.mean != e1.mean

    def test_sample_floor(self):
        with pytest.raises(StructuralError):
            mc_volume(square_section(), 10, seed=0)

    def test_unbounded_rejected(self):
        half = HPolytopeSection(
            subspace=Subspace.coordinate(1, [0]),
            normals=np.array([[1.0]]),
            offsets=np.array([1.0]),
            symmetric=False,
            circumradius=10.0,
        )
        with pytest.raises(StructuralError):
            mc_volume(half, 10 ** 4, seed=0)

    def test_unbounded_wedge_rejected(self):
        # the normals span the plane but not positively: a thin wedge
        t = math.pi - 1e-6
        wedge = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.array([[1.0, 0.0], [math.cos(t), math.sin(t)]]),
            offsets=np.array([1.0, 1.0]),
            symmetric=False,
            circumradius=10.0,
        )
        with pytest.raises(StructuralError):
            mc_volume(wedge, 10 ** 4, seed=0)
        with pytest.raises(StructuralError):
            exact_volume_smallk(wedge)

    def test_no_hit_raises(self):
        # a 2e-4 square in a radius-100 envelope: 1000 samples all miss
        tiny = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.eye(2),
            offsets=np.array([1e-4, 1e-4]),
            symmetric=True,
            circumradius=100.0,
        )
        with pytest.raises(DegenerateRegimeError):
            mc_volume(tiny, 1000, seed=0)

    def test_rank_deficient_rejected(self):
        slab = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.array([[1.0, 0.0]]),
            offsets=np.array([1.0]),
            symmetric=True,
            circumradius=10.0,
        )
        with pytest.raises(StructuralError):
            mc_volume(slab, 10 ** 4, seed=0)


class TestExactVolume:
    def test_square_and_cube(self):
        assert exact_volume_smallk(square_section()) == pytest.approx(4.0)
        proj = project(cube_decomposition(3),
                       Subspace.coordinate(3, [0, 1, 2]))
        assert exact_volume_smallk(section_polytope(proj)) == pytest.approx(
            8.0)

    def test_segment(self):
        assert exact_volume_smallk(diagonal_segment()) == pytest.approx(
            2.0 * math.sqrt(2.0))

    def test_simplex_triangle(self):
        d = simplex_decomposition(2)
        poly = nonsym_section_polytope(d, Subspace.coordinate(2, [0, 1]))
        assert exact_volume_smallk(poly) == pytest.approx(
            vol_simplex_inradius1(2), rel=1e-9)

    def test_off_origin_square(self):
        # [1, 2]^2 written one-sided: the origin lies outside the polytope
        square = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.array([[1.0, 0.0], [-1.0, 0.0],
                              [0.0, 1.0], [0.0, -1.0]]),
            offsets=np.array([2.0, -1.0, 2.0, -1.0]),
            symmetric=False,
            circumradius=3.0,
        )
        assert exact_volume_smallk(square) == pytest.approx(1.0, rel=1e-12)

    def test_high_dim_rejected(self):
        proj = project(cube_decomposition(4), Subspace.coordinate(4, range(4)))
        with pytest.raises(StructuralError):
            exact_volume_smallk(section_polytope(proj))

    def test_flat_section_raises(self):
        # |y_2| <= 0 flattens the square to a segment: no area to report
        flat = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.eye(2),
            offsets=np.array([1.0, 0.0]),
            symmetric=True,
            circumradius=2.0,
        )
        with pytest.raises(DegenerateRegimeError):
            exact_volume_smallk(flat)

    def test_vertex_enumeration(self):
        verts, hull = _hull(square_section())
        assert verts.shape == (4, 2)
        assert len(hull.vertices) == 4
        assert np.allclose(np.abs(verts), 1.0)


class TestMcKpSection:
    def test_cross_polytope_full(self):
        ball = cross_polytope_ball(2)
        H = Subspace.coordinate(2, [0, 1])
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 5, seed=4)
        assert est.within(2.0)

    def test_euclidean_plane_section(self):
        ball = kp_ball(cube_decomposition(3, one_sided=True), 2.0, np.ones(3))
        H = Subspace.random(3, 2, np.random.default_rng(5))
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 5, seed=5)
        assert est.within(math.pi)

    def test_deterministic(self):
        ball = cross_polytope_ball(3)
        H = Subspace.coordinate(3, [0, 1])
        e1 = mc_kp_section_volume(ball, H, 10 ** 5, seed=6)
        e2 = mc_kp_section_volume(ball, H, 10 ** 5, seed=6)
        assert e1.mean == e2.mean


class TestParseval:
    def test_trivial_complement(self):
        # coordinate section of the one-sided system: m0 = k, pure product
        proj = project(cube_decomposition(3, one_sided=True),
                       Subspace.coordinate(3, [0, 1]))
        lhs, rhs, gates = parseval_check(proj)
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert rhs == pytest.approx(4.0, abs=1e-12)
        assert not gates["mc_rhs"]

    def test_diagonal_line_d1(self):
        proj = project(cube_decomposition(2, one_sided=True),
                       Subspace(2, np.array([[1.0, 1.0]])))
        lhs, rhs, gates = parseval_check(proj)
        assert lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert abs(lhs - rhs) < 1e-10
        assert gates["rank_full"] and gates["factor_count"]
        assert not gates["mc_rhs"]

    def test_diagonal_line_d2(self):
        proj = project(cube_decomposition(3, one_sided=True),
                       Subspace(3, np.array([[1.0, 1.0, 1.0]])))
        lhs, rhs, gates = parseval_check(proj)
        assert lhs == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert abs(lhs - rhs) < 1e-8
        assert not gates["mc_rhs"]

    def test_plane_d1(self):
        proj = project(cube_decomposition(3, one_sided=True),
                       Subspace(3, np.array([[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 1.0]])))
        lhs, rhs, gates = parseval_check(proj)
        assert abs(lhs - rhs) < 1e-10
        assert not gates["mc_rhs"]

    def test_symmetric_cube_diag_d3(self):
        # two-sided system: complement dimension 3 uses the sphere-grid
        # angular average, reported through the mc_rhs flag
        proj = project(cube_decomposition(2),
                       Subspace(2, np.array([[1.0, 1.0]])))
        lhs, rhs, gates = parseval_check(proj)
        assert gates["mc_rhs"]
        assert lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert abs(lhs - rhs) < 0.02 * lhs

    def test_large_complement_rejected(self):
        # a random line in R^5 keeps all 10 vectors: complement dimension 9
        proj = project(cube_decomposition(5),
                       Subspace.random(5, 1, np.random.default_rng(14)))
        with pytest.raises(StructuralError):
            parseval_check(proj)


class TestComplementIntegral:
    def test_degenerate_direction_nudged(self, monkeypatch):
        # at e_1 the frequencies 1, 1, 2 of the three factors cancel, so the
        # radial integral diverges there and is taken at a nudged direction;
        # the value was recorded from a one-direction-at-a-time evaluation
        grid = oracle._sphere_grid
        monkeypatch.setattr(oracle, "_sphere_grid", lambda count: np.vstack(
            [grid(200), [[1.0, 0.0, 0.0]]]))
        w = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [2.0, 0.0, 1.0]])
        value, on_grid = _complement_integral(np.ones(3), np.ones(3), w, 3)
        assert on_grid
        assert value == pytest.approx(156.4608970830287, rel=1e-12)


class TestWillsOracle:
    def test_segment(self):
        # Wills functional of [-1, 1] is 3
        est = wills_oracle(diagonal_segment(), 2 * 10 ** 5, seed=9)
        # the diagonal segment has length 2 sqrt 2, Wills value 1 + 2 sqrt 2
        assert est.within(1.0 + 2.0 * math.sqrt(2.0))

    def test_square(self):
        est = wills_oracle(square_section(), 10 ** 5, seed=10)
        assert est.within(9.0)
        assert est.std_error < 0.2

    def test_deterministic(self):
        poly = square_section()
        e1 = wills_oracle(poly, 5 * 10 ** 4, seed=11)
        e2 = wills_oracle(poly, 5 * 10 ** 4, seed=11)
        assert e1.mean == e2.mean

    def test_hit_rate_is_inside_fraction(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, range(3)))
        poly = section_polytope(proj)
        samples = 5 * 10 ** 4
        est = wills_oracle(poly, samples, seed=12)
        radius = poly.circumradius + 3.0
        inside = sum(count_inside(pts, poly.normals, poly.offsets, True)
                     for pts in _sample_chunks(samples, 12, 3, radius))
        assert est.hit_rate == inside / samples
        # the cube [-1, 1]^3 fills 8 / (4/3 pi radius^3) of the ball
        share = 8.0 / (4.0 / 3.0 * math.pi * radius ** 3)
        assert est.hit_rate == pytest.approx(
            share, abs=5.0 * math.sqrt(share * (1.0 - share) / samples))


class TestV1Oracle:
    def test_square_and_cube(self):
        assert v1_oracle(square_section()) == pytest.approx(4.0, rel=1e-12)
        proj = project(cube_decomposition(3),
                       Subspace.coordinate(3, [0, 1, 2]))
        assert v1_oracle(section_polytope(proj)) == pytest.approx(6.0,
                                                                  rel=1e-12)

    def test_segment_length(self):
        assert v1_oracle(diagonal_segment()) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-10)

    def test_high_dim_rejected(self):
        proj = project(cube_decomposition(4), Subspace.coordinate(4, range(4)))
        with pytest.raises(StructuralError):
            v1_oracle(section_polytope(proj))


class TestSphereGrid:
    def test_unit_norm(self):
        dirs = _sphere_grid(500)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_mean_near_zero(self):
        dirs = _sphere_grid(4000)
        assert np.abs(dirs.mean(axis=0)).max() < 1e-2


def _count_inside_impl(points, normals, offsets, symmetric):
    # scalar reference loop for the vectorized kernel
    n_pts = points.shape[0]
    n_con = normals.shape[0]
    count = 0
    for i in range(n_pts):
        ok = True
        for c in range(n_con):
            s = 0.0
            for d in range(points.shape[1]):
                s += normals[c, d] * points[i, d]
            if symmetric:
                if abs(s) > offsets[c]:
                    ok = False
                    break
            else:
                if s > offsets[c]:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def _dykstra_distances_impl(points, normals, offsets, max_iter, tol):
    # scalar reference loop: Dykstra's cyclic projection one point at a
    # time, each point with its own stopping test
    n_pts = points.shape[0]
    n_con = normals.shape[0]
    dim = points.shape[1]
    dists = np.empty(n_pts)
    y = np.empty(dim)
    incr = np.empty((n_con, dim))
    w = np.empty(dim)
    for i in range(n_pts):
        for d in range(dim):
            y[d] = points[i, d]
        for c in range(n_con):
            for d in range(dim):
                incr[c, d] = 0.0
        for it in range(max_iter):
            shift = 0.0
            for c in range(n_con):
                for d in range(dim):
                    w[d] = y[d] + incr[c, d]
                s = 0.0
                for d in range(dim):
                    s += normals[c, d] * w[d]
                excess = s - offsets[c]
                if excess > 0.0:
                    for d in range(dim):
                        y[d] = w[d] - excess * normals[c, d]
                else:
                    for d in range(dim):
                        y[d] = w[d]
                for d in range(dim):
                    delta = w[d] - y[d]
                    diff = delta - incr[c, d]
                    if abs(diff) > shift:
                        shift = abs(diff)
                    incr[c, d] = delta
            if shift < tol:
                break
        s = 0.0
        for d in range(dim):
            s += (points[i, d] - y[d]) ** 2
        dists[i] = np.sqrt(s)
    return dists


class TestKernelPaths:
    def test_count_inside_matches_fallback(self):
        from slicebound._kernels import count_inside
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((5000, 2)) * 1.5
        poly = square_section()
        fast = count_inside(pts, poly.normals, poly.offsets, poly.symmetric)
        ref = _count_inside_impl(pts, poly.normals, poly.offsets,
                                 poly.symmetric)
        assert fast == ref

    def test_dykstra_matches_fallback(self):
        from slicebound._kernels import dykstra_distances
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((200, 2)) * 2.0
        poly = square_section()
        normals, offsets = poly.expanded_constraints()
        fast = dykstra_distances(pts, normals, offsets, 10 ** 4, 1e-10)
        ref = _dykstra_distances_impl(pts, normals, offsets, 10 ** 4, 1e-10)
        assert np.abs(fast - ref).max() < 1e-8

    def test_dykstra_square_distances(self):
        from slicebound._kernels import dykstra_distances
        poly = square_section()
        normals, offsets = poly.expanded_constraints()
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [-3.0, 1.5]])
        dists = dykstra_distances(pts, normals, offsets, 10 ** 4, 1e-12)
        expected = [0.0, 1.0, math.sqrt(2.0), 2.0 + 0.5 * 0.0]
        expected[3] = math.sqrt(2.0 ** 2 + 0.5 ** 2)
        assert np.allclose(dists, expected, atol=1e-6)
