import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from slicebound import (
    DegenerateRegimeError,
    DomainError,
    JohnDecomposition,
    KpBall,
    StructuralError,
    Subspace,
    cross_polytope_ball,
    cube_decomposition,
    exact_volume_smallk,
    hadamard_decomposition,
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
from slicebound._kernels import (count_inside, dykstra_distances,
                                 exact_distances)
from slicebound.oracle import (_ball_points, _complement_integral, _hull,
                               _sample_chunks, _slab_envelope, _sphere_grid,
                               unit_ball_volume)


def square_section(n=2):
    proj = project(cube_decomposition(n), Subspace.coordinate(n, [0, 1]))
    return section_polytope(proj)


def diagonal_segment():
    proj = project(cube_decomposition(2), Subspace(2, np.array([[1.0, 1.0]])))
    return section_polytope(proj)


class TestMcVolume:
    def test_square(self):
        est = mc_volume(square_section(), 10 ** 5, seed=1)
        assert abs(4.0 - est.mean) <= 3 * est.std_error
        assert est.std_error < 0.05

    def test_diagonal_segment(self):
        # the envelope coincides with the segment: hit rate 1, where the
        # error is the Wilson score half-width env / (2 (n + 1)), not 0
        n = 10 ** 5
        est = mc_volume(diagonal_segment(), n, seed=2)
        assert est.hit_rate == 1.0
        assert est.mean == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert est.std_error > 0.0
        assert est.std_error == pytest.approx(
            2.0 * math.sqrt(2.0) / (2.0 * (n + 1)), rel=1e-12)

    def test_hadamard_section(self):
        proj = project(hadamard_decomposition(2, 3),
                       Subspace.coordinate(3, [0, 1]))
        est = mc_volume(section_polytope(proj), 2 * 10 ** 5, seed=3)
        assert abs(6.0 - est.mean) <= 3 * est.std_error

    def test_deterministic(self):
        # the hexagon, not the square: the square is its own envelope, so
        # every seed would give exactly 4
        poly = SECTIONS["hexagon"]
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
        # a 2e-4 square written one-sided with circumradius 100: its slabs
        # [-100, 1e-4] cut a 1e4 envelope, and 1000 samples all miss
        tiny = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.vstack([np.eye(2), -np.eye(2)]),
            offsets=np.full(4, 1e-4),
            symmetric=False,
            circumradius=100.0,
        )
        with pytest.raises(DegenerateRegimeError):
            mc_volume(tiny, 1000, seed=0)

    def test_flat_slab_raises(self):
        # |y_2| <= 0: a slab of width 0 cuts no envelope to sample
        flat = HPolytopeSection(
            subspace=Subspace.coordinate(2, [0, 1]),
            normals=np.eye(2),
            offsets=np.array([1.0, 0.0]),
            symmetric=True,
            circumradius=2.0,
        )
        with pytest.raises(DegenerateRegimeError):
            mc_volume(flat, 10 ** 4, seed=0)

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
        volume, ends, share = _hull(square_section())
        assert volume == pytest.approx(4.0, rel=1e-12)
        assert ends.shape == (4, 2, 2)
        assert np.allclose(np.abs(ends), 1.0)
        assert len(np.unique(ends.reshape(-1, 2), axis=0)) == 4
        assert np.array_equal(share, np.full(4, 0.5))


class TestMcKpSection:
    def test_cross_polytope_full(self):
        ball = cross_polytope_ball(2)
        H = Subspace.coordinate(2, [0, 1])
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 5, seed=4)
        assert abs(2.0 - est.mean) <= 3 * est.std_error

    def test_euclidean_plane_section(self):
        ball = KpBall(cube_decomposition(3, one_sided=True), 2.0, np.ones(3))
        H = Subspace.random(3, 2, np.random.default_rng(5))
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 5, seed=5)
        assert abs(math.pi - est.mean) <= 3 * est.std_error

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

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(case=st.sampled_from([
        (cube_decomposition(4, one_sided=True), 3),
        (cube_decomposition(4, one_sided=True), 2),
        (cube_decomposition(5, one_sided=True), 3),
        (simplex_decomposition(3), 2),
        (hadamard_decomposition(2, 4), 2)]),
        seed=st.integers(0, 2 ** 32 - 1))
    def test_random_sections_d1_d2(self, case, seed):
        # the one-sided cube(n) at k = n - 1 or n - 2, and the simplex(3)
        # and Hadamard(2, 4) systems (four factors each) at k = 2:
        # complement dimension 1 or 2 and an exact lhs, so the identity
        # holds to the rhs's 1e-9
        system, k = case
        proj = project(system, Subspace.random(
            system.dim, k, np.random.default_rng(seed)))
        lhs, rhs, gates = parseval_check(proj)
        assert not gates["mc_rhs"]
        assert abs(lhs - rhs) <= 1e-9

    def test_large_complement_rejected(self):
        # a random line in R^5 keeps all 10 vectors: complement dimension 9
        proj = project(cube_decomposition(5),
                       Subspace.random(5, 1, np.random.default_rng(14)))
        with pytest.raises(StructuralError):
            parseval_check(proj)


class TestComplementIntegral:
    def test_d2_quadrature_failure_raises(self, monkeypatch):
        # QUADPACK returns a fourth value, its message, when it does not
        # converge; the d = 2 rhs must fail loudly instead of using the value
        message = "The integral is probably divergent, or slowly convergent."
        monkeypatch.setattr(oracle.integrate, "quad",
                            lambda *args, **kw: (48.0, 2.5e-3, {}, message))
        proj = project(cube_decomposition(3, one_sided=True),
                       Subspace(3, np.array([[1.0, 1.0, 1.0]])))
        with pytest.raises(DegenerateRegimeError, match="probably divergent"):
            parseval_check(proj)

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

    def test_d2_more_cuts_than_quad_limit(self, monkeypatch):
        # 10 generic factors give 10 kinks and 2^9 knots, past quad's
        # default subinterval limit; with the sine-product integral
        # replaced by the product of the betas every radial value is
        # prod_j 2 a_j, so the integral over the plane is 2 pi times that
        monkeypatch.setattr(oracle, "_sinc_product_integrals",
                            lambda betas, q: np.prod(betas, axis=1))
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 1.5, 10)
        w = rng.standard_normal((10, 2))
        value, on_grid = _complement_integral(a, np.ones(10), w, 2)
        assert not on_grid
        assert value == pytest.approx(2.0 * math.pi * np.prod(2.0 * a),
                                      rel=1e-12)

    def test_divergent_after_nudge_raises(self, monkeypatch):
        # a radial integral that is still divergent at the nudged direction
        monkeypatch.setattr(oracle, "_sinc_product_integrals",
                            lambda betas, q: np.full(len(betas), np.nan))
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            _complement_integral(np.ones(3), np.ones(3), w, 2)


class TestWillsOracle:
    def test_segment(self):
        # Wills functional of [-1, 1] is 3
        est = wills_oracle(diagonal_segment(), 2 * 10 ** 5, seed=9)
        # the diagonal segment has length 2 sqrt 2, Wills value 1 + 2 sqrt 2
        assert abs(1.0 + 2.0 * math.sqrt(2.0) - est.mean) <= 3 * est.std_error

    def test_square(self):
        est = wills_oracle(square_section(), 10 ** 5, seed=10)
        assert abs(9.0 - est.mean) <= 3 * est.std_error
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

    @pytest.mark.parametrize("name", ["hexagon", "cube", "cube5_k1",
                                      "cube5_k2"])
    def test_exact_matches_dykstra_path(self, name, monkeypatch):
        # the same sample stream through the Dykstra path, which
        # EXACT_MAX_K = 0 selects at every k
        poly = SECTIONS[name]
        exact = wills_oracle(poly, 2 * 10 ** 4, seed=5)
        monkeypatch.setattr(oracle, "EXACT_MAX_K", 0)
        dykstra = wills_oracle(poly, 2 * 10 ** 4, seed=5)
        assert exact.mean == pytest.approx(dykstra.mean, rel=1e-10)
        assert exact.std_error == pytest.approx(dykstra.std_error, rel=1e-10)
        assert exact.hit_rate == dykstra.hit_rate

    def test_checks_boundedness_once(self, monkeypatch):
        calls = []
        check = oracle._check_bounded

        def counted(poly):
            calls.append(poly.k)
            return check(poly)

        monkeypatch.setattr(oracle, "_check_bounded", counted)
        wills_oracle(square_section(), 1000, seed=3)
        assert calls == [2]
        proj = project(cube_decomposition(4), Subspace.coordinate(4, range(4)))
        wills_oracle(section_polytope(proj), 1000, seed=3)
        assert calls == [2, 4]

    def test_dykstra_path_cube4(self):
        # k = 4 is above EXACT_MAX_K; the Wills functional of [-1, 1]^4 is 81
        proj = project(cube_decomposition(4), Subspace.coordinate(4, range(4)))
        est = wills_oracle(section_polytope(proj), 10 ** 5, seed=13)
        assert abs(81.0 - est.mean) <= 5.0 * est.std_error
        assert est.std_error < 2.0


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


def _rotated(system, H, seed):
    """The system and subspace under one random rotation of R^n, with the
    subspace's basis also turned by a random orthogonal k x k map, so that
    the section is rotated in its own coordinates."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((system.dim, system.dim)))[0]
    R = np.linalg.qr(rng.standard_normal((H.k, H.k)))[0]
    turned = JohnDecomposition(system.dim, system.vectors @ Q.T,
                               system.weights, system.centered)
    return turned, Subspace(H.ambient_dim, R @ H.basis @ Q.T)


class TestHullPrimitive:
    """Volume and V_1 from _hull against closed forms, with no Monte-Carlo
    tolerance.  On squares and cubes exterior and interior angles are both
    pi/2; the octahedron and tetrahedron tell them apart."""

    def test_regular_octahedron(self):
        # the symmetric full-space section of simplex(3): |<x, v_j>| <= 1
        poly = section_polytope(project(simplex_decomposition(3),
                                        Subspace.coordinate(3, range(3))))
        assert exact_volume_smallk(poly) == pytest.approx(
            4.0 * math.sqrt(3.0), rel=1e-12)
        assert v1_oracle(poly) == pytest.approx(
            6.0 * math.sqrt(6.0) * math.acos(1.0 / 3.0) / math.pi, rel=1e-12)
        _, ends, share = _hull(poly)
        assert len(ends) == 12
        assert share == pytest.approx(
            np.full(12, math.acos(1.0 / 3.0) / (2.0 * math.pi)), rel=1e-12)

    def test_regular_tetrahedron(self):
        poly = nonsym_section_polytope(simplex_decomposition(3),
                                       Subspace.coordinate(3, range(3)))
        assert exact_volume_smallk(poly) == pytest.approx(
            8.0 * math.sqrt(3.0), rel=1e-12)
        assert v1_oracle(poly) == pytest.approx(
            6.0 * math.sqrt(6.0) * (math.pi - math.acos(1.0 / 3.0)) / math.pi,
            rel=1e-12)
        assert len(_hull(poly)[1]) == 6

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rotation_invariant(self, k, symmetric):
        system = (cube_decomposition(5) if symmetric
                  else simplex_decomposition(4))
        H = Subspace.random(system.dim, k, np.random.default_rng(40 + k))
        turned, turned_H = _rotated(system, H, seed=50 + k)

        def section(system, H):
            if symmetric:
                return section_polytope(project(system, H))
            return nonsym_section_polytope(system, H)

        before, after = section(system, H), section(turned, turned_H)
        assert exact_volume_smallk(after) == pytest.approx(
            exact_volume_smallk(before), rel=1e-12)
        assert v1_oracle(after) == pytest.approx(v1_oracle(before),
                                                 rel=1e-12)


def _enumerated_volume(poly):
    """Volume from brute-force vertex enumeration: every k rows of the
    expanded constraints solved as equalities, the feasible solutions kept."""
    normals, offsets = poly.expanded_constraints()
    verts = []
    for rows in itertools.combinations(range(len(normals)), poly.k):
        a = normals[list(rows)]
        if abs(np.linalg.det(a)) > 1e-9:
            x = np.linalg.solve(a, offsets[list(rows)])
            if np.all(normals @ x <= offsets + 1e-9):
                verts.append(x)
    verts = np.array(verts)
    if poly.k == 1:
        return float(np.ptp(verts))
    return ConvexHull(verts).volume


class TestSymmetricHull:
    """A symmetric section's Chebyshev centre is the origin and its inradius
    min_i b_i/|a_i|, so _hull solves no LP for it; one-sided sections keep
    the LP."""

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog on a symmetric section")

        monkeypatch.setattr(oracle, "linprog", refuse)

    @pytest.mark.parametrize("name, volume", [
        ("square", 4.0), ("hexagon", 3.0 * math.sqrt(3.0)), ("cube", 8.0)])
    def test_closed_forms(self, no_lp, name, volume):
        poly = square_section() if name == "square" else SECTIONS[name]
        assert _hull(poly)[0] == pytest.approx(volume, rel=1e-12)

    @pytest.mark.parametrize("name", [f"{s}_k{k}" for s in
                                      ("cube5", "hadamard48")
                                      for k in (1, 2, 3)])
    def test_random_sections(self, no_lp, name):
        poly = SECTIONS[name]
        assert _hull(poly)[0] == pytest.approx(_enumerated_volume(poly),
                                               rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("width", [0.0, 1e-12])
    def test_flat_raises(self, no_lp, k, width):
        # |y_k| <= width flattens the square or cube: its inradius is below
        # 1e-9 of the circumradius
        flat = HPolytopeSection(
            subspace=Subspace.coordinate(k, range(k)),
            normals=np.eye(k), offsets=np.r_[np.ones(k - 1), width],
            symmetric=True, circumradius=2.0)
        with pytest.raises(DegenerateRegimeError):
            _hull(flat)

    def test_one_sided_keeps_lp(self, monkeypatch):
        chebyshev = []
        solve = oracle.linprog

        def counted(*args, **kwargs):
            chebyshev.append("A_ub" in kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle, "linprog", counted)
        poly = nonsym_section_polytope(simplex_decomposition(3),
                                       Subspace.coordinate(3, range(3)))
        assert _hull(poly)[0] == pytest.approx(8.0 * math.sqrt(3.0),
                                               rel=1e-12)
        assert chebyshev.count(True) == 1


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 6), m=st.integers(0, 16),
           symmetric=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(k=3, m=0, symmetric=True, seed=0)
    @example(k=2, m=0, symmetric=False, seed=1)
    def test_count_inside_matches_fallback_random(self, k, m, symmetric,
                                                   seed):
        # normals, offsets and the grid points are dyadic, so every dot
        # product is exact in any summation order and the points placed on
        # a facet are exactly on it; generic float points ride along
        rng = np.random.default_rng(seed)
        normals = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (m, k))
        offsets = rng.integers(1, 25, m) / 8.0
        grid = rng.integers(-24, 25, (150, k)) / 16.0
        on_facet = []
        for c in np.flatnonzero(np.any(normals != 0.0, axis=1)):
            j = np.flatnonzero(normals[c])[0]
            for x, side in zip(rng.integers(-24, 25, (6, k)) / 16.0,
                               (1.0, -1.0) * 3):
                x[j] = 0.0
                x[j] = (side * offsets[c] - normals[c] @ x) / normals[c, j]
                assert normals[c] @ x == side * offsets[c]
                on_facet.append(x)
        on_facet = np.reshape(on_facet, (-1, k))
        pts = np.vstack([grid, on_facet, rng.standard_normal((150, k))])
        assert count_inside(pts, normals, offsets, symmetric) == \
            _count_inside_impl(pts, normals, offsets, symmetric)
        assert count_inside(on_facet, normals, offsets, symmetric) == \
            _count_inside_impl(on_facet, normals, offsets, symmetric)
        if m == 0:
            assert count_inside(pts, normals, offsets, symmetric) == len(pts)

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


HEXAGON = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
# the planes orthogonal to (1, 1, 2) and (1, 2, 3) cut cube(3) in
# parallelograms whose third pair of rows touches them only at two vertices
PLANE_112 = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -1.0]])
PLANE_123 = np.array([[2.0, -1.0, 0.0], [3.0, 0.0, -1.0]])


def _sections():
    cube3 = cube_decomposition(3)
    out = {"hexagon": section_polytope(project(cube3, Subspace(3, HEXAGON))),
           "cube": section_polytope(project(cube3,
                                            Subspace.coordinate(3, range(3))))}
    for name, basis in (("plane112", PLANE_112), ("plane123", PLANE_123)):
        out[name] = section_polytope(project(cube3, Subspace(3, basis)))
    rng = np.random.default_rng(21)
    for name, system in (("cube5", cube_decomposition(5)),
                         ("hadamard48", hadamard_decomposition(4, 8))):
        for k in (1, 2, 3):
            H = Subspace.random(system.dim, k, rng)
            out[f"{name}_k{k}"] = section_polytope(project(system, H))
    return out


SECTIONS = _sections()


def _unit_constraints(poly):
    normals, offsets = poly.expanded_constraints()
    scale = np.linalg.norm(normals, axis=1)
    return normals / scale[:, None], offsets / scale


def _exact(poly, pts):
    normals, offsets = _unit_constraints(poly)
    return exact_distances(np.asarray(pts, dtype=float), normals, offsets,
                           _hull(poly)[1])


class TestExactDistances:
    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_matches_scalar_dykstra(self, name):
        poly = SECTIONS[name]
        pts = _ball_points(np.random.default_rng(22), 150, poly.k,
                           poly.circumradius + 3.0)
        normals, offsets = _unit_constraints(poly)
        ref = _dykstra_distances_impl(pts, normals, offsets, 10 ** 5, 1e-14)
        assert np.abs(_exact(poly, pts) - ref).max() <= 1e-12

    def test_square_regions(self):
        poly = square_section()
        assert len(_hull(poly)[1]) == 4
        # inside, on the boundary, two facet regions, two vertex regions
        pts = [[0.3, -0.2], [1.0, 0.5], [0.5, 3.0], [-2.0, 0.25],
               [3.0, 3.0], [-1.5, 2.0]]
        expected = [0.0, 0.0, 2.0, 1.0, math.sqrt(8.0), math.sqrt(1.25)]
        assert _exact(poly, pts) == pytest.approx(expected, abs=1e-14)

    def test_cube_regions(self):
        poly = SECTIONS["cube"]
        # Qhull's triangulation diagonals are not edges of the cube
        assert len(_hull(poly)[1]) == 12
        # inside, on a face, facet, edge and vertex regions
        pts = [[0.1, 0.2, -0.3], [1.0, 0.5, -1.0], [0.5, 0.25, 4.0],
               [2.0, 3.0, 0.5], [-2.0, 0.0, -1.5], [-2.0, 3.0, 4.0]]
        expected = [0.0, 0.0, 3.0, math.sqrt(5.0), math.sqrt(1.25),
                    math.sqrt(14.0)]
        assert _exact(poly, pts) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("name", ["plane112", "plane123"])
    def test_redundant_rows(self, name):
        # six constraints, four edges: the rows that only touch a vertex
        # carry no segment
        poly = SECTIONS[name]
        normals, offsets = _unit_constraints(poly)
        ends = _hull(poly)[1]
        assert len(normals) == 6 and len(ends) == 4
        on_edge = [np.any(np.all(np.abs(ends @ a - b) <= 1e-12, axis=1))
                   for a, b in zip(normals, offsets)]
        assert sum(on_edge) == 4

    def test_tie_with_earlier_redundant_row(self):
        # plane112 with a copy of one facet's row put first: outside its
        # edge the copy and the facet violate equally, and the first row
        # that attains the largest violation is the copy
        poly = SECTIONS["plane112"]
        normals, offsets = _unit_constraints(poly)
        ends = _hull(poly)[1]
        f = next(c for c, (a, b) in enumerate(zip(normals, offsets))
                 if np.any(np.all(np.abs(ends @ a - b) <= 1e-12, axis=1)))
        edge = next(e for e in ends if np.all(np.abs(e @ normals[f]
                                                     - offsets[f]) <= 1e-12))
        tied_n = np.vstack([normals[f], normals])
        tied_o = np.r_[offsets[f], offsets]
        pts = (edge[0] + np.array([0.25, 0.5, 0.75])[:, None]
               * (edge[1] - edge[0])) + 0.7 * normals[f]
        excess = pts @ tied_n.T - tied_o
        assert np.all(excess[:, 0] == excess.max(axis=1))
        assert np.all(excess[:, 1 + f] == excess[:, 0])
        dist = exact_distances(pts, tied_n, tied_o, ends)
        assert dist == pytest.approx(np.full(3, 0.7), abs=1e-14)
        ref = _dykstra_distances_impl(pts, normals, offsets, 10 ** 5, 1e-14)
        assert np.abs(dist - ref).max() <= 1e-12

    def test_redundant_row_at_its_vertex(self):
        # straight out from the vertex a redundant row touches, along that
        # row's normal: the row violates most, and its foot is the vertex
        poly = SECTIONS["plane112"]
        normals, offsets = _unit_constraints(poly)
        ends = _hull(poly)[1]
        corners = np.unique(ends.reshape(-1, 2), axis=0)
        seen = 0
        for a, b in zip(normals, offsets):
            touch = corners[np.abs(corners @ a - b) <= 1e-12]
            if len(touch) == 1:                 # a vertex, not an edge
                seen += 1
                pts = touch + np.array([[0.5], [2.0]]) * a
                dist = exact_distances(pts, normals, offsets, ends)
                assert dist == pytest.approx([0.5, 2.0], abs=1e-14)
        assert seen == 2

    @pytest.mark.parametrize("name", ["hexagon", "cube", "cube5_k1",
                                      "hadamard48_k3", "plane112",
                                      "plane123"])
    def test_inside_exactly_zero(self, name):
        poly = SECTIONS[name]
        pts = _ball_points(np.random.default_rng(23), 4000, poly.k,
                           poly.circumradius)
        inside = (np.abs(pts @ poly.normals.T) <= poly.offsets).all(axis=1)
        assert inside.any() and not inside.all()
        dist = _exact(poly, pts)
        assert np.all(dist[inside] == 0.0)
        assert np.all(dist[~inside] > 0.0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(system=st.sampled_from(["cube5", "hadamard48"]),
           k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_between_violation_and_dykstra(self, system, k, seed):
        rng = np.random.default_rng(seed)
        system = (cube_decomposition(5) if system == "cube5"
                  else hadamard_decomposition(4, 8))
        poly = section_polytope(project(
            system, Subspace.random(system.dim, k, rng)))
        pts = _ball_points(rng, 200, k, poly.circumradius + 3.0)
        normals, offsets = _unit_constraints(poly)
        exact = _exact(poly, pts)
        violation = np.maximum((pts @ normals.T - offsets).max(axis=1), 0.0)
        dykstra = dykstra_distances(pts, normals, offsets, 10 ** 5, 1e-13)
        assert np.all(violation <= exact)
        assert np.all(exact <= dykstra + 1e-12)


def _ball_points_reference(rng, count, k, radius):
    # the sampler's formula written plainly: np.linalg.norm, then g / |g| * r
    g = rng.standard_normal((count, k))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / k)
    return g / norms[:, None] * r[:, None]


class TestSampleStream:
    # frozen formulas rather than hit counts: numpy does not promise that a
    # Generator's stream stays the same across versions

    @pytest.mark.parametrize("k", range(1, 8))
    def test_ball_points_unchanged(self, k):
        for seed in (0, 7, 2 ** 40 + 3):
            for count in (1, 1000, 65536):
                got = _ball_points(np.random.default_rng(seed), count, k, 1.7)
                want = _ball_points_reference(np.random.default_rng(seed),
                                              count, k, 1.7)
                assert np.array_equal(got, want)

    def test_ball_points_zero_row(self):
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

            def random(self, count):
                return np.full(count, 0.5)

        assert np.array_equal(_ball_points(Zeros(), 5, 3, 2.0),
                              np.zeros((5, 3)))

    @pytest.mark.parametrize("p", [1.0, 1.35, 2.0])
    def test_kp_norm_unchanged(self, p):
        rng = np.random.default_rng(31)
        system = hadamard_decomposition(4, 8)
        ball = KpBall(system, p, rng.uniform(0.5, 2.0, system.m))
        H = Subspace.random(system.dim, 3, rng)
        radius = math.sqrt(float(np.sum(
            system.weights * ball.alphas ** (-2.0 / p))))
        x = np.vstack([pts @ H.basis
                       for pts in _sample_chunks(4 * 10 ** 5, 8, 3, radius)])
        got = ball.norm(x)
        # (|x V^T|^p . alpha)^(1/p) over an (N, m) array
        want = ((np.abs(x @ system.vectors.T) ** p @ ball.alphas)
                ** (1.0 / p))
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        inside = np.count_nonzero(got <= 1.0)
        assert 0 < inside < len(x)
        assert inside == np.count_nonzero(want <= 1.0)
        assert ball.norm(x[0]).shape == (1,)


def _slabs(poly):
    """The slabs lo <= <a_i, y> <= hi that mc_volume cuts its envelope from:
    the constraints of a symmetric polytope, and of a one-sided one cut to
    the circumradius R, [-R |a_i|, min(b_i, R |a_i|)]."""
    if poly.symmetric:
        return -poly.offsets, poly.offsets
    reach = poly.circumradius * np.linalg.norm(poly.normals, axis=1)
    return -reach, np.minimum(poly.offsets, reach)


def _qhull(poly):
    """Vertices and volume of a polytope with the origin inside."""
    normals, offsets = poly.expanded_constraints()
    verts = HalfspaceIntersection(np.column_stack([normals, -offsets]),
                                  np.zeros(poly.k)).intersections
    return verts, ConvexHull(verts).volume


def _wilson(p, n):
    return math.sqrt(p * (1.0 - p) / n + 0.25 / n ** 2) / (1.0 + 1.0 / n)


def _highk_sections():
    rng = np.random.default_rng(41)
    out = {}
    for name, system, k in (("had48_k4", hadamard_decomposition(4, 8), 4),
                            ("had812_k5", hadamard_decomposition(8, 12), 5),
                            ("had812_k6", hadamard_decomposition(8, 12), 6),
                            ("cube6_k4", cube_decomposition(6), 4),
                            ("cube7_k6", cube_decomposition(7), 6)):
        H = Subspace.random(system.dim, k, rng)
        out[name] = section_polytope(project(system, H))
    simplex5 = simplex_decomposition(5)
    for k in (3, 4, 5):
        out[f"simplex5_k{k}"] = nonsym_section_polytope(
            simplex5, Subspace.random(5, k, rng))
    return out


HIGHK_SECTIONS = _highk_sections()


def _assert_in_envelope(poly, verts, hull_volume):
    """The vertices lie in the picked slabs, and the envelope holds at
    least the hull's volume."""
    lo, hi = _slabs(poly)
    _, _, pick, volume = _slab_envelope(poly.normals, lo, hi)
    dots = verts @ poly.normals[pick].T
    tol = 1e-12 * np.abs(hi).max()
    assert np.all(dots >= lo[pick] - tol)
    assert np.all(dots <= hi[pick] + tol)
    assert volume >= hull_volume * (1.0 - 1e-12)


class TestSlabEnvelope:
    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_hull_vertices_in_picked_slabs(self, name):
        poly = SECTIONS[name]
        hull_volume, ends, _ = _hull(poly)
        _assert_in_envelope(poly, ends.reshape(-1, poly.k), hull_volume)

    @pytest.mark.parametrize("name", sorted(HIGHK_SECTIONS))
    def test_highk_vertices_in_picked_slabs(self, name):
        poly = HIGHK_SECTIONS[name]
        _assert_in_envelope(poly, *_qhull(poly))

    def test_map_onto_parallelotope(self):
        # y(u) = M_S^-1 (u + mid_S / half_S) puts the picked rows on their
        # slabs' edges at the corners of [-1, 1]^k, and <a_i, y(u)> is
        # (C u)_i + shift_i for every row
        poly = HIGHK_SECTIONS["simplex5_k4"]
        lo, hi = _slabs(poly)
        c, shift, pick, volume = _slab_envelope(poly.normals, lo, hi)
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        m_s = poly.normals[pick] / half[pick, None]
        u = np.random.default_rng(42).choice([-1.0, 1.0], (poly.k, 64))
        y = np.linalg.solve(m_s, u + (mid / half)[pick, None])
        dots = poly.normals @ y
        assert np.allclose(dots, c @ u + shift[:, None], rtol=0, atol=1e-12)
        assert np.allclose(dots[pick], mid[pick, None] + half[pick, None] * u,
                           rtol=0, atol=1e-12)
        assert volume == pytest.approx(
            2.0 ** poly.k / abs(np.linalg.det(m_s)), rel=1e-12)

    def test_non_spanning_slabs_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(StructuralError):
            _slab_envelope(rows, -np.ones(3), np.ones(3))

    @pytest.mark.parametrize("name", ["cube7_k6", "had812_k5"])
    def test_mc_matches_qhull(self, name):
        poly = HIGHK_SECTIONS[name]
        n = 10 ** 6
        est = mc_volume(poly, n, seed=43)
        volume = _slab_envelope(poly.normals, *_slabs(poly))[3]
        assert abs(est.mean - _qhull(poly)[1]) <= 5.0 * est.std_error
        assert est.std_error == pytest.approx(
            volume * _wilson(est.hit_rate, n), rel=1e-12)
        # Python scalars, which json.dumps can write
        assert all(type(v) is float
                   for v in (est.mean, est.std_error, est.hit_rate))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_sided_simplex(self, n):
        poly = nonsym_section_polytope(simplex_decomposition(n),
                                       Subspace.coordinate(n, range(n)))
        est = mc_volume(poly, 2 * 10 ** 5, seed=44 + n)
        assert abs(est.mean - vol_simplex_inradius1(n)) <= 5.0 * est.std_error

    def test_one_sided_sections_match_qhull(self):
        for k in (3, 4, 5):
            poly = HIGHK_SECTIONS[f"simplex5_k{k}"]
            est = mc_volume(poly, 2 * 10 ** 5, seed=50 + k)
            assert abs(est.mean - _qhull(poly)[1]) <= 5.0 * est.std_error

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_kp_slabs_contain_body(self, p):
        # boundary points theta / ||theta|| of the section satisfy every
        # slab |<y, w_j>| <= alpha_j^(-1/p), not only the picked ones
        rng = np.random.default_rng(45)
        system = hadamard_decomposition(4, 6)
        ball = KpBall(system, p, rng.uniform(0.75, 1.5, system.m))
        H = Subspace.random(system.dim, 3, rng)
        theta = rng.standard_normal((2000, 3))
        y = theta / ball.norm(theta @ H.basis)[:, None]
        w = system.vectors @ H.basis.T
        half = ball.alphas ** (-1.0 / p)
        assert np.all(np.abs(y @ w.T) <= half * (1.0 + 1e-12))


class TestMcKpEnvelope:
    def test_ellipsoid_p2(self):
        rng = np.random.default_rng(46)
        system = hadamard_decomposition(4, 6)
        ball = KpBall(system, 2.0, rng.uniform(0.75, 1.5, system.m))
        H = Subspace.random(system.dim, 3, rng)
        w = system.vectors @ H.basis.T
        gram = (ball.alphas[:, None] * w).T @ w
        exact = unit_ball_volume(3) / math.sqrt(np.linalg.det(gram))
        est = mc_kp_section_volume(ball, H, 4 * 10 ** 5, seed=47)
        assert abs(est.mean - exact) <= 5.0 * est.std_error

    def test_l1_hadamard48_k4_sign_patterns(self):
        # the l_1 section is the polytope of its 2^8 sign-pattern halfspaces
        rng = np.random.default_rng(48)
        system = hadamard_decomposition(4, 8)
        ball = KpBall(system, 1.0, rng.uniform(0.75, 1.5, system.m))
        H = Subspace.random(system.dim, 4, rng)
        w = ball.alphas[:, None] * (system.vectors @ H.basis.T)
        signs = np.array(list(itertools.product((1.0, -1.0),
                                                repeat=system.m)))
        rows = signs @ w
        verts = HalfspaceIntersection(
            np.column_stack([rows, -np.ones(len(rows))]),
            np.zeros(4)).intersections
        est = mc_kp_section_volume(ball, H, 4 * 10 ** 5, seed=49)
        assert abs(est.mean - ConvexHull(verts).volume) <= \
            5.0 * est.std_error

    def test_l1_hadamard812_k5_hits(self):
        # its circumradius ball held about 4e5 times the body and drew no hit
        rng = np.random.default_rng(50)
        system = hadamard_decomposition(8, 12)
        ball = KpBall(system, 1.0, rng.uniform(0.75, 1.5, system.m))
        H = Subspace.random(system.dim, 5, rng)
        est = mc_kp_section_volume(ball, H, 4 * 10 ** 5, seed=51)
        assert est.hit_rate > 0.0
        assert math.isfinite(est.mean) and est.mean > 0.0
        assert 0.0 < est.std_error < est.mean
