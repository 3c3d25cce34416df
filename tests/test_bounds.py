import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from slicebound import (
    ALL_BOUNDS,
    DegenerateRegimeError,
    GateError,
    StructuralError,
    KpBall,
    Subspace,
    bound_ab_old,
    bound_k1_intermediate,
    bound_k1_lower,
    bound_k1_upper,
    bound_kp_lower,
    bound_kp_upper,
    bound_mean_width,
    bound_nonsym_fourier,
    bound_nonsym_hyperplane,
    bound_symmetric_case1,
    bound_symmetric_case1_coarse,
    bound_symmetric_case2,
    bound_volume_via_wills,
    bound_wills_functional,
    build_report,
    cross_polytope_ball,
    cube_decomposition,
    hadamard_decomposition,
    hadamard_section_exact,
    inputs_digest,
    lift_nonsymmetric,
    project,
    section_polytope,
    simplex_decomposition,
)
from slicebound import bounds as bounds_module
from slicebound.bodies import vol_ball_p, vol_simplex_inradius1
from slicebound.decomp import JohnDecomposition, ProjectedDecomposition
from slicebound.oracle import _hull, exact_volume_smallk
from slicebound.specfun import (
    _GAMMA_P_MIN_P,
    WILLS_G_MAX_P,
    QuadratureResult,
    WillsIntegrandParams,
    wills_g,
)

ALL_NAMES = (
    "symmetric_case1", "symmetric_case1_coarse", "symmetric_case2", "ab_old",
    "wills_volume", "wills_functional", "mean_width", "k1_upper",
    "k1_intermediate", "k1_lower", "kp_upper", "kp_lower", "nonsym_fourier",
    "nonsym_hyperplane",
)


def random_rotation(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def synthetic_projection(rng, k, m0):
    """Abstract projected system with tc_j in [1/2, 1] summing to k.

    Only the scalar data (tc, t, c) has to be consistent for the closed-form
    bounds, so directions are arbitrary unit vectors.
    """
    assert k <= m0 <= 2 * k
    # start at the uniform point and apply sum-preserving pair transfers
    # staying inside the box [1/2, 1]^m0
    tc = np.full(m0, k / m0)
    for _ in range(20 * m0):
        i, j = rng.integers(0, m0, size=2)
        if i == j:
            continue
        room = min(1.0 - tc[i], tc[j] - 0.5)
        if room <= 0:
            continue
        step = rng.random() * room
        tc[i] += step
        tc[j] -= step
    c = tc * (1.0 + rng.random(m0))       # |P_H v_j| <= 1 forces c_j >= tc_j
    dirs = rng.standard_normal((m0, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return ProjectedDecomposition(
        subspace=Subspace.coordinate(2 * k, range(k)),
        support=np.arange(m0),
        directions=dirs,
        tilde_weights=tc,
        thresholds=np.sqrt(c / tc),
        weights=c,
    )


class TestSymmetricCase1:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_cube_equality(self, n):
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(n)))
        assert bound_symmetric_case1(proj) == pytest.approx(2.0 ** n,
                                                            rel=1e-12)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3)])
    def test_coordinate_cube_equality(self, n, k):
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(k)))
        assert bound_symmetric_case1(proj) == pytest.approx(2.0 ** k,
                                                            rel=1e-12)

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (4, 6)])
    def test_hadamard_equality(self, k, n):
        proj = project(hadamard_decomposition(k, n),
                       Subspace.coordinate(n, range(k)))
        assert bound_symmetric_case1(proj) == pytest.approx(
            hadamard_section_exact(k, n), rel=1e-12)

    def test_gate_failure(self):
        # the diagonal of the square has tc_j = 1/4 < 1/2
        proj = project(cube_decomposition(2),
                       Subspace(2, np.array([[1.0, 1.0]])))
        with pytest.raises(GateError) as exc:
            bound_symmetric_case1(proj)
        assert exc.value.offending == [0, 1, 2, 3]

    def test_force_evaluates_anyway(self):
        proj = project(cube_decomposition(2),
                       Subspace(2, np.array([[1.0, 1.0]])))
        assert bound_symmetric_case1(proj, force=True) > 0


class TestSymmetricCoarse:
    def test_full_section_is_2k(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, range(3)))
        # one-sided support m0 = 2n collapses only when m0 = k; here use the
        # one-sided system so m0 = k = 3
        proj1 = project(cube_decomposition(3, one_sided=True),
                        Subspace.coordinate(3, range(3)))
        assert bound_symmetric_case1_coarse(proj1) == pytest.approx(8.0)
        # two-sided support: m0 = 6, so (n - 2k + m0)/(m0 - k) = 1
        assert bound_symmetric_case1_coarse(proj) == pytest.approx(8.0)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3), (4, 4)])
    def test_dominates_case1_on_coordinate_cubes(self, n, k):
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(k)))
        assert bound_symmetric_case1(proj) <= \
            bound_symmetric_case1_coarse(proj) + 1e-12

    def test_hadamard_coarse_is_tight(self):
        proj = project(hadamard_decomposition(4, 6),
                       Subspace.coordinate(6, range(4)))
        assert bound_symmetric_case1_coarse(proj) == pytest.approx(
            hadamard_section_exact(4, 6), rel=1e-12)


class TestSymmetricCase2:
    def test_value(self):
        assert bound_symmetric_case2(4, 3) == pytest.approx(2.0 ** 3.5)
        assert bound_symmetric_case2(4, 2) == pytest.approx(8.0)

    def test_regime_rejected(self):
        with pytest.raises(DegenerateRegimeError):
            bound_symmetric_case2(6, 2)
        with pytest.raises(DegenerateRegimeError):
            bound_symmetric_case2(3, 4)


class TestAbOld:
    def test_diagonal_square_equality(self):
        # the diagonal section of [-1,1]^2 is a segment of length 2 sqrt 2
        proj = project(cube_decomposition(2),
                       Subspace(2, np.array([[1.0, 1.0]])))
        exact = exact_volume_smallk(section_polytope(proj))
        assert exact == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert bound_ab_old(proj) == pytest.approx(exact, rel=1e-12)

    def test_no_gate(self):
        proj = project(cube_decomposition(3),
                       Subspace(3, np.array([[1.0, 1.0, 1.0]])))
        assert bound_ab_old(proj) > 0     # tc_j = 1/6, still defined


class TestKaramataOrdering:
    def test_case1_below_baseline_when_gated(self):
        # with all tc_j >= 1/2 and sum tc_j = k the refined constant wins
        rng = np.random.default_rng(42)
        for trial in range(300):
            k = int(rng.integers(1, 5))
            m0 = int(rng.integers(k, 2 * k + 1))
            proj = synthetic_projection(rng, k, m0)
            a = bound_symmetric_case1(proj)
            b = bound_ab_old(proj)
            assert a <= b * (1.0 + 1e-12)

    def test_gamma_ratio_product_bounded(self):
        # the Gamma-ratio correction keeps the sharper p=1 bound below the
        # plain one: prod (G(p-1/2)/(sqrt(1-tc) G(p)))^(1-tc) <= pi^((m0-k)/2)
        rng = np.random.default_rng(7)
        for trial in range(100):
            m0 = int(rng.integers(2, 8))
            tc = rng.random(m0)
            log_prod = 0.0
            for t in tc:
                defect = 1.0 - t
                p = 1.0 / defect
                log_prod += defect * (
                    math.lgamma(p - 0.5) - math.lgamma(p)
                    - 0.5 * math.log(defect)
                )
            assert log_prod <= (m0 - tc.sum()) / 2.0 * math.log(math.pi) + 1e-10


class TestWillsVolume:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_cube_equality(self, n):
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(n)))
        assert bound_volume_via_wills(proj) == pytest.approx(2.0 ** n,
                                                             rel=1e-10)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3)])
    def test_coordinate_cube_equality(self, n, k):
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(k)))
        assert bound_volume_via_wills(proj) == pytest.approx(2.0 ** k,
                                                             rel=1e-8)

    def test_upper_bounds_exact_sections(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, min(n, 3) + 1))
            proj = project(cube_decomposition(n), Subspace.random(n, k, rng))
            exact = exact_volume_smallk(section_polytope(proj))
            assert bound_volume_via_wills(proj) >= exact - 1e-9

    def test_uses_upper_end_of_sinc_power(self, monkeypatch):
        # each factor increases with I_p, so an upper bound takes value + error
        proj = project(cube_decomposition(3), Subspace(3, PLANE))

        def bound_with(value, error):
            monkeypatch.setattr(
                bounds_module, "sinc_power_integral",
                lambda p: QuadratureResult(value, error, 1))
            return bound_volume_via_wills(proj)

        assert bound_with(2.0, 0.5) == bound_with(2.5, 0.0)
        assert bound_with(2.0, 0.5) > bound_with(2.0, 0.0)

    @pytest.mark.parametrize("p", [1e5 + 1, 1e6, 1e8])
    def test_sinc_power_above_quadrature_range(self, p):
        # beyond SINC_POWER_MAX_P the upper end is Ball's integral inequality
        # I_p <= sqrt(2) pi / sqrt(p); check it against a 30-digit value.
        # The integrand is below exp(-p x^2 / 6) near 0, so the integral
        # beyond 32 sqrt(6/p) is below exp(-1000)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            w = mpmath.sqrt(6 / mpmath.mpf(p))
            exact = 2 * mpmath.quad(lambda x: (mpmath.sin(x) / x) ** p,
                                    [0] + [2 ** i * w for i in range(6)])
            assert mpmath.mpf(bounds_module._sinc_power_upper(p)) >= exact

    def test_one_integral_per_distinct_p(self, monkeypatch):
        # +-e_j of the cube give the same p: four distinct p from eight
        proj = project(cube_decomposition(4),
                       Subspace.random(4, 2, np.random.default_rng(6)))
        calls = []
        real = bounds_module.sinc_power_integral
        monkeypatch.setattr(bounds_module, "sinc_power_integral",
                            lambda p: calls.append(p) or real(p))
        bound_volume_via_wills(proj)
        assert len(proj.tilde_weights) == 8
        assert len(calls) == len(set(calls)) == 4


class TestWillsFunctional:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 2.0])
    def test_full_cube_equality(self, n, lam):
        # the Wills functional of [-lam, lam]^n is (1 + 2 lam)^n
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(n)))
        assert bound_wills_functional(proj, lam) == pytest.approx(
            (1.0 + 2.0 * lam) ** n, rel=1e-10)

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(6)
        proj = project(cube_decomposition(4), Subspace.random(4, 2, rng))
        vals = [bound_wills_functional(proj, lam)
                for lam in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_scale(self):
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0]))
        with pytest.raises(StructuralError):
            bound_wills_functional(proj, 0.0)

    def test_uses_upper_end_of_g(self, monkeypatch):
        # each factor increases with g, so an upper bound takes value + error
        proj = project(cube_decomposition(3), Subspace(3, PLANE))

        def bound_with(value, error):
            monkeypatch.setattr(bounds_module, "wills_g",
                                lambda params: QuadratureResult(value, error, 1))
            return bound_wills_functional(proj, 1.0)

        assert bound_with(2.0, 0.5) == bound_with(2.5, 0.0)
        assert bound_with(2.0, 0.5) > bound_with(2.0, 0.0)

    @pytest.mark.parametrize("eps", [0.05, 0.01, 1e-4])
    def test_above_wills_g_cap(self, eps):
        # a plane near a coordinate plane of the one-sided cube has a p_j
        # beyond WILLS_G_MAX_P (401 at eps = 0.05, 1e8 at 1e-4), where g
        # itself overflows; W = 1 + perimeter/2 + area of the section
        H = Subspace(3, np.array([[1.0, 0.0, eps], [0.0, 1.0, 0.0]]))
        proj = project(cube_decomposition(3, one_sided=True), H)
        defects = 1.0 - proj.tilde_weights
        assert np.max(1.0 / defects[defects >= bounds_module.LIMIT_EPS]) \
            > WILLS_G_MAX_P
        bound = bound_wills_functional(proj, 1.0)
        area, ends, _ = _hull(section_polytope(proj))
        perimeter = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).sum()
        assert math.isfinite(bound)
        assert bound >= 1.0 + perimeter / 2.0 + area

    def test_below_wills_g_cap_unchanged(self):
        # with every p_j at most WILLS_G_MAX_P the bound is the plain
        # product over the factors of g's upper end
        proj = project(cube_decomposition(4),
                       Subspace.random(4, 2, np.random.default_rng(6)))
        assert np.all(1.0 / (1.0 - proj.tilde_weights) <= WILLS_G_MAX_P)
        log_acc = -(proj.m0 - proj.k) * math.log(2.0 * math.pi)
        for tc, t in zip(proj.tilde_weights, proj.thresholds):
            defect = 1.0 - tc
            g = wills_g(WillsIntegrandParams(alpha=math.sqrt(tc) * t,
                                             p=1.0 / defect))
            log_acc += defect * math.log(
                (g.value + g.abs_error_estimate) / math.sqrt(defect))
        assert bound_wills_functional(proj, 1.0) == math.exp(log_acc)

    def test_one_g_per_distinct_factor(self, monkeypatch):
        # +-e_j of the cube give the same (alpha, p): four distinct from eight
        proj = project(cube_decomposition(4),
                       Subspace.random(4, 2, np.random.default_rng(6)))
        calls = []
        real = bounds_module.wills_g
        monkeypatch.setattr(bounds_module, "wills_g", lambda params: (
            calls.append((params.alpha, params.p)) or real(params)))
        bound_wills_functional(proj, 1.0)
        assert len(proj.tilde_weights) == 8
        assert len(calls) == len(set(calls)) == 4


class TestMeanWidth:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3)])
    def test_coordinate_cube(self, n, k):
        # V_1 of [-1,1]^k is 2k
        proj = project(cube_decomposition(n), Subspace.coordinate(n, range(k)))
        assert bound_mean_width(proj) == pytest.approx(2.0 * k, rel=1e-12)

    def test_positive_on_random(self):
        rng = np.random.default_rng(9)
        proj = project(simplex_decomposition(4), Subspace.random(4, 2, rng))
        assert bound_mean_width(proj) > 0


class TestK1Bounds:
    def test_coordinate_section_is_exact(self):
        ball = cross_polytope_ball(4)
        H = Subspace.coordinate(4, [0, 1])
        v = vol_ball_p(2, 1.0)
        assert bound_k1_upper(ball, H) == pytest.approx(v, rel=1e-12)
        assert bound_k1_intermediate(ball, H) == pytest.approx(v, rel=1e-10)

    def test_lower_degenerate_at_coordinate(self):
        ball = cross_polytope_ball(3)
        with pytest.raises(DegenerateRegimeError):
            bound_k1_lower(ball, Subspace.coordinate(3, [0, 1]))

    def test_chain_on_random_subspaces(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            ball = cross_polytope_ball(n)
            H = Subspace.random(n, k, rng)
            lo = bound_k1_lower(ball, H)
            mid = bound_k1_intermediate(ball, H)
            hi = bound_k1_upper(ball, H)
            assert 0 < lo <= mid * (1.0 + 1e-10)
            assert mid <= hi * (1.0 + 1e-10)
            assert hi <= vol_ball_p(k, 1.0) * (1.0 + 1e-10)

    def test_p_must_be_one(self):
        ball = KpBall(cube_decomposition(2, one_sided=True), 1.5, np.ones(2))
        H = Subspace.coordinate(2, [0])
        for fn in (bound_k1_upper, bound_k1_intermediate, bound_k1_lower):
            with pytest.raises(StructuralError):
                fn(ball, H)


class TestKpBounds:
    def test_upper_euclidean_equality(self):
        # p = 2 with unit alphas is the Euclidean ball: every section is B_2^k
        rng = np.random.default_rng(13)
        ball = KpBall(cube_decomposition(4, one_sided=True), 2.0, np.ones(4))
        for k in (1, 2, 3):
            H = Subspace.random(4, k, rng)
            assert bound_kp_upper(ball, H) == pytest.approx(
                vol_ball_p(k, 2.0), rel=1e-10)

    def test_lower_euclidean_equality(self):
        rng = np.random.default_rng(14)
        ball = KpBall(cube_decomposition(3, one_sided=True), 2.0, np.ones(3))
        for k in (1, 2):
            H = Subspace.random(3, k, rng)
            assert bound_kp_lower(ball, H) == pytest.approx(
                vol_ball_p(k, 2.0), rel=1e-10)

    def test_lower_hyperplane_reference(self):
        # for a hyperplane w^perp with unit alphas the Plancherel bound is
        # Koldobsky's exact section volume.  Here w = (2, 3, 6)/7 in B_1.5^3;
        # the reference is the polar area integral_0^pi ||u(phi)||^(-2) dphi
        # by mpmath.quad at 50 digits, split where a coordinate of u vanishes
        ball = KpBall(cube_decomposition(3, one_sided=True), 1.5, np.ones(3))
        H = Subspace(3, np.array([[3.0, -2.0, 0.0], [12.0, 18.0, -13.0]]))
        assert bound_kp_lower(ball, H) == pytest.approx(
            2.4578858892586116613817603133911, rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0])
    def test_lower_line_equality(self, p):
        # the (1, 1, 0) line meets B_p^3 in a segment of length
        # 2^(3/2 - 1/p), which the Plancherel lower bound attains
        ball = KpBall(cube_decomposition(3, one_sided=True), p, np.ones(3))
        H = Subspace(3, np.array([[1.0, 1.0, 0.0]]))
        assert bound_kp_lower(ball, H) == pytest.approx(
            2.0 ** (1.5 - 1.0 / p), rel=1e-10)

    def test_lower_below_upper(self):
        rng = np.random.default_rng(15)
        for p in (1.0, 1.5, 2.0):
            ball = KpBall(cube_decomposition(4, one_sided=True), p,
                          np.ones(4))
            H = Subspace.random(4, 2, rng)
            assert bound_kp_lower(ball, H) <= \
                bound_kp_upper(ball, H) * (1.0 + 1e-8)

    def test_lower_degenerate(self):
        ball = KpBall(cube_decomposition(2, one_sided=True), 1.5, np.ones(2))
        with pytest.raises(DegenerateRegimeError):
            bound_kp_lower(ball, Subspace.coordinate(2, [0, 1]))

    def test_lower_no_active_factor(self):
        # alphas this large put every s_j below LIMIT_EPS: the integrand is
        # a constant times t^(beta-1), whose integral diverges
        ball = KpBall(cube_decomposition(3, one_sided=True), 1.5,
                      np.full(3, 1e8))
        H = Subspace(3, np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]))
        with pytest.raises(DegenerateRegimeError, match="diverges"):
            bound_kp_lower(ball, H)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(nk=st.integers(3, 6).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           p=st.floats(1.02, 1.98),
           alphas=st.lists(st.floats(0.75, 1.5), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_lower_matches_adaptive_quad(self, nk, p, alphas, seed):
        # the fixed log-t rule against adaptive quad on [0, 1] and [1, inf)
        n, k = nk
        ball = KpBall(cube_decomposition(n, one_sided=True), p, alphas[:n])
        H = Subspace.random(n, k, np.random.default_rng(seed))
        with mock.patch.object(bounds_module, "_kp_lower_integral",
                               _adaptive_integral):
            want = bound_kp_lower(ball, H)
        assert bound_kp_lower(ball, H) == pytest.approx(want, rel=1e-9)

    def test_lower_gamma_p_calls(self, monkeypatch):
        # 8 active factors; adaptive quad needed 2,593 gamma_p values here.
        # The head and each tail panel take one call on all their values.
        sizes = []
        gamma_p = bounds_module.gamma_p

        def counted(p, y):
            sizes.append(np.size(y))
            return gamma_p(p, y)

        monkeypatch.setattr(bounds_module, "gamma_p", counted)
        d = hadamard_decomposition(4, 5)
        ball = KpBall(d, 1.69, np.ones(len(d.weights)))
        bound_kp_lower(ball, Subspace.random(5, 3, np.random.default_rng(0)))
        assert 0 < sum(sizes) <= 800
        assert set(sizes) <= {1, 12 * 8}


def _quadpack_gamma_p(p, y):
    """gamma_p as one cosine-weighted QUADPACK run per value, kept here as
    a reference independent of specfun's series and Zolotarev branches."""
    if p == 1.0:
        return 2.0 / (1.0 + y * y)
    if p == 2.0:
        return math.sqrt(math.pi) * math.exp(-y * y / 4.0)
    if y == 0.0:
        return 2.0 * math.gamma(1.0 + 1.0 / p)
    cutoff = 36.8 ** (1.0 / p)  # exp(-x^p) < 1e-16 beyond
    # at the default epsrel QUADPACK accepts a 15-point estimate at isolated
    # y that is off by up to 6.4e-7 relative
    val, _ = integrate.quad(
        lambda x: math.exp(-x ** p), 0.0, cutoff,
        weight="cos", wvar=y, epsabs=1e-11, epsrel=1e-10, limit=400,
    )
    return 2.0 * val


def _adaptive_integral(p, beta, s):
    """_kp_lower_integral by adaptive quad on [0, 1] and [1, inf)."""

    def integrand(t):
        return t ** (beta - 1.0) * math.prod(
            _quadpack_gamma_p(p, math.sqrt(t * sj)) for sj in s)

    v1, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-11, limit=400)
    v2, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-11, limit=400)
    return v1 + v2


class TestNonsymBounds:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fourier_full_space_equality(self, n):
        # the full-space "section" of the simplex recovers its volume
        d = simplex_decomposition(n)
        nl = lift_nonsymmetric(d, Subspace.coordinate(n, range(n)))
        assert bound_nonsym_fourier(nl) == pytest.approx(
            vol_simplex_inradius1(n), rel=1e-10)

    def test_fourier_gate(self):
        rng = np.random.default_rng(17)
        d = simplex_decomposition(3)
        nl = lift_nonsymmetric(d, Subspace.random(3, 1, rng))
        if np.any(nl.kappa < 0.5):
            with pytest.raises(GateError):
                bound_nonsym_fourier(nl)
            assert bound_nonsym_fourier(nl, force=True) > 0

    def test_hyperplane_plane_value(self):
        # n = 2: (1/sqrt2) sqrt(3/2) * 3^(1/2) * 2 = 3
        assert bound_nonsym_hyperplane(2) == pytest.approx(3.0, rel=1e-12)

    def test_hyperplane_domain(self):
        with pytest.raises(StructuralError):
            bound_nonsym_hyperplane(1)


class TestRotationInvariance:
    def test_symmetric_bounds_invariant(self):
        rng = np.random.default_rng(19)
        d = cube_decomposition(4)
        H = Subspace.random(4, 2, rng)
        rot = random_rotation(4, rng)
        d_rot = JohnDecomposition(4, d.vectors @ rot.T, d.weights, True)
        H_rot = Subspace(4, H.basis @ rot.T)
        p1, p2 = project(d, H), project(d_rot, H_rot)
        for fn in (bound_ab_old, bound_volume_via_wills, bound_mean_width):
            assert fn(p1) == pytest.approx(fn(p2), abs=1e-9)


class TestBuildReport:
    def test_all_symmetric_names(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0, 1]))
        rep = build_report("all", proj=proj)
        names = [e["name"] for e in rep.entries]
        assert "symmetric_case1" in names
        assert "symmetric_case2" not in names   # regime-gated, not requested
        assert rep.gates_satisfied()

    def test_explicit_case2(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0, 1]))
        rep = build_report(["symmetric_case2"], proj=proj)
        assert rep.entries[0]["value"] == pytest.approx(2.0 ** 2.5)
        assert rep.entries[0]["gate"] == {
            "required_condition": "n/2 <= k <= n", "satisfied": True}

    def test_unknown_name_lists_valid(self):
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0]))
        with pytest.raises(StructuralError, match="symmetric_case1"):
            build_report(["no_such_bound"], proj=proj)

    def test_missing_inputs(self):
        with pytest.raises(StructuralError):
            build_report(["k1_upper"])

    def test_gate_recorded_unsatisfied_under_force(self):
        proj = project(cube_decomposition(2),
                       Subspace(2, np.array([[1.0, 1.0]])))
        rep = build_report(["symmetric_case1", "ab_old"], proj=proj,
                           force=True)
        gate = rep.entries[0]["gate"]
        assert not gate["satisfied"]
        assert not rep.gates_satisfied()
        assert rep.entries[1]["gate"]["satisfied"]

    def test_digest_stable(self):
        proj = project(cube_decomposition(3), Subspace.coordinate(3, [0]))
        r1 = build_report("all", proj=proj)
        r2 = build_report("all", proj=proj)
        assert [e["inputs_digest"] for e in r1.entries] == \
            [e["inputs_digest"] for e in r2.entries]
        assert all(len(e["inputs_digest"]) == 16 for e in r1.entries)

    def test_digest_distinguishes_inputs(self):
        assert inputs_digest([1.0, 2.0]) != inputs_digest([1.0, 2.0000001])

    def test_json_roundtrip(self):
        import json
        proj = project(cube_decomposition(2), Subspace.coordinate(2, [0]))
        rep = build_report("all", proj=proj)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data == {"entries": rep.entries}
        assert all(set(e) == {"name", "value", "gate", "inputs_digest"}
                   for e in data["entries"])

    def test_kp_report_names(self):
        ball = cross_polytope_ball(3)
        H = Subspace.random(3, 1, np.random.default_rng(21))
        rep = build_report("all", ball=ball, subspace=H)
        names = {e["name"] for e in rep.entries}
        assert names == {"k1_upper", "k1_intermediate", "k1_lower",
                         "kp_upper", "kp_lower"}

    @pytest.mark.parametrize("p, names", [
        (1.01, {"kp_upper"}), (_GAMMA_P_MIN_P, {"kp_upper", "kp_lower"})])
    def test_all_keeps_kp_lower_in_gamma_p_domain(self, p, names):
        # kp_lower takes gamma_p's p = 1 or p >= _GAMMA_P_MIN_P, and raises
        # between them
        assert 1.0 < 1.01 < _GAMMA_P_MIN_P
        ball = KpBall(cube_decomposition(3, one_sided=True), p, np.ones(3))
        rep = build_report("all", ball=ball, subspace=Subspace.random(
            3, 2, np.random.default_rng(0)))
        assert {e["name"] for e in rep.entries} == names


PLANE = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

# pinned build_report("all", force=True) output per input kind:
# (name, value, gate condition, gate satisfied, inputs digest)
REGISTRY_REFERENCE = {
    "projected system": [
        ("symmetric_case1", 8.0, "all tilde weights >= 1/2", False,
         "8c9eba7b06af040a"),
        ("symmetric_case1_coarse", 6.25, "all tilde weights >= 1/2", False,
         "8c9eba7b06af040a"),
        ("ab_old", 5.656854249492381, "none", True, "8c9eba7b06af040a"),
        ("wills_volume", 25.902542187946178, "none", True,
         "8c9eba7b06af040a"),
        ("wills_functional", 15.412825391312627, "none", True,
         "8c9eba7b06af040a"),
        ("mean_width", 4.82842712474619, "none", True, "8c9eba7b06af040a"),
    ],
    "p = 1 ball": [
        ("k1_upper", 2.0, "none", True, "eacded13310a0040"),
        ("k1_intermediate", 1.414213562373095, "none", True,
         "eacded13310a0040"),
        ("k1_lower", 1.299038105676659, "none", True, "eacded13310a0040"),
        ("kp_upper", 2.0, "none", True, "eacded13310a0040"),
        ("kp_lower", 1.4142135623731058, "none", True, "eacded13310a0040"),
    ],
    "p = 2 ball": [
        ("kp_upper", 3.2779054793366074, "none", True, "781a8f48834d5a95"),
        ("kp_lower", 3.2446229407788905, "none", True, "781a8f48834d5a95"),
    ],
    "centered lift": [
        ("nonsym_fourier", 8.485281374238568, "all kappa >= 1/2", True,
         "eba1a42ec7a95ebe"),
        ("nonsym_hyperplane", 8.48528137423857,
         "all kappa >= 1/2 (reported alongside)", True, "eba1a42ec7a95ebe"),
    ],
}


def _registry_inputs(kind):
    H = Subspace(3, PLANE)
    if kind == "projected system":
        return {"proj": project(cube_decomposition(3), H)}
    if kind == "p = 1 ball":
        return {"ball": cross_polytope_ball(3), "subspace": H}
    if kind == "p = 2 ball":
        return {"ball": KpBall(cube_decomposition(3, one_sided=True), 2.0,
                               [1.0, 1.5, 0.75]), "subspace": H}
    d = simplex_decomposition(3)
    return {"nl": lift_nonsymmetric(d, Subspace.coordinate(3, [0, 1]))}


class TestRegistry:
    @pytest.mark.parametrize("kind", sorted(REGISTRY_REFERENCE))
    def test_all_matches_reference(self, kind):
        rep = build_report("all", force=True, **_registry_inputs(kind))
        got = [(e["name"], e["gate"]["required_condition"],
                e["gate"]["satisfied"], e["inputs_digest"])
               for e in rep.entries]
        want = [(name, cond, ok, digest)
                for name, _, cond, ok, digest in REGISTRY_REFERENCE[kind]]
        assert got == want
        # l_p ball bounds carry the rounding of the Gamma function
        rel = 1e-12 if "ball" in kind else 0.0
        for e, ref in zip(rep.entries, REGISTRY_REFERENCE[kind]):
            assert e["value"] == pytest.approx(ref[1], rel=rel, abs=0.0)

    def test_all_bounds_order(self):
        assert ALL_NAMES == tuple(ALL_BOUNDS)
