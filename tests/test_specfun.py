import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from slicebound.bodies import KpBall, cube_decomposition
from slicebound.bounds import bound_kp_lower
from slicebound.decomp import Subspace
from slicebound.errors import DomainError
from slicebound.specfun import (
    SINC_POWER_MAX_P,
    WILLS_G_MAX_P,
    QuadratureResult,
    WillsIntegrandParams,
    _GAMMA_P_MIN_P,
    _JACOBI_MAX_P,
    _M_SINE_ENVELOPE,
    _dist_sq_ft_and_slope,
    _dist_sq_ft_zeros,
    _gamma_p_rules,
    _panel_rules,
    _panel_sum,
    _sinc_product_integrals,
    _wills_layout,
    ball_integral_bound_check,
    dist_sq_ft,
    gamma_p,
    gauss_sine_integral,
    indicator_ft,
    sinc_power_integral,
    wills_g,
)

# I_p = integral of |sin x/x|^p over the line at the double nearest each p:
# mpmath.quad at 40 digits of 2 (int_0^pi (sin u/u)^p du
# + pi^-p int_0^pi sin(u)^p zeta(p, 1 + u/pi) du), the head split at
# sqrt(6/p) 2^i; 55 digits agree to all 30 shown
REF_SINC_POWER = {
    1.0005: "2548.31432615146816392385639242",
    1.01: "129.160809055410138961503085632",
    1.1: "14.5827807355430887802641244447",
    1.5: "4.42557391249314484726487118607",
    2.5: "2.67938229150091797890415839676",
    3.0: "2.41688841898081500233764938009",
    5.7: "1.77045503016722537625788125482",
    6.0: "1.7278759594743862811544538608",
    23.0: "0.89936450761096248921490619358",
    100.0: "0.433509011390947231185372992726",
    1e3: "0.137273089284398754740704663253",
    1e4: "0.0434154240273279576222029712919",
}
# integral_0^inf prod_{j<8} sinc(x/(2j+1)) dx / pi (Borwein)
BORWEIN_15 = Fraction(467807924713440738696537864469,
                      935615849440640907310521750000)
# gamma_p(p, y) = 2 * integral_0^inf exp(-x^p) cos(x y) dx, by mpmath.quad
# at 30 digits, split at the zeros of cos(x y) and geometrically towards 0
REF_GAMMA = {
    (1.1, 0.0): 1.9298249780221029011,
    (1.1, 0.0125): 1.9296007280064341078,
    (1.1, 0.725): 1.3713524424796527094,
    (1.1, 3.3333): 0.16444202268032389057,
    (1.1, 20.0125): 0.0038696277692711430294,
    (1.3, 0.0): 1.8471534431119559743,
    (1.3, 0.0125): 1.8470125700699314011,
    (1.3, 0.725): 1.4492325272258057569,
    (1.3, 3.3333): 0.15805764815464249781,
    (1.3, 20.0125): 0.002174494347418796387,
    (1.5, 0.0): 1.8054905859018672226,
    (1.5, 0.0125): 1.8053864230032152319,
    (1.5, 0.725): 1.4940435547489258781,
    (1.5, 1.0): 1.2694431959375853106,
    (1.5, 3.0): 0.19797954750379030528,
    (1.5, 3.3333): 0.14665347127125106529,
    (1.5, 20.0125): 0.0010875595563666069557,
    (1.65, 0.0): 1.7884245243323445078,
    (1.65, 0.0125): 1.7883358586891955438,
    (1.65, 0.725): 1.5169499005015454329,
    (1.65, 3.3333): 0.13603587222699598859,
    (1.65, 20.0125): 0.00057335258955378469417,
    # QUADPACK's default epsrel accepted a 15-point estimate 6.4e-7 and
    # -1.2e-7 relative off at these two; 35 and 50 digits agree to all 30
    # shown, with the integral cut where exp(-x^p) < exp(-130)
    (1.7607796427407365, 0.4451155489225671): 1.68144143815368956225886648688,
    (1.0477560913123793, 2.413462277120117): 0.29921958803917894497944015896,
}
# gamma_p beyond REF_GAMMA's y = 20, out to where kp_lower's tail panels
# reach, and at the lowest supported p: 2 Re int_0^inf exp(-x^p + i x y) dx
# by mpmath.quad at 40 digits on the ray x = r exp(i pi/(4p)), where the
# integrand decays without oscillating.  The power series (y <= 1, and
# p = 1.95 at y <= 8) or the asymptotic series at 60 digits agree to 1e-45.
REF_GAMMA_WIDE = {
    (1.02, 0.5): "1.60554220104284047152716133002",
    (1.02, 1.0): "1.01552586181862016583597121858",
    (1.02, 1.5): "0.625754776888423092023612020667",
    (1.02, 3.0): "0.200625892101519182333925325872",
    (1.02, 50.0): "0.000746422621351073101936965090899",
    (1.02, 125.0): "0.000117210069285324915665827512133",
    (1.02, 400.0): "0.000011180017635935647399012456168",
    (1.1, 50.0): "0.000561781879100365663991680899806",
    (1.1, 125.0): "0.000081777695017305630777129473691",
    (1.1, 400.0): "0.0000071002280561665923175693560202",
    (1.35, 50.0): "0.000210614150739573408786324146814",
    (1.35, 125.0): "0.0000242942012738351214630642681756",
    (1.35, 400.0): "0.00000157572919480223636348884080263",
    (1.65, 50.0): "0.0000492166050682361778950518036137",
    (1.65, 125.0): "0.00000431372705987093574635802100233",
    (1.65, 400.0): "0.000000197492815953211165119567157758",
    (1.95, 3.0): "0.187397919193841530866353599086",
    (1.95, 8.0): "0.000810960035658685084414935120516",
    (1.95, 50.0): "0.00000293228417765226468252616007818",
    (1.95, 125.0): "0.000000195604271837291510028025717915",
    (1.95, 400.0): "0.00000000632184156143297370797984852588",
    # sin(pi p/2) is 0.047 here, and taken unfolded it is 5e-15 off
    (1.97, 125.0): "0.000000108576119695187529772973428689",
}
REF_DIST_SQ_FT = {
    (0.7, 1.3): 1.4522114306871429,
    (2.0, 0.4): 4.1841073933215147,
}
# Parseval closed form at p = 2: 2 pi (2 alpha + 1/sqrt(2))
REF_WILLS_G_HALF_P2 = 10.726068245337953
# g(alpha, p) over wills_g's window [-2000, 2000]: mpmath.quad at 40 digits,
# split at the zeros of A_alpha (found by findroot below 25 and equal to
# the multiples of pi/alpha beyond) and at steps of 1/2 up to 30 and powers
# of 2; A_alpha's Dawson term through erfi.  At alpha = 0, 2 pi/sqrt(p).
# The tail beyond the window is bounded by TestSineEnvelope.
REF_WILLS_G = {
    (0.0, 1.05): "6.13176099962571016598442760833",
    (0.0, 1.2): "5.7357372095454765479691053612",
    (0.0, 1.5): "5.13019932064745638217614543868",
    (0.0, 2.0): "4.44288293815836624701588099006",
    (0.0, 3.0): "3.62759872846843570118815651528",
    (0.5, 1.05): "8.1447356611869885250691361526",
    (0.5, 1.2): "8.24092828359511263986602270199",
    (0.5, 1.5): "8.84864665652690470934005374414",
    (0.5, 2.0): "10.726068245337951734676585357",
    (0.5, 3.0): "17.6222180806730451684341536185",
    (0.7071067811865476, 1.05): "8.68405352906287142609630226983",
    (0.7071067811865476, 1.2): "8.9721553973870082278887804059",
    (0.7071067811865476, 1.5): "10.0914287699264621733231819193",
    (0.7071067811865476, 2.0): "13.3286488144750983600343300188",
    (0.7071067811865476, 3.0): "26.3283517476712882341670959977",
    (1.0, 1.05): "9.3111594298211298643362872911",
    (1.0, 1.2): "9.84865726284624299945312696355",
    (1.0, 1.5): "11.6757899985094531129499943484",
    (1.0, 2.0): "17.0092535525175382147412640836",
    (1.0, 3.0): "41.5074287341144863019989855193",
}


class TestSincPowerIntegral:
    def test_p2_equals_pi(self):
        assert sinc_power_integral(2.0).value == pytest.approx(
            math.pi, abs=1e-10)

    def test_p4_closed_form(self):
        # integral of (sin x / x)^4 over the line is 2 pi / 3
        assert sinc_power_integral(4.0).value == pytest.approx(
            2 * math.pi / 3, abs=1e-10)

    @pytest.mark.parametrize("p", sorted(REF_SINC_POWER))
    def test_reference_values(self, p):
        res = sinc_power_integral(p)
        ref = float(REF_SINC_POWER[p])
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert abs(res.value - ref) <= res.abs_error_estimate
        assert res.abs_error_estimate < 1e-8
        assert res.evaluations > 0

    def test_no_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate.quad called")

        monkeypatch.setattr(integrate, "quad", refuse)
        assert sinc_power_integral(2.0).value == pytest.approx(math.pi,
                                                               rel=1e-15)
        # every branch of gamma_p, and the l_p lower bound built on it
        y = np.r_[0.0, np.geomspace(1e-3, 1e4, 200)]
        for p in (1.02, 1.3, 1.5, 1.7, 1.98):
            assert np.all(gamma_p(p, y) > 0.0)
        ball = KpBall(cube_decomposition(4, one_sided=True), 1.37,
                      np.ones(4))
        H = Subspace.random(4, 2, np.random.default_rng(3))
        assert 0.0 < bound_kp_lower(ball, H) < math.inf

    def test_divergent_domain(self):
        with pytest.raises(DomainError):
            sinc_power_integral(1.0)

    def test_monotone_in_p(self):
        vals = [sinc_power_integral(p).value for p in (2, 3, 4, 6, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_p(self):
        # at p = 1e7 the quadrature returned 7.0e-11 against 1.37e-3
        with pytest.raises(DomainError):
            sinc_power_integral(1e7)
        # at the limit it meets the Laplace form that bounds uses beyond it
        p = SINC_POWER_MAX_P
        laplace = math.sqrt(6.0 * math.pi / p) * (1.0 - 3.0 / (20.0 * p))
        assert sinc_power_integral(p).value == pytest.approx(laplace,
                                                             rel=1e-9)


class TestBallInequality:
    @pytest.mark.parametrize("p", [2.0, 3.5, 5.0, 10.0])
    def test_holds(self, p):
        lhs, rhs, ok = ball_integral_bound_check(p)
        assert ok
        assert lhs <= rhs + 1e-9

    def test_equality_at_two(self):
        lhs, rhs, _ = ball_integral_bound_check(2.0)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_gate_below_two(self):
        from slicebound.errors import GateError
        with pytest.raises(GateError):
            ball_integral_bound_check(1.5)


class TestGammaP:
    def test_p1_closed_form(self):
        for y in (0.0, 0.5, 2.0):
            assert gamma_p(1.0, y) == pytest.approx(2 / (1 + y * y), rel=1e-12)

    def test_p2_closed_form(self):
        for y in (0.0, 1.0, 3.0):
            assert gamma_p(2.0, y) == pytest.approx(
                math.sqrt(math.pi) * math.exp(-y * y / 4), rel=1e-12)

    @pytest.mark.parametrize("p, y", sorted(REF_GAMMA))
    def test_reference(self, p, y):
        # abs 2e-11: what the QUADPACK reference in test_bounds.py meets
        assert gamma_p(p, y) == pytest.approx(REF_GAMMA[p, y], abs=2e-11)

    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.65])
    def test_at_zero_closed_form(self, p):
        assert gamma_p(p, 0.0) == pytest.approx(
            2.0 * math.gamma(1.0 + 1.0 / p), rel=1e-15)

    def test_even_in_y(self):
        assert gamma_p(1.5, 2.0) == pytest.approx(gamma_p(1.5, -2.0),
                                                  rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_p(2.5, 0.0)

    @pytest.mark.parametrize("p", [1.0001, 1.01, _GAMMA_P_MIN_P - 1e-9])
    def test_below_min_p_raises(self, p):
        # between the closed form at p = 1 and _GAMMA_P_MIN_P gamma_p fails
        # loudly, and so does the l_p lower bound that needs it
        assert _GAMMA_P_MIN_P == 1.02
        with pytest.raises(DomainError, match="1.02"):
            gamma_p(p, 1.0)
        ball = KpBall(cube_decomposition(3, one_sided=True), p, np.ones(3))
        with pytest.raises(DomainError):
            bound_kp_lower(ball, Subspace(3, np.array([[1.0, 1.0, 0.0]])))

    @pytest.mark.parametrize("p, y", sorted(REF_GAMMA_WIDE))
    def test_reference_wide(self, p, y):
        ref = float(REF_GAMMA_WIDE[p, y])
        assert abs(gamma_p(p, y) - ref) <= max(2e-11, 1e-10 * abs(ref))
        # every branch keeps a few ulps, which kp_lower's pins rely on
        assert gamma_p(p, y) == pytest.approx(ref, rel=3e-15, abs=0.0)

    def test_references_meet_every_branch(self):
        # the references check each branch: the power series, Zolotarev's
        # integral and the asymptotic series, at p = 1.02 alone too
        def branch(p, y):
            y_series, y_asym = _gamma_p_rules(p)[:2]
            return 0 if y <= y_series else 2 if y >= y_asym else 1

        refs = sorted(REF_GAMMA) + sorted(REF_GAMMA_WIDE)
        assert {branch(p, y) for p, y in refs} == {0, 1, 2}
        assert {branch(p, y) for p, y in refs if p == 1.02} == {0, 1, 2}

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        for p in (1.02, 1.3, 1.5, 1.77, 1.98, 2.0):
            y = np.concatenate([rng.uniform(0.0, 20.0, 119),
                                np.geomspace(1e-3, 1e4, 60), [0.0]])
            got = gamma_p(p, y.reshape(12, 15))
            assert got.shape == (12, 15)
            want = np.array([gamma_p(p, v) for v in y]).reshape(12, 15)
            assert np.array_equal(got, want)
            assert isinstance(gamma_p(p, 1.0), float)

    @pytest.mark.parametrize("p", np.linspace(1.02, 1.98, 17).tolist())
    def test_continuous_at_branch_limits(self, p):
        # the step across each limit, less the function's own change there
        # (a secant a million times wider), is a few ulps: the two branches
        # agree where they meet
        limits = _gamma_p_rules(p)[:2]
        assert limits[0] < limits[1]
        for limit in limits:
            near = gamma_p(p, limit * np.array([1.0 - 1e-12, 1.0 + 1e-12]))
            wide = gamma_p(p, limit * np.array([1.0 - 1e-6, 1.0 + 1e-6]))
            step = (near[1] - near[0]) - 1e-6 * (wide[1] - wide[0])
            assert abs(step) <= 1e-14 * near[0]

    @pytest.mark.parametrize("p", [1.02, 1.2, 1.45, 1.7, 1.85, 1.98])
    def test_positive_and_decreasing(self, p):
        # gamma_p is 2 pi times a symmetric stable density, which is
        # unimodal: positive and non-increasing on y >= 0
        y = np.r_[np.linspace(0.0, 200.0, 4001), np.geomspace(201.0, 1e4, 400)]
        g = gamma_p(p, y)
        assert np.all(g > 0.0)
        assert np.all(np.diff(g) <= 0.0)

    def test_no_runtime_warning(self):
        y = np.r_[0.0, np.geomspace(1e-8, 1e4, 301), np.linspace(0.0, 30, 301)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in np.linspace(1.02, 1.98, 49):
                assert np.all(np.isfinite(gamma_p(p, y)))


class TestFourierTransforms:
    def test_indicator_at_zero(self):
        assert indicator_ft(1.5, 0.0) == pytest.approx(3.0, rel=1e-14)

    def test_indicator_taylor_branch_continuous(self):
        lo = indicator_ft(1.0, 9.9e-5)
        hi = indicator_ft(1.0, 1.01e-4)
        assert lo == pytest.approx(hi, rel=1e-8)

    def test_indicator_domain(self):
        with pytest.raises(DomainError):
            indicator_ft(0.0, 1.0)

    def test_gauss_sine_small_s(self):
        # I(s) ~ s/(2 pi) for small s
        s = 1e-6
        assert gauss_sine_integral(s) == pytest.approx(s / (2 * math.pi),
                                                       rel=1e-6)

    def test_gauss_sine_odd(self):
        assert gauss_sine_integral(-1.2) == pytest.approx(
            -gauss_sine_integral(1.2), rel=1e-14)

    def test_gauss_sine_vs_riemann_sum(self):
        s = 2.0
        y = np.linspace(0, 8, 200001)
        ref = np.trapezoid(np.exp(-math.pi * y ** 2) * np.sin(y * s), y)
        assert gauss_sine_integral(s) == pytest.approx(ref, abs=1e-9)

    def test_dist_sq_ft_at_zero(self):
        assert dist_sq_ft(0.7, 0.0) == pytest.approx(2 * 0.7 + 1, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(REF_DIST_SQ_FT))
    def test_dist_sq_ft_reference(self, key):
        alpha, z = key
        assert dist_sq_ft(alpha, z) == pytest.approx(REF_DIST_SQ_FT[key],
                                                     abs=1e-10)

    def test_array_matches_scalar(self):
        z = np.array([0.0, 1e-6, 0.3, 2.0, 17.5, 900.0])
        for fn, arg in ((indicator_ft, 0.8), (dist_sq_ft, 0.8),
                        (dist_sq_ft, 0.0)):
            got = fn(arg, z)
            assert got.shape == z.shape
            assert got == pytest.approx([fn(arg, v) for v in z.tolist()],
                                        rel=1e-15, abs=1e-300)
        assert gauss_sine_integral(z) == pytest.approx(
            [gauss_sine_integral(v) for v in z.tolist()], rel=1e-15)

    def test_dist_sq_ft_pure_gaussian(self):
        # alpha = 0 reduces to the Gaussian transform
        z = 1.7
        assert dist_sq_ft(0.0, z) == pytest.approx(
            math.exp(-z * z / (4 * math.pi)), rel=1e-12)


class TestWillsG:
    def test_value_at_alpha_zero(self):
        for p in (2.0, 3.0, 4.0):
            res = wills_g(WillsIntegrandParams(alpha=0.0, p=p))
            assert res.value == pytest.approx(2 * math.pi / math.sqrt(p),
                                              abs=1e-8)

    def test_reference_value(self):
        res = wills_g(WillsIntegrandParams(alpha=0.5, p=2.0))
        assert res.value == pytest.approx(REF_WILLS_G_HALF_P2, rel=1e-10)

    @pytest.mark.parametrize("alpha, p", sorted(REF_WILLS_G))
    def test_reference_table(self, alpha, p):
        res = wills_g(WillsIntegrandParams(alpha=alpha, p=p))
        ref = float(REF_WILLS_G[alpha, p])
        assert res.value == pytest.approx(ref, rel=1e-10)
        assert abs(res.value - ref) <= res.abs_error_estimate
        assert res.evaluations > 0

    def test_error_estimate_small(self):
        res = wills_g(WillsIntegrandParams(alpha=1.0, p=3.0))
        assert res.abs_error_estimate < 1e-6

    def test_params_validated(self):
        with pytest.raises(DomainError):
            WillsIntegrandParams(alpha=1.0, p=1.0)
        with pytest.raises(DomainError):
            WillsIntegrandParams(alpha=-0.1, p=2.0)

    def test_domain_cap(self):
        # beyond the cap g leaves the floating-point range; bounds take over
        res = wills_g(WillsIntegrandParams(alpha=1.0, p=WILLS_G_MAX_P))
        assert math.isfinite(res.value + res.abs_error_estimate)
        for p in (WILLS_G_MAX_P * (1.0 + 1e-12), 401.0):
            with pytest.raises(DomainError):
                wills_g(WillsIntegrandParams(alpha=1.0, p=p))

    def test_rules_built_once_per_p(self):
        # I_p and g at one p, and g at two alphas, share one rule build
        p = 2.0 + math.pi / 1e3
        before = _panel_rules.cache_info()
        sinc_power_integral(p)
        for alpha in (0.3, 1.7):
            wills_g(WillsIntegrandParams(alpha=alpha, p=p))
        after = _panel_rules.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 2
        x, w = _panel_rules(p)
        assert _panel_rules(p)[0] is x
        assert not x.flags.writeable and not w.flags.writeable


def bisected_zeros(alpha, s_max, steps=60):
    """Zeros of dist_sq_ft(alpha, .) on (0, s_max): sign changes on a grid
    of 40 points per unit and per pi/alpha, each bisected `steps` times."""
    grid = np.linspace(0.0, s_max, int(s_max * 40 * max(1.0, alpha)) + 1)
    f = dist_sq_ft(alpha, grid)
    zeros = []
    for i in np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:])):
        lo, hi, flo = grid[i], grid[i + 1], f[i]
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            fmid = float(dist_sq_ft(alpha, mid))
            if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
                lo, flo = mid, fmid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    return np.array(zeros)


class TestDistSqFtZeros:
    """wills_g's zero search: 4 bisections, then 3 Newton steps."""

    ALPHAS = [1e-3, 0.05, 0.5, 1.0 / math.sqrt(2.0), 1.0, 3.0, 10.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_newton_matches_bisection(self, alpha):
        zeros, evals = _dist_sq_ft_zeros(alpha, 25.0, 2000.0)
        near = zeros[zeros < 25.0]
        want = bisected_zeros(alpha, 25.0)
        assert near.size == want.size
        assert np.max(np.abs(near - want), initial=0.0) <= 1e-13
        # beyond 25 the zeros are the multiples of pi/alpha
        far = zeros[zeros >= 25.0]
        assert far == pytest.approx(
            math.pi / alpha * np.round(far * alpha / math.pi), rel=1e-15)
        assert evals > 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_slope_matches_central_difference(self, alpha):
        z = np.array([0.3, 1.1, 4.7, 9.2, 17.5, 24.9])
        h = 1e-6
        value, slope = _dist_sq_ft_and_slope(alpha, z)
        assert value == pytest.approx(dist_sq_ft(alpha, z), rel=1e-13,
                                      abs=1e-15)
        diff = (dist_sq_ft(alpha, z + h) - dist_sq_ft(alpha, z - h)) / (2 * h)
        assert np.all(np.abs(slope - diff) <= 1e-7 * np.maximum(1.0,
                                                                np.abs(diff)))


def uncached_wills_g(alpha, p):
    """wills_g on a layout built afresh for this call."""
    _wills_layout.cache_clear()
    return wills_g(WillsIntegrandParams(alpha=alpha, p=p))


class TestWillsLayout:
    """wills_g's panels depend on alpha alone and are built once per alpha."""

    def test_one_build_per_alpha(self):
        alpha = 0.3 + math.pi / 1e4
        before = _wills_layout.cache_info()
        first = [wills_g(WillsIntegrandParams(alpha=alpha, p=p))
                 for p in (1.1, 2.0, 3.5)]
        again = [wills_g(WillsIntegrandParams(alpha=alpha, p=p))
                 for p in (1.1, 2.0, 3.5)]
        after = _wills_layout.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 5
        # the zero search's points count once, on the call that built it
        _, search = _dist_sq_ft_zeros(alpha, 25.0, 2000.0)
        assert search > 0
        assert first[0].evaluations == again[0].evaluations + search
        for a, b in zip(first[1:], again[1:]):
            assert a.evaluations == b.evaluations

    def test_arrays_read_only(self):
        parts, _ = _wills_layout(0.7)
        assert len(parts) == 2
        for lo, hi, kind in parts:
            for a in (lo, hi, kind):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0

    @pytest.mark.parametrize("alpha, p", sorted(
        set(REF_WILLS_G) | set(itertools.product(
            TestDistSqFtZeros.ALPHAS, (1.05, 2.0, 7.0)))))
    def test_bit_equal_to_uncached(self, alpha, p):
        cold = uncached_wills_g(alpha, p)
        warm = wills_g(WillsIntegrandParams(alpha=alpha, p=p))
        assert warm.value == cold.value
        assert warm.abs_error_estimate == cold.abs_error_estimate
        assert warm.evaluations <= cold.evaluations

    def test_alphas_one_ulp_apart(self):
        a = 1.0 / math.sqrt(2.0)
        b = math.nextafter(a, math.inf)
        _wills_layout.cache_clear()
        ga = wills_g(WillsIntegrandParams(alpha=a, p=2.5))
        gb = wills_g(WillsIntegrandParams(alpha=b, p=2.5))
        assert _wills_layout.cache_info().misses == 2
        assert _wills_layout(a) is not _wills_layout(b)
        for alpha, cached in ((a, ga), (b, gb)):
            fresh = uncached_wills_g(alpha, 2.5)
            assert fresh == cached


class TestPanelRules:
    @pytest.mark.parametrize("p", [1.0005, 2.5, 77.0, _JACOBI_MAX_P])
    def test_half_period_of_sine(self, p):
        # kind 4 carries sin^p in its weights: int_0^pi sin(u)^p du in
        # closed form, and the same as kind 3 applied to sin^p
        exact = math.sqrt(math.pi) * math.exp(
            math.lgamma((p + 1.0) / 2.0) - math.lgamma(p / 2.0 + 1.0))
        lo, hi = np.array([0.0]), np.array([math.pi])
        folded = _panel_sum(np.ones_like, lo, hi, np.array([4]), p)
        assert folded[0] == pytest.approx(exact, rel=1e-13)
        assert abs(folded[0] - exact) <= folded[1]
        plain = _panel_sum(lambda u: np.sin(u) ** p, lo, hi, np.array([3]), p)
        assert plain[0] == pytest.approx(exact, rel=1e-12)

    def test_legendre_above_jacobi_range(self):
        # roots_jacobi overflows near p = 511: above _JACOBI_MAX_P the zero
        # ends take the Legendre rule, with no warning
        x, w = _panel_rules(2.0 * _JACOBI_MAX_P)
        assert np.all(np.isfinite(w))
        assert x[1:4] == pytest.approx(np.broadcast_to(x[0], (3, 24)),
                                       abs=1e-15)
        assert w[1:4] == pytest.approx(np.broadcast_to(w[0], (3, 24)),
                                       rel=1e-14)


class TestSineEnvelope:
    """_M_SINE_ENVELOPE bounds |1 - s I(s)| s^2 beyond wills_g's window."""

    CUT = 2000.0

    def test_dominates_on_grid(self):
        s = np.geomspace(self.CUT, 1e6, 200001)
        vals = np.abs(1.0 - s * gauss_sine_integral(s)) * s * s
        assert vals.max() <= _M_SINE_ENVELOPE
        # the bound is near-tight: the limit at infinity is 2 pi
        assert vals.max() > 2.0 * math.pi - 1e-3

    @pytest.mark.parametrize("s", [2000, 2500, 10 ** 4, 10 ** 5, 10 ** 6,
                                   10 ** 9])
    def test_dominates_at_30_digits(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            s = mpmath.mpf(s)
            x = s / (2 * mpmath.sqrt(mpmath.pi))
            # s I(s) = 2x D(x), D(x) = sqrt(pi)/2 exp(-x^2) erfi(x)
            s_i = 2 * x * mpmath.sqrt(mpmath.pi) / 2 \
                * mpmath.exp(-x * x) * mpmath.erfi(x)
            val = abs(1 - s_i) * s * s
            assert val <= _M_SINE_ENVELOPE
            assert val > 2 * mpmath.pi


def sinc_product_loop(betas, q):
    """Reference: the one-row method term by term, the tail summed over the
    sign patterns in a Python loop."""
    sign = float(np.prod(np.sign(betas)))
    betas = np.abs(np.asarray(betas, dtype=float))
    if sign == 0.0:
        return 0.0
    y = 4.0 / betas.sum()
    nodes, wts = np.polynomial.legendre.leggauss(48)
    r = 0.5 * y * (nodes + 1.0)
    head = 0.5 * y * float(
        wts @ (np.prod(np.sin(np.outer(r, betas)), axis=1) / r ** q))
    acc = 0j
    for eps in itertools.product((1.0, -1.0), repeat=len(betas)):
        gamma = float(np.dot(eps, betas))
        g = abs(gamma)
        if g == 0.0:
            t = complex(y ** (1 - q) / (q - 1))
        else:
            si, ci = special.sici(g * y)
            t = complex(-ci, math.pi / 2.0 - si)
            for j in range(2, q + 1):
                t = (np.exp(1j * g * y) * y ** (1 - j) + 1j * g * t) / (j - 1)
            t = t.conjugate() if gamma < 0 else t
        acc += np.prod(eps) * t
    return sign * (head + float(((2j) ** -len(betas) * acc).real))


def sinc_product_row(betas, q):
    # the one-row call of the batched core
    return float(_sinc_product_integrals(
        np.asarray(betas, dtype=float).reshape(1, -1), q)[0])


class TestSincProductIntegral:
    def test_single_sinc(self):
        # integral_0^inf sin(b r)/r dr = pi/2
        assert sinc_product_row([2.3], 1) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_two_equal_q2(self):
        # integral_0^inf sin^2(b r)/r^2 dr = pi b / 2
        b = 1.4
        assert sinc_product_row([b, b], 2) == pytest.approx(
            math.pi * b / 2, abs=1e-11)

    def test_against_brute_force(self):
        from scipy import integrate
        betas = np.array([0.9, 1.7, 0.4])
        q = 2
        ref = 0.0
        edges = np.linspace(1e-12, 3000.0, 30001)
        fn = lambda r: np.prod(np.sin(np.outer(r, betas)), axis=1) / r ** q
        for a, b in zip(edges[:-1], edges[1:]):
            ref += integrate.fixed_quad(fn, a, b, n=10)[0]
        assert sinc_product_row(betas, q) == pytest.approx(ref, abs=1e-6)

    def test_sign_flip(self):
        v1 = sinc_product_row([1.0, 2.0], 2)
        v2 = sinc_product_row([-1.0, 2.0], 2)
        assert v2 == pytest.approx(-v1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sinc_product_row([1.0], 2)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_borwein(self, m):
        # integral_0^inf prod_{j<m} sinc(x/(2j+1)) dx is pi/2 up to the
        # factor 1/13 and falls just short of it once 1/15 joins
        betas = [Fraction(1, 2 * j + 1) for j in range(m)]
        ratio = Fraction(1, 2) if m < 8 else BORWEIN_15
        ref = float(ratio * math.prod(betas)) * math.pi
        assert sinc_product_row([float(b) for b in betas], m) == \
            pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_batch_matches_rows(self, q):
        # 500 rows of 6 betas take several passes
        betas = np.random.default_rng(21).normal(size=(500, 6))
        betas[3, 2] = 0.0
        betas[7] = 0.0
        betas[11] = -np.abs(betas[11])
        got = _sinc_product_integrals(betas, q)
        want = np.array([sinc_product_row(row, q) for row in betas])
        assert got[3] == got[7] == 0.0
        # the tail sums 2^m terms of size about (sum |beta|)^(q - 1), whose
        # rounding depends on how the matrix products are blocked
        scale = np.abs(betas).sum(axis=1) ** (q - 1)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want),
                                                               scale))

    def test_matches_loop(self):
        rng = np.random.default_rng(22)
        for m in range(1, 8):
            for q in range(1, m + 1):
                betas = rng.normal(size=(4, m))
                got = _sinc_product_integrals(betas, q)
                want = np.array([sinc_product_loop(row, q) for row in betas])
                # sums in another order: rounding relative to the terms
                scale = np.abs(betas).sum(axis=1) ** (q - 1)
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(
                    np.abs(want), scale))

    def test_zero_frequency_q1(self):
        # the sign pattern (+, +, -) of (1, 1, 2) has frequency 0: the
        # integral diverges at q = 1 and converges at q = 2
        assert np.isnan(sinc_product_row([1.0, 1.0, 2.0], 1))
        # the other row is pi/4, as 1, 1, 1.5 satisfy the triangle inequality
        got = _sinc_product_integrals(
            np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.5]]), 1)
        assert np.isnan(got[0])
        assert got[1] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert np.isfinite(sinc_product_row([1.0, 1.0, 2.0], 2))


class TestQuadratureSettings:
    def test_pinned_values(self):
        # exact: these values pin each quadrature's tolerances and limits
        assert sinc_power_integral(3.0) == QuadratureResult(
            2.416888418980814, 1.8193042496369672e-14, 96)
        assert gamma_p(1.5, 2.0) == 0.5311781179006467
        # wills_g uses fixed rules, checked against its reference table
        assert wills_g(WillsIntegrandParams(alpha=0.5, p=3.0)).value == \
            pytest.approx(float(REF_WILLS_G[0.5, 3.0]), rel=1e-10)
        ball = KpBall(cube_decomposition(3, one_sided=True), 1.5,
                      np.ones(3))
        H = Subspace(3, np.array([[1.0, 1.0, 0.0]]))
        assert bound_kp_lower(ball, H) == 1.7817974362806737
        # the exact section length is 2^(5/6) (TestKpBounds)
        assert abs(bound_kp_lower(ball, H) - 2.0 ** (5.0 / 6.0)) <= 1e-14
