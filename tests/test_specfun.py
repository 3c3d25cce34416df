import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from slicebound.bodies import KpBall, cube_decomposition
from slicebound.bounds import bound_kp_lower
from slicebound.decomp import Subspace
from slicebound.errors import DomainError
from slicebound.specfun import (
    SINC_POWER_MAX_P,
    QuadratureResult,
    WillsIntegrandParams,
    _M_SINE_ENVELOPE,
    _sinc_product_integrals,
    ball_integral_bound_check,
    dist_sq_ft,
    gamma_p,
    gauss_sine_integral,
    indicator_ft,
    sinc_power_integral,
    wills_g,
)

# high-precision references computed independently (30-digit quadrature)
REF_SINC_POWER = {
    2.5: 2.679382291500918,
    3.0: 2.416888418980815,
    6.0: 1.7278759594743863,
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
        assert res.value == pytest.approx(REF_SINC_POWER[p], abs=1e-10)
        assert res.abs_error_estimate < 1e-8
        assert res.evaluations > 0

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
        # abs 2e-11: the quadrature's own target
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
            2.416888418980815, 2.683285170702393e-14, 42)
        assert gamma_p(1.5, 2.0) == 0.531178117900647
        # wills_g uses fixed rules, checked against its reference table
        assert wills_g(WillsIntegrandParams(alpha=0.5, p=3.0)).value == \
            pytest.approx(float(REF_WILLS_G[0.5, 3.0]), rel=1e-10)
        ball = KpBall(cube_decomposition(3, one_sided=True), 1.5,
                      np.ones(3))
        H = Subspace(3, np.array([[1.0, 1.0, 0.0]]))
        assert bound_kp_lower(ball, H) == 1.7817974362806737
