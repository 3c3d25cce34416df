"""End-to-end acceptance suite: eleven numbered criteria, each asserting the
pinned tolerance and recording a single printed pass/fail line (shown in the
terminal summary)."""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from slicebound import (
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
    bound_volume_via_wills,
    cross_polytope_ball,
    cube_decomposition,
    exact_volume_smallk,
    hadamard_decomposition,
    hadamard_section_exact,
    lift_nonsymmetric,
    mc_kp_section_volume,
    mc_volume,
    nonsym_section_polytope,
    project,
    section_polytope,
    simplex_decomposition,
    v1_oracle,
)
from slicebound.bodies import vol_ball_p
from slicebound.errors import DegenerateRegimeError
from slicebound.specfun import (
    WillsIntegrandParams,
    ball_integral_bound_check,
    wills_g,
)
from slicebound.oracle import parseval_check

HADAMARD_PAIRS = [(2, 2), (2, 3), (2, 4), (4, 4), (4, 6), (4, 8)]


def test_criterion_1_hadamard_equality():
    t0 = time.time()
    worst_rel = 0.0
    worst_sigma = 0.0
    for k, n in HADAMARD_PAIRS:
        target = (n / k) ** (k / 2.0) * 2.0 ** k
        closed = hadamard_section_exact(k, n)   # cross-checks the det route
        worst_rel = max(worst_rel, abs(closed - target) / target)
        proj = project(hadamard_decomposition(k, n),
                       Subspace.coordinate(n, range(k)))
        poly = section_polytope(proj)
        if k <= 3:
            exact = exact_volume_smallk(poly)
            worst_rel = max(worst_rel, abs(exact - target) / target)
        est = mc_volume(poly, 10 ** 6, seed=101)
        sigma = (abs(est.mean - target) / est.std_error
                 if est.std_error > 0 else 0.0)
        worst_sigma = max(worst_sigma, sigma)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-9 and worst_sigma <= 3.0 and elapsed < 30
    record_criterion(1, ok, f"det/exact rel err {worst_rel:.2e}, "
                            f"MC max {worst_sigma:.2f} sigma, {elapsed:.1f}s")
    assert ok


def test_criterion_2_cube_sharpness():
    t0 = time.time()
    worst = 0.0
    for k in range(1, 7):
        proj = project(cube_decomposition(6), Subspace.coordinate(6, range(k)))
        value = bound_symmetric_case1(proj)
        worst = max(worst, abs(value - 2.0 ** k) / 2.0 ** k)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1
    record_criterion(2, ok, f"max rel dev from 2^k: {worst:.2e}, "
                            f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_ball_integral_inequality():
    t0 = time.time()
    all_hold = True
    for p in np.arange(2.0, 10.0 + 1e-9, 0.5):
        lhs, rhs, holds = ball_integral_bound_check(float(p))
        all_hold = all_hold and holds and lhs <= rhs + 1e-9
    i2, _, _ = ball_integral_bound_check(2.0)
    eq_err = abs(i2 - math.pi)
    elapsed = time.time() - t0
    ok = all_hold and eq_err <= 1e-8 and elapsed < 10
    record_criterion(3, ok, f"I_p <= sqrt(2) pi / sqrt(p) on [2,10], "
                            f"|I_2 - pi| = {eq_err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_parseval_diagonals():
    t0 = time.time()
    worst = 0.0
    gates_ok = True
    for n in (2, 3):
        proj = project(cube_decomposition(n, one_sided=True),
                       Subspace(n, np.ones((1, n))))
        lhs, rhs, gates = parseval_check(proj)
        worst = max(worst, abs(lhs - rhs))
        gates_ok = gates_ok and gates["rank_full"] and gates["factor_count"] \
            and not gates["mc_rhs"]
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and gates_ok and elapsed < 20
    record_criterion(4, ok, f"max |lhs - rhs| = {worst:.2e}, gates "
                            f"satisfied: {gates_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_k1_chain():
    t0 = time.time()
    rng = np.random.default_rng(105)
    violations = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        ball = cross_polytope_ball(n)
        H = Subspace.random(n, k, rng)
        mid = bound_k1_intermediate(ball, H)
        hi = bound_k1_upper(ball, H)
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 4, seed=1000 + trial)
        slack = 3.0 * est.std_error
        if not (est.mean <= mid + slack
                and mid <= hi + slack
                and hi <= vol_ball_p(k, 1.0) + slack):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300
    record_criterion(5, ok, f"{violations} violations in 100 subspaces, "
                            f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_kp_coordinate_equality():
    t0 = time.time()
    worst_rel = 0.0
    worst_sigma = 0.0
    for p in (1.0, 1.5, 2.0):
        ball = KpBall(cube_decomposition(4, one_sided=True), p, np.ones(4))
        H = Subspace.coordinate(4, [0, 1])
        target = vol_ball_p(2, p)
        value = bound_kp_upper(ball, H)
        worst_rel = max(worst_rel, abs(value - target) / target)
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 5, seed=106)
        worst_sigma = max(worst_sigma,
                          abs(est.mean - target) / est.std_error)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-10 and worst_sigma <= 3.0 and elapsed < 120
    record_criterion(6, ok, f"coordinate equality rel err {worst_rel:.2e}, "
                            f"MC max {worst_sigma:.2f} sigma, {elapsed:.1f}s")
    assert ok


def test_criterion_7_mean_width():
    t0 = time.time()
    rng = np.random.default_rng(107)
    dominated = True
    for trial in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        proj = project(cube_decomposition(n), Subspace.random(n, k, rng))
        poly = section_polytope(proj)
        dominated = dominated and \
            v1_oracle(poly) <= bound_mean_width(proj) + 1e-3
    eq_err = 0.0
    for k in (1, 2, 3):
        proj = project(cube_decomposition(k), Subspace.coordinate(k, range(k)))
        v1 = v1_oracle(section_polytope(proj))
        eq_err = max(eq_err, abs(v1 - 2.0 * k),
                     abs(bound_mean_width(proj) - 2.0 * k))
    elapsed = time.time() - t0
    ok = dominated and eq_err <= 1e-3 and elapsed < 60
    record_criterion(7, ok, f"oracle dominated on fixtures, full-cube "
                            f"equality err {eq_err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_wills_slope():
    t0 = time.time()
    h = 1e-4
    worst_slope = 0.0
    worst_zero = 0.0
    for p in (2.0, 3.0, 4.0):
        g0 = wills_g(WillsIntegrandParams(alpha=0.0, p=p)).value
        gh = wills_g(WillsIntegrandParams(alpha=h, p=p)).value
        target = 4.0 * math.pi * math.sqrt(p - 1.0)
        worst_slope = max(worst_slope,
                          abs((gh - g0) / h - target) / target)
        worst_zero = max(worst_zero,
                         abs(g0 - 2.0 * math.pi / math.sqrt(p)))
    elapsed = time.time() - t0
    ok = worst_slope <= 1e-2 and worst_zero <= 1e-8 and elapsed < 30
    record_criterion(8, ok, f"slope rel err {worst_slope:.2e}, value-at-0 "
                            f"err {worst_zero:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_karamata_orderings():
    from test_bounds import synthetic_projection

    t0 = time.time()
    rng = np.random.default_rng(109)
    violations = 0
    for trial in range(1000):
        k = int(rng.integers(1, 6))
        m0 = int(rng.integers(k, 2 * k + 1))
        proj = synthetic_projection(rng, k, m0)
        if bound_symmetric_case1(proj) > bound_ab_old(proj) * (1 + 1e-12):
            violations += 1
        # Gamma-Karamata product against its closed-form ceiling
        tc = rng.random(m0)
        log_prod = sum(
            (1.0 - t) * (math.lgamma(1.0 / (1.0 - t) - 0.5)
                         - math.lgamma(1.0 / (1.0 - t))
                         - 0.5 * math.log(1.0 - t))
            for t in tc
        )
        if log_prod > (m0 - tc.sum()) / 2.0 * math.log(math.pi) + 1e-10:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30
    record_criterion(9, ok, f"{violations} ordering violations in 1000 "
                            f"configurations, {elapsed:.1f}s")
    assert ok


def test_criterion_10_nonsym_sharpness():
    t0 = time.time()
    value = bound_nonsym_hyperplane(2)
    exact_ok = abs(value - 3.0) <= 1e-12
    d = simplex_decomposition(2)
    rng = np.random.default_rng(110)
    max_len = 0.0
    for _ in range(50):
        g = rng.standard_normal(2)
        F = Subspace(2, (g / np.linalg.norm(g))[None, :])
        max_len = max(max_len, exact_volume_smallk(
            nonsym_section_polytope(d, F)))
    never_exceeds = max_len <= 3.0 + 1e-9    # exact oracle: sigma = 0
    # the sharp direction is the median through a vertex, i.e. a contact
    # vector of the simplex system
    F = Subspace(2, d.vectors[0][None, :])
    sharp = exact_volume_smallk(nonsym_section_polytope(d, F))
    attains = sharp >= 0.95 * value
    elapsed = time.time() - t0
    ok = exact_ok and never_exceeds and attains and elapsed < 120
    record_criterion(10, ok, f"bound(2) = {value:.12f}, max random length "
                             f"{max_len:.4f}, sharp direction attains "
                             f"{sharp / value:.1%}, {elapsed:.1f}s")
    assert ok


def test_criterion_11_dominance_sweep():
    t0 = time.time()
    rng = np.random.default_rng(111)
    configs = 0
    violations = 0

    # symmetric cube and Hadamard sections: upper bounds vs MC
    systems = [cube_decomposition(n) for n in range(2, 7)]
    systems += [hadamard_decomposition(2, n) for n in (2, 3, 4)]
    systems += [hadamard_decomposition(4, n) for n in (4, 6, 8)]
    for trial in range(160):
        d = systems[int(rng.integers(len(systems)))]
        k = int(rng.integers(1, min(3, d.dim) + 1))
        proj = project(d, Subspace.random(d.dim, k, rng))
        est = mc_volume(section_polytope(proj), 2 * 10 ** 4,
                        seed=2000 + trial)
        floor = est.mean - 3.0 * est.std_error
        uppers = [bound_ab_old(proj), bound_volume_via_wills(proj)]
        if np.all(proj.tilde_weights >= 0.5):
            uppers.append(bound_symmetric_case1(proj))
            uppers.append(bound_symmetric_case1_coarse(proj))
        configs += 1
        if any(u < floor for u in uppers):
            violations += 1

    # generalized l_p balls: upper and lower bounds vs MC
    for trial in range(120):
        p = (1.0, 1.5, 2.0)[trial % 3]
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        alphas = np.exp(rng.uniform(-0.5, 0.5, n))
        ball = KpBall(cube_decomposition(n, one_sided=True), p, alphas)
        H = Subspace.random(n, k, rng)
        est = mc_kp_section_volume(ball, H, 2 * 10 ** 4, seed=3000 + trial)
        floor = est.mean - 3.0 * est.std_error
        ceil = est.mean + 3.0 * est.std_error
        uppers = [bound_kp_upper(ball, H)]
        lowers = []
        try:
            lowers.append(bound_kp_lower(ball, H))
        except DegenerateRegimeError:
            pass
        if p == 1.0:
            uppers += [bound_k1_upper(ball, H),
                       bound_k1_intermediate(ball, H)]
            try:
                lowers.append(bound_k1_lower(ball, H))
            except DegenerateRegimeError:
                pass
        configs += 1
        if any(u < floor for u in uppers) or any(lo > ceil for lo in lowers):
            violations += 1

    # nonsymmetric simplex sections against the exact oracle
    for trial in range(40):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(3, n) + 1))
        d = simplex_decomposition(n)
        F = Subspace.random(n, k, rng)
        exact = exact_volume_smallk(nonsym_section_polytope(d, F))
        nl = lift_nonsymmetric(d, F)
        configs += 1
        if np.all(nl.kappa >= 0.5):
            if bound_nonsym_fourier(nl) < exact - 1e-9:
                violations += 1

    elapsed = time.time() - t0
    ok = configs >= 300 and violations == 0 and elapsed < 600
    record_criterion(11, ok, f"{violations} violations over {configs} "
                             f"configurations, {elapsed:.1f}s")
    assert ok
