"""Phase solver for mixed walks on products of two regular trees."""

import math

import numpy as np
import pytest

from greengrowth.bitree import (
    PhaseParams, capital_R, classify, f_sum_log, find_lambda0, hn_model_log,
    model_window, prefactor_exponent, psi, psi_prime, psi_second, r_of_t,
    solve_t0, solve_t1t2, t_derivatives, t_of_r,
)

P64 = PhaseParams(6, 4, 0.5, 0.5)


def test_capital_r_frozen():
    assert abs(capital_R(P64) - 1.1076094051200098) < 1e-14


def test_t_of_r_round_trip():
    for r in (0.9, 1.0, 1.05, 1.1):
        assert abs(r_of_t(t_of_r(r)) - r) < 1e-15


def test_saddle_system_residuals_small():
    lam_grid = np.linspace(0.02, 3.0, 8)
    t_grid = np.linspace(t_of_r(capital_R(P64)) + 1e-4, t_of_r(0.95), 8)
    worst = 0.0
    for t in t_grid:
        for lam in lam_grid:
            _, _, res = solve_t1t2(P64, t, lam)
            worst = max(worst, abs(res))
    assert worst < 1e-12


def test_derivatives_match_finite_differences():
    t, lam = t_of_r(1.05), 0.7
    h = 1e-6
    dt1, dt2 = t_derivatives(P64, t, lam)
    t1p, t2p, _ = solve_t1t2(P64, t, lam + h)
    t1m, t2m, _ = solve_t1t2(P64, t, lam - h)
    assert abs(dt1 - (t1p - t1m) / (2 * h)) < 1e-6
    assert abs(dt2 - (t2p - t2m) / (2 * h)) < 1e-6
    dpsi = psi_prime(P64, t, lam)
    fd = (psi(P64, t, lam + h) - psi(P64, t, lam - h)) / (2 * h)
    assert abs(dpsi - fd) < 1e-6
    d2 = psi_second(P64, t, lam)
    fd2 = (psi_prime(P64, t, lam + h) - psi_prime(P64, t, lam - h)) / (2 * h)
    assert abs(d2 - fd2) < 1e-5


def test_symmetric_case_lambda0_is_one():
    params = PhaseParams(4, 4, 0.5, 0.5)
    for r in np.linspace(1.0 + 1e-4, capital_R(params) - 1e-4, 10):
        t = t_of_r(r)
        lam0, interior = find_lambda0(params, t)
        assert abs(lam0 - 1.0) < 1e-8
        assert abs(psi_prime(params, t, lam0)) < 1e-10
        beta = params.beta1
        closed = math.log(4.0 * (t - math.sqrt(max(t * t - beta * beta, 0))))
        assert abs(psi(params, t, lam0) - closed) < 1e-10


def test_threshold_t0_and_r0_frozen():
    t0a, r0a = solve_t0(P64, method="algebraic")
    t0b, r0b = solve_t0(P64, method="bisect")
    exact = 17.0 * math.sqrt(3.0) / 72.0
    assert abs(t0a - exact) < 1e-12
    assert abs(t0b - exact) < 1e-10
    exact_r0 = 72.0 / (17.0 * math.sqrt(3.0) + 36.0)
    assert abs(r0a - exact_r0) < 1e-10
    assert 1.0 < r0a < capital_R(P64)


def test_regime_classification():
    _, r0 = solve_t0(P64)
    assert classify(P64, 1.05).regime == "pure-exponential"
    assert classify(P64, r0).regime == "critical-over-sqrt-n"
    assert classify(P64, 1.106).regime == "over-n-3-2"
    rep = classify(P64, r0)
    assert abs(rep.omega - 0.5 * math.log(3.0)) < 1e-12


def _window_slope(r):
    ns, logs = model_window(P64, r)
    slope, _ = prefactor_exponent(logs, ns, classify(P64, r).omega)
    return slope


def test_model_window_slopes():
    _, r0 = solve_t0(P64)
    assert abs(_window_slope(1.05) - 0.0) < 0.1
    assert abs(_window_slope(1.106) + 1.5) < 0.1
    # at the threshold the boundary maximum with Psi'(0) = 0 yields a
    # genuine n^-1/2-type critical window; on [200, 2000] the measured
    # exponent is -0.41 (frozen)
    assert abs(_window_slope(r0) + 0.4122) < 0.01


def test_f_sum_synthetic_exponents():
    ns = np.arange(200, 2001, 75)

    def run(phi):
        logs = [f_sum_log(phi, int(n)) for n in ns]
        slope, _ = prefactor_exponent(logs, ns, 0.0)
        return slope

    # boundary maximum with negative slope: only O(1) terms contribute
    assert abs(run(lambda lam: -lam) - 1.0) < 0.1
    # interior quadratic maximum: k(n-k) bulk times an n^{1/2} window
    assert abs(run(lambda lam: -(lam - 1.0) ** 2) - 2.5) < 0.1
    # boundary maximum with vanishing slope: the weight k(n-k) ~ n m over
    # an m <~ sqrt(n) window gives f ~ n^2 (frozen measured 2.06)
    assert abs(run(lambda lam: -lam * lam) - 2.06) < 0.1


def test_boundary_prefactor_limits():
    # the frozen window exponents above (2.06 and -0.41) are pre-asymptotic;
    # on long n the boundary-maximum cases settle at the Laplace limits
    # f ~ n^2 / 2 for Phi = -lambda^2 and H ~ n^{-1/2} e^{n omega} at r0
    ratios = [math.exp(f_sum_log(lambda lam: -lam * lam, n) - 2 * math.log(n))
              for n in (1000, 4000, 16000)]
    assert ratios[0] < ratios[1] < ratios[2] < 0.5
    assert 0.5 - ratios[2] < 0.02

    _, r0 = solve_t0(P64)
    omega = classify(P64, r0).omega
    lo, hi = (hn_model_log(P64, r0, n) - n * omega for n in (16000, 64000))
    step = math.exp(hi - lo)  # H e^{-n omega} from n = 16000 to 4n
    assert abs(2.0 * step - 1.0) < 0.05  # H n^{1/2} e^{-n omega} settles
    assert 4.0 * step > 1.8  # H n e^{-n omega} keeps growing


def test_classify_at_capital_r():
    # at R, lambda0 = 0 and t1 = beta1, so omega(R) = (1/2) log(l1 - 1)
    R = capital_R(P64)
    rep = classify(P64, R)
    assert rep.regime == "over-n-3-2"
    assert abs(rep.omega - 0.5 * math.log(5.0)) < 1e-12
    assert 0.0 < rep.omega - classify(P64, R * (1.0 - 1e-9)).omega < 1e-3


def test_classify_validates_range():
    with pytest.raises(ValueError):
        classify(P64, 1.2)
    with pytest.raises(ValueError):
        classify(P64, 0.0)
