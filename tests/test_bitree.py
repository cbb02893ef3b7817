"""Phase solver for mixed walks on products of two regular trees."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from greengrowth import bitree
from greengrowth.bitree import (
    PhaseParams, capital_R, classify, f_sum_log, find_lambda0, hn_model_log,
    model_window, prefactor_exponent, psi, psi_prime, psi_second, r_of_t,
    solve_t0, solve_t1t2, t_derivatives, t_feasible_min, t_of_r,
)

P64 = PhaseParams(6, 4, 0.5, 0.5)


def _bisect_t1(params, t, lams):
    """Reference for `bitree._saddle_t1`: 110 vector bisection steps on
    the defect, which is decreasing in t1 on [beta1, (t - a2 beta2)/a1]."""
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    lams = np.asarray(lams, dtype=float)
    lo = np.full_like(lams, b1)
    hi = np.full_like(lams, (t - a2 * b2) / a1)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        t2 = (t - a1 * mid) / a2
        d = (a2 * np.sqrt(np.maximum(t2 * t2 - b2 * b2, 0.0))
             - lams * a1 * np.sqrt(np.maximum(mid * mid - b1 * b1, 0.0)))
        take = d > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


def test_closed_form_saddle_root_matches_bisection():
    # the model sum's lambdas (n - k)/k up to n = 64000, and lambda = 1,
    # where the quadratic degenerates to a linear equation
    lams = np.concatenate([
        (n - np.arange(1, n)) / np.arange(1, n) for n in (2000, 64000)]
        + [[1.0]])
    worst = 0.0
    for params in (P64, PhaseParams(4, 4, 0.5, 0.5),
                   PhaseParams(5, 3, 0.3, 0.7)):
        for t in np.linspace(t_feasible_min(params) + 1e-12, t_of_r(0.5), 5):
            closed = bitree._saddle_t1(params, t, lams)
            ref = _bisect_t1(params, t, lams)
            worst = max(worst, float(np.max(np.abs(closed - ref) / ref)))
            t1, _, _ = solve_t1t2(params, t, 1.0)
            worst = max(worst, abs(t1 - ref[-1]) / ref[-1])
    assert worst < 1e-14


def test_model_window_matches_bisection(monkeypatch):
    _, r0 = solve_t0(P64)
    closed = [model_window(P64, r)[1] for r in (1.05, r0, 1.106)]
    monkeypatch.setattr(bitree, "_saddle_t1", _bisect_t1)
    for r, vals in zip((1.05, r0, 1.106), closed):
        assert np.max(np.abs(vals - model_window(P64, r)[1])) < 1e-12


def test_model_window_has_the_bits_of_one_call_per_n():
    # one psi pass over all 25 grids, reduced per n
    _, r0 = solve_t0(P64)
    for r in (1.05, r0, 1.106):
        ns, vals = model_window(P64, r)
        assert vals.tolist() == [hn_model_log(P64, r, n) for n in ns]


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


def _bisect_lambda0(params, t, tol=1e-10):
    """Reference for `find_lambda0`: bisection on phi2(t2) - phi1(t1),
    which is strictly decreasing in lambda."""
    def gap(lam):
        t1, t2, _ = solve_t1t2(params, t, lam)
        return float(bitree._phi(params.l2, t2) - bitree._phi(params.l1, t1))

    if gap(0.0) <= 0.0:
        return 0.0, False
    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("Psi has no interior critical point "
                               "below lambda = 1e12")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g = gap(mid)
        if abs(g) / (1.0 + mid) ** 2 < tol * 1e-3:
            break
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def test_tau_inverts_phi():
    for l in (3, 4, 6):
        for g in (1e-6, 0.3, 1.0, 0.9 * math.sqrt(l - 1.0)):
            assert abs(bitree._phi(l, bitree._tau(l, g)) - math.log(g)) \
                < 1e-14 * max(1.0, abs(math.log(g)))
        # g = sqrt(l - 1) is the spectral edge, tau = beta
        assert abs(bitree._tau(l, math.sqrt(l - 1.0))
                   - math.sqrt(l - 1.0) / l) < 1e-16


def test_closed_form_lambda0_matches_bisection():
    # the benchmark's 40-point grid from 1 to R, for three parameter sets
    for params in (P64, PhaseParams(4, 4, 0.5, 0.5),
                   PhaseParams(5, 3, 0.3, 0.7)):
        R = capital_R(params)
        r0 = solve_t0(params)[1] if params.l1 != params.l2 else None
        for r in (1.0 + (R - 1.0) * i / 40 for i in range(40)):
            t = t_of_r(r)
            lam0, interior = find_lambda0(params, t)
            ref, ref_interior = _bisect_lambda0(params, t)
            assert interior == ref_interior
            if r0 is None or abs(r - r0) >= 1e-2 * r0:
                assert abs(lam0 - ref) <= 1e-10 * ref
            if interior:
                omega = classify(params, r).omega
                assert abs(omega - psi(params, t, ref)) \
                    <= 1e-13 * max(1.0, abs(omega))


def _mp_saddle(params, r, mp):
    """(lambda0, omega) of the interior maximum at r to the working
    precision: bisection on phi1(t1) = phi2(t2) in t1, with
    phi(tau) = log(l (tau - sqrt(tau^2 - beta^2)))."""
    l1, l2 = params.l1, params.l2
    a1, a2 = mp.mpf(params.a1), mp.mpf(params.a2)
    t = 1 / mp.mpf(r) - mp.mpf(1) / 2
    b1, b2 = mp.sqrt(l1 - 1) / l1, mp.sqrt(l2 - 1) / l2

    def phi(l, b, tau):
        return mp.log(l * (tau - mp.sqrt(max(tau * tau - b * b, 0))))

    lo, hi = b1, (t - a2 * b2) / a1
    for _ in range(220):
        mid = (lo + hi) / 2
        if phi(l1, b1, mid) > phi(l2, b2, (t - a1 * mid) / a2):
            lo = mid
        else:
            hi = mid
    t1 = (lo + hi) / 2
    t2 = (t - a1 * t1) / a2
    lam0 = (a2 * mp.sqrt(t2 * t2 - b2 * b2)
            / (a1 * mp.sqrt(t1 * t1 - b1 * b1)))
    return float(lam0), float(phi(l1, b1, t1))


def test_lambda0_near_threshold_matches_mpmath():
    # at r0 (1 - 1e-6) the saddle sits 1e-6 from the boundary; the closed
    # form keeps lambda0's digits there
    mp = pytest.importorskip("mpmath").mp
    for params in (P64, PhaseParams(7, 3, 0.8, 0.2),
                   PhaseParams(5, 3, 0.3, 0.7)):
        r = solve_t0(params)[1] * (1.0 - 1e-6)
        rep = classify(params, r)
        with mp.workdps(60):
            lam0, omega = _mp_saddle(params, r, mp)
        assert rep.interior
        assert abs(rep.lambda0 - lam0) <= 1e-9 * lam0
        assert abs(rep.omega - omega) <= 1e-13 * abs(omega)


def test_find_lambda0_validates_t():
    with pytest.raises(ValueError):
        find_lambda0(P64, t_feasible_min(P64))


def _bisect_t0(params):
    """Reference for `solve_t0`: bisection on phi1((t - a2 beta2)/a1) =
    (1/2) log(l2 - 1), with phi(tau) = log l + log(tau - sqrt(tau^2 -
    beta^2)) spelled out here rather than read from the kernel."""
    a1, a2, l1 = params.a1, params.a2, params.l1
    beta1_sq = (l1 - 1.0) / (l1 * l1)
    target = 0.5 * math.log(params.l2 - 1.0)

    def h(t):
        tau = (t - a2 * params.beta2) / a1
        disc = max(tau ** 2 - beta1_sq, 0.0)
        return math.log(l1) + math.log(tau - math.sqrt(disc)) - target

    lo, hi = t_feasible_min(params) + 1e-15, 0.5
    # h is decreasing in t; extend hi until a sign change
    while h(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t0 = 0.5 * (lo + hi)
    return t0, r_of_t(t0)


def test_threshold_t0_and_r0_frozen():
    t0a, r0a = solve_t0(P64)
    t0b, r0b = _bisect_t0(P64)
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


def test_psi_is_elementwise_with_its_limits():
    t = t_of_r(1.0)
    lams = [0.0, 0.3, 1.0, 2.5, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = psi(P64, t, np.array(lams))
        scalars = [psi(P64, t, lam) for lam in lams]
    assert all(type(v) is float for v in scalars)
    assert vector.tolist() == scalars
    # lambda = 0 and inf are the ends of the one-sided saddle system
    t1, t2, _ = solve_t1t2(P64, t, 0.0)
    assert scalars[0] == float(bitree._phi(P64.l1, t1))
    assert scalars[-1] == float(bitree._phi(
        P64.l2, (t - P64.a1 * P64.beta1) / P64.a2))
    with pytest.raises(ValueError):
        psi(P64, t, [0.5, -1.0])


def _sha(values):
    return hashlib.sha256(np.asarray(values, float).tobytes()).hexdigest()


P43 = PhaseParams(4, 3, 1.0 / 3.0, 2.0 / 3.0)
# sha256 of model_window's values and of hn_model_log at n = 1, 2, 5, 200
# and 2000, frozen under numpy 2.4 on x86-64
MODEL_PINS = [
    (P64, "1.05",
     "0011fbb66a1602859549bce8f7997fa1e387ba8e1fed27c1025e4ac15e75c40c",
     "64f42b4d760e0b138dea8c3dfee58a1a651f19be02f14c01639e02a72f094a8e"),
    (P64, "r0",
     "3b35c1578f02370db31b43b0717ddb4cdab481aacbbb53c8d56ab3cf78452ff1",
     "d830e41c32ff7b89802a05a49e5192b64f24aa1769bfb209fe6fc03a407b7d0e"),
    (P64, "1.106",
     "267fa723c5dab941374dd79caf0a61e03088cb766211600de4a17e665c21bf5e",
     "97204c857cbae76a7bc22d2c0732e025235fac92543af37e8dfc25102d10abc4"),
    (P43, "1.0",
     "ef3f398a995eb2bd94a94f31072f4caeb123bb8505060654e5c400c4c24a2954",
     "e6644de3fa0f09715269b9039bfb7f8a2692bc6e53920ba334e7ac3f56cca4d9"),
    (P43, "r0",
     "a4b5f84c0244939fe255f2f3fe0c16be0d85cba8b09e65bdfe5bedcd5f1228fa",
     "0bce8319e4ad889c0d1d7d2e73c648b4231378ed59171e3c5736581d0087c2d8"),
    (P43, "R(1-1e-6)",
     "90f94506feba78fe964c80c2e024505a18290b2b392621575b62d8adf1a9c2f7",
     "20f232f66e6e2a498363cf418c19a2509392b592a685814899a794ebb021c5e7"),
]


@pytest.mark.parametrize("params, where, window, sums", MODEL_PINS)
def test_model_sums_keep_their_bits(params, where, window, sums):
    r = {"r0": lambda: solve_t0(params)[1],
         "R(1-1e-6)": lambda: capital_R(params) * (1.0 - 1e-6)}.get(
             where, lambda: float(where))()
    ns, vals = model_window(params, r)
    assert ns.tolist() == np.unique(
        np.round(np.geomspace(200, 2000, 25)).astype(int)).tolist()
    assert _sha(vals) == window
    assert _sha([hn_model_log(params, r, n)
                 for n in (1, 2, 5, 200, 2000)]) == sums


@pytest.mark.parametrize("ns", [[], [3], [3, 3, 3]])
def test_prefactor_exponent_needs_two_distinct_n(ns):
    with pytest.raises(ValueError):
        prefactor_exponent([0.5] * len(ns), ns, 0.1)
    # two distinct n: the exact slope, with no residual to give an error
    slope, se = prefactor_exponent([0.0, math.log(4.0)], [2, 4], 0.0)
    assert slope == pytest.approx(2.0, rel=1e-12) and se == 0.0


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


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
def test_classify_symmetric_near_capital_r_matches_mpmath(eps):
    # near R, t^2 and A B = 3/16 agree in all but their last digits, so
    # omega = log(B / (t + sqrt(t^2 - A B))) needs t^2 - A B exactly
    mp = pytest.importorskip("mpmath").mp
    params = PhaseParams(4, 4, 0.5, 0.5)
    rep = classify(params, capital_R(params) * (1.0 - eps))
    with mp.workdps(60):
        t = mp.mpf(rep.t)
        omega = mp.log(mp.mpf(3) / 4 / (t + mp.sqrt(t * t - mp.mpf(3) / 16)))
        err = float(abs(rep.omega - omega) / abs(omega))
    assert err <= 1e-15


def test_classify_symmetric_at_small_r():
    # symmetry gives lambda0 = 1 and t1 = t2 = t, so omega = log(3 F) with
    # F the tree's first-passage value at w = 2 t; the phi formula
    # log l + log(t - sqrt(t^2 - beta^2)) loses most of its digits here
    mp = pytest.importorskip("mpmath").mp
    params = PhaseParams(4, 4, 0.5, 0.5)
    rep = classify(params, 1e-6)
    with mp.workdps(50):
        t = 1 / mp.mpf(1e-6) - mp.mpf(1) / 2
        F = 4 * (t - mp.sqrt(t * t - mp.mpf(3) / 16)) / 3
        omega = float(mp.log(3 * F))
    assert abs(rep.lambda0 - 1.0) < 1e-8
    assert abs(rep.omega - omega) < 1e-13


def test_classify_small_r_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(PhaseParams(4, 4, 0.5, 0.5), 1e-8)
    assert math.isfinite(rep.omega)


def test_classify_validates_range():
    with pytest.raises(ValueError):
        classify(P64, 1.2)
    with pytest.raises(ValueError):
        classify(P64, 0.0)
