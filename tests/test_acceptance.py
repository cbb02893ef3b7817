"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints `CRITERION k: PASS|FAIL -- detail` before asserting, so a
plain `pytest -v -s tests/test_acceptance.py` yields a line per criterion.
The printed line carries the measured values, so a FAIL shows how far off
the program is.
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from greengrowth.bitree import (
    PhaseParams, capital_R, classify, f_sum_log, find_lambda0, model_window,
    prefactor_exponent, psi, psi_prime, solve_t0, solve_t1t2, t_feasible_min,
    t_of_r,
)
from greengrowth.brw import BrwConfig, mean_offspring, offspring_law, simulate
from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, RegularTree, TreeProduct,
    dl_sphere_count, group_for, tree_level_sphere_count,
)
from greengrowth.growth import h_series, omega_estimate
from greengrowth.kernels import (
    first_return_kernel, green_truncated, standard_measure,
)
from greengrowth.freeprod import scan_construction, transfer, transfer_consistency
from greengrowth.trees import (
    lamplighter_h1_model, tree_omega, tree_sphere_green_sum,
)
from test_bitree import _bisect_t0
from test_kernels import _tree_chain_green

P64 = PhaseParams(6, 4, 0.5, 0.5)


def report(num, checks):
    """checks: list of (ok, detail); prints the criterion line, then asserts."""
    ok = all(c[0] for c in checks)
    failing = "; ".join(d for o, d in checks if not o)
    passing = "; ".join(d for o, d in checks if o)
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    detail = failing if failing else passing
    full = f"{line} -- {detail}"
    print(full, file=sys.stderr)
    try:
        import conftest
        conftest.CRITERION_LINES.append(full)
    except ImportError:
        pass
    assert ok, f"{line} -- {failing}"


@lru_cache(maxsize=None)
def zd_series():
    return h_series(FreeAbelian(3), r=1.0, n_max=30)


@lru_cache(maxsize=None)
def dl_series():
    return h_series(DiestelLeader(3), r=1.0, n_max=14)


def test_criterion_1_dl_counting():
    t0 = time.time()
    checks = []
    for q in (2, 3):
        layers = group_for(DiestelLeader(q)).ball(8)
        exact = all(len(layers[n]) == dl_sphere_count(q, n)
                    for n in range(9))
        checks.append((exact, f"q={q} BFS==formula n<=8"))
    table = (tree_level_sphere_count(3, 1, 1) == 3
             and tree_level_sphere_count(3, 2, 0) == 2
             and tree_level_sphere_count(3, 4, 2) == 18)
    checks.append((table, "level-count table (3, 2, 18)"))
    elapsed = time.time() - t0
    checks.append((elapsed < 60, f"runtime {elapsed:.1f}s < 60s"))
    report(1, checks)


def test_criterion_2_tree_closed_forms():
    t0 = time.time()
    checks = []
    worst = 0.0
    for l in (4, 6):
        spec = RegularTree(l)
        m = standard_measure(spec)
        g = group_for(spec)
        for r in (0.8, 1.0):
            xs = [g.sphere(n)[0] for n in range(7)]
            est = green_truncated(m, xs, r, tol=1e-9)
            chain = _tree_chain_green(l, r, 6)
            for n, x in enumerate(xs):
                e = est[x]
                diff = abs(e.value - chain[n])
                worst = max(worst, diff)
                if not (e.rigorous and e.tail <= 1e-9 and diff <= 1e-9):
                    checks.append(
                        (False, f"l={l} r={r} n={n} diff={diff:.2e}"))
    checks.append((worst <= 1e-9,
                   f"engine vs distance chain, worst {worst:.2e}"))
    hs = [tree_sphere_green_sum(4, 1.0, n) for n in range(1, 11)]
    checks.append((all(abs(h - 4.0) < 1e-12 for h in hs),
                   "H_n(T4, r=1) = 4 for n=1..10"))
    elapsed = time.time() - t0
    checks.append((elapsed < 30, f"runtime {elapsed:.1f}s < 30s"))
    report(2, checks)


def test_criterion_3_bitree_solver():
    t0 = time.time()
    lam_grid = np.linspace(0.05, 3.0, 20)
    t_grid = np.linspace(t_feasible_min(P64) + 1e-4, t_of_r(0.95), 20)
    worst = max(abs(solve_t1t2(P64, t, lam)[2])
                for t in t_grid for lam in lam_grid)
    checks = [(worst <= 1e-12, f"saddle residuals, worst {worst:.2e}")]

    from greengrowth.bitree import t_derivatives

    h = 1e-6
    worst_d = worst_p = 0.0
    for (t, lam) in [(t_of_r(1.02), 0.5), (t_of_r(1.05), 1.2),
                     (t_of_r(0.98), 2.0)]:
        dt1, dt2 = t_derivatives(P64, t, lam)
        t1p, t2p, _ = solve_t1t2(P64, t, lam + h)
        t1m, t2m, _ = solve_t1t2(P64, t, lam - h)
        worst_d = max(worst_d,
                      abs(dt1 - (t1p - t1m) / (2 * h)) / max(abs(dt1), 1e-9),
                      abs(dt2 - (t2p - t2m) / (2 * h)) / max(abs(dt2), 1e-9))
        fd = (psi(P64, t, lam + h) - psi(P64, t, lam - h)) / (2 * h)
        worst_p = max(worst_p, abs(psi_prime(P64, t, lam) - fd))
    checks.append((worst_d < 1e-6, f"derivative formulas vs FD {worst_d:.2e}"))
    checks.append((worst_p < 1e-6, f"Psi' vs FD {worst_p:.2e}"))
    elapsed = time.time() - t0
    checks.append((elapsed < 10, f"runtime {elapsed:.1f}s < 10s"))
    report(3, checks)


def test_criterion_4_symmetric_case():
    params = PhaseParams(4, 4, 0.5, 0.5)
    R = capital_R(params)
    worst_l = worst_p = worst_o = 0.0
    # stay 1e-4 below R: the saddle system behind psi degenerates at R
    for r in np.linspace(1.0 + 1e-6, R - 1e-4, 10):
        t = t_of_r(r)
        lam0, _ = find_lambda0(params, t)
        worst_l = max(worst_l, abs(lam0 - 1.0))
        worst_p = max(worst_p, abs(psi_prime(params, t, lam0)))
        beta = params.beta1
        closed = math.log(4.0 * (t - math.sqrt(max(t * t - beta * beta, 0))))
        worst_o = max(worst_o, abs(psi(params, t, lam0) - closed))
    report(4, [(worst_l < 1e-8, f"|lambda0 - 1| {worst_l:.2e}"),
               (worst_p < 1e-10, f"|Psi'(lambda0)| {worst_p:.2e}"),
               (worst_o < 1e-10, f"omega vs closed form {worst_o:.2e}")])


def test_criterion_5_threshold():
    t0a, r0a = solve_t0(P64)
    t0b, r0b = _bisect_t0(P64)
    exact_t = 17.0 * math.sqrt(3.0) / 72.0
    exact_r = 72.0 / (17.0 * math.sqrt(3.0) + 36.0)
    R = capital_R(P64)
    report(5, [
        (abs(t0a - exact_t) < 1e-12 and abs(t0b - exact_t) < 1e-12,
         f"t0 algebraic/bisect vs 17 sqrt3/72, diffs "
         f"{abs(t0a - exact_t):.1e}/{abs(t0b - exact_t):.1e}"),
        (abs(r0a - exact_r) < 1e-10, f"r0 diff {abs(r0a - exact_r):.1e}"),
        (1.0 < r0a < R, f"1 < r0={r0a:.7f} < R={R:.7f}"),
    ])


def slope_at(r):
    ns, logs = model_window(P64, r)
    slope, _ = prefactor_exponent(logs, ns, classify(P64, r).omega)
    return slope


def test_criterion_6_regime_exponents():
    t0 = time.time()
    _, r0 = solve_t0(P64)
    # regime map of the model sum (see the bitree module docstring):
    # constant prefactor on (1, r0), n^{-3/2} on (r0, R), n^{-1/2} at r0.
    # At r0, Psi'(0) = 0 and Psi''(0) < 0.  With k = n - j the weight is
    # (k + kappa1)(j + kappa2) ~ n (j + kappa2), which vanishes linearly at
    # the boundary, so the model sum is
    # n^{-5/2} * n * sum_j (j + kappa2) e^{-c j^2 / n} ~ n^{-5/2} * n * n.
    s_flat = slope_at(1.05)
    s_crit = slope_at(r0)
    s_32 = slope_at(1.106)
    checks = [
        (abs(s_flat) <= 0.1, f"slope(1.05)={s_flat:.4f} vs 0 +/- 0.1"),
        (abs(s_crit + 0.5) <= 0.15,
         f"slope(r0)={s_crit:.4f} vs -1/2 +/- 0.15"),
        (abs(s_32 + 1.5) <= 0.1, f"slope(1.106)={s_32:.4f} vs -1.5 +/- 0.1"),
    ]
    ns = np.arange(200, 2001, 75)

    def f_slope(phi):
        logs = [f_sum_log(phi, int(n)) for n in ns]
        slope, _ = prefactor_exponent(logs, ns, 0.0)
        return slope

    e1 = f_slope(lambda lam: -lam)
    e2 = f_slope(lambda lam: -(lam - 1.0) ** 2)
    # Phi = -lambda^2: with k = n - j the weight k (n - k) = (n - j) j
    # vanishes linearly at k = n and n Phi ~ -j^2 / n, so
    # f(n) ~ n * sum_j j e^{-j^2 / n} ~ n^2 / 2
    e3 = f_slope(lambda lam: -lam * lam)
    checks.append((abs(e1 - 1.0) <= 0.1, f"f_sum exponent {e1:.3f} vs 1"))
    checks.append((abs(e2 - 2.5) <= 0.1, f"f_sum exponent {e2:.3f} vs 5/2"))
    checks.append((abs(e3 - 2.0) <= 0.1, f"f_sum exponent {e3:.3f} vs 2"))
    elapsed = time.time() - t0
    checks.append((elapsed < 60, f"runtime {elapsed:.1f}s < 60s"))
    report(6, checks)


def fitted_omega(series, window):
    """omega from the least-squares fit log H(n) ~ omega n + b log n + c.

    The raw slope of log H on a short window also carries the polynomial
    prefactor: for H = a n it is about 1/n, 0.093 on [8, 14].  Fitting
    log n jointly removes it, so omega(1) = 0 can be read off directly.
    """
    lo, hi = window
    ns = np.arange(lo, hi + 1, dtype=float)
    y = np.log([series.value(int(n)) for n in ns])
    A = np.vstack([ns, np.log(ns), np.ones_like(ns)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def test_criterion_7_omega_vanishes_at_one():
    zd = zd_series()
    dl = dl_series()
    s_zd = omega_estimate(zd, window=(20, 30)).slope
    s_dl = omega_estimate(dl, window=(8, 14)).slope
    w_zd = fitted_omega(zd, (20, 30))
    w_dl = fitted_omega(dl, (8, 14))
    checks = [
        (abs(w_zd) < 0.05,
         f"Z^3 omega [20,30] {w_zd:.5f} (raw slope {s_zd:.5f})"),
        (abs(w_dl) < 0.05,
         f"DL(3,3) omega [8,14] {w_dl:.5f} (raw slope {s_dl:.5f})"),
    ]
    # negative control: the same fit must see a genuinely exponential series
    tree = h_series(RegularTree(4), r=1.05, n_max=14)
    w_tree = fitted_omega(tree, (8, 14))
    w_exact = tree_omega(4, 1.05)
    checks.append((abs(w_tree - w_exact) < 1e-6,
                   f"T4 r=1.05 omega [8,14] {w_tree:.6f} vs {w_exact:.6f}"))
    for name, series, n_hi in (("Z^3", zd, 30), ("DL", dl, 14)):
        c_hat = max(series.value(n) / n ** 3 for n in range(1, 11))
        bound = all(series.value(n) <= c_hat * n ** 3 + 1e-9
                    for n in range(1, n_hi + 1))
        checks.append((bound, f"{name} H(n) <= C n^3"))
    report(7, checks)


def test_criterion_8_renewal_linearity():
    zd = zd_series()
    ratios = [zd.value(n) / n for n in range(10, 31)]
    band = max(ratios) / min(ratios)
    v40 = lamplighter_h1_model(3, 40) / 40
    v80 = lamplighter_h1_model(3, 80) / 80
    drift = abs(v80 - v40) / v40
    report(8, [(band <= 3.0, f"Z^3 H(n)/n band ratio {band:.5f} <= 3"),
               (drift < 0.10, f"lamplighter drift {drift:.4f} < 0.10")])


def test_criterion_9_free_product_transfer():
    t0 = time.time()
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    left = group_for(spec.left)
    elements = [left.sphere(1)[0], left.sphere(2)[0], left.sphere(2)[-1],
                left.sphere(3)[0]]
    checks = []
    worst = 0.0
    for alpha in (0.2, 0.5):
        m = standard_measure(spec, alpha=alpha)
        rows = transfer_consistency(spec, m, 0.9, elements, n_max=24,
                                    support_cap=50_000)
        w = max(rel for _, _, _, rel in rows)
        worst = max(worst, w)
        checks.append((w <= 0.05,
                       f"alpha={alpha} r=0.9 worst rel {w:.4f} <= 5%"))
    m = standard_measure(spec, alpha=0.2)
    points = [transfer(spec, m, r, n_max=24, support_cap=50_000)
              for r in np.linspace(0.2, 1.05, 8)]
    w0s = [p.w0 for p in points]
    z0s = [p.zeta0 for p in points]
    mono = (all(a < b for a, b in zip(w0s, w0s[1:]))
            and all(a < b for a, b in zip(z0s, z0s[1:])))
    checks.append((mono, "w0, zeta0 monotone on 8-point r-grid"))
    m3 = standard_measure(spec, alpha=0.3)
    g = m3.group
    kern = first_return_kernel(m3, lambda a: g.factor_part(1, a) is not None,
                               1.0, n_max=24, support_cap=50_000)
    checks.append((kern.total_mass_lower < 1.0,
                   f"first-return mass lower bound "
                   f"{kern.total_mass_lower:.4f} < 1"))
    elapsed = time.time() - t0
    checks.append((elapsed < 600, f"runtime {elapsed:.1f}s < 600s"))
    report(9, checks)


def test_criterion_10_construction_scan():
    t0 = time.time()
    rep = scan_construction(P64, 3, 0.05,
                            r_grid=np.linspace(1.0, 1.13, 9),
                            n_max=24, support_cap=50_000, full_series_n=0)
    r0 = rep.r0
    conv = [p for p in rep.points
            if p.zeta0 > r0 and p.diagnostic_label == "convergent-type"
            and p.diagnostic_exponent is not None
            and p.diagnostic_exponent < -1.0]
    div = [p for p in rep.points
           if 1.0 < p.zeta0 < r0 and p.diagnostic_label == "divergent-type"
           and p.diagnostic_exponent is not None
           and p.diagnostic_exponent >= -1.0]
    checks = [
        (bool(conv), f"{len(conv)} grid points with zeta0 > r0 and "
                     f"convergent diagnostic"),
        (bool(div), f"{len(div)} grid points with zeta0 < r0 and "
                    f"divergent diagnostic"),
        (rep.crossing_residual is not None and rep.crossing_residual < 1e-6,
         f"crossing residual {rep.crossing_residual:.2e} < 1e-6 "
         f"at r*={rep.crossing_r:.6f}"),
    ]
    elapsed = time.time() - t0
    checks.append((elapsed < 60, f"runtime {elapsed:.1f}s < 60s"))
    report(10, checks)


def test_criterion_11_brw():
    t0 = time.time()
    cfg = BrwConfig(mean_offspring(1.05), max_generation=100,
                    population_cap=8000, seed=12345, runs=50)
    out = simulate(RegularTree(4), None, cfg, radius=12)
    frac = out.fraction_positive
    checks = [(frac >= 0.90,
               f"fraction with (1/12) log M_12 > 0: {frac:.2f} >= 0.90")]

    from fractions import Fraction

    single = BrwConfig(offspring_law({1: Fraction(1)}), 50, 100, 7, 5)
    sp = simulate(RegularTree(4), None, single)
    checks.append((all(all(p == 1 for p in t.population) for t in sp.runs),
                   "delta_1 offspring reduces to a single path"))
    again = simulate(RegularTree(4), None, cfg, radius=12)
    det = all(np.array_equal(a.m_counts, b.m_counts)
              for a, b in zip(out.runs, again.runs))
    checks.append((det, "fixed-seed determinism byte-exact"))
    elapsed = time.time() - t0
    checks.append((elapsed < 300, f"runtime {elapsed:.1f}s < 300s"))
    report(11, checks)
