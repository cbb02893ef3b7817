"""Free-product Green transfer and the construction scan (fast settings).

`transfer` solves the factor equations and runs no sweep; the tagged
first-return sweep and the direct Green values are the independent
cross-checks, run here at small truncation so the whole file stays in the
seconds range.  The full-resolution runs (N = 24, support cap 50k) live in
the acceptance suite.
"""

import numpy as np
import pytest

from greengrowth import freeprod, growth
from greengrowth.bitree import PhaseParams, capital_R, classify, solve_t0
from greengrowth.groups import FreeAbelian, FreeProduct, TreeProduct
from greengrowth.kernels import MEMO_SIZE, green_truncated, standard_measure
from greengrowth.freeprod import (
    induced_omega_P, scan_construction, tagged_return_coefficients,
    transfer, transfer_consistency,
)

SPEC = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
FAST = dict(n_max=10, support_cap=5_000)
P64 = PhaseParams(6, 4, 0.5, 0.5)
SPEC64 = FreeProduct(TreeProduct(6, 4), FreeAbelian(3))


def measure_for(alpha):
    return standard_measure(SPEC, alpha=alpha)


def factor_residuals(measure, p):
    """Residuals of G0(zeta0)/(1-w0) = G1(zeta1)/(1-w1) = 1/(1-w0-w1),
    with factor measures built here from their own parameters."""
    spec = measure.spec
    a1 = measure.param("left").param("a1")
    m0 = standard_measure(spec.left, a1=a1)
    m1 = standard_measure(spec.right)
    e0, e1 = m0.group.identity(), m1.group.identity()
    g0 = green_truncated(m0, [e0], p.zeta0)[e0].value
    g1 = green_truncated(m1, [e1], p.zeta1)[e1].value
    g = 1.0 / (1.0 - p.w0 - p.w1)
    return g0 / (1.0 - p.w0) - g, g1 / (1.0 - p.w1) - g


def test_tagged_coefficients_are_subprobabilities():
    m = measure_for(0.3)
    a_left, a_right = tagged_return_coefficients(m, **FAST)
    assert a_left[0] == 0.0 and a_right[0] == 0.0
    assert (a_left >= 0).all() and (a_right >= 0).all()
    assert a_left.sum() + a_right.sum() < 1.0


def test_transfer_monotone_in_r():
    m = measure_for(0.3)
    points = [transfer(SPEC, m, r, **FAST)
              for r in np.linspace(0.3, 1.0, 8)]
    w0 = [p.w0 for p in points]
    z0 = [p.zeta0 for p in points]
    assert all(a < b for a, b in zip(w0, w0[1:]))
    assert all(a < b for a, b in zip(z0, z0[1:]))
    assert all(p.truncation == -1 for p in points)


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5])
def test_transfer_solves_factor_equations(alpha):
    m = measure_for(alpha)
    for r in (0.0, 0.2, 0.5, 0.9, 1.05):
        p = transfer(SPEC, m, r)
        res = factor_residuals(m, p)
        assert max(abs(x) for x in res) <= 1e-12, (r, res)


def test_transfer_bounds_the_tagged_sweep():
    # the pruned, truncated sweep gives lower bounds on the same series
    m = measure_for(0.3)
    a_left, a_right = tagged_return_coefficients(m, 10, 5_000)
    for r in (0.1, 0.2, 0.35, 0.5, 0.8):
        powers = r ** np.arange(11)
        p = transfer(SPEC, m, r)
        for w, tagged in ((p.w0, a_right @ powers), (p.w1, a_left @ powers)):
            assert w >= tagged - 1e-12
            if r <= 0.35:
                assert w - tagged <= 1e-8


def test_transfer_raises_past_the_radius():
    m = standard_measure(SPEC64, alpha=0.05)
    assert transfer(SPEC64, m, 1.13).zeta0 < capital_R(P64)
    with pytest.raises(ValueError):
        transfer(SPEC64, m, 1.14)


def test_freeprod_measure_keeps_its_factors():
    # the factors' own parameters reach the tagged sweep and the transfer
    m = standard_measure(SPEC64, alpha=0.05, left_params={"a1": 0.3})
    left = standard_measure(SPEC64.left, a1=0.3)
    assert m.param("left") == left
    assert m.param("right") == standard_measure(SPEC64.right)
    a_left, _ = tagged_return_coefficients(m, 4, 5_000)
    e = left.group.identity()
    step2 = 0.95 ** 2 * sum(float(w) ** 2 for x, w in left.weights if x != e)
    assert a_left[2] == pytest.approx(step2, rel=1e-12)
    p = transfer(SPEC64, m, 1.05)
    assert max(abs(x) for x in factor_residuals(m, p)) <= 1e-12


def test_transfer_limits():
    m = measure_for(0.3)
    p = transfer(SPEC, m, 0.5, **FAST)
    # without returns, zeta0 would be (1 - alpha) r; returns only raise it
    assert p.zeta0 >= (1 - 0.3) * 0.5
    assert p.zeta1 >= 0.3 * 0.5
    assert 0.0 < p.w0 < 1.0 and 0.0 < p.w1 < 1.0


def test_transfer_consistency_small_truncation():
    from greengrowth.groups import group_for

    m = measure_for(0.3)
    left = group_for(SPEC.left)
    elements = [left.sphere(1)[0], left.sphere(2)[0]]
    rows = transfer_consistency(SPEC, m, 0.8, elements, **FAST)
    for _, direct, transferred, rel in rows:
        assert direct > 0 and transferred > 0
        assert rel < 0.05


def test_induced_omega_requires_factor_range():
    params = PhaseParams(6, 4, 0.5, 0.5)
    m = standard_measure(
        FreeProduct(TreeProduct(6, 4), FreeAbelian(3)), alpha=0.3)
    spec = m.spec
    point = transfer(spec, m, 0.5, **FAST)
    if point.zeta0 <= 0:
        pytest.skip("degenerate transfer point")
    om = induced_omega_P(params, point)
    assert om < 0  # far below the radius: summable factor series
    bad = transfer(spec, m, 0.5, **FAST)
    too_big = type(bad)(bad.alpha, bad.r, bad.w0, bad.w1, 5.0, bad.zeta1,
                        bad.truncation)
    with pytest.raises(ValueError):
        induced_omega_P(params, too_big)


def test_r_independent_sweeps_share_a_bounded_memo():
    m = measure_for(0.3)
    s = growth.sphere_reduced_sweep(m, 2, 6, None, 5_000)
    assert growth.sphere_reduced_sweep(m, 2, 6, None, 5_000) is s
    assert growth._memo_sweep.cache_info().maxsize == MEMO_SIZE < 1_000
    # a restriction closure never repeats, so restricted sweeps bypass it
    size = growth._memo_sweep.cache_info().currsize

    def inside(x):
        return True

    first = growth.sphere_reduced_sweep(m, 2, 6, inside, 5_000)
    second = growth.sphere_reduced_sweep(m, 2, 6, inside, 5_000)
    assert first is not second
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[0], s[0])
    assert growth._memo_sweep.cache_info().currsize == size


def test_scan_construction_fast(monkeypatch):
    params = PhaseParams(6, 4, 0.5, 0.5)
    _, r0 = solve_t0(params)
    calls = []
    monkeypatch.setattr(freeprod, "classify",
                        lambda p, r: calls.append(r) or classify(p, r))
    report = scan_construction(params, 3, 0.05,
                               r_grid=np.linspace(1.0, 1.13, 5),
                               n_max=10, support_cap=5_000,
                               full_series_n=0)
    assert report.r0 == pytest.approx(r0)
    # one phase report per grid point in the factor's range serves both
    # omega_P and the diagnostic
    assert calls == [p.zeta0 for p in report.points
                     if 0.0 < p.zeta0 <= capital_R(params)]
    zs = [p.zeta0 for p in report.points]
    assert all(a < b for a, b in zip(zs, zs[1:]))
    if report.crossing_r is not None:
        assert report.crossing_residual < 1e-9


def test_scan_default_grid_ends_at_the_free_product_radius():
    # the grid ends where transfer stops converging; zeta0 there lies
    # above r0, so the factor series is convergent-type at R_mu
    _, r0 = solve_t0(P64)
    report = scan_construction(P64, 3, 0.05, full_series_n=0)
    last = report.points[-1]
    assert len(report.points) == 9 and report.points[0].r == 1.0
    assert report.r_cap == last.r == pytest.approx(1.1324213, abs=1e-6)
    assert r0 < last.zeta0 < capital_R(P64)
    assert last.diagnostic_label == "convergent-type"
    with pytest.raises(ValueError):
        transfer(SPEC64, standard_measure(SPEC64, alpha=0.05),
                 last.r * (1 + 1e-8))


def test_scan_validates_inputs():
    params = PhaseParams(6, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        scan_construction(params, 2, 0.05)
    with pytest.raises(ValueError):
        scan_construction(params, 3, 1.5)


@pytest.mark.parametrize("n", [-1, 1, 5, 9])
def test_scan_refuses_a_full_series_too_short_for_a_window(n):
    # omega_estimate's top-half window needs n_max >= 10; 0 turns it off
    with pytest.raises(ValueError, match="full_series_n"):
        scan_construction(PhaseParams(6, 4, 0.5, 0.5), 3, 0.05,
                          r_grid=[1.0], full_series_n=n)
