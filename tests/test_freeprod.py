"""Free-product Green transfer and the construction scan (fast settings).

The full-resolution runs (N = 24, support cap 50k) live in the acceptance
suite; here the same machinery is exercised at small truncation so the
whole file stays in the seconds range.
"""

import numpy as np
import pytest

from greengrowth import growth
from greengrowth.bitree import PhaseParams, solve_t0
from greengrowth.groups import FreeAbelian, FreeProduct, TreeProduct
from greengrowth.kernels import MEMO_SIZE, return_probability, standard_measure
from greengrowth.freeprod import (
    heuristic_r_cap, induced_omega_P, scan_construction,
    tagged_return_coefficients, transfer, transfer_consistency,
)

SPEC = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
FAST = dict(n_max=10, support_cap=5_000)


def measure_for(alpha):
    return standard_measure(SPEC, alpha=alpha)


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
    assert all(p.lower_bound_only for p in points)


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


def test_heuristic_r_cap_exceeds_one():
    m = measure_for(0.3)
    assert heuristic_r_cap(m, **FAST) > 1.0


def test_heuristic_r_cap_reads_return_probabilities():
    # the cap comes from row 0 of the sphere sweep; return_probability
    # runs its own loop
    m = measure_for(0.3)
    p8, p10 = (return_probability(m, n, support_cap=5_000) for n in (8, 10))
    cap = heuristic_r_cap(m, n_max=10, support_cap=5_000)
    assert cap == (p8 / p10) ** 0.5


def test_r_independent_sweeps_share_a_bounded_memo():
    m = measure_for(0.3)
    a = tagged_return_coefficients(m, 10, 5_000)
    assert tagged_return_coefficients(m, 10, 5_000) is a
    s = growth.sphere_reduced_sweep(m, 2, 6, None, 5_000)
    assert growth.sphere_reduced_sweep(m, 2, 6, None, 5_000) is s
    for memo in (tagged_return_coefficients, growth._memo_sweep):
        assert memo.cache_info().maxsize == MEMO_SIZE < 1_000
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


def test_scan_construction_fast():
    params = PhaseParams(6, 4, 0.5, 0.5)
    _, r0 = solve_t0(params)
    report = scan_construction(params, 3, 0.05,
                               r_grid=np.linspace(1.0, 1.13, 5),
                               n_max=10, support_cap=5_000,
                               full_series_n=0)
    assert report.r0 == pytest.approx(r0)
    zs = [p.zeta0 for p in report.points]
    assert all(a < b for a, b in zip(zs, zs[1:]))
    if report.crossing_r is not None:
        assert report.crossing_residual < 1e-9


def test_scan_validates_inputs():
    params = PhaseParams(6, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        scan_construction(params, 2, 0.05)
    with pytest.raises(ValueError):
        scan_construction(params, 3, 1.5)
