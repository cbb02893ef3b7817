"""Sphere-summed Green series H_r(n) and growth-rate estimation."""

import math
import warnings

import numpy as np
import pytest

from greengrowth.bitree import PhaseParams, classify
from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, Group, Heisenberg3,
    RegularTree, TreeProduct, group_for,
)
from greengrowth.kernels import (
    FloatWalk, green_truncated, standard_measure, zd_lazy_green,
)
from greengrowth.growth import (
    convergence_diagnostic, dr_distance, h_series, omega_estimate,
    parabolic_gap_report, sphere_reduced_sweep, theta_partial,
)


def test_tree_series_is_constant_four():
    series = h_series(RegularTree(4), r=1.0, n_max=10)
    for n in range(1, 11):
        e = series.values[n]
        assert e.rigorous
        assert abs(e.value - 4.0) <= e.tail + 1e-9


def test_tree_omega_estimate_is_flat():
    series = h_series(RegularTree(4), r=1.0, n_max=10)
    est = omega_estimate(series)
    assert abs(est.slope) < 1e-8


def test_zd_series_matches_direct_sphere_sum():
    spec = FreeAbelian(3)
    m = standard_measure(spec)
    g = group_for(spec)
    series = h_series(spec, r=0.9, n_max=4)
    for n in range(5):
        xs = g.sphere(n)
        direct = sum(v.value for v in
                     green_truncated(m, xs, 0.9, max_terms=40).values())
        assert abs(series.value(n) - direct) < 1e-5


def test_zd_series_just_below_one_keeps_the_tail_past_the_panels():
    # the batch rule's panels end near s = 2.4e4, where the integrand has
    # decayed only by e^(-(1 - rs) s) = 0.6; the scalar quad runs to inf
    r = 0.99999
    series = h_series(FreeAbelian(3), r=r, n_max=2)
    want = zd_lazy_green(3, 0.5, (0, 0, 0), r)
    assert abs(want - 3.0223242) < 1e-7
    assert abs(series.value(0) - want) <= 1e-6 * want
    assert not series.values[0].rigorous
    assert h_series(FreeAbelian(3), r=0.999, n_max=2).values[0].rigorous


def test_zd_linear_band_at_one():
    series = h_series(FreeAbelian(3), r=1.0, n_max=30)
    ratios = [series.value(n) / n for n in range(10, 31)]
    assert max(ratios) / min(ratios) <= 3.0
    # frozen: the band is in fact already tight on this window
    assert 5.52 < min(ratios) and max(ratios) < 5.53


def test_zd_slope_near_zero_at_one():
    series = h_series(FreeAbelian(3), r=1.0, n_max=30)
    est = omega_estimate(series, window=(20, 30))
    assert abs(est.slope - 0.04039) < 1e-3  # frozen


def test_zd_cubic_bound():
    series = h_series(FreeAbelian(3), r=1.0, n_max=30)
    c_hat = max(series.value(n) / n ** 3 for n in range(1, 11))
    for n in range(1, 31):
        assert series.value(n) <= c_hat * n ** 3 + 1e-9


def test_dl_series_frozen_values():
    expected = [1.3333, 2.0000, 2.4087, 2.9042, 3.3204, 3.7767, 4.1954,
                4.6369, 5.0571, 5.4917, 5.9127, 6.3436, 6.7653, 7.1940,
                7.6161]
    series = h_series(DiestelLeader(3), r=1.0, n_max=14)
    for n, want in enumerate(expected):
        assert abs(series.value(n) - want) < 5e-4


def test_dl_series_slope_frozen():
    series = h_series(DiestelLeader(3), r=1.0, n_max=14)
    est = omega_estimate(series, window=(8, 14))
    assert abs(est.slope - 0.06797) < 1e-3


def test_heisenberg_generic_engine_frozen():
    expected = [1.37228, 0.46738, 0.11942, 0.03091, 0.00794, 0.00165,
                0.00035]
    series = h_series(Heisenberg3(), r=0.5, n_max=6)
    for n, want in enumerate(expected):
        assert abs(series.value(n) - want) < 2e-5
        assert series.values[n].rigorous


def test_heisenberg_sweep_matches_bfs_word_lengths():
    # the amenable benchmark call: 16 steps reduced over the spheres n <= 6
    spec, r, n_max, steps = Heisenberg3(), 0.5, 6, 16
    series = h_series(spec, r=r, n_max=n_max, max_terms=steps)
    g = group_for(spec)
    dist = {x: n for n, layer in enumerate(Group.ball(g, steps))
            for x in layer}
    m = standard_measure(spec)
    walk = FloatWalk(m, {g.identity(): 1.0})
    want = np.zeros((n_max + 1, steps + 1))
    for k in range(steps + 1):
        if k:
            walk.step()
        want[:, k] = np.bincount(walk.lookup(dist.__getitem__),
                                 weights=walk.p,
                                 minlength=n_max + 1)[: n_max + 1]
    S, dropped = sphere_reduced_sweep(m, n_max, steps, None)
    assert not dropped.any()
    assert np.array_equal(S, want)
    powers = r ** np.arange(steps + 1)
    assert [series.value(n) for n in range(n_max + 1)] == [
        float(row @ powers) for row in want]


def test_heisenberg_group_keeps_no_per_element_state():
    h_series(Heisenberg3(), r=0.5, n_max=4, max_terms=8)
    assert vars(group_for(Heisenberg3())) == {"spec": Heisenberg3()}


def test_pruning_keeps_the_heisenberg_series_rigorous():
    spec = Heisenberg3()
    full = h_series(spec, r=0.1, n_max=3, support_cap=None)
    # 2845 is the support of the 9-step sweep: landing on the cap prunes
    # nothing and changes nothing
    on_cap = h_series(spec, r=0.1, n_max=3, support_cap=2845)
    cut = h_series(spec, r=0.1, n_max=3, support_cap=100)
    assert on_cap.values == full.values
    for n in range(4):
        assert cut.values[n].rigorous
        assert cut.value(n) < full.value(n)
        assert full.value(n) <= cut.value(n) + cut.values[n].tail
        assert cut.values[n].tail > full.values[n].tail


def test_pruned_sweep_plus_dropped_mass_bounds_the_full_sweep():
    m = standard_measure(FreeProduct(RegularTree(3), FreeAbelian(2)))
    full, none = sphere_reduced_sweep(m, 4, 6, None, None)
    cut, dropped = sphere_reduced_sweep(m, 4, 6, None, 200)
    assert not none.any()
    assert dropped[0] == 0.0 and dropped[-1] > 0.0
    assert np.all(np.diff(dropped) >= 0.0)
    assert np.any(cut < full)
    # p_k(A) <= (pruned p_k)(A) + M_k on every sphere A
    assert np.all(full <= cut + dropped + 1e-15)
    # 1346 is the 4-step support: a sweep that lands on the cap drops nothing
    S, on_cap = sphere_reduced_sweep(m, 4, 4, None, 1346)
    assert not on_cap.any()
    assert np.array_equal(S, full[:, :5])


def test_treeprod_slope_matches_phase_solver():
    params = PhaseParams(4, 4, 0.5, 0.5)
    series = h_series(TreeProduct(4, 4), r=1.05, n_max=40)
    est = omega_estimate(series, window=(20, 40))
    omega = classify(params, 1.05).omega
    assert abs(est.slope - omega) < 1e-4


def test_treeprod_series_to_400_fills_no_overflowing_cell():
    # only the sphere-count cells with d1 + d2 <= n_max enter a sphere; the
    # others reach 5^400 3^400 on T_6 x T_4 and overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = h_series(TreeProduct(6, 4), r=1.1001627, n_max=400)
    assert np.all(np.isfinite(series.array()))


def test_theta_partial_tree_geometric():
    # Theta(r, s) = sum H_r(n) e^{-sn}; on the tree H is geometric, so the
    # partial sums track the closed geometric series
    spec = RegularTree(4)
    total, terms = theta_partial(spec, None, 0.9, s=0.5, n_max=40)
    from greengrowth.trees import tree_closed_form, tree_omega
    omega = tree_omega(4, 0.9)
    cf = tree_closed_form(4, 0.9)
    q = math.exp(omega - 0.5)
    h1 = 4.0 * cf.G * cf.F
    closed = cf.G + h1 * math.exp(-0.5) / (1.0 - q)
    assert abs(total - closed) < 1e-6
    assert len(terms) == 41


def test_dr_distance_tree():
    spec = RegularTree(4)
    g = group_for(spec)
    x = g.sphere(5)[0]
    from greengrowth.trees import tree_omega
    d = dr_distance(spec, None, 0.9, x, tree_omega(4, 0.9))
    # green-metric distance of a distance-5 point: 5 log(1/F) - log G + ...
    from greengrowth.trees import tree_closed_form
    cf = tree_closed_form(4, 0.9)
    want = tree_omega(4, 0.9) * 5 - math.log(cf.G * cf.F ** 5 / cf.G)
    assert d.lower - 1e-7 <= want <= d.upper + 1e-7
    assert abs(d.value - want) < 1e-6


def test_convergence_diagnostic_labels():
    tree = h_series(RegularTree(4), r=1.0, n_max=12)
    expo, label = convergence_diagnostic(tree, 0.0, window=(6, 12))
    assert label == "divergent-type"        # H constant: exponent ~ 0
    zd = h_series(FreeAbelian(3), r=0.5, n_max=12)
    expo, label = convergence_diagnostic(zd, 0.0, window=(6, 12))
    assert expo < -1.0
    assert label == "convergent-type"       # geometric decay below radius


def test_omega_estimate_needs_a_window():
    series = h_series(RegularTree(4), r=1.0, n_max=4)
    with pytest.raises(ValueError):
        omega_estimate(series)


def test_parabolic_gap_report_tree_factor():
    spec = FreeProduct(RegularTree(4), FreeAbelian(3))
    report = parabolic_gap_report(spec, None, 0.9, side=0, n_max=5,
                                  max_terms=24, support_cap=20_000,
                                  window=(0, 5))
    assert report.gap > 0          # free products grow faster than factors
    assert report.multiplicativity < 10.0
    for n in range(6):
        assert (report.series_factor.value(n)
                <= report.series_full.value(n) + 1e-12)


def test_green_values_and_sphere_sums_read_one_sweep():
    # the gap report's settings: a pruned sweep with a heuristic tail
    spec = FreeProduct(RegularTree(3), FreeAbelian(2))
    m = standard_measure(spec)
    g = m.group
    kw = dict(max_terms=7, support_cap=2000)
    series = h_series(spec, m, 0.9, n_max=3, **kw)
    for n in range(4):
        sphere = g.sphere(n)
        est = green_truncated(m, sphere, 0.9, **kw)
        total = sum(est[x].value for x in sphere)
        assert abs(total - series.value(n)) <= 1e-14 * series.value(n)
    e = g.identity()
    assert green_truncated(m, [e], 0.9, **kw)[e].tail == series.values[0].tail


def test_parabolic_gap_report_runs_one_sweep(monkeypatch):
    spec = FreeProduct(RegularTree(3), FreeAbelian(2))
    steps = []
    step = FloatWalk.step
    monkeypatch.setattr(FloatWalk, "step",
                        lambda self: (steps.append(1), step(self))[1])
    report = parabolic_gap_report(spec, None, 0.9, side=0, n_max=5,
                                  max_terms=7, support_cap=2000,
                                  window=(0, 5))
    assert len(steps) == 7
    g = group_for(spec)
    full = h_series(spec, r=0.9, n_max=5, max_terms=7, support_cap=2000)
    factor = h_series(spec, r=0.9, n_max=5, max_terms=7, support_cap=2000,
                      restriction=lambda a: g.factor_part(0, a) is not None)
    assert report.series_full.values == full.values
    assert report.series_factor.values == factor.values
    assert report.series_factor.restriction == "factor-0"
