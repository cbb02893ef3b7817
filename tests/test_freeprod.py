"""Free-product Green transfer, the engine composed from it, and the
construction scan (fast settings).

`transfer` solves the factor equations and runs no sweep; the tagged
first-return sweep and the direct Green values are the independent
cross-checks, run here at small truncation so the whole file stays in the
seconds range.  The full-resolution runs (N = 24, support cap 50k) live in
the acceptance suite.  The engine's values are checked against unpruned
sweeps at small r, where the sweep's tail is proved.
"""

import numpy as np
import pytest

from greengrowth import freeprod, growth, kernels
from greengrowth.bitree import PhaseParams, capital_R, classify, solve_t0
from greengrowth.groups import (
    FreeAbelian, FreeProduct, Heisenberg3, RegularTree, TreeProduct,
)
from greengrowth.kernels import (
    MEMO_SIZE, FloatWalk, _green_generic, green_truncated, standard_measure,
)
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


def test_an_always_true_restriction_gives_the_unrestricted_sweep():
    m = measure_for(0.3)
    S, dropped = growth.sphere_reduced_sweep(m, 2, 6, support_cap=5_000)
    full, every, also_dropped = growth.sphere_reduced_sweep(
        m, 2, 6, (None, lambda x: True), 5_000)
    assert np.array_equal(full, every)
    assert np.array_equal(every, S)
    assert np.array_equal(also_dropped, dropped)


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


def test_scan_default_grid_carries_the_full_series_to_its_end():
    # the grid's end is bisected on the full series too, which reads the
    # tree product a little past zeta_0 and fails before transfer does
    report = scan_construction(P64, 3, 0.05)
    assert len(report.points) == 9
    assert all(p.omega_full is not None for p in report.points)
    assert report.r_cap < 1.1324213


# crossing_r, crossing_zeta0 of P64 at alpha = 0.05, as the brentq on
# transfer(r).zeta0 - r0 found them
CROSSING64 = ("0x1.2002b4dbf9a5cp+0", "0x1.19a443c54a0c9p+0")


@pytest.mark.parametrize("kwargs, crossing, residual", [
    (dict(r_grid=list(np.linspace(1.0, 1.13, 4)), n_max=12,
          support_cap=200), CROSSING64, 0.0),
    # the 9-point grid's bracket ends one ulp higher in r and zeta0
    (dict(r_grid=np.linspace(1.0, 1.13, 9), n_max=24, support_cap=50_000),
     ("0x1.2002b4dbf9a5dp+0", "0x1.19a443c54a0cap+0"), 2.0 ** -52),
    (dict(), CROSSING64, 0.0)], ids=["benchmark", "criterion-10", "default"])
def test_scan_crossing_keeps_its_bits(kwargs, crossing, residual):
    report = scan_construction(P64, 3, 0.05, full_series_n=0, **kwargs)
    assert (report.crossing_r.hex(), report.crossing_zeta0.hex()) == crossing
    assert report.crossing_residual == residual


@pytest.mark.parametrize("l1, alpha, crossing", [
    (6, 0.02, ("0x1.1c2e969118a6ep+0", "0x1.19a443c54a0c9p+0")),
    (6, 0.1, ("0x1.266950daf0922p+0", "0x1.19a443c54a09dp+0")),
    (5, 0.02, ("0x1.193ced0d08846p+0", "0x1.16b0fbdd0dc10p+0")),
    (5, 0.1, ("0x1.23827845ed0b0p+0", "0x1.16b0fbdd0dc0ap+0"))])
def test_scan_crossing_matches_the_transfer_root(l1, alpha, crossing):
    # the values of a brentq on transfer(r).zeta0 - r0 over the default grid
    report = scan_construction(PhaseParams(l1, 4, 0.5, 0.5), 3, alpha,
                               full_series_n=0)
    for got, ref in zip((report.crossing_r, report.crossing_zeta0),
                        map(float.fromhex, crossing)):
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert report.crossing_residual <= 1e-9


@pytest.mark.parametrize("fault", ["no sign change", "refused"])
def test_scan_crossing_bisects_where_h_has_no_sign(monkeypatch, fault):
    # h reads the right factor through freeprod's _excursions; transfer
    # does not, so the bisection on transfer(r).zeta0 - r0 sees the truth
    r_star = float.fromhex(CROSSING64[0])
    right = standard_measure(SPEC64, alpha=0.05).param("right")

    def faulty(factor, c, w):
        if factor == right:
            if fault == "no sign change":
                return kernels._excursions(factor, c, w) + 1.0
            if c < 0.05 * (r_star - 1e-3):
                raise ValueError("refused")
        return kernels._excursions(factor, c, w)

    monkeypatch.setattr(freeprod, "_excursions", faulty)
    report = scan_construction(P64, 3, 0.05,
                               r_grid=list(np.linspace(1.0, 1.13, 4)),
                               full_series_n=0)
    # a bracket of width 1e-12, or brentq's xtol on a tightened bracket
    assert report.crossing_r == pytest.approx(r_star, abs=2e-12, rel=0.0)
    assert report.crossing_residual <= 1e-9
    assert kernels._memo_transfer.cache_info().misses > 5


def test_scan_work_is_counted(monkeypatch):
    # the benchmark's scan: each grid point and the crossing's check solve
    # transfer once; the crossing reads the left factor once, at r0
    calls = []
    engine = kernels.green_truncated

    def counted(measure, *args, **kwargs):
        calls.append(measure)
        return engine(measure, *args, **kwargs)

    monkeypatch.setattr(kernels, "green_truncated", counted)
    scan_construction(P64, 3, 0.05, r_grid=list(np.linspace(1.0, 1.13, 4)),
                      n_max=12, support_cap=200, full_series_n=0)
    assert kernels._memo_transfer.cache_info().misses <= 5
    assert len(calls) == 61


def test_one_transfer_solve_makes_its_pinned_calls(monkeypatch):
    # 4 iterations of the monotone update, two factor calls each
    calls = []
    excursions = kernels._excursions
    monkeypatch.setattr(kernels, "_excursions",
                        lambda *a: calls.append(a) or excursions(*a))
    transfer(SPEC, standard_measure(SPEC, alpha=0.2), 0.5)
    assert len(calls) == 8


def test_transfer_memo_is_shared_and_keeps_no_refusal(monkeypatch):
    m = standard_measure(SPEC, alpha=0.2)
    transfer(SPEC, m, 0.5, n_max=12, support_cap=600)
    calls = []
    excursions = kernels._excursions
    monkeypatch.setattr(kernels, "_excursions",
                        lambda *a: calls.append(a) or excursions(*a))
    e = m.group.identity()
    assert green_truncated(m, [e], 0.5)[e].value > 1.0
    assert calls == []
    assert kernels._memo_transfer.cache_info().maxsize == MEMO_SIZE
    m64 = standard_measure(SPEC64, alpha=0.05)
    for _ in range(2):
        with pytest.raises(ValueError):
            transfer(SPEC64, m64, 1.14)
    assert kernels._memo_transfer.cache_info().currsize == 1
    # the measure is checked before the memo is read
    with pytest.raises(ValueError, match="the measure lives on"):
        transfer(SPEC64, m, 0.5)


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


def test_transfer_refuses_a_measure_on_another_spec():
    other = standard_measure(SPEC64, alpha=0.2)
    with pytest.raises(ValueError, match="the measure lives on"):
        transfer(SPEC, other, 0.5)
    with pytest.raises(ValueError, match="the measure lives on"):
        transfer_consistency(SPEC, other, 0.5, [], **FAST)


# ---------------------------------------------------------------------------
# the free-product engine: H_r(n) and G(e, x | r) composed from the factors'
# class engines through `transfer`

T3Z2 = FreeProduct(RegularTree(3), FreeAbelian(2))


def _two_letter_word(g):
    return g.multiply(g.embed(0, g.factors[0].generators()[0]),
                      g.embed(1, g.factors[1].generators()[0]))


def _overlaps(est, ref, ref_tail):
    """[value - tail, value + tail] meets [ref, ref + ref_tail]."""
    return (est.value - est.tail <= ref + ref_tail
            and ref <= est.value + est.tail)


@pytest.mark.parametrize("spec, alpha, r, steps, green_steps", [
    (T3Z2, 0.5, 0.05, 6, 6),
    (SPEC, 0.2, 0.05, 5, 4),
])
def test_engine_intervals_overlap_the_unpruned_sweep(spec, alpha, r, steps,
                                                     green_steps):
    # every step's mass, on a sphere or at a point, is at most 1, so the
    # unpruned sweep of N steps is low by at most r^(N+1) / (1 - r)
    m = standard_measure(spec, alpha=alpha)
    series = growth.h_series(spec, m, r, 4)
    S, dropped = growth.sphere_reduced_sweep(m, 4, steps, support_cap=None)
    assert not dropped.any()
    sums = S @ r ** np.arange(steps + 1)
    for n in range(5):
        assert series.values[n].rigorous
        assert _overlaps(series.values[n], sums[n],
                         r ** (steps + 1) / (1 - r)), n
    g = m.group
    x = _two_letter_word(g)
    est = green_truncated(m, [x], r)[x]
    ref = _green_generic(m, [x], r, 1e-9, green_steps, None)[x].value
    assert est.rigorous and est.n_terms == -1
    assert _overlaps(est, ref, r ** (green_steps + 1) / (1 - r))


@pytest.mark.parametrize("spec, alpha, r", [
    (T3Z2, 0.5, 0.9), (SPEC, 0.2, 0.5), (SPEC, 0.5, 0.9),
])
def test_engine_identity_value_agrees_with_both_factor_sides(spec, alpha, r):
    m = standard_measure(spec, alpha=alpha)
    e = m.group.identity()
    g_ee = green_truncated(m, [e], r)[e].value
    p = transfer(spec, m, r)
    for side, zeta, w in ((0, p.zeta0, p.w0), (1, p.zeta1, p.w1)):
        factor = m.param(("left", "right")[side])
        ef = factor.group.identity()
        via = green_truncated(factor, [ef], zeta)[ef].value / (1.0 - w)
        assert abs(via - g_ee) <= 1e-12 * g_ee, side
    rep = growth.parabolic_gap_report(spec, m, r, 0, 10)
    assert rep.series_full.value(0) == g_ee
    assert rep.series_factor.restriction == "factor-0"


def test_engine_sphere_sums_reach_the_total_mass():
    # sum over all x of G(e, x | r) = sum_k r^k = 1 / (1 - r)
    r = 0.5
    series = growth.h_series(T3Z2, None, r, 40)
    assert abs(series.array().sum() - 1.0 / (1.0 - r)) <= 1e-9


@pytest.mark.parametrize("side", [0, 1])
def test_engine_factor_series_lies_below_the_full_series(side):
    # the benchmark's gap report
    rep = growth.parabolic_gap_report(T3Z2, None, 0.9, side, 5,
                                      window=(0, 5))
    full, factor = rep.series_full, rep.series_factor
    assert factor.value(0) == full.value(0)
    assert np.all(factor.array() <= full.array())
    assert all(e.rigorous for e in factor.values.values())
    # the full series' tails are far below its values; on the Z^2 side the
    # factor's flat ZD_TAIL per element weighs more
    assert max(e.tail / e.value for e in full.values.values()) < 1e-6
    with pytest.raises(ValueError, match="side"):
        growth.parabolic_gap_report(T3Z2, None, 0.9, 2, 5, window=(0, 5))


def test_engine_tails_carry_the_factor_tails():
    # G(e, x | r) = G_1(e, x | zeta_1) / (1 - w_1) on the right factor, so
    # the factor engine's error passes through at least at that scale
    m = standard_measure(SPEC, alpha=0.2)
    p = transfer(SPEC, m, 0.5)
    z = (3, 2, 1)
    x = m.group.embed(1, z)
    est = green_truncated(m, [x], 0.5)[x]
    fac = green_truncated(m.param("right"), [z], p.zeta1)[z]
    assert fac.tail > 0.0
    assert est.tail >= fac.tail / (1.0 - p.w1)
    assert abs(est.value - fac.value / (1.0 - p.w1)) <= 1e-12 * est.value


def test_post_fixed_check_refuses_a_point_below_the_iterate(monkeypatch):
    m = standard_measure(SPEC, alpha=0.2)
    p = transfer(SPEC, m, 0.9)

    def upper_g(w_bar):
        zetas = ((1 - 0.2) * 0.9 / (1 - w_bar[0]), 0.2 * 0.9 / (1 - w_bar[1]))
        out = []
        for factor, zeta in zip((m.param("left"), m.param("right")), zetas):
            e = factor.group.identity()
            est = green_truncated(factor, [e], zeta)[e]
            out.append(est.value + est.tail)
        return out

    for delta, proved in ((1e-8, True), (-1e-6, False)):
        w_bar = (p.w0 * (1 + delta) + delta, p.w1 * (1 + delta) + delta)
        assert kernels._post_fixed(w_bar, *upper_g(w_bar)) == proved
    e = m.group.identity()
    assert green_truncated(m, [e], 0.9)[e].rigorous
    # where no w_bar tried proves the bracket, nothing is rigorous
    monkeypatch.setattr(kernels, "POST_FIXED_DELTAS", (-1e-6,))
    assert not green_truncated(m, [e], 0.9)[e].rigorous
    assert not any(e.rigorous
                   for e in growth.h_series(SPEC, m, 0.9, 3).values.values())


def test_engine_routes_sum_no_steps(monkeypatch):
    def refuse(self):
        raise AssertionError("the free-product engine sums no steps")

    monkeypatch.setattr(FloatWalk, "step", refuse)
    m = standard_measure(SPEC, alpha=0.2)
    g = m.group
    assert growth.h_series(SPEC, m, 0.5, 6, max_terms=3,
                           support_cap=10).value(6) > 0
    assert growth.parabolic_gap_report(T3Z2, None, 0.9, 0, 5, max_terms=7,
                                       support_cap=2000,
                                       window=(0, 5)).gap > 0
    x = _two_letter_word(g)
    assert green_truncated(m, [x], 0.5, max_terms=3)[x].value > 0


def test_a_factor_without_an_engine_takes_the_sweep():
    # T3 * Heisenberg: the values the sweep gave before the engine existed
    spec = FreeProduct(RegularTree(3), Heisenberg3())
    m = standard_measure(spec)
    assert not kernels.composes(m)
    series = growth.h_series(spec, m, 0.5, 3, max_terms=6, support_cap=3000)
    assert [(e.value, e.tail, e.rigorous) for e in series.values.values()] == [
        (1.3550704013356947, 0.0016712439724470142, False),
        (0.4564537545781076, 0.004070129046224271, False),
        (0.12913993296861156, 0.01433885813433936, False),
        (0.034436832975458166, 4.1192863864417975, False)]
    g = m.group
    x = g.multiply(g.embed(0, g.factors[0].generators()[0]),
                   g.embed(1, (1, 0, 0)))
    est = green_truncated(m, [x], 0.5, max_terms=6, support_cap=3000)[x]
    assert (est.value, est.tail, est.n_terms) == (
        0.0031496750290501752, 0.0016712439724470142, 6)
