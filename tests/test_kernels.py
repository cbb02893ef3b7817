"""Green-function engines and first-return machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, RegularTree, TreeProduct,
    group_for,
)
from greengrowth.kernels import (
    convolve, dl_class_key, dl_green_classes, first_return_coefficients,
    first_return_kernel, green_truncated, restricted_green,
    return_probability, spectral_radius_lower, standard_measure,
    tree_green_by_distance, tree_sphere_sizes, zd_lazy_green,
    zd_lazy_green_batch,
)
from greengrowth.trees import tree_closed_form, tree_green


def test_standard_measures_are_probability_measures():
    for spec in (FreeAbelian(3), RegularTree(4), TreeProduct(4, 3),
                 DiestelLeader(2),
                 FreeProduct(TreeProduct(4, 4), FreeAbelian(3))):
        m = standard_measure(spec)
        total = sum(w for _, w in m.weights)
        assert total == Fraction(1)
        assert all(w > 0 for _, w in m.weights)


@pytest.mark.parametrize("l,r", [(4, 0.8), (4, 1.0), (6, 0.9)])
def test_tree_chain_matches_closed_form(l, r):
    G = tree_green_by_distance(l, r, n_max=400, d_max=6)
    for d in range(7):
        assert abs(G[d] - tree_green(l, r, d)) < 1e-9


def test_tree_sphere_sizes():
    sizes = tree_sphere_sizes(4, 5)
    assert list(sizes) == [1, 4, 12, 36, 108, 324]


# frozen oracles from high-precision quadrature of the Bessel-product
# integral for the lazy walk on Z^3 (alpha = 1/2)
ZD_ORACLES = [
    ((0, 0, 0), 1.0, 3.0327721183039555),
    ((1, 1, 0), 1.0, 0.66229720425284728),
    ((2, 1, 1), 0.9, 0.021671802537710654),
    ((3, 2, 0), 0.8, 0.00075130875972887399),
    ((5, 0, 0), 1.0, 0.19321290400727743),
]


@pytest.mark.parametrize("x,r,expected", ZD_ORACLES)
def test_zd_batch_green_against_frozen_oracles(x, r, expected):
    cls = tuple(sorted(abs(v) for v in x))
    got = zd_lazy_green_batch(3, 0.5, [cls], r)[cls]
    assert abs(got - expected) / expected < 1e-6


@pytest.mark.parametrize("x,r,expected", ZD_ORACLES)
def test_zd_scalar_green_against_frozen_oracles(x, r, expected):
    got = zd_lazy_green(3, 0.5, x, r)
    assert abs(got - expected) / expected < 1e-6


def test_zd_green_matches_series_at_small_r():
    # independent route: direct convolution series, rapidly convergent
    m = standard_measure(FreeAbelian(3))
    r = 0.5
    series = sum(r ** n * return_probability(m, n) for n in range(25))
    cls = (0, 0, 0)
    integral = zd_lazy_green_batch(3, 0.5, [cls], r)[cls]
    assert abs(series - integral) < 1e-8


def test_dl_green_engine_matches_convolution_series():
    m = standard_measure(DiestelLeader(2))
    g = m.group
    e = g.identity()
    key = (0, 0, 0)
    engine = dl_green_classes(2, [key], 0.3, n_max=200)[key]
    # independent route: exact-rational convolution series (untruncated
    # support), remaining tail below 0.3^13 / 0.7
    series = green_truncated(m, [e], 0.3, mode="exact", max_terms=12,
                             support_cap=None)[e].value
    assert series <= engine + 1e-12
    assert abs(engine - series) < 1e-6
    frozen = dl_green_classes(2, [key], 0.5, n_max=200)[key]
    assert abs(frozen - 1.0717038974389885) < 1e-9


def test_dl_green_offdiagonal_matches_sweep():
    q = 2
    g = group_for(DiestelLeader(q))
    m = standard_measure(DiestelLeader(q))
    x = g.ball(2)[2][0]
    key = dl_class_key(g.profile(x))
    engine = dl_green_classes(q, [key], 0.6, n_max=400)[key]
    direct = green_truncated(m, [x], 0.6, max_terms=30)[x].value
    assert abs(engine - direct) < 1e-5


def test_green_truncated_tree_is_certified():
    m = standard_measure(RegularTree(4))
    g = group_for(RegularTree(4))
    x = g.sphere(3)[0]
    est = green_truncated(m, [x], 0.8)[x]
    assert est.rigorous
    assert abs(est.value - tree_green(4, 0.8, 3)) <= est.tail + 1e-12


def test_green_truncated_generic_vs_tree_engine():
    spec = RegularTree(3)
    m = standard_measure(spec)
    g = group_for(spec)
    x = g.sphere(2)[0]
    fast = green_truncated(m, [x], 0.7)[x]
    slow = green_truncated(m, [x], 0.7, mode="exact", max_terms=12)[x]
    assert abs(fast.value - slow.value) <= fast.tail + slow.tail + 1e-12


def test_green_truncated_generic_repeated_target():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    m = standard_measure(spec, alpha=0.2)
    g = group_for(spec)
    x = g.embed(0, group_for(spec.left).sphere(2)[0])
    once = green_truncated(m, [x], 0.5, max_terms=8, support_cap=2000)
    twice = green_truncated(m, [x, x], 0.5, max_terms=8, support_cap=2000)
    assert once[x].value > 0.0
    assert twice[x].value == once[x].value


def test_convolve_is_deterministic_under_pruning():
    m = standard_measure(TreeProduct(4, 4))
    dist = {s: float(w) for s, w in m.weights}
    for _ in range(4):
        dist = convolve(dist, m, support_cap=200)
    again = {s: float(w) for s, w in m.weights}
    for _ in range(4):
        again = convolve(again, m, support_cap=200)
    assert dist == again
    assert len(dist) <= 200


def test_convolve_preserves_mass_without_cap():
    m = standard_measure(FreeAbelian(3))
    dist = {s: float(w) for s, w in m.weights}
    for _ in range(3):
        dist = convolve(dist, m, support_cap=None)
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_restricted_green_monotone_in_restriction():
    spec = FreeAbelian(3)
    m = standard_measure(spec)
    g = m.group
    e = g.identity()
    free = restricted_green(m, e, e, lambda a: True, 0.8, 20)
    blocked = restricted_green(
        m, e, e, lambda a: g.word_length(a) <= 1, 0.8, 20)
    assert blocked <= free + 1e-12
    # against the (untruncated) integral engine: the 20-term restricted sum
    # is a lower bound within the geometric tail of the remaining terms
    direct = green_truncated(m, [e], 0.8)[e].value
    assert 0.0 <= direct - free < 1e-3


def test_first_return_relation_on_tree():
    # G(e,e|r) = 1 / (1 - F_ret(r)): first-return series vs closed form
    m = standard_measure(RegularTree(4))
    g = m.group
    e = g.identity()
    coeffs = first_return_coefficients(m, lambda a: a == e, n_max=30,
                                       support_cap=50_000)
    r = 0.8
    f = float(coeffs[e] @ np.array([r ** n for n in range(31)]))
    cf = tree_closed_form(4, r)
    # truncation at 30 terms leaves a tail below (0.8 rho)^31 / (1 - 0.8 rho)
    assert 0.0 <= (1.0 - 1.0 / cf.G) - f < 5e-4


def test_first_return_kernel_mass_below_one():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    m = standard_measure(spec)
    g = m.group
    member = lambda a: g.factor_part(1, a) is not None
    k = first_return_kernel(m, member, 1.0, n_max=8, support_cap=20_000)
    assert 0.0 < k.total_mass_lower < 1.0
    assert all(v >= 0 for v in k.kernel.values())


def test_spectral_radius_lower_bound():
    m = standard_measure(RegularTree(4))
    rho = tree_closed_form(4, 1.0).rho
    lower = spectral_radius_lower(m, 12)
    assert lower <= rho + 1e-12
    assert lower > 0.5  # laziness alone gives 1/2
