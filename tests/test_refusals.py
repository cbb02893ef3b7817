"""Refusals of bad input across the package: each call raises ValueError
with a message that says what was wrong."""

import math

import numpy as np
import pytest

from greengrowth import kernels
from greengrowth.bitree import (
    PhaseParams, hn_model_log, psi, solve_t0, solve_t1t2, t_feasible_min,
)
from greengrowth.brw import BrwConfig, coset_hits, mean_offspring
from greengrowth.freeprod import scan_construction, tagged_return_coefficients
from greengrowth.groups import (
    DiestelLeader, DLProfile, FreeAbelian, FreeGroup, FreeProduct,
    RegularTree, TreeProduct, group_for, tree_level_sphere_count,
)
from greengrowth.growth import dr_distance, h_series, parabolic_gap_report
from greengrowth.kernels import (
    spectral_radius_lower, standard_measure, transfer, zd_lazy_green,
    zd_lazy_green_batch,
)
from greengrowth.trees import bw_green_shape, lamplighter_h1_model, tree_green

P64 = PhaseParams(6, 4, 0.5, 0.5)
T_OK = t_feasible_min(P64) + 0.1
TREE = RegularTree(4)
BINARY = mean_offspring(2.0)
INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("call, words", [
    # walk parameters
    (lambda: standard_measure(FreeAbelian(3), alpha=INF), "finite, got inf"),
    (lambda: standard_measure(FreeAbelian(3), alpha=NAN), "finite, got nan"),
    (lambda: standard_measure(TreeProduct(4, 4), a1=-INF), "got -inf"),
    (lambda: standard_measure(FreeProduct(TreeProduct(4, 4), FreeAbelian(3)),
                              alpha=INF), "got inf"),
    (lambda: h_series(TREE, None, 0.5, 3, tol=INF), "tol = inf"),
    # the scan's alpha is the free-product walk's: standard_measure refuses
    (lambda: scan_construction(P64, 3, 0.0), "alpha must be in (0, 1)"),
    (lambda: scan_construction(P64, 3, 1.5), "alpha must be in (0, 1)"),
    (lambda: scan_construction(P64, 3, NAN), "got nan"),
    # Z^d at r = 1 needs d >= 3
    (lambda: zd_lazy_green_batch(2, 0.5, [(0, 0)], 1.0), "needs d >= 3"),
    (lambda: h_series(FreeAbelian(2), None, 1.0, 3), "needs d >= 3"),
    # Z^d classes are integral
    (lambda: zd_lazy_green_batch(3, 0.5, [(1.5, 2, 3)], 0.5),
     "integral coordinates, got (1.5, 2, 3)"),
    (lambda: zd_lazy_green_batch(3, 0.5, [(0, 0, 0), (0, NAN, 1)], 0.5),
     "got (0, nan, 1)"),
    (lambda: zd_lazy_green_batch(3, 0.5, np.array([[0.0, 0.5, 1.0]]), 0.5),
     "integral coordinates"),
    (lambda: zd_lazy_green(3, 0.5, (1.5, 2, 3), 0.5),
     "integral coordinates, got (1.5, 2, 3)"),
    # tree-product phase parameters and their saddle system
    (lambda: PhaseParams(6, 2, 0.5, 0.5), "branching numbers must be >= 3"),
    (lambda: PhaseParams(4, 6, 0.5, 0.5), "convention: l1 >= l2"),
    (lambda: PhaseParams(6, 4, 0.5, 0.6), "a1 + a2 = 1"),
    (lambda: solve_t1t2(P64, t_feasible_min(P64), 0.5), "t must exceed"),
    (lambda: solve_t1t2(P64, T_OK, -1.0), "lambda must be >= 0"),
    (lambda: psi(P64, t_feasible_min(P64), 0.5), "t must exceed"),
    (lambda: solve_t0(PhaseParams(4, 4, 0.5, 0.5)), "threshold needs l1 > l2"),
    (lambda: hn_model_log(P64, 1.05, 0), "n must be >= 1"),
    (lambda: hn_model_log(P64, 1.2, 10), "r out of range"),
    # branching random walks
    (lambda: BrwConfig((), 5, 100, 0, 1), "offspring law must be non-empty"),
    (lambda: BrwConfig(BINARY, 0, 100, 0, 1), "budgets must be positive"),
    (lambda: BrwConfig(BINARY, 5, 0, 0, 1), "budgets must be positive"),
    (lambda: BrwConfig(BINARY, 5, 100, 0, 0), "budgets must be positive"),
    (lambda: mean_offspring(0.5), "mean must lie in [1, 2]"),
    (lambda: mean_offspring(2.5), "mean must lie in [1, 2]"),
    (lambda: mean_offspring(INF), "got inf"),
    (lambda: coset_hits(TREE, None, BrwConfig(BINARY, 5, 100, 0, 1)),
     "need a free product"),
    # free products
    (lambda: parabolic_gap_report(TREE, None, 0.5, 0, 10),
     "need a free product"),
    (lambda: tagged_return_coefficients(standard_measure(TREE)),
     "need a freeprod-mix measure"),
    # spectral radius, distances, tree and DL models
    (lambda: spectral_radius_lower(standard_measure(TREE), 0),
     "k must be >= 1"),
    (lambda: dr_distance(TREE, None, 0.0, group_for(TREE).generators()[0],
                         0.1), "Green value vanished"),
    (lambda: tree_green(4, 0.5, -1), "d must be >= 0"),
    (lambda: bw_green_shape(3, DLProfile(0, 0, 0)), "shape needs s >= 1"),
    (lambda: lamplighter_h1_model(3, 0), "n must be >= 1"),
    # group specs, balls and counts
    (lambda: FreeAbelian(0), "FreeAbelian needs d >= 1"),
    (lambda: FreeGroup(0), "FreeGroup needs k >= 1"),
    (lambda: TreeProduct(2, 3), "TreeProduct needs l1, l2 >= 3"),
    (lambda: DiestelLeader(1), "DiestelLeader needs q >= 2"),
    (lambda: group_for(TREE).ball(-1), "radius must be >= 0"),
    (lambda: tree_level_sphere_count(1, 2, 0), "q must be >= 2"),
])
def test_bad_input_is_refused(call, words):
    with pytest.raises(ValueError) as exc:
        call()
    assert words in str(exc.value)


def test_an_integral_float_class_is_its_integer_class():
    r = 0.5
    assert (zd_lazy_green_batch(3, 0.5, [(2.0, -1.0, 0.0)], r)
            == zd_lazy_green_batch(3, 0.5, [(2, -1, 0)], r))
    assert (zd_lazy_green(3, 0.5, (2.0, 1, 0), r)
            == zd_lazy_green(3, 0.5, (2, 1, 0), r))


def test_transfer_that_does_not_settle_is_refused(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_ITERATIONS", 1)
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    with pytest.raises(ValueError, match="did not settle in 1 steps"):
        transfer(spec, None, 0.5)
