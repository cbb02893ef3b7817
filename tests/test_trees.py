"""Closed tree formulas and the lamplighter sphere-sum model."""

import math

import pytest

from greengrowth.groups import DLProfile, dl_sphere_profiles
from greengrowth.trees import (
    bw_calibration, bw_green_shape, lamplighter_h1_model, tree_closed_form,
    tree_green, tree_omega, tree_sphere_green_sum,
)


def test_closed_form_basic_identities():
    cf = tree_closed_form(4, 1.0)
    assert abs(cf.rho - (0.5 + math.sqrt(3) / 4)) < 1e-15
    assert abs(cf.R - 1.0 / cf.rho) < 1e-15
    # at r = 1, H_n(T_4) = 4 for n >= 1, so #S_n G F^n = 4: F = 1/(l-1)
    assert abs(cf.F - 1.0 / 3.0) < 1e-14
    assert abs(cf.G - 3.0) < 1e-13


def test_tree_green_decays_geometrically():
    for d in range(1, 6):
        assert abs(tree_green(4, 0.8, d) / tree_green(4, 0.8, d - 1)
                   - tree_closed_form(4, 0.8).F) < 1e-14


def test_sphere_green_sum_at_one():
    for n in range(1, 11):
        assert abs(tree_sphere_green_sum(4, 1.0, n) - 4.0) < 1e-12


def test_tree_omega_signs():
    assert abs(tree_omega(4, 1.0)) < 1e-13          # constant sphere sums
    assert tree_omega(4, 0.8) < 0                   # summable regime
    cf = tree_closed_form(4, 1.0)
    assert tree_omega(4, cf.R) > 0                  # at the radius


@pytest.mark.parametrize("l", [3, 4, 6])
@pytest.mark.parametrize("r", [1e-6, 1e-8])
def test_closed_form_at_small_r(l, r):
    # F ~ r / (2 l) here, and t - sqrt(t^2 - beta^2) cancels to a few
    # digits, or to 0, in double precision; the reference is 50 digits
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        x = 1 / mp.mpf(r)
        t = x - mp.mpf(1) / 2
        F = l * (t - mp.sqrt(t * t - mp.mpf(l - 1) / l ** 2)) / (l - 1)
        G = x / (x - (1 + F) / 2)
        want = {"F": F, "G": G, "omega": mp.log(l - 1) + mp.log(F),
                "H0": G, "H3": l * (l - 1) ** 2 * G * F ** 3}
    cf = tree_closed_form(l, r)
    got = {"F": cf.F, "G": cf.G, "omega": tree_omega(l, r),
           "H0": tree_sphere_green_sum(l, r, 0),
           "H3": tree_sphere_green_sum(l, r, 3)}
    for key, value in want.items():
        assert abs(got[key] / float(value) - 1.0) < 1e-13, key


def test_tree_closed_form_validation():
    with pytest.raises(ValueError):
        tree_closed_form(2, 1.0)
    with pytest.raises(ValueError):
        tree_closed_form(4, 1.2)  # beyond the radius of convergence
    with pytest.raises(ValueError):
        tree_sphere_green_sum(4, 1.0, -1)


def test_bw_shape_swap_symmetry():
    q = 2
    for (u1, d2, s) in [(1, 0, 2), (3, 2, 4), (2, 2, 5)]:
        a = bw_green_shape(q, DLProfile(u1, d2, s))
        b = bw_green_shape(q, DLProfile(s - u1, s - d2, s))
        assert abs(a - b) < 1e-15


def test_bw_shape_simple_value():
    # u1 = 1, d2 = 0, s = 1: bracket = (q+1)/(q-1), value = (q+1)/((q-1) q)
    for q in (2, 3):
        got = bw_green_shape(q, DLProfile(1, 0, 1))
        assert abs(got - (q + 1.0) / ((q - 1.0) * q)) < 1e-15


def test_lamplighter_model_matches_direct_profile_sum():
    q = 3
    for n in (2, 4):
        direct = sum(count * bw_green_shape(q, p)
                     for p, _, count in dl_sphere_profiles(q, 2 * n))
        assert abs(lamplighter_h1_model(q, n) - direct) < 1e-12


def test_lamplighter_model_frozen_values():
    assert abs(lamplighter_h1_model(3, 40) / 40 - 0.2128192) < 1e-6
    assert abs(lamplighter_h1_model(3, 80) / 80 - 0.2003527) < 1e-6


def test_lamplighter_model_drift_stabilises():
    v40 = lamplighter_h1_model(3, 40) / 40
    v80 = lamplighter_h1_model(3, 80) / 80
    assert abs(v80 - v40) / v40 < 0.10


def test_bw_calibration_ratio_is_stable():
    q = 2
    profiles = [DLProfile(3, 2, 8), DLProfile(4, 3, 9), DLProfile(4, 4, 10),
                DLProfile(5, 4, 11), DLProfile(6, 5, 12)]
    ratios = list(bw_calibration(q, profiles).values())
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.25
