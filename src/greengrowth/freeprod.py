"""Green-function transfer across free products and the construction scan.

For the measure mu = alpha * mu_1 + (1 - alpha) * mu_0 on Gamma_0 * Gamma_1,
the Green function restricted to a factor is the factor's own Green function
at a shifted parameter:

    G(e, x | r) = G_0(e, x | zeta_0(r)) / (1 - w_0(r)),   x in Gamma_0,

where w_0(r) is the r-weighted series of first returns to e whose first
step was drawn from the alpha * mu_1 component, and
zeta_0(r) = (1 - alpha) r / (1 - w_0(r)); symmetrically for the other
factor.  With U_i = 1 - 1/G_i(e, e | .) the factors' first-return series,
w_0 = (1 - w_1) U_1(alpha r / (1 - w_1)) and symmetrically (Woess, Random
Walks on Infinite Graphs and Groups, CUP 2000): only the factor engines
enter, and no convolution runs.

The construction scan takes a tree-product factor with a growth phase
threshold r0 and an abelian factor Z^d, and locates the parameter r at
which zeta_0(r) crosses r0 -- the point where the factor's sphere series
switches from divergent-type to convergent-type behavior at its own
growth exponent, up to the free product's radius R_mu by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bitree import PhaseParams, capital_R, classify, model_window, \
    prefactor_exponent, solve_t0
from .groups import FreeAbelian, FreeProduct, TreeProduct
from .growth import h_series, omega_estimate
from .kernels import (
    Measure, first_return_coefficients, green_truncated, standard_measure,
)

DEFAULT_N = 24
DEFAULT_SCAN_SUPPORT_CAP = 200_000
STEP_TOL = 1e-14
MAX_ITERATIONS = 2000
BRANCH_END_RTOL = 1e-9


@dataclass(frozen=True)
class TransferPoint:
    alpha: float
    r: float
    w0: float
    w1: float
    zeta0: float
    zeta1: float
    truncation: int


def tagged_return_coefficients(measure: Measure, n_max: int = DEFAULT_N,
                               support_cap: Optional[int]
                               = DEFAULT_SCAN_SUPPORT_CAP,
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays a_i[n] = P(first return to e at step n, first step drawn
    from the factor-i component of the mixed measure), n = 0..n_max.

    A pruned convolution sweep, independent of the factor equations that
    `transfer` solves, kept as a cross-check: its entries are certified
    lower bounds.
    """
    if measure.kind != "freeprod-mix":
        raise ValueError("tagged returns need a freeprod-mix measure")
    alpha = float(measure.param("alpha"))
    g = measure.group
    e = g.identity()
    out = []
    for side, part, weight in ((0, measure.param("left"), 1.0 - alpha),
                               (1, measure.param("right"), alpha)):
        first = {g.embed(side, x): weight * float(w)
                 for x, w in part.weights}
        coeffs = first_return_coefficients(
            measure, lambda y: y == e, n_max, first_step=first,
            support_cap=support_cap)
        out.append(coeffs.get(e, np.zeros(n_max + 1)))
    return out[0], out[1]


def _excursions(factor: Measure, c: float, w: float) -> float:
    """(1 - w) U(c / (1 - w)): first returns of the factor walk, weight c
    per step, with excursions of weight w inserted at each interior visit."""
    e = factor.group.identity()
    g = green_truncated(factor, [e], c / (1.0 - w))[e].value
    return (1.0 - w) * (1.0 - 1.0 / g)


def transfer(spec: FreeProduct, measure: Optional[Measure], r: float,
             n_max: int = DEFAULT_N,
             support_cap: Optional[int] = DEFAULT_SCAN_SUPPORT_CAP,
             ) -> TransferPoint:
    """w_i(r), zeta_i(r): the least solution of the factor equations.

    w_0 tags first steps from the alpha * mu_1 component and shifts the
    *left* factor, zeta_0 = (1-alpha) r / (1-w_0); symmetrically for w_1.
    From w = 0, w_0 and then w_1 are updated until no w moves by more than
    STEP_TOL.  U_i has nonnegative coefficients and U_i < 1, so the
    iterates increase to the solution and stay below it and below 1: no
    engine is called past its radius while r < R_mu.  n_max and
    support_cap are ignored (no sweep runs); truncation is -1.  Raises
    ValueError at r < 0 and at or past R_mu, where an engine refuses its
    zeta or MAX_ITERATIONS steps do not settle (which can also happen just
    below R_mu where the two equations become tangent).
    """
    if measure is None:
        measure = standard_measure(spec)
    alpha = float(measure.param("alpha"))
    w0 = w1 = 0.0
    for _ in range(MAX_ITERATIONS):
        new0 = _excursions(measure.param("right"), alpha * r, w1)
        new1 = _excursions(measure.param("left"), (1.0 - alpha) * r, new0)
        step = max(abs(new0 - w0), abs(new1 - w1))
        w0, w1 = new0, new1
        if step <= STEP_TOL:
            return TransferPoint(alpha, r, w0, w1,
                                 (1.0 - alpha) * r / (1.0 - w0),
                                 alpha * r / (1.0 - w1), -1)
    raise ValueError(f"the transfer equations did not settle in "
                     f"{MAX_ITERATIONS} steps at r = {r}: r is at or past "
                     f"the free product's radius")


def transfer_consistency(spec: FreeProduct, measure: Optional[Measure],
                         r: float, elements: Sequence,
                         n_max: int = DEFAULT_N,
                         support_cap: Optional[int]
                         = DEFAULT_SCAN_SUPPORT_CAP,
                         ) -> List[Tuple[object, float, float, float]]:
    """Cross-validation of the transfer identity on left-factor elements.

    For each factor element x, compares the direct Green value G(e, x | r)
    on the free product (a sweep of n_max steps pruned to support_cap)
    with G_0(e, x | zeta_0) / (1 - w_0) from `transfer` and the factor's
    engine; returns (x, direct, transferred, relative discrepancy).
    """
    if measure is None:
        measure = standard_measure(spec)
    g = measure.group
    tp = transfer(spec, measure, r)
    embedded = [g.embed(0, x) for x in elements]
    direct = green_truncated(measure, embedded, r, max_terms=n_max,
                             support_cap=support_cap)
    factor = green_truncated(measure.param("left"), list(elements), tp.zeta0)
    rows = []
    for x, y in zip(elements, embedded):
        dval = direct[y].value
        tval = factor[x].value / (1.0 - tp.w0)
        rel = abs(dval - tval) / max(dval, tval)
        rows.append((x, dval, tval, rel))
    return rows


def induced_omega_P(params: PhaseParams, point: TransferPoint) -> float:
    """Growth rate of the parabolic (factor) sphere series: the factor's
    own omega evaluated at the shifted parameter zeta_0."""
    R0 = capital_R(params)
    if not (0.0 < point.zeta0 <= R0):
        raise ValueError(f"zeta0 = {point.zeta0} outside (0, {R0}]")
    return classify(params, point.zeta0).omega


@dataclass(frozen=True)
class ScanPoint:
    r: float
    w0: float
    w1: float
    zeta0: float
    zeta1: float
    omega_P: Optional[float]
    omega_full: Optional[float]
    gap: Optional[float]
    diagnostic_exponent: Optional[float]
    diagnostic_label: str


@dataclass(frozen=True)
class ConstructionReport:
    factor_params: PhaseParams
    d: int
    alpha: float
    truncation: int
    r0: float
    r_cap: float
    points: List[ScanPoint]
    crossing_r: Optional[float]
    crossing_zeta0: Optional[float]
    crossing_residual: Optional[float]
    transition_index: Optional[int]


def _factor_diagnostic(params: PhaseParams, zeta0: float
                       ) -> Tuple[Optional[float], str]:
    """Prefactor exponent of the factor's model series at zeta0."""
    if not (1.0 < zeta0 <= capital_R(params)):
        return None, "out-of-range"
    rep = classify(params, zeta0)
    ns, vals = model_window(params, zeta0)
    expo, _ = prefactor_exponent(vals, ns, rep.omega)
    return expo, ("convergent-type" if expo < -1.0 else "divergent-type")


def scan_construction(factor_params: PhaseParams, d: int, alpha: float,
                      r_grid: Optional[Sequence[float]] = None,
                      n_max: int = DEFAULT_N,
                      support_cap: Optional[int] = DEFAULT_SCAN_SUPPORT_CAP,
                      full_series_n: int = 10,
                      ) -> ConstructionReport:
    """Scan the free product (tree product) * Z^d over an r-grid and
    locate where zeta_0 crosses the factor's phase threshold r0.

    Reports per grid point the transfer quantities, the induced factor
    growth rate omega_P, a truncated full-series growth estimate (n_max
    steps, support_cap, when full_series_n >= 10), their gap, and the
    factor's convergence-type diagnostic; refines the crossing by root
    bracketing down to ~1e-9 residual.  The default grid has 9 points
    from 1 to R_mu, the largest r at which `transfer` converges, bisected
    to BRANCH_END_RTOL relative; r_cap is the grid's end.  Where zeta_0
    reaches R0 first, the tree-product engine's MAX_NODES ends the branch
    a little short; at a tangent end, MAX_ITERATIONS does.
    """
    from scipy.optimize import brentq

    if d < 3:
        raise ValueError("the abelian factor needs d >= 3")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    spec = FreeProduct(
        TreeProduct(factor_params.l1, factor_params.l2), FreeAbelian(d))
    measure = standard_measure(
        spec, alpha=alpha,
        left_params={"a1": factor_params.a1})
    _, r0 = solve_t0(factor_params)

    if r_grid is None:
        # transfer fails at hi, where zeta_0 >= (1 - alpha) r reaches the
        # factor's radius or zeta_1 >= alpha r reaches 1
        lo, hi = 1.0, min(capital_R(factor_params) / (1.0 - alpha), 1 / alpha)
        while hi - lo > BRANCH_END_RTOL * lo:
            mid = 0.5 * (lo + hi)
            try:
                transfer(spec, measure, mid)
                lo = mid
            except ValueError:
                hi = mid
        r_grid = np.linspace(1.0, lo, 9)

    points = []
    transition = None
    prev_label = None
    for i, r in enumerate(r_grid):
        tp = transfer(spec, measure, float(r))
        try:
            om_p = induced_omega_P(factor_params, tp)
        except ValueError:
            om_p = None
        expo, label = _factor_diagnostic(factor_params, tp.zeta0)
        om_full = None
        gap = None
        if full_series_n and full_series_n >= 10:
            series = h_series(spec, measure, float(r), n_max=full_series_n,
                              max_terms=n_max, support_cap=support_cap)
            om_full = omega_estimate(series).slope
            if om_p is not None:
                gap = om_full - om_p
        if prev_label == "divergent-type" and label == "convergent-type":
            transition = i
        prev_label = label
        points.append(ScanPoint(float(r), tp.w0, tp.w1, tp.zeta0, tp.zeta1,
                                om_p, om_full, gap, expo, label))

    crossing_r = crossing_zeta = residual = None
    for a, b in zip(points, points[1:]):
        if (a.zeta0 - r0) * (b.zeta0 - r0) < 0:
            crossing_r = float(brentq(
                lambda r: transfer(spec, measure, r).zeta0 - r0,
                a.r, b.r, xtol=1e-12, rtol=1e-14))
            crossing_zeta = transfer(spec, measure, crossing_r).zeta0
            residual = abs(crossing_zeta - r0)
            break
    return ConstructionReport(factor_params, d, alpha, n_max, r0,
                              float(max(r_grid)), points, crossing_r,
                              crossing_zeta, residual, transition)
