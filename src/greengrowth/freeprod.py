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
enter, and no convolution runs.  `transfer` lives in `kernels`, whose
free-product engine composes every Green value and sphere sum from it;
here it is checked against the sweep (`transfer_consistency`,
`tagged_return_coefficients`).

The construction scan takes a tree-product factor with a growth phase
threshold r0 and an abelian factor Z^d, and locates the parameter r at
which zeta_0(r) crosses r0 -- the point where the factor's sphere series
switches from divergent-type to convergent-type behavior at its own
growth exponent, up to the free product's radius R_mu by default.  At
the crossing zeta_0 = r0 fixes w_0 and, through U_0(r0), w_1, so the
crossing is the root of one equation in the Z^d factor (`_crossing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bitree import PhaseParams, PhaseReport, capital_R, classify, \
    model_window, prefactor_exponent, solve_t0
from .groups import FreeAbelian, FreeProduct, TreeProduct
from .growth import _convergence_label, h_series, omega_estimate
from .kernels import (
    Measure, TransferPoint, _excursions, _green_generic, _measure_on,
    first_return_coefficients, green_truncated, standard_measure, transfer,
)

DEFAULT_N = 24
DEFAULT_SCAN_SUPPORT_CAP = 200_000
BRANCH_END_RTOL = 1e-9
# the construction scan's crossing is located to this width in r
CROSSING_XTOL = 1e-12


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
    measure = _measure_on(spec, measure)
    g = measure.group
    tp = transfer(spec, measure, r)
    embedded = [g.embed(0, x) for x in elements]
    # the sweep, not the product formula that `green_truncated` reads
    # from the same transfer: the two sides are independent methods
    direct = _green_generic(measure, embedded, r, 1e-9, n_max, support_cap)
    factor = green_truncated(measure.param("left"), list(elements), tp.zeta0)
    rows = []
    for x, y in zip(elements, embedded):
        dval = direct[y].value
        tval = factor[x].value / (1.0 - tp.w0)
        rel = abs(dval - tval) / max(dval, tval)
        rows.append((x, dval, tval, rel))
    return rows


def _factor_phase(params: PhaseParams, zeta0: float
                  ) -> Optional[PhaseReport]:
    """The factor's phase report at zeta0, or None outside (0, R0]."""
    if not (0.0 < zeta0 <= capital_R(params)):
        return None
    return classify(params, zeta0)


def induced_omega_P(params: PhaseParams, point: TransferPoint) -> float:
    """Growth rate of the parabolic (factor) sphere series: the factor's
    own omega evaluated at the shifted parameter zeta_0."""
    rep = _factor_phase(params, point.zeta0)
    if rep is None:
        raise ValueError(
            f"zeta0 = {point.zeta0} outside (0, {capital_R(params)}]")
    return rep.omega


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


def _factor_diagnostic(rep: Optional[PhaseReport]
                       ) -> Tuple[Optional[float], str]:
    """Prefactor exponent of the factor's model series at rep.r."""
    if rep is None or rep.r <= 1.0:
        return None, "out-of-range"
    ns, vals = model_window(rep.params, rep.r)
    expo, _ = prefactor_exponent(vals, ns, rep.omega)
    return expo, _convergence_label(expo)


def _crossing(spec: FreeProduct, measure: Measure, r0: float, lo: float,
              hi: float) -> float:
    """The r in [lo, hi] at which zeta_0(r) = r0, given zeta_0(lo) < r0 <
    zeta_0(hi).

    There the left factor is read only at r0: with u = U_0(r0), w_0 =
    w0*(r) = 1 - (1 - alpha) r / r0 and w_1 = w1*(r) = (1 - w0*) u, so the
    crossing is the root of h(r) = (1 - w1*) U_1(alpha r / (1 - w1*)) -
    w0*, one Z^d call per step.  h(r) = g_r(w0*(r)) for g_r(w) = E_1(alpha
    r, E_0((1 - alpha) r, w)) - w, E_i(c, w) = (1 - w) U_i(c / (1 - w)):
    g_r is convex, a power series with nonnegative coefficients minus w,
    and positive at 0, with the least fixed point w_0(r).  At hi, w0* <
    w_0, so h(hi) > 0; at lo, w0* > w_0, so h(lo) < 0 wherever w0* lies
    below g's second root.  Where h(lo) >= 0, or an engine refuses
    w1*(lo), lo is tightened by bisecting on the sign of
    transfer(r).zeta0 - r0.
    """
    from scipy.optimize import brentq

    alpha = float(measure.param("alpha"))
    right = measure.param("right")
    u = _excursions(measure.param("left"), r0, 0.0)

    # the last value is kept: brentq's first evaluation is h(lo), which
    # the sign test below has just made
    @lru_cache(maxsize=1)
    def h(r):
        w0 = 1.0 - (1.0 - alpha) * r / r0
        return _excursions(right, alpha * r, (1.0 - w0) * u) - w0

    def below(r):
        try:
            return h(r) < 0.0
        except ValueError:  # w1*(r) past the right factor's radius
            return False

    while not below(lo):
        if hi - lo <= CROSSING_XTOL:
            return lo
        mid = 0.5 * (lo + hi)
        if transfer(spec, measure, mid).zeta0 < r0:
            lo = mid
        else:
            hi = mid
    return float(brentq(h, lo, hi, xtol=CROSSING_XTOL, rtol=1e-14))


def scan_construction(factor_params: PhaseParams, d: int, alpha: float,
                      r_grid: Optional[Sequence[float]] = None,
                      n_max: int = DEFAULT_N,
                      support_cap: Optional[int] = DEFAULT_SCAN_SUPPORT_CAP,
                      full_series_n: int = 10,
                      ) -> ConstructionReport:
    """Scan the free product (tree product) * Z^d over an r-grid and
    locate where zeta_0 crosses the factor's phase threshold r0.

    Reports per grid point the transfer quantities, the induced factor
    growth rate omega_P, the full series' growth rate omega_full (the
    slope of `h_series` on spheres 0..full_series_n, which the
    free-product engine composes from the factors' series, when
    full_series_n >= 10; 0 turns it off, and any other value raises
    ValueError), their gap, and the factor's convergence-type diagnostic.
    Between the first two grid points that bracket r0, the crossing is
    the root of `_crossing`'s h, which reads the left factor once, at r0,
    and the right factor once per step, down to ~1e-12 in r;
    `transfer` at the crossing then gives crossing_zeta0 and the
    residual |crossing_zeta0 - r0| as an independent check.
    n_max and support_cap steer nothing; truncation reports n_max.  The
    default grid has 9 points from 1 to R_mu, the largest r at which
    `transfer` converges, and the full series too when full_series_n >=
    10, bisected to BRANCH_END_RTOL relative; r_cap is the grid's end.
    Where zeta_0 reaches R0 first, the tree-product engine's MAX_NODES
    ends the branch a little short; at a tangent end, MAX_ITERATIONS does.
    """
    if d < 3:
        raise ValueError("the abelian factor needs d >= 3")
    if not (full_series_n == 0 or full_series_n >= 10):
        raise ValueError(f"omega_estimate's window needs full_series_n "
                         f">= 10 (0: off), got {full_series_n}")
    spec = FreeProduct(
        TreeProduct(factor_params.l1, factor_params.l2), FreeAbelian(d))
    measure = standard_measure(
        spec, alpha=alpha,
        left_params={"a1": factor_params.a1})
    _, r0 = solve_t0(factor_params)

    def series(r):
        return h_series(spec, measure, r, n_max=full_series_n)

    if r_grid is None:
        # transfer fails at hi, where zeta_0 >= (1 - alpha) r reaches the
        # factor's radius or zeta_1 >= alpha r reaches 1; the full series,
        # which reads the factors a little past zeta_i, can fail before
        lo, hi = 1.0, min(capital_R(factor_params) / (1.0 - alpha), 1 / alpha)
        while hi - lo > BRANCH_END_RTOL * lo:
            mid = 0.5 * (lo + hi)
            try:
                transfer(spec, measure, mid)
                if full_series_n:
                    series(mid)
                lo = mid
            except ValueError:
                hi = mid
        r_grid = np.linspace(1.0, lo, 9)

    points = []
    transition = None
    prev_label = None
    for i, r in enumerate(r_grid):
        tp = transfer(spec, measure, float(r))
        rep = _factor_phase(factor_params, tp.zeta0)
        om_p = None if rep is None else rep.omega
        expo, label = _factor_diagnostic(rep)
        om_full = None
        gap = None
        if full_series_n:
            om_full = omega_estimate(series(float(r))).slope
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
            # zeta_0 increases with r
            crossing_r = _crossing(spec, measure, r0, *sorted((a.r, b.r)))
            crossing_zeta = transfer(spec, measure, crossing_r).zeta0
            residual = abs(crossing_zeta - r0)
            break
    return ConstructionReport(factor_params, d, alpha, n_max, r0,
                              float(max(r_grid)), points, crossing_r,
                              crossing_zeta, residual, transition)
