"""Green-function transfer across free products and the construction scan.

For the measure mu = alpha * mu_1 + (1 - alpha) * mu_0 on Gamma_0 * Gamma_1,
the Green function restricted to a factor is the factor's own Green function
at a shifted parameter:

    G(e, x | r) = G_0(e, x | zeta_0(r)) / (1 - w_0(r)),   x in Gamma_0,

where w_0(r) is the r-weighted series of first returns to e whose first
step was drawn from the alpha * mu_1 component, and
zeta_0(r) = (1 - alpha) r / (1 - w_0(r)); symmetrically for the other
factor.  The w's are computed as certified lower bounds at a finite
truncation order and never extrapolated.

The construction scan takes a tree-product factor with a growth phase
threshold r0 and an abelian factor Z^d, and locates the parameter r at
which zeta_0(r) crosses r0 -- the point where the factor's sphere series
switches from divergent-type to convergent-type behavior at its own
growth exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bitree import PhaseParams, capital_R, classify, model_window, \
    prefactor_exponent, solve_t0
from .groups import FreeAbelian, FreeProduct, TreeProduct
from .growth import h_series, omega_estimate, sphere_reduced_sweep
from .kernels import (
    MEMO_SIZE, Measure, first_return_coefficients, green_truncated,
    standard_measure,
)

DEFAULT_N = 24
DEFAULT_SCAN_SUPPORT_CAP = 200_000


@dataclass(frozen=True)
class TransferPoint:
    alpha: float
    r: float
    w0: float
    w1: float
    zeta0: float
    zeta1: float
    truncation: int
    lower_bound_only: bool = True


@lru_cache(maxsize=MEMO_SIZE)
def tagged_return_coefficients(measure: Measure, n_max: int = DEFAULT_N,
                               support_cap: Optional[int]
                               = DEFAULT_SCAN_SUPPORT_CAP,
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays a_i[n] = P(first return to e at step n, first step drawn
    from the factor-i component of the mixed measure), n = 0..n_max.

    These are r-independent, so one convolution sweep serves a whole
    r-grid of transfer points, and they are memoized: pass the arguments
    positionally so that equal requests share one entry.  Entries are
    certified lower bounds under support pruning.
    """
    spec = measure.spec
    if not isinstance(spec, FreeProduct) or measure.kind != "freeprod-mix":
        raise ValueError("tagged returns need a freeprod-mix measure")
    alpha = float(measure.param("alpha"))
    g = measure.group
    e = g.identity()
    m_left = standard_measure(spec.left)
    m_right = standard_measure(spec.right)
    out = []
    for side, part, weight in ((0, m_left, 1.0 - alpha),
                               (1, m_right, alpha)):
        first = {g.embed(side, x): weight * float(w)
                 for x, w in part.weights}
        coeffs = first_return_coefficients(
            measure, lambda y: y == e, n_max, first_step=first,
            mode="float", support_cap=support_cap)
        out.append(coeffs.get(e, np.zeros(n_max + 1)))
    return out[0], out[1]


def transfer(spec: FreeProduct, measure: Optional[Measure], r: float,
             n_max: int = DEFAULT_N,
             support_cap: Optional[int] = DEFAULT_SCAN_SUPPORT_CAP,
             ) -> TransferPoint:
    """Transfer quantities w_i(r), zeta_i(r) at truncation order n_max.

    w_0 is the series with first step from the alpha * mu_1 component
    (the abelian side of the mix), matching zeta_0 = (1-alpha) r / (1-w_0)
    for the *left* factor; symmetrically for w_1.
    """
    if measure is None:
        measure = standard_measure(spec)
    if r < 0:
        raise ValueError("r must be >= 0")
    alpha = float(measure.param("alpha"))
    a_left, a_right = tagged_return_coefficients(measure, n_max, support_cap)
    powers = r ** np.arange(n_max + 1)
    # w_0 tags first steps from the complementary (right) component
    w0 = float(a_right @ powers)
    w1 = float(a_left @ powers)
    if w0 >= 1.0 or w1 >= 1.0:
        raise ValueError("truncated first-return mass reached 1; r too large")
    zeta0 = (1.0 - alpha) * r / (1.0 - w0)
    zeta1 = alpha * r / (1.0 - w1)
    return TransferPoint(alpha, r, w0, w1, zeta0, zeta1, n_max)


def transfer_consistency(spec: FreeProduct, measure: Optional[Measure],
                         r: float, elements: Sequence,
                         n_max: int = DEFAULT_N,
                         support_cap: Optional[int]
                         = DEFAULT_SCAN_SUPPORT_CAP,
                         ) -> List[Tuple[object, float, float, float]]:
    """Cross-validation of the transfer identity on left-factor elements.

    For each factor element x, compares the direct truncated Green value
    G(e, x | r) on the free product with G_0(e, x | zeta_0) / (1 - w_0)
    from the factor's own engine.  Both sides are truncation-limited;
    returns (x, direct, transferred, relative discrepancy).
    """
    if measure is None:
        measure = standard_measure(spec)
    g = measure.group
    tp = transfer(spec, measure, r, n_max, support_cap)
    m_left = standard_measure(spec.left)
    embedded = [g.embed(0, x) for x in elements]
    direct = green_truncated(measure, embedded, r, max_terms=n_max,
                             support_cap=support_cap)
    factor = green_truncated(m_left, list(elements), tp.zeta0)
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


def heuristic_r_cap(measure: Measure, n_max: int = DEFAULT_N,
                    support_cap: Optional[int] = DEFAULT_SCAN_SUPPORT_CAP,
                    ) -> float:
    """Largest r at which the truncated on-diagonal Green terms are not
    yet growing: 1 over the tail ratio of even return probabilities.

    The true convergence radius of the free product is not known in
    closed form; this cap is heuristic and flagged as such in reports.
    """
    # row 0 of the sphere sweep holds the return probabilities p_k(e, e)
    p = sphere_reduced_sweep(measure, 0, n_max, None, support_cap)[0][0]
    k = n_max if n_max % 2 == 0 else n_max - 1
    if p[k] <= 0 or p[k - 2] <= 0:
        return 1.0
    return float((p[k - 2] / p[k]) ** 0.5)


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
    r_cap_heuristic: bool
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
    growth rate omega_P, a truncated full-series growth estimate, their
    gap, and the factor's convergence-type diagnostic; refines the
    crossing by root bracketing down to ~1e-9 residual.
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

    r_cap_heuristic = r_grid is None
    if r_grid is None:
        r_cap = heuristic_r_cap(measure, n_max, support_cap)
        r_grid = np.linspace(1.0, r_cap, 9)
    else:
        r_grid = list(r_grid)
        r_cap = max(r_grid)

    def zeta0_of(r):
        return transfer(spec, measure, r, n_max, support_cap).zeta0

    points = []
    transition = None
    prev_label = None
    for i, r in enumerate(r_grid):
        tp = transfer(spec, measure, float(r), n_max, support_cap)
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
    zs = [p.zeta0 for p in points]
    for i in range(len(points) - 1):
        if (zs[i] - r0) * (zs[i + 1] - r0) < 0:
            crossing_r = float(brentq(lambda r: zeta0_of(r) - r0,
                                      points[i].r, points[i + 1].r,
                                      xtol=1e-12, rtol=1e-14))
            crossing_zeta = zeta0_of(crossing_r)
            residual = abs(crossing_zeta - r0)
            break
    return ConstructionReport(factor_params, d, alpha, n_max, r0,
                              float(r_cap), r_cap_heuristic, points,
                              crossing_r, crossing_zeta, residual,
                              transition)
