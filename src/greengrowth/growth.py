"""Sphere-summed Green series H_r(n) and derived growth statistics.

H_r(n) = sum over the word-metric sphere S_n of G(e, x | r).  Three routes:

* trees, tree products, Z^d and Diestel-Leader -- `kernels` owns their
  class table, and `h_series` reduces its sphere classes to one row per
  sphere with the evaluator and error rule of `green_truncated`,
* free products of two such walks -- `kernels.freeprod_sphere_sums`
  composes the series from the factors' sphere rows through `transfer`,
  with a two-sided tail; a parabolic-gap report reads both of its series
  from one composition,
* everything else -- `sphere_reduced_sweep`, the float step-sum core
  `kernels.step_sums` binned by word length, so the r-dependence is a
  cheap polynomial evaluation; the mass a support cap prunes enters every
  tail.  Unrestricted sweeps walk symmetry orbits where the group has
  them (the Heisenberg group's dihedral group of order 8).  A
  parabolic-gap report reduces one sweep twice, over the whole spheres
  and over the factor.

Also here: growth-rate estimation omega(r) by least-squares slope of
log H_r(n), partial Poincare sums, the Green-based distance
omega * |x| - log(G(e, x | r) / G(e, e | r)), and the parabolic-gap
report for free products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bitree import _line_fit, prefactor_exponent
from .groups import Element, FreeProduct, GroupSpec
from .kernels import (
    DEFAULT_SUPPORT_CAP, Measure, _heuristic_tail, _measure_on,
    _pick_n, check_request, class_engine, composes, freeprod_sphere_sums,
    green_truncated, step_sums,
)


@dataclass(frozen=True)
class HEntry:
    value: float
    tail: float
    rigorous: bool


@dataclass(frozen=True)
class GrowthSeries:
    """H_r(n) for n = 0..n_max, with per-sphere tail bounds."""

    group: GroupSpec
    r: float
    values: Dict[int, HEntry]
    restriction: Optional[str] = None

    @property
    def n_max(self) -> int:
        return max(self.values)

    def value(self, n: int) -> float:
        return self.values[n].value

    def array(self) -> np.ndarray:
        return np.array([self.values[n].value
                         for n in range(self.n_max + 1)])


@dataclass(frozen=True)
class OmegaEstimate:
    slope: float
    window: Tuple[int, int]
    stderr: float


# ---------------------------------------------------------------------------
# step-sum series


def _h_generic(measure, r, n_max, tol, restrictions, max_terms, support_cap):
    """One series per restriction (None: the whole sphere), all reduced
    from one sweep."""
    # rho is 1 (Heisenberg) or unknown here, so a proved tail is
    # sum_{k > n_steps} r^k, which bounds every sphere's: the p_k(e, .) of a
    # sphere sum to at most 1
    n_steps, proved = _pick_n(measure, r, tol, max_terms, default=40)
    *matrices, dropped = sphere_reduced_sweep(measure, n_max, n_steps,
                                              restrictions, support_cap)
    rigorous = proved is not None
    powers = r ** np.arange(n_steps + 1)
    # p_k(A) <= (pruned p_k)(A) + M_k for every set A
    pruned = float(dropped @ powers)
    out = []
    for S in matrices:
        vals = {}
        for n in range(n_max + 1):
            row = S[n]
            total = float(row @ powers)
            tail = proved if rigorous else _heuristic_tail(
                list(row * powers))
            vals[n] = HEntry(total, float(tail + pruned), rigorous)
        out.append(vals)
    return out


def sphere_reduced_sweep(measure: Measure, n_max: int, n_steps: int,
                         restrictions: Tuple[Optional[Callable], ...]
                         = (None,),
                         support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                         ) -> Tuple[np.ndarray, ...]:
    """The one step-sum sweep binned by word length: `kernels.step_sums`
    with key |x|.  S[n, k] = sum of p_k(e, x) over x in S_n, one matrix per
    restriction (None: the whole sphere; else only the elements the
    predicate accepts), so H_r(n) is the polynomial sum_k r^k S[n, k] for
    any r.

    Returns (*S, M): M[k] is the mass the support cap pruned by step k, so
    each S[n, k] is a lower bound within M[k] of the unpruned value.  Word
    length is constant on symmetry orbits, so the unrestricted sweep,
    restrictions == (None,), walks orbits.
    """
    return step_sums(measure, measure.group.word_length, n_max + 1, n_steps,
                     restrictions, support_cap,
                     lump=restrictions == (None,))


def h_series(spec: GroupSpec, measure: Optional[Measure] = None,
             r: float = 1.0, n_max: int = 20, tol: float = 1e-9,
             max_terms: Optional[int] = None,
             support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
             ) -> GrowthSeries:
    """Sphere-summed Green series H_r(n) for n = 0..n_max.

    The walks of `kernels.class_engine` (trees, tree products, Z^d,
    Diestel-Leader) reduce the engine's classes to one row per sphere,
    with the error rules of `kernels.CLASS_ENGINES`, and ignore max_terms.
    A free product whose factors are such walks (`kernels.composes`) is
    composed from the factors' series through `transfer`
    (`kernels.freeprod_sphere_sums`, a two-sided tail) and ignores
    max_terms and support_cap.  Every other walk reads the unrestricted
    `sphere_reduced_sweep`.  The series restricted to a free factor is
    `parabolic_gap_report`'s.  Every walk whose spectral radius rho is
    known in closed form raises ValueError at r > 1/rho; n_max < 0 and
    tol <= 0 or NaN raise ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got n_max = {n_max}")
    measure = _measure_on(spec, measure)
    check_request(measure, r, tol)
    engine = class_engine(measure)
    if engine is not None:
        vals = _entries(*engine.sums(measure, *engine.spheres(spec, n_max),
                                     r, tol))
    elif composes(measure):
        series, rigorous = freeprod_sphere_sums(measure, r, n_max, tol)
        vals = _entries(*series[0], rigorous)
    else:
        vals, = _h_generic(measure, r, n_max, tol, (None,), max_terms,
                           support_cap)
    return GrowthSeries(spec, r, vals)


def _entries(values: np.ndarray, tails: np.ndarray, rigorous: bool
             ) -> Dict[int, HEntry]:
    """The entries n = 0, 1, ... of a series of values and tails."""
    return {n: HEntry(v, t, rigorous) for n, (v, t) in
            enumerate(zip(values.tolist(), tails.tolist()))}


# ---------------------------------------------------------------------------
# growth rate, Poincare sums, distances


def omega_estimate(series: GrowthSeries,
                   window: Optional[Tuple[int, int]] = None,
                   ) -> OmegaEstimate:
    """Least-squares slope of log H_r(n) on the window (default: top half).

    The slope is the raw fit of log H_r(n) against n, prefactor included:
    H_r(n) ~ n^b e^(omega n) gives about omega + b / n at the window's
    middle n.  So `greengrowth omega --group zd --d 3 --r 1.0 --nmax 30`
    prints 0.0456 where omega(1) = 0 (b = 1 on Z^3 at r = 1).
    """
    if window is None:
        window = ((series.n_max + 1) // 2, series.n_max)
    lo, hi = window
    if not (0 <= lo and hi <= series.n_max and hi - lo >= 5):
        raise ValueError("window must lie in the series with span >= 5")
    ns = np.arange(lo, hi + 1, dtype=float)
    vals = np.array([series.value(int(n)) for n in ns])
    if not np.all(vals > 0):
        raise ValueError("series must be positive on the window")
    slope, stderr = _line_fit(ns, np.log(vals))
    return OmegaEstimate(slope, (lo, hi), stderr)


def theta_partial(spec: GroupSpec, measure: Optional[Measure], r: float,
                  s: float, n_max: int, tol: float = 1e-9,
                  ) -> Tuple[float, List[float]]:
    """Partial Poincare sum sum_{n<=n_max} H_r(n) e^{-s n} and its terms."""
    series = h_series(spec, measure, r, n_max, tol)
    terms, partials = _poincare_sums(series, s)
    return partials[-1], terms


def _poincare_sums(series: GrowthSeries, s: float
                  ) -> Tuple[List[float], List[float]]:
    """The terms H_r(n) e^{-s n} of the series, and their running sums,
    added in order of n; s must be finite (ValueError)."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got s = {s}")
    terms = [series.value(n) * math.exp(-s * n)
             for n in range(series.n_max + 1)]
    return terms, list(accumulate(terms))


@dataclass(frozen=True)
class DrDistance:
    value: float
    lower: float
    upper: float


def dr_distance(spec: GroupSpec, measure: Optional[Measure], r: float,
                x: Element, omega: float, tol: float = 1e-9) -> DrDistance:
    """omega * |x| - log(G(e, x | r) / G(e, e | r)), with the interval
    that the truncation tails allow."""
    measure = _measure_on(spec, measure)
    g = measure.group
    e = g.identity()
    est = green_truncated(measure, [e, x], r, tol)
    ge, gx = est[e], est[x]
    if gx.value <= 0:
        raise ValueError("Green value vanished; element unreachable?")
    te, tx = ge.tail, gx.tail
    base = omega * g.word_length(x)
    value = base - math.log((gx.value + 0.5 * tx) / (ge.value + 0.5 * te))
    lower = base - math.log((gx.value + tx) / ge.value)
    upper = base - math.log(gx.value / (ge.value + te))
    return DrDistance(value, lower, upper)


# ---------------------------------------------------------------------------
# parabolic gap reports for free products


@dataclass(frozen=True)
class GapReport:
    spec: GroupSpec
    r: float
    side: int
    omega_full: OmegaEstimate
    omega_factor: OmegaEstimate
    gap: float
    gap_stderr: float
    diagnostic_exponent: float
    diagnostic_label: str
    multiplicativity: float
    series_full: GrowthSeries
    series_factor: GrowthSeries


def _convergence_label(exponent: float) -> str:
    """Exponent < -1 suggests a convergent-type Poincare series at
    s = omega; this is a finite-data heuristic, reported but never a proof.
    """
    return "convergent-type" if exponent < -1.0 else "divergent-type"


def convergence_diagnostic(series: GrowthSeries, omega: float,
                           window: Optional[Tuple[int, int]] = None,
                           ) -> Tuple[float, str]:
    """Fitted exponent of H_r(n) e^{-n omega} against log n
    (`bitree.prefactor_exponent`), and its `_convergence_label`.  A window
    with fewer than two n raises ValueError."""
    if window is None:
        window = (max(1, (series.n_max + 1) // 2), series.n_max)
    lo, hi = max(window[0], 1), window[1]  # log n needs n >= 1
    ns = np.arange(lo, hi + 1)
    vals = np.array([series.value(int(n)) for n in ns])
    if not np.all(vals > 0):
        return float("nan"), "undetermined"
    expo, _ = prefactor_exponent(np.log(vals), ns, omega)
    return expo, _convergence_label(expo)


def parabolic_gap_report(spec: FreeProduct, measure: Optional[Measure],
                         r: float, side: int, n_max: int,
                         tol: float = 1e-9,
                         max_terms: Optional[int] = None,
                         support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                         window: Optional[Tuple[int, int]] = None,
                         ) -> GapReport:
    """Growth rates of the full sphere series and of the series restricted
    to one free factor, their gap, and the convergence diagnostic.

    Where both factors have a class engine (`kernels.composes`), both
    series come from one composition of the factors' series,
    `kernels.freeprod_sphere_sums`, and max_terms and support_cap are
    ignored.  Otherwise one step-sum sweep is reduced twice, over the
    whole spheres and over the factor; under tight support caps the
    swept support cannot reach the outer spheres and the top entries of
    the series degrade to zero, so pass an explicit fitting window over
    the trustworthy range in that case.  side must be 0 or 1, and tol <=
    0 or NaN raises ValueError, as in `h_series`.
    """
    if not isinstance(spec, FreeProduct):
        raise ValueError("parabolic gap reports need a free product")
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got side = {side}")
    measure = _measure_on(spec, measure)
    g = measure.group

    def in_factor(a):
        return g.factor_part(side, a) is not None

    check_request(measure, r, tol)
    if composes(measure):
        series, rigorous = freeprod_sphere_sums(measure, r, n_max, tol)
        full_vals, factor_vals = (_entries(*series[i], rigorous)
                                  for i in (0, 1 + side))
    else:
        full_vals, factor_vals = _h_generic(measure, r, n_max, tol,
                                            (None, in_factor), max_terms,
                                            support_cap)
    full = GrowthSeries(spec, r, full_vals)
    factor = GrowthSeries(spec, r, factor_vals, f"factor-{side}")
    om_full = omega_estimate(full, window)
    om_factor = omega_estimate(factor, window)
    gap = om_full.slope - om_factor.slope
    gap_se = math.hypot(om_full.stderr, om_factor.stderr)
    expo, label = convergence_diagnostic(full, om_full.slope, window)

    h = full.array()
    mult = 0.0
    for n in range(1, full.n_max + 1):
        for m in range(1, full.n_max + 1 - n):
            if h[n] > 0 and h[m] > 0:
                mult = max(mult, h[n + m] / (h[n] * h[m]))
    return GapReport(spec, r, side, om_full, om_factor, gap, gap_se,
                     expo, label, mult, full, factor)
