"""Sphere-summed Green series H_r(n) and derived growth statistics.

H_r(n) = sum over the word-metric sphere S_n of G(e, x | r).  Each group
in the catalog gets the cheapest correct engine:

* regular trees and tree products -- radial distance chains plus the
  closed-form sphere counts (rigorous tails below the convergence radius),
* Z^d                             -- Bessel-integral Green values summed
  over coordinate symmetry classes,
* Diestel-Leader                  -- sphere profile decomposition with the
  lamplighter range engine (heuristic tails, flagged),
* everything else                 -- one shared convolution sweep reduced
  per sphere, so the r-dependence is a cheap polynomial evaluation.

Also here: growth-rate estimation omega(r) by least-squares slope of
log H_r(n), partial Poincare sums, the Green-based distance
omega * |x| - log(G(e, x | r) / G(e, e | r)), and the parabolic-gap
report for free products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .groups import (
    DiestelLeader, Element, FreeAbelian, FreeProduct, GroupSpec,
    RegularTree, TreeProduct, dl_sphere_profiles,
)
from .kernels import (
    DEFAULT_SUPPORT_CAP, MEMO_SIZE, Measure, _geom_tail, _heuristic_tail,
    _pick_n, dl_class_key, dl_green_classes, green_truncated,
    standard_measure, tree_green_by_distance, tree_sphere_sizes,
    treeprod_green_by_distance, zd_lazy_green_batch,
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
# engines


def _h_tree(spec, measure, r, n_max, tol, max_terms):
    l = spec.l
    n_steps, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=800)
    G = tree_green_by_distance(l, r, n_steps, n_max)
    sizes = tree_sphere_sizes(l, n_max)
    per_elem = _geom_tail(r, rho, n_steps) if rigorous else float("nan")
    vals = {}
    for n in range(n_max + 1):
        tail = sizes[n] * per_elem if rigorous else float("nan")
        vals[n] = HEntry(float(sizes[n] * G[n]), tail, rigorous)
    return vals


def _h_treeprod(spec, measure, r, n_max, tol, max_terms):
    a1 = float(measure.param("a1"))
    n_steps, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=800)
    G = treeprod_green_by_distance(spec.l1, spec.l2, a1, r, n_steps,
                                   n_max, n_max)
    s1 = tree_sphere_sizes(spec.l1, n_max)
    s2 = tree_sphere_sizes(spec.l2, n_max)
    per_elem = _geom_tail(r, rho, n_steps) if rigorous else float("nan")
    vals = {}
    for n in range(n_max + 1):
        total = 0.0
        count = 0.0
        for d1 in range(n + 1):
            d2 = n - d1
            total += s1[d1] * s2[d2] * G[d1, d2]
            count += s1[d1] * s2[d2]
        tail = count * per_elem if rigorous else float("nan")
        vals[n] = HEntry(total, tail, rigorous)
    return vals


def _zd_sphere_classes(d: int, n: int):
    """Sorted coordinate-magnitude classes of the l^1 sphere with counts."""
    def parts(rest, k, cap):
        if k == 1:
            if rest <= cap:
                yield (rest,)
            return
        for v in range(min(rest, cap), -1, -1):
            for tail in parts(rest - v, k - 1, v):
                yield (v,) + tail

    fact = math.factorial
    for cls in parts(n, d, n):
        mult = fact(d)
        for v in set(cls):
            mult //= fact(cls.count(v))
        signs = 2 ** sum(1 for v in cls if v)
        yield tuple(sorted(cls)), mult * signs


def _h_zd(spec, measure, r, n_max, tol):
    d = spec.d
    alpha = float(measure.param("alpha"))
    per_n = [list(_zd_sphere_classes(d, n)) for n in range(n_max + 1)]
    keys = [cls for row in per_n for cls, _ in row]
    green = zd_lazy_green_batch(d, alpha, keys, r)
    rigorous = r < 1.0
    vals = {}
    for n in range(n_max + 1):
        total = 0.0
        count = 0
        for cls, mult in per_n[n]:
            total += mult * green[cls]
            count += mult
        # zd values are converged integrals, not truncations; below r = 1
        # the quadrature error is dominated by this crude per-point bound
        vals[n] = HEntry(total, count * 1e-9 if rigorous else float("nan"),
                         rigorous)
    return vals


def _h_dl(spec, measure, r, n_max, tol, max_terms):
    q = spec.q
    per_n = []
    keys = set()
    for n in range(n_max + 1):
        row = [(dl_class_key(prof), count)
               for prof, _, count in dl_sphere_profiles(q, n)]
        per_n.append(row)
        keys.update(k for k, _ in row)
    n_steps = max_terms if max_terms is not None else 600
    green = dl_green_classes(q, sorted(keys), r, n_max=n_steps,
                             rel_tol=min(tol, 1e-9))
    vals = {}
    for n in range(n_max + 1):
        total = sum(count * green[k] for k, count in per_n[n])
        vals[n] = HEntry(total, float("nan"), False)
    return vals


def _h_generic(measure, r, n_max, tol, restriction, max_terms, support_cap):
    n_steps, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=40)
    coeffs, pruned = sphere_reduced_sweep(measure, n_max, n_steps,
                                          restriction, support_cap)
    rigorous = rigorous and not pruned and r < 1.0
    powers = r ** np.arange(n_steps + 1)
    vals = {}
    for n in range(n_max + 1):
        row = coeffs[n]
        total = float(row @ powers)
        if rigorous:
            # sum over a sphere of p_k(e, .) is at most 1 for every k
            tail = r ** (n_steps + 1) / (1.0 - r)
        else:
            tail = _heuristic_tail(list(row * powers))
        vals[n] = HEntry(total, tail, rigorous)
    return vals


def sphere_reduced_sweep(measure: Measure, n_max: int, n_steps: int,
                         restriction: Optional[Callable[[Element], bool]]
                         = None,
                         support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                         ) -> Tuple[np.ndarray, bool]:
    """Matrix S[n, k] = sum of p_k(e, x) over x in S_n (optionally
    restricted), from one convolution sweep.  H_r(n) is then the
    polynomial sum_k r^k S[n, k] for any r, which is what lets scans
    reuse a single sweep across a whole r-grid.

    Returns (S, pruned); pruned means the support cap dropped mass, so
    every entry is only a certified lower bound.  Unrestricted sweeps are
    memoized; a restriction closure never repeats, so those are not.
    """
    sweep = _sweep if restriction is not None else _memo_sweep
    return sweep(measure, n_max, n_steps, restriction, support_cap)


def _sweep(measure, n_max, n_steps, restriction, support_cap):
    from .kernels import convolve

    g = measure.group
    S = np.zeros((n_max + 1, n_steps + 1))
    dist = {g.identity(): 1.0}
    pruned = False
    lengths: Dict[Element, int] = {}

    def reduce_into(k):
        for x, px in dist.items():
            if x not in lengths:
                lengths[x] = g.word_length(x)
            n = lengths[x]
            if n <= n_max and (restriction is None or restriction(x)):
                S[n, k] += px

    reduce_into(0)
    for k in range(1, n_steps + 1):
        dist = convolve(dist, measure, mode="float",
                        support_cap=support_cap)
        if support_cap is not None and len(dist) >= support_cap:
            pruned = True
        reduce_into(k)
    return S, pruned


_memo_sweep = lru_cache(maxsize=MEMO_SIZE)(_sweep)


def h_series(spec: GroupSpec, measure: Optional[Measure] = None,
             r: float = 1.0, n_max: int = 20, tol: float = 1e-9,
             restriction: Optional[Callable[[Element], bool]] = None,
             restriction_label: Optional[str] = None,
             max_terms: Optional[int] = None,
             support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
             ) -> GrowthSeries:
    """Sphere-summed Green series H_r(n) for n = 0..n_max."""
    if measure is None:
        measure = standard_measure(spec)
    if r < 0:
        raise ValueError("r must be >= 0")
    kind = measure.kind
    if restriction is None:
        if isinstance(spec, RegularTree) and kind == "tree-lazy":
            vals = _h_tree(spec, measure, r, n_max, tol, max_terms)
        elif isinstance(spec, TreeProduct) and kind == "product-mix":
            vals = _h_treeprod(spec, measure, r, n_max, tol, max_terms)
        elif isinstance(spec, FreeAbelian) and kind == "lazy-srw" and r <= 1:
            vals = _h_zd(spec, measure, r, n_max, tol)
        elif isinstance(spec, DiestelLeader) and kind == "dl-srw":
            vals = _h_dl(spec, measure, r, n_max, tol, max_terms)
        else:
            vals = _h_generic(measure, r, n_max, tol, None, max_terms,
                              support_cap)
    else:
        vals = _h_generic(measure, r, n_max, tol, restriction, max_terms,
                          support_cap)
    return GrowthSeries(spec, r, vals, restriction_label)


# ---------------------------------------------------------------------------
# growth rate, Poincare sums, distances


def omega_estimate(series: GrowthSeries,
                   window: Optional[Tuple[int, int]] = None,
                   ) -> OmegaEstimate:
    """Least-squares slope of log H_r(n) on the window (default: top half)."""
    if window is None:
        window = ((series.n_max + 1) // 2, series.n_max)
    lo, hi = window
    if not (0 <= lo and hi <= series.n_max and hi - lo >= 5):
        raise ValueError("window must lie in the series with span >= 5")
    ns = np.arange(lo, hi + 1, dtype=float)
    vals = np.array([series.value(int(n)) for n in ns])
    if np.any(vals <= 0):
        raise ValueError("series must be positive on the window")
    y = np.log(vals)
    A = np.vstack([ns, np.ones_like(ns)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(ns) - 2
    if dof > 0 and res.size:
        sigma2 = res[0] / dof
        stderr = math.sqrt(sigma2 / np.sum((ns - ns.mean()) ** 2))
    else:
        stderr = 0.0
    return OmegaEstimate(float(coef[0]), (lo, hi), stderr)


def theta_partial(spec: GroupSpec, measure: Optional[Measure], r: float,
                  s: float, n_max: int, tol: float = 1e-9,
                  ) -> Tuple[float, List[float]]:
    """Partial Poincare sum sum_{n<=n_max} H_r(n) e^{-s n} and its terms."""
    series = h_series(spec, measure, r, n_max, tol)
    terms = [series.value(n) * math.exp(-s * n) for n in range(n_max + 1)]
    return float(sum(terms)), terms


@dataclass(frozen=True)
class DrDistance:
    value: float
    lower: float
    upper: float


def dr_distance(spec: GroupSpec, measure: Optional[Measure], r: float,
                x: Element, omega: float, tol: float = 1e-9) -> DrDistance:
    """omega * |x| - log(G(e, x | r) / G(e, e | r)), with the interval
    that the truncation tails allow."""
    if measure is None:
        measure = standard_measure(spec)
    g = measure.group
    e = g.identity()
    est = green_truncated(measure, [e, x], r, tol)
    ge, gx = est[e], est[x]
    if gx.value <= 0:
        raise ValueError("Green value vanished; element unreachable?")
    te = ge.tail if math.isfinite(ge.tail) else 0.0
    tx = gx.tail if math.isfinite(gx.tail) else 0.0
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


def convergence_diagnostic(series: GrowthSeries, omega: float,
                           window: Optional[Tuple[int, int]] = None,
                           ) -> Tuple[float, str]:
    """Fitted exponent of H_r(n) e^{-n omega} against log n.

    Exponent < -1 suggests a convergent-type Poincare series at s = omega;
    this is a finite-data heuristic, reported but never a proof.
    """
    if window is None:
        window = (max(1, (series.n_max + 1) // 2), series.n_max)
    lo, hi = max(window[0], 1), window[1]  # log n needs n >= 1
    ns = np.arange(lo, hi + 1, dtype=float)
    vals = np.array([series.value(int(n)) for n in ns])
    if np.any(vals <= 0):
        return float("nan"), "undetermined"
    y = np.log(vals) - omega * ns
    A = np.vstack([np.log(ns), np.ones_like(ns)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    expo = float(coef[0])
    return expo, ("convergent-type" if expo < -1.0 else "divergent-type")


def parabolic_gap_report(spec: FreeProduct, measure: Optional[Measure],
                         r: float, side: int, n_max: int,
                         tol: float = 1e-9,
                         max_terms: Optional[int] = None,
                         support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                         window: Optional[Tuple[int, int]] = None,
                         ) -> GapReport:
    """Growth rates of the full sphere series and of the series restricted
    to one free factor, their gap, and the convergence diagnostic.

    Under tight support caps the swept support cannot reach the outer
    spheres and the top entries of the series degrade to zero; pass an
    explicit fitting window over the trustworthy range in that case.
    """
    if not isinstance(spec, FreeProduct):
        raise ValueError("parabolic gap reports need a free product")
    if measure is None:
        measure = standard_measure(spec)
    g = measure.group

    def in_factor(a):
        return g.factor_part(side, a) is not None

    full = h_series(spec, measure, r, n_max, tol, max_terms=max_terms,
                    support_cap=support_cap)
    factor = h_series(spec, measure, r, n_max, tol, restriction=in_factor,
                      restriction_label=f"factor-{side}",
                      max_terms=max_terms, support_cap=support_cap)
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
