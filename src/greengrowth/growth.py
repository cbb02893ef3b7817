"""Sphere-summed Green series H_r(n) and derived growth statistics.

H_r(n) = sum over the word-metric sphere S_n of G(e, x | r).  Each group
in the catalog gets the cheapest correct engine:

* regular trees and tree products -- the closed-form tree resolvent (for
  a product, the two factor resolvents integrated over an ellipse by the
  trapezoid rule, with a proved per-sphere error bound) times the
  closed-form sphere counts,
* Z^d                             -- the Bessel-integral Green values of
  `kernels.zd_green_estimates` summed over coordinate symmetry classes,
  with the same error rule as `green_truncated`,
* Diestel-Leader                  -- sphere profile decomposition with the
  closed-form lamplighter range engine (proved range-cutoff tails,
  0 <= r <= 1),
* everything else                 -- the float step-sum core
  `kernels.step_sums` binned by word length, so the r-dependence is a
  cheap polynomial evaluation; the mass a support cap prunes enters every
  tail.  A parabolic-gap report reduces one sweep twice, over the whole
  spheres and over the factor.

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
    DEFAULT_SUPPORT_CAP, MEMO_SIZE, ZD_TAIL, Measure, _heuristic_tail,
    _pick_n, check_radius, dl_class_key, dl_class_tail, dl_green_classes,
    green_truncated, standard_measure, step_sums, tree_green_by_distance,
    tree_sphere_sizes, treeprod_error, treeprod_green_by_distance,
    zd_green_estimates,
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


def _h_tree(spec, r, n_max):
    H = tree_sphere_sizes(spec.l, n_max) * tree_green_by_distance(
        spec.l, r, n_max)
    return {n: HEntry(float(H[n]), 0.0, True) for n in range(n_max + 1)}


def _sphere_sums(W):
    """sum_{d1 + d2 = n} W[d1, d2] for n = 0..n_max, W square."""
    d = np.arange(len(W))
    return np.bincount(np.add.outer(d, d).ravel(), W.ravel())[: len(W)]


def _h_treeprod(spec, measure, r, n_max, tol):
    a1 = float(measure.param("a1"))
    # only the cells d1 + d2 <= n_max enter a sphere; the others overflow
    d = np.arange(n_max + 1)
    counts = np.multiply.outer(tree_sphere_sizes(spec.l1, n_max),
                               tree_sphere_sizes(spec.l2, n_max),
                               out=np.zeros((n_max + 1, n_max + 1)),
                               where=np.add.outer(d, d) <= n_max)
    n, tails = treeprod_error(spec.l1, spec.l2, a1, r, n_max, n_max, tol,
                              lambda E: _sphere_sums(counts * E))
    G = treeprod_green_by_distance(spec.l1, spec.l2, a1, r, n, n_max,
                                   n_max)
    H = _sphere_sums(counts * G)
    return {k: HEntry(float(H[k]), float(tails[k]), True)
            for k in range(n_max + 1)}


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
    green, tails, rigorous = zd_green_estimates(d, alpha, keys, r)
    vals = {}
    for n in range(n_max + 1):
        total = 0.0
        count = 0
        extra = 0.0
        for cls, mult in per_n[n]:
            total += mult * green[cls]
            count += mult
            extra += mult * tails[cls]
        vals[n] = HEntry(total, count * ZD_TAIL + extra, rigorous)
    return vals


def _h_dl(spec, measure, r, n_max, tol):
    q = spec.q
    rel_tol = min(tol, 1e-9)
    per_n = [[(dl_class_key(prof), count)
              for prof, _, count in dl_sphere_profiles(q, n)]
             for n in range(n_max + 1)]
    keys = sorted({k for row in per_n for k, _ in row})
    green = dl_green_classes(q, keys, r, rel_tol)
    vals = {}
    for n, row in enumerate(per_n):
        total = sum(count * green[k] for k, count in row)
        tail = sum(count * dl_class_tail(q, k[2] - k[1], r, rel_tol)
                   for k, count in row)
        vals[n] = HEntry(total, tail, True)
    return vals


def _h_generic(measure, r, n_max, tol, restrictions, max_terms, support_cap):
    """One series per restriction (None: the whole sphere), all reduced
    from one sweep."""
    n_steps, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=40)
    if len(restrictions) == 1:
        swept = sphere_reduced_sweep(measure, n_max, n_steps,
                                     restrictions[0], support_cap)
    else:
        swept = _sweep(measure, n_max, n_steps, restrictions, support_cap)
    *matrices, dropped = swept
    rigorous = rigorous and r < 1.0
    powers = r ** np.arange(n_steps + 1)
    # p_k(A) <= (pruned p_k)(A) + M_k for every set A
    pruned = float(dropped @ powers)
    out = []
    for S in matrices:
        vals = {}
        for n in range(n_max + 1):
            row = S[n]
            total = float(row @ powers)
            if rigorous:
                # sum over a sphere of p_k(e, .) is at most 1 for every k
                tail = r ** (n_steps + 1) / (1.0 - r)
            else:
                tail = _heuristic_tail(list(row * powers))
            vals[n] = HEntry(total, tail + pruned, rigorous)
        out.append(vals)
    return out


def sphere_reduced_sweep(measure: Measure, n_max: int, n_steps: int,
                         restriction: Optional[Callable[[Element], bool]]
                         = None,
                         support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Matrix S[n, k] = sum of p_k(e, x) over x in S_n (optionally
    restricted), from one `step_sums` sweep.  H_r(n) is then the
    polynomial sum_k r^k S[n, k] for any r, which is what lets scans
    reuse a single sweep across a whole r-grid.

    Returns (S, M): M[k] is the mass the support cap pruned by step k, so
    each S[n, k] is a lower bound within M[k] of the unpruned value.
    Unrestricted sweeps are memoized; a restriction closure never repeats,
    so those are not.
    """
    sweep = _sweep if restriction is not None else _memo_sweep
    return sweep(measure, n_max, n_steps, (restriction,), support_cap)


def _sweep(measure, n_max, n_steps, restrictions, support_cap):
    """The `step_sums` core binned by word length: the matrices S, one per
    restriction, then the pruned masses M."""
    return step_sums(measure, measure.group.word_length, n_max + 1, n_steps,
                     restrictions, support_cap)


_memo_sweep = lru_cache(maxsize=MEMO_SIZE)(_sweep)


def h_series(spec: GroupSpec, measure: Optional[Measure] = None,
             r: float = 1.0, n_max: int = 20, tol: float = 1e-9,
             restriction: Optional[Callable[[Element], bool]] = None,
             restriction_label: Optional[str] = None,
             max_terms: Optional[int] = None,
             support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
             ) -> GrowthSeries:
    """Sphere-summed Green series H_r(n) for n = 0..n_max.

    The tree, tree-product, Z^d and Diestel-Leader engines are not step
    sums and ignore max_terms.  The tree engine is a closed form (tail 0,
    0 <= r <= R); the tree-product engine picks its node count so that
    every sphere's proved tail is at most tol, and raises ValueError at
    r >= R or when that count would pass `kernels.MAX_NODES`.  The Z^d
    engine gives sphere n the tail |S_n| ZD_TAIL plus the multiplicity-
    weighted last kept local-CLT terms of `kernels.zd_green_estimates`
    (rigorous only where no such term is added, never at r = 1).  Every
    walk whose spectral radius rho is known in closed form raises
    ValueError at r > 1/rho.
    """
    if measure is None:
        measure = standard_measure(spec)
    check_radius(measure, r)
    kind = measure.kind
    if restriction is None:
        if isinstance(spec, RegularTree) and kind == "tree-lazy":
            vals = _h_tree(spec, r, n_max)
        elif isinstance(spec, TreeProduct) and kind == "product-mix":
            vals = _h_treeprod(spec, measure, r, n_max, tol)
        elif isinstance(spec, FreeAbelian) and kind == "lazy-srw":
            vals = _h_zd(spec, measure, r, n_max, tol)
        elif isinstance(spec, DiestelLeader) and kind == "dl-srw":
            vals = _h_dl(spec, measure, r, n_max, tol)
        else:
            vals, = _h_generic(measure, r, n_max, tol, (None,), max_terms,
                               support_cap)
    else:
        vals, = _h_generic(measure, r, n_max, tol, (restriction,), max_terms,
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

    check_radius(measure, r)
    # one sweep, reduced over the whole spheres and over the factor
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
