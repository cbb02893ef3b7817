"""Monte-Carlo branching random walk on catalog groups.

Every particle alive at time n dies giving birth to a random number of
children (offspring law on {1, 2, ...}), each of which makes one step of
the driving kernel from the parent's position.  Tracked quantities: the
deduplicated trace (set of visited elements), its sphere counts
M_n = #(visited, word length n), and for free products the induced
process of returns to a factor, whose empirical offspring mean estimates
the first-return mass t_{r,P}.

Randomness comes from a counter-based Philox generator keyed by
(seed, run index), so runs are reproducible individually and the
aggregate is independent of scheduling.  The population cap drops
children breadth-first (flagged); dropping can only shrink the trace, so
positive-growth conclusions survive truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .groups import Element, FreeProduct, GroupSpec
from .kernels import Measure, standard_measure


@dataclass(frozen=True)
class BrwConfig:
    offspring: Tuple[Tuple[int, Fraction], ...]
    max_generation: int
    population_cap: int
    seed: int
    runs: int

    def __post_init__(self):
        if not self.offspring:
            raise ValueError("offspring law must be non-empty")
        for k, w in self.offspring:
            if k < 1 or w < 0:
                raise ValueError("offspring support must be {1, 2, ...}")
        if sum(w for _, w in self.offspring) != 1:
            raise ValueError("offspring weights must sum to 1")
        if self.max_generation < 1 or self.population_cap < 1 or self.runs < 1:
            raise ValueError("budgets must be positive")

    @property
    def mean(self) -> Fraction:
        return sum(Fraction(k) * w for k, w in self.offspring)


def offspring_law(weights: Dict[int, object]) -> Tuple[Tuple[int, Fraction], ...]:
    """Normalize an offspring weight dict to the canonical sorted tuple."""
    items = tuple(sorted((int(k), Fraction(w)) for k, w in weights.items()))
    return items


def mean_offspring(r: float, spread: int = 2) -> Tuple[Tuple[int, Fraction], ...]:
    """Offspring law on {1, spread} with exact mean r (rational)."""
    rq = Fraction(r).limit_denominator(10 ** 9)
    if not (1 <= rq <= spread):
        raise ValueError(f"mean must lie in [1, {spread}]")
    p_hi = (rq - 1) / (spread - 1)
    return offspring_law({1: 1 - p_hi, spread: p_hi})


@dataclass(frozen=True)
class RunTrace:
    m_counts: np.ndarray
    population: np.ndarray
    visited_total: int
    truncated: bool


@dataclass(frozen=True)
class TraceSummary:
    spec: GroupSpec
    config: BrwConfig
    radius: int
    runs: List[RunTrace]
    growth_rates: np.ndarray  # (1/radius) log M_radius per run (-inf if 0)
    median: float
    quartiles: Tuple[float, float]
    fraction_positive: float


def _run_rng(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1),
                                                      run]))


def _law_table(pairs) -> Tuple[list, np.ndarray]:
    """Values and cumulative weights of a finite law, for inverse-CDF draws."""
    cum = np.cumsum([float(w) for _, w in pairs])
    cum[-1] = 1.0
    return [v for v, _ in pairs], cum


def _generation(parents, steps, offspring, cap, rng):
    """One generation's births: (parent, step) for each child kept under
    the population cap, in breadth-first order, and whether the cap
    dropped any.  Every offspring count and every step is drawn before
    the cap applies, so the random stream does not depend on the cap."""
    step_values, step_cum = steps
    off_values, off_cum = offspring
    counts = np.searchsorted(off_cum, rng.random(len(parents)), side="right")
    births = int(sum(off_values[c] for c in counts))
    drawn = np.searchsorted(step_cum, rng.random(births), side="right")
    kept = []
    j = 0
    for parent, c in zip(parents, counts):
        for _ in range(off_values[c]):
            if j == cap:
                return kept, True
            kept.append((parent, step_values[drawn[j]]))
            j += 1
    return kept, False


def _single_run(g, steps, offspring, config, rng):
    mul = g.multiply
    particles = [g.identity()]
    visited = set(particles)
    population = [1]
    truncated = False
    for _ in range(config.max_generation):
        kept, dropped = _generation(particles, steps, offspring,
                                    config.population_cap, rng)
        truncated |= dropped
        particles = [mul(x, s) for x, s in kept]
        visited.update(particles)
        population.append(len(particles))
    m = np.zeros(config.max_generation + 1, dtype=np.int64)
    for x in visited:
        n = g.word_length(x)
        if n <= config.max_generation:
            m[n] += 1
    return RunTrace(m, np.array(population), len(visited), truncated)


def simulate(spec: GroupSpec, measure: Optional[Measure], config: BrwConfig,
             radius: Optional[int] = None) -> TraceSummary:
    """Run the branching random walk `config.runs` times and aggregate
    trace growth at the given sphere radius (default: the largest radius
    where the median run still has visited elements)."""
    if measure is None:
        measure = standard_measure(spec)
    steps = _law_table(measure.weights)
    offspring = _law_table(config.offspring)
    runs = [_single_run(measure.group, steps, offspring, config,
                        _run_rng(config.seed, i))
            for i in range(config.runs)]
    if radius is None:
        med = np.median(np.array([t.m_counts for t in runs]), axis=0)
        nz = np.nonzero(med > 0)[0]
        radius = int(nz[-1]) if nz.size else 0
    if radius > config.max_generation:
        raise ValueError("radius exceeds max_generation")
    rates = np.array([
        (math.log(t.m_counts[radius]) / radius
         if t.m_counts[radius] > 0 and radius > 0 else -math.inf)
        for t in runs])
    finite = rates[np.isfinite(rates)]
    med = float(np.median(rates)) if finite.size == len(rates) else -math.inf
    q1, q3 = (np.percentile(finite, [25, 75]) if finite.size
              else (-math.inf, -math.inf))
    frac = float(np.mean(rates > 0))
    return TraceSummary(spec, config, radius, runs, rates, med,
                        (float(q1), float(q3)), frac)


# ---------------------------------------------------------------------------
# induced return process to a free-product factor


@dataclass(frozen=True)
class CosetReport:
    spec: GroupSpec
    config: BrwConfig
    side: int
    distinct_cosets: np.ndarray
    max_visits: np.ndarray
    offspring_means: np.ndarray
    estimate: float
    ci_halfwidth: float
    truncated_runs: int = 0


def _coset_key(g, side: int, x: Element):
    """Canonical representative of the coset x P, P the side factor."""
    if x and x[-1][0] == side:
        return x[:-1]
    return x


def coset_hits(spec: FreeProduct, measure: Optional[Measure],
               config: BrwConfig, side: int = 0) -> CosetReport:
    """Statistics of the induced branching process of returns to a factor.

    Per run: the number of distinct cosets gP visited, the largest number
    of distinct elements seen in one coset, and the empirical offspring
    mean of the collection process (first entries to P per progenitor in
    P) -- an estimator of the first-return mass t_{r,P}.  Children the
    population cap drops count neither as returns nor as visits;
    `truncated_runs` counts the runs in which the cap dropped any.
    """
    if not isinstance(spec, FreeProduct):
        raise ValueError("coset statistics need a free product")
    if measure is None:
        measure = standard_measure(spec)
    g = measure.group
    in_p = lambda x: g.factor_part(side, x) is not None
    steps = _law_table(measure.weights)
    offspring = _law_table(config.offspring)

    distinct, max_visits, means = [], [], []
    truncated_runs = 0
    for run in range(config.runs):
        rng = _run_rng(config.seed, run)
        # particle state: (position, progenitor id of nearest P-ancestor)
        particles = [(g.identity(), 0)]
        progenitors = 1
        returns = 0
        truncated = False
        coset_elems: Dict[Element, set] = {(): {g.identity()}}
        for _ in range(config.max_generation):
            kept, dropped = _generation(particles, steps, offspring,
                                        config.population_cap, rng)
            truncated |= dropped
            particles = []
            for (pos, prog), s in kept:
                y = g.multiply(pos, s)
                if in_p(y):
                    returns += 1
                    particles.append((y, progenitors))
                    progenitors += 1
                else:
                    particles.append((y, prog))
                coset_elems.setdefault(_coset_key(g, side, y), set()).add(y)
        truncated_runs += truncated
        distinct.append(len(coset_elems))
        max_visits.append(max(len(v) for v in coset_elems.values()))
        means.append(returns / progenitors)
    means = np.array(means, dtype=float)
    est = float(means.mean())
    ci = float(1.96 * means.std(ddof=1) / math.sqrt(len(means))
               if len(means) > 1 else math.inf)
    return CosetReport(spec, config, side, np.array(distinct),
                       np.array(max_visits), means, est, ci, truncated_runs)
