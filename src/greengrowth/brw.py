"""Monte-Carlo branching random walk on catalog groups.

Every particle alive at time n dies giving birth to a random number of
children (offspring law on {1, 2, ...}), each of which makes one step of
the driving kernel from the parent's position.  Tracked quantities: the
deduplicated trace (set of visited elements), its sphere counts
M_n = #(visited, word length n), and for free products the induced
process of returns to a factor, whose empirical offspring mean estimates
the first-return mass t_{r,P}.

State.  Particles are int ids of elements interned in a
`kernels.StepTable` over the kernel's steps, shared by the runs of one
call, so the product of an element and a step is computed once, the
first time a child draws that pair: on a tree from the ids alone (the
parent, or a new child), on any other group by one multiply.  A
generation is array work on ids: `np.repeat` of the parents by their
offspring counts, then one table read for the drawn steps.  A product
of trees is walked one factor at a time: one table per factor over that
factor's step components (a component equal to the identity keeps the
id), visited states told apart as id pairs, and the word length the sum
of the factor lengths.  Every other group is a walk of one coordinate on
the same code.  The visited states are deduplicated by a mask over the
ids, or by sorting the id pairs.  On a tree a word length is the id's
depth, kept by the table; other per-element values are computed once
per element.

Randomness comes from a counter-based Philox generator keyed by the
uint64 pair (seed, run index), seed in [0, 2^64), so runs are
reproducible individually and the aggregate is independent of
scheduling.  Each generation draws its offspring counts, then one step
per birth, before the population cap applies, so the random stream does
not depend on the cap or on how the state is stored.  The cap drops
children breadth-first (flagged); dropping can only shrink the trace, so
positive-growth conclusions survive truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .groups import Element, FreeProduct, GroupSpec, TreeProduct
from .kernels import Measure, StepTable, _measure_on, _sorted_distinct


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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")

    @property
    def mean(self) -> Fraction:
        return sum(Fraction(k) * w for k, w in self.offspring)


def offspring_law(weights: Dict[int, object]) -> Tuple[Tuple[int, Fraction], ...]:
    """Normalize an offspring weight dict to the canonical sorted tuple."""
    items = tuple(sorted((int(k), Fraction(w)) for k, w in weights.items()))
    return items


def mean_offspring(r: float) -> Tuple[Tuple[int, Fraction], ...]:
    """Offspring law on {1, 2} with exact mean r (rational): two children
    with probability r - 1."""
    if not math.isfinite(r):
        raise ValueError(f"mean must lie in [1, 2], got {r}")
    rq = Fraction(r).limit_denominator(10 ** 9)
    if not (1 <= rq <= 2):
        raise ValueError("mean must lie in [1, 2]")
    return offspring_law({1: 2 - rq, 2: rq - 1})


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
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, run], np.uint64)))


def _cumulative(pairs) -> np.ndarray:
    """Cumulative weights of a finite law, for inverse-CDF draws."""
    cum = np.cumsum([float(w) for _, w in pairs])
    cum[-1] = 1.0
    return cum


class _Walk:
    """The branching random walk of one measure and offspring law.

    A state is one id per coordinate: two for a product of trees (one per
    factor), one for every other group.  Each coordinate has its
    `StepTable` over the distinct components of the steps, and
    `cols[k][j]` is the table column of step j's component in coordinate
    k.
    """

    def __init__(self, measure: Measure, config: BrwConfig):
        g = measure.group
        steps = [s for s, _ in measure.weights]
        if isinstance(measure.spec, TreeProduct):
            parts = [(g.g1, [s[0] for s in steps]),
                     (g.g2, [s[1] for s in steps])]
        else:
            parts = [(g, steps)]
        self.tables, self.cols = [], []
        for group, comps in parts:
            distinct = list(dict.fromkeys(comps))
            self.tables.append(StepTable(group, distinct, [group.identity()]))
            self.cols.append(np.array([distinct.index(c) for c in comps]))
        self.step_cum = _cumulative(measure.weights)
        self.kids = np.array([k for k, _ in config.offspring])
        self.kids_cum = _cumulative(config.offspring)
        self.config = config

    def run(self, index: int) -> Tuple[List[List[np.ndarray]], bool]:
        """Run `index` from e: the particles of generations
        0..max_generation, each as one id array per coordinate, and
        whether the cap dropped any child.  Offspring counts and every
        birth's step are drawn before the cap applies."""
        rng = _run_rng(self.config.seed, index)
        cap = self.config.population_cap
        kids, kids_cum, step_cum = self.kids, self.kids_cum, self.step_cum
        particles = [np.zeros(1, np.int32) for _ in self.tables]
        generations = [particles]
        truncated = False
        for _ in range(self.config.max_generation):
            counts = kids[kids_cum.searchsorted(rng.random(len(particles[0])),
                                                side="right")]
            parents = [ids.repeat(counts) for ids in particles]
            births = len(parents[0])
            drawn = step_cum.searchsorted(rng.random(births),
                                          side="right")[:cap]
            truncated |= births > cap
            particles = [table.at(ids[:cap], col[drawn]) for table, col, ids
                         in zip(self.tables, self.cols, parents)]
            generations.append(particles)
        return generations, truncated

    def visited(self, generations: List[List[np.ndarray]]
                ) -> List[np.ndarray]:
        """The distinct states among the generations, one id array per
        coordinate, in increasing order: one id is marked in a mask over
        the table, a pair is told apart by the sorted key id1 * n2 + id2."""
        ids = [np.concatenate([gen[k] for gen in generations])
               for k in range(len(self.tables))]
        if len(ids) == 1:
            seen = np.zeros(len(self.tables[0].elements), bool)
            seen[ids[0]] = True
            return [np.flatnonzero(seen)]
        n2 = len(self.tables[1].elements)
        return list(np.divmod(
            _sorted_distinct(ids[0].astype(np.int64) * n2 + ids[1]), n2))

    def word_length(self, ids: List[np.ndarray]) -> np.ndarray:
        return sum(t.word_length(i) for t, i in zip(self.tables, ids))


def simulate(spec: GroupSpec, measure: Optional[Measure], config: BrwConfig,
             radius: Optional[int] = None) -> TraceSummary:
    """Run the branching random walk `config.runs` times and aggregate
    trace growth at the given sphere radius (default: the largest radius
    where the median run still has visited elements)."""
    if radius is not None and not 0 <= radius <= config.max_generation:
        raise ValueError(f"radius {radius} outside 0..max_generation "
                         f"({config.max_generation})")
    measure = _measure_on(spec, measure)
    walk = _Walk(measure, config)
    n_bins = config.max_generation + 1
    runs = []
    for i in range(config.runs):
        generations, truncated = walk.run(i)
        visited = walk.visited(generations)
        m = np.bincount(walk.word_length(visited), minlength=n_bins)[:n_bins]
        runs.append(RunTrace(m, np.array([len(gen[0]) for gen in generations]),
                             len(visited[0]), truncated))
    if radius is None:
        med = np.median(np.array([t.m_counts for t in runs]), axis=0)
        nz = np.nonzero(med > 0)[0]
        radius = int(nz[-1]) if nz.size else 0
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


def _coset_key(side: int, x: Element):
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
    P) -- an estimator of the first-return mass t_{r,P}.  Every return
    founds a progenitor, and so does e, so a run with k returns has mean
    k / (1 + k).  Children the population cap drops count neither as
    returns nor as visits; `truncated_runs` counts the runs in which the
    cap dropped any.
    """
    if not isinstance(spec, FreeProduct):
        raise ValueError("coset statistics need a free product")
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    measure = _measure_on(spec, measure)
    g = measure.group
    walk = _Walk(measure, config)
    table = walk.tables[0]
    cosets: Dict[Element, int] = {}

    def in_p(x):
        return g.factor_part(side, x) is not None

    def coset_id(x):
        return cosets.setdefault(_coset_key(side, x), len(cosets))

    distinct, max_visits, means = [], [], []
    truncated_runs = 0
    for run in range(config.runs):
        generations, truncated = walk.run(run)
        truncated_runs += truncated
        (visited,) = walk.visited(generations)
        per_coset = np.bincount(table.values(coset_id, visited))
        distinct.append(int(np.count_nonzero(per_coset)))
        max_visits.append(int(per_coset.max()))
        children = np.concatenate([gen[0] for gen in generations[1:]])
        returns = int(np.count_nonzero(table.values(in_p, children, bool)))
        means.append(returns / (1 + returns))
    means = np.array(means, dtype=float)
    est = float(means.mean())
    ci = float(1.96 * means.std(ddof=1) / math.sqrt(len(means))
               if len(means) > 1 else math.inf)
    return CosetReport(spec, config, side, np.array(distinct),
                       np.array(max_visits), means, est, ci, truncated_runs)
