"""Branching random walk simulator: reproducibility and reductions."""

import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from greengrowth.brw import (
    BrwConfig, coset_hits, mean_offspring, offspring_law, simulate,
)
from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, Heisenberg3, RegularTree,
    TreeProduct, group_for,
)
from greengrowth.kernels import StepTable, standard_measure

BINARY = mean_offspring(2.0)
FP = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
INF = math.inf


def _recorded_multiplies(monkeypatch, spec):
    """(group, a, b) of every multiply call on spec's group class."""
    cls = type(group_for(spec))
    mul = cls.multiply
    calls = []

    def recorded(self, a, b):
        calls.append((self.spec, a, b))
        return mul(self, a, b)

    monkeypatch.setattr(cls, "multiply", recorded)
    return calls


def test_offspring_law_validation():
    with pytest.raises(ValueError):
        # extinction not allowed: support must be positive integers
        BrwConfig(offspring_law({0: Fraction(1)}), 5, 10, 0, 1)
    with pytest.raises(ValueError):
        # mass must sum to one
        BrwConfig(offspring_law({1: Fraction(1, 2)}), 5, 10, 0, 1)
    law = offspring_law({2: Fraction(1, 4), 1: Fraction(3, 4)})
    assert law == ((1, Fraction(3, 4)), (2, Fraction(1, 4)))


def test_mean_offspring_is_exact():
    law = mean_offspring(1.05)
    cfg = BrwConfig(law, 10, 100, 0, 1)
    assert cfg.mean == Fraction(21, 20)


def test_fixed_seed_determinism():
    import numpy as np

    cfg = BrwConfig(mean_offspring(1.1), 20, 500, seed=42, runs=5)
    a = simulate(RegularTree(4), None, cfg)
    b = simulate(RegularTree(4), None, cfg)
    for ta, tb in zip(a.runs, b.runs):
        assert np.array_equal(ta.m_counts, tb.m_counts)
        assert np.array_equal(ta.population, tb.population)
    assert np.array_equal(a.growth_rates, b.growth_rates)
    # a different seed gives a different trace
    c = simulate(RegularTree(4), None,
                 BrwConfig(mean_offspring(1.1), 20, 500, seed=43, runs=5))
    assert any(not np.array_equal(ta.m_counts, tc.m_counts)
               for ta, tc in zip(a.runs, c.runs))


def test_delta_one_reduces_to_single_path():
    cfg = BrwConfig(offspring_law({1: Fraction(1)}), 30, 100, seed=7, runs=3)
    out = simulate(RegularTree(4), None, cfg)
    for trace in out.runs:
        assert all(p == 1 for p in trace.population)
        assert not trace.truncated
        # a single walk path visits at most one new element per step
        assert sum(trace.m_counts) <= cfg.max_generation + 1


def test_population_cap_flags_truncation():
    cfg = BrwConfig(offspring_law({2: Fraction(1)}), 30, 64, seed=1, runs=1)
    out = simulate(RegularTree(4), None, cfg)
    trace = out.runs[0]
    assert trace.truncated
    assert max(trace.population) <= 64


def test_supercritical_growth_on_tree():
    cfg = BrwConfig(mean_offspring(1.05), 100, 8000, seed=12345, runs=10)
    out = simulate(RegularTree(4), None, cfg, radius=12)
    assert out.radius == 12
    assert out.fraction_positive >= 0.8


@pytest.mark.parametrize("radius", [-1, 21])
def test_simulate_refuses_radius_before_walking(monkeypatch, radius):
    calls = _recorded_multiplies(monkeypatch, RegularTree(4))
    cfg = BrwConfig(mean_offspring(1.5), 20, 100, seed=1, runs=2)
    with pytest.raises(ValueError, match="radius"):
        simulate(RegularTree(4), None, cfg, radius=radius)
    assert calls == []


def _recorded_tree_fills(monkeypatch):
    """(table, key) of every pair a `StepTable` fills on a tree's ids."""
    fill = StepTable._fill_tree
    pairs = []

    def recorded(self, keys):
        pairs.extend((self, k) for k in keys)
        return fill(self, keys)

    monkeypatch.setattr(StepTable, "_fill_tree", recorded)
    return pairs


@pytest.mark.parametrize("spec", [RegularTree(4), FreeAbelian(3),
                                  Heisenberg3(), DiestelLeader(3)])
def test_simulate_multiplies_each_drawn_pair_once(monkeypatch, spec):
    calls = _recorded_multiplies(monkeypatch, spec)
    filled = _recorded_tree_fills(monkeypatch)
    out = simulate(spec, None, BrwConfig(BINARY, 12, 300, seed=1, runs=3))
    children = sum(int(t.population[1:].sum()) for t in out.runs)
    # a tree is filled on ids, without a multiply; other groups multiply
    tree = isinstance(spec, RegularTree)
    pairs = filled if tree else calls
    assert pairs and not (calls if tree else filled)
    assert len(set(pairs)) == len(pairs)
    # a fill per child would take one per child
    assert len(pairs) < children / 2


def test_tree_product_walks_one_factor_at_a_time(monkeypatch):
    spec = TreeProduct(6, 4)
    product = _recorded_multiplies(monkeypatch, spec)
    # both factors are regular trees, so this records either factor
    factor = _recorded_multiplies(monkeypatch, RegularTree(6))
    filled = _recorded_tree_fills(monkeypatch)
    simulate(spec, None, BrwConfig(BINARY, 12, 300, seed=1, runs=3))
    assert product == [] and factor == []
    # one table per factor, each pair filled once
    assert len({table for table, _ in filled}) == 2
    assert len(set(filled)) == len(filled)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        BrwConfig(BINARY, 5, 100, seed, 1)


def test_seeds_past_2_63_get_their_own_streams():
    # the Philox key once went through float64: 2^63 and 2^63 + 1 shared a
    # stream, and 2^64 - 2 and 2^64 - 1 both got the key [0, 0]
    seeds = [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = [simulate(RegularTree(4), None,
                           BrwConfig(BINARY, 12, 300, seed, 1)).runs[0]
                  for seed in seeds]
    assert len({tuple(t.m_counts) for t in traces}) == len(seeds)


def test_coset_hits_multiplies_each_drawn_pair_once(monkeypatch):
    calls = _recorded_multiplies(monkeypatch, FP)
    coset_hits(FP, None, BrwConfig(BINARY, 10, 200, seed=1, runs=3))
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("side", [-1, 2])
def test_coset_hits_refuses_a_side_outside_the_product(monkeypatch, side):
    # factors[-1] is the right factor, so side -1 used to run and count
    # e alone as in P; side 2 failed with an IndexError mid-walk
    calls = _recorded_multiplies(monkeypatch, FP)
    m = standard_measure(FP, alpha=Fraction(1, 5))
    cfg = BrwConfig(mean_offspring(1.5), 10, 100, seed=1, runs=3)
    with pytest.raises(ValueError, match="side"):
        coset_hits(FP, m, cfg, side=side)
    assert not calls


def test_coset_hits_report():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    cfg = BrwConfig(offspring_law({1: Fraction(1)}), 40, 500, seed=99,
                    runs=50)
    rep = coset_hits(spec, None, cfg, side=1)
    assert len(rep.offspring_means) == 50
    assert 0.0 <= rep.estimate < 1.0
    assert rep.ci_halfwidth >= 0.0
    # one particle per generation never reaches the cap
    assert rep.truncated_runs == 0
    assert rep.estimate == pytest.approx(0.5832929292929293, rel=1e-12)


def test_coset_hits_flags_its_cap():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    cfg = BrwConfig(mean_offspring(2.0), 30, 500, seed=3, runs=2)
    assert coset_hits(spec, None, cfg).truncated_runs == cfg.runs
    # with cap 1 only one path survives, so a dropped child that still
    # counted would push the visits past one element per generation
    cfg = BrwConfig(offspring_law({8: Fraction(1)}), 30, 1, seed=3, runs=3)
    rep = coset_hits(spec, None, cfg)
    assert rep.truncated_runs == cfg.runs
    assert (rep.distinct_cosets <= cfg.max_generation + 1).all()
    assert (rep.max_visits <= cfg.max_generation + 1).all()


# ---------------------------------------------------------------------------
# golden outputs: every field of these runs is pinned, so a change to how
# the walk is stored must leave the random stream and the reductions alone

def _plain(x):
    """Every field of a BRW output as plain Python values, array dtypes
    and shapes included."""
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, _plain(x.tolist()))
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _plain(getattr(x, f.name)))
                     for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_plain(v) for v in x)
    if isinstance(x, np.generic):
        return x.item()
    return x


def _digest(out) -> str:
    return hashlib.sha256(repr(_plain(out)).encode()).hexdigest()


def _fields(out) -> dict:
    if hasattr(out, "runs"):
        return {
            "radius": out.radius,
            "m_counts": [t.m_counts.tolist() for t in out.runs],
            "population": [t.population.tolist() for t in out.runs],
            "visited_total": [t.visited_total for t in out.runs],
            "truncated": [t.truncated for t in out.runs],
            "growth_rates": out.growth_rates.tolist(),
            "median": out.median, "quartiles": out.quartiles,
            "fraction_positive": out.fraction_positive,
        }
    return {
        "distinct_cosets": out.distinct_cosets.tolist(),
        "max_visits": out.max_visits.tolist(),
        "offspring_means": out.offspring_means.tolist(),
        "estimate": out.estimate, "ci_halfwidth": out.ci_halfwidth,
        "truncated_runs": out.truncated_runs,
    }


# the benchmark's BRW calls: binary offspring, 30 generations, seed 1
LARGE = {
    "T4": (lambda: simulate(RegularTree(4), None,
                            BrwConfig(BINARY, 30, 2000, 1, 2), 12),
           "67e2e56caddfcff64620fd8064865dced2a64677aa6c4c8b5e9a432f542cbe91"),
    "(6,4)": (lambda: simulate(TreeProduct(6, 4), None,
                               BrwConfig(BINARY, 30, 2000, 1, 1)),
              "9c5a56811c5d5a19ce81bf5d4c2268db7e2daecd5545e28dac04144dcdb5e7e6"),
    "Z^3": (lambda: simulate(FreeAbelian(3), None,
                             BrwConfig(BINARY, 30, 4000, 1, 1)),
            "92d1a933a33d3ab44bedb09e925c7220fd7c46f49fad36fcdf18723dd90326d8"),
    "coset": (lambda: coset_hits(FP, standard_measure(FP, alpha=0.2),
                                 BrwConfig(BINARY, 30, 500, 1, 1), 0),
              "cb0bbbadaa8f8d4cd5acdcb7121981814fa7e4a415d2a2c8f42739196c4363bd"),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_benchmark_calls_are_pinned(name):
    call, digest = LARGE[name]
    assert _digest(call()) == digest


SMALL = {
    # the cap drops children from generation 7 on
    "cap 64": (
        lambda: simulate(RegularTree(4), None,
                         BrwConfig(offspring_law({2: 1}), 10, 64, 1, 2)),
        "91859ba7eb2d66d8dd365f7e6d715dbd420325d94b7f4a63f7a399d00008d302",
        {"radius": 8,
         "m_counts": [[1, 4, 9, 13, 17, 14, 11, 2, 0, 0, 0],
                      [1, 4, 8, 12, 14, 9, 8, 2, 1, 0, 0]],
         "population": [[1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64]] * 2,
         "visited_total": [71, 59], "truncated": [True, True],
         "growth_rates": [-INF, 0.0], "median": -INF,
         "quartiles": (0.0, 0.0), "fraction_positive": 0.0}),
    "3-point law": (
        lambda: simulate(FreeAbelian(2), None, BrwConfig(offspring_law(
            {1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 6)}),
            8, 500, 5, 3)),
        "2848ad5c665653dbcf7cddf22c4cbeab2edde23da4c08c6cb69ab490288b67eb",
        {"radius": 6,
         "m_counts": [[1, 4, 8, 7, 7, 4, 3, 0, 0], [1, 4, 8, 9, 7, 1, 2, 0, 0],
                      [1, 4, 8, 9, 5, 5, 1, 0, 0]],
         "population": [[1, 2, 2, 5, 12, 18, 25, 46, 78],
                        [1, 2, 4, 6, 12, 20, 34, 56, 92],
                        [1, 3, 7, 13, 17, 26, 43, 78, 134]],
         "visited_total": [34, 32, 33], "truncated": [False] * 3,
         "growth_rates": [0.18310204811135164, 0.11552453009332421, 0.0],
         "median": 0.11552453009332421,
         "quartiles": (0.057762265046662105, 0.14931328910233793),
         "fraction_positive": 0.6666666666666666}),
    "delta_1": (
        lambda: simulate(RegularTree(3), None,
                         BrwConfig(offspring_law({1: 1}), 10, 100, 7, 2)),
        "a00a42ae10d2f5174055c109099f4ce0cd8218a5e0463cf0d94eb9636de8b8c5",
        {"radius": 7,
         "m_counts": [[1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0],
                      [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]],
         "population": [[1] * 11] * 2,
         "visited_total": [8, 3], "truncated": [False, False],
         "growth_rates": [0.0, -INF], "median": -INF,
         "quartiles": (0.0, 0.0), "fraction_positive": 0.0}),
    "Heisenberg": (
        lambda: simulate(Heisenberg3(), None, BrwConfig(BINARY, 7, 200, 2, 2)),
        "54e4777d611641ede986dd2406f39da7ccf509e742100b53ef9baa5d52803d55",
        {"radius": 7,
         "m_counts": [[1, 3, 8, 14, 14, 10, 5, 1], [1, 3, 5, 13, 16, 10, 3, 0]],
         "population": [[1, 2, 4, 8, 16, 32, 64, 128]] * 2,
         "visited_total": [56, 51], "truncated": [False, False],
         "growth_rates": [0.0, -INF], "median": -INF,
         "quartiles": (0.0, 0.0), "fraction_positive": 0.0}),
    "DL(3)": (
        lambda: simulate(DiestelLeader(3), None,
                         BrwConfig(BINARY, 7, 200, 2, 2)),
        "1b2573524c739241630b2d7d99aaebb0314017d343068fbc7951b6cf8eefb70f",
        {"radius": 7,
         "m_counts": [[1, 4, 9, 23, 21, 38, 14, 19],
                      [1, 4, 10, 23, 24, 41, 20, 22]],
         "population": [[1, 2, 4, 8, 16, 32, 64, 128]] * 2,
         "visited_total": [129, 145], "truncated": [False, False],
         "growth_rates": [0.42063413988092, 0.44157749333690227],
         "median": 0.4311058166089111,
         "quartiles": (0.42586997824491557, 0.4363416549729067),
         "fraction_positive": 1.0}),
    "coset side 1": (
        lambda: coset_hits(FP, None, BrwConfig(mean_offspring(1.5), 12, 100,
                                               4, 3), side=1),
        "b257e63235388d0abdfd832bc1664a76dcecbcbf9574f576b7eaa46624be5291",
        {"distinct_cosets": [70, 92, 130], "max_visits": [11, 10, 27],
         "offspring_means": [0.9830508474576272, 0.9655172413793104, 0.95],
         "estimate": 0.966189362945646, "ci_halfwidth": 0.01871187408195131,
         "truncated_runs": 3}),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_runs_are_pinned(name):
    call, digest, fields = SMALL[name]
    out = call()
    assert _fields(out) == fields
    assert _digest(out) == digest


def test_a_measure_on_another_spec_is_refused():
    config = BrwConfig(BINARY, 5, 100, 0, 1)
    with pytest.raises(ValueError, match="the measure lives on"):
        simulate(RegularTree(3), standard_measure(RegularTree(4)), config)
    other = standard_measure(FreeProduct(TreeProduct(6, 4), FreeAbelian(3)))
    with pytest.raises(ValueError, match="the measure lives on"):
        coset_hits(FP, other, config)
