"""Branching random walk simulator: reproducibility and reductions."""

from fractions import Fraction

import pytest

from greengrowth.brw import (
    BrwConfig, coset_hits, mean_offspring, offspring_law, simulate,
)
from greengrowth.groups import FreeAbelian, FreeProduct, RegularTree, TreeProduct


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
