"""The structured engines of `green_truncated` and `h_series`: bit pins of
their outputs, and sphere sums checked against Green values summed over
BFS spheres."""

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from greengrowth.groups import (
    DiestelLeader, FreeAbelian, RegularTree, TreeProduct, group_for,
)
from greengrowth.growth import h_series
from greengrowth.kernels import (
    class_engine, green_truncated, standard_measure,
)

# (spec, measure parameters, r, n_max of the series)
CASES = {
    "T4-0.5": (RegularTree(4), {}, 0.5, 30),
    "T4-1.0": (RegularTree(4), {}, 1.0, 30),
    "T4-1.05": (RegularTree(4), {}, 1.05, 30),
    "TP64-0.1": (TreeProduct(6, 4), {}, 0.1, 30),
    "TP64-0.9": (TreeProduct(6, 4), {}, 0.9, 30),
    "TP64-1.03": (TreeProduct(6, 4), {}, 1.03, 30),
    "TP64-r0": (TreeProduct(6, 4), {}, 1.1001627, 200),
    "TP43-1.0": (TreeProduct(4, 3), {"a1": Fraction(1, 3)}, 1.0, 30),
    "Z3-0.5": (FreeAbelian(3), {}, 0.5, 30),
    "Z3-0.9": (FreeAbelian(3), {}, 0.9, 30),
    "Z3-1.0": (FreeAbelian(3), {}, 1.0, 30),
    "Z2-0.9": (FreeAbelian(2), {"alpha": Fraction(1, 4)}, 0.9, 30),
    "DL3-0.5": (DiestelLeader(3), {}, 0.5, 10),
    "DL3-1.0": (DiestelLeader(3), {}, 1.0, 10),
    "DL2-0.7": (DiestelLeader(2), {}, 0.7, 10),
}

# Green targets: the first TARGETS_PER_LAYER elements of each BFS layer of
# the ball of radius TARGET_RADIUS
TARGET_RADIUS = 4
TARGETS_PER_LAYER = 15


def _digest(values, dtype) -> str:
    return hashlib.sha256(np.array(values, dtype).tobytes()).hexdigest()[:16]


def _digests(name):
    """sha256 prefixes of the series' value, tail and rigorous columns,
    then of the Green values, n_terms, tails and rigorous flags."""
    spec, params, r, n_max = CASES[name]
    measure = standard_measure(spec, **params)
    series = h_series(spec, measure, r, n_max)
    entries = [series.values[n] for n in range(n_max + 1)]
    layers = group_for(spec).ball(TARGET_RADIUS)
    targets = [x for layer in layers for x in layer[:TARGETS_PER_LAYER]]
    green = green_truncated(measure, targets, r)
    estimates = [green[x] for x in targets]
    return (_digest([e.value for e in entries], float),
            _digest([e.tail for e in entries], float),
            _digest([e.rigorous for e in entries], bool),
            _digest([e.value for e in estimates], float),
            _digest([e.n_terms for e in estimates], np.int64),
            _digest([e.tail for e in estimates], float),
            _digest([e.rigorous for e in estimates], bool))


# frozen under numpy 2.4 and scipy 1.17 on x86-64
GOLDEN = {
    "DL2-0.7": (
        "c28b9d2697962133", "4891196faad35672", "7b0c710c832f5e2d",
        "c6f337d73819c982", "107d83b356cec4df", "ad6db8061a822ef9",
        "0692c63c7217f704",
    ),
    "DL3-0.5": (
        "8a27caf6c6663089", "9a71be82a53eb89f", "7b0c710c832f5e2d",
        "6138bf1c299383df", "9021f9b42681058b", "7a885b583773960c",
        "8d5f685f8572c75f",
    ),
    "DL3-1.0": (
        "888c67170be2aeb2", "dabc662a832070a2", "7b0c710c832f5e2d",
        "00fe082b14e6b34a", "9021f9b42681058b", "eca7dc7162da30df",
        "8d5f685f8572c75f",
    ),
    "T4-0.5": (
        "59feb28839f4105e", "b3ab6982980fddf4", "cc5f6cf32f361e9f",
        "8f12fcbceb9f5506", "56bc6d5c0d4743f3", "70d6aad73b9cfd0f",
        "349e988edf48a62e",
    ),
    "T4-1.0": (
        "5000556c2312c0d3", "b3ab6982980fddf4", "cc5f6cf32f361e9f",
        "03a6a12518a28305", "56bc6d5c0d4743f3", "70d6aad73b9cfd0f",
        "349e988edf48a62e",
    ),
    "T4-1.05": (
        "1054ca20d508981f", "b3ab6982980fddf4", "cc5f6cf32f361e9f",
        "e32672d7d83f911f", "56bc6d5c0d4743f3", "70d6aad73b9cfd0f",
        "349e988edf48a62e",
    ),
    "TP43-1.0": (
        "e995f8ab500b2976", "ecefb3fa7296c1c5", "cc5f6cf32f361e9f",
        "856640c73737c5e9", "842d4a2bef4008a4", "ebdc7886f86a0b89",
        "dbecfc3b2eb04779",
    ),
    "TP64-0.1": (
        "448baf6eea6f926f", "4ec27c7788f54b2a", "cc5f6cf32f361e9f",
        "977a2c46f5244472", "ad948f3d279d42ae", "5866d0b660fdea66",
        "51e14a913680f24c",
    ),
    "TP64-0.9": (
        "6b20073f7da876db", "78dfa78bb8ebd9c6", "cc5f6cf32f361e9f",
        "2551072042ee793a", "ad948f3d279d42ae", "8a9156267add49c9",
        "51e14a913680f24c",
    ),
    "TP64-1.03": (
        "34d5e2739dfb1dbd", "0cbe1dec94d30f06", "cc5f6cf32f361e9f",
        "b78d215ceb78ebb2", "ad948f3d279d42ae", "fff2eb830627c78a",
        "51e14a913680f24c",
    ),
    "TP64-r0": (
        "5e0c6d9545fb0a1f", "6b9165fe2b21af05", "e14e6efc585c2da5",
        "3888d44baa2bdb16", "ad948f3d279d42ae", "5f81d85af1310ff7",
        "51e14a913680f24c",
    ),
    "Z2-0.9": (
        "4288c75c1b0f226c", "aeb294dc3915cacf", "cc5f6cf32f361e9f",
        "7c04a63b74f47614", "1f34be94c0f63030", "f42644cb78e69725",
        "2432dbb70926df29",
    ),
    "Z3-0.5": (
        "e379595138ae0876", "8836e0581cef9182", "cc5f6cf32f361e9f",
        "9ab1942dfa07d5ed", "9021f9b42681058b", "4edc207f909df185",
        "8d5f685f8572c75f",
    ),
    "Z3-0.9": (
        "02d64d6669bbe91d", "8836e0581cef9182", "cc5f6cf32f361e9f",
        "33d80ba2782e6a1e", "9021f9b42681058b", "4edc207f909df185",
        "8d5f685f8572c75f",
    ),
    "Z3-1.0": (
        "456a6a7a7730e037", "a73abb7956900f9d", "fd08be957bda07dc",
        "b8d48d4ea2a876c2", "9021f9b42681058b", "667de5e777779d86",
        "7955cb2de90dd9ef",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_structured_engines_keep_their_bits(name):
    assert _digests(name) == GOLDEN[name]


# one walk per structured engine, with r where its tails are rigorous
BFS_CASES = [(RegularTree(4), {}, 1.0),
             (TreeProduct(4, 3), {"a1": Fraction(1, 3)}, 1.0),
             (FreeAbelian(3), {}, 0.9),
             (DiestelLeader(3), {}, 0.5)]


@pytest.mark.parametrize("spec,params,r", BFS_CASES)
def test_sphere_sums_are_green_values_summed_over_bfs_spheres(spec, params,
                                                              r):
    n_max = 4
    measure = standard_measure(spec, **params)
    g = group_for(spec)
    layers = g.ball(n_max)
    engine = class_engine(measure)
    # the engine's sphere classes count what the enumeration finds
    classes, row, mult = engine.spheres(spec, n_max)
    listed = Counter()
    for c, n, m in zip(classes.tolist(), row.tolist(), mult.tolist()):
        listed[n, tuple(c)] += m
    assert listed == Counter((n, engine.key(g, x))
                             for n, layer in enumerate(layers)
                             for x in layer)
    series = h_series(spec, measure, r, n_max)
    for n, layer in enumerate(layers):
        green = green_truncated(measure, layer, r).values()
        H = series.values[n]
        assert H.rigorous and all(e.rigorous for e in green)
        allowed = H.tail + sum(e.tail for e in green) + 1e-13 * H.value
        assert abs(H.value - sum(e.value for e in green)) <= allowed
