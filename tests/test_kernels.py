"""Green-function engines and first-return machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from greengrowth import kernels
from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeGroup, FreeProduct, Heisenberg3,
    RegularTree, TreeProduct, dl_sphere_profiles, group_for, orbit,
)
from greengrowth.growth import h_series, sphere_reduced_sweep
from greengrowth.kernels import (
    FloatWalk, Measure, StepTable, _green_generic, class_engine, convolve,
    dl_class_key,
    dl_green_classes, first_return_coefficients, first_return_kernel,
    green_truncated, known_spectral_radius, return_probability,
    spectral_radius_lower, standard_measure, step_sums,
    tree_distance_law, tree_green_by_distance, tree_sphere_sizes,
    treeprod_green_by_distance,
    zd_lazy_green, zd_lazy_green_batch,
)
from greengrowth.trees import tree_closed_form


def test_standard_measures_are_probability_measures():
    for spec in (FreeAbelian(3), RegularTree(4), TreeProduct(4, 3),
                 DiestelLeader(2),
                 FreeProduct(TreeProduct(4, 4), FreeAbelian(3))):
        m = standard_measure(spec)
        total = sum(w for _, w in m.weights)
        assert total == Fraction(1)
        assert all(w > 0 for _, w in m.weights)


def _geometric_steps(x, tail):
    """An N with sum_{n > N} x^n = x^(N+1) / (1 - x) <= tail."""
    return math.ceil(math.log(tail * (1.0 - x)) / math.log(x))


def _tree_chain_green(l, r, d_max, tail=1e-13):
    """G(e, x | r) at |x| = 0..d_max from the stepped distance chain: a
    lower bound, and p_n(e, x) <= rho^n bounds what it leaves out by
    `tail`.  The reference for the closed-form tree engine."""
    n = _geometric_steps(r * tree_closed_form(l, 1.0).rho, tail)
    return (r ** np.arange(n + 1) @ tree_distance_law(l, n, d_max)
            / tree_sphere_sizes(l, d_max))


@pytest.mark.parametrize("l,r", [(4, 0.8), (4, 1.0), (6, 0.9)])
def test_tree_chain_matches_closed_form(l, r):
    tail = 1e-13
    chain = _tree_chain_green(l, r, 6, tail)
    G = tree_green_by_distance(l, r, 6)
    assert np.all(chain <= G * (1 + 1e-13))
    assert np.all(G - chain <= tail + 1e-13 * G)


def test_tree_sphere_sizes():
    sizes = tree_sphere_sizes(4, 5)
    assert list(sizes) == [1, 4, 12, 36, 108, 324]


def _treeprod_2d_chain(l1, l2, a1, r, n_max, d_max):
    """Truncated tree-product Green function from the product-mix walk
    stepped on the joint distance lattice (d1, d2)."""
    def step(l, V):  # lazy tree walk on the distance, along axis 0
        out = 0.5 * V
        out[:-1] += V[1:] / (2 * l)
        out[1] += 0.5 * V[0]
        out[2:] += V[1:-1] * ((l - 1) / (2 * l))
        return out

    V = np.zeros((n_max + 2, n_max + 2))
    V[0, 0] = 1.0
    acc = V[: d_max + 1, : d_max + 1].copy()
    for n in range(1, n_max + 1):
        V = a1 * step(l1, V) + (1 - a1) * step(l2, V.T).T
        acc += r ** n * V[: d_max + 1, : d_max + 1]
    sizes = [[1.0] + [l * (l - 1.0) ** (d - 1) for d in range(1, d_max + 1)]
             for l in (l1, l2)]
    return acc / np.outer(*sizes)


def _word(d):
    return tuple(i % 2 for i in range(d))


def _treeprod_rho(l1, l2, a1):
    return a1 * tree_closed_form(l1, 1.0).rho + (1 - a1) * tree_closed_form(
        l2, 1.0).rho


def test_treeprod_engine_matches_2d_distance_chain():
    l1, l2, a1, r = 6, 4, 0.5, 1.03
    m = standard_measure(TreeProduct(l1, l2))
    xs = [(_word(d1), _word(d2)) for d1 in range(9) for d2 in range(9)]
    got = green_truncated(m, xs, r)
    chain_tail = 1e-13
    n = _geometric_steps(r * _treeprod_rho(l1, l2, a1), chain_tail)
    ref = _treeprod_2d_chain(l1, l2, a1, r, n, 8)
    for x in xs:
        assert got[x].n_terms == -1 and got[x].rigorous
        assert got[x].tail <= 1e-9
        expected = ref[len(x[0]), len(x[1])]
        assert abs(got[x].value - expected) <= (
            got[x].tail + chain_tail + 1e-12 * expected)


def _exact_green_series(m, xs, r, n_terms):
    """sum_{k <= n_terms} r^k p_k(e, x) for each x in exact rationals: the
    dict loop of `convolve`, unpruned, iterated from e (r a Fraction)."""
    dist = {m.group.identity(): Fraction(1)}
    acc = dict.fromkeys(xs, Fraction(0))
    for k in range(n_terms + 1):
        if k:
            dist = convolve(dist, m, support_cap=None)
        for x in xs:
            acc[x] += r ** k * dist.get(x, 0)
    return acc


def test_treeprod_engine_matches_exact_sweep():
    # l1 != l2 and a1 != 1/2, so swapping the factors or their weights
    # fails; at r = 0.1 the ten exact terms leave a tail below 1e-11
    m = standard_measure(TreeProduct(4, 3), a1=Fraction(1, 3))
    r = 0.1
    xs = [((), ()), ((0,), ()), ((), (0,)), ((0, 1), (2,)), ((1,), (0, 1, 0))]
    exact = _exact_green_series(m, xs, Fraction(1, 10), 10)
    x = r * _treeprod_rho(4, 3, 1 / 3)
    exact_tail = x ** 11 / (1 - x)
    assert exact_tail < 1e-11
    fast = green_truncated(m, xs, r, tol=1e-14)
    for y in xs:
        assert fast[y].n_terms == -1
        assert fast[y].tail <= 1e-14
        diff = fast[y].value - float(exact[y])
        assert -fast[y].tail - 1e-15 <= diff
        assert diff <= exact_tail + fast[y].tail + 1e-15


def test_treeprod_engine_at_r_zero_is_delta():
    m = standard_measure(TreeProduct(4, 3))
    xs = [((), ()), ((0,), ()), ((1, 0), (2,))]
    got = green_truncated(m, xs, 0.0)
    assert [got[x].value for x in xs] == [1.0, 0.0, 0.0]
    assert all(got[x].tail == 0.0 and got[x].rigorous for x in xs)
    assert treeprod_green_by_distance(4, 3, 0.5, 0.0, 0, 2, 2).tolist() == [
        [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    series = h_series(TreeProduct(4, 3), r=0.0, n_max=4)
    assert list(series.array()) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert all(series.values[n].tail == 0.0 for n in range(5))


def test_treeprod_green_satisfies_resolvent_identity():
    # G(x) = delta(x) + r sum_s mu(s) G(xs) holds exactly, so the residual
    # of the computed values is within their tails (and rounding)
    spec = TreeProduct(6, 4)
    m = standard_measure(spec)
    g = m.group
    r = 1.08
    xs = [((), ()), ((0,), ()), ((), (3,)), ((0, 1), (2, 1, 0))]
    targets = xs + [g.multiply(x, s) for x in xs for s, _ in m.weights]
    G = green_truncated(m, targets, r)
    assert all(G[y].n_terms == -1 and G[y].rigorous for y in targets)
    for x in xs:
        rhs = (x == g.identity()) + r * sum(
            float(w) * G[g.multiply(x, s)].value for s, w in m.weights)
        allowed = G[x].tail + r * sum(
            float(w) * G[g.multiply(x, s)].tail for s, w in m.weights)
        assert abs(G[x].value - rhs) <= allowed + 1e-13 * G[x].value


def _treeprod_circle_by_resolvent(l1, l2, a1, r, rho):
    """`kernels._treeprod_circle` on one radius, with its second factor
    read from `tree_resolvent`'s 0-d arrays: the reference the array form
    keeps the bits of."""
    c1 = kernels._tree_c(l1)
    k = math.sqrt(l1 - 1)
    L1 = (k / l1) * (rho * rho - 1.0 / (l1 - 1)) / rho
    big = max(rho, 1.0 / rho)
    w2 = kernels._treeprod_w2(
        a1, r, r / 4 + (r * a1 * c1 / 4) * (big + 1.0 / big))
    res = kernels.tree_resolvent(l2, w2, 1)
    A = c1 * (rho + 1.0 / rho) * res[0] / (r * (1.0 - a1) * L1)
    return A, 1.0 / (k * rho), res[1] / res[0]


@pytest.mark.parametrize("l1,l2,a1", [(4, 4, 0.5), (6, 4, 0.5),
                                      (4, 3, 1 / 3)])
def test_treeprod_bound_circles_keep_the_bits_of_the_resolvent(l1, l2, a1):
    R = 1.0 / kernels.treeprod_rho(l1, l2, a1)
    for r in (1e-3 * R, 0.1 * R, 0.5 * R, 0.9 * R, 0.999 * R,
              R * (1 - 1e-9)):
        rho0, rho_in, rho_out = kernels._treeprod_contour(l1, l2, a1, r)
        rhos = [rho0 * (edge / rho0) ** t for edge in (rho_out, rho_in)
                for t in kernels._BOUND_FRACTIONS]
        circles = kernels._treeprod_circle(l1, l2, a1, r, np.array(rhos))
        for i, rho in enumerate(rhos):
            assert (tuple(v[i] for v in circles)
                    == _treeprod_circle_by_resolvent(l1, l2, a1, r, rho))


def test_treeprod_error_restores_numpy_error_state():
    def reduce(E):
        return E.ravel()  # every element its own row

    R = 1.0 / kernels.treeprod_rho(4, 4, 0.5)
    for state in ({}, {"all": "raise"}):
        with np.errstate(**state):
            before = np.geterr()
            kernels.treeprod_error(4, 4, 0.5, 0.5 * R, 0, 0, 1e-9, reduce)
            assert np.geterr() == before
            with pytest.raises(ValueError, match="MAX_NODES"):
                kernels.treeprod_error(4, 4, 0.5, R * (1 - 1e-9), 0, 0,
                                       1e-9, reduce)
            assert np.geterr() == before


def _treeprod_mixed_chain(l1, l2, a1, r, n_max, d_max):
    """Truncated sums over |x1| = d1, |x2| = d2 of G(e, x | r): the
    product-mix walk gives k of k + m <= n_max steps to the first factor
    with weight C(k + m, k) a1^k a2^m, and each factor steps its own
    distance chain."""
    B = np.zeros((n_max + 1, n_max + 1))
    b = np.ones(1)
    for n in range(n_max + 1):
        B[np.arange(n + 1), n - np.arange(n + 1)] = b * r ** n
        b = np.append((1 - a1) * b, 0.0) + np.insert(a1 * b, 0, 0.0)
    return (tree_distance_law(l1, n_max, d_max).T @ B
            @ tree_distance_law(l2, n_max, d_max))


def test_series_tails_bound_the_error():
    # references run until |S_n| (r rho)^(N+1) / (1 - r rho) <= 1e-13
    chain_tail = 1e-13
    n_max = 30
    d = np.arange(n_max + 1)

    def sphere_sums(W):
        return np.bincount(np.add.outer(d, d).ravel(), W.ravel())[: n_max + 1]

    cases = []
    # a1 != 1/2 and l1 != l2 in the second product, so swapping fails
    for l1, l2, a1, r in ((6, 4, Fraction(1, 2), 1.03),
                          (4, 3, Fraction(1, 3), 1.0)):
        spec = TreeProduct(l1, l2)
        series = h_series(spec, standard_measure(spec, a1=a1), r, n_max)
        size = sphere_sums(np.outer(tree_sphere_sizes(l1, n_max),
                                    tree_sphere_sizes(l2, n_max)))
        x = r * _treeprod_rho(l1, l2, float(a1))
        n = _geometric_steps(x, chain_tail / size.max())
        cases.append((series, sphere_sums(
            _treeprod_mixed_chain(l1, l2, float(a1), r, n, n_max))))

    tree = h_series(RegularTree(4), r=1.05, n_max=n_max)
    size = tree_sphere_sizes(4, n_max)
    x = 1.05 * tree_closed_form(4, 1.05).rho
    n = _geometric_steps(x, chain_tail / size.max())
    cases.append((tree, 1.05 ** np.arange(n + 1)
                  @ tree_distance_law(4, n, n_max)))

    for s, ref in cases:
        for k in range(n_max + 1):
            e = s.values[k]
            assert e.rigorous and e.tail <= 1e-9
            assert abs(e.value - ref[k]) <= (e.tail + chain_tail
                                             + 1e-12 * e.value)


def test_engines_refuse_bad_radii():
    tp = TreeProduct(6, 4)
    m_tp = standard_measure(tp)
    m_tree = standard_measure(RegularTree(4))
    R_tp = 1.0 / _treeprod_rho(6, 4, 0.5)
    R_tree = tree_closed_form(4, 1.0).R
    e_tp, e_tree = m_tp.group.identity(), m_tree.group.identity()
    for r in (-0.1, float("nan"), R_tree * (1 + 1e-9)):
        with pytest.raises(ValueError):
            green_truncated(m_tree, [e_tree], r)
        with pytest.raises(ValueError):
            h_series(RegularTree(4), r=r, n_max=4)
    # the tree series converges at R, the tree-product rule needs r < R
    assert h_series(RegularTree(4), r=R_tree, n_max=4).values[4].rigorous
    for r in (-0.1, float("nan"), R_tp):
        with pytest.raises(ValueError):
            green_truncated(m_tp, [e_tp], r)
        with pytest.raises(ValueError):
            h_series(tp, r=r, n_max=4)
    # just below R the node count for tol passes MAX_NODES
    with pytest.raises(ValueError, match="MAX_NODES"):
        h_series(tp, r=R_tp * (1 - 1e-9), n_max=4)
    with pytest.raises(ValueError, match="MAX_NODES"):
        green_truncated(m_tp, [e_tp], R_tp * (1 - 1e-9))


def test_amenable_walks_refuse_r_beyond_one():
    # rho = 1 is known in closed form for Z^d and the Heisenberg group, so
    # r > 1 raises at once instead of summing a divergent series
    for spec in (FreeAbelian(3), Heisenberg3()):
        m = standard_measure(spec)
        e = m.group.identity()
        for r in (1.0 + 1e-12, 1.05):
            with pytest.raises(ValueError, match="diverges"):
                green_truncated(m, [e], r)
            with pytest.raises(ValueError, match="diverges"):
                h_series(spec, m, r, n_max=4)


def test_tree_engine_at_r_zero_is_delta():
    m = standard_measure(RegularTree(4))
    xs = m.group.ball(1)[0] + m.group.ball(1)[1]
    got = green_truncated(m, xs, 0.0)
    assert [got[x].value for x in xs] == [1.0] + [0.0] * (len(xs) - 1)
    series = h_series(RegularTree(4), r=0.0, n_max=4)
    assert list(series.array()) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert all(series.values[n].tail == 0.0 for n in range(5))


def test_return_probability_treeprod_matches_convolution():
    m = standard_measure(TreeProduct(4, 3), a1=Fraction(1, 3))
    e = m.group.identity()
    dist = {e: 1.0}
    for n in range(9):
        assert abs(return_probability(m, n) - dist[e]) <= 1e-13
        dist = convolve(dist, m, support_cap=None)


def test_return_probability_tree_matches_convolution():
    m = standard_measure(RegularTree(4))
    e = m.group.identity()
    dist = {e: 1.0}
    for n in range(9):
        assert abs(return_probability(m, n) - dist[e]) <= 1e-13
        dist = convolve(dist, m, support_cap=None)


def test_return_law_keys_on_the_standard_walk_not_the_spec():
    # a skewed walk on T3 shares the spec type of the tree engine's walk,
    # but neither its class engine nor its closed-form rho
    spec = RegularTree(3)
    g = group_for(spec)
    w = {g.identity(): Fraction(1, 4), (0,): Fraction(1, 2),
         (1,): Fraction(1, 8), (2,): Fraction(1, 8)}
    m = Measure(spec, "skewed", (),
                tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0]))))
    assert class_engine(m) is None and known_spectral_radius(m) is None
    e = g.identity()
    dist = {e: 1.0}
    for n in range(9):
        p = return_probability(m, n)
        assert abs(p - dist[e]) <= 1e-13
        if n >= 2:
            assert abs(p - tree_distance_law(3, n, 0)[n, 0]) > 1e-6
        dist = convolve(dist, m, support_cap=None)


def test_a_class_engine_kind_is_refused_on_other_weights():
    # the skewed walk above, labelled with the tree walk's kind, would read
    # the tree's closed-form return law (0.19907 at n = 4, where convolve
    # gives 0.20459) and rho = 0.9714
    spec = RegularTree(3)
    g = group_for(spec)
    w = {g.identity(): Fraction(1, 4), (0,): Fraction(1, 2),
         (1,): Fraction(1, 8), (2,): Fraction(1, 8)}
    skewed = tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0])))
    with pytest.raises(ValueError, match="tree-lazy"):
        Measure(spec, "tree-lazy", (), skewed)
    zd = standard_measure(FreeAbelian(2), alpha=Fraction(1, 4))
    for spec, kind, params in (
            (FreeAbelian(2), "lazy-srw", (("alpha", Fraction(1, 2)),)),
            (FreeAbelian(2), "lazy-srw", ()),
            (FreeAbelian(2), "dl-srw", ()),
            (FreeAbelian(2), "tree-lazy", ()),
            (Heisenberg3(), "lazy-srw", zd.params)):
        with pytest.raises(ValueError, match=kind):
            Measure(spec, kind, params, zd.weights)
    # the standard walks themselves, with their weights in any order and
    # params of equal value, and any weights under another kind
    for spec, params in ((RegularTree(3), {}), (TreeProduct(4, 3), {}),
                         (FreeAbelian(2), {"alpha": Fraction(1, 4)}),
                         (Heisenberg3(), {}), (DiestelLeader(2), {})):
        m = standard_measure(spec, **params)
        again = Measure(spec, m.kind, tuple((k, float(v))
                                            for k, v in m.params),
                        m.weights[::-1])
        assert class_engine(again) is class_engine(m)
    assert Measure(FreeAbelian(2), "skewed", (), skewed).kind == "skewed"


def test_standard_measure_builds_its_walk_once(monkeypatch):
    calls = []
    build = kernels._standard_walk

    def counted(spec, params):
        calls.append(spec)
        return build(spec, params)

    monkeypatch.setattr(kernels, "_standard_walk", counted)
    for spec in (RegularTree(4), TreeProduct(6, 4), DiestelLeader(2)):
        calls.clear()
        m = standard_measure(spec)
        assert calls == [spec]
        # the walk passes the check of `Measure`'s own constructor
        assert Measure(m.spec, m.kind, m.params, m.weights) == m


FP = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))


@pytest.mark.parametrize("spec, params, name", [
    (RegularTree(4), {"alpha": 0.3}, "alpha"),
    (DiestelLeader(3), {"alpha": 0.3}, "alpha"),
    (FreeAbelian(3), {"a1": 0.3}, "a1"),
    (TreeProduct(4, 4), {"alpha": 0.1}, "alpha"),
    (FP, {"a1": 0.3}, "a1"),
    (FP, {"left_params": {"alpha": 0.3}}, "alpha"),
    (FP, {"right_params": {"a1": 0.3}}, "a1"),
    (Heisenberg3(), {"beta": 0.3}, "beta"),
])
def test_standard_measure_refuses_a_parameter_its_walk_does_not_read(
        spec, params, name):
    with pytest.raises(ValueError, match=f"does not read.*'{name}'"):
        standard_measure(spec, **params)


# frozen oracles from high-precision quadrature of the Bessel-product
# integral for the lazy walk on Z^3 (alpha = 1/2)
ZD_ORACLES = [
    ((0, 0, 0), 1.0, 3.0327721183039555),
    ((1, 1, 0), 1.0, 0.66229720425284728),
    ((2, 1, 1), 0.9, 0.021671802537710654),
    ((3, 2, 0), 0.8, 0.00075130875972887399),
    ((5, 0, 0), 1.0, 0.19321290400727743),
    # the unpruned 120-step FloatWalk sum, tail below 0.5^120
    ((0, 0, 8), 0.5, 2.2255591131572e-10),
]


@pytest.mark.parametrize("x,r,expected", ZD_ORACLES)
def test_zd_batch_green_against_frozen_oracles(x, r, expected):
    cls = tuple(sorted(abs(v) for v in x))
    got = zd_lazy_green_batch(3, 0.5, [cls], r)[cls]
    assert abs(got - expected) / expected < 1e-6


@pytest.mark.parametrize("x,r,expected", ZD_ORACLES)
def test_zd_scalar_green_against_frozen_oracles(x, r, expected):
    got = zd_lazy_green(3, 0.5, x, r)
    assert abs(got - expected) / expected < 1e-6


def test_zd_green_matches_series_at_small_r():
    # independent route: direct convolution series, rapidly convergent
    m = standard_measure(FreeAbelian(3))
    r = 0.5
    series = sum(r ** n * return_probability(m, n) for n in range(25))
    cls = (0, 0, 0)
    integral = zd_lazy_green_batch(3, 0.5, [cls], r)[cls]
    assert abs(series - integral) < 1e-8


def test_zd_green_estimate_is_not_a_truncation():
    m = standard_measure(FreeAbelian(3))
    e = m.group.identity()
    est = green_truncated(m, [e], 0.99)[e]
    assert est.n_terms == -1
    assert est.value == zd_lazy_green_batch(3, 0.5, [(0, 0, 0)], 0.99)[
        (0, 0, 0)]
    # below the local-CLT regime the stated error is 1e-9 per element
    assert est.tail == 1e-9 and est.rigorous


@pytest.mark.parametrize("r", [0.9, 1.0])
def test_green_truncated_zd_ball_matches_the_scalar_reference(r):
    m = standard_measure(FreeAbelian(3))
    ball = [x for layer in m.group.ball(8) for x in layer]
    est = green_truncated(m, ball, r)
    ref = {}
    for x in ball:
        cls = tuple(sorted(abs(v) for v in x))
        if cls not in ref:
            ref[cls] = zd_lazy_green(3, 0.5, cls, r)
        assert abs(est[x].value - ref[cls]) <= 1e-6 * ref[cls]


@pytest.mark.parametrize("r", [0.99999, 0.9999995])
def test_green_truncated_z_and_z2_near_one_within_tails(r):
    # lazy walk, alpha = 1/2: G(x | r) = G_srw(x | rs) / (1 - r / 2) with
    # rs = r / (2 - r), and 1 - rs^2 = (1 - r) / (1 - r / 2) (1 + rs)
    # computed without cancellation
    rs = 0.5 * r / (1.0 - 0.5 * r)
    s = math.sqrt((1.0 - r) / (1.0 - 0.5 * r) * (1.0 + rs))
    xs = [(k,) for k in (0, 1, 3, 10, 50)]
    est = green_truncated(standard_measure(FreeAbelian(1)), xs, r)
    for x in xs:
        want = (1.0 / s) * ((1.0 - s) / rs) ** x[0] / (1.0 - 0.5 * r)
        got = est[x]
        assert math.isfinite(got.value) and got.value > 0.0
        assert math.isfinite(got.tail) and not got.rigorous
        assert abs(got.value - want) <= got.tail
    from scipy.special import ellipk

    e2 = (0, 0)
    got = green_truncated(standard_measure(FreeAbelian(2)), [e2], r)[e2]
    want = (2.0 / math.pi) * ellipk(rs * rs) / (1.0 - 0.5 * r)
    assert math.isfinite(got.value) and got.value > 0.0
    assert abs(got.value - want) <= got.tail


@pytest.mark.parametrize("alpha,r", [
    (0.5, 1 - 1e-8), (0.5, 1 - 1e-9), (0.25, 1 - 1e-8), (0.25, 1 - 1e-9)])
def test_zd_batch_rule_keeps_its_digits_near_one(alpha, r):
    # on Z, G(e, e | r) = 1 / sqrt((1 - r alpha)^2 - r^2 (1 - alpha)^2),
    # whose radicand is (1 - r)(1 + r - 2 r alpha) without cancellation;
    # a rule that forms 1 - rs after rounding rs loses digits here
    want = 1.0 / math.sqrt((1.0 - r) * (1.0 + r - 2.0 * r * alpha))
    got = zd_lazy_green_batch(1, alpha, [(0,)], r)[(0,)]
    assert abs(got - want) <= 1e-11 * want


def test_zd_at_one_states_a_finite_heuristic_tail():
    m = standard_measure(FreeAbelian(3))
    x = (10, 10, 10)
    got = green_truncated(m, [x], 1.0)[x]
    # 30-digit mpmath value of the Bessel integral
    assert abs(got.value - 0.05510221212327715) <= got.tail
    assert math.isfinite(got.tail) and not got.rigorous
    series = h_series(FreeAbelian(3), r=1.0, n_max=30)
    for entry in series.values.values():
        assert math.isfinite(entry.tail) and not entry.rigorous


def test_zd_functions_refuse_r_outside_unit_interval():
    for r in (-0.5, -1e-300, 1.5, float("nan")):
        with pytest.raises(ValueError, match="0 <= r <= 1"):
            zd_lazy_green_batch(3, 0.5, [(0, 0, 0)], r)
        with pytest.raises(ValueError, match="0 <= r <= 1"):
            zd_lazy_green(3, 0.5, (0, 0, 0), r)
    assert zd_lazy_green_batch(3, 0.5, [], 0.5) == {}


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 1.2, float("nan")])
def test_zd_functions_refuse_alpha_outside_its_range(alpha):
    # the lazy walk's holding mass must lie in [0, 1): at 1.2 the parent
    # returned a negative G, at 1.0 a point mass 2 at e
    with pytest.raises(ValueError, match="0 <= alpha < 1"):
        zd_lazy_green_batch(3, alpha, [(0, 0, 0), (1, 0, 0)], 0.5)
    with pytest.raises(ValueError, match="0 <= alpha < 1"):
        zd_lazy_green(3, alpha, (1, 0, 0), 0.5)


@pytest.mark.parametrize("d,classes", [
    (3, [(1, 2)]), (3, [(1, 2, 3, 4)]), (3, [(0, 0, 0), (1, 2)]),
    (2, np.zeros((2, 3), int))])
def test_zd_functions_refuse_a_class_of_the_wrong_length(d, classes):
    # the parent returned a d = 2 product under d = 3's c = rs / 3
    with pytest.raises(ValueError, match=f"class on Z\\^{d} .* d = {d}"):
        zd_lazy_green_batch(d, 0.5, classes, 0.5)
    bad = next(x for x in classes if len(x) != d)
    with pytest.raises(ValueError, match=f"class on Z\\^{d} .* d = {d}"):
        zd_lazy_green(d, 0.5, bad, 0.5)


@pytest.mark.parametrize("d", [0, -1])
def test_zd_functions_refuse_d_below_1(d):
    # the parent's batch failed inside numpy on a zero-size maximum
    with pytest.raises(ValueError, match=f"d >= 1, got d = {d}"):
        zd_lazy_green_batch(d, 0.5, [()], 0.5)
    with pytest.raises(ValueError, match=f"d >= 1, got d = {d}"):
        zd_lazy_green(d, 0.5, (), 0.5)


def _scipy_ive_table(m_max, x):
    """ive(m, x) for m = 0..m_max from scipy at every order."""
    from scipy.special import ive

    return ive(np.arange(m_max + 1)[:, None], x)


def _zd_green_per_class(d, alpha, classes, r, table=kernels._ive_table):
    """`zd_lazy_green_batch` as one product per class over the whole grid,
    the Bessel table at every node: with the engine's table, the reference
    its grouped products and live-node table keep the bits of; with
    `_scipy_ive_table`, the reference it is accurate against."""
    from greengrowth.kernels import (
        _GL_NODES, _GL_WEIGHTS, _zd_clt_tail, _zd_rule,
    )

    uniq = sorted({tuple(sorted(abs(v) for v in x)) for x in classes})
    m_max = max(max(x) for x in uniq)
    denom, rs, decay, edges, clt = _zd_rule(d, alpha, m_max, r)
    c = rs / d
    s = np.concatenate([0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
                        for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * _GL_WEIGHTS
                        for a, b in zip(edges[:-1], edges[1:])])
    base = w * np.exp(-s * decay)
    bessel = table(m_max, c * s)
    out = {}
    for x in uniq:
        prod = base.copy()
        for xi in x:
            prod *= bessel[xi]
        val = float(prod.sum())
        if clt:
            val += _zd_clt_tail(d, c, decay, edges[-1], x)[0]
        out[x] = val / denom
    return out


ZD_BATCH_CASES = [
    (1, 0.5, 0.05), (1, 0.5, 0.5), (1, 0.5, 0.99), (1, 0.5, 1 - 1e-9),
    (2, 0.25, 0.05), (2, 0.25, 0.5), (2, 0.25, 0.99),
    (4, 0.5, 0.05), (4, 0.5, 0.5), (4, 0.5, 0.99), (4, 0.5, 1.0)]


@pytest.mark.parametrize("d,alpha,r", ZD_BATCH_CASES)
def test_zd_batch_keeps_the_bits_of_one_product_per_class(d, alpha, r):
    spec = FreeAbelian(d)
    classes, _, _ = class_engine(standard_measure(spec)).spheres(spec, 12)
    keys = list(map(tuple, classes.tolist()))
    assert zd_lazy_green_batch(d, alpha, keys, r) == _zd_green_per_class(
        d, alpha, keys, r)


@pytest.mark.parametrize("d,alpha,r,n_max", [
    *((d, alpha, r, 12) for d, alpha, r in ZD_BATCH_CASES),
    (3, 0.5, 0.5, 30), (3, 0.5, 0.9, 30), (3, 0.5, 1.0, 30)])
def test_zd_batch_is_within_1e_12_of_the_scipy_table(d, alpha, r, n_max):
    # the recurrence table moves no value by more than 1e-12 relative from
    # the same rule on scipy's ive at every order
    spec = FreeAbelian(d)
    classes, _, _ = class_engine(standard_measure(spec)).spheres(
        spec, n_max)
    keys = list(map(tuple, classes.tolist()))
    got = zd_lazy_green_batch(d, alpha, keys, r)
    ref = _zd_green_per_class(d, alpha, keys, r, table=_scipy_ive_table)
    assert got.keys() == ref.keys()
    assert all(abs(got[x] - ref[x]) <= 1e-12 * ref[x] for x in ref)


@pytest.mark.parametrize("m_max", [0, 1, 2, 8, 30, 60])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.99, 1.0])
def test_ive_table_is_within_2e_13_of_scipy_at_every_order(m_max, r):
    # on the batch's own live nodes; below m_max = 2 (the one-point calls
    # at e) it is scipy's Cephes i0e and i1e, and at m_max = 60 and
    # r = 0.05 some top seeds underflow and those nodes take scipy's ive
    _, rs, decay, edges, _ = kernels._zd_rule(3, 0.5, m_max, r)
    _, s, w = kernels._zd_panels(len(edges) - 1)
    x = rs / 3 * s[w * np.exp(-s * decay) > 0.0]
    table = kernels._ive_table(m_max, x)
    ref = _scipy_ive_table(m_max, x)
    assert table.shape == ref.shape
    assert np.all(np.abs(table - ref) <= 2e-13 * ref)
    if m_max < 2:
        from scipy.special import i0e, i1e

        assert np.array_equal(table, np.array([i0e(x), i1e(x)])[:m_max + 1])
    if (m_max, r) == (60, 0.05):
        low = ref[-1] < np.finfo(float).tiny
        assert low.any() and np.array_equal(table[:, low], ref[:, low])


@pytest.mark.parametrize("r", [0.05, 0.5, 0.99, 1.0])
def test_ive_table_orders_0_and_1_are_as_accurate_as_scipy_ive(r):
    # on every 7th live node of the one-point rule at e (m_max = 1 covers
    # both rows), against 40-digit mpmath: neither routine is the more
    # accurate at every node, and both stay below 8 eps relative
    import mpmath
    from scipy.special import ive

    _, rs, decay, edges, _ = kernels._zd_rule(3, 0.5, 1, r)
    _, s, w = kernels._zd_panels(len(edges) - 1)
    x = (rs / 3 * s[w * np.exp(-s * decay) > 0.0])[::7]
    with mpmath.workdps(40):
        ref = np.array([[float(mpmath.besseli(m, v) * mpmath.exp(-v))
                         for v in map(mpmath.mpf, x.tolist())]
                        for m in (0, 1)])
    bound = 8 * np.finfo(float).eps
    for table in (kernels._ive_table(1, x), ive([[0], [1]], x)):
        assert np.all(np.abs(table - ref) <= bound * ref)


@pytest.mark.parametrize("z", [*np.linspace(0.05, 0.45, 9), 1.0])
def test_zd_batch_at_e_matches_the_scalar_reference(z):
    # the free-product transfer's one-point call; at r = 1 the reference's
    # own quad tolerance is 1e-11 relative, and the two differ by 1.04e-12
    # (the batch's Cephes table and scipy's ive alike), so there both are
    # held to Watson's closed form 2 G_srw(e) (Glasser & Zucker, PNAS 74,
    # 1977) instead
    e = (0, 0, 0)
    got = zd_lazy_green_batch(3, 0.5, [e], z)[e]
    want = zd_lazy_green(3, 0.5, e, z)
    if z < 1.0:
        assert abs(got - want) <= 1e-12 * want
        return
    import mpmath

    with mpmath.workdps(30):
        watson = float(2 * mpmath.sqrt(6) / (32 * mpmath.pi ** 3)
                       * mpmath.fprod(mpmath.gamma(mpmath.mpf(k) / 24)
                                      for k in (1, 5, 7, 11)))
    assert abs(got - watson) <= 5e-12 * watson
    assert abs(want - watson) <= 5e-12 * watson


@pytest.mark.parametrize("z", [0.01, 0.05, 0.1, 0.2, 0.3])
def test_zd_batch_keeps_the_bits_of_the_single_class_at_e(z):
    # the free-product transfer's path: one class per call
    e = (0, 0, 0)
    assert (zd_lazy_green_batch(3, 0.5, [e], z)[e]
            == _zd_green_per_class(3, 0.5, [e], z)[e])


def test_zd_panel_memo_is_bounded_and_read_only():
    kernels._zd_panels.cache_clear()
    assert kernels._zd_panels.cache_info().maxsize == kernels.MEMO_SIZE
    edges, s, w = kernels._zd_panels(46)
    assert len(edges) == 47 and len(s) == len(w) == 46 * 24
    for a in (s, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # one-point calls and a sphere call read grids of different panel
    # counts from the memo, each with the bits of a grid built afresh
    e = (0, 0, 0)
    spec = FreeAbelian(3)
    keys = list(map(tuple, class_engine(standard_measure(spec)).spheres(
        spec, 30)[0].tolist()))
    for r in (0.05, 0.5, 0.05, 0.99, 0.5):
        assert (zd_lazy_green_batch(3, 0.5, [e], r)[e]
                == _zd_green_per_class(3, 0.5, [e], r)[e])
        assert zd_lazy_green_batch(3, 0.5, keys, r) == _zd_green_per_class(
            3, 0.5, keys, r)
    assert kernels._zd_panels.cache_info().hits > 0


def test_the_package_keeps_two_bounded_function_memos():
    # module-level lru_cache wrappers: the transfer solutions and the Z^d
    # panel grids, each bounded by MEMO_SIZE
    import importlib
    import pkgutil

    import greengrowth

    memos = {}
    for info in pkgutil.iter_modules(greengrowth.__path__):
        module = importlib.import_module(f"greengrowth.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                memos[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert memos == {"kernels._memo_transfer": kernels.MEMO_SIZE,
                     "kernels._zd_panels": kernels.MEMO_SIZE}


@pytest.mark.parametrize("spec,n_max,name", [
    (FreeAbelian(3), 30, "zd_lazy_green_batch"),
    (DiestelLeader(3), 10, "dl_green_classes")])
def test_class_engines_evaluate_once_per_call(monkeypatch, spec, n_max,
                                              name):
    from greengrowth import kernels

    outputs = []
    evaluate = getattr(kernels, name)

    def counting(*args, **kwargs):
        outputs.append(evaluate(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(kernels, name, counting)
    m = standard_measure(spec)
    engine = class_engine(m)
    classes = engine.spheres(spec, n_max)[0]
    h_series(spec, m, 0.5, n_max)
    assert len(outputs) == 1
    assert len(outputs[0]) == len(set(map(tuple, classes.tolist())))
    outputs.clear()
    ball = [x for layer in m.group.ball(3) for x in layer]
    green_truncated(m, ball, 0.5)
    assert len(outputs) == 1
    assert len(outputs[0]) == len({engine.key(m.group, x) for x in ball})


def test_no_engine_calls_the_scalar_zd_reference(monkeypatch):
    from greengrowth import kernels
    from greengrowth.freeprod import transfer

    def refuse(*args, **kwargs):
        raise AssertionError("zd_lazy_green is the tests' reference")

    monkeypatch.setattr(kernels, "zd_lazy_green", refuse)
    for spec, x in ((FreeAbelian(3), (1, 2, 0)), (FreeAbelian(1), (3,))):
        m = standard_measure(spec)
        assert green_truncated(m, [x], 0.5)[x].value > 0.0
    assert h_series(FreeAbelian(3), r=0.5, n_max=5).value(5) > 0.0
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    assert transfer(spec, standard_measure(spec, alpha=0.2), 0.5).w0 > 0.0


def test_dl_green_engine_matches_convolution_series():
    m = standard_measure(DiestelLeader(2))
    g = m.group
    e = g.identity()
    key = (0, 0, 0)
    engine = dl_green_classes(2, [key], 0.3)[key]
    # independent route: exact-rational convolution series (untruncated
    # support), remaining tail below 0.3^13 / 0.7
    series = float(_exact_green_series(m, [e], Fraction(3, 10), 12)[e])
    assert series <= engine + 1e-12
    assert abs(engine - series) < 1e-6
    frozen = dl_green_classes(2, [key], 0.5)[key]
    assert abs(frozen - 1.0717038974389885) < 1e-9


def test_dl_green_offdiagonal_matches_sweep():
    q = 2
    g = group_for(DiestelLeader(q))
    m = standard_measure(DiestelLeader(q))
    x = g.ball(2)[2][0]
    key = dl_class_key(g.profile(x))
    engine = dl_green_classes(q, [key], 0.6)[key]
    direct = green_truncated(m, [x], 0.6, max_terms=30)[x].value
    assert abs(engine - direct) < 1e-5


def _dl_banded_series(q, n_max, r, cut=1e-13):
    """H_r(n) on DL(q, q) from a banded solve of (I - r P) e_0 on each
    confined interval, with a range cutoff far below the engine's."""
    from scipy.linalg import solve_banded

    rows = [[(dl_class_key(p), c) for p, _, c in dl_sphere_profiles(q, n)]
            for n in range(n_max + 1)]
    keys = {k for row in rows for k, _ in row}
    extra = math.ceil(-math.log(cut) / math.log(q))
    a_lo = min(k[1] for k in keys) - extra
    b_hi = max(k[2] for k in keys) + extra
    resolvent = {}

    def read(a, b, pos):
        if a > 0 or b < 0 or not a <= pos <= b:
            return 0.0
        if (a, b) not in resolvent:
            band = np.zeros((3, b - a + 1))
            band[0, 1:] = band[2, :-1] = -0.5 * r
            band[1] = 1.0
            rhs = np.zeros(b - a + 1)
            rhs[-a] = 1.0
            resolvent[(a, b)] = solve_banded((1, 1), band, rhs)
        return resolvent[(a, b)][pos - a]

    green = {(pos, A, B): sum(
        (read(a, b, pos) - read(a + 1, b, pos) - read(a, b - 1, pos)
         + read(a + 1, b - 1, pos)) * float(q) ** (a - b)
        for a in range(a_lo, A + 1) for b in range(B, b_hi + 1))
        for pos, A, B in keys}
    return np.array([sum(c * green[k] for k, c in row) for row in rows])


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_dl_series_matches_banded_resolvent(r):
    series = h_series(DiestelLeader(3), r=r, n_max=10)
    ref = _dl_banded_series(3, 10, r)
    value = series.array()
    tail = np.array([series.values[n].tail for n in range(11)])
    assert np.all(np.abs(value - ref) <= 1e-9 * ref)
    # the engine only drops nonnegative range weights, and its tail
    # bounds what it drops
    assert np.all(np.abs(value - ref) <= tail)
    assert all(series.values[n].rigorous for n in range(11))


def _dl_green_per_key(q, keys, r, rel_tol=1e-9):
    """`dl_green_classes` with one (a, b) grid and five S grids per key:
    the reference its shared grid and per-pos terms keep the bits of."""
    from greengrowth.kernels import _dl_extra

    t = math.acosh(1.0 / r)

    def S(x, y):
        if r == 1.0:
            return x / y
        return np.exp(t * (x - y)) * np.expm1(-2 * t * x) / np.expm1(
            -2 * t * y)

    extra = _dl_extra(q, rel_tol)
    a_lo = min(k[1] for k in keys) - extra
    b_hi = max(k[2] for k in keys) + extra
    out = {}
    for pos, A, B in keys:
        a = np.arange(a_lo, A + 1)[:, None]
        b = np.arange(B, b_hi + 1)[None, :]
        w = b - a
        first_a = np.where(a == 0, 1.0, S(b, np.maximum(w, 1)))
        first_b = S(-a, np.maximum(w, 1))
        e = (2.0 / r * S(1, w + 1) * (first_a * S(pos - a + 1, w + 2)
                                      + first_b * S(b - pos + 1, w + 2)))
        out[(pos, A, B)] = float(np.sum(e * float(q) ** -w))
    return out


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [0.1, 0.95, 1.0])
def test_dl_classes_keep_the_bits_of_one_grid_per_key(q, r):
    keys = sorted({dl_class_key(p) for n in range(11)
                   for p, _, _ in dl_sphere_profiles(q, n)})
    got = dl_green_classes(q, keys, r)
    assert list(got) == keys and got == _dl_green_per_key(q, keys, r)


def test_dl_engine_refuses_a_key_off_its_range():
    # a key needs A <= min(0, pos) and B >= max(0, pos)
    for key in ((1, 0, 0), (-1, 0, 1), (0, 1, 2), (0, -2, -1)):
        with pytest.raises(ValueError, match="key"):
            dl_green_classes(2, [key], 0.5)


def test_dl_engine_refuses_r_outside_unit_interval():
    m = standard_measure(DiestelLeader(3))
    e = m.group.identity()
    for r in (-0.1, 1.2, float("nan")):
        with pytest.raises(ValueError):
            dl_green_classes(3, [(0, 0, 0)], r)
        with pytest.raises(ValueError):
            h_series(DiestelLeader(3), r=r, n_max=4)
        with pytest.raises(ValueError):
            green_truncated(m, [e], r)


def test_dl_engine_at_r_zero_is_delta():
    series = h_series(DiestelLeader(3), r=0.0, n_max=4)
    assert list(series.array()) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert all(series.values[n].tail == 0.0 for n in range(5))


def test_dl_green_estimate_carries_a_rigorous_tail():
    m = standard_measure(DiestelLeader(3))
    g = m.group
    xs = [g.identity()] + g.ball(3)[3][:5]
    for x, est in green_truncated(m, xs, 1.0).items():
        assert est.rigorous and est.n_terms == -1
        assert 0.0 < est.tail < 1e-6 * est.value


def test_green_truncated_tree_is_certified():
    m = standard_measure(RegularTree(4))
    g = group_for(RegularTree(4))
    x = g.sphere(3)[0]
    est = green_truncated(m, [x], 0.8)[x]
    assert est.rigorous
    chain = _tree_chain_green(4, 0.8, 3)
    assert abs(est.value - chain[3]) <= est.tail + 1e-12


def test_green_truncated_generic_vs_tree_engine():
    spec = RegularTree(3)
    m = standard_measure(spec)
    g = group_for(spec)
    x = g.sphere(2)[0]
    fast = green_truncated(m, [x], 0.7)[x]
    slow = float(_exact_green_series(m, [x], Fraction(7, 10), 12)[x])
    # p_k(e, x) <= rho^k bounds the terms past the twelfth
    y = 0.7 * tree_closed_form(3, 1.0).rho
    slow_tail = y ** 13 / (1 - y)
    assert abs(fast.value - slow) <= fast.tail + slow_tail + 1e-12


def test_green_truncated_generic_repeated_target():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    m = standard_measure(spec, alpha=0.2)
    g = group_for(spec)
    x = g.embed(0, group_for(spec.left).sphere(2)[0])
    once = green_truncated(m, [x], 0.5, max_terms=8, support_cap=2000)
    twice = green_truncated(m, [x, x], 0.5, max_terms=8, support_cap=2000)
    assert once[x].value > 0.0
    assert twice[x].value == once[x].value


def test_convolve_is_deterministic_under_pruning():
    m = standard_measure(TreeProduct(4, 4))
    dist = {s: float(w) for s, w in m.weights}
    for _ in range(4):
        dist = convolve(dist, m, support_cap=200)
    again = {s: float(w) for s, w in m.weights}
    for _ in range(4):
        again = convolve(again, m, support_cap=200)
    assert dist == again
    assert len(dist) <= 200


def test_convolve_preserves_mass_without_cap():
    m = standard_measure(FreeAbelian(3))
    dist = {s: float(w) for s, w in m.weights}
    for _ in range(3):
        dist = convolve(dist, m, support_cap=None)
    assert abs(sum(dist.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("spec,cap,steps", [
    # dyadic weights keep every float sum exact, so ties stay ties; at
    # cap 40 the second step's cut runs through a class of equal weights
    (FreeProduct(RegularTree(4), FreeAbelian(2)), 40, 5),
    (Heisenberg3(), None, 8),
])
def test_float_core_matches_the_exact_dict_loop(spec, cap, steps):
    m = standard_measure(spec)
    e = m.group.identity()
    walk = FloatWalk(m, {e: 1.0}, cap)
    exact = {e: Fraction(1)}
    cuts_a_tie = False
    for _ in range(steps):
        full = sorted(convolve(exact, m, support_cap=None).values())[::-1]
        cuts_a_tie |= cap is not None and len(full) > cap and (
            full[cap - 1] == full[cap])
        walk.step()
        exact = convolve(exact, m, support_cap=cap)
        got = walk.dist()
        assert got.keys() == exact.keys()
        for x, v in exact.items():
            assert abs(got[x] - v) <= 1e-14 * v
        assert walk.dropped == pytest.approx(float(1 - sum(exact.values())),
                                             rel=1e-14, abs=0.0)
    assert cuts_a_tie == (cap is not None)


def test_step_table_multiplies_each_missing_pair_once(monkeypatch):
    g = group_for(FreeAbelian(2))
    cls = type(g)
    mul = cls.multiply
    calls = []

    def recorded(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(cls, "multiply", recorded)
    e, x, y, x_ = g.identity(), (1, 0), (0, 1), (-1, 0)
    steps = [e, x, y, x_]
    table = StepTable(g, steps, [e])
    out = table.at(np.array([0, 0, 0, 0]), np.array([1, 1, 0, 2]))
    assert [table.elements[i] for i in out] == [x, x, e, y]
    # a repeated pair is multiplied once, a step by e never
    assert calls == [(e, x), (e, y)]
    rows = table.at(np.array([[0], [1]]), np.arange(4))
    # the rows fill only the pairs the reads above left missing
    assert calls[2:] == [(e, x_), (x, x), (x, y), (x, x_)]
    assert [[table.elements[i] for i in row] for row in rows] == [
        [mul(g, z, s) for s in steps] for z in (e, x)]


@pytest.mark.parametrize("spec,steps", [
    (RegularTree(3), [(), (0,), (1,), (2,)]),
    (RegularTree(6), [(), (0,), (1,), (2,), (3,), (4,), (5,)]),
    (FreeGroup(2), [(), (-2,), (-1,), (1,), (2,)]),
    # a step of two letters: the table multiplies, with the same ids
    (RegularTree(3), [(0,), (1, 2), (2,)]),
])
def test_step_table_on_a_tree_matches_an_intern_and_multiply_loop(
        monkeypatch, spec, steps):
    g = group_for(spec)
    fill, filled = StepTable._fill_tree, []

    def recorded(self, keys):
        filled.extend(keys)
        return fill(self, keys)

    monkeypatch.setattr(StepTable, "_fill_tree", recorded)
    table = StepTable(g, steps, [g.identity()])
    elements, index = [g.identity()], {g.identity(): 0}

    def interned(i, s):
        z = g.multiply(elements[i], steps[s])
        if z not in index:
            index[z] = len(elements)
            elements.append(z)
        return index[z]

    rng = np.random.default_rng(len(steps))
    for _ in range(40):
        # few ids and steps per batch, so pairs repeat and walks backtrack
        ids = rng.integers(0, len(elements), 12)
        ss = rng.integers(0, len(steps), 12)
        want = [interned(i, s) for i, s in zip(ids.tolist(), ss.tolist())]
        out = table.at(ids, ss).tolist()
        assert out == want
        assert [table.elements[j] for j in out] == [
            g.multiply(elements[i], steps[s])
            for i, s in zip(ids.tolist(), ss.tolist())]
    # a broadcast read fills row by row
    ids = rng.permutation(len(elements))[:30]
    want = [[interned(i, s) for s in range(len(steps))] for i in ids.tolist()]
    assert table.at(ids[:, None], np.arange(len(steps))).tolist() == want
    assert table.elements == elements
    # the tree fill ran exactly when every step is e or one letter, once
    # per pair
    assert bool(filled) == all(len(s) <= 1 for s in steps)
    assert len(set(filled)) == len(filled)
    # word lengths: the tree fill's depths, with no word_length call
    asked = []
    monkeypatch.setattr(type(g), "word_length",
                        lambda self, a: asked.append(a) or len(a))
    every = rng.permutation(len(elements))
    assert table.word_length(every).tolist() == [
        len(elements[i]) for i in every.tolist()]
    assert bool(asked) != bool(filled)


def _float_dict_step(dist, m, cap):
    """The float dict loop the array core replaced: the reference for its
    order of additions, its support order and its tie-break."""
    g = m.group
    out = {}
    for x, px in dist.items():
        for s, w in m.weights:
            y = g.multiply(x, s)
            out[y] = out.get(y, 0.0) + px * float(w)
    if cap is not None and len(out) > cap:
        ws = np.fromiter(out.values(), dtype=float, count=len(out))
        thresh = np.partition(ws, len(ws) - cap)[len(ws) - cap]
        keep = {y: w for y, w in out.items() if w > thresh}
        ties = sorted((y for y, w in out.items() if w == thresh),
                      key=g.encode)
        keep.update((y, thresh) for y in ties[: cap - len(keep)])
        out = keep
    return out


@pytest.mark.parametrize("spec,alpha,cap", [
    (FreeProduct(TreeProduct(4, 4), FreeAbelian(3)), Fraction(1, 5), 300),
    # on Heisenberg the first appearance of a product is not the order in
    # which the step table met it
    (Heisenberg3(), Fraction(1, 3), None),
])
def test_float_core_is_the_float_dict_loop_bit_for_bit(spec, alpha, cap):
    m = standard_measure(spec, alpha=alpha)
    e = m.group.identity()
    walk = FloatWalk(m, {e: 1.0}, cap)
    ref = {e: 1.0}
    for _ in range(6):
        walk.step()
        ref = _float_dict_step(ref, m, cap)
        assert list(walk.dist().items()) == list(ref.items())


def _lumped_dict_step(dist, m, cap):
    """The dict loop on orbits: the mass of each canonical product, then
    whole orbits kept in order of mass per element, ties by encode, while
    they hold at most cap elements, in the walk's order: the kept orbits
    above the last one's mass per element in support order, then the ties
    at it by encode."""
    g = m.group
    out = {}
    for x, px in dist.items():
        for s, w in m.weights:
            y = g.canonical(g.multiply(x, s))
            out[y] = out.get(y, 0.0) + px * float(w)
    size = {y: len(orbit(g.symmetries, y)) for y in out}
    if cap is None or sum(size.values()) <= cap:
        return out
    per = {y: v / size[y] for y, v in out.items()}
    kept, used = [], 0
    for y in sorted(out, key=lambda y: (-per[y], g.encode(y))):
        if used + size[y] > cap:
            break
        kept.append(y)
        used += size[y]
    last = per[kept[-1]] if kept else math.inf
    order = ([y for y in out if y in kept and per[y] > last]
             + sorted((y for y in kept if per[y] == last), key=g.encode))
    return {y: out[y] for y in order}


@pytest.mark.parametrize("alpha,cap", [
    (Fraction(1, 2), None), (Fraction(1, 2), 100), (Fraction(1, 2), 37),
    (Fraction(1, 2), 7),
    # the first step's heaviest orbit per element, x^+-1 and y^+-1, has 4
    # elements: the cut lies above it, and nothing is kept
    (0, 3), (Fraction(1, 100), 3),
])
def test_lumped_walk_is_the_orbit_dict_loop(alpha, cap):
    m = standard_measure(Heisenberg3(), alpha=alpha)
    e = m.group.identity()
    walk = FloatWalk(m, {e: 1.0}, cap, lump=True)
    assert walk.lumped
    ref = {e: 1.0}
    for _ in range(8):
        walk.step()
        ref = _lumped_dict_step(ref, m, cap)
        assert list(walk.dist().items()) == list(ref.items())
        assert walk.dropped == pytest.approx(1.0 - sum(ref.values()),
                                             rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("spec,cap,steps", [
    (FreeProduct(RegularTree(4), FreeAbelian(2)), 40, 5),
    (FreeProduct(TreeProduct(4, 4), FreeAbelian(3)), 300, 6),
])
def test_lumping_by_a_trivial_symmetry_is_the_per_element_walk(
        monkeypatch, spec, cap, steps):
    m = standard_measure(spec)
    monkeypatch.setattr(type(m.group), "symmetries", (lambda x: x,))
    e = m.group.identity()
    lumped = FloatWalk(m, {e: 1.0}, cap, lump=True)
    plain = FloatWalk(m, {e: 1.0}, cap)
    assert lumped.lumped and not plain.lumped
    for _ in range(steps):
        lumped.step()
        plain.step()
        assert list(lumped.dist().items()) == list(plain.dist().items())
        assert lumped.dropped == plain.dropped


def test_a_measure_the_symmetries_move_walks_per_element():
    spec = Heisenberg3()
    g = group_for(spec)
    # x-steps outweigh y-steps, so swapping x and y does not fix it
    w = {g.identity(): Fraction(1, 2), (1, 0, 0): Fraction(3, 16),
         (-1, 0, 0): Fraction(3, 16), (0, 1, 0): Fraction(1, 16),
         (0, -1, 0): Fraction(1, 16)}
    m = Measure(spec, "skewed", (),
                tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0]))))
    assert not FloatWalk(m, {g.identity(): 1.0}, lump=True).lumped
    swept = sphere_reduced_sweep(m, 6, 12, support_cap=None)
    plain = step_sums(m, g.word_length, 7, 12, support_cap=None)
    assert all(np.array_equal(a, b) for a, b in zip(swept, plain))


def test_pruned_green_values_plus_tails_bound_the_unpruned_values():
    m = standard_measure(FreeProduct(RegularTree(3), FreeAbelian(2)))
    g = m.group
    xs = [g.identity()] + g.sphere(1)[:3] + g.sphere(2)[:3]
    # the sweep's own entry point: tol 1e-9, max_terms 6
    full = _green_generic(m, xs, 0.9, 1e-9, 6, None)
    cut = _green_generic(m, xs, 0.9, 1e-9, 6, 200)
    assert any(cut[x].value < full[x].value for x in xs)
    for x in xs:
        assert cut[x].value <= full[x].value
        assert full[x].value <= cut[x].value + cut[x].tail
        assert cut[x].tail > full[x].tail


def test_first_return_relation_on_tree():
    # G(e,e|r) = 1 / (1 - F_ret(r)): first-return series vs closed form
    m = standard_measure(RegularTree(4))
    g = m.group
    e = g.identity()
    coeffs = first_return_coefficients(m, lambda a: a == e, n_max=30,
                                       support_cap=50_000)
    r = 0.8
    f = float(coeffs[e] @ np.array([r ** n for n in range(31)]))
    cf = tree_closed_form(4, r)
    # truncation at 30 terms leaves a tail below (0.8 rho)^31 / (1 - 0.8 rho)
    assert 0.0 <= (1.0 - 1.0 / cf.G) - f < 5e-4


def test_first_return_kernel_mass_below_one():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    m = standard_measure(spec)
    g = m.group
    member = lambda a: g.factor_part(1, a) is not None
    k = first_return_kernel(m, member, 1.0, n_max=8, support_cap=20_000)
    assert 0.0 < k.total_mass_lower < 1.0
    assert all(v >= 0 for v in k.kernel.values())


def test_spectral_radius_lower_bound():
    m = standard_measure(RegularTree(4))
    rho = tree_closed_form(4, 1.0).rho
    lower = spectral_radius_lower(m, 12)
    assert lower <= rho + 1e-12
    assert lower > 0.5  # laziness alone gives 1/2
