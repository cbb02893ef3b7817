"""Green-function engines and first-return machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, Heisenberg3, RegularTree,
    TreeProduct, dl_sphere_profiles, group_for,
)
from greengrowth.growth import h_series
from greengrowth.kernels import (
    FloatWalk, convolve, dl_class_key, dl_green_classes,
    first_return_coefficients, first_return_kernel, green_truncated,
    return_probability, spectral_radius_lower, standard_measure,
    tree_distance_law, tree_green_by_distance, tree_sphere_sizes,
    treeprod_green_by_distance,
    zd_lazy_green, zd_lazy_green_batch,
)
from greengrowth.trees import tree_closed_form, tree_green


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


@pytest.mark.parametrize("l,r", [(4, 0.8), (4, 1.0), (6, 0.9)])
def test_tree_chain_matches_closed_form(l, r):
    # the stepped distance chain is a lower bound; p_n(e, x) <= rho^n
    # bounds what it leaves out after N steps
    rho = tree_closed_form(l, r).rho
    tail = 1e-13
    n = _geometric_steps(r * rho, tail)
    chain = (r ** np.arange(n + 1) @ tree_distance_law(l, n, 6)
             / tree_sphere_sizes(l, 6))
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
    assert abs(est.value - tree_green(4, 0.8, 3)) <= est.tail + 1e-12


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


def test_pruned_green_values_plus_tails_bound_the_unpruned_values():
    m = standard_measure(FreeProduct(RegularTree(3), FreeAbelian(2)))
    g = m.group
    xs = [g.identity()] + g.sphere(1)[:3] + g.sphere(2)[:3]
    full = green_truncated(m, xs, 0.9, max_terms=6, support_cap=None)
    cut = green_truncated(m, xs, 0.9, max_terms=6, support_cap=200)
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
