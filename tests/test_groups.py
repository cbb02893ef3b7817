"""Group engines: BFS balls, word lengths, and counting formulas."""

import gc
import hashlib
import random
import weakref

import pytest

from greengrowth.groups import (
    BudgetExceededError, DiestelLeader, FreeAbelian, FreeGroup, FreeProduct,
    Group, Heisenberg3, RegularTree, TreeProduct, dl_class_count,
    dl_sphere_count, dl_sphere_profiles, group_for, orbit,
    tree_level_sphere_count,
)


def sphere_sizes(spec, n):
    return [len(layer) for layer in group_for(spec).ball(n)]


def test_zd_sphere_sizes():
    sizes = sphere_sizes(FreeAbelian(3), 4)
    assert sizes == [1] + [4 * n * n + 2 for n in range(1, 5)]


def test_free_group_sphere_sizes():
    k = 2
    g = group_for(FreeGroup(k))
    sizes = [len(layer) for layer in g.ball(4)]
    assert sizes == [1] + [2 * k * (2 * k - 1) ** (n - 1)
                           for n in range(1, 5)]
    assert sizes == [g.sphere_size(n) for n in range(5)]


def test_regular_tree_sphere_sizes():
    l = 4
    g = group_for(RegularTree(l))
    sizes = [len(layer) for layer in g.ball(5)]
    assert sizes == [1] + [l * (l - 1) ** (n - 1) for n in range(1, 6)]
    assert sizes == [g.sphere_size(n) for n in range(6)]


def test_heisenberg_ball_sizes():
    # frozen BFS counts for the standard two-generator presentation
    assert sphere_sizes(Heisenberg3(), 5) == [1, 4, 12, 36, 82, 164]


def test_heisenberg_closed_form_word_length_matches_bfs():
    g = group_for(Heisenberg3())
    radius = 14
    # the base-class breadth-first search is the independent oracle
    dist = {x: n for n, layer in enumerate(Group.ball(g, radius))
            for x in layer}
    assert all(g.word_length(x) == n for x, n in dist.items())
    box, area = radius + 1, radius * radius
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            for c in range(-area, area + 1):
                if (a, b, c) not in dist:
                    assert g.word_length((a, b, c)) > radius, (a, b, c)


def test_heisenberg_word_length_symmetries():
    g = group_for(Heisenberg3())
    sample = [(a, b, c) for a in range(-6, 7) for b in range(-6, 7)
              for c in range(-50, 51)]
    for a, b, c in sample:
        n = g.word_length((a, b, c))
        assert g.word_length(g.inverse((a, b, c))) == n
        assert g.word_length((-a, b, -c)) == n
        assert g.word_length((a, -b, -c)) == n
        assert g.word_length((a, b, a * b - c)) == n
        assert g.word_length((b, a, c)) == n


def test_heisenberg_symmetries_are_automorphisms_of_the_word_metric():
    g = group_for(Heisenberg3())
    assert len(g.symmetries) == 3
    rnd = random.Random(16)
    gens = g.generators()
    for f in g.symmetries:
        assert sorted(map(f, gens)) == sorted(gens)
        assert f(g.identity()) == g.identity()
        for _ in range(2000):
            x, y = (tuple(rnd.randint(-9, 9) for _ in range(3))
                    for _ in range(2))
            assert f(g.multiply(x, y)) == g.multiply(f(x), f(y))
            assert g.word_length(f(x)) == g.word_length(x)
    # the maps generate the dihedral group of order 8
    assert max(len(orbit(g.symmetries, (a, b, 0))) for a in range(3)
               for b in range(3)) == 8


def test_heisenberg_canonical_form_picks_one_element_per_orbit():
    g = group_for(Heisenberg3())
    rnd = random.Random(8)
    sample = [tuple(rnd.randint(-6, 6) for _ in range(3))
              for _ in range(5000)]
    # the special cases a = 0, b = 0 and |a| = |b|, densely
    sample += [(a, b, c) for a in range(-3, 4) for b in (0, a, -a, 2)
               for c in range(-10, 11)]
    for x in sample:
        xs = orbit(g.symmetries, x)
        assert {g.canonical(y) for y in xs} == {g.canonical(x)}
        assert g.canonical(x) in xs


def test_groups_without_symmetries_declare_none():
    for spec in (FreeAbelian(2), FreeGroup(2), RegularTree(3),
                 TreeProduct(3, 4), DiestelLeader(2),
                 FreeProduct(RegularTree(3), FreeAbelian(1))):
        g = group_for(spec)
        assert g.symmetries == ()
        x = g.generators()[0]
        assert g.canonical(x) is x


def test_heisenberg_central_word_length():
    g = group_for(Heisenberg3())
    s = 0
    for c in range(1, 10 ** 6 + 1):
        while s * s < 4 * c:
            s += 1
        # s = ceil(2 sqrt(c))
        assert g.word_length((0, 0, c)) == 2 * s
    # no search: a far element costs one call
    assert g.word_length((10 ** 6, 0, 0)) == 10 ** 6
    assert g.word_length((0, -10 ** 6, 0)) == 10 ** 6


def test_tree_product_spheres_are_factor_convolutions():
    l1, l2 = 4, 3
    sizes = sphere_sizes(TreeProduct(l1, l2), 4)
    s1 = sphere_sizes(RegularTree(l1), 4)
    s2 = sphere_sizes(RegularTree(l2), 4)
    for n in range(5):
        assert sizes[n] == sum(s1[d] * s2[n - d] for d in range(n + 1))


@pytest.mark.parametrize("q", [2, 3])
def test_dl_sphere_count_matches_bfs(q):
    sizes = sphere_sizes(DiestelLeader(q), 6)
    assert sizes == [dl_sphere_count(q, n) for n in range(7)]


def test_tree_level_sphere_count_table():
    assert tree_level_sphere_count(3, 1, 1) == 3
    assert tree_level_sphere_count(3, 2, 0) == 2
    assert tree_level_sphere_count(3, 4, 2) == 18
    # zero outside the light cone and at parity mismatches
    assert tree_level_sphere_count(3, 2, 3) == 0
    assert tree_level_sphere_count(3, 3, 0) == 0


def _level_count(q, n, m):
    """The level count by its own case split: q^n at the top level, 1 at
    the bottom, (q - 1) q^(n - 1 - k) after k steps toward the end."""
    if abs(m) > n or (n - m) % 2:
        return 0
    if m == n:
        return q ** n
    if m == -n:
        return 1
    return (q - 1) * q ** (n - 1 - (n - m) // 2)


@pytest.mark.parametrize("q", [2, 3])
def test_tree_level_sphere_count_matches_the_level_formula(q):
    for n in range(13):
        for m in range(-n - 2, n + 3):
            assert tree_level_sphere_count(q, n, m) == _level_count(q, n, m)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
def test_dl_profiles_partition_the_sphere(q, n):
    total = sum(count for _, _, count in dl_sphere_profiles(q, n))
    assert total == sphere_sizes(DiestelLeader(q), n)[n]


def test_dl_class_counts_match_bfs_profiles():
    q = 2
    g = group_for(DiestelLeader(q))
    for n in range(1, 7):
        counted = {}
        for x in g.ball(n)[n]:
            p = g.profile(x)
            counted[(p.u1, p.d2, p.s)] = counted.get((p.u1, p.d2, p.s), 0) + 1
        for profile, _, count in dl_sphere_profiles(q, n):
            key = (profile.u1, profile.d2, profile.s)
            assert counted.get(key, 0) == count, (n, key)


def test_dl_class_count_edge_column():
    # #A(k, 0, k) is (q-1) q^{k-1}, confirmed by the BFS profile census
    for q in (2, 3):
        for k in range(1, 6):
            assert dl_class_count(q, k, 0, k) == (q - 1) * q ** (k - 1)


def test_group_axioms_on_samples():
    for spec in (FreeAbelian(2), Heisenberg3(), FreeGroup(2), RegularTree(3),
                 TreeProduct(3, 4), DiestelLeader(2),
                 FreeProduct(RegularTree(3), FreeAbelian(3))):
        g = group_for(spec)
        e = g.identity()
        sample = g.ball(2)[1] + g.ball(2)[2][:5]
        for a in sample:
            assert g.multiply(a, g.inverse(a)) == e
            assert g.multiply(e, a) == a
            assert g.word_length(g.inverse(a)) == g.word_length(a)


def test_free_product_word_length_is_additive():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    g = group_for(spec)
    left = group_for(spec.left)
    right = group_for(spec.right)
    a = g.embed(0, left.sphere(2)[0])
    b = g.embed(1, right.sphere(3)[0])
    ab = g.multiply(a, b)
    assert g.word_length(ab) == 5
    assert g.word_length(g.multiply(ab, a)) == 7


def test_free_product_factor_part():
    spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
    g = group_for(spec)
    left = group_for(spec.left)
    x = left.sphere(1)[0]
    a = g.embed(0, x)
    assert g.factor_part(0, a) == x
    assert g.factor_part(1, a) is None
    assert g.factor_part(0, g.identity()) is not None
    b = g.embed(1, group_for(spec.right).sphere(1)[0])
    assert g.factor_part(0, g.multiply(a, b)) is None


def test_ball_budget_enforced():
    with pytest.raises(BudgetExceededError):
        group_for(FreeGroup(3)).ball(12, budget=1000)


def test_no_module_cache_keeps_a_group_alive():
    ref = weakref.ref(group_for(FreeAbelian(57)))
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("spec, digest", [
    (FreeGroup(2),
     "07dd8d159411cff4275e8f9751dbed0922b02fd28acc051ea85cde94659458d5"),
    (RegularTree(4),
     "f81a97130204e608f578cf3e853ac426ee0b3f61421329cc6f9b4dcd995f3c67"),
    (FreeAbelian(3),
     "fa49d2f1033341a23111d88bd80712e41c524c0ed5d2d068fe40ee351b9aea6b"),
    (Heisenberg3(),
     "e4d3ac54fbe8e6582ac6d7aa6f2a4957358aef40ca532823ea18d73863f0abdc"),
])
def test_ball_encodings_and_word_lengths_are_pinned(spec, digest):
    # `encode` orders every BFS layer and breaks every pruning tie
    g = group_for(spec)
    blob = b"\n".join(g.encode(x) + b"|%d" % g.word_length(x)
                      for layer in g.ball(5) for x in layer)
    assert hashlib.sha256(blob).hexdigest() == digest
