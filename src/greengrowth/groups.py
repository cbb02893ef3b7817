"""Group catalog: canonical elements, word metrics, sphere enumeration.

Each supported group comes with a canonical hashable element representation,
a byte encoding (used for deterministic ordering of enumerations), exact
multiplication/inversion, the word length for the standard generating set,
and breadth-first sphere/ball enumeration with a hard element budget.

Supported groups:

* ``FreeAbelian(d)``   -- Z^d, elements are integer tuples.
* ``Heisenberg3()``    -- discrete Heisenberg group, coordinates (a, b, c)
  of the upper unitriangular matrix, generators x^{+-1}, y^{+-1}.
* ``FreeGroup(k)``     -- reduced words over k free generators.
* ``RegularTree(l)``   -- free product of l copies of Z/2; its Cayley graph
  is the l-regular tree.
* ``TreeProduct(l1, l2)`` -- direct product RegularTree(l1) x RegularTree(l2).
* ``DiestelLeader(q)`` -- DL(q, q), realized as the lamplighter group
  Z_q wr Z with lamps sitting on the edges of Z.
* ``FreeProduct(left, right)`` -- free product of two catalog groups,
  elements are alternating syllable sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would touch more elements than allowed."""


# ---------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class FreeAbelian:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("FreeAbelian needs d >= 1")


@dataclass(frozen=True)
class Heisenberg3:
    pass


@dataclass(frozen=True)
class FreeGroup:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("FreeGroup needs k >= 1")


@dataclass(frozen=True)
class RegularTree:
    l: int

    def __post_init__(self):
        if self.l < 3:
            raise ValueError("RegularTree needs l >= 3")


@dataclass(frozen=True)
class TreeProduct:
    l1: int
    l2: int

    def __post_init__(self):
        if self.l1 < 3 or self.l2 < 3:
            raise ValueError("TreeProduct needs l1, l2 >= 3")


@dataclass(frozen=True)
class DiestelLeader:
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("DiestelLeader needs q >= 2")


@dataclass(frozen=True)
class FreeProduct:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[
    FreeAbelian, Heisenberg3, FreeGroup, RegularTree, TreeProduct,
    DiestelLeader, FreeProduct,
]

Element = object  # per-variant hashable tuples, see the classes below


# ---------------------------------------------------------------------------
# group implementations


class Group:
    """Common interface; concrete subclasses fill in the group law."""

    spec: GroupSpec

    def identity(self) -> Element:
        raise NotImplementedError

    def generators(self) -> List[Element]:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inverse(self, a: Element) -> Element:
        raise NotImplementedError

    def encode(self, a: Element) -> bytes:
        raise NotImplementedError

    def word_length(self, a: Element) -> int:
        raise NotImplementedError

    # -- enumeration -------------------------------------------------------

    def neighbors(self, a: Element) -> Iterable[Element]:
        mul = self.multiply
        return (mul(a, s) for s in self.generators())

    def ball(self, n: int, budget: int = DEFAULT_BUDGET) -> List[List[Element]]:
        """Spheres S_0 .. S_n as lists sorted by canonical encoding."""
        if n < 0:
            raise ValueError("radius must be >= 0")
        dist: Dict[Element, int] = {self.identity(): 0}
        layers: List[List[Element]] = [[self.identity()]]
        frontier = [self.identity()]
        for radius in range(1, n + 1):
            nxt = []
            for a in frontier:
                for b in self.neighbors(a):
                    if b not in dist:
                        dist[b] = radius
                        nxt.append(b)
                        if len(dist) > budget:
                            raise BudgetExceededError(
                                f"ball({n}) exceeds budget {budget}")
            nxt.sort(key=self.encode)
            layers.append(nxt)
            frontier = nxt
        return layers

    def sphere(self, n: int, budget: int = DEFAULT_BUDGET) -> List[Element]:
        return self.ball(n, budget=budget)[n]


class _ZdGroup(Group):
    def __init__(self, spec: FreeAbelian):
        self.spec = spec
        self.d = spec.d

    def identity(self):
        return (0,) * self.d

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def encode(self, a):
        return b"Z:" + (",".join(map(str, a))).encode()

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def sphere(self, n, budget=DEFAULT_BUDGET):
        # direct enumeration of the l^1 sphere; BFS would work but is slower
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                for v in ((remaining, -remaining) if remaining else (0,)):
                    out.append(prefix + (v,))
                return
            for mag in range(remaining + 1):
                for v in ((mag, -mag) if mag else (0,)):
                    rec(prefix + (v,), remaining - mag, slots - 1)

        rec((), n, self.d)
        if len(out) > budget:
            raise BudgetExceededError(f"sphere({n}) exceeds budget {budget}")
        out.sort(key=self.encode)
        return out


class _HeisenbergGroup(Group):
    """Coordinates (a, b, c) for the matrix [[1,a,c],[0,1,b],[0,0,1]]."""

    def __init__(self, spec: Heisenberg3):
        self.spec = spec
        self._dist: Dict[Tuple[int, int, int], int] = {(0, 0, 0): 0}
        self._frontier: List[Tuple[int, int, int]] = [(0, 0, 0)]
        self._layers: List[List[Tuple[int, int, int]]] = [[(0, 0, 0)]]

    def identity(self):
        return (0, 0, 0)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def multiply(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inverse(self, a):
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def encode(self, a):
        return b"H:" + (",".join(map(str, a))).encode()

    def _grow(self, budget):
        radius = len(self._layers)
        nxt = []
        for a in self._frontier:
            for b in self.neighbors(a):
                if b not in self._dist:
                    self._dist[b] = radius
                    nxt.append(b)
                    if len(self._dist) > budget:
                        raise BudgetExceededError(
                            f"Heisenberg ball radius {radius} exceeds "
                            f"budget {budget}")
        nxt.sort(key=self.encode)
        self._layers.append(nxt)
        self._frontier = nxt

    def word_length(self, a, budget=DEFAULT_BUDGET):
        while a not in self._dist:
            self._grow(budget)
        return self._dist[a]

    def ball(self, n, budget=DEFAULT_BUDGET):
        while len(self._layers) <= n:
            self._grow(budget)
        return [list(layer) for layer in self._layers[: n + 1]]


class _FreeGroup(Group):
    """Reduced words; letters are +-1 .. +-k."""

    def __init__(self, spec: FreeGroup):
        self.spec = spec
        self.k = spec.k

    def identity(self):
        return ()

    def generators(self):
        return [(g,) for i in range(1, self.k + 1) for g in (i, -i)]

    def multiply(self, a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def encode(self, a):
        return b"F:" + (",".join(map(str, a))).encode()

    def word_length(self, a):
        return len(a)


class _RegularTreeGroup(Group):
    """Free product of l involutions a_0 .. a_{l-1}; Cayley graph = T_l."""

    def __init__(self, spec: RegularTree):
        self.spec = spec
        self.l = spec.l

    def identity(self):
        return ()

    def generators(self):
        return [(i,) for i in range(self.l)]

    def multiply(self, a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def inverse(self, a):
        return tuple(reversed(a))

    def encode(self, a):
        return b"T:" + (",".join(map(str, a))).encode()

    def word_length(self, a):
        return len(a)

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        return self.l * (self.l - 1) ** (n - 1)


class _TreeProductGroup(Group):
    def __init__(self, spec: TreeProduct):
        self.spec = spec
        self.g1 = _RegularTreeGroup(RegularTree(spec.l1))
        self.g2 = _RegularTreeGroup(RegularTree(spec.l2))

    def identity(self):
        return ((), ())

    def generators(self):
        gens = [((i,), ()) for i in range(self.spec.l1)]
        gens += [((), (i,)) for i in range(self.spec.l2)]
        return gens

    def multiply(self, a, b):
        return (self.g1.multiply(a[0], b[0]), self.g2.multiply(a[1], b[1]))

    def inverse(self, a):
        return (self.g1.inverse(a[0]), self.g2.inverse(a[1]))

    def encode(self, a):
        return b"TP:" + self.g1.encode(a[0]) + b"|" + self.g2.encode(a[1])

    def word_length(self, a):
        return len(a[0]) + len(a[1])


class _DiestelLeaderGroup(Group):
    """DL(q, q) as the lamplighter Z_q wr Z with lamps on the edges of Z.

    Element = (pos, lamps) where pos is the Z coordinate and lamps is a
    sorted tuple of (edge, value) with value in 1..q-1; edge j sits between
    the sites j and j+1.  The 2q generators move pos by one step and set the
    lamp on the crossed edge to an arbitrary value (including off).
    """

    def __init__(self, spec: DiestelLeader):
        self.spec = spec
        self.q = spec.q

    def identity(self):
        return (0, ())

    def generators(self):
        q = self.q
        gens = []
        for a in range(q):
            gens.append((1, ((0, a),) if a else ()))
            gens.append((-1, ((-1, a),) if a else ()))
        return gens

    def multiply(self, a, b):
        pos_a, la = a
        pos_b, lb = b
        q = self.q
        lamps = dict(la)
        for edge, val in lb:
            j = edge + pos_a
            v = (lamps.get(j, 0) + val) % q
            if v:
                lamps[j] = v
            else:
                lamps.pop(j, None)
        return (pos_a + pos_b, tuple(sorted(lamps.items())))

    def inverse(self, a):
        pos, lamps = a
        q = self.q
        inv = tuple(sorted((edge - pos, (q - val) % q) for edge, val in lamps))
        return (-pos, inv)

    def encode(self, a):
        pos, lamps = a
        body = ";".join(f"{e}:{v}" for e, v in lamps)
        return f"DL:{pos}|{body}".encode()

    def word_length(self, a):
        pos, lamps = a
        if not lamps:
            return abs(pos)
        lo = min(e for e, _ in lamps)
        hi = max(e for e, _ in lamps)
        left = min(0, pos, lo)
        right = max(0, pos, hi + 1)
        return 2 * (right - left) - abs(pos)

    def profile(self, a) -> "DLProfile":
        """Tree-pair coordinates (u1, d2, s) of the element."""
        pos, lamps = a
        if lamps:
            lo = min(e for e, _ in lamps)
            hi = max(e for e, _ in lamps)
        else:
            lo, hi = None, None
        c1 = min(0, pos) if lo is None else min(0, pos, lo)
        c2 = min(-pos, 0) if hi is None else min(-pos, 0, -1 - hi)
        u1, d1 = -c1, pos - c1
        u2, d2 = -c2, -pos - c2
        assert u1 + u2 == d1 + d2
        return DLProfile(u1=u1, d2=d2, s=u1 + u2)


class _FreeProductGroup(Group):
    """Alternating syllable words over two factor groups."""

    def __init__(self, spec: FreeProduct):
        self.spec = spec
        self.factors = (group_for(spec.left), group_for(spec.right))

    def identity(self):
        return ()

    def generators(self):
        gens = []
        for side in (0, 1):
            fac = self.factors[side]
            gens += [((side, g),) for g in fac.generators()]
        return gens

    def embed(self, side: int, g: Element) -> Element:
        """Image of a factor element under the canonical inclusion."""
        if g == self.factors[side].identity():
            return ()
        return ((side, g),)

    def factor_part(self, side: int, a: Element):
        """Factor element if a lies in the given factor, else None."""
        if a == ():
            return self.factors[side].identity()
        if len(a) == 1 and a[0][0] == side:
            return a[0][1]
        return None

    def multiply(self, a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1][0] == b[i][0]:
            side = a[-1][0]
            fac = self.factors[side]
            merged = fac.multiply(a[-1][1], b[i][1])
            i += 1
            if merged == fac.identity():
                a.pop()
            else:
                a[-1] = (side, merged)
                break
        return tuple(a) + tuple(b[i:])

    def inverse(self, a):
        return tuple((side, self.factors[side].inverse(g))
                     for side, g in reversed(a))

    def encode(self, a):
        body = b"/".join(
            (b"L" if side == 0 else b"R") + self.factors[side].encode(g)
            for side, g in a)
        return b"FP:" + body

    def word_length(self, a):
        # word length is additive over syllables for the union of the
        # factor generating sets
        return sum(self.factors[side].word_length(g) for side, g in a)


@dataclass(frozen=True)
class DLProfile:
    """Up/down step profile of a DL(q, q) element: u1 = upward steps of the
    first tree coordinate, d2 = downward steps of the second, s = u1 + u2."""
    u1: int
    d2: int
    s: int


_CLASSES = {
    FreeAbelian: _ZdGroup,
    Heisenberg3: _HeisenbergGroup,
    FreeGroup: _FreeGroup,
    RegularTree: _RegularTreeGroup,
    TreeProduct: _TreeProductGroup,
    DiestelLeader: _DiestelLeaderGroup,
    FreeProduct: _FreeProductGroup,
}

_CACHE: Dict[GroupSpec, Group] = {}


def group_for(spec: GroupSpec) -> Group:
    if spec not in _CACHE:
        _CACHE[spec] = _CLASSES[type(spec)](spec)
    return _CACHE[spec]


# ---------------------------------------------------------------------------
# closed-form sphere counting


def tree_level_sphere_count(q: int, n: int, m: int) -> int:
    """Number of vertices of the (q+1)-regular tree at distance n from the
    root and at horocycle level m relative to the root.

    Levels are oriented so that every vertex has one neighbor at level m-1
    (toward the reference end) and q neighbors at level m+1.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if abs(m) > n or (n - m) % 2:
        return 0
    if m == n:
        return q ** n
    if m == -n:
        return 1
    k = (n - m) // 2  # steps toward the end
    return (q - 1) * q ** (n - 1 - k)


def _updown_count(q: int, u: int, d: int) -> int:
    """Number of tree vertices with u steps toward the end, d steps away."""
    if u < 0 or d < 0:
        return 0
    if u == 0:
        return q ** d
    if d == 0:
        return 1
    return (q - 1) * q ** (d - 1)


def dl_class_count(q: int, i: int, j: int, k: int) -> int:
    """Size of the DL(q, q) profile class {u1 = i, d2 = j, s = k}.

    The first tree coordinate has i up-steps and k - j down-steps, the
    second has k - i up-steps and j down-steps.
    """
    if not (0 <= i <= k and 0 <= j <= k):
        return 0
    return _updown_count(q, i, k - j) * _updown_count(q, k - i, j)


def dl_sphere_count(q: int, n: int) -> int:
    """Sphere size of DL(q, q) by summing profile class counts.

    Strata: h(x1) > 0 elements satisfy u1 < s - d2 and sit at distance
    u1 + d2 + s; the h(x1) < 0 stratum has equal size by the coordinate
    swap symmetry; h(x1) = 0 forces d2 = s - u1 and distance 2s.
    """
    if n == 0:
        return 1
    total = 0
    for s in range(1, n + 1):
        rest = n - s
        if rest < 0:
            continue
        for j in range(0, min(s, rest) + 1):
            i = rest - j
            if 0 <= i <= s and i < s - j:
                total += 2 * dl_class_count(q, i, j, s)
    if n % 2 == 0:
        s = n // 2
        for i in range(0, s + 1):
            total += dl_class_count(q, i, s - i, s)
    return total


def dl_sphere_profiles(q: int, n: int):
    """Profile classes making up the DL(q, q) sphere of radius n.

    Yields (profile, h_sign, count) with h_sign in {-1, 0, +1}; classes
    with h(x1) < 0 mirror the h(x1) > 0 classes.
    """
    if n == 0:
        yield DLProfile(0, 0, 0), 0, 1
        return
    for s in range(1, n + 1):
        rest = n - s
        for j in range(0, min(s, rest) + 1):
            i = rest - j
            if 0 <= i <= s and i < s - j:
                c = dl_class_count(q, i, j, s)
                yield DLProfile(i, j, s), +1, c
                # mirror class under the tree swap: u1' = u2, d2' = d1
                yield DLProfile(s - i, s - j, s), -1, c
    if n % 2 == 0:
        s = n // 2
        for i in range(0, s + 1):
            yield DLProfile(i, s - i, s), 0, dl_class_count(q, i, s - i, s)
