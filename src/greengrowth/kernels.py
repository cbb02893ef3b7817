"""Step distributions, convolution, truncated Green functions.

The generic machinery sums steps of a float distribution over group
elements.  For groups whose standard kernels have extra structure, Green
functions are computed by specialized engines that sum no steps at all:

* regular trees   -- the closed-form resolvent F^|x| / (w - F) of the
                     simple random walk on the tree,
* tree products   -- the two factor resolvents multiplied on an ellipse
                     around the first factor's spectrum and integrated by
                     the trapezoid rule, with a proved error bound,
* Z^d             -- the Bessel integral of the Green kernel on one shared
                     Gauss-Legendre grid (`zd_lazy_green_batch`), with one
                     error rule; `zd_lazy_green` is its adaptive-quad
                     reference and no engine calls it,
* Diestel-Leader  -- path-range decomposition of the lamplighter walk,
* free products   -- of two such walks: `transfer` solves the factor
                     equations on the factor engines, and the Green
                     values and sphere sums are composed from the
                     factors' rows (`freeprod_green`,
                     `freeprod_sphere_sums`), with a two-sided tail.

`standard_measure` gives each spec type its one standard walk, and
`CLASS_ENGINES` holds each structured walk's classes, spheres, evaluator
and return law: the class of an element, the spheres as classes with
multiplicities, one evaluator reducing weighted classes to rows, and,
for trees and tree products, p_n(e, e) in closed form.  `green_truncated`
asks a row per target, `growth.h_series` a row per sphere, and
`return_probability` the return law.

Every other step sum -- Green values, sphere sums, return probabilities --
reads one core, `step_sums`: a sweep of `FloatWalk` (interned elements, a
memoized step table) from e, binned by an integer key at every step, so
that any r-dependence is a polynomial evaluation afterwards.  Where the
key is constant on the orbits of the group's symmetries and the measure
is invariant, the sweep walks orbits instead of elements.  `convolve`
is the exact-rational dict loop the float sweep is tested against.  Step
sums bound their tails with p_n(x, y) <= rho^n for symmetric kernels; the
bounds are rigorous whenever the spectral radius rho is known in closed
form and r * rho < 1, and heuristic (geometric extrapolation, flagged)
otherwise.  A support cap prunes mass M_k by step k, and
p_k(A) <= (pruned p_k)(A) + M_k for every set A, so sum_k r^k M_k is
added to every tail.  The Diestel-Leader engine is exact per range; its
range cutoff carries a proved tail for 0 <= r <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import (
    DiestelLeader, Element, FreeAbelian, FreeProduct, GroupSpec, Group,
    Heisenberg3, RegularTree, TreeProduct, _RegularTreeGroup,
    dl_sphere_profiles, group_for, orbit,
)

DEFAULT_SUPPORT_CAP = 1_000_000
# entries kept by each memo: of transfer solutions and of the Z^d panel
# grids
MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Measure:
    """Finitely supported symmetric probability measure on a group.

    The kinds of `CLASS_ENGINES` ("tree-lazy", "product-mix", "lazy-srw",
    "dl-srw") name standard walks whose closed forms the engines and
    `known_spectral_radius` use, so a measure of such a kind must be that
    walk on its spec, for its params: ValueError otherwise.  Any other
    kind labels any weights.
    """
    spec: GroupSpec
    kind: str
    params: Tuple[Tuple[str, object], ...]
    weights: "Tuple[Tuple[Element, Fraction], ...]"

    def __post_init__(self):
        if any(self.kind == kind for _, kind in CLASS_ENGINES):
            kind, params, weights, _ = _standard_walk(self.spec,
                                                      dict(self.params))
            if ((kind, params) != (self.kind, self.params)
                    or dict(self.weights) != weights):
                raise ValueError(
                    f"kind {self.kind!r} names the walk of standard_measure,"
                    f" but these params {self.params} and weights on "
                    f"{self.spec} are not that walk's")

    @cached_property
    def group(self) -> Group:
        """The group of spec, built once per measure."""
        return group_for(self.spec)

    def param(self, name):
        for k, v in self.params:
            if k == name:
                return v
        return None


def _frac(x) -> Fraction:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"a walk parameter must be finite, got {x}")
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


def standard_measure(spec: GroupSpec, **params) -> Measure:
    """The standard walk of the spec's type, which names its kind:
    "tree-lazy" on RegularTree, "product-mix" on TreeProduct (parameter a1
    = weight of the first factor), "lazy-srw" on FreeAbelian and
    Heisenberg3 (parameter alpha = mass at the identity), "dl-srw" on
    DiestelLeader, "freeprod-mix" on FreeProduct (parameter alpha = weight
    of the right factor; each factor gets its own standard walk, built
    with left_params / right_params, recorded as the measure's "left" and
    "right" parameters).  Any other spec, and any parameter its walk does
    not read, raises ValueError.
    """
    kind, p, w, g = _standard_walk(spec, params)
    items = tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0])))
    # the walk is its own standard walk: `Measure`'s check, which builds
    # that walk again to compare, is skipped; g is the measure's group
    m = object.__new__(Measure)
    m.__dict__.update(spec=spec, kind=kind, params=p, weights=items, group=g)
    return m


def _measure_on(spec: GroupSpec, measure: Optional[Measure]) -> Measure:
    """The measure a function on spec walks by: `standard_measure(spec)`
    for None, else measure, which must live on spec (ValueError)."""
    if measure is None:
        return standard_measure(spec)
    if measure.spec != spec:
        raise ValueError(f"the measure lives on {measure.spec}, not on "
                         f"{spec}")
    return measure


def _standard_walk(spec: GroupSpec, params: Dict[str, object]
                   ) -> Tuple[str, Tuple[Tuple[str, object], ...],
                              Dict[Element, Fraction], Group]:
    """(kind, params, weights, group) of `standard_measure`, which `Measure`
    checks a measure of a class-engine kind against.  Each walk pops the
    parameters it reads; any left over raise ValueError."""
    params = dict(params)
    g = group_for(spec)
    e = g.identity()
    w: Dict[Element, Fraction] = {}

    if isinstance(spec, RegularTree):
        kind, p = "tree-lazy", ()
        w[e] = Fraction(1, 2)
        for s in g.generators():
            w[s] = Fraction(1, 2 * spec.l)
    elif isinstance(spec, (FreeAbelian, Heisenberg3)):
        alpha = _frac(params.pop("alpha", Fraction(1, 2)))
        if not (0 <= alpha < 1):
            raise ValueError("alpha must be in [0, 1)")
        gens = g.generators()
        if alpha:
            w[e] = alpha
        for s in gens:
            w[s] = (1 - alpha) / len(gens)
        kind, p = "lazy-srw", (("alpha", alpha),)
    elif isinstance(spec, TreeProduct):
        a1 = _frac(params.pop("a1", Fraction(1, 2)))
        if not (0 < a1 < 1):
            raise ValueError("a1 must be in (0, 1)")
        w[e] = Fraction(1, 2)
        for i in range(spec.l1):
            w[((i,), ())] = a1 / (2 * spec.l1)
        for i in range(spec.l2):
            w[((), (i,))] = (1 - a1) / (2 * spec.l2)
        kind, p = "product-mix", (("a1", a1),)
    elif isinstance(spec, DiestelLeader):
        kind, p = "dl-srw", ()
        for s in g.generators():
            w[s] = Fraction(1, 2 * spec.q)
    elif isinstance(spec, FreeProduct):
        alpha = _frac(params.pop("alpha", Fraction(1, 2)))
        if not (0 < alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        m_left = standard_measure(spec.left, **params.pop("left_params", {}))
        m_right = standard_measure(spec.right,
                                   **params.pop("right_params", {}))
        for x, wx in m_left.weights:
            y = g.embed(0, x)
            w[y] = w.get(y, Fraction(0)) + (1 - alpha) * wx
        for x, wx in m_right.weights:
            y = g.embed(1, x)
            w[y] = w.get(y, Fraction(0)) + alpha * wx
        kind, p = "freeprod-mix", (("alpha", alpha), ("left", m_left),
                                   ("right", m_right))
    else:
        raise ValueError(f"no default kernel for {spec}")
    if params:
        raise ValueError(f"the standard walk on {spec} does not read "
                         f"{sorted(params)}")

    assert sum(w.values()) == 1
    return kind, p, w, g


def known_spectral_radius(measure: Measure) -> Optional[float]:
    """Closed-form spectral radius, or None when unavailable."""
    spec, kind = measure.spec, measure.kind
    if kind == "tree-lazy":
        return tree_rho(spec.l)
    if kind == "product-mix":
        return treeprod_rho(spec.l1, spec.l2, float(measure.param("a1")))
    if kind == "lazy-srw":
        return 1.0  # Z^d and Heisenberg are amenable
    return None  # DL (its engine needs none) and free products


def check_request(measure: Measure, r: float, tol: float) -> None:
    """Refuse r < 0, r > 1/rho where the spectral radius rho is known in
    closed form (the Green function diverges there), and tol <= 0, inf or
    NaN.
    """
    if not r >= 0:
        raise ValueError(f"r must be >= 0, got r = {r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got tol = {tol}")
    rho = known_spectral_radius(measure)
    if rho is not None and r > 1.0 / rho:
        raise ValueError(f"the Green function diverges for r > R = 1/rho: "
                         f"it needs 0 <= r <= R = {1.0 / rho!r}, got r = {r}")


# ---------------------------------------------------------------------------
# sparse convolution


def convolve(dist: Dict[Element, object], measure: Measure,
             support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
             ) -> Dict[Element, object]:
    """One convolution step dist * measure by a dict loop over sources and
    steps; Fraction weights keep it exact.  The reference `FloatWalk` is
    tested against.

    With a support cap, only the heaviest cap entries are kept (ties broken
    by canonical encoding); dropped mass makes every later value a certified
    lower bound.
    """
    g = measure.group
    zero = Fraction(0)
    out: Dict[Element, object] = {}
    mul = g.multiply
    for x, px in dist.items():
        for s, w in measure.weights:
            y = mul(x, s)
            out[y] = out.get(y, zero) + px * w
    if support_cap is not None and len(out) > support_cap:
        order = sorted(out.items(), key=lambda kv: (-kv[1], g.encode(kv[0])))
        out = dict(order[:support_cap])
    return out


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of an int array by a sort and a neighbour mask, which
    is many times faster than the hash table numpy 2 uses."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    """a with at least n rows, the new rows set to fill (growing by half)."""
    if len(a) >= n:
        return a
    out = np.full((max(n, len(a) * 3 // 2),) + a.shape[1:], fill, a.dtype)
    out[: len(a)] = a
    return out


class StepTable:
    """Interned elements of a group and their products by a fixed list of
    steps: the state of the array-backed walks, `FloatWalk` and the
    branching random walk of `brw`.

    `elements[i]` is the element with id i.  The table maps (id, step
    index) to the id of the product.  A step equal to the identity maps
    every id to itself; any other pair is filled the first time it is
    asked for, and a new product gets the next id.  On a tree group
    (T_l or F_k) walked from e alone by distinct steps that are e or one
    letter, the fill is array work on ids: the product of x and a letter
    is x's parent when the letter inverts x's last one, and otherwise a
    new child of x that no other pair makes (Woess, Random Walks on
    Infinite Graphs and Groups, CUP 2000, §1.D), so per id the table
    keeps the parent, the step of the last letter and the depth, which
    is the word length `word_length` reads.  Any other table
    fills a pair by one `multiply` and interns the product; with a
    `canonical` map it interns canonical(product) instead, so that an id
    stands for a whole symmetry orbit, and the start elements must then be
    canonical already.  Both fills hand out the same ids.  Per-element
    values (word lengths, predicates) are cached per id by `values`.
    Nothing is evicted: the table lives as long as its owner.
    """

    def __init__(self, group: Group, steps: Sequence[Element],
                 start: Sequence[Element],
                 canonical: Optional[Callable[[Element], Element]] = None):
        self.group = group
        self.steps = list(steps)
        self.elements: List[Element] = list(start)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._canonical = canonical
        e = group.identity()
        self._stay = [j for j, s in enumerate(self.steps) if s == e]
        self._table = np.full((0, len(self.steps)), -1, np.int32)
        self._cache: Dict[Callable, Tuple[np.ndarray, np.ndarray]] = {}
        letters = {s: j for j, s in enumerate(self.steps)}
        self._tree = (isinstance(group, _RegularTreeGroup)
                      and canonical is None and self.elements == [e]
                      and len(letters) == len(self.steps)
                      and all(len(s) <= 1 for s in self.steps))
        if self._tree:
            # the step inverse to each step (-2 if none is a step), and
            # per id the parent, the step of the last letter (-1 at e)
            # and the depth
            self._back = np.array([letters.get(group.inverse(s), -2)
                                   for s in self.steps])
            self._parent = np.full(1, -1, np.int32)
            self._last = np.full(1, -1, np.int32)
            self._depth = np.zeros(1, np.int32)

    def _grow(self) -> None:
        """A table row for every element."""
        old = len(self._table)
        if old < len(self.elements):
            self._table = _grown(self._table, len(self.elements), -1)
            self._table[old:, self._stay] = np.arange(
                old, len(self._table))[:, None]

    def at(self, ids: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Product ids of the pairs (ids[k], steps[k]), broadcast against
        each other, filling each missing pair once, in row-major order of
        first appearance (`brw`'s draws repeat pairs, `FloatWalk`'s never)."""
        self._grow()
        flat = self._table.reshape(-1)
        keys = ids * len(self.steps) + steps
        out = flat[keys]
        miss = keys[out < 0]
        if len(miss):
            fill = self._fill_tree if self._tree else self._fill
            fill(list(dict.fromkeys(miss.tolist())))
            out = flat[keys]
        return out

    def _fill_tree(self, keys: List[int]) -> None:
        """Fill the distinct pairs keys = id * len(steps) + step index on a
        tree: up to the parent, or down to a new child one deeper, which
        gets the next id in the order of keys."""
        x, s = np.divmod(np.array(keys), len(self.steps))
        up = self._last[x] == self._back[s]
        ids = self._parent[x]
        x, s = x[~up], s[~up]
        old, elements, steps = len(self.elements), self.elements, self.steps
        ids[~up] = np.arange(old, old + len(x))
        np.put(self._table, keys, ids)
        elements.extend([elements[i] + steps[j]
                         for i, j in zip(x.tolist(), s.tolist())])
        self._parent = _grown(self._parent, len(elements), -1)
        self._last = _grown(self._last, len(elements), -1)
        self._depth = _grown(self._depth, len(elements), 0)
        self._parent[old:len(elements)] = x
        self._last[old:len(elements)] = s
        self._depth[old:len(elements)] = self._depth[x] + 1

    def _fill(self, keys: List[int]) -> None:
        """Fill the distinct pairs keys = id * len(steps) + step index."""
        mul, index, elements, step = (self.group.multiply, self._index,
                                      self.elements, self.steps)
        canon = self._canonical
        known = len(index)
        pairs = map(divmod, keys, repeat(len(step)))
        # a new product gets the next id, len(index), as its value
        add = index.setdefault
        if canon is None:
            ids = [add(mul(elements[i], step[s]), len(index))
                   for i, s in pairs]
        else:
            ids = [add(canon(mul(elements[i], step[s])), len(index))
                   for i, s in pairs]
        np.put(self._table, keys, ids)
        elements.extend(reversed(list(
            islice(reversed(index), len(index) - known))))

    def values(self, fn: Callable[[Element], object], ids: np.ndarray,
               dtype=np.intp) -> np.ndarray:
        """fn of the elements ids, computed once per element."""
        values, known = self._cache.get(fn, (np.zeros(0, dtype),
                                             np.zeros(0, bool)))
        n = len(self.elements)
        values, known = _grown(values, n, 0), _grown(known, n, False)
        new = _sorted_distinct(ids[~known[ids]])
        if len(new):
            values[new] = [fn(self.elements[i]) for i in new.tolist()]
            known[new] = True
        self._cache[fn] = values, known
        return values[ids]

    def word_length(self, ids: np.ndarray) -> np.ndarray:
        """The word lengths of the elements ids: a tree table's depths,
        any other table's `values` of the group's `word_length`."""
        if self._tree:
            return self._depth[ids]
        return self.values(self.group.word_length, ids)


def _invariant(measure: Measure) -> bool:
    """Whether the group declares symmetries and each sends every step of
    the measure to a step of equal weight."""
    maps = measure.group.symmetries
    w = dict(measure.weights)
    return bool(maps) and all(w.get(f(s)) == ws
                              for f in maps for s, ws in w.items())


class FloatWalk:
    """A float distribution stepped by a measure, the walk of `step_sums`.

    Each element is interned to an int id once, and the `StepTable` maps
    (id, step) to the id of the product, filled the first time an element
    is a source: a sweep multiplies each element once per step of the
    measure other than e, however many steps it survives.  The
    distribution is held as `ids` (distinct) and `p`.  A step scatters
    p * w with `np.bincount`, which adds in source-major, step-minor
    order, and orders the new support by first appearance, as a dict loop
    over sources and steps would, so the values are such a loop's bit for
    bit.  Pruning to support_cap keeps the entries above the cap-th
    largest weight and breaks ties at that threshold by `encode`;
    `dropped` is the total mass pruned so far.  Per-element values (word
    lengths, predicates) are cached per id by `lookup`.  The tables live
    as long as the walk.

    With `lump`, the caller promises to read only values constant on the
    orbits of the group's symmetries (sphere sums, the mass at e) and to
    start from orbit masses on canonical elements.  If the group declares
    symmetries and the measure is invariant under them (checked here,
    once), the walk is `lumped`: the automorphisms fix e and the measure,
    so the walk projected to orbits is again a Markov chain, and each id
    is an orbit, held by its canonical element, with p its total mass.
    The cap still counts group elements: whole orbits are pruned in order
    of mass per element p / |orbit|, ties broken by `encode`, keeping the
    longest such prefix whose orbits hold at most support_cap elements.
    Orbit sizes are computed only when the cap could bind.
    """

    def __init__(self, measure: Measure, start: Dict[Element, object],
                 support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                 lump: bool = False):
        self.group = g = measure.group
        self.support_cap = support_cap
        self.lumped = lump and _invariant(measure)
        self._w = np.array([float(w) for _, w in measure.weights])
        self._table = StepTable(g, [s for s, _ in measure.weights],
                                list(start),
                                g.canonical if self.lumped else None)
        self.ids = np.arange(len(start))
        self.p = np.array([float(v) for v in start.values()])
        self.dropped = 0.0
        self._largest_orbit = 1
        if self.lumped:
            maps = g.symmetries
            self._orbit_size = lambda x: len(orbit(maps, x))
            # an automorphism is fixed by the images of the generators, so
            # their orbit as a tuple counts the symmetry group
            self._largest_orbit = len(orbit(
                [lambda t, f=f: tuple(map(f, t)) for f in maps],
                tuple(g.generators())))

    def step(self) -> None:
        """dist <- dist * measure, pruned to support_cap."""
        flat = self._table.at(self.ids[:, None],
                              np.arange(len(self._w))).ravel()
        vals = (self.p[:, None] * self._w).ravel()
        n = len(self._table.elements)
        first = np.full(n, len(flat))
        np.minimum.at(first, flat, np.arange(len(flat)))
        ids = np.flatnonzero(first < len(flat))
        ids = ids[np.argsort(first[ids])]
        p = np.bincount(flat, weights=vals, minlength=n)[ids]
        cap = self.support_cap
        if cap is not None and len(p) * self._largest_orbit > cap:
            ids, p = self._prune(ids, p, cap)
        self.ids, self.p = ids, p

    def _prune(self, ids: np.ndarray, p: np.ndarray, cap: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """The kept entries: those whose mass per element lies above a
        threshold, in support order, then the ties at it in `encode` order,
        while the kept elements number at most cap."""
        enc, elements = self.group.encode, self._table.elements

        def by_encode(ts):
            return sorted(ts.tolist(), key=lambda t: enc(elements[ids[t]]))

        sizes, w = None, p
        if self.lumped:
            sizes = self._table.values(self._orbit_size, ids)
            w = p / sizes
            order = np.argsort(-w, kind="stable")
            # orbits 0..k-1 of this order (support order within a class)
            # fit under the cap; the cut runs through the class of the k-th
            k = int(np.searchsorted(np.cumsum(sizes[order]), cap, "right"))
            if k == len(w):
                return ids, p
            thresh = w[order[k]]
            first = by_encode(np.flatnonzero(w == thresh))[0]
            if sizes[first] > cap - sizes[w > thresh].sum():
                # not even its first orbit by encode fits: the cut lies
                # above the class
                thresh = w[order[k - 1]] if k else np.inf
        else:
            thresh = np.partition(p, len(p) - cap)[len(p) - cap]
        above = w > thresh
        ties = by_encode(np.flatnonzero(w == thresh))
        if sizes is None:
            # fewer than cap entries lie above thresh, so room >= 1
            ties = ties[:cap - int(np.count_nonzero(above))]
        else:
            room = cap - sizes[above].sum()
            ties = ties[:int(np.searchsorted(np.cumsum(sizes[ties]), room,
                                             "right"))]
        drop = ~above
        drop[ties] = False
        self.dropped += float(p[drop].sum())
        return (np.concatenate([ids[above], ids[ties]]),
                np.concatenate([p[above], p[ties]]))

    def lookup(self, fn: Callable[[Element], object], dtype=np.intp
               ) -> np.ndarray:
        """fn of each support element, computed once per element."""
        return self._table.values(fn, self.ids, dtype)

    def take(self, pred: Callable[[Element], bool]
             ) -> List[Tuple[Element, float]]:
        """Remove the entries whose element satisfies pred; return them."""
        mask = self.lookup(pred, bool)
        elements = self._table.elements
        hits = [(elements[i], v) for i, v in
                zip(self.ids[mask].tolist(), self.p[mask].tolist())]
        self.ids, self.p = self.ids[~mask], self.p[~mask]
        return hits

    def dist(self) -> Dict[Element, float]:
        elements = self._table.elements
        return dict(zip([elements[i] for i in self.ids.tolist()],
                        self.p.tolist()))


def step_sums(measure: Measure, key: Callable[[Element], int], n_bins: int,
              n_steps: int,
              restrictions: Sequence[Optional[Callable[[Element], bool]]]
              = (None,),
              support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
              lump: bool = False,
              ) -> Tuple[np.ndarray, ...]:
    """The one float step-sum core: S[b, k] = sum of p_k(e, x) over the x
    with key(x) = b, for 0 <= b < n_bins and 0 <= k <= n_steps, from one
    `FloatWalk` sweep from e.  Keys at or above n_bins drop out.

    Returns one S per restriction (None: every element; else only the
    elements the predicate accepts), then M, where M[k] is the mass the
    support cap pruned by step k: each S[b, k] is a lower bound within
    M[k] of the unpruned value.  A sum sum_k r^k p_k is then S @ r^k for
    any r.  Pass lump when the key and every restriction are constant on
    the orbits of the group's symmetries: the walk may then run on orbits
    (see `FloatWalk`).
    """
    walk = FloatWalk(measure, {measure.group.identity(): 1.0}, support_cap,
                     lump)
    S = np.zeros((len(restrictions), n_bins, n_steps + 1))
    dropped = np.zeros(n_steps + 1)
    for k in range(n_steps + 1):
        if k:
            walk.step()
        b = walk.lookup(key)
        for Sj, restriction in zip(S, restrictions):
            inside = (slice(None) if restriction is None
                      else walk.lookup(restriction, bool))
            # bincount adds in support order, one entry after another
            Sj[:, k] = np.bincount(b[inside], weights=walk.p[inside],
                                   minlength=n_bins)[:n_bins]
        dropped[k] = walk.dropped
    return (*S, dropped)


# ---------------------------------------------------------------------------
# tree and tree-product resolvent engines


def tree_chain_step(l: int, v: np.ndarray) -> np.ndarray:
    """One step of the lazy tree walk projected to the distance from e.

    The last entry is a buffer; callers keep the vector wide enough that
    it stays empty.
    """
    out = 0.5 * v.copy()
    out[1] += 0.5 * v[0]
    out[0] += v[1] / (2 * l)
    out[1:-1] += v[2:] / (2 * l)
    out[2:] += v[1:-1] * ((l - 1) / (2 * l))
    return out


def tree_distance_law(l: int, n_max: int, d_max: int) -> np.ndarray:
    """P[k, d] = P(|X_k| = d) for the lazy tree walk, 0 <= k <= n_max and
    0 <= d <= d_max."""
    v = np.zeros(n_max + d_max + 2)
    v[0] = 1.0
    P = np.empty((n_max + 1, d_max + 1))
    P[0] = v[: d_max + 1]
    for k in range(1, n_max + 1):
        v = tree_chain_step(l, v)
        P[k] = v[: d_max + 1]
    return P


def tree_sphere_sizes(l: int, n_max: int) -> np.ndarray:
    """|S(d)| on T_l for d = 0..n_max: 1, then l (l - 1)^(d - 1); floats."""
    sizes = [1.0]  # Python floats, which overflow to inf without a warning
    for d in range(1, n_max + 1):
        sizes.append(sizes[-1] * ((l - 1) if d > 1 else l))
    return _finite_sizes(np.array(sizes), np.arange(n_max + 1), f"T_{l}")


def _finite_sizes(sizes, n, name):
    """sizes (of name, at radii n), or ValueError past the float range."""
    if np.isinf(sizes).any():
        first = int(n[np.isinf(sizes)].min())
        raise ValueError(f"the sphere sizes of {name} pass the float range "
                         f"at n = {first}; n_max must be below {first}")
    return sizes


def _tree_c(l: int) -> float:
    """c = 2 sqrt(l - 1) / l, the simple walk's spectral radius on T_l."""
    return 2.0 * math.sqrt(l - 1) / l


def tree_first_passage(l: int, w):
    """The first-passage value F = l (w - s) / (2 (l - 1)) of
    `tree_resolvent` (c and s as there), computed as 2 / (l (w + s)): the
    same value without the cancellation in w - s at large w, i.e. small r.
    Elementwise in w, real or complex."""
    c = _tree_c(l)
    if np.iscomplexobj(w):
        s = np.sqrt(w - c) * np.sqrt(w + c)
    else:
        s = np.sqrt(np.maximum(w - c, 0.0)) * np.sqrt(w + c)
    return 2.0 / (l * (w + s))


def tree_rate(l: int, tau):
    """log((l - 1) F), F = `tree_first_passage` at w = 2 tau: the growth
    rate of the tree's sphere sums at tau = 1/r - 1/2, and the factor rate
    phi(tau) of `bitree`.  Elementwise in tau."""
    return np.log((l - 1.0) * tree_first_passage(l, 2.0 * tau))


def tree_resolvent(l: int, w, d_max: int) -> np.ndarray:
    """(w - S)^(-1)(e, x) for |x| = 0..d_max along a new last axis, S the
    simple random walk operator on T_l.

    With c = 2 sqrt(l - 1) / l, the spectral radius of S, and
    s = sqrt(w - c) sqrt(w + c), F = l (w - s) / (2 (l - 1)) is the
    first-passage value to a neighbour and (w - S)^(-1)(e, x) =
    F^|x| / (w - F) (Woess, Random Walks on Infinite Graphs and Groups,
    CUP 2000); F is `tree_first_passage`.  w may be a complex array off
    [-c, c]; real w must be >= c, and w = c (up to rounding) is the edge.
    """
    w = np.asarray(w)
    F = tree_first_passage(l, w)
    return F[..., None] ** np.arange(d_max + 1) / (w - F)[..., None]


def tree_rho(l: int) -> float:
    """Spectral radius 1/2 + c/2 of the lazy walk 1/2 + S/2 on T_l."""
    return 0.5 + _tree_c(l) / 2


def treeprod_rho(l1: int, l2: int, a1: float) -> float:
    """Spectral radius a1 rho1 + (1 - a1) rho2 of the product-mix walk on
    T_l1 x T_l2; its radius of convergence is R = 1 / rho."""
    return a1 * tree_rho(l1) + (1.0 - a1) * tree_rho(l2)


def _delta(*shape) -> np.ndarray:
    out = np.zeros(shape)
    out[(0,) * len(shape)] = 1.0
    return out


def tree_green_by_distance(l: int, r: float, d_max: int) -> np.ndarray:
    """G(e, x | r) of the lazy tree walk, indexed by |x| = 0..d_max.

    The walk is 1/2 + S/2, so G = (2 / r) (w - S)^(-1) at the real point
    w = 2 / r - 1, read from `tree_resolvent`: a closed form, exact up to
    rounding, for 0 <= r <= R = 1 / rho.
    """
    R = 1.0 / tree_rho(l)
    if not 0.0 <= r <= R:
        raise ValueError(f"the tree engine needs 0 <= r <= R = {R!r}, "
                         f"got r = {r}")
    if r == 0.0:
        return _delta(d_max + 1)  # G = delta_e
    return (2.0 / r) * tree_resolvent(l, 2.0 / r - 1.0, d_max)


# The tree-product walk is rA + rB with A = 1/4 + (a1/2) S1 on the first
# factor and B = 1/4 + (a2/2) S2 on the second.  The two commute, and for
# 0 < r < R the spectrum of rA lies left of 1 - spec(rB), so
#   G(e, (x1, x2) | r) = (1/2 pi i) oint (z - rA)^(-1)(e, x1)
#                                        (1 - z - rB)^(-1)(e, x2) dz
# over a contour around spec(rA) only (the residue of 1 / ((z - x)(1 - z
# - y)) at z = x is 1 / (1 - x - y)).  The contour is the ellipse
# z = r/4 + (f/2)(u + 1/u), u = rho0 e^(i theta), whose foci r/4 -+ f,
# f = r a1 c1 / 2, are the ends of spec(rA).  On it the first factor sits
# at w1 = (c1/2)(u + 1/u), the Joukowski map, so F1 = 1 / (sqrt(l1 - 1) u)
# has constant modulus.  Its right vertex r/4 + f (rho0 + 1/rho0) / 2 lies
# halfway between spec(rA) and 1 - spec(rB), whose left end is kappa f
# right of r/4; rho_out = kappa + sqrt(kappa^2 - 1) puts the vertex on it.
# The integrand h(theta) is analytic in u on the annulus
# rho_in < |u| < rho_out, rho_in = max(1/rho_out, 1/sqrt(l1 - 1)) (inside
# |u| = 1 the first factor continues through its cut, F1 staying
# 1 / (sqrt(l1 - 1) u), up to the pole of 1 / (w1 - F1) at
# |u| = 1/sqrt(l1 - 1)).  The M-node trapezoid rule in theta then errs by
# at most H(rho) x^M / (1 - x^M) from each side, x = rho0 / rho outside
# and rho / rho0 inside, H(rho) the largest |h| on |u| = rho
# (Trefethen & Weideman, SIAM Review 56, 2014).

MAX_NODES = 1 << 16  # the most trapezoid nodes a tolerance may ask for
# circles the bound is tried on, as fractions of the log-distance from
# |u| = rho0 to the edge of the annulus on each side
_BOUND_FRACTIONS = (0.25, 0.5, 0.75, 0.9)


def _treeprod_contour(l1: int, l2: int, a1: float, r: float
                      ) -> Tuple[float, float, float]:
    """(rho0, rho_in, rho_out) of the contour for 0 < r < R."""
    R = 1.0 / treeprod_rho(l1, l2, a1)
    if not 0.0 < r < R:
        raise ValueError(f"the tree-product engine needs 0 <= r < R = "
                         f"{R!r}, got r = {r}")
    c1, c2 = _tree_c(l1), _tree_c(l2)
    kappa = (1.0 - r / 2 - r * (1.0 - a1) * c2 / 2) / (r * a1 * c1 / 2)
    k0 = (1.0 + kappa) / 2
    rho0 = k0 + math.sqrt(max(k0 * k0 - 1.0, 0.0))
    rho_out = kappa + math.sqrt(max(kappa * kappa - 1.0, 0.0))
    return rho0, max(1.0 / rho_out, 1.0 / math.sqrt(l1 - 1)), rho_out


def _treeprod_w2(a1, r, z):
    """The second factor's resolvent point for contour point z."""
    return 2.0 * (1.0 - z - r / 4) / (r * (1.0 - a1))


def treeprod_green_by_distance(l1: int, l2: int, a1: float, r: float,
                               n: int, d1_max: int, d2_max: int
                               ) -> np.ndarray:
    """G(e, (x1, x2) | r) of the product-mix walk, indexed by the pair of
    factor distances, from the n-node trapezoid rule on the contour above.

    `treeprod_error` gives the node count for a tolerance and bounds what
    the rule leaves out; rounding adds an absolute error of about machine
    epsilon times the largest term, so values far below G(e, e | r), at
    large distances and small r, keep fewer relative digits.  Valid for
    0 <= r < R.
    """
    if r == 0.0:
        return _delta(d1_max + 1, d2_max + 1)  # G = delta_e
    rho0 = _treeprod_contour(l1, l2, a1, r)[0]
    c1 = _tree_c(l1)
    u = rho0 * np.exp(2j * math.pi * np.arange(n) / n)
    w1 = (c1 / 2) * (u + 1.0 / u)
    z = r / 4 + (r * a1 / 2) * w1
    # dz = i (r a1 c1 / 4)(u - 1/u) d theta, times the factors 2 / (r a1)
    # and 2 / (r a2) of the two resolvents, over 2 pi i, for weight 2 pi / n
    wts = c1 * (u - 1.0 / u) / (r * (1.0 - a1) * n)
    R1 = tree_resolvent(l1, w1, d1_max) * wts[:, None]
    R2 = tree_resolvent(l2, _treeprod_w2(a1, r, z), d2_max)
    return (R1.T @ R2).real


def _treeprod_circle(l1, l2, a1, r, rho):
    """(A, p, q) with |h| <= A p^d1 q^d2 on |u| = rho, elementwise in rho.

    |dz/dtheta| <= (f/2)(rho + 1/rho); |F1| = p = 1 / (sqrt(l1 - 1) rho)
    and |w1 - F1| = (sqrt(l1 - 1)/l1) |u^2 - 1/(l1 - 1)| / |u| >= L1.  The
    z-ellipse of |u| = rho (or 1/rho) lies left of the vertical line
    through its right vertex, and the level curve of |F2| through that
    vertex (an ellipse with its foci at the ends of 1 - spec(rB)) right of
    it, so |F2| <= q and |w2 - F2| >= L2, their values at the vertex.
    """
    c1 = _tree_c(l1)
    k = math.sqrt(l1 - 1)
    L1 = (k / l1) * (rho * rho - 1.0 / (l1 - 1)) / rho
    big = np.maximum(rho, 1.0 / rho)
    w2 = _treeprod_w2(a1, r, r / 4 + (r * a1 * c1 / 4) * (big + 1.0 / big))
    F2 = tree_first_passage(l2, w2)
    res0, res1 = 1.0 / (w2 - F2), F2 / (w2 - F2)
    A = c1 * (rho + 1.0 / rho) * res0 / (r * (1.0 - a1) * L1)
    return A, 1.0 / (k * rho), res1 / res0


def treeprod_error(l1: int, l2: int, a1: float, r: float, d1_max: int,
                   d2_max: int, tol: float,
                   reduce: Callable[[np.ndarray], np.ndarray],
                   ) -> Tuple[int, np.ndarray]:
    """Node count for `tol`, and the proved bound on what the rule leaves
    out, for 0 <= r < R.

    E[d1, d2], (d1_max + 1) x (d2_max + 1), bounds the error of one element
    at distances (d1, d2); `reduce` maps such a matrix (linearly, with
    nonnegative weights) to the errors the caller reports, e.g. sphere
    sums.  Returns the smallest node count M with every entry of reduce(E)
    at most tol, and reduce(E) at M.  Raises ValueError if M would exceed
    MAX_NODES.  The eight circles' bounds come in one pass, F2 through
    `tree_first_passage`; each side's four grids A p^d1 q^d2 form one array.
    """
    if r == 0.0:  # G = delta_e, no nodes needed
        return 0, reduce(np.zeros((d1_max + 1, d2_max + 1)))
    rho0, rho_in, rho_out = _treeprod_contour(l1, l2, a1, r)
    d1 = np.arange(d1_max + 1)[:, None]
    d2 = np.arange(d2_max + 1)[None, :]
    rhos = [[rho0 * (edge / rho0) ** t for t in _BOUND_FRACTIONS]
            for edge in (rho_out, rho_in)]  # floats, so ** keeps its bits
    sides = []
    with np.errstate(over="ignore"):
        for side, A, p, q in zip(rhos, *_treeprod_circle(
                l1, l2, a1, r, np.array(rhos)[:, :, None, None])):
            best = None
            for rho, E in zip(side, A * p ** d1 * q ** d2):
                K = reduce(E)
                x = min(rho / rho0, rho0 / rho)
                m = (math.log1p(2.0 * float(K.max()) / tol) / -math.log(x)
                     if x < 1.0 else math.inf)
                if best is None or m < best[0]:
                    best = (m, K, x)
            sides.append(best)
    m = max(side[0] for side in sides)
    if not m <= MAX_NODES:
        raise ValueError(
            f"the tree-product rule needs more than MAX_NODES = {MAX_NODES} "
            f"nodes for tol = {tol} at r = {r}")
    M = max(1, math.ceil(m))
    return M, sum(K * x ** M / (1.0 - x ** M) for _, K, x in sides)


def zd_lazy_green(d: int, alpha: float, x: Sequence[int], r: float) -> float:
    """G(e, x | r) for the lazy simple random walk on Z^d by adaptive
    quadrature of the Bessel integral, one class at a time.

    The independent reference for `zd_lazy_green_batch`: no engine calls
    it.  Requires 0 <= alpha < 1 and 0 <= r <= 1; at r = 1 convergence
    needs d >= 3.
    """
    _zd_check(d, alpha, r)
    _zd_classes(d, [x])
    # strip the laziness: G_lazy(x | r) = G_srw(x | r') / (1 - r alpha)
    denom = 1.0 - r * alpha
    r_srw = r * (1.0 - alpha) / denom
    return _zd_srw_green(d, tuple(abs(int(v)) for v in x), r_srw) / denom


def _zd_check(d: int, alpha: float, r: float) -> None:
    """Refuse d < 1, alpha outside [0, 1) and r outside [0, 1] (NaN too),
    and r = 1 below d = 3."""
    if not d >= 1:
        raise ValueError(f"the walk on Z^d needs d >= 1, got d = {d}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"the lazy walk on Z^d needs 0 <= alpha < 1, got "
                         f"alpha = {alpha}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"the Z^d Green function needs 0 <= r <= 1 (it "
                         f"diverges for r > 1), got r = {r}")
    if r == 1.0 and d < 3:
        raise ValueError("Green function at r = 1 needs d >= 3")


def _zd_classes(d: int, classes) -> np.ndarray:
    """The classes as an int array of d columns, or a ValueError that
    names d and the first class that is not d integral coordinates."""
    X = _int_rows(classes)
    if X is None or X.shape[1:] != (d,):
        bad = next((x for x in classes
                    if np.shape(x) != (d,) or _int_rows([x]) is None),
                   classes)
        raise ValueError(f"a class on Z^{d} is a tuple of d = {d} integral "
                         f"coordinates, got {bad!r}")
    return X


def _int_rows(rows) -> Optional[np.ndarray]:
    """rows as an intp array, or None where they are ragged or hold a
    value that is not an integer (1.5, NaN, inf)."""
    try:
        A = np.asarray(rows)
        if A.dtype.kind in "iu":
            return A.astype(np.intp, copy=False)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
            X = A.astype(np.intp)
    except (TypeError, ValueError):
        return None
    return X if np.array_equal(X, A) else None


def _zd_srw_green(d: int, x: Tuple[int, ...], r: float) -> float:
    from scipy.integrate import quad
    from scipy.special import ive

    if r == 0.0:
        return 1.0 if not any(x) else 0.0
    c = r / d

    def integrand(s):
        val = np.exp(-s * (1.0 - r))
        for xi in x:
            val = val * ive(xi, c * s)
        return val

    if r < 1.0:
        # epsabs = 0: quad's default 1.5e-8 would swamp far classes
        val, _ = quad(integrand, 0.0, np.inf, limit=400, epsabs=0.0)
        return float(val)
    # r == 1: split off an analytic tail where ive is in its asymptotic range
    xmax = max(x) if x else 0
    T = max(2.0e4, 80.0 * xmax * xmax / c)
    val, _ = quad(integrand, 0.0, T, limit=800, epsabs=1e-12, epsrel=1e-11)
    lead = (2.0 * math.pi * c) ** (-d / 2.0)
    corr = sum(4.0 * xi * xi - 1.0 for xi in x) / (8.0 * c)
    tail = lead * (T ** (1.0 - d / 2.0) / (d / 2.0 - 1.0)
                   - corr * T ** (-d / 2.0) / (d / 2.0))
    return float(val + tail)


# a batch rule whose integrand has decayed by e^(-(1 - rs) Te) below this
# at its last panel edge Te needs no tail beyond it
ZD_NEGLIGIBLE = 1e-16

# the error stated for every Z^d Green value on top of the local-CLT
# term: the batch rule's own error lies far below it wherever it has been
# checked against closed forms and 30-digit references, but is not proved;
# its Bessel table (`_ive_table`: two scipy orders and a downward
# recurrence of positive terms, or Cephes i0e and i1e below order 2)
# adds at most ~1e-13 relative
ZD_TAIL = 1e-9

# nodes and weights of the batch rule's Gauss-Legendre panels on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _zd_rule(d: int, alpha: float, m_max: int, r: float):
    """(denom, rs, decay, edges, clt) of the batch rule: the lazy walk's
    Green function is the simple walk's at rs = r (1 - alpha) / denom,
    over denom = 1 - r alpha, and its integrand decays at the rate
    decay = 1 - rs, formed as (1 - r) / denom, which does not cancel as
    rs -> 1.  The panels are geometric from 1 to the first edge Te past
    T = max(2e4, 80 m_max^2 / c), c = rs / d, where ive is in its
    asymptotic range.  clt says whether the local-CLT tail is added past
    Te: unless e^(-decay Te) < ZD_NEGLIGIBLE, so always at r = 1.  No
    edges and no tail at rs = 0, where G = delta_e.  A pure function of
    its arguments: `_zd_sums` recomputes the batch's rule from them."""
    denom = 1.0 - r * alpha
    rs = r * (1.0 - alpha) / denom
    decay = (1.0 - r) / denom
    if rs == 0.0:
        return denom, rs, decay, (), False
    c = rs / d
    T = max(2.0e4, 80.0 * m_max * m_max / c)
    n, end = 1, 1.0
    while end < T:
        n, end = n + 1, end * 1.25
    clt = math.exp(-decay * end) >= ZD_NEGLIGIBLE
    return denom, rs, decay, _zd_panels(n)[0], clt


@lru_cache(maxsize=MEMO_SIZE)
def _zd_panels(n: int):
    """(edges, s, w) of the batch rule's first n panels: the edges
    0, 1, 1.25, 1.25^2, ... as a tuple, and the Gauss-Legendre nodes s and
    weights w of all panels, read-only, built once per panel count."""
    edges = [0.0, 1.0]
    while len(edges) <= n:
        edges.append(edges[-1] * 1.25)
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    s = (0.5 * (hi - lo) * _GL_NODES + 0.5 * (lo + hi)).ravel()
    w = (0.5 * (hi - lo) * _GL_WEIGHTS).ravel()
    s.flags.writeable = w.flags.writeable = False
    return tuple(edges), s, w


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) for x > 0 and real s, below s = 0 by the recurrence
    Gamma(s, x) = (Gamma(s + 1, x) - x^s e^-x) / s."""
    from scipy.special import exp1, gamma, gammaincc

    if s > 0.0:
        return float(gammaincc(s, x) * gamma(s))
    if s == 0.0:
        return float(exp1(x))
    return (_upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s


def _zd_clt_tail(d: int, c: float, a: float, T: float,
                 x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """int_T^inf e^(-a s) prod_i ive(x_i, c s) ds from the first two terms
    of ive(n, z) ~ (2 pi z)^(-1/2) (1 - (4 n^2 - 1) / (8 z)): the local
    CLT, and the magnitude of that expansion's last kept term, for the
    classes whose coordinates are the columns of x (one row per
    coordinate).  With nu = d / 2, int_T^inf e^(-a s) s^(-nu) ds is
    a^(nu - 1) Gamma(1 - nu, a T), or T^(1 - nu) / (nu - 1) at a = 0,
    computed once for all classes."""
    nu = d / 2.0
    lead = (2.0 * math.pi * c) ** (-nu)
    corr = sum(4.0 * xi * xi - 1.0 for xi in x) / (8.0 * c)
    if a == 0.0:
        head, last = T ** (1.0 - nu) / (nu - 1.0), corr * T ** (-nu) / nu
    else:
        head = a ** (nu - 1.0) * _upper_gamma(1.0 - nu, a * T)
        last = corr * a ** nu * _upper_gamma(-nu, a * T)
    return lead * (head - last), lead * abs(last)


def _ive_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """ive(m, x) for m = 0..m_max, one row per order, at the nodes x > 0:
    scipy's `ive` at the top two orders, and the lower ones by the
    downward recurrence I_(n-1)(x) = I_(n+1)(x) + (2n / x) I_n(x)
    (DLMF 10.29.1), which adds only positive terms, so every order stays
    within ~2e-13 relative of scipy's.  Below m_max = 2 (the one-point
    calls at e) the rows are scipy's Cephes `i0e` and `i1e`, as accurate
    as `ive` against 40-digit references and about four times cheaper;
    at nodes whose top seed has underflowed below the smallest normal
    float the recurrence would lose all relative accuracy, and those
    nodes take scipy's `ive` at every order."""
    from scipy.special import i0e, i1e, ive

    if m_max < 2:
        return np.array([f(x) for f in (i0e, i1e)[:m_max + 1]])
    table = np.empty((m_max + 1, len(x)))
    table[m_max - 1:] = ive(np.arange(m_max - 1, m_max + 1)[:, None], x)
    two_over_x = 2.0 / x
    for n in range(m_max - 1, 0, -1):
        table[n - 1] = table[n + 1] + n * two_over_x * table[n]
    low = table[m_max] < np.finfo(float).tiny
    if low.any():
        table[:, low] = ive(np.arange(m_max + 1)[:, None], x[low])
    return table


def zd_lazy_green_batch(d: int, alpha: float,
                        classes: Sequence[Tuple[int, ...]], r: float,
                        ) -> Dict[Tuple[int, ...], float]:
    """Lazy-walk Green values on Z^d for many coordinate classes at once:
    the Z^d engine of `green_truncated` and `h_series` (through
    `_zd_sums`, which states its error), for 0 <= alpha < 1 and
    0 <= r <= 1.

    Classes are tuples, or the rows of an int array, of d coordinates
    (sign and order irrelevant; any other length is refused); no classes
    give {}.  The Bessel integral
    (Woess, Random Walks on Infinite Graphs and Groups, CUP 2000) runs on
    one composite Gauss-Legendre grid with one Bessel table shared by all
    classes, which is what makes sphere sums out to n ~ 30 affordable.
    The table (`_ive_table`) calls scipy's `ive` at its top two orders
    only and fills the others by a downward recurrence of positive terms,
    within ~1e-13 relative of `ive` at every order; where no coordinate
    exceeds 1 (as at e, the free-product transfer's one-point call) it is
    Cephes `i0e` and `i1e`, as accurate as `ive` and cheaper.
    The grid depends only on its panel count and is built once per count
    (`_zd_panels`, a bounded memo of read-only arrays); a lone class
    skips the sort and dedupe of the rows.
    The table is evaluated only at the live nodes, whose weight
    w e^(-decay s) has not underflowed to 0: elsewhere every product is 0
    whatever the Bessel factor, so the table holds 0.  The sorted classes
    that share all but their last coordinate share one partial product,
    and each class's row of that group is summed with numpy's pairwise
    sum, as a lone class's product would be: every value is the
    one-class-at-a-time product summed over the whole grid, bit for bit.
    Past the last panel edge the local-CLT tail `_zd_clt_tail` is
    added wherever `_zd_rule` says so (always at r = 1).  Only deeply
    vanishing values (below ~1e-40) lose relative accuracy.
    """
    _zd_check(d, alpha, r)
    if not len(classes):
        return {}
    X = np.sort(np.abs(_zd_classes(d, classes)), axis=1)
    if len(X) > 1:
        X = X[np.lexsort(X.T[::-1])]
        X = X[np.r_[True, (X[1:] != X[:-1]).any(axis=1)]]
    keys = list(map(tuple, X.tolist()))
    m_max = int(X.max())
    denom, rs, decay, edges, clt = _zd_rule(d, alpha, m_max, r)
    if rs == 0.0:
        return {x: (1.0 if not any(x) else 0.0) / denom for x in keys}
    c = rs / d

    # composite Gauss-Legendre on geometrically growing panels
    _, s, w = _zd_panels(len(edges) - 1)
    base = w * np.exp(-s * decay)
    live = base > 0.0
    bessel = np.zeros((m_max + 1, len(s)))
    bessel[:, live] = _ive_table(m_max, c * s[live])

    vals = np.empty(len(X))
    # the classes sharing a prefix X[i, :-1] are contiguous in sorted order
    cut = np.flatnonzero((X[1:, :-1] != X[:-1, :-1]).any(axis=1)) + 1
    for i, j in zip([0, *cut.tolist()], [*cut.tolist(), len(X)]):
        prod = base
        for xi in X[i, :-1].tolist():
            prod = prod * bessel[xi]
        first, last = X[i, -1], X[j - 1, -1]
        # the rows of a run of consecutive last coordinates are a view
        rows = (bessel[first:last + 1] if last - first == j - i - 1
                else bessel[X[i:j, -1]])
        # a contiguous row is summed as the lone 1-D product would be
        vals[i:j] = (prod * rows).sum(axis=1)
    if clt:
        vals += _zd_clt_tail(d, c, decay, edges[-1], X.T)[0]
    return dict(zip(keys, (vals / denom).tolist()))


def _zd_spheres(spec, n_max):
    """The l^1 spheres 0..n_max of Z^d as coordinate-magnitude classes:
    sphere n lists the non-increasing d-tuples v summing to n in
    descending lexicographic order, each as the sorted class v[::-1], with
    its count d! / prod_runs (run length)! times 2^(nonzero coordinates)."""
    d = spec.d
    v = np.zeros((1, 0), np.intp)  # the prefixes so far
    room = np.array([n_max])  # what each prefix leaves under n_max
    for i in range(d):
        n_next = (room if i == 0 else np.minimum(room, v[:, -1])) + 1
        nxt = np.arange(n_next.sum()) - np.repeat(np.cumsum(n_next) - n_next,
                                                  n_next)
        v = np.column_stack([np.repeat(v, n_next, axis=0), nxt])
        room = np.repeat(room, n_next) - nxt
    n = n_max - room
    # by sphere, then descending in v_1, v_2, ...
    order = np.lexsort([*(-v.T)[::-1], n])
    v, n = v[order], n[order]
    mult = np.full(len(v), math.factorial(d))
    run = np.ones(len(v), np.intp)
    for j in range(1, d):
        run = np.where(v[:, j] == v[:, j - 1], run + 1, 1)
        mult //= run
    mult *= 2 ** np.count_nonzero(v, axis=1)
    return np.ascontiguousarray(v[:, ::-1]), n, mult.astype(float)


# ---------------------------------------------------------------------------
# Diestel-Leader engine


def _dl_extra(q: int, rel_tol: float) -> int:
    """Range cutoff K: ranges wider than a class by more than K are cut."""
    return max(2, math.ceil(-math.log(rel_tol) / math.log(q)))


def dl_green_classes(q: int, keys: Sequence[Tuple[int, int, int]],
                     r: float, rel_tol: float = 1e-9,
                     ) -> Dict[Tuple[int, int, int], float]:
    """Green values for DL(q, q) walk classes, for 0 <= r <= 1.

    A class key is (pos, A, B): pos is the Z coordinate of the lamplighter,
    A = min(0, pos, lowest lamp edge), B = max(0, pos, highest lamp edge + 1).
    The projected Z walk must cover [A, B] and end at pos; every distinct
    crossed edge contributes a factor 1/q for the lamp to match.  The class
    value sums e(a, b) q^(a - b) over the ranges [a, b] containing [A, B],
    where e(a, b) weighs the walks from 0 to pos whose range is exactly
    [a, b].  The only approximation is the range cutoff (relative
    rel_tol), and `dl_class_tail` bounds what it drops.

    Such a walk reaches one end of [a, b] before the other, then the other
    end without leaving [a, b], then pos inside [a, b].  With cosh(t) = 1/r
    and S(x, y) = sinh(t x) / sinh(t y) (x / y at r = 1), the three steps
    weigh S(b, b - a) or S(-a, b - a), then S(1, b - a + 1), then
    (2 / r) S(pos - a + 1, b - a + 2) from b or (2 / r) S(b - pos + 1,
    b - a + 2) from a (Woess, Random Walks on Infinite Graphs and Groups,
    CUP 2000).  Every factor is positive, so nothing cancels, and
    S = e^(t (x - y)) expm1(-2 t x) / expm1(-2 t y) does not overflow.

    All keys share one (a, b) grid: each class's ranges are a corner of
    it.  exp and expm1 are tabled once over the integers they are taken
    at, the factors that do not involve pos are formed once on the grid,
    and the e(a, b) q^(a - b) terms once per distinct pos, on the part of
    the grid its classes reach.  Each class sums a contiguous copy of its
    corner, in the order and with the pairwise sum of a grid built for it
    alone, so the values are bit for bit those of one class at a time.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"the DL engine needs 0 <= r <= 1, got r = {r}")
    if r == 0.0 or not keys:
        return {k: float(k == (0, 0, 0)) for k in keys}  # G = delta_e
    pos_, A_, B_ = np.array(keys).T
    if np.any((A_ > np.minimum(pos_, 0)) | (B_ < np.maximum(pos_, 0))):
        raise ValueError("a DL class key (pos, A, B) needs A <= min(0, pos) "
                         "and B >= max(0, pos)")
    extra = _dl_extra(q, rel_tol)
    a_lo, b_hi = int(A_.min()) - extra, int(B_.max()) + extra
    b_lo = int(B_.min())
    a = np.arange(a_lo, int(A_.max()) + 1)[:, None]
    b = np.arange(b_lo, b_hi + 1)[None, :]
    w = b - a
    # e^(t (x - y)) and expm1(-2 t x) at the integers x, y - x <= y; at
    # r = 1, 1 and x, so that S = x / y
    k = np.arange(b_hi - a_lo + 3)
    if r == 1.0:
        ex, em = np.ones(len(k)), k.astype(float)
    else:
        t = math.acosh(1.0 / r)
        ex, em = np.exp(-t * k), np.expm1(-2 * t * k)

    def S(x, y):
        return ex[y - x] * em[x] / em[y]

    # a walk that starts at a = 0 has reached a first; [0, 0] has w = 0
    first_a = np.where(a == 0, 1.0, S(b, np.maximum(w, 1)))
    first_b = S(-a, np.maximum(w, 1))
    weight = 2.0 / r * S(1, w + 1)
    q_w = float(q) ** -w
    out = dict.fromkeys(map(tuple, keys))
    for pos in np.unique(pos_).tolist():
        mine = pos_ == pos
        # a <= A <= pos and b >= B >= pos on every corner of this pos
        i, j = int(A_[mine].max()) - a_lo + 1, int(B_[mine].min()) - b_lo
        ai, bj, wij = a[:i], b[:, j:], w[:i, j:]
        e = weight[:i, j:] * (first_a[:i, j:] * S(pos - ai + 1, wij + 2)
                              + first_b[:i, j:] * S(bj - pos + 1, wij + 2))
        e *= q_w[:i, j:]
        for A, B in zip(A_[mine].tolist(), B_[mine].tolist()):
            corner = np.ascontiguousarray(e[:A - a_lo + 1, B - b_lo - j:])
            out[(pos, A, B)] = float(corner.sum())
    return out


def dl_class_tail(q: int, width: int, r: float,
                  rel_tol: float = 1e-9) -> float:
    """Proved bound on the mass `dl_green_classes` cuts from a class with
    B - A = width, for 0 <= r <= 1.

    A cut range is k = (A - a) + (b - B) > K = `_dl_extra` wider than the
    class, k + 1 ranges have a given k, and a path with range [a, b] takes
    at least b - a steps, so 0 <= e(a, b) <= r^(b - a) G_[a, b](0, pos | 1)
    <= r^(b - a) (b - a + 2) / 2, the walk being killed outside [a, b].  The
    tail is at most sum_{k > K} (k + 1)(width + k + 2) / 2 x^(width + k),
    x = r / q, which with k = K + 1 + j closes in sums of j^p x^j, p <= 2.
    """
    K, x, c = _dl_extra(q, rel_tol), r / q, width + 2
    s0 = 1.0 / (1.0 - x)
    s1, s2 = x * s0 * s0, x * (1.0 + x) * s0 ** 3
    poly = s2 + (2 * K + 3 + c) * s1 + (K + 2) * (K + 1 + c) * s0
    return 0.5 * x ** (width + K + 1) * poly


def dl_class_key(profile) -> Tuple[int, int, int]:
    """Map a DLProfile to the (pos, A, B) walk class of its elements, the
    class the engine reads from an element as (pos, *lamp_range)."""
    u1, d2, s = profile.u1, profile.d2, profile.s
    pos = (s - d2) - u1
    return (pos, -u1, s - u1)


# ---------------------------------------------------------------------------
# one class table for the structured walks


@dataclass(frozen=True)
class ClassEngine:
    """A walk whose Green function is computed per class of elements:
    `key(group, x)` is the class of x, a tuple of ints; `spheres(spec,
    n_max)` lists the spheres 0..n_max as (classes, row, mult), an int
    array of classes with the sphere of each and its count there; and
    `evaluate(measure, classes, r, tol, reduce)` gives what `sums` returns,
    each part reduced from a per-class array.  A class's value depends
    only on the set of classes asked for.  `returns(measure, n)`, where
    given, is the return probability p_n(e, e) in closed form; without
    it `return_probability` sums steps."""
    key: Callable[[Group, Element], Tuple[int, ...]]
    spheres: Callable[[GroupSpec, int],
                      Tuple[np.ndarray, np.ndarray, np.ndarray]]
    evaluate: Callable[..., Tuple[np.ndarray, np.ndarray, bool]]
    returns: Optional[Callable[[Measure, int], float]] = None

    def sums(self, measure: Measure, classes: np.ndarray, row: np.ndarray,
             mult: np.ndarray, r: float, tol: float
             ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """(values, tails, rigorous) of the rows 0..row[-1], in order: row
        i sums mult * G(e, x | r) over its classes x, its tail bounds the
        error of that sum."""
        n_rows = int(row[-1]) + 1

        def reduce(a):
            # bincount adds each row's classes in order, one after another
            return np.bincount(row, weights=mult * a, minlength=n_rows)

        return self.evaluate(measure, classes, r, tol, reduce)


def _dl_spheres(spec, n_max):
    classes, row, mult = zip(*[(dl_class_key(p), n, c)
                               for n in range(n_max + 1)
                               for p, _, c in dl_sphere_profiles(spec.q, n)])
    return np.array(classes), np.array(row), np.array(mult, float)


def _tree_spheres(spec, n_max):
    d = np.arange(n_max + 1)
    return d[:, None], d, tree_sphere_sizes(spec.l, n_max)


def _tree_sums(measure, classes, r, tol, reduce):
    d = classes[:, 0]
    G = tree_green_by_distance(measure.spec.l, r, int(d.max()))
    return reduce(G[d]), reduce(0.0), True


def _treeprod_spheres(spec, n_max):
    # only the cells d1 + d2 <= n_max enter a sphere (the others
    # overflow); row-major order fixes the order bincount adds them in
    d = np.arange(n_max + 1)
    classes = np.argwhere(np.add.outer(d, d) <= n_max)
    d1, d2 = classes.T
    with np.errstate(over="ignore"):
        mult = (tree_sphere_sizes(spec.l1, n_max)[d1]
                * tree_sphere_sizes(spec.l2, n_max)[d2])
    return classes, d1 + d2, _finite_sizes(mult, d1 + d2, spec)


def _treeprod_sums(measure, classes, r, tol, reduce):
    spec, a1 = measure.spec, float(measure.param("a1"))
    d1, d2 = classes.T
    m1, m2 = int(d1.max()), int(d2.max())
    n, tails = treeprod_error(spec.l1, spec.l2, a1, r, m1, m2, tol,
                              lambda E: reduce(E[d1, d2]))
    G = treeprod_green_by_distance(spec.l1, spec.l2, a1, r, n, m1, m2)
    return reduce(G[d1, d2]), tails, True


def _treeprod_returns(measure, n):
    # p_n(e, e) = sum_k C(n, k) a1^k a2^(n-k) p1_k(0) p2_(n-k)(0), the
    # binomial weights b[k] built up by Pascal's rule
    spec, a1 = measure.spec, float(measure.param("a1"))
    b = np.ones(1)
    for _ in range(n):
        b = np.append((1.0 - a1) * b, 0.0) + np.insert(a1 * b, 0, 0.0)
    p1 = tree_distance_law(spec.l1, n, 0)[:, 0]
    p2 = tree_distance_law(spec.l2, n, 0)[::-1, 0]
    return float(b @ (p1 * p2))


def _zd_sums(measure, classes, r, tol, reduce):
    """`zd_lazy_green_batch`'s values, and the one Z^d error rule: where
    the batch rule adds the local-CLT tail (always at r = 1), a class's
    tail is the magnitude of the expansion's last kept term, and rigorous
    is False, the expansion being asymptotic, not a bound.  The rule is
    the batch's own: `_zd_rule` at the batch's arguments."""
    d, alpha = measure.spec.d, float(measure.param("alpha"))
    values = zd_lazy_green_batch(d, alpha, classes, r)
    G = np.array([values[k] for k in map(tuple, classes.tolist())])
    denom, rs, decay, edges, clt = _zd_rule(d, alpha, int(classes.max()), r)
    extra = reduce(_zd_clt_tail(d, rs / d, decay, edges[-1], classes.T)[1]
                   / denom if clt else 0.0)
    # every element carries ZD_TAIL
    return reduce(G), ZD_TAIL * reduce(1.0) + extra, not clt


def _dl_sums(measure, classes, r, tol, reduce):
    q = measure.spec.q
    rel_tol = min(tol, 1e-9)
    keys = list(map(tuple, classes.tolist()))
    values = dl_green_classes(q, sorted(set(keys)), r, rel_tol)
    widths = (classes[:, 2] - classes[:, 1]).tolist()
    tail = {k: dl_class_tail(q, k, r, rel_tol) for k in set(widths)}
    return (reduce(np.array([values[k] for k in keys])),
            reduce(np.array([tail[k] for k in widths])), True)


# The structured engine of each (spec type, measure kind).  Their errors:
# * tree: a closed form, tail 0, for 0 <= r <= R;
# * tree product: the trapezoid rule with the node count that puts every
#   row's proved tail at most tol; ValueError at r >= R, or where that
#   count would pass MAX_NODES;
# * Z^d: ignores tol; every element carries ZD_TAIL, plus the last kept
#   local-CLT term wherever that tail is added (always at r = 1, and then
#   rigorous is False), see `_zd_sums`;
# * Diestel-Leader: the range cutoff at rel_tol = min(tol, 1e-9) with its
#   proved tail `dl_class_tail`, for 0 <= r <= 1.
CLASS_ENGINES = {
    (RegularTree, "tree-lazy"): ClassEngine(
        lambda g, x: (g.word_length(x),), _tree_spheres, _tree_sums,
        lambda m, n: float(tree_distance_law(m.spec.l, n, 0)[n, 0])),
    (TreeProduct, "product-mix"): ClassEngine(
        lambda g, x: (len(x[0]), len(x[1])), _treeprod_spheres,
        _treeprod_sums, _treeprod_returns),
    (FreeAbelian, "lazy-srw"): ClassEngine(
        lambda g, x: tuple(sorted(abs(v) for v in x)),
        _zd_spheres, _zd_sums),
    (DiestelLeader, "dl-srw"): ClassEngine(
        lambda g, x: (x[0], *g.lamp_range(x)), _dl_spheres, _dl_sums),
}


def class_engine(measure: Measure) -> Optional[ClassEngine]:
    """The structured engine of the measure, or None: its walk reads the
    step sums."""
    return CLASS_ENGINES.get((type(measure.spec), measure.kind))


# ---------------------------------------------------------------------------
# Green estimates


@dataclass(frozen=True)
class GreenEstimate:
    value: float
    n_terms: int
    tail: float
    rigorous: bool


def _heuristic_tail(terms: List[float]) -> float:
    tail_terms = [t for t in terms[-8:] if t > 0]
    if len(tail_terms) < 2:
        return 0.0
    ratios = [tail_terms[i + 1] / tail_terms[i]
              for i in range(len(tail_terms) - 1)]
    rho = min(0.999, max(ratios))
    return tail_terms[-1] * rho / (1.0 - rho)


def green_truncated(measure: Measure, targets: Sequence[Element], r: float,
                    tol: float = 1e-9, max_terms: Optional[int] = None,
                    support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                    ) -> Dict[Element, GreenEstimate]:
    """Truncated Green function G(e, x | r) for each target element.

    The walks of `class_engine` (trees, tree products, Z^d,
    Diestel-Leader) sum no steps and ignore max_terms: each target is one
    row of their evaluator, with the error rules of `CLASS_ENGINES`, and
    n_terms = -1 marks a value that is not a truncation.  So do free
    products whose two factors are such walks (`composes`): their values
    are `freeprod_green`'s product formula, with a two-sided tail, and
    they ignore max_terms and support_cap.

    Every other walk reads one `step_sums` sweep binned by target.  Its
    truncation order comes from the closed-form spectral radius when
    available with r * rho < 1 (rigorous tail bound), else from max_terms
    with a heuristic tail estimate on the return series of e, flagged via
    ``rigorous=False``; a support cap that pruned mass M_k by step k adds
    sum_k r^k M_k to the tail.  Every walk whose spectral radius rho is
    known in closed form (trees, tree products, Z^d, Heisenberg) raises
    ValueError at r > 1/rho; tol <= 0 or NaN raises ValueError.
    """
    check_request(measure, r, tol)
    targets = list(dict.fromkeys(targets))
    if not targets:
        return {}
    engine = class_engine(measure)
    if engine is not None:
        n, group = len(targets), measure.group
        values, tails, rigorous = engine.sums(
            measure, np.array([engine.key(group, x) for x in targets]),
            np.arange(n), np.ones(n), r, tol)
    elif composes(measure):
        values, tails, rigorous = freeprod_green(measure, targets, r, tol)
    else:
        return _green_generic(measure, targets, r, tol, max_terms,
                              support_cap)
    return {x: GreenEstimate(v, -1, t, rigorous)
            for x, v, t in zip(targets, values.tolist(), tails.tolist())}


def _pick_n(measure, r, tol, max_terms, default=64):
    """(N, tail): the smallest N whose tail sum_{n>N} (r rho)^n is <= tol,
    rho the spectral radius; or else max_terms (default) steps and tail
    None, where rho is unknown, r rho >= 1 or that N exceeds max_terms."""
    rho = known_spectral_radius(measure)
    if rho is None or r * rho >= 1.0:
        return (max_terms if max_terms is not None else default), None
    x = r * rho
    n_rig = (0 if x == 0.0 else
             max(0, math.ceil(math.log(tol * (1.0 - x)) / math.log(x) - 1.0)))
    if max_terms is not None and max_terms < n_rig:
        return max_terms, None
    return n_rig, x ** (n_rig + 1) / (1.0 - x)


def _green_generic(measure, targets, r, tol, max_terms, support_cap):
    """One `step_sums` sweep binned by target; e always gets a bin, since
    its return series drives the heuristic tail."""
    n_max, tail = _pick_n(measure, r, tol, max_terms)
    e = measure.group.identity()
    index = {x: i for i, x in enumerate(dict.fromkeys([*targets, e]))}
    n_bins = len(index)
    S, dropped = step_sums(measure, lambda x: index.get(x, n_bins), n_bins,
                           n_max, support_cap=support_cap)
    powers = float(r) ** np.arange(n_max + 1)
    # p_n(e, x) <= rho^n: each tail is at most sum_{n > n_max} (r rho)^n
    rigorous = tail is not None
    if not rigorous:
        tail = _heuristic_tail(list(S[index[e]] * powers))
    tail = float(tail + dropped @ powers)
    return {x: GreenEstimate(float(S[index[x]] @ powers), n_max, tail,
                             rigorous)
            for x in targets}


# ---------------------------------------------------------------------------
# free products: the factor equations, and the series composed from them


# transfer stops when no w moves by more than STEP_TOL, and gives up after
# MAX_ITERATIONS updates
STEP_TOL = 1e-14
MAX_ITERATIONS = 2000
# the post-fixed check tries w_bar = w (1 + delta) + delta at these delta
POST_FIXED_DELTAS = (1e-8, 1e-6, 1e-4)


@dataclass(frozen=True)
class TransferPoint:
    alpha: float
    r: float
    w0: float
    w1: float
    zeta0: float
    zeta1: float
    truncation: int


def _excursions(factor: Measure, c: float, w: float) -> float:
    """(1 - w) U(c / (1 - w)): first returns of the factor walk, weight c
    per step, with excursions of weight w inserted at each interior visit."""
    e = factor.group.identity()
    g = green_truncated(factor, [e], c / (1.0 - w))[e].value
    return (1.0 - w) * (1.0 - 1.0 / g)


def transfer(spec: FreeProduct, measure: Optional[Measure], r: float,
             n_max: Optional[int] = None, support_cap: Optional[int] = None,
             ) -> TransferPoint:
    """w_i(r), zeta_i(r): the least solution of the factor equations.

    w_0 tags first steps from the alpha * mu_1 component and shifts the
    *left* factor, zeta_0 = (1-alpha) r / (1-w_0); symmetrically for w_1.
    From w = 0, w_0 and then w_1 are updated until no w moves by more than
    STEP_TOL.  U_i has nonnegative coefficients and U_i < 1, so the
    iterates increase to the solution and stay below it and below 1: no
    engine is called past its radius while r < R_mu.  n_max and
    support_cap are ignored (no sweep runs); truncation is -1.  Raises
    ValueError at r < 0 and at or past R_mu, where an engine refuses its
    zeta or MAX_ITERATIONS steps do not settle (which can also happen just
    below R_mu where the two equations become tangent).

    The solution is memoized per (measure, r), MEMO_SIZE entries, after
    the measure is checked against spec: the ignored n_max and
    support_cap are not part of the key, and a refused r is not kept, so
    it raises again.
    """
    measure = _measure_on(spec, measure)
    alpha = float(measure.param("alpha"))
    w0, w1 = _memo_transfer(measure, float(r))
    return TransferPoint(alpha, r, w0, w1, (1.0 - alpha) * r / (1.0 - w0),
                         alpha * r / (1.0 - w1), -1)


def _solve_transfer(measure: Measure, r: float) -> Tuple[float, float]:
    """(w_0, w_1) of `transfer`, by its monotone iteration."""
    alpha = float(measure.param("alpha"))
    w0 = w1 = 0.0
    for _ in range(MAX_ITERATIONS):
        new0 = _excursions(measure.param("right"), alpha * r, w1)
        new1 = _excursions(measure.param("left"), (1.0 - alpha) * r, new0)
        step = max(abs(new0 - w0), abs(new1 - w1))
        w0, w1 = new0, new1
        if step <= STEP_TOL:
            return w0, w1
    raise ValueError(f"the transfer equations did not settle in "
                     f"{MAX_ITERATIONS} steps at r = {r}: r is at or past "
                     f"the free product's radius")


_memo_transfer = lru_cache(maxsize=MEMO_SIZE)(_solve_transfer)


def composes(measure: Measure) -> bool:
    """True for the mixed walk of a free product whose two factors have a
    class engine: `freeprod_green` and `freeprod_sphere_sums` compose its
    Green values and sphere sums from theirs, and no step is summed."""
    return measure.kind == "freeprod-mix" and all(
        class_engine(measure.param(side)) is not None
        for side in ("left", "right"))


def _freeprod_ends(measure: Measure, r: float, tol: float, rows):
    """G(e, e | r) and the factors' first-passage rows F_i = G_i(e, . |
    zeta_i) / G_i(e, e | zeta_i) at the lower end, the centre and the
    upper end of a bracket; and whether the bracket is proved.

    rows[i] = (classes, row, mult) asks factor i's class engine (0 left, 1
    right) for its rows; row 0 is the identity alone, and F_i[0] = 1.  The
    centre reads `transfer`'s w and the engines' values.  The lower end
    takes that w, which the monotone iteration approaches from below, and
    value - tail over G_i(e, e) + tail.  The upper end takes the first
    w_bar = w (1 + delta) + delta of POST_FIXED_DELTAS at which transfer's
    update map, fed G_i(e, e) + tail, gives T(w_bar) <= w_bar: since the
    solution is the least fixed point of a monotone map, that proves
    w <= w_bar; there it reads value + tail over G_i(e, e) - tail at
    zeta(w_bar).  Where no delta proves it, the first w_bar the engines
    accept (else w) serves, and the bracket is not proved.  Every
    coefficient of F_i and G(e, e | r) = 1 / (1 - w_0 - w_1) grows with w
    and with the factor values, so the two ends bound what they compose.
    """
    alpha = float(measure.param("alpha"))
    factors = (measure.param("left"), measure.param("right"))
    tp = transfer(measure.spec, measure, r)
    w = (tp.w0, tp.w1)

    def sums(w):
        zetas = ((1.0 - alpha) * r / (1.0 - w[0]), alpha * r / (1.0 - w[1]))
        return [class_engine(f).sums(f, *rows[i], zetas[i], tol)
                for i, f in enumerate(factors)]

    centre = sums(w)
    upper, proved = None, False
    for delta in POST_FIXED_DELTAS:
        w_bar = tuple(x * (1.0 + delta) + delta for x in w)
        if w_bar[0] + w_bar[1] >= 1.0:
            break
        try:
            at_bar = sums(w_bar)
        except ValueError:  # a zeta past its factor's radius
            break
        upper = upper or (w_bar, at_bar)
        if _post_fixed(w_bar, *(values[0] + tails[0]
                                for values, tails, _ in at_bar)):
            upper, proved = (w_bar, at_bar), True
            break
    w_bar, at_bar = upper or (w, centre)

    def point(w, evaluated, sign):
        f = [np.concatenate(([1.0], np.maximum(values[1:] + sign * tails[1:],
                                               0.0)
                                    / (values[0] - sign * tails[0])))
             for values, tails, _ in evaluated]
        return 1.0 / (1.0 - w[0] - w[1]), f

    rigorous = proved and all(rig for *_, rig in centre + at_bar)
    return ([point(w, centre, -1.0), point(w, centre, 0.0),
             point(w_bar, at_bar, 1.0)], rigorous)


def _post_fixed(w_bar: Tuple[float, float], g0: float, g1: float) -> bool:
    """T(w_bar) <= w_bar for the update map T of `transfer`, given upper
    bounds g_i on G_i(e, e | zeta_i(w_bar)): w_0 reads the right factor's
    G(e, e), w_1 the left factor's."""
    return ((1.0 - w_bar[1]) * (1.0 - 1.0 / g1) <= w_bar[0]
            and (1.0 - w_bar[0]) * (1.0 - 1.0 / g0) <= w_bar[1])


def _two_sided(lower, centre, upper):
    """The centre, and the wider of its two distances to the ends."""
    return centre, np.maximum(upper - centre, centre - lower)


def freeprod_green(measure: Measure, targets: Sequence[Element], r: float,
                   tol: float) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(values, tails, rigorous) of the targets, as `ClassEngine.sums`
    gives them: G(e, x | r) = G(e, e | r) prod_j F_{i_j}(e, x_j |
    zeta_{i_j}) over the syllables x_j of x in factor i_j (Woess, Random
    Walks on Infinite Graphs and Groups, CUP 2000), from one class-engine
    call per factor and bracket end; see `_freeprod_ends` for the
    two-sided tail."""
    factors = (measure.param("left"), measure.param("right"))
    index = [{f.group.identity(): 0} for f in factors]
    for x in targets:
        for side, y in x:
            index[side].setdefault(y, len(index[side]))
    rows = []
    for f, ids in zip(factors, index):
        engine = class_engine(f)
        n = len(ids)
        rows.append((np.array([engine.key(f.group, y) for y in ids]),
                     np.arange(n), np.ones(n)))
    ends, rigorous = _freeprod_ends(measure, r, tol, rows)
    out = []
    for g_ee, f in ends:
        values = []
        for x in targets:
            v = g_ee
            for side, y in x:
                v *= f[side][index[side][y]]
            values.append(v)
        out.append(np.array(values))
    return (*_two_sided(*out), rigorous)


def freeprod_sphere_sums(measure: Measure, r: float, n_max: int, tol: float
                         ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]],
                                    bool]:
    """(values, tails) for n = 0..n_max of the sphere sums H_r(n) of the
    free product, then of its sums over the spheres of factor 0 and of
    factor 1; and rigorous.  With Phi_i(z) = sum_{n>=1} H_i(n; zeta_i) z^n
    / G_i(e, e | zeta_i) from the factors' own sphere rows, the series are
    G(e, e | r) (1 + Phi_0)(1 + Phi_1) / (1 - Phi_0 Phi_1) and
    G(e, e | r) (1 + Phi_i); `_freeprod_ends` gives the two-sided tail."""
    rows = [class_engine(f).spheres(f.spec, n_max)
            for f in (measure.param("left"), measure.param("right"))]
    ends, rigorous = _freeprod_ends(measure, r, tol, rows)
    out = []
    for g_ee, (f0, f1) in ends:
        # 1 / (1 - Phi_0 Phi_1) term by term; Phi_0 Phi_1 starts at z^2
        p = np.convolve(f0 - _delta(n_max + 1), f1 - _delta(n_max + 1))
        q = np.convolve(f0, f1)[:n_max + 1]
        for n in range(2, n_max + 1):
            q[n] += p[1:n + 1] @ q[n - 1::-1]
        out.append((g_ee * q, g_ee * f0, g_ee * f1))
    return [_two_sided(*parts) for parts in zip(*out)], rigorous


# ---------------------------------------------------------------------------
# first-return kernels


def first_return_coefficients(measure: Measure,
                              member: Callable[[Element], bool],
                              n_max: int,
                              first_step: Optional[Dict[Element, object]] = None,
                              support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                              ) -> Dict[Element, np.ndarray]:
    """Per-step mass of first entries into the member set.

    coeffs[y][n] = P(X_n = y, X_k not in member for 1 <= k < n), starting
    at the identity.  A custom (sub-probability) first-step distribution
    supports the mixed-measure first-return quantities of free-product
    transfer.  Values are certified lower bounds under support pruning.
    """
    if first_step is None:
        first_step = dict(measure.weights)
    walk = FloatWalk(measure, first_step, support_cap)
    coeffs: Dict[Element, np.ndarray] = {}
    for n in range(1, n_max + 1):
        if n > 1:
            walk.step()
        for y, v in walk.take(member):
            if y not in coeffs:
                coeffs[y] = np.zeros(n_max + 1)
            coeffs[y][n] += float(v)
    return coeffs


@dataclass(frozen=True)
class FirstReturnKernel:
    kernel: Dict[Element, float]
    total_mass_lower: float
    n_terms: int


def first_return_kernel(measure: Measure, member: Callable[[Element], bool],
                        r: float, n_max: int = 24,
                        support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                        ) -> FirstReturnKernel:
    """First-return kernel p_{r}(e, y) over y in the member set, with the
    certified lower bound on its total mass t_r."""
    coeffs = first_return_coefficients(measure, member, n_max,
                                       support_cap=support_cap)
    powers = np.array([float(r) ** n for n in range(n_max + 1)])
    kernel = {y: float(c @ powers) for y, c in coeffs.items()}
    return FirstReturnKernel(kernel=kernel,
                             total_mass_lower=float(sum(kernel.values())),
                             n_terms=n_max)


# ---------------------------------------------------------------------------
# spectral radius lower bounds


def return_probability(measure: Measure, n: int,
                       support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                       ) -> float:
    """p_n(e, e): the closed form `ClassEngine.returns` of the measure's
    class engine where it has one (trees, tree products), else the
    lumped step sums, pruned at support_cap."""
    engine = class_engine(measure)
    if engine is not None and engine.returns is not None:
        return engine.returns(measure, n)
    e = measure.group.identity()
    S, _ = step_sums(measure, lambda x: 0 if x == e else 1, 1, n,
                     support_cap=support_cap, lump=True)
    return float(S[0, n])


def spectral_radius_lower(measure: Measure, k: int,
                          support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                          ) -> float:
    """Certified lower bound p_{2k}(e, e)^(1/2k) for the spectral radius.

    Non-decreasing in k by supermultiplicativity of even return
    probabilities (this survives support pruning, which corresponds to a
    killed symmetric kernel).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = return_probability(measure, 2 * k, support_cap=support_cap)
    return p ** (1.0 / (2 * k))
