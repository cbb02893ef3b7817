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
                     error rule (`zd_green_estimates`) for values and
                     sphere sums; `zd_lazy_green` is its adaptive-quad
                     reference and no engine calls it,
* Diestel-Leader  -- path-range decomposition of the lamplighter walk.

Every other step sum -- Green values, sphere sums, return probabilities --
reads one core, `step_sums`: a sweep of `FloatWalk` (interned elements, a
memoized step table) from e, binned by an integer key at every step, so
that any r-dependence is a polynomial evaluation afterwards.  `convolve`
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
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import (
    DiestelLeader, Element, FreeAbelian, FreeProduct, GroupSpec, Group,
    Heisenberg3, RegularTree, TreeProduct, group_for,
)

DEFAULT_SUPPORT_CAP = 1_000_000
# entries kept by each memo of r-independent sweep coefficients
MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Measure:
    """Finitely supported symmetric probability measure on a group."""
    spec: GroupSpec
    kind: str
    params: Tuple[Tuple[str, object], ...]
    weights: "Tuple[Tuple[Element, Fraction], ...]"

    @property
    def group(self) -> Group:
        return group_for(self.spec)

    def param(self, name, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default


def _frac(x) -> Fraction:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


def _default_kind(spec: GroupSpec) -> str:
    if isinstance(spec, RegularTree):
        return "tree-lazy"
    if isinstance(spec, TreeProduct):
        return "product-mix"
    if isinstance(spec, (FreeAbelian, Heisenberg3)):
        return "lazy-srw"
    if isinstance(spec, DiestelLeader):
        return "dl-srw"
    if isinstance(spec, FreeProduct):
        return "freeprod-mix"
    raise ValueError(f"no default kernel for {spec}")


def standard_measure(spec: GroupSpec, kind: Optional[str] = None, **params
                     ) -> Measure:
    """Build one of the named step distributions.

    Kinds: "tree-lazy" (RegularTree), "lazy-srw" (FreeAbelian/Heisenberg3,
    parameter alpha = mass at the identity), "product-mix" (TreeProduct,
    parameter a1 = weight of the first factor), "dl-srw" (DiestelLeader),
    "freeprod-mix" (FreeProduct, parameter alpha = weight of the right
    factor; the factors get their own default kinds unless overridden, and
    the measure records them as its "left" and "right" parameters).
    """
    if kind is None:
        kind = _default_kind(spec)
    g = group_for(spec)
    e = g.identity()
    w: Dict[Element, Fraction] = {}

    if kind == "tree-lazy":
        if not isinstance(spec, RegularTree):
            raise ValueError("tree-lazy needs a RegularTree spec")
        w[e] = Fraction(1, 2)
        for s in g.generators():
            w[s] = Fraction(1, 2 * spec.l)
        p = ()
    elif kind == "lazy-srw":
        if not isinstance(spec, (FreeAbelian, Heisenberg3)):
            raise ValueError("lazy-srw needs FreeAbelian or Heisenberg3")
        alpha = _frac(params.get("alpha", Fraction(1, 2)))
        if not (0 <= alpha < 1):
            raise ValueError("alpha must be in [0, 1)")
        gens = g.generators()
        if alpha:
            w[e] = alpha
        for s in gens:
            w[s] = (1 - alpha) / len(gens)
        p = (("alpha", alpha),)
    elif kind == "product-mix":
        if not isinstance(spec, TreeProduct):
            raise ValueError("product-mix needs a TreeProduct spec")
        a1 = _frac(params.get("a1", Fraction(1, 2)))
        if not (0 < a1 < 1):
            raise ValueError("a1 must be in (0, 1)")
        w[e] = Fraction(1, 2)
        for i in range(spec.l1):
            w[((i,), ())] = a1 / (2 * spec.l1)
        for i in range(spec.l2):
            w[((), (i,))] = (1 - a1) / (2 * spec.l2)
        p = (("a1", a1),)
    elif kind == "dl-srw":
        if not isinstance(spec, DiestelLeader):
            raise ValueError("dl-srw needs a DiestelLeader spec")
        for s in g.generators():
            w[s] = Fraction(1, 2 * spec.q)
        p = ()
    elif kind == "freeprod-mix":
        if not isinstance(spec, FreeProduct):
            raise ValueError("freeprod-mix needs a FreeProduct spec")
        alpha = _frac(params.get("alpha", Fraction(1, 2)))
        if not (0 < alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        m_left = standard_measure(spec.left, params.get("left_kind"),
                                  **params.get("left_params", {}))
        m_right = standard_measure(spec.right, params.get("right_kind"),
                                   **params.get("right_params", {}))
        for x, wx in m_left.weights:
            y = g.embed(0, x)
            w[y] = w.get(y, Fraction(0)) + (1 - alpha) * wx
        for x, wx in m_right.weights:
            y = g.embed(1, x)
            w[y] = w.get(y, Fraction(0)) + alpha * wx
        p = (("alpha", alpha), ("left", m_left), ("right", m_right))
    else:
        raise ValueError(f"unknown measure kind {kind!r}")

    assert sum(w.values()) == 1
    items = tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0])))
    return Measure(spec=spec, kind=kind, params=p, weights=items)


def known_spectral_radius(measure: Measure) -> Optional[float]:
    """Closed-form spectral radius, or None when unavailable."""
    spec, kind = measure.spec, measure.kind
    if kind == "tree-lazy":
        return _tree_rho(spec.l)
    if kind == "product-mix":
        a1 = float(measure.param("a1"))
        return a1 * _tree_rho(spec.l1) + (1.0 - a1) * _tree_rho(spec.l2)
    if kind == "lazy-srw":
        return 1.0  # Z^d and Heisenberg are amenable
    return None  # DL (its engine needs none) and free products


def check_radius(measure: Measure, r: float) -> None:
    """Refuse r < 0, and r > 1/rho where the spectral radius rho is known
    in closed form: the Green function diverges there."""
    if not r >= 0:
        raise ValueError(f"r must be >= 0, got r = {r}")
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


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    """a with at least n rows, the new rows set to fill (growing by half)."""
    if len(a) >= n:
        return a
    out = np.full((max(n, len(a) * 3 // 2),) + a.shape[1:], fill, a.dtype)
    out[: len(a)] = a
    return out


class FloatWalk:
    """A float distribution stepped by a measure, the walk of `step_sums`.

    Each element is interned to an int id once, and the step table maps
    (id, step) to the id of the product, filled the first time an element
    is a source: a sweep multiplies each element once per step of the
    measure, however many steps it survives.  The distribution is held as
    `ids` (distinct) and `p`.  A step scatters p * w with `np.bincount`,
    which adds in source-major, step-minor order, and orders the new
    support by first appearance, as a dict loop over sources and steps
    would, so the values are such a loop's bit for bit.  Pruning to
    support_cap keeps the entries above the cap-th largest weight and
    breaks ties at that threshold by `encode`; `dropped` is the total mass
    pruned so far.  Per-element values (word lengths, predicates) are
    cached per id by `lookup`.  The tables live as long as the walk.
    """

    def __init__(self, measure: Measure, start: Dict[Element, object],
                 support_cap: Optional[int] = DEFAULT_SUPPORT_CAP):
        self.group = measure.group
        self.support_cap = support_cap
        self._steps = [s for s, _ in measure.weights]
        self._w = np.array([float(w) for _, w in measure.weights])
        self._elements: List[Element] = list(start)
        self._index = {x: i for i, x in enumerate(start)}
        self._table = np.full((0, len(self._steps)), -1, np.int32)
        self._cache: Dict[Callable, Tuple[np.ndarray, np.ndarray]] = {}
        self.ids = np.arange(len(start))
        self.p = np.array([float(v) for v in start.values()])
        self.dropped = 0.0

    def _targets(self) -> np.ndarray:
        """Step-table rows of the support, filling the missing ones."""
        self._table = _grown(self._table, len(self._elements), -1)
        rows = self._table[self.ids]
        new = self.ids[rows[:, 0] < 0]
        if len(new):
            mul, index, elements = (self.group.multiply, self._index,
                                    self._elements)
            known = len(index)
            # a new product gets the next id, len(index), as its value
            add = index.setdefault
            self._table[new] = [[add(mul(elements[i], s), len(index))
                                 for s in self._steps] for i in new.tolist()]
            elements.extend(reversed(list(
                islice(reversed(index), len(index) - known))))
            rows = self._table[self.ids]
        return rows

    def step(self) -> None:
        """dist <- dist * measure, pruned to support_cap."""
        flat = self._targets().ravel()
        vals = (self.p[:, None] * self._w).ravel()
        n = len(self._elements)
        first = np.full(n, len(flat))
        np.minimum.at(first, flat, np.arange(len(flat)))
        ids = np.flatnonzero(first < len(flat))
        ids = ids[np.argsort(first[ids])]
        p = np.bincount(flat, weights=vals, minlength=n)[ids]
        cap = self.support_cap
        if cap is not None and len(p) > cap:
            thresh = np.partition(p, len(p) - cap)[len(p) - cap]
            above = p > thresh
            # fewer than cap entries lie above thresh, so room >= 1
            room = cap - int(np.count_nonzero(above))
            enc, elements = self.group.encode, self._elements
            ties = sorted(np.flatnonzero(p == thresh).tolist(),
                          key=lambda t: enc(elements[ids[t]]))[:room]
            drop = ~above
            drop[ties] = False
            self.dropped += float(p[drop].sum())
            ids = np.concatenate([ids[above], ids[ties]])
            p = np.concatenate([p[above], p[ties]])
        self.ids, self.p = ids, p

    def lookup(self, fn: Callable[[Element], object], dtype=np.intp
               ) -> np.ndarray:
        """fn of each support element, computed once per element."""
        values, known = self._cache.get(fn, (np.zeros(0, dtype),
                                             np.zeros(0, bool)))
        n = len(self._elements)
        values, known = _grown(values, n, 0), _grown(known, n, False)
        new = self.ids[~known[self.ids]]
        if len(new):
            values[new] = [fn(self._elements[i]) for i in new.tolist()]
            known[new] = True
        self._cache[fn] = values, known
        return values[self.ids]

    def take(self, pred: Callable[[Element], bool]
             ) -> List[Tuple[Element, float]]:
        """Remove the entries whose element satisfies pred; return them."""
        mask = self.lookup(pred, bool)
        hits = [(self._elements[i], v) for i, v in
                zip(self.ids[mask].tolist(), self.p[mask].tolist())]
        self.ids, self.p = self.ids[~mask], self.p[~mask]
        return hits

    def dist(self) -> Dict[Element, float]:
        return dict(zip([self._elements[i] for i in self.ids.tolist()],
                        self.p.tolist()))


def step_sums(measure: Measure, key: Callable[[Element], int], n_bins: int,
              n_steps: int,
              restrictions: Sequence[Optional[Callable[[Element], bool]]]
              = (None,),
              support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
              ) -> Tuple[np.ndarray, ...]:
    """The one float step-sum core: S[b, k] = sum of p_k(e, x) over the x
    with key(x) = b, for 0 <= b < n_bins and 0 <= k <= n_steps, from one
    `FloatWalk` sweep from e.  Keys at or above n_bins drop out.

    Returns one S per restriction (None: every element; else only the
    elements the predicate accepts), then M, where M[k] is the mass the
    support cap pruned by step k: each S[b, k] is a lower bound within
    M[k] of the unpruned value.  A sum sum_k r^k p_k is then S @ r^k for
    any r.
    """
    walk = FloatWalk(measure, {measure.group.identity(): 1.0}, support_cap)
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
    sizes = np.ones(n_max + 1)
    for d in range(1, n_max + 1):
        sizes[d] = sizes[d - 1] * ((l - 1) if d > 1 else l)
    return sizes


def tree_resolvent(l: int, w, d_max: int) -> np.ndarray:
    """(w - S)^(-1)(e, x) for |x| = 0..d_max along a new last axis, S the
    simple random walk operator on T_l.

    With c = 2 sqrt(l - 1) / l, the spectral radius of S, and
    s = sqrt(w - c) sqrt(w + c), F = l (w - s) / (2 (l - 1)) is the
    first-passage value to a neighbour and (w - S)^(-1)(e, x) =
    F^|x| / (w - F) (Woess, Random Walks on Infinite Graphs and Groups,
    CUP 2000).  F is computed as 2 / (l (w + s)), the same value without
    the cancellation in w - s at large w.  w may be a complex array off
    [-c, c]; real w must be >= c, and w = c (up to rounding) is the edge.
    """
    w = np.asarray(w)
    c = 2.0 * math.sqrt(l - 1) / l
    if np.iscomplexobj(w):
        s = np.sqrt(w - c) * np.sqrt(w + c)
    else:
        s = np.sqrt(np.maximum(w - c, 0.0)) * np.sqrt(w + c)
    F = 2.0 / (l * (w + s))
    return F[..., None] ** np.arange(d_max + 1) / (w - F)[..., None]


def _tree_rho(l: int) -> float:
    """Spectral radius 1/2 + c/2 of the lazy walk 1/2 + S/2 on T_l."""
    return 0.5 + math.sqrt(l - 1) / l


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
    R = 1.0 / _tree_rho(l)
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
    R = 1.0 / (a1 * _tree_rho(l1) + (1.0 - a1) * _tree_rho(l2))
    if not 0.0 < r < R:
        raise ValueError(f"the tree-product engine needs 0 <= r < R = "
                         f"{R!r}, got r = {r}")
    c1 = 2.0 * math.sqrt(l1 - 1) / l1
    c2 = 2.0 * math.sqrt(l2 - 1) / l2
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
    c1 = 2.0 * math.sqrt(l1 - 1) / l1
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
    """(A, p, q) with |h| <= A p^d1 q^d2 on the circle |u| = rho.

    |dz/dtheta| <= (f/2)(rho + 1/rho); |F1| = p = 1 / (sqrt(l1 - 1) rho)
    and |w1 - F1| = (sqrt(l1 - 1)/l1) |u^2 - 1/(l1 - 1)| / |u| >= L1.  The
    z-ellipse of |u| = rho (or 1/rho) lies left of the vertical line
    through its right vertex, and the level curve of |F2| through that
    vertex (an ellipse with its foci at the ends of 1 - spec(rB)) right of
    it, so |F2| <= q and |w2 - F2| >= L2, their values at the vertex.
    """
    c1 = 2.0 * math.sqrt(l1 - 1) / l1
    k = math.sqrt(l1 - 1)
    p = 1.0 / (k * rho)
    L1 = (k / l1) * (rho * rho - 1.0 / (l1 - 1)) / rho
    big = max(rho, 1.0 / rho)
    w2 = _treeprod_w2(a1, r, r / 4 + (r * a1 * c1 / 4) * (big + 1.0 / big))
    res = tree_resolvent(l2, w2, 1)  # 1 / (w2 - F2), F2 / (w2 - F2)
    A = c1 * (rho + 1.0 / rho) * res[0] / (r * (1.0 - a1) * L1)
    return A, p, res[1] / res[0]


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
    MAX_NODES.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got tol = {tol}")
    if r == 0.0:  # G = delta_e, no nodes needed
        return 0, reduce(np.zeros((d1_max + 1, d2_max + 1)))
    rho0, rho_in, rho_out = _treeprod_contour(l1, l2, a1, r)
    d1 = np.arange(d1_max + 1)[:, None]
    d2 = np.arange(d2_max + 1)[None, :]
    sides = []
    for edge in (rho_out, rho_in):
        best = None
        for t in _BOUND_FRACTIONS:
            rho = rho0 * (edge / rho0) ** t
            A, p, q = _treeprod_circle(l1, l2, a1, r, rho)
            with np.errstate(over="ignore"):
                K = reduce(A * p ** d1 * q ** d2)
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
    it.  Requires r <= 1; at r = 1 convergence needs d >= 3.
    """
    if r > 1.0:
        raise ValueError("Z^d Green function diverges for r > 1")
    if r == 1.0 and d < 3:
        raise ValueError("Green function at r = 1 needs d >= 3")
    # strip the laziness: G_lazy(x | r) = G_srw(x | r') / (1 - r alpha)
    denom = 1.0 - r * alpha
    r_srw = r * (1.0 - alpha) / denom
    return _zd_srw_green(d, tuple(abs(int(v)) for v in x), r_srw) / denom


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
# checked against closed forms and 30-digit references, but is not proved
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
    edges and no tail at rs = 0, where G = delta_e."""
    denom = 1.0 - r * alpha
    rs = r * (1.0 - alpha) / denom
    decay = (1.0 - r) / denom
    if rs == 0.0:
        return denom, rs, decay, [], False
    c = rs / d
    T = max(2.0e4, 80.0 * m_max * m_max / c)
    edges = [0.0, 1.0]
    while edges[-1] < T:
        edges.append(edges[-1] * 1.25)
    clt = math.exp(-decay * edges[-1]) >= ZD_NEGLIGIBLE
    return denom, rs, decay, edges, clt


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
                 x: Tuple[int, ...]) -> Tuple[float, float]:
    """int_T^inf e^(-a s) prod_i ive(x_i, c s) ds from the first two terms
    of ive(n, z) ~ (2 pi z)^(-1/2) (1 - (4 n^2 - 1) / (8 z)): the local
    CLT, and the magnitude of that expansion's last kept term.  With
    nu = d / 2, int_T^inf e^(-a s) s^(-nu) ds is a^(nu - 1)
    Gamma(1 - nu, a T), or T^(1 - nu) / (nu - 1) at a = 0."""
    nu = d / 2.0
    lead = (2.0 * math.pi * c) ** (-nu)
    corr = sum(4.0 * xi * xi - 1.0 for xi in x) / (8.0 * c)
    if a == 0.0:
        head, last = T ** (1.0 - nu) / (nu - 1.0), corr * T ** (-nu) / nu
    else:
        head = a ** (nu - 1.0) * _upper_gamma(1.0 - nu, a * T)
        last = corr * a ** nu * _upper_gamma(-nu, a * T)
    return lead * (head - last), lead * abs(last)


def zd_lazy_green_batch(d: int, alpha: float,
                        classes: Sequence[Tuple[int, ...]], r: float,
                        ) -> Dict[Tuple[int, ...], float]:
    """Lazy-walk Green values on Z^d for many coordinate classes at once:
    the Z^d engine of `green_truncated` and `h_series` (through
    `zd_green_estimates`, which states its error).

    Classes are tuples of coordinate absolute values (order irrelevant).
    The Bessel integral (Woess, Random Walks on Infinite Graphs and
    Groups, CUP 2000) runs on one composite Gauss-Legendre grid with one
    Bessel table shared by all classes, which is what makes sphere sums out
    to n ~ 30 affordable.  Past the last panel edge the local-CLT tail
    `_zd_clt_tail` is added wherever `_zd_rule` says so (always at r = 1).
    Only deeply vanishing values (below ~1e-40) lose relative accuracy.
    """
    from scipy.special import ive

    if r > 1.0:
        raise ValueError("Z^d Green function diverges for r > 1")
    if r == 1.0 and d < 3:
        raise ValueError("Green function at r = 1 needs d >= 3")
    classes = [tuple(sorted(abs(int(v)) for v in x)) for x in classes]
    uniq = sorted(set(classes))
    m_max = max(max(x) for x in uniq)
    denom, rs, decay, edges, clt = _zd_rule(d, alpha, m_max, r)
    if rs == 0.0:
        return {x: (1.0 if not any(x) else 0.0) / denom for x in uniq}
    c = rs / d

    # composite Gauss-Legendre on geometrically growing panels
    s = np.concatenate([0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
                        for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * _GL_WEIGHTS
                        for a, b in zip(edges[:-1], edges[1:])])
    base = w * np.exp(-s * decay)
    bessel = ive(np.arange(m_max + 1)[:, None], c * s[None, :])

    Te = edges[-1]
    out = {}
    for x in uniq:
        prod = base.copy()
        for xi in x:
            prod *= bessel[xi]
        val = float(prod.sum())
        if clt:
            val += _zd_clt_tail(d, c, decay, Te, x)[0]
        out[x] = val / denom
    return out


def zd_green_estimates(d: int, alpha: float,
                       classes: Sequence[Tuple[int, ...]], r: float,
                       ) -> Tuple[Dict[Tuple[int, ...], float],
                                  Dict[Tuple[int, ...], float], bool]:
    """(values, tails, rigorous): `zd_lazy_green_batch`'s values and the
    one Z^d error rule of `green_truncated` and `h_series`.

    Every value carries ZD_TAIL plus tails[class].  Where the batch rule
    adds no local-CLT tail (r < 1 away from 1), tails are 0 and rigorous
    is True.  Where it does (always at r = 1), tails[class] is the
    magnitude of the expansion's last kept term and rigorous is False: the
    expansion is asymptotic, not a bound.
    """
    values = zd_lazy_green_batch(d, alpha, classes, r)
    denom, rs, decay, edges, clt = _zd_rule(
        d, alpha, max(max(x) for x in values), r)
    if not clt:
        return values, dict.fromkeys(values, 0.0), True
    tails = {x: _zd_clt_tail(d, rs / d, decay, edges[-1], x)[1] / denom
             for x in values}
    return values, tails, False


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
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"the DL engine needs 0 <= r <= 1, got r = {r}")
    if r == 0.0 or not keys:
        return {k: float(k == (0, 0, 0)) for k in keys}  # G = delta_e
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
        # a walk that starts at a = 0 has reached a first; [0, 0] has w = 0
        first_a = np.where(a == 0, 1.0, S(b, np.maximum(w, 1)))
        first_b = S(-a, np.maximum(w, 1))
        e = (2.0 / r * S(1, w + 1) * (first_a * S(pos - a + 1, w + 2)
                                      + first_b * S(b - pos + 1, w + 2)))
        out[(pos, A, B)] = float(np.sum(e * float(q) ** -w))
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
    """Map a DLProfile to the (pos, A, B) walk class of its elements."""
    u1, d2, s = profile.u1, profile.d2, profile.s
    pos = (s - d2) - u1
    return (pos, -u1, s - u1)


# ---------------------------------------------------------------------------
# Green estimates


@dataclass(frozen=True)
class GreenEstimate:
    value: float
    n_terms: int
    tail: float
    rigorous: bool


def _rigorous_n(r: float, rho: Optional[float], tol: float) -> Optional[int]:
    """Smallest N with sum_{n>N} (r rho)^n <= tol, or None if unavailable."""
    if rho is None:
        return None
    x = r * rho
    if x >= 1.0:
        return None
    if x == 0.0:
        return 0
    n = math.log(tol * (1.0 - x)) / math.log(x) - 1.0
    return max(0, math.ceil(n))


def _geom_tail(r: float, rho: float, n: int) -> float:
    x = r * rho
    return x ** (n + 1) / (1.0 - x)


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

    The tree, tree-product, Z^d and Diestel-Leader engines are not step
    sums and ignore max_terms; n_terms = -1 marks a value that is not a
    truncation.  The tree engine is a closed form (tail 0); the
    tree-product engine's tail bounds its quadrature error, and it raises
    ValueError at r >= R.  The Z^d engine is `zd_lazy_green_batch`, one
    call for all targets, and ignores tol: each value's tail is ZD_TAIL,
    plus the last kept term of the local-CLT tail wherever that tail is
    added (always at r = 1, then rigorous=False); see `zd_green_estimates`.

    Every other walk reads one `step_sums` sweep binned by target.  Its
    truncation order comes from the closed-form spectral radius when
    available with r * rho < 1 (rigorous tail bound), else from max_terms
    with a heuristic tail estimate on the return series of e, flagged via
    ``rigorous=False``; a support cap that pruned mass M_k by step k adds
    sum_k r^k M_k to the tail.  Every walk whose spectral radius rho is
    known in closed form (trees, tree products, Z^d, Heisenberg) raises
    ValueError at r > 1/rho.
    """
    check_radius(measure, r)
    spec, kind = measure.spec, measure.kind
    targets = list(dict.fromkeys(targets))
    if not targets:
        return {}

    if isinstance(spec, RegularTree) and kind == "tree-lazy":
        return _green_tree(measure, targets, r)
    if isinstance(spec, TreeProduct) and kind == "product-mix":
        return _green_treeprod(measure, targets, r, tol)
    if isinstance(spec, FreeAbelian) and kind == "lazy-srw":
        return _green_zd(measure, targets, r)
    if isinstance(spec, DiestelLeader) and kind == "dl-srw":
        return _green_dl(measure, targets, r, tol)
    return _green_generic(measure, targets, r, tol, max_terms, support_cap)


def _pick_n(measure, r, tol, max_terms, default=64):
    rho = known_spectral_radius(measure)
    n_rig = _rigorous_n(r, rho, tol)
    if n_rig is not None:
        n_max = n_rig if max_terms is None else min(n_rig, max_terms)
        rigorous = n_max >= n_rig
    else:
        n_max = max_terms if max_terms is not None else default
        rigorous = False
    return n_max, rigorous, rho


def _green_generic(measure, targets, r, tol, max_terms, support_cap):
    """One `step_sums` sweep binned by target; e always gets a bin, since
    its return series drives the heuristic tail."""
    n_max, rigorous, rho = _pick_n(measure, r, tol, max_terms)
    e = measure.group.identity()
    index = {x: i for i, x in enumerate(dict.fromkeys([*targets, e]))}
    n_bins = len(index)
    S, dropped = step_sums(measure, lambda x: index.get(x, n_bins), n_bins,
                           n_max, support_cap=support_cap)
    powers = float(r) ** np.arange(n_max + 1)
    tail = (_geom_tail(r, rho, n_max) if rigorous
            else _heuristic_tail(list(S[index[e]] * powers)))
    tail = float(tail + dropped @ powers)
    return {x: GreenEstimate(float(S[index[x]] @ powers), n_max, tail,
                             rigorous)
            for x in targets}


def _green_tree(measure, targets, r):
    g = measure.group
    d = [g.word_length(x) for x in targets]
    G = tree_green_by_distance(measure.spec.l, r, max(d))
    return {x: GreenEstimate(float(G[dx]), -1, 0.0, True)
            for x, dx in zip(targets, d)}


def _green_treeprod(measure, targets, r, tol):
    spec = measure.spec
    a1 = float(measure.param("a1"))
    d1 = np.array([len(x[0]) for x in targets])
    d2 = np.array([len(x[1]) for x in targets])
    n, tails = treeprod_error(spec.l1, spec.l2, a1, r, d1.max(), d2.max(),
                              tol, lambda E: E[d1, d2])
    G = treeprod_green_by_distance(spec.l1, spec.l2, a1, r, n, d1.max(),
                                   d2.max())
    return {x: GreenEstimate(float(v), -1, float(t), True)
            for x, v, t in zip(targets, G[d1, d2], tails)}


def _green_zd(measure, targets, r):
    keys = {x: tuple(sorted(abs(v) for v in x)) for x in targets}
    values, tails, rigorous = zd_green_estimates(
        measure.spec.d, float(measure.param("alpha")), list(keys.values()),
        r)
    return {x: GreenEstimate(values[k], -1, ZD_TAIL + tails[k], rigorous)
            for x, k in keys.items()}


def _green_dl(measure, targets, r, tol):
    q = measure.spec.q
    g = measure.group
    rel_tol = min(tol, 1e-9)
    keys = {x: dl_class_key(g.profile(x)) for x in targets}
    values = dl_green_classes(q, sorted(set(keys.values())), r, rel_tol)
    return {x: GreenEstimate(values[k], -1,
                             dl_class_tail(q, k[2] - k[1], r, rel_tol), True)
            for x, k in keys.items()}


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
    """p_n(e, e), via a structure-aware engine when available."""
    spec, kind = measure.spec, measure.kind
    if isinstance(spec, RegularTree) and kind == "tree-lazy":
        return float(tree_distance_law(spec.l, n, 0)[n, 0])
    if isinstance(spec, TreeProduct) and kind == "product-mix":
        # p_n(e, e) = sum_k C(n, k) a1^k a2^(n-k) p1_k(0) p2_(n-k)(0),
        # the binomial weights b[k] built up by Pascal's rule
        a1 = float(measure.param("a1"))
        b = np.ones(1)
        for _ in range(n):
            b = np.append((1.0 - a1) * b, 0.0) + np.insert(a1 * b, 0, 0.0)
        p1 = tree_distance_law(spec.l1, n, 0)[:, 0]
        p2 = tree_distance_law(spec.l2, n, 0)[::-1, 0]
        return float(b @ (p1 * p2))
    e = measure.group.identity()
    S, _ = step_sums(measure, lambda x: 0 if x == e else 1, 1, n,
                     support_cap=support_cap)
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
