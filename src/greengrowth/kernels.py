"""Step distributions, convolution, truncated Green functions.

The generic machinery works on sparse distributions over group elements
with exact rational weights (mode "exact") or floats (mode "float").
For groups whose standard kernels have extra structure, Green sums are
computed by specialized engines that reach far higher truncation orders
than sparse convolution could:

* regular trees   -- radial birth-death chain on the distance,
* tree products   -- two-dimensional distance chain,
* Z^d             -- Bessel-integral representation of the Green kernel,
* Diestel-Leader  -- path-range decomposition of the lamplighter walk.

Tail bounds use p_n(x, y) <= rho^n for symmetric kernels; they are
rigorous whenever the spectral radius rho is known in closed form and
r * rho < 1, and heuristic (geometric extrapolation, flagged) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    factor; the factors get their own default kinds unless overridden).
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
        p = (("alpha", alpha),)
    else:
        raise ValueError(f"unknown measure kind {kind!r}")

    assert sum(w.values()) == 1
    items = tuple(sorted(w.items(), key=lambda kv: g.encode(kv[0])))
    return Measure(spec=spec, kind=kind, params=p, weights=items)


def known_spectral_radius(measure: Measure) -> Optional[float]:
    """Closed-form spectral radius, or None when unavailable."""
    spec, kind = measure.spec, measure.kind
    if kind == "tree-lazy":
        return 0.5 + math.sqrt(spec.l - 1) / spec.l
    if kind == "product-mix":
        a1 = float(measure.param("a1"))
        r1 = 0.5 + math.sqrt(spec.l1 - 1) / spec.l1
        r2 = 0.5 + math.sqrt(spec.l2 - 1) / spec.l2
        return a1 * r1 + (1 - a1) * r2
    if kind == "lazy-srw":
        return 1.0  # Z^d and Heisenberg are amenable
    return None  # DL (amenable but left heuristic here) and free products


# ---------------------------------------------------------------------------
# sparse convolution


def convolve(dist: Dict[Element, object], measure: Measure,
             mode: str = "exact",
             support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
             restrict: Optional[Callable[[Element], bool]] = None,
             ) -> Dict[Element, object]:
    """One convolution step dist * measure.

    With a support cap, only the heaviest cap entries are kept (ties broken
    by canonical encoding); dropped mass makes every later value a certified
    lower bound.  An optional restrict predicate zeroes the sources outside
    the allowed set before stepping.
    """
    g = measure.group
    zero = Fraction(0) if mode == "exact" else 0.0
    steps = [(s, (w if mode == "exact" else float(w)))
             for s, w in measure.weights]
    out: Dict[Element, object] = {}
    mul = g.multiply
    for x, px in dist.items():
        if restrict is not None and not restrict(x):
            continue
        for s, w in steps:
            y = mul(x, s)
            out[y] = out.get(y, zero) + px * w
    if support_cap is not None and len(out) > support_cap:
        if mode == "float":
            # keep everything above the cap-th largest weight, then break
            # ties at the threshold canonically by encoding
            ws = np.fromiter(out.values(), dtype=float, count=len(out))
            thresh = np.partition(ws, len(ws) - support_cap)[
                len(ws) - support_cap]
            keep = {}
            ties = []
            for y, wy in out.items():
                if wy > thresh:
                    keep[y] = wy
                elif wy == thresh:
                    ties.append(y)
            room = support_cap - len(keep)
            if room > 0:
                ties.sort(key=g.encode)
                for y in ties[:room]:
                    keep[y] = thresh
            out = keep
        else:
            order = sorted(out.items(),
                           key=lambda kv: (-kv[1], g.encode(kv[0])))
            out = dict(order[:support_cap])
    return out


# ---------------------------------------------------------------------------
# radial engines


def tree_chain_step(l: int, v: np.ndarray) -> np.ndarray:
    """One step of the lazy tree walk projected to the distance from e.

    Works along the first axis, so it applies to the 2-d joint-distance
    arrays of tree products as well.  The last row is a buffer; callers
    keep the array wide enough that it stays empty.
    """
    out = 0.5 * v.copy()
    out[1] += 0.5 * v[0]
    out[0] += v[1] / (2 * l)
    out[1:-1] += v[2:] / (2 * l)
    out[2:] += v[1:-1] * ((l - 1) / (2 * l))
    return out


def treeprod_mix_step(V: np.ndarray, l1: int, l2: int, a1: float
                      ) -> np.ndarray:
    """One step of the product-mix walk on the joint distance lattice."""
    return (a1 * tree_chain_step(l1, V)
            + (1.0 - a1) * tree_chain_step(l2, V.T).T)


def tree_sphere_sizes(l: int, n_max: int) -> np.ndarray:
    sizes = np.ones(n_max + 1)
    for d in range(1, n_max + 1):
        sizes[d] = sizes[d - 1] * ((l - 1) if d > 1 else l)
    return sizes


def tree_green_by_distance(l: int, r: float, n_max: int, d_max: int
                           ) -> np.ndarray:
    """G(e, x | r) truncated at n_max, indexed by |x| = 0..d_max."""
    v = np.zeros(n_max + 2 + d_max)
    v[0] = 1.0
    acc = np.zeros(d_max + 1)
    acc += v[: d_max + 1]
    rn = 1.0
    for _ in range(n_max):
        v = tree_chain_step(l, v)
        rn *= r
        acc += rn * v[: d_max + 1]
        if rn * v.max() < 1e-320:
            break
    return acc / tree_sphere_sizes(l, d_max)


def treeprod_green_by_distance(l1: int, l2: int, a1: float, r: float,
                               n_max: int, d1_max: int, d2_max: int
                               ) -> np.ndarray:
    """Truncated G(e, (x1, x2) | r) indexed by the pair of factor distances."""
    w1 = n_max + 2 + d1_max
    w2 = n_max + 2 + d2_max
    V = np.zeros((w1, w2))
    V[0, 0] = 1.0
    acc = np.zeros((d1_max + 1, d2_max + 1))
    acc += V[: d1_max + 1, : d2_max + 1]
    rn = 1.0
    for _ in range(n_max):
        V = treeprod_mix_step(V, l1, l2, a1)
        rn *= r
        acc += rn * V[: d1_max + 1, : d2_max + 1]
        if rn * V.max() < 1e-320:
            break
    s1 = tree_sphere_sizes(l1, d1_max)
    s2 = tree_sphere_sizes(l2, d2_max)
    return acc / np.outer(s1, s2)


def zd_lazy_green(d: int, alpha: float, x: Sequence[int], r: float) -> float:
    """G(e, x | r) for the lazy simple random walk on Z^d via the
    Bessel-integral representation (converged value, not a truncation).

    Requires r <= 1; at r = 1 convergence needs d >= 3.
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
        val, _ = quad(integrand, 0.0, np.inf, limit=400)
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


def zd_lazy_green_batch(d: int, alpha: float,
                        classes: Sequence[Tuple[int, ...]], r: float,
                        ) -> Dict[Tuple[int, ...], float]:
    """Lazy-walk Green values on Z^d for many coordinate classes at once.

    Classes are tuples of coordinate absolute values (order irrelevant).
    Shares one quadrature grid and one Bessel table across all classes,
    which is what makes sphere sums out to n ~ 30 affordable.  Relative
    accuracy is ~1e-6 at r = 1 and near machine precision for moderate
    arguments; only deeply vanishing values (below ~1e-40) degrade.
    """
    from scipy.special import ive

    if r > 1.0:
        raise ValueError("Z^d Green function diverges for r > 1")
    if r == 1.0 and d < 3:
        raise ValueError("Green function at r = 1 needs d >= 3")
    classes = [tuple(sorted(abs(int(v)) for v in x)) for x in classes]
    uniq = sorted(set(classes))
    denom = 1.0 - r * alpha
    rs = r * (1.0 - alpha) / denom
    if rs == 0.0:
        return {x: (1.0 if not any(x) else 0.0) / denom for x in uniq}
    c = rs / d
    m_max = max(max(x) for x in uniq)
    T = max(2.0e4, 80.0 * m_max * m_max / c)

    # composite Gauss-Legendre on geometrically growing panels
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = [0.0, 1.0]
    while edges[-1] < T:
        edges.append(edges[-1] * 1.25)
    s = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b)
                        for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * weights
                        for a, b in zip(edges[:-1], edges[1:])])
    base = w * np.exp(-s * (1.0 - rs))
    bessel = ive(np.arange(m_max + 1)[:, None], c * s[None, :])

    Te = edges[-1]
    lead = (2.0 * math.pi * c) ** (-d / 2.0)
    out = {}
    for x in uniq:
        prod = base.copy()
        for xi in x:
            prod *= bessel[xi]
        val = float(prod.sum())
        if rs == 1.0:
            # analytic local-CLT tail beyond the last panel edge
            corr = sum(4.0 * xi * xi - 1.0 for xi in x) / (8.0 * c)
            val += lead * (Te ** (1.0 - d / 2.0) / (d / 2.0 - 1.0)
                           - corr * Te ** (-d / 2.0) / (d / 2.0))
        out[x] = val / denom
    return out


# ---------------------------------------------------------------------------
# Diestel-Leader engine


def dl_green_classes(q: int, keys: Sequence[Tuple[int, int, int]],
                     r: float, n_max: int = 600, rel_tol: float = 1e-9,
                     ) -> Dict[Tuple[int, int, int], float]:
    """Green values for DL(q, q) walk classes.

    A class key is (pos, A, B): pos is the Z coordinate of the lamplighter,
    A = min(0, pos, lowest lamp edge), B = max(0, pos, highest lamp edge + 1).
    The projected Z walk must cover [A, B] and end at pos; every distinct
    crossed edge contributes a factor 1/q for the lamp to match.  Summing
    exact-range path weights over all ranges containing [A, B] gives the
    exact n-step probabilities, so the only approximations are the range
    cutoff (relative rel_tol) and the truncation at n_max steps.
    """
    if not keys:
        return {}
    extra = max(2, math.ceil(-math.log(rel_tol) / math.log(q)))
    a_lo = min(k[1] for k in keys) - extra
    b_hi = max(k[2] for k in keys) + extra
    positions = np.arange(a_lo, b_hi + 1)

    # accumulated confined-walk transforms T[(a, b)][pos] = sum_n r^n W_n
    acc: Dict[Tuple[int, int], np.ndarray] = {}
    for a in range(a_lo, 1):
        for b in range(0, b_hi + 1):
            width = b - a + 1
            v = np.zeros(width)
            v[-a] = 1.0  # start at 0
            tot = np.zeros(width)
            tot += v
            rn = 1.0
            for _ in range(n_max):
                nv = np.zeros(width)
                nv[1:] += 0.5 * v[:-1]
                nv[:-1] += 0.5 * v[1:]
                v = nv
                rn *= r
                inc = rn * v
                tot += inc
                if inc.max() <= rel_tol * 1e-3 * (tot.max() + 1e-300):
                    break
            acc[(a, b)] = tot

    def read(a, b, pos):
        if a > 0 or b < 0 or pos < a or pos > b:
            return 0.0
        return acc[(a, b)][pos - a]

    out = {}
    for pos, A, B in keys:
        total = 0.0
        for a in range(a_lo, A + 1):
            for b in range(B, b_hi + 1):
                e = (read(a, b, pos) - read(a + 1, b, pos)
                     - read(a, b - 1, pos) + read(a + 1, b - 1, pos))
                if e:
                    total += e * q ** float(a - b)
        out[(pos, A, B)] = total
    return out


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
                    tol: float = 1e-9, mode: str = "float",
                    max_terms: Optional[int] = None,
                    support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                    ) -> Dict[Element, GreenEstimate]:
    """Truncated Green function G(e, x | r) for each target element.

    The truncation order comes from the closed-form spectral radius when
    available with r * rho < 1 (rigorous tail bound), else from max_terms
    with a heuristic tail estimate, flagged via ``rigorous=False``.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    spec, kind = measure.spec, measure.kind
    targets = list(dict.fromkeys(targets))
    if not targets:
        return {}

    if mode == "float":
        if isinstance(spec, RegularTree) and kind == "tree-lazy":
            return _green_tree(measure, targets, r, tol, max_terms)
        if isinstance(spec, TreeProduct) and kind == "product-mix":
            return _green_treeprod(measure, targets, r, tol, max_terms)
        if isinstance(spec, FreeAbelian) and kind == "lazy-srw" and r <= 1.0:
            return _green_zd_integral(measure, targets, r, tol)
        if isinstance(spec, DiestelLeader) and kind == "dl-srw":
            return _green_dl(measure, targets, r, tol, max_terms)
    return _green_generic(measure, targets, r, tol, mode, max_terms,
                          support_cap)


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


def _green_generic(measure, targets, r, tol, mode, max_terms, support_cap):
    g = measure.group
    n_max, rigorous, rho = _pick_n(measure, r, tol, max_terms)
    zero = Fraction(0) if mode == "exact" else 0.0
    one = Fraction(1) if mode == "exact" else 1.0
    rr = _frac(r) if mode == "exact" else float(r)
    dist = {g.identity(): one}
    acc = {x: dist.get(x, zero) for x in targets}
    diag_terms = [float(dist.get(g.identity(), zero))]
    rn = one
    for n in range(1, n_max + 1):
        dist = convolve(dist, measure, mode=mode, support_cap=support_cap)
        rn = rn * rr
        for x in targets:
            acc[x] = acc[x] + rn * dist.get(x, zero)
        diag_terms.append(float(rn) * float(dist.get(g.identity(), zero)))
    tail = (_geom_tail(r, rho, n_max) if rigorous
            else _heuristic_tail(diag_terms))
    return {x: GreenEstimate(float(acc[x]), n_max, tail, rigorous)
            for x in targets}


def _green_tree(measure, targets, r, tol, max_terms):
    l = measure.spec.l
    n_max, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=400)
    g = measure.group
    d_max = max(g.word_length(x) for x in targets)
    G = tree_green_by_distance(l, r, n_max, d_max)
    tail = _geom_tail(r, rho, n_max) if rigorous else float("nan")
    return {x: GreenEstimate(float(G[g.word_length(x)]), n_max, tail, rigorous)
            for x in targets}


def _green_treeprod(measure, targets, r, tol, max_terms):
    spec = measure.spec
    a1 = float(measure.param("a1"))
    n_max, rigorous, rho = _pick_n(measure, r, tol, max_terms, default=400)
    d1_max = max(len(x[0]) for x in targets)
    d2_max = max(len(x[1]) for x in targets)
    G = treeprod_green_by_distance(spec.l1, spec.l2, a1, r, n_max,
                                   d1_max, d2_max)
    tail = _geom_tail(r, rho, n_max) if rigorous else float("nan")
    return {x: GreenEstimate(float(G[len(x[0]), len(x[1])]), n_max, tail,
                             rigorous)
            for x in targets}


def _green_zd_integral(measure, targets, r, tol):
    spec = measure.spec
    alpha = float(measure.param("alpha"))
    rho = 1.0
    n_rig = _rigorous_n(r, rho, tol)
    rigorous = n_rig is not None
    tail = _geom_tail(r, rho, n_rig) if rigorous else 1e-8
    out = {}
    cache: Dict[Tuple[int, ...], float] = {}
    for x in targets:
        key = tuple(sorted(abs(v) for v in x))
        if key not in cache:
            cache[key] = zd_lazy_green(spec.d, alpha, key, r)
        out[x] = GreenEstimate(cache[key], n_rig if rigorous else -1,
                               tail, rigorous)
    return out


def _green_dl(measure, targets, r, tol, max_terms):
    q = measure.spec.q
    g = measure.group
    n_max = max_terms if max_terms is not None else 600
    keys = {}
    for x in targets:
        keys[x] = dl_class_key(g.profile(x))
    values = dl_green_classes(q, sorted(set(keys.values())), r, n_max=n_max,
                              rel_tol=min(tol, 1e-9))
    return {x: GreenEstimate(values[k], n_max, float("nan"), False)
            for x, k in keys.items()}


# ---------------------------------------------------------------------------
# restricted Green functions and first-return kernels


def restricted_green(measure: Measure, x: Element, y: Element,
                     allowed: Callable[[Element], bool], r: float,
                     n_max: int, mode: str = "float",
                     support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                     ) -> float:
    """Truncated Green function over paths whose interior points satisfy
    the allowed predicate (endpoints are exempt).  Certified lower bound:
    truncation and any support pruning only drop nonnegative path weights.
    """
    g = measure.group
    zero = Fraction(0) if mode == "exact" else 0.0
    one = Fraction(1) if mode == "exact" else 1.0
    rr = _frac(r) if mode == "exact" else float(r)
    total = one if x == y else zero
    dist = {x: one}
    rn = one
    for n in range(1, n_max + 1):
        restrict = None if n == 1 else allowed
        dist = convolve(dist, measure, mode=mode, support_cap=support_cap,
                        restrict=restrict)
        rn = rn * rr
        total = total + rn * dist.get(y, zero)
    return float(total)


def first_return_coefficients(measure: Measure,
                              member: Callable[[Element], bool],
                              n_max: int,
                              first_step: Optional[Dict[Element, object]] = None,
                              mode: str = "float",
                              support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
                              ) -> Dict[Element, np.ndarray]:
    """Per-step mass of first entries into the member set.

    coeffs[y][n] = P(X_n = y, X_k not in member for 1 <= k < n), starting
    at the identity.  A custom (sub-probability) first-step distribution
    supports the mixed-measure first-return quantities of free-product
    transfer.  Values are certified lower bounds under support pruning.
    """
    g = measure.group
    if first_step is None:
        dist = {s: float(w) if mode == "float" else w
                for s, w in measure.weights}
    else:
        dist = dict(first_step)
    coeffs: Dict[Element, np.ndarray] = {}
    for n in range(1, n_max + 1):
        if n > 1:
            dist = convolve(dist, measure, mode=mode, support_cap=support_cap)
        hits = [y for y in dist if member(y)]
        for y in hits:
            if y not in coeffs:
                coeffs[y] = np.zeros(n_max + 1)
            coeffs[y][n] += float(dist[y])
        if n < n_max:
            for y in hits:
                del dist[y]
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
        v = np.zeros(n + 2)
        v[0] = 1.0
        for _ in range(n):
            v = tree_chain_step(spec.l, v)
        return float(v[0])
    if isinstance(spec, TreeProduct) and kind == "product-mix":
        V = np.zeros((n + 2, n + 2))
        V[0, 0] = 1.0
        a1 = float(measure.param("a1"))
        for _ in range(n):
            V = treeprod_mix_step(V, spec.l1, spec.l2, a1)
        return float(V[0, 0])
    g = measure.group
    dist = {g.identity(): 1.0}
    for _ in range(n):
        dist = convolve(dist, measure, mode="float", support_cap=support_cap)
    return float(dist.get(g.identity(), 0.0))


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
