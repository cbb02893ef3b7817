"""Phase transition of sphere-summed Green series on products of two trees.

The walk on T_{l1} x T_{l2} mixes a lazy step in the first tree (weight a1)
with one in the second (weight a2 = 1 - a1).  With t = 1/r - 1/2 and
beta_i = sqrt(l_i - 1)/l_i, the sphere sums obey

    H_r(n) ~ n^{-5/2} * sum_k (k + kappa_1)(n - k + kappa_2) e^{n Psi((n-k)/k)}

where Psi is the constrained exponent built from the implicit system

    a1 t1 + a2 t2 = t,      a2 sqrt(t2^2 - beta2^2) = lambda a1 sqrt(t1^2 - beta1^2).

Squared, the system is a quadratic in t1 with one admissible root, which
`_saddle_t1` takes in closed form for one lambda or a whole grid.  `psi`
evaluates Psi elementwise in lambda, with its limits at lambda = 0 and
lambda = inf, and the model sum `hn_model_log` reads it on the whole grid
lambda = (n - k)/k, k = 0..n.

A factor's rate is phi(tau) = log g, g = (l - 1) F with F the tree's
first-passage value at w = 2 tau: `kernels.tree_rate`, which also gives
the tree's own growth rate `trees.tree_omega`.  The tree equation
(l - 1) F^2 - 2 tau l F + 1 = 0 inverts it to
tau_l(g) = (g/l + (l - 1)/(l g)) / 2 on g <= sqrt(l - 1), with
tau_l(sqrt(l - 1)) = beta.  An interior maximum of Psi has
phi1(t1) = phi2(t2), one shared g, so a1 tau_l1(g) + a2 tau_l2(g) = t is the
quadratic A g^2 - 2 t g + B = 0 with A = a1/l1 + a2/l2 and
B = a1 (l1 - 1)/l1 + a2 (l2 - 1)/l2.  Its smaller root gives omega = log g
and lambda0 (`find_lambda0`); g = sqrt(l2 - 1) gives t0 (`solve_t0`).

For l1 > l2 there is a threshold r0 in (1, R): below it the prefactor of
e^{n omega(r)} is of constant order, above it the order is n^{-3/2}; at r0
the maximizer of Psi sits exactly on the boundary lambda = 0.

Critical-exponent note.  The three prefactors follow from Laplace's method
on the model sum, with omega = max Psi and lambda = (n-k)/k.

* r < r0: the maximizer lambda0 > 0 is interior and Psi''(lambda0) < 0.
  Around k0 = n/(1 + lambda0), n Psi ~ n omega - c (k - k0)^2 / n, a window
  of width ~ n^{1/2} on which the weight is ~ k0 (n - k0) ~ n^2.  The sum is
  ~ n^{5/2} e^{n omega}, so the prefactor is of constant order.
* r > r0: the maximum sits at lambda = 0 (k = n) with Psi'(0) < 0.  Put
  j = n - k, so lambda ~ j/n and n Psi ~ n omega + Psi'(0) j.  The weight
  (k + kappa1)(j + kappa2) ~ n (j + kappa2), and the geometric sum over j
  is O(1), so the sum is ~ n e^{n omega} and the prefactor is n^{-3/2}.
* r = r0: Psi'(0) = 0 and Psi''(0) < 0, so n Psi ~ n omega - c j^2 / n.
  The boundary weight (j + kappa2) vanishes linearly in j, and
  sum_j (j + kappa2) e^{-c j^2 / n} ~ n / (2c).  The sum is ~ n^2 e^{n omega}
  and the prefactor is n^{-1/2}, not n^{-1}: a weight that stayed of order
  one at k = n would give n^{-1}.

The same count gives the exponents of f_sum_log: 1 for a boundary maximum
with negative slope, 5/2 for an interior maximum, 2 for a boundary maximum
with vanishing slope.  The approach to the n^{-1/2} and n^2 limits is slow,
with relative corrections of order n^{-1/2} from the j-window
~ sqrt(n / c); on n in [200, 2000] the fitted exponents read about -0.41
and 2.06.  The fit is `_line_fit`, the least-squares line that
`growth.omega_estimate` fits too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .kernels import _tree_c, tree_rate as _phi, treeprod_rho


@dataclass(frozen=True)
class PhaseParams:
    l1: int
    l2: int
    a1: float
    a2: float

    def __post_init__(self):
        if self.l1 < 3 or self.l2 < 3:
            raise ValueError("branching numbers must be >= 3")
        if self.l1 < self.l2:
            raise ValueError("convention: l1 >= l2")
        if not (0.0 < self.a1 < 1.0) or abs(self.a1 + self.a2 - 1.0) > 1e-12:
            raise ValueError("need a1 in (0,1) and a1 + a2 = 1")

    @property
    def beta1(self) -> float:
        return _tree_c(self.l1) / 2

    @property
    def beta2(self) -> float:
        return _tree_c(self.l2) / 2

    @property
    def kappa1(self) -> float:
        return self.l1 / (self.l1 - 2.0)

    @property
    def kappa2(self) -> float:
        return self.l2 / (self.l2 - 2.0)


def capital_R(params: PhaseParams) -> float:
    """Radius of convergence R = 1/rho of the mixed walk."""
    return 1.0 / treeprod_rho(params.l1, params.l2, params.a1)


def t_of_r(r: float) -> float:
    return 1.0 / r - 0.5


def r_of_t(t: float) -> float:
    return 1.0 / (t + 0.5)


def t_feasible_min(params: PhaseParams) -> float:
    """Smallest admissible t = a1 beta1 + a2 beta2 (attained at r = R)."""
    return params.a1 * params.beta1 + params.a2 * params.beta2


def _saddle_t1(params: PhaseParams, t: float, lam):
    """Admissible t1 of the saddle system, elementwise in lambda > 0.

    Squaring the square-root equation with a2 t2 = t - a1 t1 leaves
    A t1^2 - 2 t a1 t1 + C = 0 with A = a1^2 (1 - lambda^2) and
    C = t^2 - (a2 beta2)^2 + (lambda a1 beta1)^2 > 0.  The root in
    [beta1, (t - a2 beta2)/a1] is C / (t a1 + sqrt(t^2 a1^2 - A C)): both
    terms of the denominator are positive, so nothing cancels, and the
    form needs no special case at lambda = 1, where A = 0.  The clip only
    absorbs rounding at the interval's ends.
    """
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    A = a1 * a1 * (1.0 - lam * lam)
    C = t * t - (a2 * b2) ** 2 + (lam * a1 * b1) ** 2
    root = np.sqrt(np.maximum(t * t * a1 * a1 - A * C, 0.0))
    return np.clip(C / (t * a1 + root), b1, (t - a2 * b2) / a1)


def solve_t1t2(params: PhaseParams, t: float, lam: float
               ) -> Tuple[float, float, float]:
    """Solve the implicit system for (t1, t2) at multiplier lambda >= 0.

    Returns (t1, t2, residual) with residual the absolute defect of the
    square-root equation; the linear constraint holds exactly by
    construction.  t1 is the closed form of `_saddle_t1`; the defect is
    strictly decreasing in t1, so it has no other root.
    """
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    if t <= t_feasible_min(params):
        raise ValueError("t must exceed a1 beta1 + a2 beta2")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0.0:
        # t2 = beta2 exactly: the closed form can miss it by an ulp, and
        # the defect's slope is infinite there
        return (t - a2 * b2) / a1, b2, 0.0
    t1 = float(_saddle_t1(params, t, lam))
    t2 = (t - a1 * t1) / a2
    residual = (a2 * math.sqrt(max(t2 * t2 - b2 * b2, 0.0))
                - lam * a1 * math.sqrt(max(t1 * t1 - b1 * b1, 0.0)))
    return t1, t2, abs(residual)


def t_derivatives(params: PhaseParams, t: float, lam: float
                  ) -> Tuple[float, float]:
    """(t1'(lambda), t2'(lambda)) from the implicit function theorem."""
    a1, a2 = params.a1, params.a2
    t1, t2, _ = solve_t1t2(params, t, lam)
    denom = a2 * t2 + lam * lam * a1 * t1
    d1 = -lam * a1 * (t1 * t1 - params.beta1 ** 2) / denom
    return d1, -(a1 / a2) * d1


def psi(params: PhaseParams, t: float, lam):
    """Psi(lambda) = (phi1(t1) + lambda phi2(t2)) / (1 + lambda),
    elementwise in lambda >= 0, with its limits phi1(t1) at lambda = 0,
    where t2 = beta2, and phi2(t2) at lambda = inf, where t1 = beta1; a
    float for a scalar lambda."""
    a1, a2 = params.a1, params.a2
    if t <= t_feasible_min(params):
        raise ValueError("t must exceed a1 beta1 + a2 beta2")
    scalar = np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.min(initial=0.0) < 0:
        raise ValueError("lambda must be >= 0")
    zero, top = lam == 0.0, np.isinf(lam)
    mid = np.where(zero | top, 1.0, lam)  # a finite stand-in at the ends
    t1 = _saddle_t1(params, t, mid)
    np.copyto(t1, (t - a2 * params.beta2) / a1, where=zero)
    np.copyto(t1, params.beta1, where=top)
    t2 = (t - a1 * t1) / a2
    phi1, phi2 = _phi(params.l1, t1), _phi(params.l2, t2)
    out = (phi1 + mid * phi2) / (1.0 + mid)
    np.copyto(out, phi1, where=zero)
    np.copyto(out, phi2, where=top)
    return float(out[0]) if scalar else out


def _rate_gap(params: PhaseParams, t: float, lam: float):
    """(t1, t2, phi_2(t2) - phi_1(t1)) at the saddle of lambda."""
    t1, t2, _ = solve_t1t2(params, t, lam)
    return t1, t2, _phi(params.l2, t2) - _phi(params.l1, t1)


def psi_prime(params: PhaseParams, t: float, lam: float) -> float:
    return float(_rate_gap(params, t, lam)[2] / (1.0 + lam) ** 2)


def psi_second(params: PhaseParams, t: float, lam: float) -> float:
    a1, a2 = params.a1, params.a2
    t1, t2, gap = _rate_gap(params, t, lam)
    gap = float(gap)
    denom = (1.0 + lam) * (a2 * t2 + lam * lam * a1 * t1)
    root = math.sqrt(max(t1 * t1 - params.beta1 ** 2, 0.0))
    return -2.0 * gap / (1.0 + lam) ** 3 - a1 * root / denom


def _tau(l: int, g):
    """The inverse of `_phi` on 0 < g <= sqrt(l - 1)."""
    return (g / l + (l - 1.0) / (l * g)) / 2.0


def _two_product(x: float, y: float) -> Tuple[float, float]:
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's product
    on Veltkamp's splits of x and y into 26-bit halves."""
    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = x * y
    xh, xl = split(x)
    yh, yl = split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _shared_g(params: PhaseParams, t: float) -> float:
    """The g of an interior maximum: the smaller root of A g^2 - 2 t g + B
    = 0, as B / (t + sqrt(t^2 - A B)), which does not cancel.  Near R, t^2
    and A B agree in most digits, so both products are formed exactly."""
    a1, a2, l1, l2 = params.a1, params.a2, params.l1, params.l2
    A = a1 / l1 + a2 / l2
    B = a1 * (l1 - 1.0) / l1 + a2 * (l2 - 1.0) / l2
    tt, tt_err = _two_product(t, t)
    ab, ab_err = _two_product(A, B)
    return B / (t + math.sqrt(max((tt - ab) + (tt_err - ab_err), 0.0)))


def find_lambda0(params: PhaseParams, t: float) -> Tuple[float, bool]:
    """Maximizer of Psi: returns (lambda0, interior).

    interior is False when the maximum sits on the boundary lambda = 0
    (then Psi'(0) <= 0): when the shared g reaches sqrt(l2 - 1).  Else
    lambda0 = a2 sqrt(t2^2 - beta2^2) / (a1 sqrt(t1^2 - beta1^2)) at
    t_i = tau_li(g), with t_i - beta_i = (g - sqrt(l_i - 1))^2 / (2 l_i g)
    free of cancellation.
    """
    if t <= t_feasible_min(params):
        raise ValueError("t must exceed a1 beta1 + a2 beta2")
    if params.l1 == params.l2:  # t1 = t2 = t
        return params.a2 / params.a1, True
    g = _shared_g(params, t)
    if not g < math.sqrt(params.l2 - 1.0):
        return 0.0, False

    def root(l, beta):  # sqrt(t^2 - beta^2) at t = tau_l(g)
        return math.sqrt((g - math.sqrt(l - 1.0)) ** 2 / (2.0 * l * g)
                         * (_tau(l, g) + beta))

    return (params.a2 * root(params.l2, params.beta2)
            / (params.a1 * root(params.l1, params.beta1))), True


def solve_t0(params: PhaseParams) -> Tuple[float, float]:
    """Threshold (t0, r0) where phi1(t1(0)) = phi2(beta2) = log sqrt(l2 - 1).

    There g = sqrt(l2 - 1), so t1 = tau1(sqrt(l2 - 1)), t2 = beta2 and
    t0 = a1 tau1(sqrt(l2 - 1)) + a2 beta2.
    """
    if params.l1 <= params.l2:
        raise ValueError("threshold needs l1 > l2")
    t0 = (params.a1 * _tau(params.l1, math.sqrt(params.l2 - 1.0))
          + params.a2 * params.beta2)
    return t0, r_of_t(t0)


REGIME_PURE_EXPONENTIAL = "pure-exponential"
REGIME_CRITICAL = "critical-over-sqrt-n"
REGIME_OVER_N32 = "over-n-3-2"


@dataclass(frozen=True)
class PhaseReport:
    params: PhaseParams
    r: float
    t: float
    R: float
    t0: Optional[float]
    r0: Optional[float]
    regime: str
    lambda0: float
    interior: bool
    omega: float


# |r - r0| at most this counts as the threshold itself
R0_WINDOW = 1e-9


def classify(params: PhaseParams, r: float) -> PhaseReport:
    """Regime of the sphere-sum prefactor at parameter r in (0, R].

    For r below the threshold r0 the maximizer of Psi is interior and the
    prefactor of e^{n omega(r)} is of constant order; above r0 it decays
    like n^{-3/2}; at r0 itself the maximizer reaches the boundary and the
    decay is n^{-1/2} (see the critical-exponent note in the module
    docstring).  For l1 = l2 there is no threshold and the regime is pure
    exponential throughout.
    """
    R = capital_R(params)
    if not (0.0 < r <= R * (1 + 1e-12)):
        raise ValueError(f"r must lie in (0, {R}]")
    t = t_of_r(min(r, R))
    t0 = r0 = None
    if params.l1 == params.l2:
        regime = REGIME_PURE_EXPONENTIAL
    else:
        t0, r0 = solve_t0(params)
        regime = (REGIME_CRITICAL if abs(r - r0) <= R0_WINDOW
                  else REGIME_PURE_EXPONENTIAL if r < r0 else REGIME_OVER_N32)
    at_R = t <= t_feasible_min(params) + 1e-15
    if regime == REGIME_PURE_EXPONENTIAL and not at_R:
        lam0, interior = find_lambda0(params, t)
        omega = math.log(_shared_g(params, t))
    else:
        # on the boundary lambda0 = 0 and t2 = beta2.  At R, t sits at the
        # edge of the feasible range, where the quadratic's root is
        # ill-conditioned; the constraint pins t1 = beta1 there
        interior = regime == REGIME_PURE_EXPONENTIAL
        lam0 = params.a2 / params.a1 if interior else 0.0
        t1 = (params.beta1 if at_R
              else (t - params.a2 * params.beta2) / params.a1)
        omega = float(_phi(params.l1, t1))
    return PhaseReport(params, r, t, R, t0, r0, regime, lam0, interior, omega)


# ---------------------------------------------------------------------------
# model sums


def hn_model_log(params: PhaseParams, r: float, n: int) -> float:
    """log of the model sum

        n^{-5/2} sum_{k=0}^n (k + kappa1)(n - k + kappa2) e^{n Psi((n-k)/k)}.
    """
    return float(_model_logs(params, r, [n])[0])


def _model_logs(params: PhaseParams, r: float, ns) -> np.ndarray:
    """hn_model_log at each n of ns, from one `psi` call on the
    concatenated grids lambda = (n - k)/k, k = 0..n; psi is elementwise,
    so each value has the bits of a call on its own grid."""
    if min(ns) < 1:
        raise ValueError("n must be >= 1")
    t = t_of_r(r)
    if t <= t_feasible_min(params):
        raise ValueError("r out of range (needs r <= R)")
    ks = [np.arange(n + 1.0) for n in ns]
    # lambda = (n - k)/k, infinite at k = 0
    psis = psi(params, t, np.concatenate(
        [np.append(np.inf, (n - k[1:]) / k[1:]) for n, k in zip(ns, ks)]))
    out = []
    for n, k in zip(ns, ks):
        logw = np.log(k + params.kappa1) + np.log(n - k + params.kappa2)
        out.append(_log_sum_exp(logw + n * psis[:n + 1])
                   - 2.5 * math.log(n))
        psis = psis[n + 1:]
    return np.array(out)


def f_sum_log(phi_func, n: int) -> float:
    """log f(n) with f(n) = sum_{k=0}^n k (n-k) e^{n Phi((n-k)/k)} for an
    arbitrary rate function Phi (the k = 0 and k = n terms vanish)."""
    ks = np.arange(1, n)
    lams = (n - ks) / ks
    vals = np.array([phi_func(l) for l in lams], dtype=float)
    return _log_sum_exp(np.log(ks) + np.log(n - ks) + n * vals)


def _log_sum_exp(terms: np.ndarray) -> float:
    """log sum exp(terms), scaled by the largest term."""
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()))


def _line_fit(x, y) -> Tuple[float, float]:
    """Least-squares slope of y against x, and its standard error
    sqrt(s^2 / sum (x - mean x)^2), s^2 the residual variance; 0 where no
    residual is left."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    if not res.size:  # at most two points, or one distinct x
        return float(coef[0]), 0.0
    sigma2 = res[0] / (len(x) - 2)
    return float(coef[0]), math.sqrt(sigma2 / np.sum((x - x.mean()) ** 2))


def prefactor_exponent(log_values, ns, omega: float) -> Tuple[float, float]:
    """`_line_fit` of log values minus n * omega against log n: the
    polynomial correction exponent and its standard error.  A slope needs
    at least two distinct n; fewer raise ValueError."""
    ns = np.asarray(ns, dtype=float)
    if len(np.unique(ns)) < 2:
        raise ValueError("a prefactor exponent needs at least two distinct n")
    return _line_fit(np.log(ns), np.asarray(log_values, dtype=float)
                    - ns * omega)


def model_window(params: PhaseParams, r: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """hn_model_log on the geometric grid of 25 n from 200 to 2000, from
    one pass of psi over all 25 grids of lambda."""
    ns = np.unique(np.round(np.geomspace(200, 2000, 25)).astype(int))
    return ns, _model_logs(params, r, ns.tolist())
