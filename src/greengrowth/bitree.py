"""Phase transition of sphere-summed Green series on products of two trees.

The walk on T_{l1} x T_{l2} mixes a lazy step in the first tree (weight a1)
with one in the second (weight a2 = 1 - a1).  With t = 1/r - 1/2 and
beta_i = sqrt(l_i - 1)/l_i, the sphere sums obey

    H_r(n) ~ n^{-5/2} * sum_k (k + kappa_1)(n - k + kappa_2) e^{n Psi((n-k)/k)}

where Psi is the constrained exponent built from the implicit system

    a1 t1 + a2 t2 = t,      a2 sqrt(t2^2 - beta2^2) = lambda a1 sqrt(t1^2 - beta1^2).

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
and 2.06.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


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
        return math.sqrt(self.l1 - 1) / self.l1

    @property
    def beta2(self) -> float:
        return math.sqrt(self.l2 - 1) / self.l2

    @property
    def kappa1(self) -> float:
        return self.l1 / (self.l1 - 2.0)

    @property
    def kappa2(self) -> float:
        return self.l2 / (self.l2 - 2.0)


def capital_R(params: PhaseParams) -> float:
    """Radius of convergence R = 1/rho of the mixed walk."""
    rho1 = 0.5 + params.beta1
    rho2 = 0.5 + params.beta2
    return 1.0 / (params.a1 * rho1 + params.a2 * rho2)


def t_of_r(r: float) -> float:
    return 1.0 / r - 0.5


def r_of_t(t: float) -> float:
    return 1.0 / (t + 0.5)


def _phi(l: int, tau) :
    """phi(tau) = log l + log(tau - sqrt(tau^2 - beta^2)), vector-safe."""
    beta2 = (l - 1.0) / (l * l)
    disc = np.maximum(np.asarray(tau) ** 2 - beta2, 0.0)
    return np.log(l) + np.log(np.asarray(tau) - np.sqrt(disc))


def t_feasible_min(params: PhaseParams) -> float:
    """Smallest admissible t = a1 beta1 + a2 beta2 (attained at r = R)."""
    return params.a1 * params.beta1 + params.a2 * params.beta2


def solve_t1t2(params: PhaseParams, t: float, lam: float,
               tol: float = 1e-12) -> Tuple[float, float, float]:
    """Solve the implicit system for (t1, t2) at multiplier lambda >= 0.

    Returns (t1, t2, residual) with residual the absolute defect of the
    square-root equation; the linear constraint holds exactly by
    construction.  Bisection on the monotone defect, so the residual is at
    machine-precision level everywhere in the feasible region.
    """
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    if t <= t_feasible_min(params):
        raise ValueError("t must exceed a1 beta1 + a2 beta2")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    t1_hi = (t - a2 * b2) / a1  # where t2 = beta2
    if lam == 0.0:
        return t1_hi, b2, 0.0

    def defect(t1):
        t2 = (t - a1 * t1) / a2
        return (a2 * math.sqrt(max(t2 * t2 - b2 * b2, 0.0))
                - lam * a1 * math.sqrt(max(t1 * t1 - b1 * b1, 0.0)))

    lo, hi = b1, t1_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if defect(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t1 = 0.5 * (lo + hi)
    t2 = (t - a1 * t1) / a2
    return t1, t2, abs(defect(t1))


def _solve_t1_grid(params: PhaseParams, t: float, lams: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bisection for the whole lambda grid at once."""
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    t1_hi = (t - a2 * b2) / a1
    lo = np.full_like(lams, b1, dtype=float)
    hi = np.full_like(lams, t1_hi, dtype=float)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        t2 = (t - a1 * mid) / a2
        d = (a2 * np.sqrt(np.maximum(t2 * t2 - b2 * b2, 0.0))
             - lams * a1 * np.sqrt(np.maximum(mid * mid - b1 * b1, 0.0)))
        take = d > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    t1 = 0.5 * (lo + hi)
    return t1, (t - a1 * t1) / a2


def t_derivatives(params: PhaseParams, t: float, lam: float
                  ) -> Tuple[float, float]:
    """(t1'(lambda), t2'(lambda)) from the implicit function theorem."""
    a1, a2 = params.a1, params.a2
    t1, t2, _ = solve_t1t2(params, t, lam)
    denom = a2 * t2 + lam * lam * a1 * t1
    d1 = -lam * a1 * (t1 * t1 - params.beta1 ** 2) / denom
    return d1, -(a1 / a2) * d1


def psi(params: PhaseParams, t: float, lam: float) -> float:
    """Psi(lambda) = (phi1(t1) + lambda phi2(t2)) / (1 + lambda)."""
    if math.isinf(lam):
        _, t2 = _endpoint_infinity(params, t)
        return float(_phi(params.l2, t2))
    t1, t2, _ = solve_t1t2(params, t, lam)
    return float((_phi(params.l1, t1) + lam * _phi(params.l2, t2))
                 / (1.0 + lam))


def psi_prime(params: PhaseParams, t: float, lam: float) -> float:
    t1, t2, _ = solve_t1t2(params, t, lam)
    return float((_phi(params.l2, t2) - _phi(params.l1, t1))
                 / (1.0 + lam) ** 2)


def psi_second(params: PhaseParams, t: float, lam: float) -> float:
    a1, a2 = params.a1, params.a2
    t1, t2, _ = solve_t1t2(params, t, lam)
    gap = float(_phi(params.l2, t2) - _phi(params.l1, t1))
    denom = (1.0 + lam) * (a2 * t2 + lam * lam * a1 * t1)
    root = math.sqrt(max(t1 * t1 - params.beta1 ** 2, 0.0))
    return -2.0 * gap / (1.0 + lam) ** 3 - a1 * root / denom


def _endpoint_infinity(params: PhaseParams, t: float) -> Tuple[float, float]:
    """(t1, t2) limits as lambda -> infinity."""
    t1 = params.beta1
    t2 = (t - params.a1 * params.beta1) / params.a2
    return t1, t2


def find_lambda0(params: PhaseParams, t: float,
                 tol: float = 1e-10) -> Tuple[float, bool]:
    """Maximizer of Psi: returns (lambda0, interior).

    interior is False when the maximum sits on the boundary lambda = 0
    (then Psi'(0) <= 0).  Uses the strict monotonicity of
    phi2(t2) - phi1(t1) in lambda.
    """
    def gap(lam):
        t1, t2, _ = solve_t1t2(params, t, lam)
        return float(_phi(params.l2, t2) - _phi(params.l1, t1))

    if gap(0.0) <= 0.0:
        return 0.0, False
    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("Psi has no interior critical point "
                               "below lambda = 1e12")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(gap(0.5 * (lo + hi))) / (1.0 + 0.5 * (lo + hi)) ** 2 < tol * 1e-3:
            break
    lam0 = 0.5 * (lo + hi)
    return lam0, True


def solve_t0(params: PhaseParams, method: str = "algebraic"
             ) -> Tuple[float, float]:
    """Threshold (t0, r0) where phi1(t1(0)) = phi2(beta2).

    Algebraic inversion: with u = sqrt(l2 - 1)/l1 the equation
    phi1(s) = (1/2) log(l2 - 1) solves to s = (u^2 + beta1^2) / (2u),
    and t0 = a1 s + a2 beta2.  The bisection route solves the same
    equation numerically for cross-validation.
    """
    if params.l1 <= params.l2:
        raise ValueError("threshold needs l1 > l2")
    a1, a2 = params.a1, params.a2
    b1, b2 = params.beta1, params.beta2
    if method == "algebraic":
        u = math.sqrt(params.l2 - 1.0) / params.l1
        s = (u * u + b1 * b1) / (2.0 * u)
        t0 = a1 * s + a2 * b2
    elif method == "bisect":
        target = 0.5 * math.log(params.l2 - 1.0)

        def h(t):
            return float(_phi(params.l1, (t - a2 * b2) / a1)) - target

        lo, hi = t_feasible_min(params) + 1e-15, 0.5
        # h is decreasing in t; extend hi until a sign change
        while h(hi) > 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if h(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t0 = 0.5 * (lo + hi)
    else:
        raise ValueError("method must be 'algebraic' or 'bisect'")
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


def classify(params: PhaseParams, r: float,
             r0_window: float = 1e-9) -> PhaseReport:
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
    # at R, t sits at the edge of the feasible range, where psi is not
    # defined; the constraint pins t1 = beta1 there, so omega = phi1(beta1)
    at_R = t <= t_feasible_min(params) + 1e-15
    if params.l1 == params.l2:
        t0 = r0 = None
        regime = REGIME_PURE_EXPONENTIAL
        lam0, interior = ((params.a2 / params.a1, True) if at_R
                          else find_lambda0(params, t))
    else:
        t0, r0 = solve_t0(params)
        if abs(r - r0) <= r0_window:
            regime, lam0, interior = REGIME_CRITICAL, 0.0, False
        elif r < r0:
            lam0, interior = find_lambda0(params, t)
            regime = REGIME_PURE_EXPONENTIAL
        else:
            regime, lam0, interior = REGIME_OVER_N32, 0.0, False
    omega = (float(_phi(params.l1, params.beta1)) if at_R
             else psi(params, t, lam0))
    return PhaseReport(params, r, t, R, t0, r0, regime, lam0, interior, omega)


# ---------------------------------------------------------------------------
# model sums


def _psi_on_ks(params: PhaseParams, t: float, n: int) -> np.ndarray:
    """Psi((n-k)/k) for k = 0..n, with the analytic endpoint limits."""
    out = np.empty(n + 1)
    ks = np.arange(1, n)
    lams = (n - ks) / ks
    t1, t2 = _solve_t1_grid(params, t, lams)
    phis = (_phi(params.l1, t1) + lams * _phi(params.l2, t2)) / (1.0 + lams)
    out[1:n] = phis
    out[n] = float(_phi(params.l1, (t - params.a2 * params.beta2) / params.a1))
    _, t2inf = _endpoint_infinity(params, t)
    out[0] = float(_phi(params.l2, t2inf))
    return out


def hn_model_log(params: PhaseParams, r: float, n: int) -> float:
    """log of the model sum

        n^{-5/2} sum_{k=0}^n (k + kappa1)(n - k + kappa2) e^{n Psi((n-k)/k)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = t_of_r(r)
    if t <= t_feasible_min(params):
        raise ValueError("r out of range (needs r <= R)")
    psis = _psi_on_ks(params, t, n)
    ks = np.arange(0, n + 1)
    logw = (np.log(ks + params.kappa1) + np.log(n - ks + params.kappa2))
    terms = logw + n * psis
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()) - 2.5 * math.log(n))


def hn_model(params: PhaseParams, r: float, n: int) -> float:
    """Model sum itself; overflows to inf when n * omega is large."""
    try:
        return math.exp(hn_model_log(params, r, n))
    except OverflowError:
        return math.inf


def f_sum_log(phi_func, n: int) -> float:
    """log f(n) with f(n) = sum_{k=0}^n k (n-k) e^{n Phi((n-k)/k)} for an
    arbitrary rate function Phi (the k = 0 and k = n terms vanish)."""
    ks = np.arange(1, n)
    lams = (n - ks) / ks
    vals = np.array([phi_func(l) for l in lams], dtype=float)
    terms = np.log(ks) + np.log(n - ks) + n * vals
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()))


def prefactor_exponent(log_values, ns, omega: float) -> Tuple[float, float]:
    """Least-squares slope (and standard error) of log values minus
    n * omega against log n: the polynomial correction exponent."""
    ns = np.asarray(ns, dtype=float)
    y = np.asarray(log_values, dtype=float) - ns * omega
    x = np.log(ns)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(ns) - 2, 1)
    s2 = (res[0] / dof) if len(res) else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


def model_window(params: PhaseParams, r: float, n_lo: int = 200,
                 n_hi: int = 2000, points: int = 25
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Geometric n-grid and hn_model_log values on it."""
    ns = np.unique(np.round(np.geomspace(n_lo, n_hi, points)).astype(int))
    vals = np.array([hn_model_log(params, r, int(n)) for n in ns])
    return ns, vals
