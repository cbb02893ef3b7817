"""Closed-form random-walk quantities on regular trees, and the
Diestel-Leader Green-function shape with its sphere-sum model.

All formulas are for the lazy kernel with mass 1/2 at the identity and
1/(2l) on each neighbor of the l-regular tree, at series parameter r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from .groups import DLProfile, dl_class_count


@dataclass(frozen=True)
class TreeClosedForm:
    """Spectral data of the lazy walk on the l-regular tree at parameter r.

    F is the first-visit generating value F(x, y | r) for neighbors x, y;
    G is the on-diagonal Green value; G * F^d is the Green function at
    distance d.
    """
    l: int
    r: float
    beta: float
    rho: float
    R: float
    t: float
    F: float
    G: float


def tree_closed_form(l: int, r: float) -> TreeClosedForm:
    if l < 3:
        raise ValueError("need l >= 3")
    beta = math.sqrt(l - 1) / l
    rho = 0.5 + beta
    R = 1.0 / rho
    if not (0.0 < r <= R * (1 + 1e-14)):
        raise ValueError(f"r must lie in (0, {R}]")
    t = 1.0 / r - 0.5
    disc = max(t * t - beta * beta, 0.0)
    F = (l / (l - 1.0)) * (t - math.sqrt(disc))
    G = (1.0 / r) / (1.0 / r - 0.5 * (1.0 + F))
    return TreeClosedForm(l=l, r=r, beta=beta, rho=rho, R=R, t=t, F=F, G=G)


def tree_green(l: int, r: float, d: int) -> float:
    """G(e, x | r) = G(r) F(r)^|x| at distance d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    cf = tree_closed_form(l, r)
    return cf.G * cf.F ** d


def tree_sphere_green_sum(l: int, r: float, n: int) -> float:
    """H_r(n) = #S_n * G(r) F(r)^n on the l-regular tree."""
    cf = tree_closed_form(l, r)
    if n == 0:
        return cf.G
    return l * (l - 1.0) ** (n - 1) * cf.G * cf.F ** n


def tree_omega(l: int, r: float) -> float:
    """Growth rate omega(r) = log(l - 1) + log F(r) of the sphere sums."""
    cf = tree_closed_form(l, r)
    return math.log(l - 1.0) + math.log(cf.F)


# ---------------------------------------------------------------------------
# Diestel-Leader Green shape


def bw_green_shape(q: int, profile: DLProfile) -> float:
    """Asymptotic shape of the simple-walk Green function on DL(q, q),
    up to a global constant:

        G(e, x) ~ C * s^-4 q^-s * [ (q+1)/(q-1) * (u1 (s - d2) + (s - u1) d2)
                                    + s u1 d2 + s (s - u1)(s - d2) ]

    where (u1, d2, s) is the up/down profile of x.  The bracket is invariant
    under the coordinate swap (u1, d2) -> (s - u1, s - d2), matching the
    symmetry G(e, x) = G(e, x^{-1}).
    """
    u1, d2, s = profile.u1, profile.d2, profile.s
    if s < 1:
        raise ValueError("shape needs s >= 1")
    bracket = ((q + 1.0) / (q - 1.0) * (u1 * (s - d2) + (s - u1) * d2)
               + s * u1 * d2 + s * (s - u1) * (s - d2))
    return bracket / (s ** 4 * float(q) ** s)


def lamplighter_h1_model(q: int, n: int) -> float:
    """Model value of the sphere-summed Green series on DL(q, q) over the
    even sphere S_2n: profile class counts times the Green shape, with the
    global constant omitted.

    The h(x1) > 0 stratum runs over s = n+1..2n with u1 + d2 = 2n - s and
    is doubled to cover h(x1) < 0 (the shape bracket is swap-invariant);
    the h(x1) = 0 stratum is pinned at s = n.  Grows asymptotically
    linearly in n; odd radii have no model here and are handled by the
    series engines directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0.0
    for k in range(n + 1, 2 * n + 1):
        for j in range(0, 2 * n - k + 1):
            i = 2 * n - k - j
            count = dl_class_count(q, i, j, k)
            total += 2.0 * count * bw_green_shape(q, DLProfile(i, j, k))
    for j in range(0, n + 1):
        count = dl_class_count(q, n - j, j, n)
        total += count * bw_green_shape(q, DLProfile(n - j, j, n))
    return total


def bw_calibration(q: int, profiles: Sequence[DLProfile], r: float = 1.0,
                   n_max: int = 600) -> Dict[DLProfile, float]:
    """Ratio of the series Green value to the shape for given profiles.

    A stable ratio across profiles is the (non-rigorous) calibration of the
    global constant in the shape formula.
    """
    from .kernels import dl_class_key, dl_green_classes

    keys = {p: dl_class_key(p) for p in profiles}
    values = dl_green_classes(q, sorted(set(keys.values())), r, n_max=n_max)
    return {p: values[k] / bw_green_shape(q, p) for p, k in keys.items()}
