"""Correctness checks for benchmark outputs, with negative controls.

Every check is a predicate that returns (ok, detail).  It runs on the
program's output and on a perturbed copy that it must reject; a check that
accepts its perturbed copy is broken and makes the round incorrect.  A
check tied to a known fault of the program counts its operation as failed
instead of marking the round incorrect.

References here are computed apart from the layer under test: the exact
banded resolvent for the Diestel-Leader class engine, the free-product
factor equations solved with the factor engines, and identities any
Green function or sphere sum must satisfy.
"""

from __future__ import annotations

import math

import numpy as np


class Checks:
    def __init__(self):
        self.rows = []

    def expect(self, op, name, pred, value, perturbed, accepts=None,
               known_fault=None):
        """Record pred(value); pred must reject `perturbed` and, when given,
        accept `accepts` (a reference value)."""
        ok, detail = pred(value)
        control = not pred(perturbed)[0]
        if accepts is not None:
            control = control and pred(accepts)[0]
        self.rows.append({"op": op, "check": name, "ok": bool(ok),
                          "control_ok": bool(control), "detail": detail,
                          "known_fault": known_fault})

    def failed_ops(self):
        return sorted({r["op"] for r in self.rows
                       if not r["ok"] and r["known_fault"]})

    def correct(self):
        return all((r["ok"] or r["known_fault"]) and r["control_ok"]
                   for r in self.rows)


# ---------------------------------------------------------------------------
# generic predicates


def sum_bound(r):
    """For r < 1 and steps of word length <= 1, |X_k| <= k, so
    (1 - r^(N+1)) / (1 - r) <= sum_{n<=N} H_r(n) <= 1 / (1 - r)."""
    def pred(values):
        values = np.asarray(values, dtype=float)
        n = len(values) - 1
        lo = (1.0 - r ** (n + 1)) / (1.0 - r)
        hi = 1.0 / (1.0 - r)
        s = float(values.sum())
        ok = lo * (1 - 1e-9) <= s <= hi * (1 + 1e-9)
        return ok, f"sum {s:.10g} in [{lo:.10g}, {hi:.10g}]"
    return pred


def sum_bound_controls(values, r):
    """Copies of values scaled just outside the lower and the upper bound."""
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    s = values.sum()
    lo = (1.0 - r ** (n + 1)) / (1.0 - r)
    hi = 1.0 / (1.0 - r)
    return values * (lo / s) * (1 - 1e-6), values * (hi / s) * (1 + 1e-6)


def joint_fit(values, lo, hi):
    """Fit log H(n) ~ omega n + beta log n + c on n in [lo, hi]."""
    ns = np.arange(lo, hi + 1, dtype=float)
    y = np.log(np.asarray(values, dtype=float)[lo:hi + 1])
    a = np.vstack([ns, np.log(ns), np.ones_like(ns)]).T
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(coef[0]), float(coef[1])


def close_rel(tol):
    """Elementwise |value - ref| <= tol * |ref| on (value, ref) pairs."""
    def pred(pair):
        value, ref = (np.asarray(v, dtype=float) for v in pair)
        rel = np.abs(value - ref) / np.abs(ref)
        worst = float(rel.max())
        return worst <= tol, f"worst relative error {worst:.3g} <= {tol:g}"
    return pred


def strictly_increasing(values):
    v = list(values)
    return all(a < b for a, b in zip(v, v[1:])), "strictly increasing"


def swap_first_two(values):
    v = list(values)
    v[0], v[1] = v[1], v[0]
    return v


# ---------------------------------------------------------------------------
# Diestel-Leader reference: exact resolvent of each confined interval


def _confined_resolvent(a, b, r):
    """(I - r P)^(-1) e_0 for the simple walk on Z killed outside [a, b]."""
    from scipy.linalg import solve_banded

    width = b - a + 1
    band = np.zeros((3, width))
    band[0, 1:] = -0.5 * r
    band[1, :] = 1.0
    band[2, :-1] = -0.5 * r
    rhs = np.zeros(width)
    rhs[-a] = 1.0
    return solve_banded((1, 1), band, rhs)


def dl_series_reference(q, n_max, r, class_rows, rel_cut=1e-13):
    """H_r(n) on DL(q, q) for n <= n_max from exact confined resolvents.

    class_rows[n] lists ((pos, A, B), count) for the sphere S_n.  Each class
    value sums, over the ranges [a, b] containing [A, B], the exact-range
    Green weight of pos times q^(a - b); ranges wider than the class by
    more than log_q(1 / rel_cut) are cut.
    """
    keys = {k for row in class_rows for k, _ in row}
    extra = math.ceil(-math.log(rel_cut) / math.log(q))
    a_lo = min(k[1] for k in keys) - extra
    b_hi = max(k[2] for k in keys) + extra
    acc = {(a, b): _confined_resolvent(a, b, r)
           for a in range(a_lo, 1) for b in range(0, b_hi + 1)}

    def read(a, b, pos):
        if a > 0 or b < 0 or pos < a or pos > b:
            return 0.0
        return acc[(a, b)][pos - a]

    green = {}
    for pos, big_a, big_b in keys:
        total = 0.0
        for a in range(a_lo, big_a + 1):
            for b in range(big_b, b_hi + 1):
                e = (read(a, b, pos) - read(a + 1, b, pos)
                     - read(a, b - 1, pos) + read(a + 1, b - 1, pos))
                total += e * q ** float(a - b)
        green[(pos, big_a, big_b)] = total
    return np.array([sum(c * green[k] for k, c in row)
                     for row in class_rows])


# ---------------------------------------------------------------------------
# free-product factor equations


def factor_equation_root(g0, g1, alpha, r, start):
    """Root (w0, w1) of G0(zeta0)/(1-w0) = G1(zeta1)/(1-w1) = 1/(1-w0-w1)
    with zeta0 = (1-alpha) r/(1-w0), zeta1 = alpha r/(1-w1); g0 and g1 are
    the factors' on-diagonal Green functions."""
    from scipy.optimize import fsolve

    def residual(w):
        w0, w1 = w
        g = 1.0 / (1.0 - w0 - w1)
        return [g0((1.0 - alpha) * r / (1.0 - w0)) - (1.0 - w0) * g,
                g1(alpha * r / (1.0 - w1)) - (1.0 - w1) * g]

    root, _, ier, msg = fsolve(residual, start, xtol=1e-14,
                               full_output=True)
    # fsolve may stop short of xtol at a root that rounding error allows
    # no closer approach to; the residual decides
    if ier != 1 and max(abs(x) for x in residual(root)) > 1e-13:
        raise RuntimeError(f"factor equations did not converge: {msg}")
    return float(root[0]), float(root[1])


def below_root(slack, close):
    """Truncated first-return series lie below the exact root and within
    `close` of it; `slack` is the root's own accuracy."""
    def pred(pair):
        w, root = pair
        gap = root - w
        return (-slack <= gap <= close), f"root - w = {gap:.3g}"
    return pred
