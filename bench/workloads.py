"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `__init__` (set-up),
makes its timed calls into `greengrowth` in `run`, and checks the outputs
in `check`.  Timed calls go through `Round.call`, which files each under
a task: `series` (h_series, parabolic_gap_report) counts in `series_s`;
`green`, `brw`, `transfer`, `scan` and `phase` count in `wall_s` only and
label the per-call summary; `excluded` counts in neither (the one call
that fails its check, see Amenable).  A run is made of whole cycles of
CYCLE rounds; a workload may make a call only in the first round of each
cycle.  README.md gives the make-up and the reasons for each workload.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import random
import time
from dataclasses import replace

import numpy as np

from greengrowth import bitree, brw, freeprod, groups, growth, kernels, trees
from greengrowth.bitree import PhaseParams
from greengrowth.groups import (
    DiestelLeader, FreeAbelian, FreeProduct, Heisenberg3, RegularTree,
    TreeProduct, group_for,
)

import checks as C

P64 = PhaseParams(6, 4, 0.5, 0.5)
P44 = PhaseParams(4, 4, 0.5, 0.5)
# closed forms for P64: t0 = 17 sqrt(3) / 72, r0 = 1 / (t0 + 1/2)
T0_P64 = 17.0 * math.sqrt(3.0) / 72.0
R0_P64 = 72.0 / (17.0 * math.sqrt(3.0) + 36.0)
# every particle has two children, so the number of particle steps is
# fixed by the generation count and the cap and does not depend on the seed
BINARY = brw.mean_offspring(2.0)


class Round:
    """Times calls into the program and files each under a task.

    `ops` holds (label, task, seconds, digest of the output) per call;
    `index` is the round's place in the run."""

    def __init__(self, index, tracer=None):
        self.index = index
        self.ops = []
        self.tracer = tracer

    def call(self, task, label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if self.tracer is not None:
            out = self.tracer.call("bench." + task, fn, *args, **kwargs)
        else:
            out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(pickle.dumps(out, protocol=4)).hexdigest()
        self.ops.append((label, task, seconds, digest))
        return out


def _check_brw_trace(chk, op, summary, sphere_size, cap):
    """M_n <= |S_n| and population <= cap on every run."""
    m = np.array([t.m_counts for t in summary.runs], dtype=float)
    sizes = np.array([float(sphere_size(n)) for n in range(m.shape[1])])
    pop = max(int(t.population.max()) for t in summary.runs)

    def m_pred(counts):
        over = int((counts > sizes).sum())
        return over == 0, f"{over} entries with M_n > |S_n|"

    bad = m.copy()
    bad[0, 1] = sizes[1] + 1
    chk.expect(op, "M_n <= |S_n|", m_pred, m, bad)

    def pop_pred(p):
        return p <= cap, f"max population {p} <= {cap}"

    chk.expect(op, "population <= cap", pop_pred, pop, cap + 1)


def _series_label(spec, r, n):
    return f"h_series {spec} r={r} n<={n}"


def _check_sum_bound(chk, op, values, r):
    lo_bad, hi_bad = C.sum_bound_controls(values, r)
    pred = C.sum_bound(r)
    chk.expect(op, "sum bound", pred, values, hi_bad)
    chk.expect(op, "sum bound (lower side)", pred, values, lo_bad)


# ---------------------------------------------------------------------------


class Construction:
    """Free-product transfer, construction scan, gap report, coset hits."""

    CYCLE = 1
    # the calls run the interpreted word sweep
    CALIBRATION = ("dict", "small_arrays", "alloc")
    N = 12
    CAP = 600
    ALPHA = 0.2
    RADII = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.05)
    # at this truncation and cap the transfer discrepancy over seeds 1-30
    # is at most 2.3% at r = 0.5 and reaches 5.3% at r = 0.65, so the
    # direct values are taken at 0.5
    R_DIRECT = 0.5
    # w1 at r = 0.5 lies 9e-8 below the root of the factor equations, a
    # truncation error; the root check stops at 0.35, where it is 4e-9
    ROOT_R_MAX = 0.35
    SCAN_GRID = tuple(np.linspace(1.0, 1.13, 4))
    SCAN_CAP = 200
    GAP_SPEC = FreeProduct(RegularTree(3), FreeAbelian(2))
    GAP_R = 0.9
    # omega_estimate needs a window of span 5
    GAP_N_MAX = 5
    # with truncation 6, or truncation 7 and cap 1500, the pruned sweep
    # leaves the sphere S_5 empty
    GAP_N = 7
    GAP_CAP = 2000
    COSET_CAP = 500

    def __init__(self, seed):
        self.spec = FreeProduct(TreeProduct(4, 4), FreeAbelian(3))
        self.measure = kernels.standard_measure(self.spec, alpha=self.ALPHA)
        self.m_left = kernels.standard_measure(self.spec.left)
        self.m_right = kernels.standard_measure(self.spec.right)
        g = group_for(self.spec)
        left = group_for(self.spec.left)
        rng = random.Random(seed)
        layers = left.ball(3)
        # distinct targets: green_truncated counts a repeated target twice
        # (CHANGES.md FOUND)
        self.factor_targets = ([rng.choice(layers[1])]
                               + rng.sample(layers[2], 2)
                               + [rng.choice(layers[3])])
        self.targets = [g.embed(0, x) for x in self.factor_targets]
        self.gap_spec = self.GAP_SPEC
        self.gap_measure = kernels.standard_measure(self.gap_spec)
        self.brw_config = brw.BrwConfig(BINARY, 30, self.COSET_CAP, seed, 1)

    def run(self, rnd):
        out = {}
        out["transfer"] = [
            rnd.call("transfer", f"transfer r={r}", freeprod.transfer,
                     self.spec, self.measure, r, n_max=self.N,
                     support_cap=self.CAP)
            for r in self.RADII]
        out["direct"] = rnd.call(
            "green", f"green_truncated free product r={self.R_DIRECT}",
            kernels.green_truncated, self.measure, self.targets,
            self.R_DIRECT, max_terms=self.N, support_cap=self.CAP)
        out["scan"] = rnd.call(
            "scan", "scan_construction (6,4) * Z^3",
            freeprod.scan_construction, P64, 3, 0.05,
            r_grid=list(self.SCAN_GRID), n_max=self.N,
            support_cap=self.SCAN_CAP, full_series_n=0)
        out["gap"] = rnd.call(
            "series", "parabolic_gap_report T3 * Z^2",
            growth.parabolic_gap_report, self.gap_spec, self.gap_measure,
            self.GAP_R, 0, self.GAP_N_MAX, max_terms=self.GAP_N,
            support_cap=self.GAP_CAP, window=(0, self.GAP_N_MAX))
        out["coset"] = rnd.call(
            "brw", "coset_hits", brw.coset_hits, self.spec, self.measure,
            self.brw_config, 0)
        return out

    def check(self, out, chk):
        points = {p.r: p for p in out["transfer"]}

        # transfer identity G(e,x|r) = G0(e,x|zeta0) / (1 - w0)
        tp = points[self.R_DIRECT]
        factor = kernels.green_truncated(self.m_left, self.factor_targets,
                                         tp.zeta0)
        direct = np.array([out["direct"][y].value for y in self.targets])
        via = np.array([factor[x].value / (1.0 - tp.w0)
                        for x in self.factor_targets])

        def consistent(d):
            rel = float((np.abs(d - via) / np.maximum(d, via)).max())
            return rel <= 0.05, f"worst relative discrepancy {rel:.4f}"

        chk.expect(f"green_truncated free product r={self.R_DIRECT}",
                   "transfer consistency <= 5%", consistent, direct,
                   0.9 * direct)

        w0s = [points[r].w0 for r in self.RADII]
        z0s = [points[r].zeta0 for r in self.RADII]
        chk.expect("transfer r=1.05", "w0 increasing in r",
                   C.strictly_increasing, w0s, C.swap_first_two(w0s))
        chk.expect("transfer r=1.05", "zeta0 increasing in r",
                   C.strictly_increasing, z0s, C.swap_first_two(z0s))

        # root of the factor equations, solved with the factor engines
        e0 = group_for(self.spec.left).identity()
        e1 = group_for(self.spec.right).identity()

        def g0(z):
            return kernels.green_truncated(self.m_left, [e0], z)[e0].value

        def g1(z):
            return kernels.green_truncated(self.m_right, [e1], z)[e1].value

        pred = C.below_root(slack=1e-9, close=1e-8)
        for r in self.RADII:
            if r > self.ROOT_R_MAX:
                continue
            p = points[r]
            root = C.factor_equation_root(g0, g1, self.ALPHA, r,
                                          [p.w0, p.w1])
            for name, w, wr in (("w0", p.w0, root[0]), ("w1", p.w1, root[1])):
                chk.expect(f"transfer r={r}", f"{name} below factor root",
                           pred, (w, wr), (w + 1e-7, wr))
                chk.expect(f"transfer r={r}", f"{name} close to factor root",
                           pred, (w, wr), (w - 1e-6, wr))

        rep = out["scan"]
        op = "scan_construction (6,4) * Z^3"

        def crossing(z):
            return abs(z - R0_P64) <= 1e-9, f"crossing zeta0 {z:.12f}"

        chk.expect(op, "crossing zeta0 = r0 closed form", crossing,
                   rep.crossing_zeta0, rep.crossing_zeta0 + 1e-6)

        def sides(pts):
            div = [p for p in pts if 1.0 < p[0] < R0_P64]
            conv = [p for p in pts if p[0] > R0_P64]
            ok = (bool(div) and bool(conv)
                  and all(e is not None and e >= -1.0 for _, e in div)
                  and all(e is not None and e < -1.0 for _, e in conv))
            return ok, f"{len(div)} divergent below r0, {len(conv)} above"

        pts = [(p.zeta0, p.diagnostic_exponent) for p in rep.points]
        flipped = [(z, -3.0 if z < R0_P64 else e) for z, e in pts]
        chk.expect(op, "divergent below r0, convergent above", sides,
                   pts, flipped)

        gap = out["gap"]
        op = "parabolic_gap_report T3 * Z^2"
        chk.expect(op, "gap > 0", lambda v: (v > 0, f"gap {v:.6f}"),
                   gap.gap, -gap.gap)
        full = gap.series_full.array()
        fac = gap.series_factor.array()

        def below_full(f):
            return bool(np.all(f <= full)), "factor series <= full series"

        raised = fac.copy()
        raised[-1] = full[-1] * 1.01
        chk.expect(op, "factor series <= full", below_full, fac, raised)
        _check_sum_bound(chk, op, full, self.GAP_R)

        rep = out["coset"]
        cfg = self.brw_config
        # every element counted is a child; generation g has at most
        # min(cap, 2^(g-1)) parents with at most 2 children each
        bound = 1 + sum(2 * min(cfg.population_cap, 2 ** (g - 1))
                        for g in range(1, cfg.max_generation + 1))

        def coset_pred(v):
            means, distinct, visits = v
            ok = (all(0.0 <= m < 1.0 for m in means)
                  and all(1 <= d <= bound for d in distinct)
                  and all(1 <= x <= bound for x in visits))
            return ok, "offspring means in [0, 1), counts in [1, bound]"

        value = (list(rep.offspring_means), list(rep.distinct_cosets),
                 list(rep.max_visits))
        chk.expect("coset_hits", "coset statistics in range", coset_pred,
                   value, ([1.0] + value[0][1:], value[1], value[2]))


# ---------------------------------------------------------------------------


class Amenable:
    """Z^3, DL(3,3) and Heisenberg series; Z^3 point values; BRW on Z^3."""

    CYCLE = 4
    # the calls run interpreted loops and numpy calls on short vectors
    CALIBRATION = ("dict", "small_arrays", "alloc")
    DL_N = 10
    SERIES = ((FreeAbelian(3), 0.5, 30), (FreeAbelian(3), 1.0, 30),
              (DiestelLeader(3), 0.5, DL_N), (DiestelLeader(3), 1.0, DL_N),
              (Heisenberg3(), 0.5, 6))
    # truncation order of the Heisenberg sweep (the rigorous order at
    # r = 0.5 is 31 steps and takes 11-17 s)
    HEISENBERG_TERMS = 16
    BALL = 8
    GREEN_R = (0.9, 1.0)
    DL_FAULT_CALL = (DiestelLeader(3), 1.0)
    DL_FAULT = ("dl_green_classes stops after 600 steps at r = 1 "
                "(CHANGES.md FOUND)")

    def __init__(self, seed):
        self.measures = {spec: kernels.standard_measure(spec)
                         for spec, _, _ in self.SERIES}
        self.zd = FreeAbelian(3)
        self.m_zd = self.measures[self.zd]
        layers = group_for(self.zd).ball(self.BALL)
        self.ball = [x for layer in layers for x in layer]
        self.brw_config = brw.BrwConfig(BINARY, 30, 4000, seed, 1)

    def run(self, rnd):
        out = {}
        for spec, r, n in self.SERIES:
            terms = (self.HEISENBERG_TERMS if isinstance(spec, Heisenberg3)
                     else None)
            task = "series"
            if (spec, r) == self.DL_FAULT_CALL:
                # one call of about 5 s cannot catch a quiet spell of a
                # shared machine the way the short calls do, so it is not
                # summed, and it runs once a cycle so that the short calls
                # get more rounds
                if rnd.index % self.CYCLE:
                    continue
                task = "excluded"
            out[(spec, r)] = rnd.call(task, _series_label(spec, r, n),
                                      growth.h_series, spec,
                                      self.measures[spec], r, n,
                                      max_terms=terms)
        for r in self.GREEN_R:
            out[("green", r)] = rnd.call(
                "green", f"green_truncated Z^3 ball {self.BALL} r={r}",
                kernels.green_truncated, self.m_zd, self.ball, r)
        out["brw"] = rnd.call("brw", "simulate Z^3", brw.simulate, self.zd,
                              self.m_zd, self.brw_config)
        return out

    def check(self, out, chk):
        for spec, r, n in self.SERIES:
            if r < 1.0:
                _check_sum_bound(chk, _series_label(spec, r, n),
                                 out[(spec, r)].array(), r)

        z1 = out[(self.zd, 1.0)].array()
        op = _series_label(self.zd, 1.0, 30)
        ns = np.arange(31)
        tilted = z1 * np.exp(0.1 * ns)

        def band(v):
            q = v[1:] / ns[1:]
            ratio = float(q.max() / q.min())
            return ratio <= 3.0, f"max/min of H(n)/n = {ratio:.4f}"

        def flat(v):
            omega, _ = C.joint_fit(v, 20, 30)
            return abs(omega) < 0.05, f"fitted omega {omega:.3g}"

        chk.expect(op, "H(n)/n within a band of ratio 3", band, z1, tilted)
        chk.expect(op, "joint fit |omega| < 0.05", flat, z1, tilted)

        # scalar quadrature (green_truncated) against the batch engine
        classes = [tuple(sorted(abs(c) for c in x)) for x in self.ball]
        for r in self.GREEN_R:
            batch = kernels.zd_lazy_green_batch(3, 0.5, sorted(set(classes)),
                                                r)
            scalar = np.array([out[("green", r)][x].value for x in self.ball])
            ref = np.array([batch[c] for c in classes])
            chk.expect(f"green_truncated Z^3 ball {self.BALL} r={r}",
                       "scalar quadrature = batch quadrature",
                       C.close_rel(1e-6), (scalar, ref),
                       (scalar * (1 + 1e-5), ref))

        # Diestel-Leader series against the exact confined resolvents
        dl = DiestelLeader(3)
        n_max = self.DL_N
        rows = [[(kernels.dl_class_key(p), c)
                 for p, _, c in groups.dl_sphere_profiles(3, n)]
                for n in range(n_max + 1)]
        ref = C.dl_series_reference(3, n_max, 1.0, rows)
        value = out[(dl, 1.0)].array()
        chk.expect(_series_label(dl, 1.0, n_max),
                   "DL series = exact resolvent (1e-6 relative)",
                   C.close_rel(1e-6), (value, ref),
                   (ref * (1 + 1e-5), ref), accepts=(ref, ref),
                   known_fault=self.DL_FAULT)

        _check_brw_trace(chk, "simulate Z^3", out["brw"],
                         lambda n: 4 * n * n + 2 if n else 1,
                         self.brw_config.population_cap)


# ---------------------------------------------------------------------------


class Products:
    """Tree-product and tree series, phase classification, BRW."""

    CYCLE = 1
    # three quarters of the time goes to the tree-product chain, the rest
    # to interpreted code
    CALIBRATION = ("grid", "dict")
    R64 = 1.03
    R44 = 1.01
    SERIES = ((TreeProduct(6, 4), 0.9, 30), (TreeProduct(6, 4), R64, 30),
              (TreeProduct(4, 4), R44, 30), (RegularTree(4), 1.0, 30),
              (RegularTree(4), 1.05, 30))
    GRID_POINTS = 40
    WINDOWS = (1.05, R0_P64, 1.106)
    GREEN_R = 1.03
    BRW_TP_CAP = 2000
    # (d1, d2) classes of the seeded Green targets; the largest distances
    # are fixed so the chain's array size does not depend on the seed
    TARGET_CLASSES = ((5, 0), (0, 5), (3, 2), (2, 3), (1, 1), (0, 0))

    def __init__(self, seed):
        self.measures = {spec: kernels.standard_measure(spec)
                         for spec, _, _ in self.SERIES}
        self.tp = TreeProduct(6, 4)
        self.m_tp = self.measures[self.tp]
        R = bitree.capital_R(P64)
        # classify(P64, R) raises for l1 != l2 (CHANGES.md), so the grid
        # stops one step short of R
        self.grid = [1.0 + (R - 1.0) * i / self.GRID_POINTS
                     for i in range(self.GRID_POINTS)]
        rng = random.Random(seed)
        layers = group_for(self.tp).ball(5)
        by_class = {}
        for layer in layers:
            for x in layer:
                by_class.setdefault((len(x[0]), len(x[1])), []).append(x)
        self.targets = [rng.choice(by_class[c]) for c in self.TARGET_CLASSES]
        self.brw_tree = brw.BrwConfig(BINARY, 30, 2000, seed, 2)
        self.brw_tp = brw.BrwConfig(BINARY, 30, self.BRW_TP_CAP, seed, 1)

    def run(self, rnd):
        out = {}
        for spec, r, n in self.SERIES:
            out[(spec, r)] = rnd.call("series", _series_label(spec, r, n),
                                      growth.h_series, spec,
                                      self.measures[spec], r, n)
        out["t0"] = rnd.call("phase", "solve_t0", bitree.solve_t0, P64)
        out["grid"] = [rnd.call("phase", f"classify r={r:.6f}",
                                bitree.classify, P64, r) for r in self.grid]
        out["windows"] = [rnd.call("phase", f"model_window r={r:.6f}",
                                   bitree.model_window, P64, r)
                          for r in self.WINDOWS]
        out["green"] = rnd.call("green",
                                f"green_truncated (6,4) r={self.GREEN_R}",
                                kernels.green_truncated, self.m_tp,
                                self.targets, self.GREEN_R)
        out["brw_tree"] = rnd.call("brw", "simulate T4", brw.simulate,
                                   RegularTree(4), None, self.brw_tree, 12)
        out["brw_tp"] = rnd.call("brw", "simulate (6,4)", brw.simulate,
                                 self.tp, None, self.brw_tp)
        return out

    def check(self, out, chk):
        tp90 = out[(self.tp, 0.9)].array()
        _check_sum_bound(chk, _series_label(self.tp, 0.9, 30), tp90, 0.9)

        for spec, r, params in ((self.tp, self.R64, P64),
                                (TreeProduct(4, 4), self.R44, P44)):
            omega_model = bitree.classify(params, r).omega

            def fit_pred(v, omega_model=omega_model):
                omega, _ = C.joint_fit(v, 20, 30)
                diff = abs(omega - omega_model)
                return diff <= 5e-4, (f"fitted {omega:.6f} vs classify "
                                      f"{omega_model:.6f}")

            values = out[(spec, r)].array()
            chk.expect(_series_label(spec, r, 30),
                       "chain omega = classify omega", fit_pred, values,
                       values * np.exp(5e-3 * np.arange(31)))

        for r in (1.0, 1.05):
            series = out[(RegularTree(4), r)]
            closed = np.array([trees.tree_sphere_green_sum(4, r, n)
                               for n in range(31)])
            tails = np.array([series.values[n].tail for n in range(31)])
            values = series.array()

            def within_tail(v):
                err = np.abs(v - closed)
                ok = bool(np.all(err <= tails + 1e-12 * closed))
                return ok, f"max error / tail {float((err / tails).max()):.3g}"

            bad = values.copy()
            bad[1] += 2 * tails[1] + 1e-9
            chk.expect(_series_label(RegularTree(4), r, 30),
                       "tree series within its tails of the closed form",
                       within_tail, values, bad)

        t0, r0 = out["t0"]

        def t0_pred(v):
            return (abs(v[0] - T0_P64) <= 1e-12
                    and abs(v[1] - R0_P64) <= 1e-12), f"t0 {v[0]:.15f}"

        chk.expect("solve_t0", "t0 = 17 sqrt(3) / 72", t0_pred, (t0, r0),
                   (t0 + 1e-9, r0))

        reps = out["grid"]

        def regimes(rs):
            ok = all(
                (p.regime == bitree.REGIME_PURE_EXPONENTIAL and p.interior
                 and p.lambda0 > 0) if p.r < R0_P64 else
                (p.regime == bitree.REGIME_OVER_N32 and not p.interior)
                for p in rs)
            return ok, "regime matches the side of r0"

        flipped = [replace(reps[-1], r=reps[0].r)] + reps[1:]
        chk.expect(f"classify r={self.grid[-1]:.6f}", "regime by side of r0",
                   regimes, reps, flipped)
        omegas = [p.omega for p in reps]
        chk.expect(f"classify r={self.grid[-1]:.6f}", "omega increasing",
                   C.strictly_increasing, omegas, C.swap_first_two(omegas))

        expo = []
        for r, (ns, vals) in zip(self.WINDOWS, out["windows"]):
            omega = bitree.classify(P64, r).omega
            expo.append(bitree.prefactor_exponent(vals, ns, omega)[0])

        def order(e):
            below, at, above = e
            ok = below > at > above and below > -1.0 > above and -1 < at < 0
            return ok, "prefactor exponents " + ", ".join(
                f"{x:.3f}" for x in e)

        chk.expect(f"model_window r={self.WINDOWS[-1]:.6f}",
                   "prefactor exponents ordered across r0", order, expo,
                   expo[::-1])

        # resolvent identity G(x) = delta(x) + r sum_s mu(s) G(x s)
        g = group_for(self.tp)
        steps = self.m_tp.weights
        near = {g.multiply(x, s) for x in self.targets for s, _ in steps}
        around = kernels.green_truncated(self.m_tp, sorted(near),
                                         self.GREEN_R)
        e = g.identity()
        res, allowed = [], []
        for x in self.targets:
            gx = out["green"][x]
            rhs = (1.0 if x == e else 0.0) + self.GREEN_R * sum(
                float(w) * around[g.multiply(x, s)].value for s, w in steps)
            res.append(gx.value - rhs)
            allowed.append(gx.tail + self.GREEN_R * max(
                around[g.multiply(x, s)].tail for s, _ in steps) + 1e-12)
        res = np.array(res)
        allowed = np.array(allowed)

        def resolvent(v):
            worst = float(np.abs(v).max())
            return bool(np.all(np.abs(v) <= allowed)), (
                f"worst residual {worst:.3g}")

        chk.expect(f"green_truncated (6,4) r={self.GREEN_R}",
                   "resolvent identity within tails", resolvent, res,
                   res + 1e-6)

        size_t4 = group_for(RegularTree(4)).sphere_size
        sizes6 = kernels.tree_sphere_sizes(6, 60)
        sizes4 = kernels.tree_sphere_sizes(4, 60)

        def size_tp(n):
            return sum(sizes6[d] * sizes4[n - d] for d in range(n + 1))

        _check_brw_trace(chk, "simulate T4", out["brw_tree"], size_t4,
                         self.brw_tree.population_cap)
        _check_brw_trace(chk, "simulate (6,4)", out["brw_tp"], size_tp,
                         self.brw_tp.population_cap)


WORKLOADS = {"construction": Construction, "amenable": Amenable,
             "products": Products}
