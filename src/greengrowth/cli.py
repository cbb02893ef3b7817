"""Command-line interface: sphere counts, growth series, phase reports,
free-product scans, and branching-walk summaries.

Output conventions: CSV with a header row, comma separators, LF newlines
and 17-significant-digit floats (byte-stable across runs: every engine is
deterministic, pruned sweeps included); JSON is UTF-8 with a "schema": 1
tag.  A flat ``key = value`` config file can supply defaults; explicit
flags win.
Exit codes: 0 success, 1 validation error, 2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .groups import (
    BudgetExceededError, DiestelLeader, FreeAbelian, FreeGroup, FreeProduct,
    GroupSpec, Heisenberg3, RegularTree, TreeProduct, dl_sphere_count,
    group_for,
)
from .kernels import standard_measure


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _csv(rows: List[List[object]], header: List[str], out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _json(payload: Dict, out) -> None:
    payload = {"schema": 1, **payload}
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _spec_from_args(args) -> GroupSpec:
    name = args.group
    if name == "zd":
        return FreeAbelian(args.d)
    if name == "heisenberg":
        return Heisenberg3()
    if name == "free":
        return FreeGroup(args.k)
    if name == "tree":
        return RegularTree(args.l)
    if name == "treeprod":
        return TreeProduct(args.l1, args.l2)
    if name == "dl":
        return DiestelLeader(args.q)
    if name == "freeprod":
        return FreeProduct(TreeProduct(args.l1, args.l2), FreeAbelian(args.d))
    raise ValueError(f"unknown group {name!r}")


def _measure_from_args(args, spec):
    params = {}
    if getattr(args, "alpha", None) is not None:
        params["alpha"] = Fraction(args.alpha).limit_denominator(10 ** 9)
    if getattr(args, "a1", None) is not None:
        a1 = Fraction(args.a1).limit_denominator(10 ** 9)
        if isinstance(spec, FreeProduct):
            params["left_params"] = {"a1": a1}
        else:
            params["a1"] = a1
    return standard_measure(spec, **params)


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True,
                   choices=["zd", "heisenberg", "free", "tree", "treeprod",
                            "dl", "freeprod"])
    p.add_argument("--d", type=int, default=3, help="rank of Z^d")
    p.add_argument("--k", type=int, default=2, help="free group rank")
    p.add_argument("--l", type=int, default=4, help="tree degree")
    p.add_argument("--l1", type=int, default=4)
    p.add_argument("--l2", type=int, default=4)
    p.add_argument("--q", type=int, default=3, help="Diestel-Leader branch")
    p.add_argument("--alpha", type=float, default=None,
                   help="lazy / mixing weight of the kernel")
    p.add_argument("--a1", type=float, default=None,
                   help="weight of the first tree factor kernel")


def _cmd_sphere(args, out) -> int:
    spec = _spec_from_args(args)
    g = group_for(spec)
    layers = g.ball(args.n)
    rows = [[n, len(layer)] for n, layer in enumerate(layers)]
    if isinstance(spec, DiestelLeader):
        for row in rows:
            row.append(dl_sphere_count(spec.q, row[0]))
        _csv(rows, ["n", "bfs_count", "formula_count"], out)
    else:
        _csv(rows, ["n", "count"], out)
    return 0


def _series_rows(series):
    rows = []
    for n in range(series.n_max + 1):
        e = series.values[n]
        rows.append([n, e.value, e.tail, e.rigorous])
    return rows


def _cmd_hr(args, out) -> int:
    from .growth import h_series

    spec = _spec_from_args(args)
    measure = _measure_from_args(args, spec)
    series = h_series(spec, measure, args.r, args.nmax, args.tol)
    _csv(_series_rows(series), ["n", "H", "tail", "rigorous"], out)
    return 0


def _cmd_omega(args, out) -> int:
    from .growth import h_series, omega_estimate

    spec = _spec_from_args(args)
    measure = _measure_from_args(args, spec)
    series = h_series(spec, measure, args.r, args.nmax, args.tol)
    window = None
    if args.window_lo is not None and args.window_hi is not None:
        window = (args.window_lo, args.window_hi)
    est = omega_estimate(series, window)
    _json({"r": args.r, "slope": est.slope, "stderr": est.stderr,
           "window": list(est.window), "n_max": series.n_max}, out)
    return 0


def _cmd_theta(args, out) -> int:
    from .growth import h_series

    spec = _spec_from_args(args)
    measure = _measure_from_args(args, spec)
    series = h_series(spec, measure, args.r, args.nmax, args.tol)
    rows = []
    partial = 0.0
    for n in range(series.n_max + 1):
        term = series.value(n) * math.exp(-args.s * n)
        partial += term
        rows.append([n, series.value(n), term, partial])
    _csv(rows, ["n", "H", "term", "partial"], out)
    return 0


def _cmd_bitree_phase(args, out) -> int:
    from .bitree import PhaseParams, capital_R, classify, solve_t0

    params = PhaseParams(args.l1, args.l2, args.a1, 1.0 - args.a1)
    R = capital_R(params)
    if args.grid:
        rows = []
        lo = args.rmin if args.rmin is not None else 1.0 + 1e-6
        hi = args.rmax if args.rmax is not None else R * (1.0 - 1e-9)
        for i in range(args.grid):
            r = lo + (hi - lo) * i / max(args.grid - 1, 1)
            rep = classify(params, r)
            rows.append([r, rep.regime, rep.omega,
                         rep.lambda0 if rep.lambda0 is not None else "nan"])
        _csv(rows, ["r", "regime", "omega", "lambda0"], out)
        return 0
    payload = {"l1": args.l1, "l2": args.l2, "a1": args.a1, "R": R}
    if params.l1 != params.l2:
        t0, r0 = solve_t0(params)
        payload.update({"t0": t0, "r0": r0})
    if args.r is not None:
        rep = classify(params, args.r)
        payload.update({"r": args.r, "regime": rep.regime,
                        "omega": rep.omega, "lambda0": rep.lambda0,
                        "interior": rep.interior})
    _json(payload, out)
    return 0


def _cmd_dl_verify(args, out) -> int:
    g = group_for(DiestelLeader(args.q))
    layers = g.ball(args.nmax)
    rows = []
    for n, layer in enumerate(layers):
        formula = dl_sphere_count(args.q, n)
        rows.append([n, formula, len(layer), formula == len(layer)])
    _csv(rows, ["n", "formula", "bfs", "match"], out)
    return 0


def _cmd_freeprod_scan(args, out) -> int:
    import numpy as np

    from .bitree import PhaseParams
    from .freeprod import scan_construction

    params = PhaseParams(args.l1, args.l2, args.a1, 1.0 - args.a1)
    r_grid = None
    if args.rmin is not None and args.rmax is not None:
        r_grid = list(np.linspace(args.rmin, args.rmax, args.points))
    report = scan_construction(params, args.d, args.alpha, r_grid,
                               n_max=args.nterms,
                               support_cap=args.support_cap,
                               full_series_n=args.full_series_n)
    payload = {
        "l1": args.l1, "l2": args.l2, "a1": args.a1, "d": args.d,
        "alpha": args.alpha, "truncation": report.truncation,
        "r0": report.r0, "r_cap": report.r_cap,
        "crossing_r": report.crossing_r,
        "crossing_zeta0": report.crossing_zeta0,
        "crossing_residual": report.crossing_residual,
        "transition_index": report.transition_index,
        "points": [{
            "r": p.r, "w0": p.w0, "w1": p.w1, "zeta0": p.zeta0,
            "zeta1": p.zeta1, "omega_P": p.omega_P,
            "omega_full": p.omega_full, "gap": p.gap,
            "diagnostic_exponent": p.diagnostic_exponent,
            "diagnostic": p.diagnostic_label} for p in report.points],
    }
    _json(payload, out)
    return 0


def _parse_offspring(text: str):
    from .brw import offspring_law

    weights = {}
    for part in text.split(","):
        k, w = part.split(":")
        weights[int(k)] = Fraction(w)
    return offspring_law(weights)


def _cmd_brw(args, out) -> int:
    from .brw import BrwConfig, mean_offspring, simulate

    spec = _spec_from_args(args)
    measure = _measure_from_args(args, spec)
    if args.offspring:
        law = _parse_offspring(args.offspring)
    else:
        law = mean_offspring(args.mean)
    config = BrwConfig(law, args.maxgen, args.popcap, args.seed, args.runs)
    summary = simulate(spec, measure, config, args.radius)
    payload = {
        "offspring_mean": float(config.mean),
        "max_generation": args.maxgen, "population_cap": args.popcap,
        "seed": args.seed, "runs": args.runs, "radius": summary.radius,
        "median_rate": summary.median,
        "quartiles": list(summary.quartiles),
        "fraction_positive": summary.fraction_positive,
        "truncated_runs": sum(1 for t in summary.runs if t.truncated),
        "m_counts": [[int(v) for v in t.m_counts] for t in summary.runs],
    }
    _json(payload, out)
    return 0


def _cmd_selftest(args, out) -> int:
    import subprocess

    here = os.path.dirname(os.path.abspath(__file__))
    for root in (os.getcwd(), os.path.abspath(os.path.join(here, "..", ".."))):
        path = os.path.join(root, "tests", "test_acceptance.py")
        if os.path.exists(path):
            return subprocess.call([sys.executable, "-m", "pytest", "-v",
                                    "--durations=0", path])
    out.write("acceptance suite not found (run from the repository root)\n")
    return 1


def _load_config(path: str) -> Dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greengrowth",
        description="Green-function growth series on groups")
    parser.add_argument("--config", default=None,
                        help="flat key = value defaults file")
    parser.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", help="BFS sphere counts")
    _add_group_flags(p)
    p.add_argument("--n", type=int, required=True)

    for name, extra in (("hr", ()), ("omega", ("window",)),
                        ("theta", ("s",))):
        p = sub.add_parser(name, help=f"growth series ({name})")
        _add_group_flags(p)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--nmax", type=int, default=20)
        p.add_argument("--tol", type=float, default=1e-9)
        if "window" in extra:
            p.add_argument("--window-lo", type=int, default=None)
            p.add_argument("--window-hi", type=int, default=None)
        if "s" in extra:
            p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("bitree-phase", help="tree-product phase report")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--a1", type=float, default=0.5)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--grid", type=int, default=0,
                   help="emit a regime map CSV over this many r values")
    p.add_argument("--rmin", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)

    p = sub.add_parser("dl-verify", help="Diestel-Leader counting check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nmax", type=int, default=8)

    p = sub.add_parser("freeprod-scan", help="free-product construction scan")
    p.add_argument("--l1", type=int, default=6)
    p.add_argument("--l2", type=int, default=4)
    p.add_argument("--a1", type=float, default=0.5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rmin", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--nterms", type=int, default=24)
    p.add_argument("--support-cap", type=int, default=50_000)
    p.add_argument("--full-series-n", type=int, default=0,
                   help="sphere range for the full-series growth estimate"
                        " (0 disables it)")

    p = sub.add_parser("brw", help="branching random walk summaries")
    _add_group_flags(p)
    p.add_argument("--mean", type=float, default=1.05)
    p.add_argument("--offspring", default=None,
                   help="law as k:w pairs, e.g. 1:0.95,2:0.05")
    p.add_argument("--maxgen", type=int, default=100)
    p.add_argument("--popcap", type=int, default=8000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--radius", type=int, default=None)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


_COMMANDS = {
    "sphere": _cmd_sphere,
    "hr": _cmd_hr,
    "omega": _cmd_omega,
    "theta": _cmd_theta,
    "bitree-phase": _cmd_bitree_phase,
    "dl-verify": _cmd_dl_verify,
    "freeprod-scan": _cmd_freeprod_scan,
    "brw": _cmd_brw,
    "selftest": _cmd_selftest,
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        defaults = _load_config(args.config)
        known = {a.dest for a in parser._actions}
        for sp in parser._subparsers._group_actions[0].choices.values():
            known |= {a.dest for a in sp._actions}
        bad = set(defaults) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        for sp in parser._subparsers._group_actions[0].choices.values():
            sp.set_defaults(**{k: v for k, v in defaults.items()
                               if k in {a.dest for a in sp._actions}})
    args = parser.parse_args(argv)
    out = sys.stdout
    close = False
    if args.output:
        out = open(args.output, "w", encoding="utf-8", newline="\n")
        close = True
    try:
        return _COMMANDS[args.command](args, out)
    finally:
        if close:
            out.close()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return dispatch(argv)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
