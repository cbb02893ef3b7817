"""Command-line interface: sphere counts, growth series, phase reports,
free-product scans, and branching-walk summaries.

Output conventions: CSV with a header row, comma separators, LF newlines
and 17-significant-digit floats (byte-stable across runs: every engine is
deterministic, pruned sweeps included); JSON is UTF-8 with a "schema": 1
tag.  A flat ``key = value`` config file supplies defaults of the chosen
command's own options, and any other key is refused; explicit flags win.
Each --group reads its own group flags (`_GROUPS`), and a group flag it
does not read is refused, from a config file too.  Non-finite walk
parameters are refused.
Exit codes: 0 success, 1 validation error, 2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Dict, List, Optional

from .groups import (
    BudgetExceededError, DiestelLeader, FreeAbelian, FreeGroup, FreeProduct,
    Heisenberg3, RegularTree, TreeProduct, dl_sphere_count, group_for,
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


def _walk(**params) -> Dict[str, Fraction]:
    """The walk parameters that are set, as fractions; a non-finite one
    raises ValueError."""
    for k, v in params.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"--{k} must be finite, got {v}")
    return {k: Fraction(v).limit_denominator(10 ** 9)
            for k, v in params.items() if v is not None}


# per --group: the group flags it reads, as keywords with their defaults
# (None: the walk's own value), giving its spec and the parameters of its
# standard walk
_GROUPS = {
    "zd": lambda d=3, alpha=None: (FreeAbelian(d), _walk(alpha=alpha)),
    "heisenberg": lambda alpha=None: (Heisenberg3(), _walk(alpha=alpha)),
    "free": lambda k=2: (FreeGroup(k), {}),
    "tree": lambda l=4: (RegularTree(l), {}),
    "treeprod": lambda l1=4, l2=4, a1=None: (TreeProduct(l1, l2),
                                             _walk(a1=a1)),
    "dl": lambda q=3: (DiestelLeader(q), {}),
    "freeprod": lambda l1=4, l2=4, d=3, alpha=None, a1=None: (
        FreeProduct(TreeProduct(l1, l2), FreeAbelian(d)),
        {**_walk(alpha=alpha), "left_params": _walk(a1=a1)}),
}
# every group flag, with its type and help; alpha and a1 set the walk
_GROUP_FLAGS = {
    "d": (int, "rank of Z^d"), "k": (int, "free group rank"),
    "l": (int, "tree degree"), "l1": (int, "first tree factor's degree"),
    "l2": (int, "second tree factor's degree"),
    "q": (int, "Diestel-Leader branch"),
    "alpha": (float, "lazy / mixing weight of the kernel"),
    "a1": (float, "weight of the first tree factor kernel"),
}
_WALK_FLAGS = ("alpha", "a1")


def _group(args, walk: bool = True):
    """(spec, walk parameters) of --group from the flags it reads; a set
    group flag it does not read, or a walk flag without walk, raises
    ValueError."""
    build = _GROUPS[args.group]
    reads = [f for f in inspect.signature(build).parameters
             if walk or f not in _WALK_FLAGS]
    given = {f: v for f, v in vars(args).items()
             if f in _GROUP_FLAGS and v is not None}
    unread = [f for f in given if f not in reads]
    if unread:
        raise ValueError(
            f"{args.command} --group {args.group} does not read "
            f"{', '.join('--' + f for f in unread)} (it reads "
            f"{', '.join('--' + f for f in reads) or 'no group flag'})")
    return build(**given)


def _measure(args):
    """The spec of --group and its standard walk."""
    spec, params = _group(args)
    return spec, standard_measure(spec, **params)


def _range(lo, hi, flags: str):
    """(lo, hi), or None for neither end; one end alone is refused."""
    if (lo is None) != (hi is None):
        raise ValueError(f"{flags} need both ends of the range")
    return None if lo is None else (lo, hi)


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, choices=list(_GROUPS))
    for flag, (kind, text) in _GROUP_FLAGS.items():
        p.add_argument("--" + flag, type=kind, help=text)


def _cmd_sphere(args, out) -> int:
    spec, _ = _group(args, walk=False)
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


def _series(args):
    """H_r(n), n = 0..--nmax, of --group's walk at --r to --tol."""
    from .growth import h_series

    spec, measure = _measure(args)
    return h_series(spec, measure, args.r, args.nmax, args.tol)


def _cmd_hr(args, out) -> int:
    _csv([[n, e.value, e.tail, e.rigorous]
          for n, e in _series(args).values.items()],
         ["n", "H", "tail", "rigorous"], out)
    return 0


def _cmd_omega(args, out) -> int:
    from .growth import omega_estimate

    window = _range(args.window_lo, args.window_hi,
                    "--window-lo and --window-hi")
    series = _series(args)
    est = omega_estimate(series, window)
    _json({"r": args.r, "slope": est.slope, "stderr": est.stderr,
           "window": list(est.window), "n_max": series.n_max}, out)
    return 0


def _cmd_theta(args, out) -> int:
    from .growth import _poincare_sums

    series = _series(args)
    terms, partials = _poincare_sums(series, args.s)
    _csv([[n, series.value(n), term, partial] for n, (term, partial)
          in enumerate(zip(terms, partials))],
         ["n", "H", "term", "partial"], out)
    return 0


def _cmd_bitree_phase(args, out) -> int:
    from .bitree import PhaseParams, capital_R, classify, solve_t0

    params = PhaseParams(args.l1, args.l2, args.a1, 1.0 - args.a1)
    R = capital_R(params)
    if args.grid < 0:
        raise ValueError(f"--grid must be >= 0, got {args.grid}")
    if not args.grid and (args.rmin is not None or args.rmax is not None):
        raise ValueError("--rmin and --rmax bound the --grid map; "
                         "give --grid too")
    if args.grid:
        rows = []
        lo = args.rmin if args.rmin is not None else 1.0 + 1e-6
        hi = args.rmax if args.rmax is not None else R * (1.0 - 1e-9)
        for i in range(args.grid):
            r = lo + (hi - lo) * i / max(args.grid - 1, 1)
            rep = classify(params, r)
            rows.append([r, rep.regime, rep.omega, rep.lambda0])
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


def _cmd_freeprod_scan(args, out) -> int:
    import numpy as np

    from .bitree import PhaseParams
    from .freeprod import scan_construction

    params = PhaseParams(args.l1, args.l2, args.a1, 1.0 - args.a1)
    r_range = _range(args.rmin, args.rmax, "--rmin and --rmax")
    if args.points is not None and (r_range is None or args.points < 1):
        raise ValueError(f"--points needs --rmin and --rmax and must be "
                         f">= 1, got {args.points}")
    r_grid = None if r_range is None else list(
        np.linspace(*r_range, args.points or 9))
    report = scan_construction(params, args.d, args.alpha, r_grid,
                               full_series_n=args.full_series_n)
    payload = asdict(report)
    factor = payload.pop("factor_params")
    for point in payload["points"]:
        point["diagnostic"] = point.pop("diagnostic_label")
    _json({**payload, "l1": factor["l1"], "l2": factor["l2"],
           "a1": factor["a1"]}, out)
    return 0


def _parse_offspring(text: str):
    from .brw import offspring_law

    weights = {}
    for part in text.split(","):
        pair = part.split(":")
        if len(pair) != 2:
            raise ValueError(f"--offspring part {part!r} is not one k:w pair")
        k = int(pair[0])
        if k in weights:
            raise ValueError(f"--offspring part {part!r} repeats k = {k}")
        weights[k] = Fraction(pair[1])
    return offspring_law(weights)


def _cmd_brw(args, out) -> int:
    from .brw import BrwConfig, mean_offspring, simulate

    spec, measure = _measure(args)
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

    p = sub.add_parser("freeprod-scan", help="free-product construction scan")
    p.add_argument("--l1", type=int, default=6)
    p.add_argument("--l2", type=int, default=4)
    p.add_argument("--a1", type=float, default=0.5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rmin", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None,
                   help="points of the --rmin..--rmax grid (default 9)")
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
    "freeprod-scan": _cmd_freeprod_scan,
    "brw": _cmd_brw,
    "selftest": _cmd_selftest,
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        # the keys are defaults of the chosen command's own options
        command = parser._subparsers._group_actions[0].choices[args.command]
        defaults = _load_config(args.config)
        own = {a.dest for a in command._actions} - {"help"}
        unread = sorted(set(defaults) - own)
        if unread:
            raise ValueError(f"{args.command} does not read config key(s) "
                             f"{', '.join(unread)}")
        command.set_defaults(**defaults)
    args = parser.parse_args(argv)
    if not args.output:
        return _COMMANDS[args.command](args, sys.stdout)
    with open(args.output, "w", encoding="utf-8", newline="\n") as out:
        return _COMMANDS[args.command](args, out)


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
