"""Benchmark of greengrowth: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  One worker process (worker.py) sets the workload up once and
forks a child per round; each round runs the workload's whole list of
operations from the same set-up state, one round at a time, until S
seconds have passed and, with --trace 0, at least MIN_ROUNDS rounds have
run.  The first round's outputs are checked; every later round must
reproduce them exactly.

With --trace 0 the run first starts SETUP_PROBES interpreters that only
set up, and reports the end-to-end metrics of BENCHMARK.json.  Each
operation's time is its median over the run's rounds, scaled by the
calibration loops of calibrate.py to the reference machine's speed.  With
--trace 1 the rounds come in pairs, one plain and one traced, and the run
reports the per-layer metrics of the traced rounds and the tracing
overhead.  The last line of standard output is one JSON
object; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
SETUP_PROBES = 3
# a fixed floor on the rounds: a time limit alone gives a slowed-down run
# fewer rounds to take the median of, which widens the spread
MIN_ROUNDS = 3
# a run must end within 180 s; no round starts that would not end by this
DEADLINE_S = 170.0


def spawn(args, timeout, *extra):
    """Start worker.py and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with "
                           f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical(rounds):
    """(task, seconds) of each operation, its median over the rounds."""
    times = {}
    for rnd in rounds:
        for label, task, seconds, _ in rnd["ops"]:
            times.setdefault(label, (task, []))[1].append(seconds)
    return {label: (task, statistics.median(secs))
            for label, (task, secs) in times.items()}


def summarize(typ, checked, out):
    short = 0.0
    for label, (task, seconds) in typ.items():
        if seconds >= 0.05:
            print(f"  {seconds:9.4f} s  {task:8s} {label}", file=out)
        else:
            short += seconds
    print(f"  {short:9.4f} s  in calls of under 0.05 s each", file=out)
    for row in checked["checks"]:
        if not (row["ok"] and row["control_ok"]):
            print(f"  CHECK {row['op']}: {row['check']}: ok={row['ok']} "
                  f"control_ok={row['control_ok']} {row['detail']}",
                  file=out)
    print(f"  {len(checked['checks'])} checks, failed operations: "
          f"{checked['failed_ops']}", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "greengrowth" / "__init__.py").is_file():
        sys.exit(f"no greengrowth sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")

    def remaining():
        return start + DEADLINE_S - time.monotonic()

    setups = []
    if not args.trace:
        setups = [spawn(args, remaining(), "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
    # the worker stops starting rounds 5 s before the deadline
    res = spawn(args, remaining(), "--trace", str(args.trace),
                "--seconds", repr(args.seconds),
                "--min-rounds", str(1 if args.trace else MIN_ROUNDS),
                "--budget", repr(remaining() - 5.0))
    setups.append(res["setup_s"])
    plain, traced = res["plain"], res["traced"]
    cal_s = calibrate.measured(res["calibration"])
    scale = calibrate.scale(res["calibration"])

    checked = plain[0]
    rounds = plain + traced
    # the first round makes every call; later rounds must reproduce it
    reference = {label: digest for label, _, _, digest in checked["ops"]}
    same = all(reference.get(label) == digest
               for r in rounds for label, _, _, digest in r["ops"])
    typ = typical(plain)
    wall = sum(seconds for task, seconds in typ.values()
               if task != "excluded")
    series = sum(seconds for task, seconds in typ.values()
                 if task == "series")
    med = statistics.median
    if args.trace:
        names = spec["per_layer"]
        values = {m["name"]: med(r["layers"][m["name"]] for r in traced)
                  for m in names if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            sum(seconds for _, seconds in typical(traced).values())
            - sum(seconds for _, seconds in typ.values()))
    else:
        names = spec["end_to_end"]
        values = {
            "setup_s": med(setups),
            "wall_s": wall * scale,
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "series_s": series * scale,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    print(f"{args.workload} seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced rounds; outputs identical: {same}",
          file=sys.stderr)
    print(f"  calibration {cal_s:.4f} s, scale {scale:.4f}; unscaled: "
          f"wall {wall:.4f} s, series {series:.4f} s, setups "
          + ", ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    summarize(typ, checked, sys.stderr)
    print(json.dumps({
        "correct": checked["correct"] and same,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(label in checked["failed_ops"]
                      for r in rounds for label, _, _, _ in r["ops"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # on SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running worker; the worker's round child dies with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark run failed: {exc}")
