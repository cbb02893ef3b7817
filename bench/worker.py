"""Set up one benchmark workload, then run its rounds in forked children.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T \
        [--setup-only] [--trace 0|1] [--seconds S] [--budget B]

The worker imports the package and builds the workload's inputs once.
With --setup-only it stops there.  Otherwise it forks one child per
round; every child starts from the same set-up state, runs the workload's
whole list of timed calls once and sends its results back through a pipe.
Module caches (`_SWEEP_CACHE`, `_COEFF_CACHE`, `_DIAG_CACHE`, the group
objects of `group_for`) filled by a round die with its child, so no round
hits what an earlier round left.  Rounds come in whole cycles of the
workload's CYCLE rounds, and cycles repeat until S seconds have passed
and at least `min_rounds` rounds have run; none starts that would not end
within B seconds of the worker's start.  With --trace 1 the rounds come
in pairs, one plain and one traced.  The first plain round's outputs are
checked; every call reports a digest of its output.  The
calibration loops of calibrate.py run in a child of their own before the
first round and after every round, so that neither they nor the rounds
raise the worker's memory, which every child inherits.

T is the parent's `time.monotonic()` just before it started this process,
so that set-up time includes interpreter start.  The last line of
standard output is one JSON object with the set-up time and the rounds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"
PR_SET_PDEATHSIG = 1
# passes of the calibration loops before the first round and after each
CAL_PASSES = 2


def run_round(workload, workload_name, seed, index, mode, check):
    """One round in this process: the timed calls, then the checks."""
    from checks import Checks
    from workloads import Round

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()
    rnd = Round(index, tracer)
    out = workload.run(rnd)
    # ru_maxrss is in KiB on Linux; a forked child starts from the set-up
    # state, so this includes the inputs the worker built
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.metrics()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{workload_name}-seed{seed}.json")

    chk = Checks()
    if check:
        workload.check(out, chk)
    return {
        "peak_rss_mb": peak_rss_mb,
        "ops": rnd.ops,
        "failed_ops": chk.failed_ops(),
        "correct": chk.correct(),
        "checks": chk.rows,
        "layers": layers,
    }


def in_child(fn, *args):
    """fn(*args) in a forked child; its JSON-able result, or RuntimeError.

    The child starts from the worker's state and whatever it builds, caches
    or allocates dies with it."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            # the child dies with the worker if the worker is killed
            ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                    signal.SIGKILL)
            data = json.dumps(fn(*args)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"{fn.__name__}{args[1:4]} ended with "
                           f"status {status}")
    return json.loads(data)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--budget", type=float, default=float("inf"))
    args = ap.parse_args()

    import greengrowth

    expected = ROOT / "src" / "greengrowth"
    if Path(greengrowth.__file__).resolve().parent != expected.resolve():
        sys.exit(f"greengrowth imported from {greengrowth.__file__}, "
                 f"not from {expected}")

    # the program imports these lazily; importing them here keeps first
    # imports out of the timed calls and puts them in set-up time
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    import calibrate
    import checks  # noqa: F401
    import tracing  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # objects built so far are never freed; keeping the collector off them
    # spares the children copy-on-write faults on their pages
    gc.collect()
    gc.freeze()
    end = args.spawned_at + args.budget
    plain, traced, cal = [], [], {}

    def calibrate_in_child():
        for name, times in in_child(calibrate.sample, CAL_PASSES,
                                    workload.CALIBRATION).items():
            cal.setdefault(name, []).extend(times)

    t0 = time.monotonic()
    calibrate_in_child()
    while True:
        index = len(plain)
        plain.append(in_child(run_round, workload, args.workload, args.seed,
                              index, "plain", index == 0))
        if args.trace:
            traced.append(in_child(run_round, workload, args.workload,
                                   args.seed, index, "traced", False))
        calibrate_in_child()
        if len(plain) % workload.CYCLE:
            continue
        now = time.monotonic()
        per_cycle = (now - t0) / (len(plain) // workload.CYCLE)
        if ((now - t0 >= args.seconds and len(plain) >= args.min_rounds)
                or now + per_cycle > end):
            break
    print(json.dumps({"setup_s": setup_s, "plain": plain, "traced": traced,
                      "calibration": cal}))


if __name__ == "__main__":
    main()
