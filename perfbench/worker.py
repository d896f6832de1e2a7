"""One workload process: set up, signal READY, measure, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  Set-up (importing
stabdet, making the inputs from the seed and one warm-up op) ends when the
process writes ``READY``; ``run.py`` times set-up from its spawn to that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, untraced

HERE = Path(__file__).resolve().parent


def measure(wl, start: int, budget_s: float, call, tracer=None, min_ops: int = 0,
            corrupt: bool = False) -> dict:
    """Closed loop from op index ``start`` until ``budget_s`` of op time has
    been spent and at least ``min_ops`` ops have run.  Outputs are checked
    between ops, outside the timed region.  Counts are summed over the op
    indices of the first cycle only, so that they repeat exactly."""
    latencies, failures, counts = [], [], {}
    failed = 0
    spent = 0.0
    i = start
    while spent < budget_s or len(latencies) < min_ops:
        if tracer:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            out, error = wl.op(i, call), ""
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, f"raised {exc!r}"
        latencies.append(time.perf_counter() - t)
        spent += latencies[-1]
        if tracer:
            tracer.end_op()
        if not error:
            if corrupt:
                out = wl.corrupt(out)
            error = wl.check(i, out)
            if i < wl.cycle:
                for key, value in wl.counts(out).items():
                    counts[key] = counts.get(key, 0) + value
        if error:
            failed += 1
            failures.append(f"op {i}: {error}")
        i += 1
    return {"latencies": latencies, "failed": failed, "failures": failures[:5],
            "next": i, "counts": counts}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True,
                   help="seconds of op time to measure")
    p.add_argument("--start", type=int, default=0, help="first op index")
    p.add_argument("--trace", action="store_true",
                   help="measure untraced, then traced, both from op 0")
    p.add_argument("--spans", help="file for the traced phase's spans")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args()

    if args.workload == "cli":
        wl = workloads.Cli(args.seed, args.tiny, HERE / ".work" / f"cli-{os.getpid()}")
    else:
        wl = {"marginals": workloads.Marginals,
              "determination": workloads.Determination}[args.workload](args.seed, args.tiny)
    try:
        wl.check(0, wl.op(0, untraced))  # warm-up, part of set-up
        print("READY", flush=True)
        result = {"env": environment()}
        if args.trace:
            result["untraced"] = measure(wl, 0, args.budget / 2, untraced,
                                         corrupt=args.corrupt)
            tracer = Tracer()
            result["traced"] = measure(wl, 0, args.budget / 2, tracer.call, tracer,
                                       min_ops=wl.cycle, corrupt=args.corrupt)
            result["spans"] = tracer.summary()
            result["probes"] = wl.probes()
            if args.spans:
                tracer.write(args.spans)
        else:
            result["run"] = measure(wl, args.start, args.budget, untraced,
                                    corrupt=args.corrupt)
        result["inputs"] = wl.input_stats()
        result["peak_rss_kb"] = wl.peak_rss_kb()
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
