"""stabdet benchmark.

    python3 perfbench/run.py --workload {marginals,determination,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; stabdet is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` starts five workload processes one after another.  Each sets
up (imports stabdet, makes its inputs from the seed, runs one warm-up op) and
then measures S/5 seconds of ops, continuing the input sequence where the
previous one stopped.  It reports the end-to-end metrics: ``setup_s`` (median
of the five set-ups), ``ops_per_s``, ``op_p50_s``, ``op_tail_s``,
``peak_rss_mb`` and ``ok_ratio`` (1 - failed/attempted).

``--trace 1`` profiles every workload, whichever ``--workload`` names: one
process per workload measures S/4 seconds untraced, then S/4 seconds (at
least one input cycle) with a span around each call into stabdet.  Per-layer
metric names start with the workload that measured them.  The spans are
written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("marginals", "determination", "cli")
SETUPS = 5
WORKER_TIMEOUT_S = 150
# op_tail_s percentile per workload: the highest of TAIL_LADDER that kept at
# least ten samples beyond it in every 30-second run on a 2-core machine
# (at least 60, 176 and 48 ops).  A fixed choice keeps the metric from
# jumping between percentiles when the op count crosses a threshold.
TAIL_PERCENTILE = {"marginals": 80, "determination": 90, "cli": 75}
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_STAT_UNITS = {"calls": "count", "busy_s": "s", "share": "ratio", "p50_ms": "ms"}

# Per workload: the spans whose statistics become per-layer metrics.
LAYER_SPANS = {
    "marginals": {
        "stabilizer.stabilizer_rdm": ("calls", "busy_s", "share", "p50_ms"),
        "stabilizer.parse_generator_file": ("busy_s", "share"),
        "stabilizer.validate": ("busy_s", "share"),
        "graph_state.lc_to_graph": ("busy_s", "share"),
        "stabilizer.minimal_support_set": ("busy_s", "share"),
    },
    "determination": {
        "graph_state.canonical_generators": ("busy_s", "share"),
        "stabilizer.stabilizer_rdm": ("calls", "busy_s", "share", "p50_ms"),
        "determination.RdmConstraintSet": ("busy_s", "share"),
        "determination.forcing_chain_pure": ("calls", "busy_s", "share", "p50_ms"),
        "determination.forcing_chain_mixed": ("calls", "busy_s", "share", "p50_ms"),
    },
    "cli": {f"cli.{kind}": ("share", "p50_ms") for kind in
            ("check", "check_rdm", "rdm", "state", "minimal", "counterexample", "error")},
}
# Counts summed over the first input cycle; they repeat exactly per seed.
LAYER_COUNTS = {
    "marginals": (),
    "determination": ("determination.forcing_chain_pure.steps",
                      "determination.forcing_chain_mixed.steps",
                      "determination.status.Determined",
                      "determination.status.Inconsistent",
                      "determination.status.Underdetermined"),
    "cli": (),
}
LIGHT_CLI_COMMANDS = ("minimal", "counterexample", "error")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("STABDET_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_PINS:
        env[var] = "1"
    return env


def spawn(args: argparse.Namespace, workload: str, extra: list) -> tuple:
    """Run one workload process; returns (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed)] + extra
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    start = time.perf_counter()
    # A session of its own, so that a timeout also stops the CLI children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"{workload} process failed (exit {code})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_percentile(workload: str, n: int) -> float:
    """The workload's tail percentile, lowered along the ladder when fewer
    than ten of the n samples lie beyond it."""
    for p in TAIL_LADDER:
        if p <= TAIL_PERCENTILE[workload] and n * (100 - p) / 100 >= 10:
            return p
    return 50


def end_to_end(args) -> tuple:
    setups, phases, rss, inputs, env = [], [], [], None, None
    start = 0
    for _ in range(SETUPS):
        setup_s, res = spawn(args, args.workload, [
            "--budget", str(args.seconds / SETUPS), "--start", str(start)])
        setups.append(setup_s)
        phases.append(res["run"])
        rss.append(res["peak_rss_kb"])
        inputs, env = res["inputs"], res["env"]
        start = res["run"]["next"]
    lat = [t for ph in phases for t in ph["latencies"]]
    failed = sum(ph["failed"] for ph in phases)
    p_tail = tail_percentile(args.workload, len(lat))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (statistics.quantiles(lat, n=100, method="inclusive")[p_tail - 1], "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "ok_ratio": (1 - failed / len(lat), "ratio"),
    }
    print(f"# {args.workload}: {len(lat)} ops in {sum(lat):.2f} s of op time; "
          f"op_tail_s is p{p_tail:g}; set-ups {[round(s, 3) for s in setups]}")
    print(f"# inputs: {json.dumps(inputs)}")
    print(f"# env: {json.dumps(env)}; git {git_sha()}")
    for ph in phases:
        for line in ph["failures"]:
            print(f"# failed {line}")
    return metrics, len(lat), failed


def layer_metrics(wl: str, res: dict) -> dict:
    """Per-layer metrics of one traced workload process, named
    ``<workload>.<module>.<function>.<stat>``."""
    un, tr = res["untraced"], res["traced"]
    prefix = "" if wl == "cli" else f"{wl}."  # cli span names start with "cli."
    out = {}
    for span, stats in LAYER_SPANS[wl].items():
        summary = res["spans"].get(span)
        if summary is None:
            print(f"# not measured: {wl} made no call to {span}")
            summary = dict.fromkeys(stats, 0.0)
        for stat in stats:
            if wl == "cli" and stat == "p50_ms":
                out[f"{span}.p50_s"] = (summary[stat] / 1e3, "s")
            else:
                out[f"{prefix}{span}.{stat}"] = (summary[stat], _STAT_UNITS[stat])
    for name in LAYER_COUNTS[wl]:
        out[f"{wl}.{name}"] = (tr["counts"].get(name, 0), "count")
    for name, (value, unit) in res["probes"].items():
        out[f"{wl}.{name}"] = (value, unit)
    if wl == "cli":
        startup = out["cli.interpreter_s"][0] + out["cli.import_s"][0]
        light = statistics.median(out[f"cli.{k}.p50_s"][0] for k in LIGHT_CLI_COMMANDS)
        out["cli.startup.share"] = (startup / light, "ratio")
    for phase, ph in (("untraced", un), ("traced", tr)):
        out[f"{wl}.trace.{phase}_ops_per_s"] = (len(ph["latencies"]) / sum(ph["latencies"]),
                                               "1/s")
    return out


def traced(args) -> tuple:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for wl in WORKLOADS:
        spans_file = out_dir / f"spans-{wl}-seed{args.seed}.jsonl"
        _, res = spawn(args, wl, ["--budget", str(args.seconds / 2), "--trace",
                                  "--spans", str(spans_file)])
        for ph in (res["untraced"], res["traced"]):
            attempted += len(ph["latencies"])
            failed += ph["failed"]
            for line in ph["failures"]:
                print(f"# failed {wl} {line}")
        metrics.update(layer_metrics(wl, res))
        top = max(res["spans"].items(), key=lambda kv: kv[1]["share"])
        print(f"# {wl}: largest span share {top[0]} = {top[1]['share']:.3f}; "
              f"inputs {json.dumps(res['inputs'])}; spans in {spans_file.relative_to(ROOT)}")
    return metrics, attempted, failed


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes, for perfbench/selftest.py")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt every output before its check, for perfbench/selftest.py")
    args = p.parse_args()
    if not (ROOT / "src" / "stabdet" / "__init__.py").is_file():
        print(f"error: no stabdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed = traced(args) if args.trace else end_to_end(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(HERE / ".work", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
