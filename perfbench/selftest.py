"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
* every workload prints a result line with exactly the end-to-end metrics of
  BENCHMARK.json, with their units, and no failed op;
* the traced run prints exactly the per-layer metrics of BENCHMARK.json;
* a corrupted output (a flipped RDM entry, a wrong chain status, a wrong exit
  code) counts as failed and lowers ``ok_ratio``;
* without stabdet's sources next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, root=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--seed", "1",
                           "--seconds", "2", "--tiny", *extra],
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                             else None), proc.stderr


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        expect.failures += 1


expect.failures = 0


def check_metrics(result: dict, wanted: list, what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json"
           + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                                     f"extra {sorted(set(got) - set(want))})"))


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    for wl in workloads:
        code, res, err = run("--workload", wl, "--trace", "0")
        expect(code == 0 and res is not None, f"{wl}: exit 0 with a result line {err[-300:]}")
        if res:
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{wl}: {res['attempted']} ops, none failed")
            check_metrics(res, SPEC["end_to_end"], wl)

        code, res, _ = run("--workload", wl, "--trace", "0", "--corrupt")
        expect(code == 0 and res is not None and not res["correct"]
               and res["failed"] == res["attempted"] > 0
               and res["metrics"]["ok_ratio"]["value"] == 0,
               f"{wl}: every corrupted output counted as failed")

    code, res, err = run("--workload", workloads[0], "--trace", "1")
    expect(code == 0 and res is not None and res["correct"],
           f"traced run: exit 0, correct {err[-300:]}")
    if res:
        check_metrics(res, SPEC["per_layer"], "traced run")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, res, _ = run("--workload", workloads[0], "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None, "without src/stabdet: non-zero exit, no result")

    print("selftest:", "FAILED" if expect.failures else "passed")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
