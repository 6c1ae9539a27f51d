"""Self-test of the benchmark: exact counts repeat, and a bare copy refuses to run.

    python3 perfbench/selftest.py [--seed 7]

For every workload it makes two traced runs at the same seed and asserts
that each count metric (everything not measured in seconds) is identical
and that both runs are correct.  Then it copies BENCHMARK.json and this
directory, without the package sources, and asserts that the benchmark
exits non-zero there without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMED_UNITS = {"s", "ms"}


def traced(workload: str, seed: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def counts_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"outputs failed their checks: {proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS}


def check_counts_repeat(seed: int) -> None:
    for workload in sorted(WORKLOADS):
        first, second = (counts_of(traced(workload, seed)) for _ in range(2))
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if differ:
            raise AssertionError(f"{workload}: counts differ between two traced runs: {differ}")
        print(f"ok  {workload}: {len(first)} counts identical across two traced runs")


def check_bare_copy_refuses() -> None:
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = traced(sorted(WORKLOADS)[0], 1, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"a copy without sources ran: {proc.returncode} {proc.stdout[-500:]}")
    print("ok  a copy without the package sources exits non-zero and prints no result")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    check_bare_copy_refuses()
    check_counts_repeat(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
