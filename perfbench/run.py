"""Benchmark entry point for the primexp CLI.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: the package is imported from
``src/`` and driven in process through ``primexp.cli.main(argv)`` with
stdout captured, one call after another (a closed loop with one client,
``--jobs 1``).  Passes repeat until ``--seconds`` have elapsed.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0`` (timings at reference CPU speed, see below), its per-layer
metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, CallResult
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

# CPU-speed calibration.  The machines this runs on share their cores, and
# their speed drifts by tens of percent over minutes.  A fixed pure-Python
# loop from oracles.py, which shares no code with the package, is timed
# before every pass and after the last one.  Times reported "at reference
# speed" are the measured times scaled by REF_CAL_S / (median calibration
# time), so they read as seconds on a machine where the loop takes
# REF_CAL_S, which is its typical time on an unloaded 2-core x86 VM.
CAL_MATRIX = oracles.chord_rows(24, 11, (1, 3))
CAL_REPEATS = 160
REF_CAL_S = 0.15


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and generate the inputs, then exit")
    return p.parse_args(argv)


def import_package() -> None:
    """Import primexp, with its cli module, from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "primexp", "__init__.py")):
        raise BenchError(f"no primexp package under {SRC}")
    sys.path.insert(0, SRC)
    import primexp.cli

    if not os.path.abspath(primexp.__file__).startswith(SRC + os.sep):
        raise BenchError(f"primexp was imported from {primexp.__file__}, not from {SRC}")


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- running CLI calls -------------------------------------------------------

def run_call(call) -> tuple[float, int, str, str]:
    """One timed CLI call: (seconds, exit code, stdout, stderr)."""
    cli = sys.modules["primexp.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(call.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, not a benchmark error
            traceback.print_exc()
            rc = -1
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_pass(workload, keep_files: bool) -> tuple[list[float], list[CallResult]]:
    """All calls of one pass, timed one by one; outputs are hashed afterwards."""
    raw = [run_call(call) for call in workload.calls]
    latencies, results = [], []
    for call, (elapsed, rc, stdout, stderr) in zip(workload.calls, raw):
        parts = [stdout.encode()]
        files = {}
        for path in call.outputs:
            try:
                with open(path, "rb") as fh:
                    files[path] = fh.read()
            except OSError:
                files[path] = b""
                rc = rc or -1
            parts.append(files[path])
        digest = oracles.sha256(b"\0".join(parts))
        latencies.append(elapsed)
        results.append(CallResult(rc, stdout, stderr, digest, files if keep_files else {}))
    return latencies, results


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop."""
    start = time.perf_counter()
    for _ in range(CAL_REPEATS):
        oracles.bool_power(CAL_MATRIX, 500)
        oracles.girth(CAL_MATRIX)
    return time.perf_counter() - start


def timed_passes(workload, seconds: float):
    """Closed loop: passes back to back until the time is up (at least one).

    Returns the passes and the calibration times taken around them.
    """
    passes, cals = [], [calibrate()]
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, keep_files=not passes))
        cals.append(calibrate())
    return passes, cals


def tally(passes, reference: list[CallResult], weights, oracle_failed) -> tuple[int, int, list[str]]:
    """attempted and failed instances over every pass, plus failure messages."""
    attempted = failed = 0
    messages = []
    for number, (_, results) in enumerate(passes):
        for i, result in enumerate(results):
            attempted += weights[i]
            if result.rc != 0:
                failed += weights[i]
                messages.append(f"pass {number} call {i}: exit code {result.rc}: "
                                f"{result.stderr.strip()[-300:]}")
            elif result.digest != reference[i].digest:
                failed += weights[i]
                messages.append(f"pass {number} call {i}: output bytes differ from pass 0")
            else:
                failed += oracle_failed[i]
                if oracle_failed[i]:
                    messages.append(f"pass {number} call {i}: {oracle_failed[i]} "
                                    f"instance(s) failed an oracle check")
    return attempted, failed, messages


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- set-up time ---------------------------------------------------------------

def setup_probe(workload_name: str, seed: int) -> None:
    """Child side: import the package and generate the inputs, then clean up."""
    import_package()
    workdir = make_workdir(f"probe-{workload_name}")
    try:
        WORKLOADS[workload_name](seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload_name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and generate inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def make_workdir(tag: str) -> str:
    path = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- the two kinds of run ---------------------------------------------------------

def end_to_end_run(args) -> tuple[dict, int, int, list[str], list[str]]:
    setup_s = measure_setup(args.workload, args.seed)
    workdir = make_workdir(f"run-{args.workload}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        passes, cals = timed_passes(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = passes[0][1]
        weights, oracle_failed = workload.check(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, messages = tally(passes, reference, weights, oracle_failed)
    walls = [sum(latencies) for latencies, _ in passes]
    if workload.query_is_call:
        latencies_ms = [t * 1e3 for latencies, _ in passes for t in latencies]
    else:
        latencies_ms = [w * 1e3 for w in walls]
    raw = {
        "wall_s": statistics.median(walls),
        "instances_per_s": sum(weights) * len(passes) / sum(walls),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p90_ms": percentile(latencies_ms, 90),
    }
    cal_s = statistics.median(cals)
    scale = REF_CAL_S / cal_s
    values = {
        "wall_ref_s": raw["wall_s"] * scale,
        "instances_per_ref_s": raw["instances_per_s"] / scale,
        "query_p50_ref_ms": raw["query_p50_ms"] * scale,
        "query_p90_ref_ms": raw["query_p90_ms"] * scale,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"{len(passes)} passes of {len(workload.calls)} CLI call(s), "
        f"{sum(weights)} {workload.instance_noun} per pass",
        "pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls),
        f"calibration: median {cal_s:.4f} s of {len(cals)}, reference {REF_CAL_S} s, "
        f"scale {scale:.4f}",
        "as measured: " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()),
        f"latency samples: {len(latencies_ms)} "
        + ("CLI calls" if workload.query_is_call else "passes"),
        f"failed_frac: {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    return values, attempted, failed, messages, notes


def traced_run(args) -> tuple[dict, int, int, list[str], list[str]]:
    from tracer import TARGETS, Tracer

    plain_dir = make_workdir(f"run-{args.workload}")
    traced_dir = make_workdir(f"traced-{args.workload}")
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](args.seed, plain_dir)
        passes, _ = timed_passes(workload, args.seconds / 2)
        reference = passes[0][1]
        tracer.install()
        try:
            traced_workload = WORKLOADS[args.workload](args.seed, traced_dir)
            traced = run_pass(traced_workload, keep_files=False)
        finally:
            tracer.uninstall()
        weights, oracle_failed = workload.check(reference)
    finally:
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
    attempted, failed, messages = tally(passes + [traced], reference, weights, oracle_failed)

    times = tracer.self_times()
    counts = tracer.counts
    values = {}
    for label in {target[2] for target in TARGETS}:
        calls, self_s = times.get(label, (0, 0.0))
        values[f"{label}.calls"] = calls
        values[f"{label}.self_s"] = self_s
    for key in ("boolmat.mul_rows.row_ors", "exponent.exponent.value_sum",
                "exponent.exponent_of_rows.value_sum", "digraph.simple_cycles.cycles_stored",
                "digraph.simple_cycles.cap_hits", "verify.instances", "report.bytes"):
        values[key] = counts[key]
    primitive_calls = values["digraph.rows_primitive.calls"]
    values["digraph.rows_primitive.useful_frac"] = (
        counts["digraph.rows_primitive.useful"] / primitive_calls if primitive_calls else 0.0)
    steps = values["exponent.exponent.value_sum"] + values["exponent.exponent_of_rows.value_sum"]
    values["exponent.products_per_step"] = values["boolmat.mul_rows.calls"] / steps if steps else 0.0
    untraced_wall = statistics.median(sum(latencies) for latencies, _ in passes)
    traced_wall = sum(traced[0])
    values["trace.overhead_s"] = traced_wall - untraced_wall

    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    span_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.csv.gz")
    tracer.write_spans(span_path)
    notes = [
        f"traced pass {traced_wall:.3f} s vs untraced median {untraced_wall:.3f} s "
        f"over {len(passes)} pass(es); {len(tracer.spans)} spans in "
        f"{os.path.relpath(span_path, ROOT)}",
    ]
    return values, attempted, failed, messages, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        specs = load_metric_specs()
        import_package()
        section = "per_layer" if args.trace else "end_to_end"
        run = traced_run if args.trace else end_to_end_run
        values, attempted, failed, messages, notes = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    metrics = {}
    for spec in specs[section]:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']} = {value} {spec['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
