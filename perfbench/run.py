"""topkcert benchmark: oracle cost and compute cost, end to end and per layer.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload screen_1e6 --seed 3 --seconds 20 --trace 0

Each workload runs in its own single-threaded process (BLAS and OpenMP pinned
to one thread), on the same one CPU as this process.  Times are reported at
nominal machine speed (see ``speed``); raw wall times are printed beside them.
A run prints every metric by name, unit and sample count, and with
``--workload`` ends with one JSON line holding the metrics
``BENCHMARK.json`` lists: its ``end_to_end`` ones with ``--trace 0``, its
``per_layer`` ones with ``--trace 1``.  The run exits non-zero when a
certified output breaks the correctness gate (see ``worker.gate``).  Spans
and full results go to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import speed
from workloads import HELD_OUT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0
# Set-up is timed in this many processes per run and reported as the median.
SETUPS = 5
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": THREAD_PINS,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _worker(workload: Workload, seed: int, seconds: float, trace: int,
            extra=()) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", json.dumps(workload.to_json()),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env={**os.environ, **THREAD_PINS})


def _serve(proc: subprocess.Popen):
    """Answer the worker's slowdown requests; return its result, or None."""
    result = None
    for line in proc.stdout:
        if line == "CALIBRATE\n":
            proc.stdin.write(f"{speed.slowdown()!r}\n")
            proc.stdin.flush()
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    proc.wait()
    return result


def _run_worker(workload: Workload, seed: int, args: tuple, deadline: float):
    """Run one workload process to its end.

    Returns its set-up time at nominal speed, its wall set-up time and its
    result (None for a set-up-only process).
    """
    slowdown = speed.slowdown()
    started = time.perf_counter()
    with _worker(workload, seed, *args) as proc:
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline() == "READY\n"
            wall_setup_s = time.perf_counter() - started
            result = _serve(proc) if ready else None
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if not ready or proc.returncode != 0:
        raise BenchmarkError(f"{workload.name} process failed or ran past {TIME_LIMIT_S} s "
                             f"(exit {proc.returncode})")
    return wall_setup_s / slowdown, wall_setup_s, result


def run_workload(workload: Workload, seed: int, seconds: float, trace: int, deadline: float,
                 setups: int = SETUPS) -> dict:
    """Run one workload process (plus set-up-only ones) and collect its result."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    runs = [(0, 0, ["--setup-only"])] * (0 if trace else setups - 1)
    runs.append((seconds, trace, ["--spans", str(spans)] if trace else []))
    timings = [_run_worker(workload, seed, args, deadline) for args in runs]
    result = timings[-1][2]
    if not trace:
        result["metrics"]["setup_s"] = [statistics.median(t[0] for t in timings), "s", len(runs)]
        result["metrics"]["wall.setup_s"] = [statistics.median(t[1] for t in timings), "s",
                                             len(runs)]
    result["spans"] = str(spans.relative_to(ROOT)) if trace else None
    return result


def _baseline_note(workload: str, seed: int, digest: str) -> str:
    recorded = json.loads((HERE / "baseline.json").read_text())["digests"].get(workload, {})
    if str(seed) not in recorded:
        return "no baseline at this seed"
    return "matches baseline" if recorded[str(seed)] == digest else "DIFFERS from baseline"


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    """Print every metric by name, unit and sample count, then the checks."""
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"{workload:<18} {name:<38} {value:>16.6f} {unit:<6} n={samples}")
    print(f"{workload:<18} fits attempted {result['attempted']}, failed {result['failed']}")
    print(f"{workload:<18} oracle-cost digest {result['digest']} "
          f"({_baseline_note(workload, seed, result['digest'])})")
    if trace:
        print(f"{workload:<18} spans: {result['spans']}")
        if result["premise"]:
            print(f"{workload:<18} premise: {result['premise']}")
    for problem in result["problems"]:
        print(f"{workload:<18} GATE BREACH: {problem}")


def declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, trace: int) -> dict:
    metrics = {}
    for name, unit in declared(trace).items():
        if name not in result["metrics"]:
            raise BenchmarkError(f"metric {name} was not measured")
        value, measured_unit, _ = result["metrics"][name]
        if measured_unit != unit:
            raise BenchmarkError(f"metric {name} is in {measured_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _save(name: str, seed: int, trace: int, env: dict, result: dict) -> None:
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": name, "environment": env, **result}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with its JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # One CPU for this process and the workload processes it starts, so that
    # the slowdown measurements see the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment(args.seed)
    print(" ".join(f"{key}={value}" for key, value in env.items() if key != "threads"),
          "threads=1 (" + ",".join(THREAD_PINS) + ")")
    try:
        if args.workload:
            result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                                  deadline)
            _save(args.workload, args.seed, args.trace, env, result)
            report(args.workload, args.seed, args.trace, result)
            line = result_line(result, args.trace)
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        correct = True
        for name, workload in WORKLOADS.items():
            rates = {}
            for trace in (0, 1):
                result = run_workload(workload, args.seed, args.seconds, trace,
                                      time.monotonic() + TIME_LIMIT_S)
                _save(name, args.seed, trace, env, result)
                report(name, args.seed, trace, result)
                correct &= not result["problems"]
                rates[trace] = result["metrics"]["trace.replicates_per_s" if trace
                                                 else "replicates_per_s"][0]
            print(f"{name:<18} tracing overhead: traced {rates[1]:.4f} vs untraced "
                  f"{rates[0]:.4f} replicates/s "
                  f"({rates[0] / rates[1] - 1:+.1%} time per replicate)")
        return 0 if correct else 1
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
