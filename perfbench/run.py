"""poqlab benchmark.

    python3 perfbench/run.py --workload honest-desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the repository root; poqlab is imported from ./src.  Each workload
runs in its own worker process (worker.py), with BLAS threads capped at the
number of CPUs this process may use.  Set-up time is measured from process
start to the first measured operation, over SETUP_SAMPLES processes (the
measured one included), and reported as the median.  Times are in
reference seconds (calibrate.py): set-up time is scaled by the start-up time
of a bare interpreter importing numpy, timed next to each set-up sample, and
the game workloads scale wall_s and cpu_s by a calibration kernel.  The
human-readable lines also give the measured seconds and the speed factors.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of spans.py with --trace 1.  The exit code is nonzero when
an output check fails or a worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("honest-desk", "honest-separation", "classical-attack", "exact-d2")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170   # per workload, set-up samples included
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_python(args: list[str], deadline: float) -> tuple[str, float]:
    """One Python process; returns its last output line and when it started."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{args} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{args} exited with code {proc.returncode}")
    return lines[-1], start


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """One worker process; returns its report and its set-up time."""
    line, start = run_python([str(HERE / "worker.py"), *args], deadline)
    report = json.loads(line)
    return report, report["setup_end"] - start


def startup_time(deadline: float) -> float:
    line, start = run_python(["-c", calibrate.STARTUP_PROGRAM], deadline)
    return float(line) - start


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups, startups = [], []
    for _ in range(SETUP_SAMPLES - 1 if not trace else 0):
        startups.append(startup_time(deadline))
        setups.append(run_worker(common + ["--setup-only"], deadline)[1])
    if not trace:
        startups.append(startup_time(deadline))
    report, setup = run_worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    raw = {"wall_s": report["raw_wall_s"], "speed_factor": report["speed_factor"]}
    if trace:
        units = dict(spans.LAYER_METRICS)
    else:
        units = dict(END_TO_END)
        raw["setup_s"] = statistics.median(setups + [setup])
        raw["setup_factor"] = calibrate.STARTUP_REFERENCE_S / statistics.median(startups)
        report["metrics"]["setup_s"] = raw["setup_s"] * raw["setup_factor"]
    metrics = {key: {"value": report["metrics"][key], "unit": unit}
               for key, unit in units.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics, "raw": raw,
            "rounds": report["rounds"], "error": report["error"]}


def print_result(name: str, result: dict):
    print(f"{name}: rounds={result['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(result['correct']).lower()}")
    if result["error"]:
        print(f"  check failed: {result['error']}")
    print("  measured: " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print_result(name, results[name])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
