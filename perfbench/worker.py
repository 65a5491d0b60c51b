"""Runs one workload in this process and prints one JSON line.

Started by run.py, never by hand.  With --setup-only it stops after set-up
and reports when set-up ended, so run.py can time set-up from process start
several times.  Otherwise it repeats whole rounds until the next one would
end after --seconds, checks every round's outputs, and reports the mean
wall and CPU time of a round, the peak resident set size, or, with
--trace 1, the per-layer metrics of spans.py.

The game workloads report times in reference seconds (calibrate.py): after
each round the workload's calibration kernel runs for a tenth of the round's
wall time.  exact-d2 reports measured seconds (see calibrate.py).  The mean over
rounds, not their median, is reported because the machine's speed drifts
between a fast and a slow state: round times then fall into two clusters,
their median jumps from one to the other between runs, and their mean
(total job time over total rounds) moves least.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks

HERE = Path(__file__).resolve().parent


def monotonic() -> float:
    """System-wide clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def measure(workload, seed: int, seconds: float, speed: calibrate.Speed | None):
    walls, cpus = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    error = None
    while True:
        inputs = workload.inputs(round_seed(seed, len(walls)))
        w0, c0 = time.perf_counter(), time.process_time()
        out = workload.run(inputs)
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        try:
            done, bad = workload.check(inputs, out)
        except checks.CheckFailed as exc:
            error = f"round {len(walls) - 1}: {exc}"
            break
        attempted += done
        failed += bad
        if speed is not None:
            speed.sample(0.1 * walls[-1])
        elapsed = time.perf_counter() - begin
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    if error is None:
        try:
            workload.finish()
        except checks.CheckFailed as exc:
            error = str(exc)
    return walls, cpus, attempted, failed, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import poqlab
    src = (HERE.parent / "src").resolve()
    if src not in Path(poqlab.__file__).resolve().parents:
        print(f"poqlab imported from {poqlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.make(args.workload)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install()
    setup_end = monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    speed = calibrate.Speed(workload.calibration) if workload.calibration else None
    walls, cpus, attempted, failed, error = measure(workload, args.seed,
                                                    args.seconds, speed)
    factor = speed.factor if speed is not None else 1.0
    report = {"setup_end": setup_end, "correct": error is None,
              "attempted": attempted, "failed": failed, "rounds": len(walls),
              "error": error, "speed_factor": factor,
              "raw_wall_s": statistics.fmean(walls)}
    if tracer is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["metrics"] = {"wall_s": statistics.fmean(walls) * factor,
                             "cpu_s": statistics.fmean(cpus) * factor,
                             "peak_rss_mb": peak_kb / 1024}
    else:
        report["metrics"] = tracer.metrics(walls, workload.trials_per_round, factor)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace_{args.workload}_seed{args.seed}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
