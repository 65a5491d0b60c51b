"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds every check a genuine poqlab output, which it must accept, and a
deliberately corrupted copy, which it must reject: a flipped score, an exact
value off by 1/16, a perturbed transform coefficient, and a few more.  Also
checks that BENCHMARK.json lists the per-layer metrics that spans.py
computes.  Exits nonzero on the first check that lets a corruption through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from poqlab import attack, core, fourier, games, protocol, provers  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(label: str, accepts: bool, fn, *args):
    try:
        fn(*args)
        accepted = True
    except checks.CheckFailed:
        accepted = False
    if accepted != accepts:
        raise SystemExit(f"FAIL {label}: check {'rejected' if accepts else 'accepted'} it")
    print(f"ok   {label}")


def with_transcript(result, index, **changes):
    bad = copy.deepcopy(result)
    bad.transcripts[index] = dataclasses.replace(bad.transcripts[index], **changes)
    return bad


def main() -> int:
    params = core.desk_params()
    d = params.d
    honest = protocol.run_game_r("honest", params, 40, core.Rng(5), keep_transcripts=True)
    expect("honest transcripts", True, checks.check_transcripts, honest, 40, d)
    flipped = with_transcript(honest, 3, score=-honest.transcripts[3].score)
    expect("flipped score", False, checks.check_transcripts, flipped, 40, d)
    b = honest.transcripts[0].b.copy()
    b[0] ^= 1
    expect("changed answer bit", False, checks.check_transcripts,
           with_transcript(honest, 0, b=b), 40, d)
    b[0] = 5
    expect("out-of-range answer", False, checks.check_transcripts,
           with_transcript(honest, 0, b=b), 40, d)

    seen = checks.check_transcripts(honest, 40, d)
    bounds = params.event_bounds()
    expect("honest statistics", True, checks.check_honest_statistics,
           seen["scores"], seen["e"], seen["f"], bounds)
    expect("always-losing honest prover", False, checks.check_honest_statistics,
           -np.abs(seen["scores"]), seen["e"], seen["f"], bounds)
    expect("E rate far below its bound", False, checks.check_honest_statistics,
           seen["scores"], np.arange(40) % 2 == 0, seen["f"], bounds)

    leak = protocol.run_game_r(provers.TrapdoorLeakProver(params), params, 20,
                               core.Rng(6), sequential=True, keep_transcripts=True)
    scores = checks.check_transcripts(leak, 20, d)["scores"]
    expect("leak prover wins", True, checks.check_leak_game, scores)
    expect("leak prover loses one trial", False, checks.check_leak_game,
           np.where(np.arange(20) == 7, -1, scores))
    recorder = workloads.ArmRecordingLeakProver(params)
    report = attack.experiment_e_campaign(recorder, params, 8, core.Rng(7))
    arms = recorder.arms
    if not 0 < sum(arms) < 8:
        raise SystemExit(f"FAIL self-test campaign needs both arms, drew {arms}")
    expect("E campaign", True, checks.check_leak_campaign, report, 8, arms)
    expect("E[r | real] below 1", False, checks.check_leak_campaign,
           dataclasses.replace(report, mean_r_real=1 - 1 / 8), 8, arms)
    expect("guess wrong on a real rep", False, checks.check_leak_campaign,
           dataclasses.replace(report, guess_accuracy=(sum(arms) - 1) / 8), 8, arms)
    expect("an arm not recorded", False, checks.check_leak_campaign, report, 8, arms[1:])
    expect("uniform arm only", True, checks.check_leak_campaign,
           dataclasses.replace(report, mean_r_real=0.0), 8, [False] * 8)
    expect("malformed trial scores -1", True, checks.check_malformed_scores, [-1, -1])
    expect("malformed trial scores +1", False, checks.check_malformed_scores, [-1, 1])

    exact = {
        "j_bias": (games.j_bias_bruteforce(2), checks.j_bias_enum(2, False)),
        "j_bias_sequential": (games.j_bias_bruteforce(2, sequential=True),
                              checks.j_bias_enum(2, True)),
        "ghz3_parallel": (games.ghz_value_bruteforce(3, "parallel", 2),
                          checks.ghz3_repeated_enum(2, False)),
        "eta_all": (games.max_eta_parity_balanced(2, False), checks.max_eta_enum(2, False)),
    }
    for label, (value, want) in exact.items():
        expect(f"exact {label}", True, checks.check_exact, label, value, want)
        expect(f"exact {label} off by 1/16", False, checks.check_exact, label,
               value + Fraction(1, 16), want)
    seq4, eta, par4 = Fraction(9, 16), exact["eta_all"][0], Fraction(9, 16)
    expect("bound chain", True, checks.check_exact_bounds, 2, seq4, eta, par4)
    expect("sequential value off by 1/16", False, checks.check_exact_bounds, 2,
           seq4 + Fraction(1, 16), eta, par4)
    expect("parallel value below eta", False, checks.check_exact_bounds, 2,
           seq4, eta, par4 - Fraction(1, 16))

    group = fourier.Group(4, 3)
    gen = np.random.default_rng(8)
    f = fourier.GroupFunction(group, gen.normal(size=64) + 1j * gen.normal(size=64))
    fh = fourier.dft(f).values
    expect("dft", True, checks.check_dft, f.values, fh, 4, 3)
    bumped = fh.copy()
    bumped[11] += 1e-6
    expect("perturbed transform coefficient", False, checks.check_dft, f.values, bumped, 4, 3)
    expect("transform of the wrong sign", False, checks.check_dft, f.values,
           fourier.idft(f).values, 4, 3)
    expect("uncertainty product below 1", False, checks.check_uncertainty, 0.99, True)
    unit_f = fourier.GroupFunction(group, f.values / np.linalg.norm(f.values))
    g_vals = np.zeros(64)
    g_vals[:4] = 0.5
    g = fourier.GroupFunction(group, g_vals)
    lhs, _rhs, holds = fourier.uncertainty_bound_check(unit_f, g)
    expect("uncertainty bound", True, checks.check_bound, unit_f.values, g.values, 4, 3,
           lhs, holds)
    expect("uncertainty bound lhs perturbed", False, checks.check_bound, unit_f.values,
           g.values, 4, 3, lhs + 1e-6, holds)

    bench = HERE.parent / "BENCHMARK.json"
    if bench.exists():
        listed = [(m["name"], m["unit"]) for m in json.loads(bench.read_text())["per_layer"]]
        if listed != list(spans.LAYER_METRICS):
            raise SystemExit("FAIL BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
        print("ok   BENCHMARK.json per-layer list")
    print("all checks reject their corruptions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
