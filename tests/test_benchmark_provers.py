"""The benchmark (perfbench/workloads.py) subclasses poqlab's provers in two
ways: a key-leak prover that overrides set_leak to record which arm each
experiment-E repetition hands it, and a blind prover that overrides only
first_response(a, v, coins).  A change to the prover hooks that broke either
would only show up as a benchmark run with incorrect outputs, so both ways
are played here.  The benchmark's own self-test runs here too."""

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poqlab.attack import experiment_e, experiment_e_campaign
from poqlab.core import Rng, desk_params
from poqlab.lattice import TrapdoorKey, ZqArray
from poqlab.protocol import run_game_r
from poqlab.provers import BlindProver, TrapdoorLeakProver

PARAMS = desk_params()


@dataclass
class _LeakRecorder(TrapdoorLeakProver):
    """Records what each set_leak call hands it: True for a trapdoor, False
    for None."""

    arms: list[bool] = field(default_factory=list)

    def set_leak(self, trapdoor):
        assert trapdoor is None or isinstance(trapdoor, TrapdoorKey)
        self.arms.append(trapdoor is not None)
        super().set_leak(trapdoor)


def test_set_leak_is_called_once_per_repetition_with_its_arm():
    prover, rng = _LeakRecorder(PARAMS), Rng(7)
    for rep in range(8):
        out = experiment_e(prover, PARAMS, rng, rep)
        assert prover.arms == [out.hidden_bit == 0]   # arm 0 is the real one
        assert out.r == 1 or out.hidden_bit == 1      # the leak was read
        prover.arms.clear()
    report = experiment_e_campaign(prover, PARAMS, 12, Rng(8))
    assert len(prover.arms) == 12 and sum(prover.arms) == report.reps_real
    assert report.mean_r_real == 1.0


class _CoinRecorder(BlindProver):
    """Overrides only first_response: records the coins, then commits as a
    blind prover would."""

    def __init__(self, params):
        super().__init__(params)
        self.coins = []

    def first_response(self, a, v, coins):
        self.coins.append(coins)
        return super().first_response(a, v, coins)


class _ShortCommitment(BlindProver):
    """Overrides only first_response: commits to a w one entry short."""

    def first_response(self, a, v, coins):
        w, ells, mem = super().first_response(a, v, coins)
        return ZqArray(w.q, w.values[:-1]), ells, mem


def test_first_response_override_still_plays_game_r():
    prover = _CoinRecorder(PARAMS)
    got = run_game_r(prover, PARAMS, 10, Rng(9), sequential=True,
                     keep_transcripts=True)
    want = run_game_r(BlindProver(PARAMS), PARAMS, 10, Rng(9),
                      sequential=True, keep_transcripts=True)
    assert [t.to_line() for t in got.transcripts] == \
        [t.to_line() for t in want.transcripts]
    assert len(prover.coins) == 10
    assert all(np.shape(coins) == (4,) for coins in prover.coins)
    short = run_game_r(_ShortCommitment(PARAMS), PARAMS, 3, Rng(9),
                       sequential=True, keep_transcripts=True)
    assert [t.score for t in short.transcripts] == [-1, -1, -1]


def test_benchmark_selftest_passes():
    # perfbench/selftest.py feeds every output check of the benchmark a
    # genuine poqlab output and corrupted copies; a change to poqlab that
    # breaks those checks fails here, with no change to perfbench/
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
