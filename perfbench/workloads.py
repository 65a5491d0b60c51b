"""The four benchmark workloads.

Each workload builds its parameters and warms up in its constructor (part
of set-up time), makes one round's inputs from a round seed (untimed), runs
the round's job through poqlab's public functions (timed), and checks the
job's outputs with checks.py (untimed).  A run repeats whole rounds, so the
share of failed operations is the same in every run.

Campaigns run as one call with many trials (run_game_r(..., trials=N),
experiment_e_campaign(..., reps=N)), the way the poqlab CLI calls them, so
that a batched implementation can show its gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from poqlab import attack, core, fourier, games, lattice, protocol, provers

import checks

# Operations of every classical-attack round that a known fault makes fail:
# the referee passes a short commitment to lattice.invert, which raises
# and aborts the whole run_game_r.  Their inputs come from a fixed seed.
MALFORMED_TRIALS = 1
MALFORMED_SEED = 20241008
MALFORMED_FAULT = "v must have length m"


class MalformedCommitmentProver(provers.BlindProver):
    """Sends a round-one commitment w of length m - 1."""

    def first_response(self, a, v, coins):
        w, ells, mem = super().first_response(a, v, coins)
        return lattice.ZqArray(w.q, w.values[:-1]), ells, mem


@dataclass
class ArmRecordingLeakProver(provers.TrapdoorLeakProver):
    """The key-leak prover, recording which arm experiment E gives it in each
    repetition: the trapdoor on the real arm, None on the uniform one."""

    arms: list[bool] = field(default_factory=list)

    def set_leak(self, trapdoor):
        self.arms.append(trapdoor is not None)
        super().set_leak(trapdoor)


class HonestGame:
    """The honest prover on game R (or Rseq) at one parameter set."""

    def __init__(self, params: core.Params, trials: int, sequential: bool,
                 calibration: str):
        self.params, self.trials, self.sequential = params, trials, sequential
        self.calibration = calibration
        self.trials_per_round = trials
        self._scores, self._e, self._f = [], [], []
        self.run(core.Rng(0), trials=1)

    def inputs(self, round_seed: int):
        return core.Rng(round_seed)

    def run(self, rng, trials=None):
        return protocol.run_game_r("honest", self.params, trials or self.trials,
                                   rng, sequential=self.sequential,
                                   keep_transcripts=True)

    def check(self, rng, result) -> tuple[int, int]:
        seen = checks.check_transcripts(result, self.trials, self.params.d)
        self._scores.append(seen["scores"])
        self._e.append(seen["e"])
        self._f.append(seen["f"])
        return self.trials, 0

    def finish(self):
        checks.check_honest_statistics(np.concatenate(self._scores),
                                       np.concatenate(self._e),
                                       np.concatenate(self._f),
                                       self.params.event_bounds())


class ClassicalAttack:
    """Key-leak prover on Rseq at the desk preset, an experiment-E campaign
    with full question enumeration at d = 8, and a few malformed
    commitments."""

    calibration = "dispatch"
    LEAK_TRIALS = 60
    E_REPS = 12

    def __init__(self):
        self.params = core.desk_params()
        self.params_e = core.desk_params(d=8)
        self.trials_per_round = self.LEAK_TRIALS + MALFORMED_TRIALS
        self.run(core.Rng(0), leak_trials=1, reps=1)

    def inputs(self, round_seed: int):
        return core.Rng(round_seed)

    def run(self, rng, leak_trials=LEAK_TRIALS, reps=E_REPS):
        leak = protocol.run_game_r(provers.TrapdoorLeakProver(self.params),
                                   self.params, leak_trials, rng,
                                   sequential=True, keep_transcripts=True)
        recorder = ArmRecordingLeakProver(self.params_e)
        campaign = attack.experiment_e_campaign(recorder, self.params_e, reps, rng)
        try:
            malformed = protocol.run_game_r(
                MalformedCommitmentProver(self.params), self.params,
                MALFORMED_TRIALS, core.Rng(MALFORMED_SEED), sequential=True,
                keep_transcripts=True)
        except ValueError as exc:
            if MALFORMED_FAULT not in str(exc):
                raise
            malformed = None
        return leak, (campaign, recorder.arms), malformed

    def check(self, rng, out) -> tuple[int, int]:
        leak, (campaign, arms), malformed = out
        seen = checks.check_transcripts(leak, self.LEAK_TRIALS, self.params.d)
        checks.check_leak_game(seen["scores"])
        checks.check_leak_campaign(campaign, self.E_REPS, arms)
        failed = MALFORMED_TRIALS
        if malformed is not None:
            seen = checks.check_transcripts(malformed, MALFORMED_TRIALS, self.params.d)
            checks.check_malformed_scores(seen["scores"])
            failed = 0
        return self.LEAK_TRIALS + self.E_REPS + MALFORMED_TRIALS, failed

    def finish(self):
        pass


class ExactD2:
    """Exact game values at d = 2 and transform checks on Z_4^3 and Z_4^4."""

    calibration = None   # see calibrate.py
    D = 2
    GROUPS = ((4, 3), (4, 4))
    SAMPLES = 150   # functions per group and per check

    def __init__(self):
        self.trials_per_round = 0
        self._want = None
        games.ghz_value_bruteforce(3, "single")
        fourier.dft(fourier.GroupFunction(fourier.Group(4, 2), np.ones(16)))

    def inputs(self, round_seed: int):
        """Per group: dense complex functions for the transform, sparse ones
        (each entry kept with probability 1/4) for the uncertainty checks,
        and unit-norm indicator pairs for the uncertainty bound."""
        gen = np.random.default_rng(round_seed)
        out = []
        for m, n in self.GROUPS:
            group = fourier.Group(m, n)
            size = group.size

            def draw(keep=1.0):
                vals = gen.normal(size=size) + 1j * gen.normal(size=size)
                mask = gen.random(size) < keep
                mask[gen.integers(size)] = True
                return vals * mask

            def unit_indicator():
                mask = gen.random(size) < 0.25
                mask[gen.integers(size)] = True
                return mask / np.sqrt(mask.sum())

            def unit(vals):
                return vals / np.linalg.norm(vals)

            out.append({
                "group": group,
                "dense": [fourier.GroupFunction(group, draw()) for _ in range(self.SAMPLES)],
                "sparse": [fourier.GroupFunction(group, draw(0.25))
                           for _ in range(self.SAMPLES)],
                "pairs": [(fourier.GroupFunction(group, unit(draw(0.25))),
                           fourier.GroupFunction(group, unit_indicator()))
                          for _ in range(self.SAMPLES)],
            })
        return out

    def run(self, inputs):
        d = self.D
        values = {
            "ghz3_single": games.ghz_value_bruteforce(3, "single"),
            "ghz4_single": games.ghz_value_bruteforce(4, "single"),
            "ghz3_parallel": games.ghz_value_bruteforce(3, "parallel", d),
            "ghz3_sequential": games.ghz_value_bruteforce(3, "sequential", d),
            "ghz4_parallel": games.ghz_value_bruteforce(4, "parallel", d),
            "ghz4_sequential": games.ghz_value_bruteforce(4, "sequential", d),
            "j_bias": games.j_bias_bruteforce(d),
            "j_bias_sequential": games.j_bias_bruteforce(d, sequential=True),
            "eta_all": games.max_eta_parity_balanced(d, time_ordered=False),
            "eta_time_ordered": games.max_eta_parity_balanced(d, time_ordered=True),
        }
        transforms = []
        for part in inputs:
            transforms.append({
                "dft": [fourier.dft(f).values for f in part["dense"]],
                "product": [fourier.uncertainty_product(h) for h in part["sparse"]],
                "donoho": [fourier.donoho_stark_check(h) for h in part["sparse"]],
                "bound": [fourier.uncertainty_bound_check(f, g)
                          for f, g in part["pairs"]],
            })
        return values, transforms

    def expected(self) -> dict:
        """The benchmark's own enumerations, computed once per process."""
        if self._want is None:
            d = self.D
            self._want = {
                "ghz3_single": checks.ghz_single_enum(3),
                "ghz4_single": checks.ghz_single_enum(4),
                "ghz3_parallel": checks.ghz3_repeated_enum(d, sequential=False),
                "ghz3_sequential": checks.ghz3_repeated_enum(d, sequential=True),
                "j_bias": checks.j_bias_enum(d, sequential=False),
                "j_bias_sequential": checks.j_bias_enum(d, sequential=True),
                "eta_all": checks.max_eta_enum(d, time_ordered=False),
                "eta_time_ordered": checks.max_eta_enum(d, time_ordered=True),
            }
        return self._want

    def check(self, inputs, out) -> tuple[int, int]:
        values, transforms = out
        for label, want in self.expected().items():
            checks.check_exact(label, values[label], want)
        checks.check_exact_bounds(self.D, values["ghz4_sequential"],
                                  values["eta_all"], values["ghz4_parallel"])
        operations = len(values)
        for part, got in zip(inputs, transforms):
            m, n = part["group"].m, part["group"].n
            for f, fh in zip(part["dense"], got["dft"]):
                checks.check_dft(f.values, fh, m, n)
            for product, donoho in zip(got["product"], got["donoho"]):
                checks.check_uncertainty(product, donoho)
            for (f, g), (lhs, _rhs, holds) in zip(part["pairs"], got["bound"]):
                checks.check_bound(f.values, g.values, m, n, lhs, holds)
            operations += sum(len(v) for v in got.values())
        return operations, 0

    def finish(self):
        pass


def make(name: str):
    if name == "honest-desk":
        return HonestGame(core.desk_params(), trials=100, sequential=False,
                          calibration="dispatch")
    if name == "honest-separation":
        return HonestGame(core.desk_params(d=16, n=16), trials=8, sequential=True,
                          calibration="statevector")
    if name == "classical-attack":
        return ClassicalAttack()
    if name == "exact-d2":
        return ExactD2()
    raise ValueError(f"unknown workload {name!r}")

