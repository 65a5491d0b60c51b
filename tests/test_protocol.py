import dataclasses
import gc
import hashlib
from collections import Counter
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poqlab import attack, lattice, protocol, provers, quantum
from poqlab.attack import best_score, experiment_e_campaign, rewind
from poqlab.cli import main
from poqlab.core import Rng, derive_params, desk_params, matmul_mod, norminf
from poqlab.lattice import ZqArray, commitment_shifts, decode_preimages, invert
from poqlab.games import j_sample_inputs, j_score
from poqlab.protocol import (ScoreStats, Transcript, check_bits, play_round,
                             referee_first_assessment, referee_score,
                             run_game_j, run_game_r)
from poqlab.provers import (BlindProver, ClassicalProver, TrapdoorLeakProver,
                            answer_table)
from poqlab.quantum import HonestProver, honest_first_round

from oracles import (best_score_oracle, gen_trap_oracle,
                     honest_first_round_oracle, rejection_noise_sampler,
                     round_record, run_experiment_s, seedsequence_stream,
                     sha_coin_bits, zq_add)

PARAMS = desk_params()


# --- statistics ----------------------------------------------------------------

def test_score_stats_basics():
    stats = ScoreStats.from_scores([1, 1, -1, 1])
    assert stats.trials == 4
    assert -1 <= stats.mean <= 1
    assert stats.ci95_lo < stats.mean < stats.ci95_hi


def test_ci_shrinks_like_sqrt_n():
    gen = np.random.default_rng(0)
    small = ScoreStats.from_scores(gen.choice([-1, 1], size=400))
    large = ScoreStats.from_scores(gen.choice([-1, 1], size=40_000))
    ratio = small.stderr / large.stderr
    assert 7 < ratio < 14  # ~ sqrt(100)


# --- transcripts -----------------------------------------------------------------

def test_transcript_round_trip_and_rescore():
    res = run_game_r("honest", PARAMS, 5, Rng(3), keep_transcripts=True)
    for t in res.transcripts:
        line = t.to_line()
        back = Transcript.from_line(line)
        assert back.to_line() == line
        assert back.rescore() == back.score
        np.testing.assert_array_equal(back.w, t.w)
        np.testing.assert_array_equal(back.ells, t.ells)


def test_transcript_fields_present():
    res = run_game_r("honest", PARAMS, 1, Rng(4), keep_transcripts=True)
    line = res.transcripts[0].to_line()
    for key in ("game=", "trial=", "x=", "y=", "a=", "b=", "w=", "ells=",
                "score=", "e_flag=", "f_flag=", "seed="):
        assert key in line


# --- claw game -------------------------------------------------------------------

def test_game_j_mean_and_determinism():
    res1 = run_game_j(4, 20_000, Rng(7))
    res2 = run_game_j(4, 20_000, Rng(7))
    assert res1.stats == res2.stats
    assert abs(res1.stats.mean - np.sqrt(2) / 2) < 0.03


# --- encrypted game ----------------------------------------------------------------

def test_game_r_honest_smoke():
    res = run_game_r("honest", PARAMS, 1500, Rng(11), keep_transcripts=True)
    bound_e, bound_f = PARAMS.event_bounds()
    assert res.e_rate >= bound_e - 0.03
    assert res.f_rate >= bound_f - 0.03
    assert res.stats.mean >= 0.60
    assert abs(res.conditional_mean - np.sqrt(2) / 2) < 0.05
    for t in res.transcripts[:50]:
        assert t.rescore() == t.score


@pytest.mark.parametrize("params, trials, seed",
                         [(PARAMS, 2000, 31), (desk_params(sigma=10), 1000, 32)],
                         ids=["desk", "sigma10"])
def test_honest_e_rate_matches_sampled_campaign(params, trials, seed):
    # lattice.honest_e_rate is the exact law of the E event the game samples
    rate = lattice.honest_e_rate(params)
    res = run_game_r(HonestProver(params), params, trials, Rng(seed))
    stderr = np.sqrt(rate * (1 - rate) / trials)
    assert abs(res.e_rate - rate) <= 4 * stderr


def test_game_r_rejects_bad_params():
    bad = derive_params(lam=4)
    with pytest.raises(ValueError):
        run_game_r("honest", bad, 10, Rng(0))


def test_game_r_rejects_d_below_one():
    # Params accepts d = 0 (the empty message); the game needs a question
    # bit besides the final 1
    params = dataclasses.replace(desk_params(), d=0)
    with pytest.raises(ValueError, match=r"^d = 0 \(no question bit besides "
                                         r"the final 1\)$"):
        run_game_r("honest", params, 1, Rng(0))


@pytest.mark.parametrize("trials", [0, -1])
def test_trial_counts_below_one_name_the_argument(trials):
    # refused up front, by name: no empty mean (a RuntimeWarning and NaN
    # rates) and no negative array dimension
    plays = [
        lambda: run_game_r("honest", PARAMS, trials, Rng(0)),
        lambda: run_game_r(BlindProver(PARAMS), PARAMS, trials, Rng(0),
                           sequential=True),
        lambda: run_game_j(4, trials, Rng(0)),
        lambda: run_experiment_s(2, BlindProver(PARAMS), PARAMS, trials,
                                 Rng(0)),
    ]
    for play in plays:
        with pytest.raises(ValueError,
                           match=f"^trials must be at least 1, got {trials}$"):
            play()


def test_game_r_determinism():
    r1 = run_game_r("honest", PARAMS, 40, Rng(13), keep_transcripts=True)
    r2 = run_game_r("honest", PARAMS, 40, Rng(13), keep_transcripts=True)
    assert [t.to_line() for t in r1.transcripts] == \
        [t.to_line() for t in r2.transcripts]


def _transcript_digest(result) -> str:
    lines = "\n".join(t.to_line() for t in result.transcripts)
    return hashlib.sha256(lines.encode()).hexdigest()


class _HooksOnly:
    """A prover that derives from no poqlab class and has only the engine's
    two hooks, both handed on to an honest prover."""

    def __init__(self, params):
        self._honest = HonestProver(params)

    def commit(self, a, v, streams, trapdoor):
        return self._honest.commit(a, v, streams, trapdoor)

    def answer(self, ys, mems, preimages, a, streams, sequential):
        return self._honest.answer(ys, mems, preimages, a, streams, sequential)


# each case: the game, its digest, and the digest it had before streams were
# keyed straight from their SHA-256 digest (see
# test_seedsequence_stream_reproduces_earlier_pins)
TRANSCRIPT_PINS = [
    pytest.param(
        "honest", PARAMS, 20, False,
        "98c275c1d1d9dd4fc6e87079368e985dfbff302d4aacdc748e09e87ac0a8bded",
        "8cbe550ceae4da4e2f4edfadecf57d562d253ef54088e2ea0d5fcc29c76a4c5b",
        id="honest-R-desk"),
    pytest.param(
        "honest", desk_params(d=16, n=16), 4, True,
        "f5846ab633cfb26c6c49c55693b33d8e36cf414796edbae8ae085fd01fcd9f03",
        "a5eb58aff59a0b13c402289fa03700debbb15929c6b8987474322bd79be98a10",
        id="honest-Rseq-separation"),
    pytest.param(
        TrapdoorLeakProver(PARAMS), PARAMS, 20, True,
        "5a93eb6dad7ba189e2d89ebe8d722662afe7b474dfc11a399e3e8f59e696380c",
        "9e9bb4429057193ce89292067fd0bd4fea4f77d55e939eda8a9a7cdc60249064",
        id="leak-Rseq-desk"),
    # the hooks are the engine's whole contract with a prover
    pytest.param(
        _HooksOnly(PARAMS), PARAMS, 20, False,
        "98c275c1d1d9dd4fc6e87079368e985dfbff302d4aacdc748e09e87ac0a8bded",
        "8cbe550ceae4da4e2f4edfadecf57d562d253ef54088e2ea0d5fcc29c76a4c5b",
        id="hooks-only-R-desk"),
    pytest.param(
        _HooksOnly(desk_params(d=16, n=16)), desk_params(d=16, n=16), 4, True,
        "f5846ab633cfb26c6c49c55693b33d8e36cf414796edbae8ae085fd01fcd9f03",
        "a5eb58aff59a0b13c402289fa03700debbb15929c6b8987474322bd79be98a10",
        id="hooks-only-Rseq-separation"),
]


# the pins that drawing the noise by inversion moved, each with the digest it
# had while the noise was drawn by rejection (see
# test_rejection_sampler_reproduces_earlier_pins)
REJECTION_PINS = {
    "honest-R-desk": "300faa017e9cc866941e4b4fc21c051aa3a3c40aa354cf0a818bda15cc8fa39b",
    "honest-Rseq-separation": "2fb29cf4c308c61a8ff3420fe90c5504d0e9261a260a46a5aa313f2527123e54",
    "hooks-only-R-desk": "300faa017e9cc866941e4b4fc21c051aa3a3c40aa354cf0a818bda15cc8fa39b",
    "hooks-only-Rseq-separation": "2fb29cf4c308c61a8ff3420fe90c5504d0e9261a260a46a5aa313f2527123e54",
}


@pytest.mark.parametrize("prover, params, trials, sequential, digest, _",
                         TRANSCRIPT_PINS)
def test_transcripts_pinned_at_fixed_seed(prover, params, trials, sequential,
                                          digest, _):
    # any change to the arithmetic or to the random-stream layout moves
    # these digests; such a change must say why it moved them
    res = run_game_r(prover, params, trials, Rng(2024), sequential=sequential,
                     keep_transcripts=True)
    assert _transcript_digest(res) == digest


def test_rejection_sampler_reproduces_earlier_pins(monkeypatch):
    # the rejection sampler read floor(1.2 size) + 8 uniforms per draw where
    # inversion reads size, so e, drawn after s, moved; with it put back,
    # each moved pin comes back byte for byte and every other holds
    monkeypatch.setattr(lattice, "_noise_sampler", rejection_noise_sampler)
    for case in TRANSCRIPT_PINS:
        prover, params, trials, sequential, digest, _ = case.values
        res = run_game_r(prover, params, trials, Rng(2024),
                         sequential=sequential, keep_transcripts=True)
        assert _transcript_digest(res) == REJECTION_PINS.get(case.id, digest), \
            case.id


@pytest.mark.parametrize("prover, params, sequential", [
    (HonestProver(PARAMS), PARAMS, False),
    (HonestProver(desk_params(d=16, n=16)), desk_params(d=16, n=16), True),
    (TrapdoorLeakProver(PARAMS), PARAMS, True),
], ids=["honest-R-desk", "honest-Rseq-separation", "leak-Rseq-desk"])
def test_transcripts_do_not_depend_on_trials_or_blocks(prover, params,
                                                       sequential):
    # trial t draws only from its own streams, so its transcript is the same
    # whether the game stops before, at or after a block boundary
    block = protocol._BLOCK
    lines = {}
    for trials in (1, block - 1, block, block + 1, 2 * block + 3):
        res = run_game_r(prover, params, trials, Rng(77), sequential=sequential,
                         keep_transcripts=True)
        lines[trials] = [t.to_line() for t in res.transcripts]
    longest = lines[2 * block + 3]
    for trials, got in lines.items():
        assert got == longest[:trials]
    # and each trial is its one-trial round, whatever its row in the block
    rng, game = Rng(77), "Rseq" if sequential else "R"
    for t, line in enumerate(longest):
        x, y = j_sample_inputs(params.d, rng.stream("gameR/inputs", t))
        first = play_round(prover, params, x, rng, "gameR", t)
        preimages, a, committed, (e_flag,), (f_flag,) = \
            referee_first_assessment(
                [first], params, lambda i: rng.stream("gameR/referee", t))
        b = prover.answer(y[None], [first.mem], preimages, a,
                          lambda name: [rng.stream(f"gameR/{name}", t)],
                          sequential)
        (a,), (b,), (score,), (accepted,) = referee_score(
            x[None], y[None], a, committed, *check_bits(b, 1, params.d + 1))
        assert line == Transcript(
            game, t, x, y, a, b, first.w.values, first.bits, int(score),
            e_flag and accepted, f_flag and accepted,
            f"{rng.seed}:gameR:{t}").to_line()


class _FaultyProver(BlindProver):
    """A blind prover whose commitment at the listed trials is either moved
    3 tau off the lattice ('far', so both inversions fail) or one entry short
    ('short', malformed).  Trials are counted by first_response calls."""

    def __init__(self, params, faults):
        super().__init__(params)
        self.faults, self.calls = faults, 0

    def first_response(self, a, v, coins):
        w, ells, mem = super().first_response(a, v, coins)
        fault = self.faults.get(self.calls)
        self.calls += 1
        if fault == "far":
            w = ZqArray(w.q, w.values + 3 * self.params.tau)
        elif fault == "short":
            w = ZqArray(w.q, w.values[:-1])
        return w, ells, mem


def test_mid_block_failure_stays_local(monkeypatch):
    # one failing and one malformed commitment inside a block change only
    # their own trials: the failing one alone derives its fallback stream,
    # under its own index, and every other trial is its one-trial round
    # both faults sit in the second block, where a trial's row differs from
    # its index
    block = protocol._BLOCK
    d, far, short = PARAMS.d, block + 2, block + 5
    assert short < 2 * block
    derived = []
    stream = Rng.stream

    def recording_stream(self, name, index=0):
        derived.append((name, index))
        return stream(self, name, index)

    monkeypatch.setattr(Rng, "stream", recording_stream)
    prover = _FaultyProver(PARAMS, {far: "far", short: "short"})
    res = run_game_r(prover, PARAMS, 2 * block + 3, Rng(61),
                     keep_transcripts=True)
    assert [n for n in derived if n[0].endswith("/referee")] == \
        [("gameR/referee", far)]
    monkeypatch.setattr(Rng, "stream", stream)

    rng = Rng(61)
    lost = res.transcripts[short]
    assert lost.score == -1 and not lost.e_flag and not lost.f_flag
    assert len(lost.w) == 0 and lost.rescore() == -1
    fell = res.transcripts[far]
    assert not fell.e_flag and not fell.f_flag
    np.testing.assert_array_equal(
        fell.a, rng.stream("gameR/referee", far).integers(0, 2, size=d + 1))
    blind = BlindProver(PARAMS)
    for t, got in enumerate(res.transcripts):
        if t in (far, short):
            continue
        x, y = j_sample_inputs(d, rng.stream("gameR/inputs", t))
        first = play_round(blind, PARAMS, x, rng, "gameR", t)
        _, a, committed, (e_flag,), (f_flag,) = referee_first_assessment(
            [first], PARAMS, lambda i: rng.stream("gameR/referee", t))
        (a,), (b,), (score,), _ = referee_score(
            x[None], y[None], a, committed,
            *check_bits([blind.second_response(y, first.mem)], 1, d + 1))
        np.testing.assert_array_equal(got.a, a)
        np.testing.assert_array_equal(got.b, b)
        np.testing.assert_array_equal(got.w, first.w.values)
        assert (got.score, got.e_flag, got.f_flag) == (score, e_flag, f_flag)


def test_honest_game_memory_does_not_grow_with_trials():
    # a block holds one R and a fixed number of trials, so the peak of a
    # 64-trial game is that of an 8-trial one (64 stacked R would be 98 MB)
    params = desk_params(d=16, n=16)
    run_game_r("honest", params, 1, Rng(0))   # per-Params caches built outside
    peaks = {}
    for trials in (8, 64):
        tracemalloc.start()
        try:
            run_game_r("honest", params, trials, Rng(5))
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.25 * peaks[8]


def _integers_draw(rng, rows, cols):
    """R as it was drawn before the byte draw: int64 from integers(-1, 2),
    then cast to float64."""
    return rng.integers(-1, 2, size=(rows, cols),
                        dtype=np.int64).astype(np.float64)


def test_seedsequence_stream_reproduces_earlier_pins(monkeypatch, tmp_path):
    # keying streams straight from their digest moved every pin of this
    # module; with the SeedSequence derivation put back, each earlier digest
    # and report comes back byte for byte, so nothing but the derivation
    # moved them (with the noise drawn by rejection and the per-prefix coin
    # rule, as they were then)
    monkeypatch.setattr(Rng, "stream", seedsequence_stream)
    monkeypatch.setattr(lattice, "_noise_sampler", rejection_noise_sampler)
    monkeypatch.setattr(provers, "_coin_bits", sha_coin_bits)
    for case in TRANSCRIPT_PINS:
        prover, params, trials, sequential, _, earlier = case.values
        res = run_game_r(prover, params, trials, Rng(2024),
                         sequential=sequential, keep_transcripts=True)
        assert _transcript_digest(res) == earlier, case.id
    for case in EXPERIMENT_S_PINS:
        which, prover_cls, _, earlier = case.values
        got = run_experiment_s(which, prover_cls(PARAMS), PARAMS, 40,
                               Rng(2024))
        assert dataclasses.astuple(got) == earlier, case.id
    # with the integers draw of R put back as well (gen_trap as the oracle
    # drawing R whole through it), the three honest pins from before the
    # byte draw come back, so nothing but the draw of R moved them then
    monkeypatch.setattr(lattice, "gen_trap", lambda params, rng:
                        gen_trap_oracle(params, rng, _integers_draw))
    res = run_game_r("honest", PARAMS, 20, Rng(2024), keep_transcripts=True)
    assert _transcript_digest(res) == \
        "3f2d3090f6bac7b5c684b87fddc0813acf929cc6544871b2539b8fb322232015"
    res = run_game_r("honest", desk_params(d=16, n=16), 4, Rng(2024),
                     sequential=True, keep_transcripts=True)
    assert _transcript_digest(res) == \
        "713ea1eff0a2beb746079d4a1e445e49c1836cfbe771a60a284c63fc8d85de51"
    assert main(["run", "--game", "R", "--prover", "honest", "--trials", "24",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "R_honest_seed5.transcripts").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "efaf8da59120757fceeec67157834546e9ff7d811d83ba9e884764c988e414f7"


def test_honest_round_carries_the_referee_assessment():
    # the preimages the referee returns are what it would decode from
    # (w, record, params), and what invert gives for each shift, with the
    # record rebuilt from its stream
    rng = Rng(29)
    q, tau = PARAMS.q, PARAMS.tau
    for t in range(40):
        inp = rng.stream("gameR/inputs", t)
        x = np.append(inp.integers(0, 2, size=PARAMS.d), 1)
        first = play_round(HonestProver(PARAMS), PARAMS, x, rng, "gameR", t)
        record = round_record(x, PARAMS, rng, "gameR", t)
        preimages, *_ = referee_first_assessment(
            [first], PARAMS, lambda i: rng.stream("gameR/referee", t))
        fresh = decode_preimages(commitment_shifts(first.w, record, PARAMS),
                                 PARAMS)
        for got, want in zip(preimages, fresh):
            np.testing.assert_array_equal(got[0], want)
        a_mat = record.a
        for k, target in enumerate([first.w, zq_add(first.w, record.v)]):
            s = invert(a_mat, record.trapdoor, target, PARAMS)
            assert preimages.inverted[0, k] == (s is not None)
            if s is not None:
                np.testing.assert_array_equal(preimages.z[0, k], s)
                residual = target.values - matmul_mod(a_mat.values, s, q)
                assert preimages.in_box[0, k] == (norminf(residual, q) <= tau)


def test_no_record_outlives_its_trial(monkeypatch):
    # the encryption record, and its trapdoor R with it, dies inside
    # play_round: none is live when the referee assesses a block of the game
    # or while experiment E rewinds the prover
    refs = []   # the frozen record hashes its arrays, so no WeakSet
    encrypt = protocol.encrypt

    def tracked(*args, **kwargs):
        record = encrypt(*args, **kwargs)
        refs.append(weakref.ref(record))
        return record

    live = []

    def counting(name, original):
        def counted(*args, **kwargs):
            gc.collect()
            live.append((name, sum(ref() is not None for ref in refs)))
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(protocol, "encrypt", tracked)
    monkeypatch.setattr(protocol, "referee_first_assessment",
                        counting("referee", protocol.referee_first_assessment))
    monkeypatch.setattr(attack, "rewind", counting("rewind", attack.rewind))
    run_game_r("honest", PARAMS, 20, Rng(3))
    assert len(refs) == 20
    report = experiment_e_campaign(BlindProver(PARAMS), PARAMS, 6, Rng(4))
    assert len(refs) == 20 + report.reps_real and report.reps_real > 0
    assert [name for name, _ in live] == ["referee"] * 3 + ["rewind"] * 6
    assert [entry for entry in live if entry[1]] == []


def test_no_trapdoor_outlives_its_round(monkeypatch):
    # the key-leak prover is handed each trial's trapdoor and drops it once
    # it has committed: no key is live after the game returns, nor while
    # experiment E rewinds the prover
    refs = []   # the frozen key hashes its arrays, so no WeakSet
    gen_trap = lattice.gen_trap

    def tracked(*args, **kwargs):
        a, key = gen_trap(*args, **kwargs)
        refs.append(weakref.ref(key))
        return a, key

    def live():
        gc.collect()
        return sum(ref() is not None for ref in refs)

    monkeypatch.setattr(lattice, "gen_trap", tracked)
    prover = TrapdoorLeakProver(PARAMS)
    assert run_game_r(prover, PARAMS, 10, Rng(3)).stats.mean == 1.0
    assert len(refs) == 10 and live() == 0 and prover.leak is None
    during = []
    rewind = attack.rewind

    def counted(*args, **kwargs):
        during.append(live())
        return rewind(*args, **kwargs)

    monkeypatch.setattr(attack, "rewind", counted)
    report = experiment_e_campaign(TrapdoorLeakProver(PARAMS), PARAMS, 6,
                                   Rng(4))
    assert len(refs) == 10 + report.reps_real and report.reps_real > 0
    assert report.mean_r_real == 1.0 and during == [0] * 6


@pytest.mark.parametrize("prover, names", [
    (HonestProver(PARAMS), ("inputs", "encrypt", "prover", "prover2")),
    (BlindProver(PARAMS), ("inputs", "encrypt", "coins")),
], ids=["honest", "blind"])
def test_hooks_derive_only_the_streams_they_read(monkeypatch, prover, names):
    # streams are handed to the hooks unevaluated, so each trial derives
    # exactly the streams its prover reads, each once
    derived = []
    stream = Rng.stream

    def recording_stream(self, name, index=0):
        derived.append((name, index))
        return stream(self, name, index)

    monkeypatch.setattr(Rng, "stream", recording_stream)
    run_game_r(prover, PARAMS, protocol._BLOCK + 3, Rng(5))
    assert Counter(derived) == Counter(
        (f"gameR/{name}", t) for name in names
        for t in range(protocol._BLOCK + 3))


def _no_fallback(i):
    raise AssertionError(f"row {i} of an honest block failed to invert")


@pytest.mark.parametrize("params", [PARAMS, desk_params(d=16, n=16)],
                         ids=["desk", "separation"])
def test_honest_claws_read_off_the_assessment_are_the_provers_own(params):
    # on every trial of honest blocks, the claws read off the referee's
    # assessment are the ones the prover derives by decoding its own
    # commitment, and no inversion fails (residuals within tau and 2 tau)
    rng = Rng(83)
    block = protocol._BLOCK
    for start in (0, block):
        firsts = []
        for t in range(start, start + block):
            x, _ = j_sample_inputs(params.d, rng.stream("gameR/inputs", t))
            firsts.append(play_round(HonestProver(params), params, x, rng,
                                     "gameR", t))
        preimages, a, committed, _, _ = referee_first_assessment(
            firsts, params, _no_fallback)
        assert committed.all()
        np.testing.assert_array_equal(
            preimages.in_box,
            [decode_preimages(first.shifts, params).in_box for first in firsts])
        got = honest_first_round(preimages, a, params)
        want = honest_first_round_oracle(firsts, params)
        for name, got_col, want_col in zip(("branch0", "branch1", "phase"),
                                           got, want):
            np.testing.assert_array_equal(got_col, want_col, err_msg=name)


def test_one_decode_per_block(monkeypatch):
    # 20 honest trials are 3 blocks: the referee decodes and builds answer
    # strings once per block, and the honest prover's answer hook reads each
    # block's claws once; the benchmark's per-layer spans count these names
    assert -(-20 // protocol._BLOCK) == 3
    modules = {"referee_first_assessment": protocol,
               "honest_first_round": quantum, "honest_second_round": quantum,
               "decode_preimages": protocol, "round_one_answer": protocol}
    calls = dict.fromkeys(modules, 0)
    for name, module in modules.items():
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run_game_r("honest", PARAMS, 20, Rng(3))
    assert calls == dict.fromkeys(modules, 3)


def test_blind_prover_scores_like_all_zero_strategy():
    # with w = 0 the referee always derives a = 0, so the expected score is
    # the all-zero-strategy value; at d = 4 that is exactly -0.265625
    d = PARAMS.d
    import itertools
    total = 0
    for xb in itertools.product((0, 1), repeat=d):
        for yb in itertools.product((0, 1), repeat=d):
            x = np.append(xb, 1).astype(np.int64)
            y = np.append(yb, 1).astype(np.int64)
            total += 1 if int((x * y).sum()) % 4 in (0, 1) else -1
    exact = total / 4 ** d
    res = run_game_r(BlindProver(PARAMS), PARAMS, 1200, Rng(17))
    assert abs(res.stats.mean - exact) <= 4 * res.stats.stderr
    ceiling = 2 * (3 / 4) ** (d / 4)
    assert abs(res.stats.mean) <= ceiling + 4 * res.stats.stderr


def test_leak_prover_wins_exactly():
    res = run_game_r(TrapdoorLeakProver(PARAMS), PARAMS, 300, Rng(19))
    assert res.stats.mean == 1.0
    res_seq = run_game_r(TrapdoorLeakProver(PARAMS), PARAMS, 100, Rng(20),
                         sequential=True)
    assert res_seq.stats.mean == 1.0


class _GarbageProver(BlindProver):
    """Commits to a vector far from the lattice so both inversions fail."""

    def first_response(self, a, v, coins):
        w, ells, mem = super().first_response(a, v, coins)
        vals = w.values.copy()
        vals[::2] = self.params.q // 3
        vals[1::2] = 2 * self.params.q // 3
        from poqlab.lattice import ZqArray
        return ZqArray(self.params.q, vals), ells, mem


def test_referee_samples_answer_on_inversion_failure():
    res = run_game_r(_GarbageProver(PARAMS), PARAMS, 200, Rng(43),
                     keep_transcripts=True)
    assert all(not t.e_flag and not t.f_flag for t in res.transcripts)
    # the fallback answer string is uniform, so the final bit is a fair coin
    final_bits = np.array([t.a[-1] for t in res.transcripts])
    assert 0.3 < final_bits.mean() < 0.7
    assert abs(res.stats.mean) <= 0.3  # no better than chance play


@pytest.mark.parametrize("label, play", [
    ("gameR/referee", lambda prover, rng: run_game_r(prover, PARAMS, 6, rng)),
    ("sexp/referee",
     lambda prover, rng: run_experiment_s(1, prover, PARAMS, 6, rng)),
], ids=["gameR", "sexp"])
def test_referee_derives_its_fallback_stream_only_on_failure(monkeypatch,
                                                             label, play):
    # the fallback stream is read only when an inversion fails, so it is
    # derived only then, under the trial's label and index
    derived = []
    stream = Rng.stream

    def recording_stream(self, name, index=0):
        derived.append((name, index))
        return stream(self, name, index)

    monkeypatch.setattr(Rng, "stream", recording_stream)
    play(BlindProver(PARAMS), Rng(43))
    assert not [name for name, _ in derived if name.endswith("/referee")]
    derived.clear()
    play(_GarbageProver(PARAMS), Rng(43))
    assert [d for d in derived if d[0].endswith("/referee")] == \
        [(label, t) for t in range(6)]


# --- the round engine -------------------------------------------------------------

class _AdviceRecorder(TrapdoorLeakProver):
    def first_response(self, a, v, coins):
        self.advice = (a, v, self.leak)
        return super().first_response(a, v, coins)


def test_play_round_arms():
    from scipy.stats import chisquare
    prover = _AdviceRecorder(PARAMS)
    x = np.array([1, 0, 1, 1, 1], dtype=np.uint8)
    # the uniform arm: no encryption, no key, uniform A
    first = play_round(prover, PARAMS, x, Rng(5), "test", 0, real=False)
    a, v, leak = prover.advice
    assert first.shifts is None and leak is None
    assert a.shape == (PARAMS.m, PARAMS.n) and v.shape == (PARAMS.m,)
    bins = np.histogram(a.values.reshape(-1), bins=16, range=(0, PARAMS.q))[0]
    assert chisquare(bins).pvalue > 1e-3
    # the real arm: the prover sees the ciphertext and, here, its trapdoor
    first = play_round(prover, PARAMS, x, Rng(5), "test", 0)
    a, v, leak = prover.advice
    record = round_record(x, PARAMS, Rng(5), "test", 0)
    np.testing.assert_array_equal(a.values, record.a.values)
    np.testing.assert_array_equal(v.values, record.v.values)
    np.testing.assert_array_equal(leak.r, record.trapdoor.r)
    np.testing.assert_array_equal(first.shifts.gamma, record.gamma)


# --- a total referee --------------------------------------------------------------

ROUND_ONE_BITS = PARAMS.n * PARAMS.Q - PARAMS.d


def _commitment(kind: str, seed: int):
    q, m = PARAMS.q, PARAMS.m
    gen = np.random.default_rng(seed)
    return {
        "zero": ZqArray(q, np.zeros(m, dtype=np.int64)),
        "random": ZqArray(q, gen.integers(0, q, size=m)),
        "short": ZqArray(q, np.zeros(m - 1, dtype=np.int64)),
        "long": ZqArray(q, np.zeros(m + 1, dtype=np.int64)),
        "other-modulus": ZqArray(q + 2, np.zeros(m, dtype=np.int64)),
        "plain-array": np.zeros(m, dtype=np.int64),
        "none": None,
    }[kind]


_ENTRY = st.one_of(st.sampled_from([0, 1]), st.booleans(),
                   st.integers(-2 ** 70, 2 ** 70), st.floats(), st.none())


@st.composite
def _message(draw, length: int):
    """length random bits, as a list or an array of some dtype, or corrupted:
    one entry replaced by an arbitrary value, or one entry too few or many."""
    seed = draw(st.integers(0, 2 ** 32))
    bits = np.random.default_rng(seed).integers(0, 2, size=length).tolist()
    how = draw(st.sampled_from(["list", "array", "entry", "short", "long"]))
    if how == "array":
        return np.array(bits, dtype=draw(st.sampled_from(
            [np.uint8, np.int64, np.bool_, np.float64])))
    if how == "entry":
        bits[draw(st.integers(0, length - 1))] = draw(_ENTRY)
    elif how == "short":
        bits.pop()
    elif how == "long":
        bits.append(draw(_ENTRY))
    return bits


def _are_bits(message, length: int) -> bool:
    """Well formed: `length` integer or boolean entries, each 0 or 1."""
    values = list(message)
    return len(values) == length and all(
        isinstance(v, (int, np.integer, np.bool_)) and v in (0, 1)
        for v in values)


class _FuzzProver(ClassicalProver):
    """Replays fixed, possibly malformed messages.  Round two comes whole
    from second_response when `whole`, else through respond_bit, which
    answers every prefix of level j with answers[j], packed into its column
    as `packing` says: one entry per prefix, a bare entry, one entry too
    many, float zeros, ragged data, or an object array of the entries."""

    def __init__(self, w, ells, answers, packing, whole):
        self.w, self.ells, self.answers = w, ells, answers
        self.packing, self.whole = packing, whole

    def first_response(self, a, v, coins):
        return self.w, self.ells, None

    def respond_bit(self, j, prefixes, mem):
        entry, k = self.answers[j], len(prefixes)
        return {"column": [entry] * k, "bare": entry,
                "extra": [entry] * (k + 1), "floats": np.zeros(k),
                "ragged": [[entry, 0]] + [entry] * (k - 1),
                "objects": np.array([entry] * k, dtype=object)}[self.packing]

    def second_response(self, y, mem):
        if self.whole:
            return self.answers
        return super().second_response(y, mem)


class _InputsPeekingProver(BlindProver):
    """Commits to zero, reads each trial's x off the referee's inputs
    stream and answers so that every trial scores +1."""

    def answer(self, ys, mems, preimages, a, streams, sequential):
        answers = []
        for gen, y, a_row in zip(streams("inputs"), ys, a):
            x, _ = j_sample_inputs(self.params.d, gen)
            b = np.zeros(len(y), dtype=np.uint8)
            b[-1] = j_score(x, y, a_row, b) == -1
            answers.append(b)
        return answers


class _PeekingProver(BlindProver):
    """Derives the stream `name` through the streams callback of one hook."""

    def __init__(self, params, name, hook):
        super().__init__(params)
        self.name, self.hook = name, hook

    def commit(self, a, v, streams, trapdoor):
        if self.hook == "commit":
            streams(self.name)
        return super().commit(a, v, streams, trapdoor)

    def answer(self, ys, mems, preimages, a, streams, sequential):
        if self.hook == "answer":
            streams(self.name)
        return super().answer(ys, mems, preimages, a, streams, sequential)


@pytest.mark.parametrize("sequential", [False, True])
def test_a_prover_reading_x_off_the_inputs_stream_is_refused(monkeypatch,
                                                             sequential):
    # the peek wins every trial when the callback hands out the stream
    prover = _InputsPeekingProver(PARAMS)
    with pytest.raises(ValueError, match="got 'inputs'"):
        run_game_r(prover, PARAMS, 24, Rng(7), sequential=sequential)
    monkeypatch.setattr(protocol, "_prover_stream", lambda name: name)
    res = run_game_r(prover, PARAMS, 24, Rng(7), sequential=sequential)
    assert res.stats.mean == 1.0


@pytest.mark.parametrize("name", sorted(protocol.REFEREE_STREAMS))
def test_no_hook_derives_a_referee_stream(name):
    for hook in ("commit", "answer"):
        for sequential in (False, True):
            with pytest.raises(ValueError, match=f"got {name!r}$"):
                run_game_r(_PeekingProver(PARAMS, name, hook), PARAMS, 2,
                           Rng(7), sequential=sequential)
    with pytest.raises(ValueError, match=f"got {name!r}$"):
        attack.experiment_e(_PeekingProver(PARAMS, name, "commit"), PARAMS,
                            Rng(7), 0)


def test_hooks_derive_streams_of_their_own():
    # any other str is the prover's; a name that is not a str is refused
    for hook in ("commit", "answer"):
        res = run_game_r(_PeekingProver(PARAMS, "mine", hook), PARAMS, 2,
                         Rng(7))
        assert res.stats.trials == 2
    with pytest.raises(ValueError, match=r"got \('inputs',\)$"):
        run_game_r(_PeekingProver(PARAMS, ("inputs",), "commit"), PARAMS, 2,
                   Rng(7))


@pytest.mark.parametrize("packing", ["column", "bare", "extra", "floats",
                                     "ragged", "objects"])
@pytest.mark.parametrize("entry", [0, 1, 2])
def test_referee_and_answer_table_share_the_message_gate(packing, entry):
    # two distinct prefixes at each level, so each column has two entries;
    # a column that fails the shared gate is rejected by the referee and
    # answers -1 in answer_table
    prover = _FuzzProver(None, None, [entry, entry], packing, whole=False)
    questions = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    table = answer_table(prover, questions, None)
    assert table.dtype == np.int64
    for j in range(2):
        column = prover.respond_bit(j, questions[:, :j + 1], None)
        bits, ok = check_bits([column], 1, 2)
        if packing == "column":
            # integers pass the gate; only the referee asks for bits
            assert (table[:, j] == entry).all() and ok[0] == (entry < 2)
        else:
            assert (table[:, j] == -1).all() and not ok[0]
            np.testing.assert_array_equal(bits, np.zeros((1, 2)))


@settings(max_examples=150, deadline=None)
@given(w_kind=st.sampled_from(["zero", "random", "short", "long",
                               "other-modulus", "plain-array", "none"]),
       w_seed=st.integers(0, 2 ** 32), ells=_message(ROUND_ONE_BITS),
       answers=_message(PARAMS.d + 1), sequential=st.booleans(),
       packing=st.sampled_from(["column", "bare", "extra", "floats",
                                "ragged"]),
       whole=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_referee_is_total(w_kind, w_seed, ells, answers, sequential, packing,
                          whole, seed):
    d = PARAMS.d
    whole = whole and not sequential   # Rseq always asks respond_bit
    if not whole:   # respond_bit is asked for each of the d + 1 bits
        answers = (list(answers) + [0] * (d + 1))[:d + 1]
    prover = _FuzzProver(_commitment(w_kind, w_seed), ells, answers, packing,
                         whole)
    res = run_game_r(prover, PARAMS, 1, Rng(seed), sequential=sequential,
                     keep_transcripts=True)
    t = res.transcripts[0]
    answers_ok = _are_bits(answers, d + 1) and (whole or packing == "column")
    well_formed = (w_kind in ("zero", "random")
                   and _are_bits(ells, ROUND_ONE_BITS) and answers_ok)
    if not well_formed:
        assert t.score == -1 and not t.e_flag and not t.f_flag
    else:
        np.testing.assert_array_equal(t.b, np.asarray(answers, dtype=np.uint8))
    assert t.rescore() == t.score == res.stats.mean
    line = t.to_line()
    back = Transcript.from_line(line)
    assert back.to_line() == line
    for key in ("x", "y", "a", "b", "w", "ells"):
        np.testing.assert_array_equal(getattr(back, key), getattr(t, key))
    if not whole:
        # rewound, every question loses to a malformed answer column
        ys, bs = rewind(prover, None, d)
        score, _ = best_score(t.x, ys, bs)
        assert score == best_score_oracle(t.x, list(zip(ys, bs)))
        assert score == -1.0 or answers_ok


def test_malformed_messages_lose_every_trial():
    # a key-leak prover that could otherwise win every trial
    class Five(TrapdoorLeakProver):
        def respond_bit(self, j, prefixes, mem):
            bits = super().respond_bit(j, prefixes, mem)
            return np.full(len(prefixes), 5) if j == self.params.d else bits

    class Sevens(TrapdoorLeakProver):
        def first_response(self, a, v, coins):
            w, ells, mem = super().first_response(a, v, coins)
            return w, ells + 7, mem

    class Short(TrapdoorLeakProver):
        def first_response(self, a, v, coins):
            w, ells, mem = super().first_response(a, v, coins)
            return ZqArray(w.q, w.values[:-1]), ells, mem

    for prover in (Five(PARAMS), Sevens(PARAMS), Short(PARAMS)):
        res = run_game_r(prover, PARAMS, 3, Rng(1), sequential=True,
                         keep_transcripts=True)
        assert [t.score for t in res.transcripts] == [-1, -1, -1]
        assert [t.rescore() for t in res.transcripts] == [-1, -1, -1]
        assert res.e_rate == res.f_rate == 0.0


class _MisshapenHooks:
    """A key-leak prover whose hooks return the wrong shape in the first
    block: an answer block one answer short or long, None, a bare int or a
    generator (of the right length, so well formed), or a commit that
    returns the pair (w, ells) at trial 3."""

    def __init__(self, params, shape):
        self.leak, self.shape = TrapdoorLeakProver(params), shape
        self.commits = self.blocks = 0

    def commit(self, a, v, streams, trapdoor):
        message = self.leak.commit(a, v, streams, trapdoor)
        self.commits += 1
        return message[:2] if self.shape == "pair" and self.commits == 4 else message

    def answer(self, ys, mems, preimages, a, streams, sequential):
        self.blocks += 1
        b = [np.zeros(len(y), dtype=np.int64) if mem is None
             else self.leak.second_response(y, mem) for y, mem in zip(ys, mems)]
        if self.blocks > 1:
            return b
        return {"short": b[:-1], "long": b + b[:1], "none": None, "scalar": 1,
                "generator": (row for row in b), "pair": b}[self.shape]


@pytest.mark.parametrize("shape, lost", [
    ("short", range(8)), ("long", range(8)), ("none", range(8)),
    ("scalar", range(8)), ("generator", []), ("pair", [3]),
], ids=["short", "long", "none", "scalar", "generator", "pair"])
def test_misshapen_hook_returns_lose_their_trials(shape, lost):
    # ten trials are two blocks; an answer block that is not one answer per
    # trial loses its whole block, and every other trial plays as the
    # well-behaved prover's does
    assert protocol._BLOCK == 8
    res = run_game_r(_MisshapenHooks(PARAMS, shape), PARAMS, 10, Rng(29),
                     keep_transcripts=True)
    plain = run_game_r(TrapdoorLeakProver(PARAMS), PARAMS, 10, Rng(29),
                       keep_transcripts=True)
    for t, (got, want) in enumerate(zip(res.transcripts, plain.transcripts)):
        if t in lost:
            assert got.score == -1 and not got.e_flag and not got.f_flag
            assert got.rescore() == -1
        else:
            assert got.to_line() == want.to_line()
        assert Transcript.from_line(got.to_line()).to_line() == got.to_line()
    assert res.stats.mean == np.mean([t.score for t in res.transcripts])


def test_sequential_matches_one_shot_for_time_ordered_provers():
    # built-in provers derive full answers from per-bit answers, so both modes
    # produce identical transcripts under the same seed
    blind = BlindProver(PARAMS)
    r1 = run_game_r(blind, PARAMS, 30, Rng(23), sequential=False,
                    keep_transcripts=True)
    r2 = run_game_r(blind, PARAMS, 30, Rng(23), sequential=True,
                    keep_transcripts=True)
    assert [t.score for t in r1.transcripts] == [t.score for t in r2.transcripts]


# --- experiments ----------------------------------------------------------------

def test_s1_matches_game_r_distribution():
    blind = BlindProver(PARAMS)
    game = run_game_r(blind, PARAMS, 600, Rng(29))
    s1 = run_experiment_s(1, blind, PARAMS, 600, Rng(29))
    gap = abs(game.stats.mean - s1.mean)
    combined = np.hypot(game.stats.stderr, s1.stderr)
    assert gap <= 3.5 * combined


def test_s2_beats_s1_on_matched_seeds():
    for prover_cls in (BlindProver, TrapdoorLeakProver):
        prover = prover_cls(PARAMS)
        s1 = run_experiment_s(1, prover, PARAMS, 250, Rng(31))
        s2 = run_experiment_s(2, prover_cls(PARAMS), PARAMS, 250, Rng(31))
        assert s2.mean >= s1.mean - 2 * s1.stderr


def test_s3_equals_s2_for_ciphertext_blind_prover():
    blind = BlindProver(PARAMS)
    s2 = run_experiment_s(2, blind, PARAMS, 150, Rng(37))
    s3 = run_experiment_s(3, blind, PARAMS, 150, Rng(37))
    assert s2 == s3  # identical trial-by-trial: the prover never reads (A, v)


def test_s3_collapses_leak_prover():
    leak = TrapdoorLeakProver(PARAMS)
    s2 = run_experiment_s(2, leak, PARAMS, 250, Rng(41))
    s3 = run_experiment_s(3, TrapdoorLeakProver(PARAMS), PARAMS, 250, Rng(41))
    assert s2.mean >= 0.95
    assert s3.mean <= 0.70


# each case: the experiment, its report, and the report it gave before
# streams were keyed straight from their SHA-256 digest
EXPERIMENT_S_PINS = [
    pytest.param(1, BlindProver,
                 (40, -0.35, 0.15, -0.6439999999999999, -0.055999999999999994),
                 (40, -0.2, 0.15689290811054724, -0.5075100998966726,
                  0.10751009989667254), id="s1-blind"),
    pytest.param(1, TrapdoorLeakProver, (40, 1.0, 0.0, 1.0, 1.0),
                 (40, 1.0, 0.0, 1.0, 1.0), id="s1-leak"),
    pytest.param(2, BlindProver,
                 (40, 0.6, 0.12810252304406972, 0.34891905483362334,
                  0.8510809451663766),
                 (40, 0.75, 0.10591481821704042, 0.5424069562946008,
                  0.9575930437053992), id="s2-blind"),
    pytest.param(2, TrapdoorLeakProver, (40, 1.0, 0.0, 1.0, 1.0),
                 (40, 1.0, 0.0, 1.0, 1.0), id="s2-leak"),
    pytest.param(3, BlindProver,
                 (40, 0.6, 0.12810252304406972, 0.34891905483362334,
                  0.8510809451663766),
                 (40, 0.75, 0.10591481821704042, 0.5424069562946008,
                  0.9575930437053992), id="s3-blind"),
    pytest.param(3, TrapdoorLeakProver,
                 (40, 0.35, 0.15, 0.055999999999999994, 0.6439999999999999),
                 (40, 0.5, 0.13867504905630726, 0.22819690384963776,
                  0.7718030961503622), id="s3-leak"),
]

# the pins that hashing each coin level once moved, each with the report it
# had under the per-prefix SHA-256 rule (see
# test_sha_coin_bits_reproduce_earlier_pins)
SHA_COIN_PINS = {
    "s3-leak": (40, 0.25, 0.15504341823651058, -0.053885099743560705,
                0.5538850997435607),
}


@pytest.mark.parametrize("which, prover_cls, stats, _", EXPERIMENT_S_PINS)
def test_experiment_s_pinned_at_fixed_seed(which, prover_cls, stats, _):
    # pins the stream layout of the share-the-prover experiments
    got = run_experiment_s(which, prover_cls(PARAMS), PARAMS, 40, Rng(2024))
    assert dataclasses.astuple(got) == stats


def test_sha_coin_bits_reproduce_earlier_pins(monkeypatch):
    # with the per-prefix SHA-256 coin rule put back, the moved pin comes
    # back byte for byte and the others hold, so the coin rule alone moved it
    monkeypatch.setattr(provers, "_coin_bits", sha_coin_bits)
    for case in EXPERIMENT_S_PINS:
        which, prover_cls, stats, _ = case.values
        got = run_experiment_s(which, prover_cls(PARAMS), PARAMS, 40,
                               Rng(2024))
        assert dataclasses.astuple(got) == SHA_COIN_PINS.get(case.id, stats), \
            case.id


def test_rewind_budget_enforced():
    big = desk_params(d=8, n=16)
    assert big.d == 8
    wide = desk_params(n=16, q=134_217_689, d=15, sigma=0.35)
    with pytest.raises(ValueError):
        run_experiment_s(2, BlindProver(wide), wide, 1, Rng(0))
