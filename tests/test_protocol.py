import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poqlab import lattice, protocol
from poqlab.attack import best_score, rewind, run_experiment_s
from poqlab.cli import main
from poqlab.core import Rng, derive_params, desk_params, matmul_mod, norminf
from poqlab.lattice import ZqArray, commitment_shifts, decode_preimages, invert
from poqlab.games import j_sample_inputs
from poqlab.protocol import (ScoreStats, Transcript, check_bits, play_round,
                             referee_first_assessment, referee_score,
                             run_game_j, run_game_r)
from poqlab.provers import (BlindProver, ClassicalProver, TrapdoorLeakProver,
                            answer_table)
from poqlab.quantum import honest_second_round

from oracles import best_score_oracle

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


def test_game_r_rejects_bad_params():
    bad = derive_params(lam=4)
    with pytest.raises(ValueError):
        run_game_r("honest", bad, 10, Rng(0))


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


@pytest.mark.parametrize("prover, params, trials, sequential, digest", [
    ("honest", PARAMS, 20, False,
     "8cbe550ceae4da4e2f4edfadecf57d562d253ef54088e2ea0d5fcc29c76a4c5b"),
    ("honest", desk_params(d=16, n=16), 4, True,
     "a5eb58aff59a0b13c402289fa03700debbb15929c6b8987474322bd79be98a10"),
    (TrapdoorLeakProver(PARAMS), PARAMS, 20, True,
     "9e9bb4429057193ce89292067fd0bd4fea4f77d55e939eda8a9a7cdc60249064"),
], ids=["honest-R-desk", "honest-Rseq-separation", "leak-Rseq-desk"])
def test_transcripts_pinned_at_fixed_seed(prover, params, trials, sequential,
                                          digest):
    # any change to the arithmetic or to the random-stream layout moves
    # these digests; such a change must say why it moved them
    res = run_game_r(prover, params, trials, Rng(2024), sequential=sequential,
                     keep_transcripts=True)
    assert _transcript_digest(res) == digest


@pytest.mark.parametrize("prover, params, sequential", [
    ("honest", PARAMS, False),
    ("honest", desk_params(d=16, n=16), True),
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
        honest = prover == "honest"
        a, committed, (e_flag,), (f_flag,) = referee_first_assessment(
            [first], params, lambda i: rng.stream("gameR/referee", t),
            first.mem.preimages if honest else None)
        b = (honest_second_round(first.mem, y[None],
                                 [rng.stream("gameR/prover2", t)])
             if honest else answer_table(prover, y[None], first.mem))
        (a,), (b,), (score,), (accepted,) = referee_score(
            x[None], y[None], a, committed, *check_bits(b, 1, params.d + 1))
        assert line == Transcript(
            game, t, x, y, a, b, first.w.values, first.ells, int(score),
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
        a, committed, (e_flag,), (f_flag,) = referee_first_assessment(
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


def test_integers_draw_reproduces_earlier_honest_pins(monkeypatch, tmp_path):
    # the byte draw of R moved the three honest pins; with the integers draw
    # put back, all three give their earlier digests byte for byte, so
    # nothing but the draw of R moved them
    monkeypatch.setattr(lattice, "_ternary_draw", _integers_draw)
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
    # the preimages the prover hands the referee are exactly what the referee
    # would compute from (w, record, params), and what invert gives for each
    # shift, and so is its verdict
    rng = Rng(29)
    q, tau = PARAMS.q, PARAMS.tau
    for t in range(40):
        inp = rng.stream("gameR/inputs", t)
        x = np.append(inp.integers(0, 2, size=PARAMS.d), 1)
        first = play_round("honest", PARAMS, x, rng, "gameR", t)
        record = first.record
        fresh = decode_preimages(commitment_shifts(first.w, record, PARAMS),
                                 PARAMS)
        for got, want in zip(first.mem.preimages, fresh):
            np.testing.assert_array_equal(got[0], want)
        a_mat = record.ciphertext.a
        for k, target in enumerate([first.w, first.w + record.ciphertext.v]):
            s = invert(a_mat, record.trapdoor, target, PARAMS)
            assert fresh.inverted[k] == (s is not None)
            if s is not None:
                np.testing.assert_array_equal(fresh.z[k], s)
                residual = target.values - matmul_mod(a_mat.values, s, q)
                assert fresh.in_box[k] == (norminf(residual, q) <= tau)

        def fallback(i):
            return rng.stream("gameR/referee", t)

        shared = referee_first_assessment([first], PARAMS, fallback,
                                          first.mem.preimages)
        recomputed = referee_first_assessment([first], PARAMS, fallback)
        for got, want in zip(shared, recomputed):
            np.testing.assert_array_equal(got, want)


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
    assert first.record is None and leak is None
    assert a.shape == (PARAMS.m, PARAMS.n) and v.shape == (PARAMS.m,)
    bins = np.histogram(a.values.reshape(-1), bins=16, range=(0, PARAMS.q))[0]
    assert chisquare(bins).pvalue > 1e-3
    # the real arm: the prover sees the ciphertext and, here, its trapdoor
    first = play_round(prover, PARAMS, x, Rng(5), "test", 0)
    a, v, leak = prover.advice
    assert a is first.record.ciphertext.a and v is first.record.ciphertext.v
    assert leak is first.record.trapdoor
    np.testing.assert_array_equal(first.record.message, x[:PARAMS.d])


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
    many, float zeros, or ragged data."""

    def __init__(self, w, ells, answers, packing, whole):
        self.w, self.ells, self.answers = w, ells, answers
        self.packing, self.whole = packing, whole

    def first_response(self, a, v, coins):
        return self.w, self.ells, None

    def respond_bit(self, j, prefixes, mem):
        entry, k = self.answers[j], len(prefixes)
        return {"column": [entry] * k, "bare": entry,
                "extra": [entry] * (k + 1), "floats": np.zeros(k),
                "ragged": [[entry, 0]] + [entry] * (k - 1)}[self.packing]

    def second_response(self, y, mem):
        if self.whole:
            return self.answers
        return super().second_response(y, mem)


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
        score = best_score(t.x, ys, bs)
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


@pytest.mark.parametrize("which, prover_cls, stats", [
    (1, BlindProver, (40, -0.2, 0.15689290811054724, -0.5075100998966726,
                      0.10751009989667254)),
    (1, TrapdoorLeakProver, (40, 1.0, 0.0, 1.0, 1.0)),
    (2, BlindProver, (40, 0.75, 0.10591481821704042, 0.5424069562946008,
                      0.9575930437053992)),
    (2, TrapdoorLeakProver, (40, 1.0, 0.0, 1.0, 1.0)),
    (3, BlindProver, (40, 0.75, 0.10591481821704042, 0.5424069562946008,
                      0.9575930437053992)),
    (3, TrapdoorLeakProver, (40, 0.5, 0.13867504905630726,
                             0.22819690384963776, 0.7718030961503622)),
], ids=["s1-blind", "s1-leak", "s2-blind", "s2-leak", "s3-blind", "s3-leak"])
def test_experiment_s_pinned_at_fixed_seed(which, prover_cls, stats):
    # pins the stream layout of the share-the-prover experiments
    got = run_experiment_s(which, prover_cls(PARAMS), PARAMS, 40, Rng(2024))
    assert dataclasses.astuple(got) == stats


def test_rewind_budget_enforced():
    big = desk_params(d=8, n=16)
    assert big.d == 8
    wide = derive_params(preset="desk", n=16, q=134_217_689, d=15, sigma=0.35)
    with pytest.raises(ValueError):
        run_experiment_s(2, BlindProver(wide), wide, 1, Rng(0))
