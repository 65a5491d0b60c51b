import hashlib

import numpy as np
import pytest

from poqlab.core import Rng, derive_params, desk_params
from poqlab.lattice import assess_preimages, encrypt
from poqlab.protocol import (ScoreStats, Transcript, referee_first_assessment,
                             run_experiment_s, run_game_j, run_game_r)
from poqlab.provers import BlindProver, TrapdoorLeakProver
from poqlab.quantum import honest_first_round

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
     "3f2d3090f6bac7b5c684b87fddc0813acf929cc6544871b2539b8fb322232015"),
    ("honest", desk_params(d=16, n=16), 4, True,
     "713ea1eff0a2beb746079d4a1e445e49c1836cfbe771a60a284c63fc8d85de51"),
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


def test_honest_round_carries_the_referee_assessment():
    # the preimages the prover hands the referee are exactly what the referee
    # would compute from (w, record, params), and so is its verdict
    rng = Rng(29)
    for t in range(40):
        inp = rng.stream("gameR/inputs", t)
        x = inp.integers(0, 2, size=PARAMS.d)
        record = encrypt(x, PARAMS, rng.stream("gameR/encrypt", t))
        first = honest_first_round(record, PARAMS, rng.stream("gameR/prover", t))
        fresh = assess_preimages(first.w, record, PARAMS)
        for got, want in zip(first.preimages, fresh):
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want
        shared = referee_first_assessment(first.w, first.ells, record, PARAMS,
                                          rng.stream("gameR/referee", t),
                                          first.preimages)
        recomputed = referee_first_assessment(first.w, first.ells, record,
                                              PARAMS,
                                              rng.stream("gameR/referee", t))
        np.testing.assert_array_equal(shared[0], recomputed[0])
        assert shared[1:] == recomputed[1:]


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


def test_rewind_budget_enforced():
    big = desk_params(d=8, n=16)
    assert big.d == 8
    wide = derive_params(preset="desk", n=16, q=134_217_689, d=15, sigma=0.35)
    with pytest.raises(ValueError):
        run_experiment_s(2, BlindProver(wide), wide, 1, Rng(0))
