import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from poqlab import attack
from poqlab.attack import (attack_plan, best_score, decode_error,
                           experiment_e, experiment_e_campaign, rewind,
                           sampling_bound)
from poqlab.core import Rng, desk_params
from poqlab.games import j_sample_inputs, j_score
from poqlab.protocol import check_bits, play_round, referee_score
from poqlab.provers import BlindProver, ClassicalProver, TrapdoorLeakProver

from oracles import best_score_oracle, exact_max_mean, sampled_max_mean


# --- decoding ----------------------------------------------------------------

def test_decode_error_degenerate_cases():
    assert decode_error(np.zeros((4, 3)), np.zeros(4)) == 0
    assert decode_error(np.zeros((4, 3)), np.ones(4)) == 4


def _decode_oracle(b_matrix, w):
    """Exhaustive reference without column stripping."""
    c, k = b_matrix.shape
    best = c + 1
    for bits in itertools.product((0, 1), repeat=k):
        z = np.array(bits)
        best = min(best, int((((b_matrix @ z) % 2) != w).sum()))
    return best


def test_decode_error_matches_unstripped_oracle():
    gen = np.random.default_rng(0)
    for _ in range(50):
        b = gen.integers(0, 2, size=(8, 3))
        w = gen.integers(0, 2, size=8)
        assert decode_error(b, w) == _decode_oracle(b, w)
    # argmin actually achieves the reported error
    b = gen.integers(0, 2, size=(10, 4))
    w = gen.integers(0, 2, size=10)
    err, z = decode_error(b, w, return_argmin=True)
    assert int((((b @ z) % 2) != w).sum()) == err


def _decode_one_shot(b_matrix, w):
    """(err, z) from the whole 2^k x c product of the patterns over the
    nonzero columns at once, the first minimum in pattern order."""
    nonzero = np.flatnonzero(b_matrix.any(axis=0))
    k = len(nonzero)
    patterns = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    errs = (((patterns @ b_matrix[:, nonzero].T) % 2) ^ w).sum(axis=1)
    z = np.zeros(b_matrix.shape[1], dtype=np.uint8)
    z[nonzero] = patterns[errs.argmin()]
    return int(errs.min()), z


def _decode_instances():
    # random instances, and tied ones: with a repeated column, flipping both
    # copies leaves every error unchanged, so each minimum is reached at
    # least twice (against w = 0, by z = 0 among others)
    gen = np.random.default_rng(11)
    for d in range(1, 10):
        c = 1 << d
        b = gen.integers(0, 2, size=(c, d + 1))
        yield b, gen.integers(0, 2, size=c)
        tied = b.copy()
        tied[:, d] = tied[:, 0]
        yield tied, gen.integers(0, 2, size=c)
        yield tied, np.zeros(c, dtype=np.int64)


@pytest.mark.parametrize("block", [1, 7, 300, 1 << 20])
def test_decode_error_blocks_equal_one_shot(monkeypatch, block):
    monkeypatch.setattr(attack, "_DECODE_BLOCK", block)
    for b, w in _decode_instances():
        err, z = decode_error(b, w, return_argmin=True)
        want_err, want_z = _decode_one_shot(b, w)
        assert err == want_err
        np.testing.assert_array_equal(z, want_z)


def test_decode_error_memory_at_d11():
    # full enumeration at d = 11: 2^12 patterns against 2^11 rows.  One
    # product over all patterns would hold 8 Mi entries; a block holds 1 Mi
    # bytes, so the peak stays far below 16 MiB
    d = 11
    gen = np.random.default_rng(5)
    b = np.ones((1 << d, d + 1), dtype=np.uint8)
    b[:, :d] = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    w = gen.integers(0, 2, size=1 << d)
    tracemalloc.start()
    try:
        decode_error(b, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_best_score_single_pair():
    x = np.array([1, 0, 1], dtype=np.int64)
    y = np.array([1, 1, 1], dtype=np.int64)
    b = np.array([0, 0, 0], dtype=np.int64)
    assert best_score(x, [y], [b]) == 1.0


def test_best_score_matches_direct_max_d1():
    x = np.array([1, 1], dtype=np.int64)
    pairs = [(np.array([yb, 1], dtype=np.int64),
              np.zeros(2, dtype=np.int64)) for yb in (0, 1)]
    assert best_score(x, *zip(*pairs)) == best_score_oracle(x, pairs)


def test_best_score_exhaustive_up_to_d3():
    gen = np.random.default_rng(1)
    for d in (1, 2, 3):
        ys = [np.append((idx >> np.arange(d)) & 1, 1).astype(np.int64)
              for idx in range(1 << d)]
        for xb in range(1 << (d + 1)):
            x = ((xb >> np.arange(d + 1)) & 1).astype(np.int64)
            pairs = [(y, gen.integers(0, 2, size=d + 1)) for y in ys]
            got = best_score(x, *zip(*pairs))
            want = best_score_oracle(x, pairs)
            assert abs(got - want) < 1e-12
            # max dominates the all-zero answer
            zero_avg = np.mean([
                1 if int((x * (y + 2 * b)).sum()) % 4 in (0, 1) else -1
                for y, b in pairs])
            assert got >= zero_avg - 1e-12
            assert -1 <= got <= 1


def test_best_score_loses_malformed_answers_like_the_referee():
    # an answer row that is not d + 1 bits loses against every answer string
    gen = np.random.default_rng(5)
    d = 3
    ys = np.array([np.append((i >> np.arange(d)) & 1, 1) for i in range(1 << d)])
    for xb in range(1 << (d + 1)):
        x = (xb >> np.arange(d + 1)) & 1
        bs = gen.integers(0, 2, size=(1 << d, d + 1))
        pairs = list(zip(ys, bs))
        # on well-formed pairs the referee-scored oracle is the plain maximum
        plain = max(np.mean([j_score(x, y, (a >> np.arange(d + 1)) & 1, b)
                             for y, b in pairs]) for a in range(1 << (d + 1)))
        assert best_score_oracle(x, pairs) == plain == best_score(x, ys, bs)
        bs[0, 1], bs[2, 3], bs[4, 0] = 5, -1, 2
        assert best_score(x, ys, bs) == best_score_oracle(x, list(zip(ys, bs)))
    # a table that is not one row of d + 1 integers per question: floats,
    # too few bits or rows, ragged data; every question loses
    ragged = [list(b) for b in bs[:-1]] + [[0, [1, 0], 1, 1]]
    for bad in (bs % 2 * 1.0, bs[:, :d] % 2, bs[:-1] % 2, ragged, None):
        assert best_score(x, ys, bad) == -1.0
    assert best_score_oracle(x, list(zip(ys, bs % 2 * 1.0))) == -1.0


class FiveForOneProver(TrapdoorLeakProver):
    """The key-leak prover, answering 5 wherever it would answer 1."""

    def respond_bit(self, j, prefixes, mem):
        bits = super().respond_bit(j, prefixes, mem)
        return np.where(bits == 1, 5, bits)


def test_rewound_score_is_the_referee_score():
    # experiment E's rho is the referee-scored mean at the argmax answer, so
    # answers of 5 lose there as they do in game R
    params = desk_params()
    prover, rng = FiveForOneProver(params), Rng(7)
    real_rhos = []
    for rep in range(6):
        out = experiment_e(prover, params, rng, rep)
        arm_rng = rng.stream("expE/arm", rep)
        hidden = int(arm_rng.integers(0, 2))
        x, _ = j_sample_inputs(params.d, arm_rng)
        first = play_round(prover, params, x, rng, "expE", rep,
                           real=hidden == 0)
        ys, bs = rewind(prover, first.mem, params.d)
        rho, a = best_score(x, ys, bs, return_argmax=True)
        assert out.hidden_bit == hidden and out.rho == rho
        rows = np.ones(len(ys), dtype=bool)
        scores = referee_score(x, ys, np.broadcast_to(a, ys.shape), rows,
                               *check_bits(bs, *ys.shape))[2]
        assert rho == np.mean(scores)
        if hidden == 0:
            real_rhos.append(rho)
    assert real_rhos and max(real_rhos) < 1.0


def test_best_score_empty_pairs():
    with pytest.raises(ValueError):
        best_score(np.array([1, 1]), [], [])


# --- sampling bound ----------------------------------------------------------

def test_sampling_bound_worked_values():
    assert round(sampling_bound(400_000, 2.0 ** 40, base="2"), 5) == 0.01886
    assert sampling_bound(400_000, 2.0 ** 40, base="e") < \
        sampling_bound(400_000, 2.0 ** 40, base="2")


def test_sampling_bound_decreases_in_alpha():
    vals = [sampling_bound(a, 2.0 ** 10) for a in (10, 100, 1000, 10_000)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sampling_bound(0, 4)


@pytest.mark.parametrize("count", [0, -3])
def test_attack_counts_below_one_name_the_argument(count):
    # refused up front, by name: no division by zero reps, and no empty or
    # negative question sample reaching the decoder or math.log2
    prover = BlindProver(PARAMS6)
    calls = [
        ("reps", lambda: experiment_e_campaign(prover, PARAMS6, count,
                                               Rng(0))),
        ("alpha", lambda: experiment_e_campaign(prover, PARAMS6, 2, Rng(0),
                                                alpha=count)),
        ("alpha", lambda: experiment_e(prover, PARAMS6, Rng(0), 0,
                                       alpha=count)),
        ("alpha", lambda: attack_plan(40, 0.05, count)),
        ("alpha", lambda: sampling_bound(count, 4)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError,
                           match=f"^{name} must be at least 1, got {count}$"):
            call()


def test_sampled_max_deviation_within_bound():
    # score table with 2^8 rows and 2^10 columns, natural-log bound
    gen = np.random.default_rng(2)
    table = gen.uniform(-1, 1, size=(256, 1024))
    lam = exact_max_mean(table)
    alpha = 64
    reps = 200
    estimates = [sampled_max_mean(table, alpha, gen) for _ in range(reps)]
    assert abs(np.mean(estimates) - lam) <= sampling_bound(alpha, 256, base="e")


# --- rewinding ------------------------------------------------------------------

def _rewound_digest(prover, real: bool) -> str:
    """SHA-256 of the rewound questions and answers at d = 8, enumerated and
    at sampled indices with repeats, as uint8 rows."""
    params = desk_params(d=8)
    rng = Rng(8080)
    x, _ = j_sample_inputs(params.d, rng.stream("pin/inputs"))
    first = play_round(prover, params, x, rng, "pin", 0, real=real)
    indices = np.random.default_rng(8).integers(0, 1 << params.d, size=40)
    digest = hashlib.sha256()
    for ys, bs in (rewind(prover, first.mem, params.d),
                   rewind(prover, first.mem, params.d, indices)):
        digest.update(ys.astype(np.uint8).tobytes())
        digest.update(bs.astype(np.uint8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("prover_cls, real, digest", [
    (TrapdoorLeakProver, True,
     "0ace2a8dc1722a96cb6262fd39df4463a023d8716b492e8b917854f77c994d12"),
    (TrapdoorLeakProver, False,
     "185e35c2aaeb2735656e692c5b6002fa0fdd93510bf5e6dbddcc4a77b9d9c170"),
    (BlindProver, True,
     "4d74b27889e2ae15bb88de7c27c197fde04eeef60f2d9c2290dec916cb301e12"),
], ids=["leak-real", "leak-uniform", "blind"])
def test_rewound_tables_pinned_at_fixed_seed(prover_cls, real, digest):
    # pins what rewinding asks and what each built-in prover answers
    assert _rewound_digest(prover_cls(desk_params(d=8)), real) == digest


def _question_sets(d: int):
    """Enumerated, sampled and repeated question indices at dimension d."""
    gen = np.random.default_rng(d)
    sampled = gen.choice(1 << d, size=max(1, (1 << d) // 3), replace=False)
    repeated = gen.integers(0, 1 << d, size=(1 << d) + 3)
    return None, sampled, repeated


@pytest.mark.parametrize("d", range(1, 9))
def test_rewind_equals_per_question_second_response(d):
    params = desk_params(d=d)
    rng = Rng(300 + d)
    x, _ = j_sample_inputs(d, rng.stream("eq/inputs"))
    cases = [(BlindProver(params), True), (TrapdoorLeakProver(params), True),
             (TrapdoorLeakProver(params), False),
             (FiveForOneProver(params), True)]
    for prover, real in cases:
        first = play_round(prover, params, x, rng, "eq", 0, real=real)
        for indices in _question_sets(d):
            ys, bs = rewind(prover, first.mem, d, indices)
            asked = np.arange(1 << d) if indices is None else indices
            np.testing.assert_array_equal(ys[:, :d] @ (1 << np.arange(d)), asked)
            assert (ys[:, d] == 1).all()
            np.testing.assert_array_equal(
                bs, [prover.second_response(y, first.mem) for y in ys])


class CountingProver(ClassicalProver):
    """Answers a hash of each prefix and records every prefix it is asked."""

    def __init__(self):
        self.asked = []

    def respond_bit(self, j, prefixes, mem):
        assert prefixes.shape[1] == j + 1   # no question bit past j
        rows = [tuple(row) for row in prefixes.tolist()]
        self.asked.extend(rows)
        return np.array([hash(row) & 1 for row in rows])


@pytest.mark.parametrize("d", range(1, 9))
def test_rewind_asks_each_distinct_prefix_once(d):
    for indices in _question_sets(d):
        prover = CountingProver()
        ys, bs = rewind(prover, None, d, indices)
        prefixes = {tuple(y[:j + 1]) for y in ys.tolist() for j in range(d + 1)}
        assert sorted(prover.asked) == sorted(prefixes)
        for y, b in zip(ys.tolist(), bs.tolist()):
            assert b == [hash(tuple(y[:j + 1])) & 1 for j in range(d + 1)]


# --- distinguishing experiments -------------------------------------------------

PARAMS6 = desk_params(d=6)


def test_blind_prover_has_no_advantage():
    report = experiment_e_campaign(BlindProver(PARAMS6), PARAMS6, 400,
                                   Rng(5), alpha=64)
    assert report.reps_real + report.reps_uniform == 400
    assert abs(report.advantage) <= 3 * report.stderr


def test_empty_arm_leaves_advantage_unmeasured():
    params = desk_params(d=8)
    report = experiment_e_campaign(TrapdoorLeakProver(params), params, 12,
                                   Rng(10811))
    assert (report.reps_real, report.reps_uniform) == (0, 12)
    assert np.isnan(report.advantage) and np.isnan(report.stderr)
    # the means stay finite in [-1, 1]; the empty arm reads 0.0
    assert report.mean_r_real == 0.0
    assert -1.0 <= report.mean_r_uniform <= 1.0


def test_leak_prover_distinguishes():
    report = experiment_e_campaign(TrapdoorLeakProver(PARAMS6), PARAMS6, 400,
                                   Rng(6), alpha=64)
    assert report.mean_r_real == 1.0
    assert report.advantage >= 0.25


def test_full_enumeration_equals_exhaustive_alpha():
    params = desk_params(d=4)
    leak = TrapdoorLeakProver(params)
    for rep in range(30):
        full = experiment_e(leak, params, Rng(7), rep, alpha=None)
        sampled = experiment_e(leak, params, Rng(7), rep, alpha=1 << params.d)
        assert full.rho == sampled.rho
        assert full.r == sampled.r and full.hidden_bit == sampled.hidden_bit


@pytest.mark.parametrize("alpha, prover_cls, report", [
    (None, BlindProver, (16, 10, 6, 0.0, -1 / 3, 1 / 6, 0.24907235301622105,
                         0.5625)),
    (None, TrapdoorLeakProver, (16, 10, 6, 1.0, 0.0, 0.5, 0.2041241452319315,
                                0.8125)),
    (64, BlindProver, (16, 10, 6, 0.2, 0.0, 0.1, 0.2562550812504343, 0.5625)),
    (64, TrapdoorLeakProver, (16, 10, 6, 1.0, 0.0, 0.5, 0.2041241452319315,
                              0.8125)),
], ids=["all-blind", "all-leak", "alpha64-blind", "alpha64-leak"])
def test_campaign_pinned_at_fixed_seed(alpha, prover_cls, report):
    # pins the stream layout of experiment E, enumerated and sampled
    params = desk_params(d=8)
    got = experiment_e_campaign(prover_cls(params), params, 16, Rng(2024),
                                alpha=alpha)
    assert dataclasses.astuple(got) == report


# --- the plan ------------------------------------------------------------------

def test_attack_plan_reproduces_worked_example():
    plan = attack_plan(40, 0.05, 400_000)
    assert plan.classical_ceiling < 0.1127
    assert plan.ceiling_4dp == 0.1127
    assert abs(plan.threshold - 0.1627) < 1e-12  # recomputed sum
    assert plan.published is not None
    assert plan.published["threshold"] == 0.1617  # figure as printed
    assert round(plan.slack_base2, 5) == 0.01886
    assert plan.weight_cap == 30
    assert plan.weight_tail <= 0.0012
    assert 53.5 <= plan.decode_work_log2 <= 55.5


def test_attack_plan_other_inputs_have_no_published_reference():
    plan = attack_plan(12, 0.1, 1000)
    assert plan.published is None
    assert plan.classical_ceiling == 2 * (3 / 4) ** 3
