import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from poqlab import attack, core, provers
from poqlab.attack import (DECODE_LIMIT, REWIND_LIMIT, attack_plan, best_score,
                           decode_error, experiment_e, experiment_e_campaign,
                           rewind, sampling_bound)
from poqlab.core import Rng, desk_params
from poqlab.games import SearchSpaceTooLarge, _questions, j_sample_inputs, j_score
from poqlab.protocol import check_bits, play_round, referee_score
from poqlab.provers import (BlindProver, ClassicalProver, TrapdoorLeakProver,
                            _coin_bits)

from oracles import (best_score_oracle, coin_bits_oracle, decode_error_scan,
                     exact_max_mean, sampled_max_mean, seedsequence_stream,
                     sha_coin_bits)


# --- decoding ----------------------------------------------------------------

def test_decode_error_degenerate_cases():
    assert decode_error(np.zeros((4, 3)), np.zeros(4))[0] == 0
    assert decode_error(np.zeros((4, 3)), np.ones(4))[0] == 4


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
        assert decode_error(b, w)[0] == _decode_oracle(b, w)
    # argmin actually achieves the reported error
    b = gen.integers(0, 2, size=(10, 4))
    w = gen.integers(0, 2, size=10)
    err, z = decode_error(b, w)
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
    # least twice (against w = 0, by z = 0 among others); duplicate rows,
    # zero rows (as a rejected answer leaves them) and k = 0
    gen = np.random.default_rng(11)
    for d in range(1, 10):
        c = 1 << d
        b = gen.integers(0, 2, size=(c, d + 1))
        yield b, gen.integers(0, 2, size=c)
        tied = b.copy()
        tied[:, d] = tied[:, 0]
        yield tied, gen.integers(0, 2, size=c)
        yield tied, np.zeros(c, dtype=np.int64)
        repeated = b[gen.integers(0, 3, size=c)]
        yield repeated, gen.integers(0, 2, size=c)
        rejected = b * (gen.random(c) < 0.7)[:, None]
        yield rejected, gen.integers(0, 2, size=c)
        yield np.zeros((c, d + 1), dtype=np.int64), gen.integers(0, 2, size=c)


@pytest.mark.parametrize("block", [1, 7, 300, 1 << 20])
def test_decode_error_blocks_equal_one_shot(monkeypatch, block):
    # the blocked scan the transform replaced, at each block size, and the
    # one-shot product give the transform's errors and its first argmin
    monkeypatch.setattr(core, "_SCAN_ENTRIES", block)
    for b, w in _decode_instances():
        err, z = decode_error(b, w)
        assert z.dtype == np.uint8 and z.shape == (b.shape[1],)
        for want_err, want_z in (_decode_one_shot(b, w),
                                 decode_error_scan(b, w)):
            assert err == want_err
            np.testing.assert_array_equal(z, want_z)


@pytest.mark.parametrize("k", [6, 7, 12, 13])
def test_decode_error_equals_the_scan_across_transform_chunks(k):
    # the transform runs 6 index bits at a time: one chunk, a chunk and a
    # bit, two chunks, two chunks and a bit; zero columns interleaved
    gen = np.random.default_rng(k)
    b = np.zeros((40, k + 3), dtype=np.uint8)
    b[:, 2:] = gen.integers(0, 2, size=(40, k + 1))
    b[:, 5] = 0
    for w in (gen.integers(0, 2, size=40), np.zeros(40, dtype=np.uint8)):
        err, z = decode_error(b, w)
        want_err, want_z = decode_error_scan(b, w)
        assert err == want_err
        np.testing.assert_array_equal(z, want_z)


def test_decode_error_refuses_past_its_limit(monkeypatch):
    # the limit counts nonzero columns: zero columns cost nothing
    b = np.zeros((3, DECODE_LIMIT + 5), dtype=np.uint8)
    b[:, :DECODE_LIMIT + 1] = 1
    with pytest.raises(SearchSpaceTooLarge,
                       match=rf"k = {DECODE_LIMIT + 1} nonzero columns"):
        decode_error(b, np.ones(3))
    monkeypatch.setattr(attack, "DECODE_LIMIT", 3)
    b = np.eye(4, dtype=np.uint8)
    err, z = decode_error(b[:, :3], np.ones(4))
    assert err == 1
    np.testing.assert_array_equal(z, [1, 1, 1])
    with pytest.raises(SearchSpaceTooLarge, match=r"k = 4 nonzero"):
        decode_error(b, np.ones(4))


def test_decode_error_memory_at_d11():
    # full enumeration at d = 11: 2^12 patterns against 2^11 rows.  One
    # product over all patterns would hold 8 Mi entries; the transform
    # holds 2^12 float64, so the peak stays far below 4 MiB
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
    assert best_score(x, [y], [b])[0] == 1.0


def test_best_score_matches_direct_max_d1():
    x = np.array([1, 1], dtype=np.int64)
    pairs = [(np.array([yb, 1], dtype=np.int64),
              np.zeros(2, dtype=np.int64)) for yb in (0, 1)]
    assert best_score(x, *zip(*pairs))[0] == best_score_oracle(x, pairs)


def test_best_score_exhaustive_up_to_d3():
    gen = np.random.default_rng(1)
    for d in (1, 2, 3):
        ys = [np.append((idx >> np.arange(d)) & 1, 1).astype(np.int64)
              for idx in range(1 << d)]
        for xb in range(1 << (d + 1)):
            x = ((xb >> np.arange(d + 1)) & 1).astype(np.int64)
            pairs = [(y, gen.integers(0, 2, size=d + 1)) for y in ys]
            got, _ = best_score(x, *zip(*pairs))
            want = best_score_oracle(x, pairs)
            assert abs(got - want) < 1e-12
            # max dominates the all-zero answer
            zero_avg = np.mean([
                1 if int((x * (y + 2 * b)).sum()) % 4 in (0, 1) else -1
                for y, b in pairs])
            assert got >= zero_avg - 1e-12
            assert -1 <= got <= 1


def test_best_score_equals_the_oracle_and_the_blocked_scan():
    # score and argmin against the referee-scored oracle and the blocked
    # scan: tied answers, x = 0 (k = 0), x = 0 but its last bit (k <= 1),
    # repeated questions and rejected answers
    gen = np.random.default_rng(17)
    for d in (1, 2, 3, 4):
        for trial in range(12):
            x = gen.integers(0, 2, size=d + 1)
            if trial % 4 < 2:
                x[:-1] = 0
            x[-1] = trial % 4 != 0
            count = (1 << d) + 3 * (trial % 3)
            ys = np.ones((count, d + 1), dtype=np.int64)
            ys[:, :d] = gen.integers(0, 2, size=(count, d))
            bs = gen.integers(0, 2, size=(count, d + 1))
            if trial % 2:
                bs[gen.integers(0, count, size=2), 0] = 5
            score, z = best_score(x, ys, bs)
            assert abs(score - best_score_oracle(x, list(zip(ys, bs)))) < 1e-12
            checked = check_bits(bs, *ys.shape)
            scores = referee_score(x, ys, np.broadcast_to(z, ys.shape),
                                   np.ones(count, dtype=bool), *checked)[2]
            assert abs(np.mean(scores) - score) < 1e-12
            bits, valid = checked
            targets = np.where(valid, j_score(x, ys, 0 * x, bits) == -1, 1)
            want_err, want_z = decode_error_scan((x & ys) * valid[:, None],
                                                 targets)
            assert score == 1 - 2 * want_err / count
            np.testing.assert_array_equal(z, want_z)


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
        assert best_score_oracle(x, pairs) == plain == best_score(x, ys, bs)[0]
        bs[0, 1], bs[2, 3], bs[4, 0] = 5, -1, 2
        assert best_score(x, ys, bs)[0] == best_score_oracle(x, list(zip(ys, bs)))
    # a table that is not one row of d + 1 integers per question: floats,
    # too few bits or rows, ragged data; every question loses
    ragged = [list(b) for b in bs[:-1]] + [[0, [1, 0], 1, 1]]
    for bad in (bs % 2 * 1.0, bs[:, :d] % 2, bs[:-1] % 2, ragged, None):
        assert best_score(x, ys, bad)[0] == -1.0
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
    real_with_fives = 0
    for rep in range(6):
        out = experiment_e(prover, params, rng, rep)
        arm_rng = rng.stream("expE/arm", rep)
        hidden = int(arm_rng.integers(0, 2))
        x, _ = j_sample_inputs(params.d, arm_rng)
        first = play_round(prover, params, x, rng, "expE", rep,
                           real=hidden == 0)
        ys, bs = rewind(prover, first.mem, params.d)
        rho, a = best_score(x, ys, bs)
        assert out.hidden_bit == hidden and out.rho == rho
        rows = np.ones(len(ys), dtype=bool)
        scores = referee_score(x, ys, np.broadcast_to(a, ys.shape), rows,
                               *check_bits(bs, *ys.shape))[2]
        assert rho == np.mean(scores)
        if hidden == 0:
            # on the real arm the leak answers every question right, so rho
            # falls below 1 exactly when some answer is 5; an x with
            # x[:d] = 0 never answers 1, hence never 5, and scores 1
            fives = bool((bs == 5).any())
            assert rho < 1.0 if fives else rho == 1.0
            real_with_fives += fives
    assert real_with_fives


def test_best_score_empty_pairs():
    with pytest.raises(ValueError):
        best_score(np.array([1, 1]), [], [])


# --- sampling bound ----------------------------------------------------------

def test_sampling_bound_worked_values():
    assert round(sampling_bound(400_000, 2.0 ** 40, base="2"), 5) == 0.01886
    assert sampling_bound(400_000, 2.0 ** 40, base="e") < \
        sampling_bound(400_000, 2.0 ** 40, base="2")


@pytest.mark.parametrize("base", ["E", "10", "log2", 2])
def test_sampling_bound_names_its_two_bases(base):
    with pytest.raises(ValueError, match="base must be 'e' or '2'"):
        sampling_bound(400_000, 2.0 ** 40, base=base)


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


# each case: the rewound tables' digest, and the digest they had before
# streams were keyed straight from their SHA-256 digest
REWOUND_PINS = [
    pytest.param(
        TrapdoorLeakProver, True,
        "a069db33c6450ce382159733ef96f7ad6b771a4fc026542585d8d6399f63666a",
        "0ace2a8dc1722a96cb6262fd39df4463a023d8716b492e8b917854f77c994d12",
        id="leak-real"),
    pytest.param(
        TrapdoorLeakProver, False,
        "74444301594e32aa9904e372aee0a2ff09713dc07e91269cb11362e218ecc08b",
        "185e35c2aaeb2735656e692c5b6002fa0fdd93510bf5e6dbddcc4a77b9d9c170",
        id="leak-uniform"),
    pytest.param(
        BlindProver, True,
        "4d74b27889e2ae15bb88de7c27c197fde04eeef60f2d9c2290dec916cb301e12",
        "4d74b27889e2ae15bb88de7c27c197fde04eeef60f2d9c2290dec916cb301e12",
        id="blind"),
]

# the pins that hashing each coin level once moved, each with the digest it
# had under the per-prefix SHA-256 rule (see
# test_sha_coin_bits_reproduce_earlier_pins)
SHA_COIN_PINS = {
    "leak-uniform":
        "e25d7502eed231c698adbac108a17c855ecbfb2e5ddfb7b2ce0952c2714dadd7",
}


@pytest.mark.parametrize("prover_cls, real, digest, _", REWOUND_PINS)
def test_rewound_tables_pinned_at_fixed_seed(prover_cls, real, digest, _):
    # pins what rewinding asks and what each built-in prover answers
    assert _rewound_digest(prover_cls(desk_params(d=8)), real) == digest


@pytest.mark.parametrize("width", range(1, 131))
def test_coin_bits_equal_per_prefix_hashing(width):
    # one, two and three words of prefix; coin words drawn as the leak
    # prover draws them and at the top of that range; no rows, one row (no
    # scalar arithmetic, so no overflow warning) and many, the all-zero and
    # all-one prefixes among them
    gen = np.random.default_rng(width)
    top = (1 << 62) - 1
    for coins in (gen.integers(0, 1 << 62, size=4),
                  np.array([top, top - 1, top - 255, 1 << 61], dtype=np.int64)):
        for k in (0, 1, 33):
            prefixes = gen.integers(0, 2, size=(k, width)).astype(np.uint8)
            prefixes[:2] = np.arange(min(k, 2))[:, None]
            got = _coin_bits(coins, width - 1, prefixes)
            assert got.dtype == np.uint8 and got.shape == (k,)
            np.testing.assert_array_equal(
                got, coin_bits_oracle(coins, width - 1, prefixes))


def test_coin_bits_are_balanced_and_keyed():
    # over every 12-bit prefix the bits are near half ones, and another coin
    # register or level gives other bits
    prefixes = _questions(11)
    coins = np.array([1, 2, 3, 4], dtype=np.int64)
    bits = _coin_bits(coins, 11, prefixes)
    assert abs(bits.mean() - 0.5) < 4 * 0.5 / 64
    for other in (_coin_bits(coins + 1, 11, prefixes),
                  _coin_bits(coins, 12, prefixes)):
        assert 0.4 < (bits != other).mean() < 0.6


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


@pytest.mark.parametrize("indices, bad", [([4], 4), ([0, 3, -1, 9], -1),
                                          ([1 << 40], 1 << 40)])
def test_rewind_rejects_question_indices_out_of_range(indices, bad):
    # the low d bits of 4 would ask index 0's question, those of -1 index 3's
    with pytest.raises(ValueError, match=rf"^question index {bad} is outside "
                                         r"\[0, 2\^2\)$"):
        rewind(BlindProver(desk_params(d=2)), None, 2, indices)


@pytest.mark.parametrize("index", [2 ** 64 - 1, 2 ** 63, 2 ** 70])
def test_rewind_names_a_question_index_past_int64(index):
    # as int64 a uint64 of 2^64 - 1 would wrap to index -1
    prover = BlindProver(desk_params(d=2))
    for indices in ([index], np.array([index], dtype=object if index >> 64
                                      else np.uint64)):
        with pytest.raises(ValueError, match=f"^question indices must fit in "
                                             f"int64, got {index}$"):
            rewind(prover, None, 2, indices)


def test_rewind_rejects_question_indices_that_are_not_integers():
    # np.int64 would truncate them and ask the questions of indices 1 and 2
    prover = BlindProver(desk_params(d=2))
    with pytest.raises(ValueError, match=r"^question indices must be integers, "
                                         r"got dtype float64$"):
        rewind(prover, None, 2, [1.5, 2.9])
    ys, _ = rewind(prover, None, 2, np.array([True, False]))
    np.testing.assert_array_equal(ys, [[1, 0, 1], [0, 0, 1]])


@pytest.mark.parametrize("indices, shape", [([[0, 1], [2, 3]], r"\(2, 2\)"),
                                            (3, r"\(\)")])
def test_rewind_names_the_shape_of_an_index_array_that_is_not_flat(indices, shape):
    with pytest.raises(ValueError, match=r"^question indices must be one-dimensional, "
                                         rf"got shape {shape}$"):
        rewind(BlindProver(desk_params(d=2)), None, 2, indices)


# --- distinguishing experiments -------------------------------------------------

PARAMS6 = desk_params(d=6)


def test_blind_prover_has_no_advantage():
    report = experiment_e_campaign(BlindProver(PARAMS6), PARAMS6, 400,
                                   Rng(5), alpha=64)
    assert report.reps_real + report.reps_uniform == 400
    assert abs(report.advantage) <= 3 * report.stderr


def test_empty_arm_leaves_advantage_unmeasured():
    # the first seed whose 12 arm draws, read as experiment_e reads them,
    # all pick the uniform arm
    seed = next(s for s in itertools.count()
                if all(Rng(s).stream("expE/arm", rep).integers(0, 2) == 1
                       for rep in range(12)))
    params = desk_params(d=8)
    report = experiment_e_campaign(TrapdoorLeakProver(params), params, 12,
                                   Rng(seed))
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


def test_sampled_questions_are_distinct_beyond_d20(monkeypatch):
    # one draw without replacement at every d: alpha distinct questions
    # inside [0, 2^d), and exactly those are rewound
    params = desk_params(d=21, n=21)
    asked = []

    def recording_rewind(prover, mem, d, indices=None):
        asked.append(indices)
        return rewind(prover, mem, d, indices)

    monkeypatch.setattr(attack, "rewind", recording_rewind)
    out = experiment_e(TrapdoorLeakProver(params), params, Rng(21), 0,
                       alpha=16)
    (indices,) = asked
    assert len(set(indices.tolist())) == 16
    assert 0 <= indices.min() and indices.max() < 1 << 21
    assert -1 <= out.rho <= 1


def test_sampled_campaign_at_d24_answers_the_real_arm_perfectly():
    # 4096 of 2^24 questions a rep, rewound and decoded over the nonzero
    # columns; the key-leak prover wins every question on the real arm
    params = desk_params(d=24, n=24)
    report = experiment_e_campaign(TrapdoorLeakProver(params), params, 4,
                                   Rng(0), alpha=4096)
    assert report.reps == 4 and report.reps_real >= 1
    assert report.mean_r_real == 1.0


# each case: the campaign's report, and the report it gave before streams
# were keyed straight from their SHA-256 digest
CAMPAIGN_PINS = [
    pytest.param(None, BlindProver,
                 (16, 5, 11, 0.6, 0.6363636363636364, -0.018181818181818188,
                  0.21336275780048494, 0.375),
                 (16, 10, 6, 0.0, -1 / 3, 1 / 6, 0.24907235301622105, 0.5625),
                 id="all-blind"),
    pytest.param(None, TrapdoorLeakProver,
                 (16, 5, 11, 1.0, 0.6363636363636364, 0.18181818181818182,
                  0.11629129983033297, 0.4375),
                 (16, 10, 6, 1.0, 0.0, 0.5, 0.2041241452319315, 0.8125),
                 id="all-leak"),
    pytest.param(64, BlindProver,
                 (16, 5, 11, 1.0, 0.6363636363636364, 0.18181818181818182,
                  0.11629129983033297, 0.4375),
                 (16, 10, 6, 0.2, 0.0, 0.1, 0.2562550812504343, 0.5625),
                 id="alpha64-blind"),
    pytest.param(64, TrapdoorLeakProver,
                 (16, 5, 11, 1.0, 0.6363636363636364, 0.18181818181818182,
                  0.11629129983033297, 0.4375),
                 (16, 10, 6, 1.0, 0.0, 0.5, 0.2041241452319315, 0.8125),
                 id="alpha64-leak"),
]


@pytest.mark.parametrize("alpha, prover_cls, report, _", CAMPAIGN_PINS)
def test_campaign_pinned_at_fixed_seed(alpha, prover_cls, report, _):
    # pins the stream layout of experiment E, enumerated and sampled
    params = desk_params(d=8)
    got = experiment_e_campaign(prover_cls(params), params, 16, Rng(2024),
                                alpha=alpha)
    assert dataclasses.astuple(got) == report


def test_sha_coin_bits_reproduce_earlier_pins(monkeypatch):
    # with the per-prefix SHA-256 coin rule put back, each moved pin comes
    # back byte for byte and the others hold, so the coin rule alone moved
    # them
    monkeypatch.setattr(provers, "_coin_bits", sha_coin_bits)
    for case in REWOUND_PINS:
        prover_cls, real, digest, _ = case.values
        assert _rewound_digest(prover_cls(desk_params(d=8)), real) == \
            SHA_COIN_PINS.get(case.id, digest), case.id
    params = desk_params(d=8)
    for case in CAMPAIGN_PINS:
        alpha, prover_cls, report, _ = case.values
        got = experiment_e_campaign(prover_cls(params), params, 16,
                                    Rng(2024), alpha=alpha)
        assert dataclasses.astuple(got) == report, case.id


def test_seedsequence_stream_reproduces_earlier_pins(monkeypatch):
    # keying streams straight from their digest moved the pins of this
    # module; with the SeedSequence derivation and the per-prefix coin rule
    # of that time put back, each earlier digest and report comes back
    # byte for byte
    monkeypatch.setattr(Rng, "stream", seedsequence_stream)
    monkeypatch.setattr(provers, "_coin_bits", sha_coin_bits)
    for case in REWOUND_PINS:
        prover_cls, real, _, earlier = case.values
        assert _rewound_digest(prover_cls(desk_params(d=8)), real) == \
            earlier, case.id
    params = desk_params(d=8)
    for case in CAMPAIGN_PINS:
        alpha, prover_cls, _, earlier = case.values
        got = experiment_e_campaign(prover_cls(params), params, 16,
                                    Rng(2024), alpha=alpha)
        assert dataclasses.astuple(got) == earlier, case.id


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


def test_attack_plan_sizes_past_float_range():
    # 2^1100 is beyond float64; the slacks take the set size as an exact int
    plan = attack_plan(1100, 0.05, 64)
    assert plan.slack_natural == sampling_bound(64, 1 << 1100, base="e")
    assert plan.slack_base2 == (2 + math.sqrt(6 + 2200)) / 8
    for d in (1, 8, 40, 200, 1023):
        plan = attack_plan(d, 0.05, 400_000)
        assert plan.slack_natural == sampling_bound(400_000, 2.0 ** d, base="e")
        assert plan.slack_base2 == sampling_bound(400_000, 2.0 ** d, base="2")


def test_attack_plan_other_inputs_have_no_published_reference():
    plan = attack_plan(12, 0.1, 1000)
    assert plan.published is None
    assert plan.classical_ceiling == 2 * (3 / 4) ** 3
