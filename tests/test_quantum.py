import itertools

import numpy as np
import pytest

from poqlab.core import Rng, desk_params
from poqlab.lattice import commitment_shifts, decode_preimages, encrypt
from poqlab.protocol import FirstRound, referee_first_assessment, run_game_j
from poqlab.quantum import (BASIS_OPS, ClawDescription, HonestProver,
                            StateVector, build_claw_state,
                            coin_zero_probability, honest_first_round,
                            honest_second_round, measure,
                            round_one_positions, sample_claw_outcomes)

from oracles import apply_zc, claw_description, honest_first_round_oracle


def stream(label, idx=0, seed=11):
    return Rng(seed).stream(label, idx)


# --- gates and measurement --------------------------------------------------

def test_apply_zc_examples():
    one = StateVector.computational([1])
    np.testing.assert_allclose(apply_zc(one, 0, 1.0).amplitudes,
                               [0, -1], atol=1e-12)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    got = apply_zc(plus, 0, 0.5).amplitudes
    np.testing.assert_allclose(got, np.array([1, 1j]) / np.sqrt(2), atol=1e-12)
    twice = apply_zc(apply_zc(plus, 0, 0.25), 0, 0.25).amplitudes
    np.testing.assert_allclose(twice, got, atol=1e-12)
    with pytest.raises(IndexError):
        apply_zc(plus, 3, 1.0)


def test_measure_eigenstate_is_deterministic():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    gen = stream("m0")
    for _ in range(100):
        bit, post = measure(plus, 0, "X", gen)
        assert bit == 0
        np.testing.assert_allclose(post.amplitudes, plus.amplitudes, atol=1e-12)


def test_measure_zero_state_in_x_is_fair():
    zero = StateVector.computational([0])
    np.testing.assert_allclose(zero.outcome_distribution(["X"]), [0.5, 0.5],
                               atol=1e-12)
    gen = stream("m1")
    outcomes = np.array([measure(zero, 0, "X", gen)[0] for _ in range(20_000)])
    assert abs(outcomes.mean() - 0.5) <= 4 * 0.5 / np.sqrt(len(outcomes))


def test_measure_zero_state_in_xy_is_fair():
    # <0|(X+Y)/sqrt2|0> = 0, so both outcomes are equally likely
    w = BASIS_OPS["XY"]
    assert abs(w[0, 0]) < 1e-12
    gen = stream("m2")
    zero = StateVector.computational([0])
    outcomes = np.array([measure(zero, 0, "XY", gen)[0] for _ in range(20_000)])
    assert abs(outcomes.mean() - 0.5) <= 4 * 0.5 / np.sqrt(len(outcomes))


def test_repeat_measurement_is_stable():
    gen = stream("m3")
    state = StateVector(2, (np.arange(4) + 1) / np.sqrt(30))
    for basis in ("X", "Y", "XY"):
        bit, post = measure(state, 1, basis, gen)
        bit2, post2 = measure(post, 1, basis, gen)
        assert bit == bit2
        np.testing.assert_allclose(post.amplitudes, post2.amplitudes, atol=1e-12)


def test_norm_preserved_through_random_circuit():
    gen = stream("m4")
    state = StateVector(3, gen.normal(size=8) + 1j * gen.normal(size=8))
    state = StateVector(3, state.amplitudes / state.norm())
    for _ in range(50):
        q = int(gen.integers(0, 3))
        state = apply_zc(state, q, float(gen.random()))
        if gen.random() < 0.3:
            _, state = measure(state, q, ("X", "Y", "XY")[int(gen.integers(3))],
                               gen)
        assert abs(state.norm() - 1.0) < 1e-12


# --- claw states --------------------------------------------------------------

def test_build_claw_examples():
    claw = ClawDescription(branch0=np.zeros(3, dtype=np.uint8),
                           branch1=np.zeros(3, dtype=np.uint8), phase=1)
    state = build_claw_state(claw)
    grid = state.amplitudes.reshape([2] * 4)
    assert abs(grid[0, 0, 0, 0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(grid[0, 0, 0, 1] - 1 / np.sqrt(2)) < 1e-12

    degenerate = ClawDescription(branch0=np.array([1, 0, 1], dtype=np.uint8),
                                 branch1=None)
    state = build_claw_state(degenerate)
    idx = int("1010", 2)
    assert abs(state.amplitudes[idx] - 1.0) < 1e-12

    gen = stream("c0")
    for _ in range(20):
        b0 = gen.integers(0, 2, size=4).astype(np.uint8)
        b1 = gen.integers(0, 2, size=4).astype(np.uint8)
        if np.array_equal(b0, b1):
            continue
        claw = ClawDescription(branch0=b0, branch1=b1,
                               phase=int(gen.choice([-1, 1])))
        assert abs(build_claw_state(claw).norm() - 1.0) < 1e-12


def test_claw_phase_bookkeeping():
    # Z^c on data qubit j equals Z^{x_j (-1)^{a_j} c} on the coin qubit, up to
    # the global phase e^{i pi c a_j}, which the assertion compensates exactly
    gen = stream("c1")
    d = 3
    for _ in range(50):
        x = np.append(gen.integers(0, 2, size=d), 1).astype(np.uint8)
        a = gen.integers(0, 2, size=d + 1).astype(np.uint8)
        claw = ClawDescription(branch0=a[:d],
                               branch1=(a[:d] ^ x[:d]).astype(np.uint8),
                               phase=(-1) ** int(a[d]))
        if claw.degenerate:
            continue
        psi = build_claw_state(claw)
        for c in (0.25, 0.5, 1.0):
            for j in range(d):
                lhs = apply_zc(psi, j, c).amplitudes
                rhs = apply_zc(psi, d, float(x[j]) * (-1) ** int(a[j]) * c)
                compensation = np.exp(1j * np.pi * c * int(a[j]))
                np.testing.assert_allclose(lhs, compensation * rhs.amplitudes,
                                           atol=1e-12)


# --- honest claw-game sampler ---------------------------------------------------

def test_half_of_answer_pairs_win():
    for d in (1, 2):
        for xb in range(1 << d):
            for yb in range(1 << d):
                x = np.append((xb >> np.arange(d)) & 1, 1)
                y = np.append((yb >> np.arange(d)) & 1, 1)
                wins = 0
                for a in itertools.product((0, 1), repeat=d + 1):
                    for b in itertools.product((0, 1), repeat=d + 1):
                        u = x * (1 - 2 * np.array(a))
                        v = y + 2 * np.array(b)
                        wins += int((u * v).sum()) % 4 in (0, 1)
                assert wins == (1 << (2 * d + 2)) // 2


def test_honest_sample_win_rate():
    d = 4
    trials = 20_000
    wins = (1 + run_game_j(d, trials, Rng(11)).stats.mean) / 2
    want = 0.5 * (1 + 1 / np.sqrt(2))
    assert abs(wins - want) <= 4 * np.sqrt(want * (1 - want) / trials)


def _outcomes(width):
    return np.array(list(itertools.product((0, 1), repeat=width)), dtype=np.int64)


def _rows(claw):
    """(branch0, branch1, phase) as sample_claw_outcomes takes them.  A
    single branch becomes phase 0: one computational branch gives every X, Y
    and XY outcome with probability 1/2, which is the law of z = 0."""
    if claw.degenerate:
        zeros = np.zeros(claw.d, dtype=np.uint8)
        return zeros, zeros, 0
    return claw.branch0, claw.branch1, claw.phase


def _sampler_law(claws, y):
    """P(o) for every claw and every outcome o, in amplitude order, as
    sample_claw_outcomes draws it: uniform data bits, then the coin is 0
    with coin_zero_probability."""
    d = claws[0].d
    outs = _outcomes(d + 1)
    branch0, branch1, phase = (np.array(col) for col in zip(*(_rows(c) for c in claws)))
    p0 = coin_zero_probability(branch0[:, None], branch1[:, None],
                               phase[:, None], y, outs[None, :, :d])
    return np.where(outs[:, d] == 0, p0, 1 - p0) / 2 ** d


def _claws(d):
    bits = [np.array(b, dtype=np.uint8) for b in itertools.product((0, 1), repeat=d)]
    for b0 in bits:
        yield ClawDescription(branch0=b0, branch1=None)
        yield ClawDescription(branch0=None, branch1=b0)
        for b1 in bits:
            for phase in (1, -1):
                yield ClawDescription(branch0=b0, branch1=b1, phase=phase)


def test_claw_sampler_law_matches_oracle():
    # every claw at d <= 4 (both degenerate forms, both phases) in every basis
    # string: the closed form equals the statevector's Born rule
    for d in range(1, 5):
        claws = list(_claws(d))
        states = [build_claw_state(claw) for claw in claws]
        for y in _outcomes(d):
            y = np.append(y, 1)
            bases = ["Y" if bit else "X" for bit in y[:d]] + ["XY"]
            want = [state.outcome_distribution(bases) for state in states]
            np.testing.assert_allclose(_sampler_law(claws, y), want,
                                       rtol=0, atol=1e-12)


def _joint_table(d, x, y):
    probs = np.zeros((1 << (d + 1), 1 << (d + 1)))
    for ai, a in enumerate(itertools.product((0, 1), repeat=d + 1)):
        for bi, b in enumerate(itertools.product((0, 1), repeat=d + 1)):
            u = x.astype(np.int64) * (1 - 2 * np.array(a))
            v = y.astype(np.int64) + 2 * np.array(b)
            pm = 1 if int((u * v).sum()) % 4 in (0, 1) else -1
            probs[ai, bi] = (1 + pm / np.sqrt(2)) / (1 << (2 * d + 2))
    return probs


def test_game_j_joint_law_matches_table():
    # run_game_j draws a uniformly and b from the claw (a, a ^ x, (-1)^{a_d})
    for d in range(1, 4):
        for x in _outcomes(d):
            x = np.append(x, 1)
            for y in _outcomes(d):
                y = np.append(y, 1)
                claws = [ClawDescription(branch0=a[:d], branch1=a[:d] ^ x[:d],
                                         phase=1 - 2 * int(a[d]))
                         for a in _outcomes(d + 1)]
                joint = _sampler_law(claws, y) / 2 ** (d + 1)
                np.testing.assert_allclose(joint, _joint_table(d, x, y),
                                           rtol=0, atol=1e-12)


def test_outcome_distribution_is_born_rule():
    from scipy.stats import chisquare
    gen = stream("o0")
    for n in (1, 2, 3):
        state = StateVector(n, gen.normal(size=2 ** n) + 1j * gen.normal(size=2 ** n))
        state = StateVector(n, state.amplitudes / state.norm())
        bases = [("X", "Y", "XY")[int(gen.integers(3))] for _ in range(n)]
        probs = state.outcome_distribution(bases)
        assert abs(probs.sum() - 1) < 1e-12
        counts = np.zeros(2 ** n)
        samples = 2000
        for _ in range(samples):
            post, idx = state, 0
            for qubit, basis in enumerate(bases):
                bit, post = measure(post, qubit, basis, gen)
                idx = (idx << 1) | bit
            counts[idx] += 1
        assert chisquare(counts, samples * probs).pvalue > 1e-4
    with pytest.raises(ValueError):
        StateVector.computational([0, 1]).outcome_distribution(["X"])


def test_sampler_batch_shapes_and_question_check():
    gen = stream("s0")
    branch0 = np.zeros((5, 3), dtype=np.uint8)
    branch1 = np.ones((5, 3), dtype=np.uint8)
    y = [0, 1, 0, 1]
    data, uniforms = gen.integers(0, 2, size=(5, 3)), gen.random(5)
    out = sample_claw_outcomes(branch0, branch1, np.ones(5), y, data, uniforms)
    assert out.shape == (5, 4) and out.dtype == np.uint8
    # the data bits are the caller's, the coin is 1 where the uniform reaches
    # the coin's zero probability
    np.testing.assert_array_equal(out[:, :3], data)
    p0 = coin_zero_probability(branch0, branch1, np.ones(5), y, data)
    np.testing.assert_array_equal(out[:, 3], uniforms >= p0)
    with pytest.raises(ValueError, match="ending in 1"):
        sample_claw_outcomes(branch0, branch1, np.ones(5), [0, 1, 0, 0],
                             data, uniforms)
    with pytest.raises(ValueError, match="ending in 1"):
        sample_claw_outcomes([[0, 1]], [[1, 1]], [-1], [0, 1], [[0, 0]], [0.5])
    # one row of data bits and one uniform per claw
    for bad_data, bad_uniforms in ((data[:4], uniforms), (data[:, :2], uniforms),
                                   (data, uniforms[:4]), (data, uniforms[:, None])):
        with pytest.raises(ValueError, match="one uniform per claw"):
            sample_claw_outcomes(branch0, branch1, np.ones(5), y,
                                 bad_data, bad_uniforms)
    # the honest prover draws each claw's bits from that claw's generator
    with pytest.raises(ValueError, match="one generator per claw"):
        honest_second_round((branch0, branch1, np.ones(5)), np.tile(y, (5, 1)),
                            [gen])


def test_degenerate_claw_outcomes_uniform():
    gen = stream("h3")
    claw = ClawDescription(branch0=np.array([1, 0], dtype=np.uint8), branch1=None)
    y = np.array([1, 0, 1], dtype=np.uint8)
    rows = [np.asarray(col)[None] for col in _rows(claw)]
    outs = np.array([honest_second_round(rows, y[None], [gen])[0]
                     for _ in range(4000)])
    for j in range(3):
        p = outs[:, j].mean()
        assert abs(p - 0.5) <= 4 * 0.5 / np.sqrt(len(outs))


# --- honest first round --------------------------------------------------------

def test_round_one_positions_skip_claw_bits():
    params = desk_params()
    pos = round_one_positions(params)
    assert len(pos) == params.n * params.Q - params.d
    excluded = {(params.n - params.d + j) * params.Q
                for j in range(1, params.d + 1)}
    assert excluded.isdisjoint(set(pos.tolist()))


def _honest_round(record, params, gen):
    """The honest prover's commitment on one record, from its prover stream
    gen, as the FirstRound the referee assesses."""
    w, ells, mem = HonestProver(params).commit(
        record.a, record.v, {"prover": gen}.__getitem__, record.trapdoor)
    return FirstRound(w, mem, ells, commitment_shifts(w, record, params))


def test_referee_answer_matches_prover_claw():
    # the referee inverts w itself and derives the answer string; the claw
    # the prover derives on its own (the reference derivation) must be the
    # one that answer string describes
    params = desk_params()
    rng = Rng(47)
    checked = 0
    for t in range(120):
        gen = rng.stream("enc", t)
        x = gen.integers(0, 2, size=params.d)
        record = encrypt(x, params, gen)
        first = _honest_round(record, params, rng.stream("prover", t))
        _, (a,), _, (e_flag,), _ = referee_first_assessment(
            [first], params, lambda i: rng.stream("ref", t))
        claw = claw_description(
            honest_first_round_oracle([first], params),
            decode_preimages(first.shifts, params).in_box[None], 0)
        # event E (both preimages in the noise box) is what leaves two branches
        assert e_flag == (not claw.degenerate)
        if e_flag:
            np.testing.assert_array_equal(a[:params.d], claw.branch0)
            assert (claw.phase == -1) == bool(a[params.d])
            checked += 1
    assert checked > 100


def test_honest_first_round_events_and_claw():
    params = desk_params()
    rng = Rng(31)
    e_hits = f_hits = both = 0
    trials = 300
    for t in range(trials):
        gen = rng.stream("enc", t)
        x = gen.integers(0, 2, size=params.d)
        record = encrypt(x, params, gen)
        first = _honest_round(record, params, rng.stream("prover", t))
        preimages, a, _, (e_flag,), (f_flag,) = referee_first_assessment(
            [first], params, lambda i: rng.stream("ref", t))
        honest = honest_first_round(preimages, a, params)
        e_hits += e_flag
        f_hits += f_flag
        if e_flag and f_flag:
            both += 1
            claw = claw_description(honest, preimages.in_box, 0)
            got = (claw.branch0 ^ claw.branch1)
            np.testing.assert_array_equal(got, x.astype(np.uint8))
        assert first.w.values.shape == (params.m,)
        assert len(first.bits) == len(round_one_positions(params))
    bound_e, bound_f = params.event_bounds()
    assert e_hits / trials >= bound_e - 0.05
    assert f_hits / trials >= bound_f - 0.05
    assert both > 0
