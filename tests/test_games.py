import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poqlab import games
from poqlab.fourier import Group, GroupFunction, uniformity_nu
from poqlab.games import (DeterministicStrategy, NotParityBalanced, OddParityInput,
                          ParityBalancedSet, SearchSpaceTooLarge,
                          _best_response_parallel,
                          _best_response_sequential, _counting_vectors,
                          _distinct_pair_convolutions, _group_index_tools,
                          _tables, bits_of,
                          ghz4_closed_form, ghz_score, ghz_strategy_score,
                          ghz_value_bruteforce,
                          index_of, j_bias_bruteforce,
                          j_bias_fourier_identity, j_sample_inputs, j_score,
                          max_eta_parity_balanced, parity_set_from_strategy,
                          reduce_ghz4_to_ghz3, strategy_from_parity_set)
from poqlab.core import Rng

from oracles import ghz_strategy_score_enum

ONE_BIT_FUNCS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def all_tables(d):
    outs = [bits_of(i, d) for i in range(1 << d)]
    for combo in itertools.product(range(1 << d), repeat=1 << d):
        yield np.stack([outs[c] for c in combo])


# --- scoring -----------------------------------------------------------------

def test_ghz_score_examples():
    assert ghz_score([0, 0, 0, 0], [0, 0, 0, 0]) == 1
    assert ghz_score([1, 1, 0, 0], [1, 0, 0, 0]) == 1
    assert ghz_score([1, 1, 0, 0], [0, 0, 0, 0]) == -1
    with pytest.raises(OddParityInput):
        ghz_score([1, 0, 0, 0], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        ghz_score([0, 0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        ghz_score([0, 0], [0, 0])


def test_ghz_score_batched_matches_scalar():
    gen = np.random.default_rng(4)
    x, a = gen.integers(0, 2, size=(2, 50, 5))
    x[:, -1] = x[:, :-1].sum(axis=1) % 2   # even parity
    got = ghz_score(x, a)
    assert got.shape == (50,)
    for t in range(50):
        want = ghz_score(x[t], a[t])
        assert isinstance(want, int) and got[t] == want
        wins = (sum(x[t]) + 2 * sum(a[t])) % 4 == 0
        assert want == (1 if wins else -1)
    # one question row against a block of answer tables, as the one-round
    # search scores them
    grid = ghz_score(x[:7], a[:, None, :])
    assert grid.shape == (50, 7)
    for t, i in itertools.product(range(50), range(7)):
        assert grid[t, i] == ghz_score(x[i], a[t])
    x[3, 0] ^= 1
    with pytest.raises(OddParityInput):
        ghz_score(x, a)


def _one_round_value_oracle(k):
    """Full enumeration over every strategy tuple, no best-response shortcut."""
    per_inputs = [x for x in itertools.product((0, 1), repeat=k)
                  if sum(x) % 2 == 0]
    best = Fraction(0)
    for combo in itertools.product(ONE_BIT_FUNCS, repeat=k):
        wins = sum((sum(x) + 2 * sum(combo[j][x[j]] for j in range(k))) % 4 == 0
                   for x in per_inputs)
        best = max(best, Fraction(wins, len(per_inputs)))
    return best


def test_one_round_values():
    assert ghz_value_bruteforce(4, "single") == Fraction(3, 4)
    assert ghz_value_bruteforce(3, "single") == Fraction(3, 4)
    assert ghz_value_bruteforce(3, "single") == _one_round_value_oracle(3)
    assert ghz_value_bruteforce(4, "single") == _one_round_value_oracle(4)
    want = {3: Fraction(3, 4), 4: Fraction(3, 4), 5: Fraction(5, 8),
            6: Fraction(5, 8), 7: Fraction(9, 16)}
    for k, value in want.items():
        assert ghz_value_bruteforce(k, "single") == value


def test_one_round_blocks_equal_one_shot(monkeypatch):
    # a block of one strategy tuple scores the same as the whole search
    monkeypatch.setattr(games, "_SINGLE_BLOCK", 1)
    assert ghz_value_bruteforce(4, "single") == Fraction(3, 4)
    assert ghz_value_bruteforce(5, "single") == Fraction(5, 8)


def test_closed_form_examples():
    assert ghz4_closed_form((0, 0), (0, 0), (0, 1), (0, 1)) == Fraction(3, 4)
    assert ghz4_closed_form((0, 0), (0, 0), (0, 0), (0, 0)) == Fraction(1, 4)


def test_closed_form_matches_enumeration_on_all_tuples():
    per_inputs = [x for x in itertools.product((0, 1), repeat=4)
                  if sum(x) % 2 == 0]
    for combo in itertools.product(ONE_BIT_FUNCS, repeat=4):
        wins = sum((sum(x) + 2 * sum(combo[j][x[j]] for j in range(4))) % 4 == 0
                   for x in per_inputs)
        assert ghz4_closed_form(*combo) == Fraction(wins, len(per_inputs))


# --- repeated values ---------------------------------------------------------

def test_repeated_value_sequential_matches_power():
    assert ghz_value_bruteforce(4, "sequential", 1) == Fraction(3, 4)
    assert ghz_value_bruteforce(4, "sequential", 2) == Fraction(9, 16)


def test_repeated_value_parallel_d1():
    assert ghz_value_bruteforce(4, "parallel", 1) == Fraction(3, 4)
    assert ghz_value_bruteforce(3, "parallel", 1) == Fraction(3, 4)


def test_repeated_value_parallel_d2():
    # three players gain from parallel repetition at d=2, four do not
    assert ghz_value_bruteforce(3, "parallel", 2) == Fraction(5, 8)
    four = ghz_value_bruteforce(4, "parallel", 2)
    assert four == Fraction(9, 16)
    assert max_eta_parity_balanced(2, False) <= four
    # witness: the optimal one-round tuple ((0,0),(0,0),(0,1),(0,1)) on
    # each coordinate attains the searched value
    zero = np.zeros((4, 2), dtype=np.uint8)
    copy = np.stack([bits_of(i, 2) for i in range(4)])
    tables = [zero, zero, copy, copy]
    assert ghz_strategy_score(tables, 2) == four
    assert ghz_strategy_score_enum(tables, 2) == four


def _search_inputs(mode, d):
    tables = _tables(d, d, mode == "sequential")
    _, _, sub, neg = _group_index_tools(d)
    vecs = _counting_vectors(
        np.stack([parity_set_from_strategy(t).elements for t in tables]), d)
    return vecs, vecs[:, sub], neg


def _all_ordered_pairs(vecs, conv_all):
    n, size = vecs.shape
    return np.einsum("ih,jgh->ijg", vecs, conv_all).reshape(n * n, size)


def _repeated_value_all_pairs(k, mode, d):
    """Reference search: a best response for every ordered pair of the first
    two players (and every third player at k = 4), no deduplication."""
    vecs, conv_all, neg = _search_inputs(mode, d)
    n, size = vecs.shape

    def reduce_(t_slice):
        if mode == "sequential":
            return _best_response_sequential(t_slice, d, neg)
        return _best_response_parallel(t_slice, d, neg)

    pairs = _all_ordered_pairs(vecs, conv_all)
    if k == 3:
        best = int(reduce_(pairs).max())
    else:
        best = 0
        third = conv_all.transpose(2, 0, 1).reshape(size, n * size).astype(np.float32)
        chunk = max(1, (1 << 22) // (n * size))
        for start in range(0, pairs.shape[0], chunk):
            block = pairs[start:start + chunk].astype(np.float32)
            t_block = np.rint(block @ third).astype(np.int64).reshape(-1, n, size)
            best = max(best, int(reduce_(t_block).max()))
    return Fraction((1 << d) * best, (1 << d) ** k)


# every case the all-pairs reference finishes in under a second
@pytest.mark.parametrize("k,mode,d", [
    (3, "parallel", 1), (3, "sequential", 1),
    (4, "parallel", 1), (4, "sequential", 1),
    (3, "parallel", 2), (3, "sequential", 2),
    (4, "sequential", 2),
])
def test_repeated_value_matches_all_pairs_reference(k, mode, d):
    assert ghz_value_bruteforce(k, mode, d) == _repeated_value_all_pairs(k, mode, d)


@pytest.mark.parametrize("mode,d,distinct", [
    ("parallel", 1, None), ("sequential", 1, None),
    ("parallel", 2, 1864), ("sequential", 2, 160),
])
def test_distinct_pair_convolutions_cover_every_ordered_pair(mode, d, distinct):
    vecs, conv_all, _ = _search_inputs(mode, d)
    n, size = vecs.shape
    circulants = conv_all.transpose(2, 0, 1).reshape(size, n * size)
    rows = _distinct_pair_convolutions(vecs, circulants.astype(np.float32))
    got = {tuple(r) for r in rows.tolist()}
    assert len(got) == len(rows)
    assert got == {tuple(r) for r in _all_ordered_pairs(vecs, conv_all).tolist()}
    if distinct is not None:
        assert len(rows) == distinct


def test_repeated_value_matches_strategy_scores_d1():
    # the searched optimum must be attained by some explicit strategy tuple
    value = ghz_value_bruteforce(4, "parallel", 1)
    best = max(ghz_strategy_score([s1, s2, s3, s4], 1)
               for s1 in all_tables(1) for s2 in all_tables(1)
               for s3 in all_tables(1) for s4 in all_tables(1))
    assert best == value


def test_search_ceilings():
    with pytest.raises(SearchSpaceTooLarge):
        ghz_value_bruteforce(4, "parallel", 3)
    with pytest.raises(SearchSpaceTooLarge):
        ghz_value_bruteforce(5, "parallel", 2)


def test_strategy_score_evaluators_agree():
    gen = np.random.default_rng(0)
    for d in (1, 2):
        for k in (3, 4):
            for _ in range(5):
                tables = [gen.integers(0, 2, size=(1 << d, d)).astype(np.uint8)
                          for _ in range(k)]
                assert ghz_strategy_score(tables, d) == \
                    ghz_strategy_score_enum(tables, d)


# --- the four-to-three reduction ----------------------------------------------

def test_reduction_preserves_score_exactly():
    gen = np.random.default_rng(1)
    for d in (1, 2):
        for _ in range(4):
            tables = [gen.integers(0, 2, size=(1 << d, d)).astype(np.uint8)
                      for _ in range(4)]
            four = ghz_strategy_score(tables, d)
            avg = Fraction(0)
            for t_idx in range(1 << d):
                three = reduce_ghz4_to_ghz3(tables, bits_of(t_idx, d))
                avg += ghz_strategy_score(three, d)
            assert avg / (1 << d) == four


def test_reduction_of_optimal_strategy_hits_three_quarters():
    tables = [np.array([[0], [0]], dtype=np.uint8),
              np.array([[0], [0]], dtype=np.uint8),
              np.array([[0], [1]], dtype=np.uint8),
              np.array([[0], [1]], dtype=np.uint8)]
    assert ghz_strategy_score(tables, 1) == Fraction(3, 4)
    scores = [ghz_strategy_score(reduce_ghz4_to_ghz3(tables, bits_of(t, 1)), 1)
              for t in range(2)]
    assert max(scores) >= Fraction(3, 4)


def test_reduction_all_zero_average():
    tables = [np.zeros((2, 1), dtype=np.uint8) for _ in range(4)]
    four = ghz_strategy_score(tables, 1)
    avg = sum(ghz_strategy_score(reduce_ghz4_to_ghz3(tables, bits_of(t, 1)), 1)
              for t in range(2)) / 2
    assert avg == four


# --- parity-balanced sets ------------------------------------------------------

def test_embedded_binary_cube_gives_zero_strategy():
    d = 2
    els = [bits_of(i, d).astype(np.int64) for i in range(4)]
    ps = ParityBalancedSet.from_elements(d, np.stack(els))
    assert (strategy_from_parity_set(ps) == 0).all()


def test_parity_set_example_d1():
    ps = ParityBalancedSet.from_elements(1, np.array([[2], [1]]))
    table = strategy_from_parity_set(ps)
    assert table[0, 0] == 1 and table[1, 0] == 0
    assert parity_set_from_strategy(table).elements.tolist() == \
        ps.elements.tolist()


def test_parity_set_round_trip_random():
    gen = np.random.default_rng(2)
    for d in (1, 2, 3):
        for _ in range(10):
            table = gen.integers(0, 2, size=(1 << d, d)).astype(np.uint8)
            ps = parity_set_from_strategy(table)
            np.testing.assert_array_equal(strategy_from_parity_set(ps), table)


@given(st.integers(min_value=0, max_value=2 ** 8 - 1),
       st.integers(min_value=1, max_value=2))
def test_parity_set_round_trip_property(bits, d):
    rows = 1 << d
    table = np.array([[(bits >> (i * d + j)) & 1 for j in range(d)]
                      for i in range(rows)], dtype=np.uint8)
    ps = parity_set_from_strategy(table)
    np.testing.assert_array_equal(strategy_from_parity_set(ps), table)
    # every element reduces to its own residue class
    for i in range(rows):
        np.testing.assert_array_equal(ps.elements[i] % 2, bits_of(i, d))


def test_not_parity_balanced_rejected():
    with pytest.raises(NotParityBalanced):
        ParityBalancedSet.from_elements(1, np.array([[0], [2]]))


def test_eta_equals_mirrored_strategy_score():
    gen = np.random.default_rng(3)
    for d in (1, 2):
        for _ in range(6):
            table = gen.integers(0, 2, size=(1 << d, d)).astype(np.uint8)
            ps = parity_set_from_strategy(table)
            neg = ps.negated()
            score = ghz_strategy_score(
                [strategy_from_parity_set(s) for s in (ps, ps, neg, neg)], d)
            assert ps.eta() == score


def test_parity_balanced_indicator_is_uniform():
    gen = np.random.default_rng(4)
    for d in (1, 2):
        table = gen.integers(0, 2, size=(1 << d, d)).astype(np.uint8)
        ps = parity_set_from_strategy(table)
        f = GroupFunction(Group(4, d), ps.subset().mask.astype(complex))
        assert abs(uniformity_nu(f) - 1.0) < 1e-12


def test_max_eta_bounds():
    assert max_eta_parity_balanced(1, True) <= Fraction(3, 4)
    assert max_eta_parity_balanced(2, True) <= Fraction(9, 16)
    assert max_eta_parity_balanced(1, False) <= ghz_value_bruteforce(4, "parallel", 1)
    with pytest.raises(SearchSpaceTooLarge):
        max_eta_parity_balanced(3, True)


def test_time_ordered_table_check():
    tables = _tables(2, 2, True)
    # output bit 0 reads 1 input bit, output bit 1 reads 2: 2^2 * 2^4 tables
    assert len(tables) == 64
    assert len({t.tobytes() for t in tables}) == 64
    good = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert any(np.array_equal(t, good) for t in tables)
    bad = good.copy()
    bad[0, 0] = 1  # first output bit now depends on the second input bit
    assert not any(np.array_equal(t, bad) for t in tables)


@pytest.mark.parametrize("d,width", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_tables_match_definition(d, width):
    # every map {0,1}^d -> {0,1}^width, and those whose output bit i < d
    # reads input bits 0..i only, each exactly once
    every = [np.array(rows, dtype=np.uint8) for rows in itertools.product(
        itertools.product((0, 1), repeat=width), repeat=1 << d)]

    def time_ordered(t):
        return all(t[x, i] == t[x & ((2 << i) - 1), i]
                   for x in range(1 << d) for i in range(min(d, width)))

    for ordered in (False, True):
        got = [t.tobytes() for t in _tables(d, width, ordered)]
        want = {t.tobytes() for t in every if not ordered or time_ordered(t)}
        assert len(got) == len(set(got)) and set(got) == want


# --- the claw game -----------------------------------------------------------

def test_j_sample_inputs_contract():
    rng = Rng(5)
    counts = {}
    gen = rng.stream("inputs")
    for _ in range(10_000):
        x, y = j_sample_inputs(1, gen)
        assert x[-1] == 1 and y[-1] == 1
        counts[(x[0], y[0])] = counts.get((x[0], y[0]), 0) + 1
    from scipy.stats import chisquare
    stat = chisquare(list(counts.values()))
    assert stat.pvalue > 1e-3
    a = [j_sample_inputs(1, Rng(5).stream("z")) for _ in range(1)]
    b = [j_sample_inputs(1, Rng(5).stream("z")) for _ in range(1)]
    assert np.array_equal(a[0][0], b[0][0]) and np.array_equal(a[0][1], b[0][1])


def test_j_score_examples():
    assert j_score([1, 1], [0, 1], [0, 0], [0, 0]) == 1
    assert j_score([1, 1], [1, 1], [0, 0], [0, 1]) == 1
    assert j_score([0, 1], [0, 1], [0, 0], [0, 1]) == -1
    with pytest.raises(ValueError):
        j_score([1, 1], [0, 1], [0], [0, 0])


def test_j_score_batched_matches_scalar():
    gen = np.random.default_rng(3)
    x, y, a, b = gen.integers(0, 2, size=(4, 50, 4))
    got = j_score(x, y, a, b)
    assert got.shape == (50,)
    for t in range(50):
        want = j_score(x[t], y[t], a[t], b[t])
        assert isinstance(want, int) and got[t] == want
    # the question-by-answer grid that j_bias_bruteforce scores at d = 2
    xs = np.array([np.append((i >> np.arange(2)) & 1, 1) for i in range(4)])
    outs = (np.arange(8)[:, None] >> np.arange(3)) & 1
    grid = j_score(xs[:, None, None, None], xs[None, :, None, None],
                   outs[None, None, :, None], outs[None, None, None, :])
    assert grid.shape == (4, 4, 8, 8)
    for i, j, k, l in itertools.product(range(4), range(4), range(8), range(8)):
        assert grid[i, j, k, l] == j_score(xs[i], xs[j], outs[k], outs[l])


def _j_bias_oracle_d1():
    """Second enumeration with the loops permuted (second player outermost)."""
    inputs = [np.array([b, 1], dtype=np.uint8) for b in (0, 1)]
    outs = [np.array(bits, dtype=np.uint8)
            for bits in itertools.product((0, 1), repeat=2)]
    best = Fraction(0)
    for bob in itertools.product(range(4), repeat=2):
        for alice in itertools.product(range(4), repeat=2):
            total = sum(j_score(x, y, outs[alice[ix]], outs[bob[iy]])
                        for iy, y in enumerate(inputs)
                        for ix, x in enumerate(inputs))
            best = max(best, abs(Fraction(total, 4)))
    return best


def test_j_bias_matches_independent_oracle_d1():
    assert j_bias_bruteforce(1) == _j_bias_oracle_d1()


def test_j_bias_sequential_bounds():
    assert j_bias_bruteforce(1, True) <= j_bias_bruteforce(1, False)
    seq2 = j_bias_bruteforce(2, True)
    assert seq2 <= j_bias_bruteforce(2, False)
    assert float(seq2) <= 2 * (3 / 4) ** (2 / 4)
    with pytest.raises(SearchSpaceTooLarge):
        j_bias_bruteforce(3)


def _all_strategies(d):
    outs = [bits_of(i, d + 1) for i in range(1 << (d + 1))]
    for combo in itertools.product(range(1 << (d + 1)), repeat=1 << d):
        yield DeterministicStrategy(d, np.stack([outs[c] for c in combo]))


def test_fourier_identity_exhaustive_d1():
    for s in _all_strategies(1):
        for t in _all_strategies(1):
            res = j_bias_fourier_identity(s, t)
            assert res.identity_holds
            assert res.chain_holds


def test_fourier_identity_all_zero():
    z = DeterministicStrategy(1, np.zeros((2, 2), dtype=np.uint8))
    res = j_bias_fourier_identity(z, z)
    assert res.direct == Fraction(1, 2)
    assert abs(res.fourier - 0.5) < 1e-9


def test_fourier_identity_random_d2():
    gen = np.random.default_rng(6)
    for _ in range(100):
        s = DeterministicStrategy(2, gen.integers(0, 2, size=(4, 3)).astype(np.uint8))
        t = DeterministicStrategy(2, gen.integers(0, 2, size=(4, 3)).astype(np.uint8))
        res = j_bias_fourier_identity(s, t)
        assert res.identity_holds and res.chain_holds
