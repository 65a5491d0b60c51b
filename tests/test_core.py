import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poqlab import core
from poqlab.core import (InvalidDeskParams, NoPrimeInRange, Params, Rng,
                         balanced, balanced_abs, binary_repr, derive_params,
                         desk_params, find_prime, is_prime, matmul_mod,
                         norminf)
from poqlab.protocol import run_game_r

from oracles import binary_parse, bit_select

SRC = str(Path(__file__).resolve().parents[1] / "src")


# --- balanced absolute value -------------------------------------------------

def test_balanced_abs_examples():
    assert balanced_abs(1, 5) == 1
    assert balanced_abs(4, 5) == 1
    assert balanced_abs(2, 5) == 2
    assert balanced_abs(3, 5) == 2
    assert balanced_abs(0, 97) == 0


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=3, max_value=10 ** 9))
def test_balanced_abs_symmetry(x, q):
    x %= q
    if q % 2 == 0:
        # an even modulus has no balanced representative
        for fn in (balanced, balanced_abs, norminf):
            with pytest.raises(ValueError):
                fn(x, q)
        return
    assert balanced_abs(x, q) == balanced_abs((q - x) % q, q)
    assert balanced_abs(x, q) <= (q - 1) // 2


def test_balanced_representative():
    assert balanced(3, 5) == -2
    assert balanced(2, 5) == 2
    np.testing.assert_array_equal(balanced(np.array([0, 1, 4]), 5),
                                  np.array([0, 1, -1]))


# --- norms -------------------------------------------------------------------

def test_norm_examples():
    assert norminf(np.array([1, 4, 2]), 5) == 2
    assert norminf(np.zeros(3, dtype=np.int64), 5) == 0
    assert norminf(np.array([6]), 7) == 1


# --- binary representation ---------------------------------------------------

def test_binary_repr_examples():
    assert "".join(map(str, binary_repr(5, 4))) == "0101"
    assert "".join(map(str, binary_repr(0, 4))) == "0000"
    assert "".join(map(str, binary_repr(np.array([5, 1]), 4))) == "01010001"
    rows = binary_repr(np.array([[5, 1], [0, 3]]), 4)   # leading axes kept
    assert ["".join(map(str, row)) for row in rows] == ["01010001", "00000011"]


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_binary_repr_round_trip(x):
    assert binary_parse(binary_repr(x, 20)) == x


def test_binary_repr_injective_on_range():
    q = 11
    width = 4
    seen = {tuple(binary_repr(x, width)) for x in range(q)}
    assert len(seen) == q


def test_bit_select_is_one_based():
    bits = binary_repr(np.array([5, 1]), 4)  # 01010001
    assert bit_select(bits, 1) == 0
    assert bit_select(bits, 2) == 1
    np.testing.assert_array_equal(bit_select(bits, [2, 4, 8]),
                                  np.array([1, 1, 1], dtype=np.uint8))


# --- primality ---------------------------------------------------------------

def _trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_find_prime_against_trial_division():
    assert find_prime(64, 128) == 67
    assert find_prime(8, 16) == 11
    for lo, hi in [(100, 200), (5000, 5100), (262144, 262200)]:
        p = find_prime(lo, hi)
        assert _trial_division_prime(p)
        assert all(not _trial_division_prime(c) or c % 2 == 0
                   for c in range(lo, p))


def test_find_prime_empty_range():
    with pytest.raises(NoPrimeInRange):
        find_prime(90, 96)


def test_is_prime_spot_checks():
    assert is_prime(134_217_689)
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(91)
    assert all(is_prime(n) == _trial_division_prime(n) for n in range(2, 2000))


# --- parameter derivation ----------------------------------------------------

def test_paper_asymptotic_lambda_64():
    p = derive_params(lam=64)
    assert p.q == find_prime(64 ** 3, 2 * 64 ** 3)
    assert p.Q == 19
    assert p.m == 39 * 64
    assert p.n == 64
    assert p.sigma == 8.0
    assert p.tau == p.q // (4 * p.m * p.Q)


def test_paper_asymptotic_lambda_4_not_runnable():
    p = derive_params(lam=4)
    assert p.q == 67 and p.Q == 7 and p.m == 60
    assert p.tau == 0
    assert p.runnability_problems()
    assert any("tau" in reason for reason in p.runnability_problems())


def test_desk_example_accepted():
    p = desk_params(n=64, q=524309, d=6, sigma=1.0)
    assert p.tau >= 1 and p.sigma <= p.tau
    assert not p.runnability_problems()


def test_desk_validation_rejects():
    with pytest.raises(InvalidDeskParams):
        desk_params(n=4, q=67, d=2, sigma=1.0)  # tau = 0
    with pytest.raises(InvalidDeskParams):
        desk_params(n=64, q=524309, d=6, sigma=10.0)  # sigma>tau
    with pytest.raises(InvalidDeskParams,
                       match=r"^d = 0 \(no question bit besides the final 1\)$"):
        desk_params(d=0)  # the game needs a free question bit


@pytest.mark.parametrize("n, d, message", [
    (0, 0, "n must be at least 1, got 0"),
    (-3, -4, "n must be at least 1, got -3"),
    (8, -1, "d must be at least 0, got -1"),
])
def test_params_reject_sizes_without_a_game(n, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Params(n=n, q=134_217_689, d=d, sigma=0.35)


def test_default_desk_margins():
    p = desk_params()
    assert not p.runnability_problems()
    assert 4 * p.gadget_bound < p.q
    assert 6 * p.gadget_bound < p.q  # margin the decoder relies on
    bound_e, bound_f = p.event_bounds()
    assert bound_e > 0.95 and bound_f > 0.999


@given(st.integers(min_value=3, max_value=2 ** 40),
       st.integers(min_value=1, max_value=1024))
@settings(max_examples=300, deadline=None)
def test_every_params_leaves_the_decode_its_margin(lo, n):
    # tau = floor(q / (4 m Q)) keeps 6B < q wherever tau >= 1, and tau = 0
    # makes B = 0, so runnability_problems has no margin of its own to check
    p = Params(n=n, q=find_prime(lo, 2 * lo), d=1, sigma=1.0)
    if p.tau >= 1:
        assert 6 * p.gadget_bound < p.q
    else:
        assert p.gadget_bound == 0


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"),
                                   float("-inf"), 0.0, -0.35])
def test_params_reject_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError,
                       match=f"^sigma must be finite and positive, got {sigma}$"):
        Params(n=8, q=134_217_689, d=4, sigma=sigma)


@pytest.mark.parametrize("total, per_item, entries", [
    (0, 3, 8), (1, 3, 8), (10, 3, 8), (10, 9, 8), (9, 1, 3), (5, 2, 1 << 20),
])
def test_scan_blocks_tile_the_range(monkeypatch, total, per_item, entries):
    monkeypatch.setattr(core, "_SCAN_ENTRIES", entries)
    blocks = list(core._scan_blocks(total, per_item))
    assert [i for block in blocks for i in block] == list(range(total))
    assert all(1 <= len(block) <= max(entries // per_item, 1)
               for block in blocks)
    assert all(len(block) == max(entries // per_item, 1)
               for block in blocks[:-1])


def test_params_reject_composite_modulus():
    with pytest.raises(ValueError):
        Params(n=4, q=91, d=2, sigma=1.0)


# --- randomness --------------------------------------------------------------

def test_rng_streams_replay_byte_identical():
    a = Rng(123).stream("trial", 7).bytes(64)
    b = Rng(123).stream("trial", 7).bytes(64)
    assert a == b


def test_rng_streams_independent():
    base = Rng(123)
    assert base.stream("trial", 7).bytes(32) != base.stream("trial", 8).bytes(32)
    assert base.stream("trial", 7).bytes(32) != base.stream("other", 7).bytes(32)
    assert Rng(124).stream("trial", 7).bytes(32) != base.stream("trial", 7).bytes(32)


def _key(gen) -> tuple[int, int]:
    return tuple(int(w) for w in gen.bit_generator.state["state"]["key"])


@pytest.mark.parametrize("seed", [0, 1 << 32, (1 << 64) - 1, -1])
def test_rng_stream_key_is_the_digest(seed):
    # the Philox key is the first 16 bytes of SHA-256("seed:label:index"),
    # as two little-endian uint64; a negative seed aliases its 64-bit
    # two's complement, so -1 names the same streams as 2^64 - 1
    text = f"{seed & ((1 << 64) - 1)}:gameR/inputs:3".encode()
    digest = hashlib.sha256(text).digest()
    want = (int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:16], "little"))
    gen = Rng(seed).stream("gameR/inputs", 3)
    assert _key(gen) == want
    assert gen.bit_generator.state["state"]["counter"].tolist() == [0] * 4
    if seed == -1:
        assert gen.bytes(32) == Rng((1 << 64) - 1).stream(
            "gameR/inputs", 3).bytes(32)


def test_rng_stream_keys_distinct_across_an_honest_run(monkeypatch):
    # every (label, index) a 1,000-trial honest game derives owns its key
    keys = {}
    stream = Rng.stream

    def recording(self, label, index=0):
        gen = stream(self, label, index)
        keys[label, index] = _key(gen)
        return gen

    monkeypatch.setattr(Rng, "stream", recording)
    run_game_r("honest", desk_params(), 1000, Rng(2024))
    assert len(keys) >= 4000
    assert len(set(keys.values())) == len(keys)


def test_rng_stream_key_refuses_words_past_the_digest():
    key = Rng(5).stream("x").bit_generator.seed_seq
    assert key.generate_state(4, np.uint64).tobytes() == key.digest
    assert key.generate_state(8, np.uint32).tobytes() == key.digest
    for n_words, dtype in ((5, np.uint64), (9, np.uint32)):
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)


def test_import_leaves_numpy_random_unimported():
    # numpy.random is imported on the first stream, not by importing poqlab
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("import sys, poqlab, poqlab.cli; "
            "assert 'numpy.random' not in sys.modules, 'imported'")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


# --- modular matmul ----------------------------------------------------------

def test_matmul_mod_matches_bigint_oracle():
    rng = np.random.default_rng(1)
    q = 2_147_483_647  # large enough to force per-column chunking
    a = rng.integers(0, q, size=(5, 7)).astype(object)
    b = rng.integers(0, q, size=(7, 3)).astype(object)
    want = (a @ b) % q
    got = matmul_mod(a.astype(np.int64), b.astype(np.int64), q)
    assert (got == want.astype(np.int64)).all()
    # leading axes broadcast as in np.matmul, chunks and all
    a3 = rng.integers(0, q, size=(4, 2, 7)).astype(object)
    b3 = rng.integers(0, q, size=(4, 7, 3)).astype(object)
    want = np.array([(x @ y) % q for x, y in zip(a3, b3)])
    got = matmul_mod(a3.astype(np.int64), b3.astype(np.int64), q)
    assert (got == want.astype(np.int64)).all()
    with pytest.raises(ValueError):
        matmul_mod(np.ones((2, 2), dtype=np.int64),
                   np.ones((2, 2), dtype=np.int64), 1 << 62)
