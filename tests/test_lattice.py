import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poqlab import lattice
from poqlab.core import Params, Rng, balanced, derive_params, desk_params
from poqlab.lattice import (_TRITS, GaussianSampler, ZqArray, _gadget,
                            _ternary_draw, _ternary_matmul_mod,
                            commitment_shifts, decrypt, encrypt, gen_trap,
                            honest_e_log_rate, honest_e_rate, invert)

from oracles import (RejectionGaussianSampler, gaussian_pmf, gen_trap_oracle,
                     lwe_oracle, solve_linear_mod, zq_add, zq_matmul)

PARAMS = desk_params()


def stream(label, idx=0, seed=99):
    return Rng(seed).stream(label, idx)


# --- discrete Gaussian ---------------------------------------------------------

def test_tiny_sigma_concentrates_at_zero():
    s = GaussianSampler(0.1, tau=1)
    assert gaussian_pmf(s, 0) > 0.9999
    draws = s.sample(stream("g0"), size=2000)
    assert (draws == 0).all()


@pytest.mark.parametrize("sigma", [1e-160, 1e-300, 5e-324])
def test_underflowing_sigma_gives_the_point_mass(sigma):
    # 2 sigma^2 overflows the exponent or underflows to 0; the table is
    # still finite, with no floating-point warning even where numpy raises
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        s = GaussianSampler(sigma, tau=10)
    np.testing.assert_array_equal(s.pmf, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(s.support, [-1, 0, 1])


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
def test_sampler_rejects_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        GaussianSampler(sigma, tau=10)


def test_mean_absolute_value_below_sigma():
    # per-coordinate first-moment bound, checked empirically
    for sigma in (0.35, 1.0, 3.0):
        s = GaussianSampler(sigma, tau=math.ceil(8 * sigma))
        draws = s.sample(stream(f"g{sigma}"), size=100_000)
        mean_abs = np.abs(draws).mean()
        se = np.abs(draws).std(ddof=1) / np.sqrt(len(draws))
        assert mean_abs <= sigma + 3 * se


def test_truncation_contract():
    s = GaussianSampler(5.0, tau=2)
    draws = s.sample(stream("trunc"), size=5000)
    assert np.abs(draws).max() <= 2
    # truncated pmf renormalizes over [-tau, tau]
    total = sum(gaussian_pmf(s, j) for j in range(-2, 3))
    assert abs(total - 1.0) < 1e-12
    assert gaussian_pmf(s, 3) == 0.0


def test_pmf_matches_direct_formula():
    sigma = 1.3
    s = GaussianSampler(sigma, tau=math.ceil(8 * sigma))
    support = np.arange(-15, 16)
    weights = np.exp(-(support.astype(float) ** 2) / (2 * sigma ** 2))
    for j in (-3, -1, 0, 2, 5):
        want = float(weights[support == j][0] / weights.sum())
        assert abs(gaussian_pmf(s, j) - want) < 1e-12


@pytest.mark.parametrize("sigma, tau", [(0.35, 2824), (5.0, 2), (1.3, 3),
                                        (0.1, 1)])
def test_sampler_table_draws_and_law(sigma, tau):
    s = GaussianSampler(sigma, tau)
    # the table is the law the rejection sampler drew, conditioned on
    # |j| <= tau
    reference = RejectionGaussianSampler(sigma, tau)
    np.testing.assert_array_equal(s.support, reference.support)
    np.testing.assert_allclose(s.pmf, reference.pmf, rtol=0, atol=1e-15)
    # one uniform per entry: the stream moves on exactly as random(k) moves
    # a twin stream
    rng, twin = stream("inv"), stream("inv")
    s.sample(rng, 37)
    twin.random(37)
    assert rng.random() == twin.random()
    # and the draws follow the table
    trials = 40_000
    draws = s.sample(stream("inv-law"), trials)
    counts = (draws[:, None] == s.support).sum(axis=0)
    assert counts.sum() == trials
    freq = counts / trials
    stderr = np.sqrt(s.pmf * (1 - s.pmf) / trials)
    assert (np.abs(freq - s.pmf) <= 4 * stderr).all()


class _LargestUniform:
    """A stub generator whose random(size) returns the largest value
    Generator.random can return, 1 - 2^-53."""

    def random(self, size):
        return np.full(size, 1 - 2.0 ** -53)


def test_largest_uniform_lands_on_the_table():
    # at this sigma the summed pmf ends at 1 - 2^-52, below the largest
    # uniform; the rejection sampler indexed past its table on it
    sigma = 0.13743435858964742
    s = GaussianSampler(sigma, tau=2)
    assert np.cumsum(s.pmf)[-1] < 1 - 2.0 ** -53
    with pytest.raises(IndexError):
        RejectionGaussianSampler(sigma, tau=2).sample(_LargestUniform(), 3)
    np.testing.assert_array_equal(s.sample(_LargestUniform(), 3), [2, 2, 2])


@given(st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_truncated_sampler_respects_radius(sigma, tau, seed):
    draws = GaussianSampler(sigma, tau=tau).sample(
        np.random.default_rng(seed), size=20)
    assert np.abs(draws).max() <= tau


# --- trapdoor ------------------------------------------------------------------

def test_gen_trap_dimensions():
    for params in (PARAMS, desk_params(d=16, n=16)):
        a, trap = gen_trap(params, stream("gt"))
        assert a.shape == (params.m, params.n)
        assert a.shape[0] == (2 * params.Q + 1) * params.n
        assert trap.r.shape == (params.Q * params.n, (params.Q + 1) * params.n)
        assert set(np.unique(trap.r)) <= {-1, 0, 1}
        assert trap.r.dtype == np.float64  # drawn as float64, for the BLAS products
        # neither preset's R fills whole bytes: the last byte's trits are trimmed
        assert trap.r.size % 5
        # A's bottom block is G - R Abar, Abar its top block
        top = (params.Q + 1) * params.n
        np.testing.assert_array_equal(
            a.values[top:],
            (_gadget(params) - trap.r.astype(np.int64) @ a.values[:top])
            % params.q)
        # equal streams give equal matrices and keys
        again_a, again = gen_trap(params, stream("gt"))
        np.testing.assert_array_equal(a.values, again_a.values)
        np.testing.assert_array_equal(trap.r, again.r)


def _recorded_steps(monkeypatch):
    """Every (work per row, rows per block) that lattice._block_rows gives
    from now on, in order."""
    seen, block_rows = [], lattice._block_rows

    def recording(row_work):
        seen.append((row_work, block_rows(row_work)))
        return seen[-1][1]

    monkeypatch.setattr(lattice, "_block_rows", recording)
    return seen


def _assert_blocks(seen, rows, row_work, work, blocks):
    # one product, in blocks of a multiple of five rows (so each block of R
    # starts on a whole byte) within the work bound; the last block holds
    # what is left
    [(got_work, step)] = seen
    assert got_work == row_work and step % 5 == 0
    assert step * row_work <= work
    assert -(-rows // step) == blocks


@pytest.mark.parametrize("params, blocks",
                         [(PARAMS, 1), (desk_params(d=8), 1),
                          (desk_params(d=16, n=16), 7)],
                         ids=["desk", "d8", "d16n16"])
def test_gen_trap_equals_stacked_form(params, blocks, monkeypatch):
    # A assembled in place equals vstack([Abar, (G - R Abar) % q]) drawn
    # from the same stream with R drawn whole, and the trapdoor is the
    # same; A is canonical before ZqArray sees it, so ZqArray only scans
    # it.  R is expanded and multiplied in row blocks within the work
    # bound, and the generator is left where the whole draw leaves it
    handed = []

    def recording(q, values):
        handed.append(values.copy())
        return ZqArray(q, values)

    monkeypatch.setattr(lattice, "ZqArray", recording)
    seen = _recorded_steps(monkeypatch)
    gen, ref = stream("stacked"), stream("stacked")
    a, trap = gen_trap(params, gen)
    assert handed[0].min() >= 0 and handed[0].max() < params.q
    want, want_trap = gen_trap_oracle(params, ref)
    assert a.values.dtype == np.int64
    np.testing.assert_array_equal(a.values, want.values)
    np.testing.assert_array_equal(trap.r, want_trap.r)
    assert gen.bytes(32) == ref.bytes(32)
    rows, cols = trap.r.shape
    _assert_blocks(seen, rows, cols * params.n, lattice._PRODUCT_WORK, blocks)


def test_trit_table_holds_each_ternary_string_once():
    assert _TRITS.shape == (243, 5) and _TRITS.dtype == np.float64
    assert not _TRITS.flags.writeable
    rows = sorted(map(tuple, _TRITS.astype(int)))
    assert rows == list(itertools.product((-1, 0, 1), repeat=5))


def _trits_oracle(byte_values, count):
    """The first count trits of a byte sequence, five per byte below 243
    (least significant base-3 digit first, minus one), in a Python loop."""
    trits = []
    for b in byte_values:
        if b < 243:
            trits.extend((b // 3 ** i) % 3 - 1 for i in range(5))
    assert len(trits) >= count
    return np.array(trits[:count], dtype=np.float64)


class _RejectedBytesFirst:
    """A generator whose first bytes() call returns bytes of 243 or more,
    all of them (whole=True) or all but its last ten; later calls come from
    gen.  Records every byte it hands out."""

    def __init__(self, gen, whole):
        self.gen, self.whole, self.handed = gen, whole, []

    def bytes(self, length):
        if self.handed:
            out = self.gen.bytes(length)
        else:
            high = bytes(range(243, 256)) * length
            out = (high[:length] if self.whole
                   else high[:length - 10] + bytes(range(100, 110)))
        self.handed.append(out)
        return out


@pytest.mark.parametrize("whole", [True, False], ids=["all", "partly"])
def test_ternary_draw_rejection_loop(whole):
    count = 63  # 13 kept bytes, the last one's trits trimmed to three
    stub = _RejectedBytesFirst(stream("rej"), whole)
    kept = _ternary_draw(stub, count)
    assert len(stub.handed) == 2
    assert kept.dtype == np.uint8 and len(kept) == 13
    want = _trits_oracle(b"".join(stub.handed), count)
    np.testing.assert_array_equal(_TRITS[kept].reshape(-1)[:count], want)
    if whole:  # the retry asks as many bytes as an unstubbed first call
        np.testing.assert_array_equal(kept, _ternary_draw(stream("rej"), count))


def test_ternary_draw_law():
    # each kept byte expands to trits uniform on {-1, 0, 1}, and adjacent
    # trits are independent both within one byte's five and across a byte
    # boundary
    from scipy.stats import chisquare
    count = 432 * 448
    kept = _ternary_draw(stream("law"), count)
    assert len(kept) == -(-count // 5) and kept.max() < 243
    trits = (_TRITS[kept].reshape(-1)[:count] + 1).astype(int)
    assert chisquare(np.bincount(trits, minlength=3)).pvalue > 1e-3
    first = np.arange(len(trits) - 1)
    for starts in (first[first % 5 != 4], first[first % 5 == 4]):
        pairs = 3 * trits[starts] + trits[starts + 1]
        assert chisquare(np.bincount(pairs, minlength=9)).pvalue > 1e-3


def _recorded_numpy_calls(monkeypatch):
    """("take", bytes expanded) and ("product", rows) for every np.take and
    np.matmul call from now on, in order."""
    calls, take, matmul = [], np.take, np.matmul

    def recording_take(a, indices, *args, **kwargs):
        calls.append(("take", len(indices)))
        return take(a, indices, *args, **kwargs)

    def recording_matmul(a, b, *args, **kwargs):
        calls.append(("product", len(a)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    monkeypatch.setattr(np, "matmul", recording_matmul)
    return calls


@pytest.mark.parametrize("work, step", [(5 * 224 * 8, 5),
                                        (15 * 224 * 8 - 1, 10)],
                         ids=["5-row", "10-row"])
def test_gen_trap_many_blocks_equal_whole_draw(work, step, monkeypatch):
    # at desk R is 216 x 224, 48,384 trits: with the bound cut to blocks of
    # 5 (or 10) rows, each block's bytes are expanded just before that
    # block is multiplied, each block starts on its own byte, and the last
    # block is 1 (or 6) rows with four trits of its last byte kept
    monkeypatch.setattr(lattice, "_PRODUCT_WORK", work)
    gen, ref = stream("many"), stream("many")
    want, want_trap = gen_trap_oracle(PARAMS, ref)
    with monkeypatch.context() as patch:
        calls = _recorded_numpy_calls(patch)
        a, trap = gen_trap(PARAMS, gen)
    np.testing.assert_array_equal(a.values, want.values)
    np.testing.assert_array_equal(trap.r, want_trap.r)
    assert gen.bytes(32) == ref.bytes(32)
    assert trap.r.shape == (216, 224) and trap.r.size % 5 == 4
    last = 216 % step
    want_calls = [("take", step * 224 // 5), ("product", step)] * (216 // step)
    want_calls += [("take", -(-last * 224 // 5)), ("product", last)]
    assert calls == want_calls
    assert step * 224 * PARAMS.n <= work


def test_recombine_row_blocks_at_separation_scale():
    # at d = n = 24, q = 2^31 - 1 the product of R (744 x 768) with the tops
    # of two targets is 1.1M multiply-adds: it runs in blocks of 340 rows,
    # each within the work bound, and each target recombines as
    # R t_top + t_bottom in exact int64
    params = Params(n=24, q=(1 << 31) - 1, d=24, sigma=24 ** 0.5)
    gen = stream("recombine")
    _, trap = gen_trap(params, gen)
    targets = gen.integers(0, params.q, size=(2, params.m), dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        calls = _recorded_numpy_calls(patch)
        got = lattice.recombine(trap, targets, params)
    top = (params.Q + 1) * params.n
    want = (targets[:, :top] @ trap.r.astype(np.int64).T
            + targets[:, top:]) % params.q
    np.testing.assert_array_equal(got, want)
    assert calls == [("product", 340), ("product", 340), ("product", 64)]
    assert 340 * 768 * 2 <= lattice._PRODUCT_WORK


def test_gen_trap_peak_memory():
    # R is drawn straight into float64: no int64 twin of R is ever held
    params = desk_params(d=16, n=16)
    gen_trap(params, stream("mem"))  # per-Params caches built outside
    tracemalloc.start()
    try:
        _, trap = gen_trap(params, stream("mem"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * trap.r.nbytes


@pytest.mark.parametrize("params", [PARAMS, desk_params(d=16, n=16)],
                         ids=["desk", "separation"])
def test_ternary_product_is_exact(params):
    # R Abar and R v_top against Python integers and against int64, at the
    # largest partial sums the presets allow (R all +1 or all -1 against
    # residues all q - 1), at negative sums that are exact multiples of q
    # (q - 1 and 1 alternating), and at zero
    q, rows, inner = params.q, params.Q * params.n, (params.Q + 1) * params.n
    assert inner * q < 2 ** 53
    gen = stream("tern")
    rs = [np.ones((rows, inner)), -np.ones((rows, inner)),
          gen.integers(-1, 2, size=(rows, inner)).astype(np.float64)]
    alternating = np.where(np.arange(inner) % 2, 1, q - 1)
    operands = [np.full((inner, 2), q - 1, dtype=np.int64),
                np.full(inner, q - 1, dtype=np.int64),
                np.stack([alternating, np.zeros(inner, dtype=np.int64)], axis=1),
                gen.integers(0, q, size=(inner, params.n), dtype=np.int64)]
    for r in rs:
        for x in operands:
            want = (r.astype(np.int64).astype(object) @ x.astype(object)) % q
            got = _ternary_matmul_mod(r, x, q)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want.astype(np.int64))
            # |r @ x| < inner q < 2^53, so int64 sums are exact too
            np.testing.assert_array_equal(got, (r.astype(np.int64) @ x) % q)


def test_ternary_product_bound_guard():
    # exact while inner * q < 2^53, refused from 2^53 on
    inner = 16
    x = np.full(inner, (1 << 49) - 2, dtype=np.int64)
    for sign in (1, -1):
        r = np.full((2, inner), float(sign))
        np.testing.assert_array_equal(
            _ternary_matmul_mod(r, x, (1 << 49) - 1),
            (sign * inner * ((1 << 49) - 2)) % ((1 << 49) - 1))
        with pytest.raises(ValueError, match="2\\^53"):
            _ternary_matmul_mod(r, x, 1 << 49)


@pytest.mark.parametrize("q", [3, 7, 134_217_689])
def test_residual_norms_equal_the_reduced_balanced_residue(q):
    # t - A z of canonical t and reduced A z lies in (-q, q), where its
    # balanced modulus needs no second reduction: targets at 0 and q - 1,
    # residues at both ends of (-q, q), leading axes
    gen = np.random.default_rng(q)
    a = gen.integers(0, q, size=(3, 6, 4))
    z = gen.integers(0, q, size=(3, 5, 4))
    targets = gen.integers(0, q, size=(3, 5, 6))
    targets[0, 0], targets[0, 1] = 0, q - 1
    az = z @ np.swapaxes(a, -1, -2) % q   # below 2^63 at these sizes
    targets[1] = az[1]
    wrapped = (targets - az) % q
    want = np.minimum(wrapped, q - wrapped).max(axis=-1)
    got = lattice._residual_norms(a, targets, z, q)
    np.testing.assert_array_equal(got, want)
    assert (got[1] == 0).all()


def test_invert_noiseless():
    gen = stream("inv0")
    a, trap = gen_trap(PARAMS, gen)
    for _ in range(100):
        s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
        v = zq_matmul(a, ZqArray(PARAMS.q, s))
        np.testing.assert_array_equal(invert(a, trap, v, PARAMS), s)


def test_invert_with_full_noise_budget():
    gen = stream("inv1")
    a, trap = gen_trap(PARAMS, gen)
    for _ in range(300):
        s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
        e = gen.integers(-2 * PARAMS.tau, 2 * PARAMS.tau + 1, size=PARAMS.m,
                         dtype=np.int64)
        v = ZqArray(PARAMS.q, zq_matmul(a, ZqArray(PARAMS.q, s)).values + e)
        np.testing.assert_array_equal(invert(a, trap, v, PARAMS), s)


def test_invert_at_exact_noise_boundary():
    gen = stream("inv2")
    a, trap = gen_trap(PARAMS, gen)
    s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
    e = np.full(PARAMS.m, 2 * PARAMS.tau, dtype=np.int64)
    e[::2] *= -1
    v = ZqArray(PARAMS.q, zq_matmul(a, ZqArray(PARAMS.q, s)).values + e)
    np.testing.assert_array_equal(invert(a, trap, v, PARAMS), s)


def test_invert_uniform_vector_fails():
    gen = stream("inv3")
    a, trap = gen_trap(PARAMS, gen)
    for _ in range(200):
        v = ZqArray(PARAMS.q, gen.integers(0, PARAMS.q, size=PARAMS.m,
                                           dtype=np.int64))
        assert invert(a, trap, v, PARAMS) is None


def test_invert_rejects_wrong_length():
    gen = stream("inv4")
    a, trap = gen_trap(PARAMS, gen)
    with pytest.raises(ValueError):
        invert(a, trap, ZqArray(PARAMS.q, np.zeros(3, dtype=np.int64)), PARAMS)


# --- encryption ----------------------------------------------------------------

def test_encrypt_decrypt_round_trip():
    gen = stream("enc0")
    for _ in range(100):
        h = gen.integers(0, 2, size=PARAMS.d)
        record = encrypt(h, PARAMS, gen)
        out = decrypt(record.a, record.trapdoor, record.v, PARAMS)
        np.testing.assert_array_equal(out, h)


def test_invert_recovers_offset_exactly():
    gen = stream("enc1")
    h = gen.integers(0, 2, size=PARAMS.d)
    record = encrypt(h, PARAMS, gen)
    got = invert(record.a, record.trapdoor, record.v, PARAMS)
    np.testing.assert_array_equal(got, record.gamma % PARAMS.q)


def test_zero_message_gives_even_offset():
    gen = stream("enc2")
    record = encrypt(np.zeros(PARAMS.d, dtype=np.int64), PARAMS, gen)
    bal = balanced(record.gamma % PARAMS.q, PARAMS.q)
    assert (bal % 2 == 0).all()
    assert (bal == record.gamma).all()  # no modular wrap at valid parameters


def test_tampered_ciphertext_never_crashes():
    gen = stream("enc3")
    h = gen.integers(0, 2, size=PARAMS.d)
    record = encrypt(h, PARAMS, gen)
    v = record.v.values.copy()
    v[0] = (v[0] + PARAMS.q // 2) % PARAMS.q
    out = decrypt(record.a, record.trapdoor, ZqArray(PARAMS.q, v), PARAMS)
    assert out is None or not np.array_equal(out, h)


def test_zero_length_message_edge():
    # d = 0 is a valid Params (the game needs d >= 1, encryption does not)
    params = Params(n=PARAMS.n, q=PARAMS.q, d=0, sigma=PARAMS.sigma)
    gen = stream("enc4")
    record = encrypt(np.zeros(0, dtype=np.int64), params, gen)
    out = decrypt(record.a, record.trapdoor, record.v, params)
    assert out is not None and out.shape == (0,)


@pytest.mark.parametrize("message", [[0.5, 1, 0, 1], [0.0, 1.0, 0.0, 1.0],
                                     ["0", "1", "0", "1"], [0, 1, 0],
                                     [[0, 1, 0, 1]], None],
                         ids=["half", "floats", "strings", "short", "nested",
                              "none"])
def test_encrypt_reads_the_message_through_the_gate(message):
    # a float or string entry is never truncated into a bit
    with pytest.raises(ValueError, match="message must be 4 bits"):
        encrypt(message, PARAMS, stream("enc6"))


def test_non_runnable_params_rejected():
    bad = derive_params(lam=4)  # tau = 0
    with pytest.raises(ValueError):
        encrypt(np.zeros(bad.d, dtype=np.int64), bad, stream("enc5"))


# --- oracles ---------------------------------------------------------------------

def test_real_oracle_solvable_at_negligible_noise():
    gen = stream("lwe0")
    oracle = lwe_oracle("real", PARAMS, gen, sigma=0.01)
    samples = [next(oracle) for _ in range(PARAMS.n + 20)]
    rows = np.array([a for a, _ in samples[:PARAMS.n]])
    rhs = np.array([b for _, b in samples[:PARAMS.n]])
    secret = solve_linear_mod(rows, rhs, PARAMS.q)
    assert secret is not None
    for a, b in samples[PARAMS.n:]:
        assert int((a @ secret.astype(object)) % PARAMS.q) == b


def test_uniform_oracle_fails_consistency():
    gen = stream("lwe1")
    oracle = lwe_oracle("uniform", PARAMS, gen)
    samples = [next(oracle) for _ in range(PARAMS.n + 20)]
    rows = np.array([a for a, _ in samples[:PARAMS.n]])
    rhs = np.array([b for _, b in samples[:PARAMS.n]])
    secret = solve_linear_mod(rows, rhs, PARAMS.q)
    if secret is not None:
        mismatches = sum(
            int((a @ secret.astype(object)) % PARAMS.q) != b
            for a, b in samples[PARAMS.n:])
        assert mismatches > 0


def test_normal_form_halving_map():
    # scaling the a-component by 2^{-1} turns hidden secret s into 2s
    gen = stream("lwe2")
    q = PARAMS.q
    inv2 = pow(2, q - 2, q)
    oracle = lwe_oracle("real", PARAMS, gen, sigma=0.01)
    samples = [next(oracle) for _ in range(2 * PARAMS.n)]
    rows = np.array([a for a, _ in samples[:PARAMS.n]])
    rhs = np.array([b for _, b in samples[:PARAMS.n]])
    s = solve_linear_mod(rows, rhs, q)
    scaled_rows = (rows.astype(object) * inv2) % q
    s2 = solve_linear_mod(np.array(scaled_rows, dtype=np.int64), rhs, q)
    np.testing.assert_array_equal(s2, (2 * s) % q)


def test_stream_determinism():
    a1 = [next(lwe_oracle("real", PARAMS, stream("lwe3"))) for _ in range(3)]
    a2 = [next(lwe_oracle("real", PARAMS, stream("lwe3"))) for _ in range(3)]
    for (x1, y1), (x2, y2) in zip(a1, a2):
        np.testing.assert_array_equal(x1, x2)
        assert y1 == y2


def test_zq_array_modulus_mismatch():
    # the tests' sum oracle refuses operands of two moduli
    with pytest.raises(ValueError, match="modulus mismatch"):
        zq_add(ZqArray(5, np.arange(3)), ZqArray(7, np.arange(3)))


ZQ_CASES = {"inside": lambda q: [0, 1, q - 1],
            "below": lambda q: [-1, -q - 3, 5],
            "above": lambda q: [q, 2 * q + 5, 0]}


# a uint8 array holds no negative entry, so it is given no "below" case
@pytest.mark.parametrize("case, container",
                         [(case, container) for case in ZQ_CASES
                          for container in ("list", "int32", "uint8")
                          if (case, container) != ("below", "uint8")])
def test_zq_array_stores_canonical_values(case, container):
    q = 101   # 2q + 5 still fits in a uint8
    raw = ZQ_CASES[case](q)
    given = raw if container == "list" else np.array(raw, dtype=container)
    z = ZqArray(q, given)
    assert z.values.dtype == np.int64
    np.testing.assert_array_equal(z.values, [x % q for x in raw])


def test_zq_array_empty_and_sum():
    assert ZqArray(7, []).values.shape == (0,)
    total = zq_add(ZqArray(7, [6, 3, 0]), ZqArray(7, [6, 4, 0]))
    np.testing.assert_array_equal(total.values, [5, 0, 0])


@pytest.mark.parametrize("offset", [0, 100], ids=["canonical", "reduced"])
def test_zq_array_never_aliases_its_input(offset):
    raw = np.arange(5, dtype=np.int64) + offset
    z = ZqArray(101, raw)
    kept = z.values.copy()
    raw[:] = 7
    np.testing.assert_array_equal(z.values, kept)


def test_commitment_shifts_targets_are_w_and_w_plus_v():
    record = encrypt(np.ones(PARAMS.d, dtype=np.int64), PARAMS, stream("cs"))
    q, v = PARAMS.q, record.v.values
    # w = q - 1 - v wraps nowhere; w = q - 1 wraps wherever v > 0
    for w in (q - 1 - v, np.full(PARAMS.m, q - 1), np.zeros(PARAMS.m)):
        shifts = commitment_shifts(ZqArray(q, w), record, PARAMS)
        np.testing.assert_array_equal(shifts.targets, [w, (w + v) % q])


# --- the honest E event --------------------------------------------------------

def test_honest_e_rate_worked_values():
    assert honest_e_rate(PARAMS) == pytest.approx(0.997460, abs=1e-6)
    assert honest_e_rate(desk_params(sigma=10)) == pytest.approx(0.537196, abs=1e-6)
    # the paper-asymptotic set first validates at lambda = 384, where the
    # rate underflows a float and only its logarithm is informative
    assert honest_e_log_rate(derive_params(384)) == pytest.approx(-4914.479, abs=1e-3)
    assert honest_e_rate(derive_params(384)) == 0.0


def test_honest_e_rate_law_by_enumeration():
    # the law summed over e and over the box offset u directly, at a small tau
    params = desk_params(n=2, d=1, q=12_289, sigma=2.0)
    sampler = GaussianSampler(params.sigma, params.tau)
    tau = params.tau
    inside = sum(gaussian_pmf(sampler, e) * sum(abs(u + e) <= tau
                                                for u in range(-tau, tau + 1))
                 for e in range(-tau, tau + 1)) / (2 * tau + 1)
    assert honest_e_log_rate(params) == pytest.approx(params.m * np.log(inside),
                                                      rel=1e-9)


def test_event_bound_lies_below_the_exact_rate():
    grid = [desk_params(sigma=s) for s in (0.35, 1, 3, 10, 20)]
    grid += [desk_params(d=16, n=16, q=2 ** 31 - 1, sigma=s)
             for s in (0.35, 1, 2, 4, 8)]
    grid += [derive_params(lam) for lam in (384, 512, 1024)]
    positive = [p for p in grid if p.event_bounds()[0] > 0]
    assert len(positive) >= 8
    for p in positive:
        assert p.event_bounds()[0] <= honest_e_rate(p)
