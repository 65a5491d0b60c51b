import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poqlab.core import Rng, balanced, derive_params, desk_params
from poqlab.lattice import (GaussianSampler, ZqArray, _ternary_matmul_mod,
                            decrypt, encrypt, fake_encrypt, gen_trap, invert,
                            lwe_oracle, sample_gaussian, solve_linear_mod)

PARAMS = desk_params()


def stream(label, idx=0, seed=99):
    return Rng(seed).stream(label, idx)


# --- discrete Gaussian ---------------------------------------------------------

def test_tiny_sigma_concentrates_at_zero():
    s = GaussianSampler(0.1)
    assert s.pmf(0) > 0.9999
    draws = s.sample(stream("g0"), size=2000)
    assert (draws == 0).all()


def test_mean_absolute_value_below_sigma():
    # per-coordinate first-moment bound, checked empirically
    for sigma in (0.35, 1.0, 3.0):
        s = GaussianSampler(sigma)
        draws = s.sample(stream(f"g{sigma}"), size=100_000)
        mean_abs = np.abs(draws).mean()
        se = np.abs(draws).std(ddof=1) / np.sqrt(len(draws))
        assert mean_abs <= sigma + 3 * se


def test_truncation_contract():
    s = GaussianSampler(5.0, tau=2)
    draws = s.sample(stream("trunc"), size=5000)
    assert np.abs(draws).max() <= 2
    # truncated pmf renormalizes over [-tau, tau]
    total = sum(s.pmf(j) for j in range(-2, 3))
    assert abs(total - 1.0) < 1e-12
    assert s.pmf(3) == 0.0


def test_pmf_matches_direct_formula():
    sigma = 1.3
    s = GaussianSampler(sigma)
    support = np.arange(-15, 16)
    weights = np.exp(-(support.astype(float) ** 2) / (2 * sigma ** 2))
    for j in (-3, -1, 0, 2, 5):
        want = float(weights[support == j][0] / weights.sum())
        assert abs(s.pmf(j) - want) < 1e-12


def test_sample_gaussian_wrapper():
    v = sample_gaussian(0.5, stream("w"), tau=1, size=100)
    assert np.abs(v).max() <= 1


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
    a, trap = gen_trap(PARAMS, stream("gt"))
    assert a.shape == (PARAMS.m, PARAMS.n)
    assert a.shape[0] == (2 * PARAMS.Q + 1) * PARAMS.n
    assert trap.abar.shape == ((PARAMS.Q + 1) * PARAMS.n, PARAMS.n)
    assert trap.r.shape == (PARAMS.Q * PARAMS.n, (PARAMS.Q + 1) * PARAMS.n)
    assert set(np.unique(trap.r)) <= {-1, 0, 1}
    assert trap.r.dtype == np.float64  # converted once, for the BLAS products
    np.testing.assert_array_equal(a.values[:(PARAMS.Q + 1) * PARAMS.n],
                                  trap.abar % PARAMS.q)


@pytest.mark.parametrize("params", [PARAMS, desk_params(d=16, n=16)],
                         ids=["desk", "separation"])
def test_ternary_product_is_exact(params):
    # R Abar and R v_top against Python integers, at the largest partial sums
    # the presets allow: R all +1 or all -1 against residues all q - 1
    q, rows, inner = params.q, params.Q * params.n, (params.Q + 1) * params.n
    assert inner * q < 2 ** 53
    gen = stream("tern")
    rs = [np.ones((rows, inner)), -np.ones((rows, inner)),
          gen.integers(-1, 2, size=(rows, inner)).astype(np.float64)]
    operands = [np.full((inner, 2), q - 1, dtype=np.int64),
                np.full(inner, q - 1, dtype=np.int64),
                gen.integers(0, q, size=(inner, params.n), dtype=np.int64)]
    for r in rs:
        for x in operands:
            want = (r.astype(np.int64).astype(object) @ x.astype(object)) % q
            got = _ternary_matmul_mod(r, x, q)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want.astype(np.int64))


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


def test_invert_noiseless():
    gen = stream("inv0")
    a, trap = gen_trap(PARAMS, gen)
    for _ in range(100):
        s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
        v = a.matmul(ZqArray(PARAMS.q, s))
        np.testing.assert_array_equal(invert(a, trap, v, PARAMS), s)


def test_invert_with_full_noise_budget():
    gen = stream("inv1")
    a, trap = gen_trap(PARAMS, gen)
    for _ in range(300):
        s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
        e = gen.integers(-2 * PARAMS.tau, 2 * PARAMS.tau + 1, size=PARAMS.m,
                         dtype=np.int64)
        v = ZqArray(PARAMS.q, a.matmul(ZqArray(PARAMS.q, s)).values + e)
        np.testing.assert_array_equal(invert(a, trap, v, PARAMS), s)


def test_invert_at_exact_noise_boundary():
    gen = stream("inv2")
    a, trap = gen_trap(PARAMS, gen)
    s = gen.integers(0, PARAMS.q, size=PARAMS.n, dtype=np.int64)
    e = np.full(PARAMS.m, 2 * PARAMS.tau, dtype=np.int64)
    e[::2] *= -1
    v = ZqArray(PARAMS.q, a.matmul(ZqArray(PARAMS.q, s)).values + e)
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
        out = decrypt(record.ciphertext.a, record.trapdoor,
                      record.ciphertext.v, PARAMS)
        np.testing.assert_array_equal(out, h)


def test_invert_recovers_offset_exactly():
    gen = stream("enc1")
    h = gen.integers(0, 2, size=PARAMS.d)
    record = encrypt(h, PARAMS, gen)
    got = invert(record.ciphertext.a, record.trapdoor, record.ciphertext.v,
                 PARAMS)
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
    v = record.ciphertext.v.values.copy()
    v[0] = (v[0] + PARAMS.q // 2) % PARAMS.q
    out = decrypt(record.ciphertext.a, record.trapdoor,
                  ZqArray(PARAMS.q, v), PARAMS)
    assert out is None or not np.array_equal(out, h)


def test_zero_length_message_edge():
    params = desk_params(d=0)
    gen = stream("enc4")
    record = encrypt(np.zeros(0, dtype=np.int64), params, gen)
    out = decrypt(record.ciphertext.a, record.trapdoor, record.ciphertext.v,
                  params)
    assert out is not None and out.shape == (0,)


def test_non_runnable_params_rejected():
    bad = derive_params(lam=4)  # tau = 0
    with pytest.raises(ValueError):
        encrypt(np.zeros(bad.d, dtype=np.int64), bad, stream("enc5"))


# --- fake encryption -------------------------------------------------------------

def test_fake_encrypt_shape_and_no_key():
    gen = stream("fk0")
    h = gen.integers(0, 2, size=PARAMS.d)
    ct = fake_encrypt(h, PARAMS, gen)
    assert ct.a.shape == (PARAMS.m, PARAMS.n)
    assert ct.v.shape == (PARAMS.m,)
    assert not hasattr(ct, "trapdoor")


def test_fake_encrypt_matrix_uniformity():
    from scipy.stats import chisquare
    gen = stream("fk1")
    ct = fake_encrypt(np.zeros(PARAMS.d, dtype=np.int64), PARAMS, gen)
    entries = ct.a.values.reshape(-1)[:10_000]
    bins = np.histogram(entries, bins=16, range=(0, PARAMS.q))[0]
    assert chisquare(bins).pvalue > 1e-3


def test_fake_encrypt_varies_with_randomness():
    h = np.ones(PARAMS.d, dtype=np.int64)
    v1 = fake_encrypt(h, PARAMS, stream("fk2", 0)).v.values
    v2 = fake_encrypt(h, PARAMS, stream("fk2", 1)).v.values
    assert not np.array_equal(v1, v2)


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
    with pytest.raises(ValueError):
        ZqArray(5, np.arange(3)) + ZqArray(7, np.arange(3))
