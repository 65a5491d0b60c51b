"""Discrete Gaussian sampling, gadget trapdoors, and the encryption layer.

The trapdoor pair is the classic two-block construction: a uniform top block
Abar with (Q+1)n rows, and a bottom block G - R Abar where R has small
entries and G stacks the binary gadget (1, 2, ..., 2^{Q-1}) per secret
coordinate.  Recombining v = A s + e through R turns inversion into decoding
G s from noise bounded by B = 2 tau (1 + (Q+1) n); parameter validation
guarantees B < q/4, which makes the decode below exact.

The two trapdoor products, R Abar in gen_trap and R v_top in invert, run in
float64 BLAS and are exact: R is ternary and the other operand canonical in
[0, q), so every partial sum is an integer of magnitude below (Q+1) n q,
which _ternary_matmul_mod requires to be under 2^53 (about 2^36 at the desk
and separating presets).  Every other product goes through core.matmul_mod.

assess_preimages inverts both shifts w and w + v of a round-one commitment
and applies the noise-box test; the honest prover and the referee share its
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Params, balanced, matmul_mod, norminf


@dataclass(frozen=True)
class ZqArray:
    """An integer array with its modulus, entries stored canonically."""

    q: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.int64) % self.q)

    def _check(self, other: "ZqArray"):
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")

    def __add__(self, other: "ZqArray") -> "ZqArray":
        self._check(other)
        return ZqArray(self.q, (self.values + other.values) % self.q)

    def __sub__(self, other: "ZqArray") -> "ZqArray":
        self._check(other)
        return ZqArray(self.q, (self.values - other.values) % self.q)

    def __neg__(self) -> "ZqArray":
        return ZqArray(self.q, -self.values)

    def matmul(self, other: "ZqArray") -> "ZqArray":
        self._check(other)
        return ZqArray(self.q, matmul_mod(self.values, other.values, self.q))

    @property
    def shape(self):
        return self.values.shape


# ---------------------------------------------------------------------------
# discrete Gaussians

@dataclass(frozen=True)
class GaussianSampler:
    """Integer Gaussian with weight exp(-j^2 / 2 sigma^2), optionally
    truncated to [-tau, tau] by rejection.

    The pmf is tabulated exactly over [-ceil(8 sigma), ceil(8 sigma)]; the
    tail beyond that carries less than 1e-14 of the mass and is folded into
    the extreme entries by the normalization.
    """

    sigma: float
    tau: int | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tau is not None and self.tau < 0:
            raise ValueError("tau must be nonnegative")
        cut = max(int(np.ceil(8 * self.sigma)), 1)
        support = np.arange(-cut, cut + 1)
        weights = np.exp(-(support.astype(float) ** 2) / (2 * self.sigma ** 2))
        pmf = weights / weights.sum()
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_cdf", np.cumsum(pmf))
        object.__setattr__(self, "_pmf", pmf)

    def pmf(self, j: int) -> float:
        """Probability of j under the (possibly truncated) distribution."""
        sup, pmf = self._support, self._pmf
        if self.tau is not None:
            keep = np.abs(sup) <= self.tau
            total = pmf[keep].sum()
            if abs(j) > self.tau:
                return 0.0
            return float(pmf[sup == j].sum() / total) if (sup == j).any() else 0.0
        return float(pmf[sup == j].sum()) if (sup == j).any() else 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else size
        accept = 1.0
        if self.tau is not None:
            accept = max(float(self._pmf[np.abs(self._support) <= self.tau].sum()),
                         1e-12)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            want = n - filled
            batch = int(want / accept * 1.2) + 8
            draws = self._support[np.searchsorted(self._cdf, rng.random(batch))]
            if self.tau is not None:
                draws = draws[np.abs(draws) <= self.tau]
            take = min(len(draws), want)
            out[filled:filled + take] = draws[:take]
            filled += take
        return int(out[0]) if size is None else out


def sample_gaussian(sigma: float, rng: np.random.Generator,
                    tau: int | None = None, size: int | None = None):
    return GaussianSampler(sigma, tau).sample(rng, size)


# ---------------------------------------------------------------------------
# trapdoor generation and inversion

@dataclass(frozen=True)
class TrapdoorKey:
    abar: np.ndarray  # (Q+1)n x n, uniform
    # Qn x (Q+1)n float64 with entries in {-1, 0, 1}: products with residues
    # stay exact while (Q+1) n q < 2^53 (see _ternary_matmul_mod)
    r: np.ndarray


def _ternary_matmul_mod(r: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """(r @ x) % q as int64, for float64 r with entries in {-1, 0, 1} and x
    canonical in [0, q).

    Every partial sum is an integer of magnitude below k q, k the inner
    dimension; while k q < 2^53 each one is a float64, so the BLAS product
    is exact in any summation order.  The bound depends on shapes and q
    only, so no operand is scanned.
    """
    if r.shape[-1] * q >= 1 << 53:
        raise ValueError(f"ternary product not exact in float64: "
                         f"{r.shape[-1]} * q = {r.shape[-1] * q} >= 2^53")
    return (r @ x.astype(np.float64) % q).astype(np.int64)


@dataclass(frozen=True)
class Ciphertext:
    a: ZqArray  # m x n
    v: ZqArray  # length m


def _gadget(params: Params) -> np.ndarray:
    g = np.zeros((params.Q * params.n, params.n), dtype=np.int64)
    for i in range(params.n):
        g[i * params.Q:(i + 1) * params.Q, i] = 1 << np.arange(params.Q)
    return g


def gen_trap(params: Params, rng: np.random.Generator) -> tuple[ZqArray, TrapdoorKey]:
    """Matrix A = [Abar ; G - R Abar] with m = (2Q+1) n rows, plus the
    trapdoor (Abar, R) that makes invert() work."""
    top_rows = (params.Q + 1) * params.n
    abar = rng.integers(0, params.q, size=(top_rows, params.n), dtype=np.int64)
    r = rng.integers(-1, 2, size=(params.Q * params.n, top_rows),
                     dtype=np.int64).astype(np.float64)
    bottom = (_gadget(params) - _ternary_matmul_mod(r, abar, params.q)) % params.q
    a = np.vstack([abar, bottom])
    return ZqArray(params.q, a), TrapdoorKey(abar=abar, r=r)


def invert(a: ZqArray, trap: TrapdoorKey, v: ZqArray,
           params: Params) -> np.ndarray | None:
    """Recover s from v = A s + e whenever ||e||_inf <= 2 tau; None otherwise.

    Recombination gives y = G s + E with ||E||_inf <= B and 3B < q/2 at any
    validated parameter set, so the error differences E_{k+1} - 2 E_k are
    exact balanced residues.  Chaining them pins E exactly, and the candidate
    s is accepted only after the full check ||v - A s||_inf <= 2 tau.
    """
    q, n, big_q, tau = params.q, params.n, params.Q, params.tau
    if v.values.shape != (params.m,):
        raise ValueError(f"v must have length m = {params.m}")
    bound = params.gadget_bound
    if 6 * bound >= q:
        raise ValueError("parameters leave no decoding margin (need 6B < q)")
    top_rows = (big_q + 1) * n
    y = (_ternary_matmul_mod(trap.r, v.values[:top_rows], q)
         + v.values[top_rows:]) % q
    rows = y.reshape(n, big_q)  # rows[i, k] = 2^k s_i + E_{i,k} mod q
    delta = balanced(rows[:, 1:] - 2 * rows[:, :-1], q)  # = E_{k+1} - 2 E_k
    powers = (1 << np.arange(big_q - 2, -1, -1)).astype(np.int64)
    carry = delta @ powers  # E_{Q-1} = 2^{Q-1} E_0 + carry
    e0 = np.rint(-carry / float(1 << (big_q - 1))).astype(np.int64)
    s = (rows[:, 0] - e0) % q
    residual = (v.values - matmul_mod(a.values, s, q)) % q
    if norminf(residual, q) <= 2 * tau:
        return s
    return None


# ---------------------------------------------------------------------------
# encryption

@dataclass(frozen=True)
class EncryptionRecord:
    """Ciphertext plus the referee-side secrets produced alongside it."""

    ciphertext: Ciphertext
    trapdoor: TrapdoorKey
    gamma: np.ndarray   # 2s + M as balanced integers (no modular wrap)
    message: np.ndarray


def encrypt(message, params: Params, rng: np.random.Generator) -> EncryptionRecord:
    """v = A (2s + M) + e with s, e truncated-Gaussian and M carrying the
    message bits in the last d coordinates."""
    h = np.asarray(message, dtype=np.int64)
    if h.shape != (params.d,) or not np.isin(h, (0, 1)).all():
        raise ValueError(f"message must be {params.d} bits")
    if params.tau < 1:
        raise ValueError("parameters are not runnable: tau = 0")
    a, trap = gen_trap(params, rng)
    sampler = GaussianSampler(params.sigma, params.tau)
    s = sampler.sample(rng, params.n)
    e = sampler.sample(rng, params.m)
    m_vec = np.zeros(params.n, dtype=np.int64)
    m_vec[params.n - params.d:] = h
    gamma = 2 * s + m_vec
    v = (matmul_mod(a.values, gamma % params.q, params.q) + e) % params.q
    return EncryptionRecord(ciphertext=Ciphertext(a=a, v=ZqArray(params.q, v)),
                            trapdoor=trap, gamma=gamma, message=h.copy())


def decrypt(a: ZqArray, trap: TrapdoorKey, v: ZqArray,
            params: Params) -> np.ndarray | None:
    """Message bits from the parity of the balanced representative of the
    last d recovered coordinates; None propagates inversion failure."""
    gamma = invert(a, trap, v, params)
    if gamma is None:
        return None
    tail = balanced(gamma[params.n - params.d:], params.q)
    return (np.abs(tail) % 2).astype(np.int64)


class Preimages(NamedTuple):
    """Both shifts of a round-one commitment w, inverted through the
    trapdoor: z0 from w, z1 from w + v (None where inversion fails), and
    whether each sits within tau of its lattice point (the noise box)."""

    z0: np.ndarray | None
    z1: np.ndarray | None
    in_box0: bool
    in_box1: bool


def assess_preimages(w: ZqArray, record: EncryptionRecord,
                     params: Params) -> Preimages:
    """Invert w and w + v and apply the noise-box test to each preimage.

    Deterministic in (w, record, params), so the honest prover's result is
    the one the referee would compute.  w is inverted first: a commitment
    of the wrong length raises invert's ValueError.
    """
    a, v = record.ciphertext.a, record.ciphertext.v

    def preimage(target: ZqArray):
        z = invert(a, record.trapdoor, target, params)
        in_box = z is not None and norminf(
            (target.values - matmul_mod(a.values, z, params.q)) % params.q,
            params.q) <= params.tau
        return z, in_box

    z0, in_box0 = preimage(w)
    z1, in_box1 = preimage(w + v)
    return Preimages(z0, z1, in_box0, in_box1)


def fake_encrypt(message, params: Params,
                 rng: np.random.Generator) -> Ciphertext:
    """Same shape as encrypt but with uniform A and untruncated noise; there
    is no trapdoor, so nothing in the output can decrypt it."""
    h = np.asarray(message, dtype=np.int64)
    if h.shape != (params.d,) or not np.isin(h, (0, 1)).all():
        raise ValueError(f"message must be {params.d} bits")
    a = rng.integers(0, params.q, size=(params.m, params.n), dtype=np.int64)
    sampler = GaussianSampler(params.sigma)
    s = sampler.sample(rng, params.n)
    e = sampler.sample(rng, params.m)
    m_vec = np.zeros(params.n, dtype=np.int64)
    m_vec[params.n - params.d:] = h
    gamma = (2 * s + m_vec) % params.q
    v = (matmul_mod(a, gamma, params.q) + e) % params.q
    return Ciphertext(a=ZqArray(params.q, a), v=ZqArray(params.q, v))


def lwe_oracle(kind: str, params: Params, rng: np.random.Generator,
               sigma: float | None = None):
    """Infinite stream of (a, b) pairs: 'real' fixes a hidden secret and
    emits (a, a.s + e); 'uniform' emits uniform pairs."""
    if kind not in ("real", "uniform"):
        raise ValueError("kind must be 'real' or 'uniform'")
    q, n = params.q, params.n
    if kind == "real":
        secret = rng.integers(0, q, size=n, dtype=np.int64)
        sampler = GaussianSampler(sigma if sigma is not None else params.sigma)
        while True:
            a = rng.integers(0, q, size=n, dtype=np.int64)
            b = (int(matmul_mod(a, secret, q)) + sampler.sample(rng)) % q
            yield a, int(b)
    else:
        while True:
            a = rng.integers(0, q, size=n, dtype=np.int64)
            yield a, int(rng.integers(0, q))


def solve_linear_mod(a_rows: np.ndarray, b: np.ndarray, q: int) -> np.ndarray | None:
    """Gaussian elimination mod prime q; None if the system is singular.

    Test oracle for the noiseless LWE stream: n clean samples determine the
    secret exactly.
    """
    a = [[int(v) % q for v in row] for row in np.asarray(a_rows)]
    rhs = [int(v) % q for v in np.asarray(b)]
    n = len(a[0])
    if len(a) < n:
        return None
    row = 0
    where = [-1] * n
    for col in range(n):
        pivot = next((r for r in range(row, len(a)) if a[r][col] % q), None)
        if pivot is None:
            return None
        a[row], a[pivot] = a[pivot], a[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = pow(a[row][col], q - 2, q)
        a[row] = [v * inv % q for v in a[row]]
        rhs[row] = rhs[row] * inv % q
        for r in range(len(a)):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [(v - factor * w) % q for v, w in zip(a[r], a[row])]
                rhs[r] = (rhs[r] - factor * rhs[row]) % q
        where[col] = row
        row += 1
        if row == len(a):
            break
    if any(w < 0 for w in where):
        return None
    return np.array([rhs[where[c]] for c in range(n)], dtype=np.int64)
