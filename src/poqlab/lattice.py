"""Discrete Gaussian sampling, gadget trapdoors, and the encryption layer.

The trapdoor pair is the classic two-block construction: a uniform top block
Abar with (Q+1)n rows, and a bottom block G - R Abar where R has small
entries and G stacks the binary gadget (1, 2, ..., 2^{Q-1}) per secret
coordinate.  Recombining v = A s + e through R (recombine) turns inversion
into decoding G s from noise bounded by B = 2 tau (1 + (Q+1) n)
(gadget_decode).  The decode is exact when 3B < q/2 (its 6B < q guard), and
every Params meets that: tau = floor(q / (4 m Q)) with m = (2Q+1) n gives
6B < q whenever Q >= 3, and Q < 3 leaves tau = 0 (6B/q < 0.17 for odd
primes q < 2 * 10^5 and n <= 64).

The two trapdoor products, R Abar in gen_trap and R t_top in recombine, run
in float64 BLAS and are exact: R is ternary and the other operand canonical
in [0, q), so every partial sum is an integer of magnitude below (Q+1) n q,
which _ternary_matmul_mod requires to be under 2^53 (about 2^36 at the desk
and separating presets).  Every other product goes through core.matmul_mod.

R is drawn from the raw bytes of the stream (_ternary_draw): a byte below
243 = 3^5 becomes its five base-3 digits minus one, and a byte of 243 or
more is dropped.  Each kept byte is uniform on the 243 strings in
{-1, 0, 1}^5, so the entries of R are independent and exactly uniform on
{-1, 0, 1}; the rejection only costs bytes.

R is needed only while a trial's products with it are taken.  A round-one
commitment w is assessed in two steps: commitment_shifts takes, while R is
live, the trapdoor images of both shifts w and w + v in one product and
keeps them with A and gamma (Shifts); decode_preimages then decodes both
shifts and computes each residual t - A z once, which serves both invert's
2 tau acceptance test and the tau noise-box test.  decode_preimages works
over any leading trial axes, so the game decodes a block of trials at once
with no R held and one trial's Shifts decode alone; invert and the block
decode share gadget_decode and the residual test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Params, balanced, matmul_mod


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
        accept = 1.0
        if self.tau is not None:
            accept = max(float(pmf[np.abs(support) <= self.tau].sum()), 1e-12)
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_cdf", np.cumsum(pmf))
        object.__setattr__(self, "_pmf", pmf)
        object.__setattr__(self, "_accept", accept)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else size
        accept = self._accept
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


# ---------------------------------------------------------------------------
# trapdoor generation and inversion

@dataclass(frozen=True)
class TrapdoorKey:
    abar: np.ndarray  # (Q+1)n x n, uniform
    # Qn x (Q+1)n float64, uniform on {-1, 0, 1}, five entries per accepted
    # stream byte (see _ternary_draw); products with residues stay exact
    # while (Q+1) n q < 2^53 (see _ternary_matmul_mod)
    r: np.ndarray


# row b: the base-3 digits of b, least significant first, minus one
_TRITS = (np.arange(243)[:, None] // 3 ** np.arange(5) % 3 - 1).astype(np.float64)
_TRITS.setflags(write=False)


def _ternary_draw(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols float64 matrix uniform on {-1, 0, 1}, five entries per
    stream byte below 243 (bytes of 243 or more are dropped), in row-major
    order."""
    need = -(-rows * cols // 5)
    kept, have = [], 0
    while have < need:
        # about 5% of bytes are dropped; the margin makes a second call rare
        raw = np.frombuffer(rng.bytes((need - have) * 17 // 16 + 64),
                            dtype=np.uint8)
        kept.append(raw[raw < 243])
        have += len(kept[-1])
    trits = np.take(_TRITS, np.concatenate(kept)[:need], axis=0)
    return trits.reshape(-1)[:rows * cols].reshape(rows, cols)


def _ternary_matmul_mod(r: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """(r @ x) % q as int64, for float64 r with entries in {-1, 0, 1} and x
    canonical in [0, q).

    Every partial sum is an integer of magnitude below k q, k the inner
    dimension; while k q < 2^53 each one is a float64, so the BLAS product
    is exact in any summation order.  The bound depends on shapes and q
    only, so no operand is scanned.  The exact float sums convert to int64
    without loss and are reduced there: integer % by a scalar costs a fifth
    of float64 % or np.fmod, which go through a division per entry.
    """
    if r.shape[-1] * q >= 1 << 53:
        raise ValueError(f"ternary product not exact in float64: "
                         f"{r.shape[-1]} * q = {r.shape[-1] * q} >= 2^53")
    return (r @ x.astype(np.float64)).astype(np.int64) % q


@dataclass(frozen=True)
class Ciphertext:
    a: ZqArray  # m x n
    v: ZqArray  # length m


@functools.lru_cache(maxsize=16)
def _gadget(params: Params) -> np.ndarray:
    """The gadget matrix G of params, read-only and built once."""
    g = np.zeros((params.Q * params.n, params.n), dtype=np.int64)
    for i in range(params.n):
        g[i * params.Q:(i + 1) * params.Q, i] = 1 << np.arange(params.Q)
    g.setflags(write=False)
    return g


def gen_trap(params: Params, rng: np.random.Generator) -> tuple[ZqArray, TrapdoorKey]:
    """Matrix A = [Abar ; G - R Abar] with m = (2Q+1) n rows, plus the
    trapdoor (Abar, R) that makes invert() work."""
    top_rows = (params.Q + 1) * params.n
    abar = rng.integers(0, params.q, size=(top_rows, params.n), dtype=np.int64)
    r = _ternary_draw(rng, params.Q * params.n, top_rows)
    bottom = (_gadget(params) - _ternary_matmul_mod(r, abar, params.q)) % params.q
    a = np.vstack([abar, bottom])
    return ZqArray(params.q, a), TrapdoorKey(abar=abar, r=r)


def recombine(trap: TrapdoorKey, targets: np.ndarray,
              params: Params) -> np.ndarray:
    """R t_top + t_bottom mod q for a target t of length m, or for each row
    of a (k, m) array of them: A s + e recombines to G s + R e_top +
    e_bottom."""
    top_rows = (params.Q + 1) * params.n
    return (_ternary_matmul_mod(trap.r, targets[..., :top_rows].T, params.q).T
            + targets[..., top_rows:]) % params.q


def gadget_decode(y: np.ndarray, params: Params) -> np.ndarray:
    """s from y = G s + E mod q with ||E||_inf <= B, over leading axes:
    (..., Qn) to (..., n).

    3B < q/2 at any validated parameter set, so the error differences
    E_{k+1} - 2 E_k are exact balanced residues; chaining them pins E
    exactly.  The result is a candidate: on a y that is not of this form
    it is some residue vector, which the residual test rejects.
    """
    q, n, big_q = params.q, params.n, params.Q
    if 6 * params.gadget_bound >= q:
        raise ValueError("parameters leave no decoding margin (need 6B < q)")
    rows = y.reshape(*y.shape[:-1], n, big_q)  # rows[i, k] = 2^k s_i + E_{i,k}
    delta = balanced(rows[..., 1:] - 2 * rows[..., :-1], q)  # E_{k+1} - 2 E_k
    powers = (1 << np.arange(big_q - 2, -1, -1)).astype(np.int64)
    carry = delta @ powers  # E_{Q-1} = 2^{Q-1} E_0 + carry
    e0 = np.rint(-carry / float(1 << (big_q - 1))).astype(np.int64)
    return (rows[..., 0] - e0) % q


def _residual_norms(a: np.ndarray, targets: np.ndarray, z: np.ndarray,
                    q: int) -> np.ndarray:
    """||t - A z||_inf on balanced residues for each row t of targets and z
    of z: a (..., m, n), targets (..., k, m), z (..., k, n)."""
    residual = matmul_mod(z, np.swapaxes(a, -1, -2), q)
    np.subtract(targets, residual, out=residual)
    residual %= q
    return np.minimum(residual, q - residual).max(axis=-1)


def invert(a: ZqArray, trap: TrapdoorKey, v: ZqArray,
           params: Params) -> np.ndarray | None:
    """Recover s from v = A s + e whenever ||e||_inf <= 2 tau; None otherwise.

    Recombination gives y = G s + E with ||E||_inf <= B, gadget_decode pins
    s, and the candidate is accepted only after the full check
    ||v - A s||_inf <= 2 tau.
    """
    if v.values.shape != (params.m,):
        raise ValueError(f"v must have length m = {params.m}")
    s = gadget_decode(recombine(trap, v.values, params), params)
    norm = _residual_norms(a.values, v.values[None], s[None], params.q)[0]
    return s if norm <= 2 * params.tau else None


# ---------------------------------------------------------------------------
# encryption

@dataclass(frozen=True)
class EncryptionRecord:
    """Ciphertext plus the referee-side secrets produced alongside it."""

    ciphertext: Ciphertext
    trapdoor: TrapdoorKey
    gamma: np.ndarray   # 2s + M as balanced integers (no modular wrap)
    message: np.ndarray


@functools.lru_cache(maxsize=16)
def _noise_sampler(params: Params) -> GaussianSampler:
    """The truncated Gaussian of s and e, tabulated once per Params."""
    return GaussianSampler(params.sigma, params.tau)


def encrypt(message, params: Params, rng: np.random.Generator) -> EncryptionRecord:
    """v = A (2s + M) + e with s, e truncated-Gaussian and M carrying the
    message bits in the last d coordinates."""
    h = np.asarray(message, dtype=np.int64)
    if h.shape != (params.d,) or not ((h == 0) | (h == 1)).all():
        raise ValueError(f"message must be {params.d} bits")
    if params.tau < 1:
        raise ValueError("parameters are not runnable: tau = 0")
    a, trap = gen_trap(params, rng)
    sampler = _noise_sampler(params)
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


class Shifts(NamedTuple):
    """What the referee keeps of round-one commitments once R is gone, over
    leading trial axes: A, the targets w and w + v, their trapdoor images
    (recombine), and the encryption's gamma for the wraparound test."""

    a: np.ndarray        # (..., m, n)
    targets: np.ndarray  # (..., 2, m)
    images: np.ndarray   # (..., 2, Qn)
    gamma: np.ndarray    # (..., n)


class Preimages(NamedTuple):
    """Both shifts of round-one commitments decoded, over leading trial
    axes: z[..., 0, :] from w and z[..., 1, :] from w + v, whether each
    passed invert's test (its residual within 2 tau; z is a meaningless
    candidate where not), and whether each sits within tau of its lattice
    point (the noise box)."""

    z: np.ndarray         # (..., 2, n)
    inverted: np.ndarray  # (..., 2) bool
    in_box: np.ndarray    # (..., 2) bool


def commitment_shifts(w: ZqArray, record: EncryptionRecord,
                      params: Params) -> Shifts:
    """The Shifts of one commitment w, from one product of R with the tops
    of w and w + v; afterwards the trapdoor is no longer needed.  A
    commitment of the wrong length raises ValueError."""
    if w.values.shape != (params.m,):
        raise ValueError(f"w must have length m = {params.m}")
    targets = np.array([w.values, (w + record.ciphertext.v).values])
    return Shifts(record.ciphertext.a.values, targets,
                  recombine(record.trapdoor, targets, params), record.gamma)


def decode_preimages(shifts: Shifts, params: Params) -> Preimages:
    """Decode both shifts and test each residual once, against 2 tau (invert)
    and tau (the noise box), over the leading axes of shifts."""
    z = gadget_decode(shifts.images, params)
    norms = _residual_norms(shifts.a, shifts.targets, z, params.q)
    return Preimages(z, norms <= 2 * params.tau, norms <= params.tau)
