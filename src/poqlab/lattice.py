"""Discrete Gaussian sampling, gadget trapdoors, and the encryption layer.

A is the classic two-block construction: a uniform top block Abar with
(Q+1)n rows, and a bottom block G - R Abar where G stacks the binary gadget
(1, 2, ..., 2^{Q-1}) per secret coordinate.  The trapdoor is R alone, a
matrix with small entries; inversion reads R and A, never Abar by itself.
Recombining v = A s + e through R (recombine) turns inversion into decoding
G s from noise bounded by B = 2 tau (1 + (Q+1) n) (gadget_decode).  The
decode is exact when 3B < q/2 (its 6B < q guard), and every Params meets
that: tau = floor(q / (4 m Q)) with m = (2Q+1) n gives 6B < q whenever
Q >= 3, and Q < 3 leaves tau = 0 (6B/q < 0.17 for odd primes q < 2 * 10^5
and n <= 64).

The two trapdoor products, R Abar in gen_trap and R t_top in recombine, run
in float64 BLAS and are exact: R is ternary and the other operand canonical
in [0, q), so every partial sum is an integer of magnitude below (Q+1) n q,
which _ternary_matmul_mod requires to be under 2^53 (about 2^36 at the desk
and separating presets).  Both are taken a row block of R at a time, each
block small enough (core._PRODUCT_WORK) that OpenBLAS runs it on the
calling thread, and reduced once at the end.  Every other product goes
through core.matmul_mod.

R is drawn from the raw bytes of the stream (_ternary_draw): a byte below
243 = 3^5 becomes its five base-3 digits minus one, and a byte of 243 or
more is dropped.  Each kept byte is uniform on the 243 strings in
{-1, 0, 1}^5, so the entries of R are independent and exactly uniform on
{-1, 0, 1}; the rejection only costs bytes.  gen_trap draws all of R's
kept bytes at once, so the stream is read as if R were drawn whole, but
expands them into R one row block at a time, just before that block is
multiplied by Abar, so the product reads the block while it is still in
cache (R is 1.5 MB at d = n = 16, a block 250 KB).

The noise s and e is the integer Gaussian of width sigma truncated to
[-tau, tau], tabulated once per Params (_noise_sampler, GaussianSampler).
Each entry is drawn by inverting the table's CDF at one uniform, with no
rejection loop, and honest_e_log_rate reads the exact law of the honest E
event off the same table.

Each residue is reduced once.  ZqArray copies its input to int64 and takes
% q only when a min/max scan finds an entry outside [0, q), so a canonical
A, v or w costs a scan and no division.  gen_trap writes Abar and G - R Abar
into one preallocated A, the bottom block made canonical by one conditional
add of q (both terms lie in [0, q)), and commitment_shifts forms w + v with
one conditional subtract of q.

R is needed only while a trial's products with it are taken.  A round-one
commitment w is assessed in two steps: commitment_shifts takes, while R is
live, the trapdoor images of both shifts w and w + v in one product and
keeps them with A and gamma (Shifts), after which the round engine drops
the EncryptionRecord and R with it; decode_preimages then decodes both
shifts and computes each residual t - A z once, which serves both invert's
2 tau acceptance test and the tau noise-box test.  decode_preimages works
over any leading trial axes, so the game decodes a block of trials at once
with no R held and one trial's Shifts decode alone; invert and the block
decode share gadget_decode and the residual test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import _PRODUCT_WORK, Params, balanced, integer_array, matmul_mod


@dataclass(frozen=True)
class ZqArray:
    """An integer array with its modulus, entries stored canonically."""

    q: int
    values: np.ndarray

    def __post_init__(self):
        # a copy, never the caller's array; reduced only when some entry
        # lies outside [0, q), since a min/max scan costs less than a %
        values = np.array(self.values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.q):
            values %= self.q
        object.__setattr__(self, "values", values)

    @property
    def shape(self):
        return self.values.shape


# ---------------------------------------------------------------------------
# discrete Gaussians

@dataclass(frozen=True)
class GaussianSampler:
    """The integer Gaussian with weight exp(-j^2 / 2 sigma^2) truncated to
    [-tau, tau], drawn by inversion of its table.

    support holds [-c, c] with c = min(max(ceil(8 sigma), 1), tau) and pmf
    the weights normalized over it, read-only.  Beyond 8 sigma the weights
    carry less than 1e-14 of the mass, so the table is the law conditioned
    on |j| <= tau.  The CDF's last entry is pinned to 1.0, so every uniform
    in [0, 1) lands on the table, and sample(rng, size) reads exactly size
    uniforms.  A weight off j = 0 is 0 where j^2 / 2 sigma^2 overflows or
    2 sigma^2 underflows to 0, so a tiny sigma gives the point mass at 0.
    """

    sigma: float
    tau: int

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:   # nan fails too
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        cut = min(max(math.ceil(8 * self.sigma), 1), self.tau)
        support = np.arange(-cut, cut + 1, dtype=np.int64)
        squares = support.astype(float) ** 2
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            weights = np.exp(-np.divide(squares, 2 * np.float64(self.sigma) ** 2,
                                        out=np.zeros_like(squares), where=support != 0))
        pmf = weights / weights.sum()
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0
        for table in (support, pmf, cdf):
            table.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "_cdf", cdf)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.support[np.searchsorted(self._cdf, rng.random(size))]


# ---------------------------------------------------------------------------
# trapdoor generation and inversion

@dataclass(frozen=True)
class TrapdoorKey:
    # Qn x (Q+1)n float64, uniform on {-1, 0, 1}, five entries per kept
    # stream byte (see _ternary_draw), expanded a row block at a time as
    # gen_trap multiplies it; products with residues stay exact while
    # (Q+1) n q < 2^53 (see _ternary_matmul_mod)
    r: np.ndarray


# row b: the base-3 digits of b, least significant first, minus one
_TRITS = (np.arange(243)[:, None] // 3 ** np.arange(5) % 3 - 1).astype(np.float64)
_TRITS.setflags(write=False)


def _ternary_draw(rng: np.random.Generator, count: int) -> np.ndarray:
    """The ceil(count / 5) uint8 stream bytes below 243 that carry count
    entries uniform on {-1, 0, 1}, five per byte (its row of _TRITS);
    bytes of 243 or more are dropped.  gen_trap expands them into R a row
    block at a time."""
    need = -(-count // 5)
    kept, have = [], 0
    while have < need:
        # about 5% of bytes are dropped; the margin makes a second call rare
        raw = np.frombuffer(rng.bytes((need - have) * 17 // 16 + 64),
                            dtype=np.uint8)
        kept.append(raw[raw < 243])
        have += len(kept[-1])
    return np.concatenate(kept)[:need]


def _block_rows(row_work: int) -> int:
    """Rows per block of a trapdoor product at row_work multiply-adds per
    row: at most _PRODUCT_WORK multiply-adds a block (five rows at least),
    so that BLAS runs each block on the calling thread, and a multiple of
    five rows, so that each block of R starts on a whole byte of its draw."""
    return max(5, _PRODUCT_WORK // row_work // 5 * 5)


def _ternary_matmul_mod(r: np.ndarray, x: np.ndarray, q: int,
                        fill=None) -> np.ndarray:
    """(r @ x) % q as int64, for float64 r with entries in {-1, 0, 1} and x
    canonical in [0, q).

    Every partial sum is an integer of magnitude below k q, k the inner
    dimension; while k q < 2^53 each one is a float64, so the BLAS product
    is exact in any summation order.  The bound depends on shapes and q
    only, so no operand is scanned.  r is multiplied a block of rows at a
    time (_block_rows), each block on the calling thread; fill(rows), when
    given, first writes those rows of r, so that gen_trap expands each
    block of R while it is still in cache.  One block, as at the desk
    preset, is one product with no loop: with cold caches the loop's
    Python steps cost 10-20 us a call, about 4% of an honest desk game.
    The exact float sums convert to int64 without loss and are reduced
    once, at the end: integer % by a scalar costs a fifth of float64 % or
    np.fmod, which go through a division per entry.
    """
    if r.shape[-1] * q >= 1 << 53:
        raise ValueError(f"ternary product not exact in float64: "
                         f"{r.shape[-1]} * q = {r.shape[-1] * q} >= 2^53")
    x = x.astype(np.float64)
    rows, step = len(r), _block_rows(x.size)
    if step >= rows:
        if fill is not None:
            fill(slice(0, rows))
        return (r @ x).astype(np.int64) % q
    out = np.empty(r.shape[:1] + x.shape[1:])
    for start in range(0, rows, step):
        block = slice(start, min(start + step, rows))
        if fill is not None:
            fill(block)
        np.matmul(r[block], x, out=out[block])
    return out.astype(np.int64) % q


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
    trapdoor R that makes invert() work (Abar is drawn first, then R)."""
    q, top_rows = params.q, (params.Q + 1) * params.n
    abar = rng.integers(0, q, size=(top_rows, params.n), dtype=np.int64)
    count = params.Q * params.n * top_rows
    kept = _ternary_draw(rng, count)
    # row b holds byte b's five trits; R is the first count of them, row-major
    trits = np.empty((len(kept), 5))
    r = trits.reshape(-1)[:count].reshape(-1, top_rows)

    def expand(rows: slice):
        # rows.start is a multiple of five (_block_rows), so the block
        # starts on a whole byte; only the last block's last byte is cut.
        # mode="clip" writes straight into out, where the default "raise"
        # buffers the whole output and ran nearly three times slower on all
        # of R's bytes at d = n = 16 (380 against 135 us)
        first, stop = rows.start * top_rows // 5, -(-rows.stop * top_rows // 5)
        np.take(_TRITS, kept[first:stop], axis=0, mode="clip",
                out=trits[first:stop])

    a = np.empty((params.m, params.n), dtype=np.int64)
    a[:top_rows] = abar
    # G and R Abar are canonical, so their difference lies in (-q, q)
    bottom = a[top_rows:]
    np.subtract(_gadget(params), _ternary_matmul_mod(r, abar, q, expand),
                out=bottom)
    np.add(bottom, q, out=bottom, where=bottom < 0)
    return ZqArray(q, a), TrapdoorKey(r=r)


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
    of z: a (..., m, n), targets (..., k, m), z (..., k, n).  The targets
    are canonical and A z is reduced into [0, q), so r = t - A z lies in
    (-q, q) and its balanced modulus is min(|r|, q - |r|), no second % q."""
    residual = matmul_mod(z, np.swapaxes(a, -1, -2), q)
    np.subtract(targets, residual, out=residual)
    np.abs(residual, out=residual)
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
    """The ciphertext (a, v) plus the referee-side secrets made with it."""

    a: ZqArray          # m x n
    v: ZqArray          # length m
    trapdoor: TrapdoorKey
    gamma: np.ndarray   # 2s + M as balanced integers (no modular wrap)


@functools.lru_cache(maxsize=16)
def _noise_sampler(params: Params) -> GaussianSampler:
    """The truncated Gaussian of s and e, tabulated once per Params."""
    return GaussianSampler(params.sigma, params.tau)


def honest_e_log_rate(params: Params) -> float:
    """ln P(E), the exact law of the honest prover's E event.

    One shift's residual is the noise box, uniform on [-tau, tau]^m; the
    other's is the box plus or minus e, e truncated-Gaussian, which stays in
    the box with probability (2 tau + 1 - |e|) / (2 tau + 1) per coordinate.
    So P(E) = (sum_e P(e) (2 tau + 1 - |e|) / (2 tau + 1))^m, which is
    (1 - E|e| / (2 tau + 1))^m, E|e| read off the noise sampler's table
    (already the law on |e| <= tau), taken as m log1p(...) since it
    underflows a float at the paper-asymptotic sets."""
    sampler = _noise_sampler(params)
    mean_abs = float(sampler.pmf @ np.abs(sampler.support))
    return params.m * math.log1p(-mean_abs / (2 * params.tau + 1))


def honest_e_rate(params: Params) -> float:
    """P(E) for the honest prover (honest_e_log_rate)."""
    return math.exp(honest_e_log_rate(params))


def encrypt(message, params: Params, rng: np.random.Generator) -> EncryptionRecord:
    """v = A (2s + M) + e with s, e truncated-Gaussian and M carrying the
    message bits in the last d coordinates."""
    h = integer_array(message, (params.d,))
    if h is None or not ((h == 0) | (h == 1)).all():
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
    return EncryptionRecord(a, ZqArray(params.q, v), trap, gamma)


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
    targets = np.empty((2, params.m), dtype=np.int64)
    targets[0] = w.values
    # both canonical, so the sum is at most 2q - 2
    shifted = targets[1]
    np.add(w.values, record.v.values, out=shifted)
    np.subtract(shifted, params.q, out=shifted, where=shifted >= params.q)
    return Shifts(record.a.values, targets,
                  recombine(record.trapdoor, targets, params), record.gamma)


def decode_preimages(shifts: Shifts, params: Params) -> Preimages:
    """Decode both shifts and test each residual once, against 2 tau (invert)
    and tau (the noise box), over the leading axes of shifts."""
    z = gadget_decode(shifts.images, params)
    norms = _residual_norms(shifts.a, shifts.targets, z, params.q)
    return Preimages(z, norms <= 2 * params.tau, norms <= params.tau)
