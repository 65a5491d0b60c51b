"""Reference implementations that only the tests use: slow, direct versions
of what poqlab computes, and the small helpers the tests build inputs with."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from poqlab.core import Params, matmul_mod
from poqlab.fourier import SubsetOfGroup, ZeroFunction
from poqlab.games import index_of
from poqlab.lattice import GaussianSampler, ZqArray
from poqlab.protocol import check_bits, referee_score


# ---------------------------------------------------------------------------
# bits

def binary_parse(bits) -> int:
    """Inverse of core.binary_repr for a single big-endian block."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def bit_select(bits, j):
    """1-based bit selection: a single index or an increasing index sequence."""
    bits = np.asarray(bits)
    if np.ndim(j) == 0:
        return int(bits[int(j) - 1])
    idx = np.asarray(j, dtype=np.int64) - 1
    return bits[idx].astype(np.uint8)


# ---------------------------------------------------------------------------
# lattice

def zq_matmul(a: ZqArray, b: ZqArray) -> ZqArray:
    """a @ b mod q."""
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q} vs {b.q}")
    return ZqArray(a.q, matmul_mod(a.values, b.values, a.q))


def gaussian_pmf(sampler: GaussianSampler, j: int) -> float:
    """Probability of j under the sampler's (possibly truncated) table."""
    sup, pmf = sampler._support, sampler._pmf
    if (sup == j).sum() == 0:
        return 0.0
    if sampler.tau is None:
        return float(pmf[sup == j].sum())
    if abs(j) > sampler.tau:
        return 0.0
    return float(pmf[sup == j].sum() / pmf[np.abs(sup) <= sampler.tau].sum())


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

    n clean LWE samples determine the secret exactly.
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


# ---------------------------------------------------------------------------
# games

def ghz_strategy_score_enum(tables: list[np.ndarray], d: int) -> Fraction:
    """Parity-game score of per-player tables, by enumerating the referee's
    even-parity questions."""
    k = len(tables)
    per_instance = [x for x in itertools.product((0, 1), repeat=k)
                    if sum(x) % 2 == 0]
    wins = 0
    total = 0
    for combo in itertools.product(per_instance, repeat=d):
        total += 1
        answers = []
        for player in range(k):
            x_bits = [combo[i][player] for i in range(d)]
            answers.append(tables[player][index_of(x_bits)])
        ok = all(
            (sum(combo[i]) + 2 * sum(int(a[i]) for a in answers)) % 4 == 0
            for i in range(d))
        wins += ok
    return Fraction(wins, total)


# ---------------------------------------------------------------------------
# fourier

def eta_quadruple_bruteforce(s: SubsetOfGroup) -> Fraction:
    """eta of a set by enumerating all quadruples.  |G| <= 256 only."""
    if s.group.size > 256:
        raise ValueError("brute-force oracle limited to |G| <= 256")
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    coords = s.group.elements()[els]
    t = len(els)
    m = s.group.m
    hits = 0
    for a in coords:
        for b in coords:
            ab = (a + b) % m
            for c in coords:
                for d_ in coords:
                    if np.array_equal(ab, (c + d_) % m):
                        hits += 1
    return Fraction(hits, t ** 4) / Fraction(1, t)


def collision_probability(p: np.ndarray) -> Fraction:
    """sum p_i^2 for an exact rational distribution."""
    return sum((Fraction(x) ** 2 for x in p), start=Fraction(0))


# ---------------------------------------------------------------------------
# attack

def best_score_oracle(x, pairs) -> float:
    """Direct maximization over all answer strings of the average score the
    referee gives (protocol.referee_score on each b checked alone, so a
    malformed b loses); independent of attack.decode_error."""
    x = np.asarray(x, dtype=np.int64)
    width = len(x)
    ys = np.array([y for y, _ in pairs])
    checked = [check_bits([b], 1, width) for _, b in pairs]
    bs, ok = (np.concatenate(col) for col in zip(*checked))
    committed = np.ones(len(pairs), dtype=bool)
    best = -1.0
    for a_idx in range(1 << width):
        a = np.broadcast_to((a_idx >> np.arange(width)) & 1, ys.shape)
        scores = referee_score(x, ys, a, committed, bs, ok)[2]
        best = max(best, float(np.mean(scores)))
    return best


def exact_max_mean(table: np.ndarray) -> float:
    """max over rows of the row mean."""
    return float(np.asarray(table).mean(axis=1).max())


def sampled_max_mean(table: np.ndarray, alpha: int,
                     rng: np.random.Generator) -> float:
    """max over rows of the mean over alpha uniformly sampled columns."""
    table = np.asarray(table)
    cols = rng.integers(0, table.shape[1], size=alpha)
    return float(table[:, cols].mean(axis=1).max())
