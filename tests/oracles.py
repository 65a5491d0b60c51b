"""Reference implementations that only the tests use: slow, direct versions
of what poqlab computes, and the small helpers the tests build inputs with."""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from poqlab.attack import best_score, rewind
from poqlab.core import Params, Rng, _scan_blocks, matmul_mod, require_count
from poqlab.fourier import (BOUND_TOL, SUPPORT_EPS, Group, GroupFunction,
                            SubsetOfGroup, ZeroFunction)
from poqlab.games import (_best_response_parallel, _best_response_sequential,
                          _counting_vectors, _differences, _input_bits,
                          _parity_sets, _tables, j_sample_inputs, j_score)
from poqlab.lattice import (_TRITS, EncryptionRecord, GaussianSampler,
                            TrapdoorKey, ZqArray, _gadget, _ternary_draw,
                            decode_preimages, encrypt)
from poqlab.protocol import (ScoreStats, check_bits, play_round,
                             referee_first_assessment, referee_score)
from poqlab.provers import ClassicalProver
from poqlab.quantum import ClawDescription, StateVector, round_one_answer


# ---------------------------------------------------------------------------
# bits

def binary_parse(bits) -> int:
    """Inverse of core.binary_repr for a single big-endian block."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def bits_of(index: int, width: int) -> np.ndarray:
    """The width little-endian bits of index, as uint8."""
    return ((index >> np.arange(width)) & 1).astype(np.uint8)


def index_of(bits) -> int:
    """Inverse of bits_of."""
    return int(sum(int(b) << j for j, b in enumerate(bits)))


def bit_select(bits, j):
    """1-based bit selection: a single index or an increasing index sequence."""
    bits = np.asarray(bits)
    if np.ndim(j) == 0:
        return int(bits[int(j) - 1])
    idx = np.asarray(j, dtype=np.int64) - 1
    return bits[idx].astype(np.uint8)


# ---------------------------------------------------------------------------
# randomness

def seedsequence_stream(self: Rng, label: str, index: int = 0
                        ) -> np.random.Generator:
    """Rng.stream as it was derived before streams were keyed straight from
    their digest: SHA-256 of "label:index" as four little-endian uint64
    words, behind the 64-bit seed, through numpy's SeedSequence into Philox.
    Patched over Rng.stream, it replays every transcript of that time."""
    digest = hashlib.sha256(f"{label}:{index}".encode()).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    ss = np.random.SeedSequence([self.seed & ((1 << 64) - 1), *words])
    return np.random.Generator(np.random.Philox(ss))


def sha_coin_bits(coins: np.ndarray, j: int, prefixes) -> np.ndarray:
    """The coin rule before each level was hashed once: the low bit of
    SHA-256(coins "/" j "," the prefix bits joined by ",") per row, one
    prefix at a time.  Patched over provers._coin_bits, it replays every
    rewound table and report of that time."""
    head = coins.tobytes() + f"/{j},".encode()
    return np.array([hashlib.sha256(head + ",".join(map(str, row)).encode())
                     .digest()[0] & 1 for row in np.asarray(prefixes).tolist()],
                    dtype=np.uint8)


_MASK64 = (1 << 64) - 1


def _fmix64(h: int) -> int:
    """MurmurHash3's 64-bit finalizer on a Python int."""
    for mul in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        h = ((h ^ (h >> 33)) * mul) & _MASK64
    return h ^ (h >> 33)


def coin_bits_oracle(coins: np.ndarray, j: int, prefixes) -> np.ndarray:
    """provers._coin_bits one prefix at a time in Python ints: the level
    key is SHA-256(coins "/" j)'s first 8 bytes, little-endian; a prefix,
    read as one little-endian integer, is split into 64-bit words, each
    folded in as h = fmix64(h xor word); the bit is the top bit of h."""
    digest = hashlib.sha256(coins.tobytes() + f"/{j}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    bits = []
    for row in np.asarray(prefixes).tolist():
        value = sum(1 << i for i, bit in enumerate(row) if bit)
        h = key
        for word in range(-(-len(row) // 64)):
            h = _fmix64(h ^ ((value >> 64 * word) & _MASK64))
        bits.append(h >> 63)
    return np.array(bits, dtype=np.uint8)


# ---------------------------------------------------------------------------
# lattice

def zq_add(a: ZqArray, b: ZqArray) -> ZqArray:
    """a + b mod q."""
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q} vs {b.q}")
    return ZqArray(a.q, a.values + b.values)


def zq_matmul(a: ZqArray, b: ZqArray) -> ZqArray:
    """a @ b mod q."""
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q} vs {b.q}")
    return ZqArray(a.q, matmul_mod(a.values, b.values, a.q))


def ternary_matrix(rng: np.random.Generator, rows: int, cols: int
                   ) -> np.ndarray:
    """R drawn whole: the kept bytes of lattice._ternary_draw expanded
    through _TRITS at once, then cut to rows x cols."""
    trits = np.take(_TRITS, _ternary_draw(rng, rows * cols), axis=0)
    return trits.reshape(-1)[:rows * cols].reshape(rows, cols)


def gen_trap_oracle(params: Params, rng: np.random.Generator,
                    draw_r=ternary_matrix) -> tuple[ZqArray, TrapdoorKey]:
    """gen_trap as it was before A was assembled in place and R expanded a
    row block at a time: the same draws, R from draw_r(rng, rows, cols) in
    one piece and multiplied in one int64 product, the bottom block
    reduced with % q and stacked under Abar."""
    top_rows = (params.Q + 1) * params.n
    abar = rng.integers(0, params.q, size=(top_rows, params.n), dtype=np.int64)
    r = draw_r(rng, params.Q * params.n, top_rows)
    product = (r.astype(np.int64) @ abar) % params.q
    bottom = (_gadget(params) - product) % params.q
    return ZqArray(params.q, np.vstack([abar, bottom])), TrapdoorKey(r)


def gaussian_pmf(sampler: GaussianSampler, j: int) -> float:
    """Probability of j under the sampler's table (0 off it)."""
    return float(sampler.pmf[sampler.support == j].sum())


@dataclass(frozen=True)
class RejectionGaussianSampler:
    """lattice.GaussianSampler as it was before it drew by inversion: the
    untruncated law tabulated on [-ceil(8 sigma), ceil(8 sigma)] (one entry
    at least), |j| <= tau enforced by rejection, each pass drawing
    floor(1.2 want / accept) + 8 uniforms and keeping the first want that
    pass.  Its support and pmf are the conditional law on |j| <= tau.  At
    some sigma its CDF ends below the largest uniform, 1 - 2^-53, which
    then lands past the table: sample raises IndexError."""

    sigma: float
    tau: int

    def __post_init__(self):
        cut = max(int(np.ceil(8 * self.sigma)), 1)
        support = np.arange(-cut, cut + 1)
        weights = np.exp(-(support.astype(float) ** 2) / (2 * self.sigma ** 2))
        pmf = weights / weights.sum()
        kept = np.abs(support) <= self.tau
        object.__setattr__(self, "_cdf", np.cumsum(pmf))
        object.__setattr__(self, "_accept", max(float(pmf[kept].sum()), 1e-12))
        object.__setattr__(self, "_full_support", support)
        object.__setattr__(self, "support", support[kept])
        object.__setattr__(self, "pmf", pmf[kept] / pmf[kept].sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            want = size - filled
            batch = int(want / self._accept * 1.2) + 8
            draws = self._full_support[np.searchsorted(self._cdf,
                                                       rng.random(batch))]
            draws = draws[np.abs(draws) <= self.tau]
            take = min(len(draws), want)
            out[filled:filled + take] = draws[:take]
            filled += take
        return out


def rejection_noise_sampler(params: Params) -> RejectionGaussianSampler:
    """lattice._noise_sampler as it was before the noise was drawn by
    inversion.  Patched over it, it replays every transcript of that time."""
    return RejectionGaussianSampler(params.sigma, params.tau)


def lwe_oracle(kind: str, params: Params, rng: np.random.Generator,
               sigma: float | None = None):
    """Infinite stream of (a, b) pairs: 'real' fixes a hidden secret and
    emits (a, a.s + e); 'uniform' emits uniform pairs."""
    if kind not in ("real", "uniform"):
        raise ValueError("kind must be 'real' or 'uniform'")
    q, n = params.q, params.n
    if kind == "real":
        secret = rng.integers(0, q, size=n, dtype=np.int64)
        sigma = sigma if sigma is not None else params.sigma
        sampler = GaussianSampler(sigma, math.ceil(8 * sigma))
        while True:
            a = rng.integers(0, q, size=n, dtype=np.int64)
            b = (int(matmul_mod(a, secret, q)) + sampler.sample(rng, 1)[0]) % q
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


def ghz4_value_third_player(mode: str, d: int) -> Fraction:
    """Repeated 4-player value by enumerating the third player: every
    distinct convolution of the first two players' counting vectors (found
    by np.unique over all ordered pairs) times every third player's
    circulant, in blocks of 128 pairs, then the last player's closed-form
    (time-ordered, in sequential mode) best response."""
    vecs = _counting_vectors(_parity_sets(_tables(d, d, mode == "sequential")))
    n, size = vecs.shape
    conv = vecs[:, _differences(d)]               # conv[j, g, h] = v_j(g - h)
    pairs = np.unique(np.einsum("ih,jgh->ijg", vecs, conv).reshape(-1, size), axis=0)
    circulants = conv.transpose(2, 0, 1).reshape(size, n * size).astype(np.float32)
    respond = (_best_response_sequential if mode == "sequential"
               else _best_response_parallel)
    best = 0
    for start in range(0, len(pairs), 128):
        block = pairs[start:start + 128].astype(np.float32) @ circulants
        triples = np.rint(block).astype(np.int64).reshape(-1, n, size)
        best = max(best, int(respond(triples, d).max()))
    return Fraction((1 << d) * best, (1 << d) ** 4)


def j_bias_one_hot(d: int, sequential: bool = False) -> Fraction:
    """Claw-game bias by scoring every first-player table against every
    second-player table: a dense float32 product of the first player's
    per-table sums with a one-hot matrix of the second player's tables.
    Every sum is an integer of magnitude at most 4^d, so float32 holds it
    exactly."""
    nq, na = 1 << d, 1 << (d + 1)
    xs = np.stack([np.append(bits_of(i, d), 1) for i in range(nq)])
    outs = np.stack([bits_of(i, d + 1) for i in range(na)])
    # score[x_idx, y_idx, a_idx, b_idx] over every question and answer index
    score = j_score(xs[:, None, None, None], xs[None, :, None, None],
                    outs[None, None, :, None], outs[None, None, None, :])
    weights = 1 << np.arange(d + 1)   # answer tables as answer indices
    alice = _tables(d, d + 1, False).astype(np.int64) @ weights
    bob = _tables(d, d + 1, sequential).astype(np.int64) @ weights
    # u_all[i, y, b]: Alice's table i summed over x against answer b to y
    u_all = score[np.arange(nq), :, alice].sum(axis=1)
    one_hot = np.zeros((nq * na, bob.shape[0]), dtype=np.float32)
    one_hot[np.arange(nq) * na + bob, np.arange(bob.shape[0])[:, None]] = 1.0
    sums = u_all.reshape(alice.shape[0], -1).astype(np.float32) @ one_hot
    best = int(np.rint(max(sums.max(), -sums.min())))
    return Fraction(best, nq * nq)


# ---------------------------------------------------------------------------
# fourier

def group_elements(group: Group) -> np.ndarray:
    """All elements of Z_m^n as a (size, n) array, row i = group.decode(i)."""
    idx = np.arange(group.size)
    return np.stack([(idx // group.m ** j) % group.m for j in range(group.n)],
                    axis=1).astype(np.int64)


def eta_quadruple_bruteforce(s: SubsetOfGroup) -> Fraction:
    """eta of a set by enumerating all quadruples.  |G| <= 256 only."""
    if s.group.size > 256:
        raise ValueError("brute-force oracle limited to |G| <= 256")
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    coords = group_elements(s.group)[els]
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


def eta_set_dict(s: SubsetOfGroup) -> Fraction:
    """eta of a set by counting pair sums, keyed by element tuple, in a
    dict: eta = sum_g N(g)^2 / t^3."""
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    coords = group_elements(s.group)[els]
    counts: Counter = Counter()
    for row in coords:
        counts.update(map(tuple, ((row + coords) % s.group.m).tolist()))
    t = len(els)
    return Fraction(sum(c * c for c in counts.values()), t ** 3)


def linearity_eta_two_transforms(f: GroupFunction) -> float:
    """eta of |f| / ||f||_1 from the distribution of x + y, computed as
    ifftn(fftn(p)^2), then sum_s P[x+y=s]^2 / sum p^2."""
    m, n = f.group.m, f.group.n
    w = np.abs(f.values)
    p = w / w.sum()
    conv = np.fft.ifftn(np.fft.fftn(p.reshape([m] * n)) ** 2).real
    return float((conv ** 2).sum()) / float((p ** 2).sum())


def dft_oracle(f: GroupFunction) -> np.ndarray:
    """The unitary transform of one function, through np.fft.ifftn."""
    m, n = f.group.m, f.group.n
    return np.fft.ifftn(f.values.reshape([m] * n), norm="ortho").reshape(-1)


def support_size_oracle(values: np.ndarray) -> int:
    return len(np.flatnonzero(np.abs(values) > SUPPORT_EPS))


def nu_eta_oracle(f: GroupFunction) -> tuple[float, float]:
    """nu and eta of p = |f| / ||f||_1, as the uncertainty checks computed
    them one function and one transform at a time; nu counts its support
    under SUPPORT_EPS."""
    w = np.abs(f.values)
    p = w / w.sum()
    nu = 1.0 / (support_size_oracle(w) * float((p ** 2).sum()))
    power = np.abs(dft_oracle(GroupFunction(f.group, p))) ** 2
    eta = f.group.size * float((power ** 2).sum()) / float((p ** 2).sum())
    return nu, eta


def uncertainty_product_oracle(h: GroupFunction) -> float:
    """|Supp h| |Supp h_hat| nu(h) eta(h) / |G|, transforming h and |h|
    apart."""
    nu, eta = nu_eta_oracle(h)
    return (support_size_oracle(h.values) * support_size_oracle(dft_oracle(h))
            * nu * eta) / h.group.size


def donoho_stark_oracle(h: GroupFunction) -> bool:
    return (support_size_oracle(h.values) * support_size_oracle(dft_oracle(h))
            >= h.group.size)


def uncertainty_bound_oracle(f: GroupFunction,
                             g: GroupFunction) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) of fourier.uncertainty_bound_check for unit f, g,
    transforming f and |f| apart."""
    lhs = abs(complex(np.vdot(g.values, dft_oracle(f))))
    nu, eta = nu_eta_oracle(f)
    rhs = float((support_size_oracle(f.values) * support_size_oracle(g.values)
                 * nu * eta / f.group.size) ** 0.25)
    return lhs, rhs, lhs <= rhs + BOUND_TOL


def collision_probability(p: np.ndarray) -> Fraction:
    """sum p_i^2 for an exact rational distribution."""
    return sum((Fraction(x) ** 2 for x in p), start=Fraction(0))


# ---------------------------------------------------------------------------
# quantum

def apply_zc(state: StateVector, qubit: int, c: float) -> StateVector:
    """Z^c: multiply the |1> component of the target qubit by exp(i pi c)."""
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    grid = state._grid().copy()
    index = [slice(None)] * state.num_qubits
    index[qubit] = 1
    grid[tuple(index)] *= np.exp(1j * np.pi * c)
    return StateVector(state.num_qubits, grid.reshape(-1))


def honest_first_round_oracle(firsts, params: Params):
    """The honest prover's claws derived apart from the referee's block
    decode, trial by trial: decode each round's Shifts alone, build the
    answer string with round_one_answer, and take the phase (-1)^{a_d} when
    both preimages sit in the noise box, else 0.  Returns the rows
    (branch0, branch1, phase) of quantum.honest_first_round."""
    n, d = params.n, params.d
    rows = []
    for first in firsts:
        pre = decode_preimages(first.shifts, params)
        answer = round_one_answer(pre.z[0], pre.z[1], first.bits, params)
        phase = 1 - 2 * int(answer[d]) if pre.in_box.all() else 0
        rows.append((answer[:d], (pre.z[1, n - d:] % 2).astype(np.uint8),
                     phase))
    return tuple(np.array(col) for col in zip(*rows))


def claw_description(claws, in_box, i: int) -> ClawDescription:
    """Trial i of the claw rows (branch0, branch1, phase) as a
    ClawDescription: both branches when both preimages sit in the noise box
    (in_box, the referee's Preimages.in_box), else the one branch that
    does."""
    branch0, branch1, phase = (col[i] for col in claws)
    in_box0, in_box1 = in_box[i]
    return ClawDescription(branch0 if in_box0 else None,
                           branch1 if in_box1 else None, int(phase) or 1)


def round_record(x, params: Params, rng: Rng, label: str,
                 index: int) -> EncryptionRecord:
    """The encryption record that protocol.play_round drew for trial index
    on real advice and dropped: encrypt is deterministic in its stream."""
    return encrypt(x[:params.d], params, rng.stream(f"{label}/encrypt", index))


# ---------------------------------------------------------------------------
# attack

def run_experiment_s(which: int, prover: ClassicalProver, params: Params,
                     trials: int, rng: Rng) -> ScoreStats:
    """Experiments 1-3 on a classical prover.

    1: the prover's own answer string is derived through the trapdoor, so the
       transcript distribution matches the encrypted game exactly.
    2: the answer string is instead chosen to maximize the average score
       against the prover's full second-round response table (rewinding).
    3: like 2, but the advice pair (A, v) is uniform rather than an
       encryption, so the hidden bits can play no role.
    Input, coin, and encryption streams are shared across experiments so the
    three runs are coupled trial by trial.  Each answer is checked alone, so
    a malformed one loses only its trial, and the referee's verdict scores
    the trials at once.
    """
    if which not in (1, 2, 3):
        raise ValueError("experiment index must be 1, 2, or 3")
    require_count("trials", trials)
    d = params.d
    xs, ys, a = (np.zeros((trials, d + 1), dtype=np.uint8) for _ in range(3))
    committed = np.ones(trials, dtype=bool)
    checked = []
    for t in range(trials):
        xs[t], ys[t] = j_sample_inputs(d, rng.stream("sexp/inputs", t))
        first = play_round(prover, params, xs[t], rng, "sexp", t,
                           real=which != 3)
        if which == 1:
            _, a[t:t + 1], committed[t:t + 1], _, _ = referee_first_assessment(
                [first], params, lambda i: rng.stream("sexp/referee", t))
        else:
            _, a[t] = best_score(xs[t], *rewind(prover, first.mem, d))
        checked.append(check_bits([prover.second_response(ys[t], first.mem)],
                                  1, d + 1))
    b, b_ok = (np.concatenate(col) for col in zip(*checked))
    _, _, scores, _ = referee_score(xs, ys, a, committed, b, b_ok)
    return ScoreStats.from_scores(scores)


def decode_error_scan(b_matrix, w) -> tuple[int, np.ndarray]:
    """attack.decode_error as a blocked scan: the 2^k patterns over the
    nonzero columns scored against every row in index order, in blocks of at
    most core._SCAN_ENTRIES product entries, the first minimum kept."""
    b_matrix = np.asarray(b_matrix, dtype=np.uint8) % 2
    w = np.asarray(w, dtype=np.uint8) % 2
    c, width = b_matrix.shape
    nonzero = np.flatnonzero(b_matrix.any(axis=0))
    best = int(w.sum())
    best_z = np.zeros(width, dtype=np.uint8)
    k = len(nonzero)
    bn_t = b_matrix[:, nonzero].T
    for block in _scan_blocks(1 << k, c):
        patterns = _input_bits(k, np.arange(block.start, block.stop)).astype(np.uint8)
        # uint8 sums may wrap past 255, which keeps their parity
        flips = patterns @ bn_t
        flips &= 1
        flips ^= w
        errs = flips.sum(axis=1)
        idx = int(errs.argmin())
        if int(errs[idx]) < best:
            best = int(errs[idx])
            best_z = np.zeros(width, dtype=np.uint8)
            best_z[nonzero] = patterns[idx]
    return best, best_z


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
