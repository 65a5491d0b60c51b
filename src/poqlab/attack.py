"""Rewinding-adversary machinery: the optimal-answer decoder, the sampling
deviation bound, and the distinguishing experiment E, which replays the
protocol's round against a classical prover and so turns a cheating prover
into an attack on the encryption.

Experiment E plays its first round through protocol.play_round, on real or
uniform advice; the encryption record is gone once play_round returns, so
none is held while rewinding.  It rewinds the prover's second round through
rewind(), which walks the d + 1 question levels once and asks the prover's
respond_bit each distinct question prefix once (provers.answer_table).  The
prover is deterministic and sees only the prefix, so this is the table of
its second responses exactly.  best_score judges the rewound answers by the
referee's rules (its answer check protocol.check_bits and games.j_score),
and decode_error finds the best answer string with one Walsh-Hadamard
transform, so no step of a rewind loops over single questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import _PRODUCT_WORK, Params, Rng, require_count
from .games import (SearchSpaceTooLarge, _input_bits, _questions,
                    j_sample_inputs, j_score)
from .protocol import check_bits, play_round
from .provers import ClassicalProver, answer_table

REWIND_LIMIT = 14
DECODE_LIMIT = 22


def decode_error(b_matrix, w) -> tuple[int, np.ndarray]:
    """min over z in {0,1}^{d+1} of the Hamming weight of B z xor w, and the
    z that reaches it, as (errors, z).

    Zero columns of B cannot affect the product, so the search runs over
    the k nonzero columns only (k is at most the weight of the question
    string that built B).  Row i of B, read little-endian over those
    columns, is a pattern p_i; the +-1 histogram h(p) = sum over the rows
    with p_i = p of (-1)^{w_i} has Walsh-Hadamard transform
    H(z) = sum_i (-1)^{w_i + <p_i, z>} = c - 2 errors(z), so one transform
    scores all 2^k answer patterns at once in O(c + k 2^k), and the argmin
    is the first pattern that reaches the minimum.  The transform holds
    two float64 arrays of 2^k entries, so past k = DECODE_LIMIT (64 MiB at
    the limit) it raises SearchSpaceTooLarge naming k.
    """
    b_matrix = np.asarray(b_matrix, dtype=np.uint8) % 2
    w = np.asarray(w, dtype=np.uint8) % 2
    c, width = b_matrix.shape
    if c < 1 or w.shape != (c,):
        raise ValueError("need a c x (d+1) matrix and a length-c vector")
    nonzero = np.flatnonzero(b_matrix.any(axis=0))
    k = len(nonzero)
    if k > DECODE_LIMIT:
        raise SearchSpaceTooLarge(f"decoding over k = {k} nonzero columns "
                                  f"scores 2^{k} patterns; the limit is "
                                  f"2^{DECODE_LIMIT}")
    patterns = b_matrix[:, nonzero] @ (1 << np.arange(k))
    # float64 sums of +-1 are exact far past any c a rewind reaches
    scores = np.bincount(patterns, weights=1.0 - 2.0 * w, minlength=1 << k)
    _walsh_hadamard(scores)
    best = int(scores.argmax())
    z = np.zeros(width, dtype=np.uint8)
    z[nonzero] = _input_bits(k, [best])[0]
    return (c - int(scores[best])) // 2, z


def _sylvester_hadamard(bits: int) -> np.ndarray:
    """The Hadamard matrix of order 2^bits by Sylvester's doubling
    H_2s = [[H_s, H_s], [H_s, -H_s]]: entry (i, j) is (-1)^<i, j>, so its
    leading 2^r x 2^r block is the one of order 2^r."""
    h = np.ones((1 << bits, 1 << bits))
    size = 1
    while size < len(h):
        block = h[:size, :size]
        h[size:2 * size, :size] = h[:size, size:2 * size] = block
        h[size:2 * size, size:2 * size] = -block
        size *= 2
    return h


# Index bits per chunk of the transform: a chunk costs 2^6 multiply-adds an
# entry in BLAS products, where one butterfly pass per bit would cost six
# numpy passes
_CHUNK_BITS = 6
_HADAMARD = _sylvester_hadamard(_CHUNK_BITS)


def _walsh_hadamard(h: np.ndarray) -> None:
    """The unnormalized Walsh-Hadamard transform of h (length 2^k), in
    place: H(z) = sum_p h(p) (-1)^{<p, z>}.

    The transform is one factor per index bit, so it runs in chunks of at
    most _CHUNK_BITS bits: a product with the chunk's Hadamard matrix over
    the low index bits, in row blocks of at most core._PRODUCT_WORK
    multiply-adds (so each stays on the calling thread), then a transposed
    copy that rotates the index bits so the next chunk comes low.  The
    chunks add up to k bits, so the last rotation restores the order.
    """
    bits = len(h).bit_length() - 1
    product = np.empty_like(h)
    while bits > 0:
        size = 1 << min(bits, _CHUNK_BITS)
        rows, out = h.reshape(-1, size), product.reshape(-1, size)
        step = _PRODUCT_WORK // (size * size)
        for start in range(0, len(rows), step):
            np.matmul(rows[start:start + step], _HADAMARD[:size, :size],
                      out=out[start:start + step])
        h.reshape(size, -1)[...] = out.T
        bits -= _CHUNK_BITS


def best_score(x, ys, bs) -> tuple[float, np.ndarray]:
    """Best average score the first player can still reach against the
    second player's answers bs to questions ys (both (k, d + 1), row by
    row), maximized over her answer string, and that string, as
    (score, z).

    Row j of the decode instance is x AND y_j; the target bit w_j records
    whether the all-zero answer loses against (y_j, b_j), by games.j_score.
    Flipping by an answer pattern z toggles row j exactly when
    <x AND y_j, z> = 1, so the maximization is a minimum-distance decode.
    An answer row that the referee rejects (protocol.check_bits: anything
    but d + 1 bits) loses for every answer string: a zero row, target 1.
    """
    x = np.asarray(x, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if not len(ys):
        raise ValueError("need at least one question")
    if ys.ndim != 2 or ys.shape[1] != len(x):
        raise ValueError("every question must share the length of x")
    bs, valid = check_bits(bs, *ys.shape)
    zeros = np.zeros_like(x)
    targets = np.where(valid, j_score(x, ys, zeros, bs) == -1, 1)
    err, z = decode_error((x & ys) * valid[:, None], targets)
    return 1 - 2 * err / len(ys), z


# ---------------------------------------------------------------------------
# the sampling bound

def sampling_bound(alpha: int, set_size: float, base: str = "e") -> float:
    """(2 + sqrt(log alpha + 2 log set_size)) / sqrt(alpha).

    Natural logarithms (base "e") match the Hoeffding derivation; base "2"
    is kept alongside because the worked numbers in circulation use it.
    """
    require_count("alpha", alpha)
    if base not in ("e", "2"):
        raise ValueError(f"base must be 'e' or '2', got {base!r}")
    log = math.log if base == "e" else math.log2
    return (2 + math.sqrt(log(alpha) + 2 * log(set_size))) / math.sqrt(alpha)


# ---------------------------------------------------------------------------
# rewinding experiments

def rewind(prover: ClassicalProver, mem: Any, d: int,
           indices=None) -> tuple[np.ndarray, np.ndarray]:
    """The prover's second responses from one first-round memory, as arrays
    (ys, bs) of questions and answers: row i asks y = (bits of indices[i],
    little-endian, then 1), over all 2^d questions in index order when
    indices is None.  Each distinct question prefix is asked once
    (provers.answer_table); repeated indices keep their rows.  At most
    2^REWIND_LIMIT questions."""
    count = 1 << d if indices is None else np.size(indices)
    if count > 1 << REWIND_LIMIT:
        raise ValueError(f"rewinding runs {count} second responses; "
                         f"the limit is 2^{REWIND_LIMIT}")
    ys = _questions(d, indices)
    return ys, answer_table(prover, ys, mem)


@dataclass(frozen=True)
class ExperimentOutcome:
    hidden_bit: int
    guess: int
    r: int
    rho: float


def experiment_e(prover: ClassicalProver, params: Params, rng: Rng,
                 rep: int, alpha: int | None = None) -> ExperimentOutcome:
    """One repetition: real encryption versus uniform pair, prover rewound
    through its second response, score estimate rho, and the +-1 signal r
    drawn with mean rho (the minimum-variance choice: P(+1) = (1+rho)/2).

    alpha = None enumerates every second-round question; a positive alpha
    samples min(alpha, 2^d) distinct ones.  The decode runs over at most
    weight(x) columns, so from d = 22 on an x of weight above DECODE_LIMIT
    raises SearchSpaceTooLarge.
    """
    if alpha is not None:
        require_count("alpha", alpha)
    d = params.d
    arm_rng = rng.stream("expE/arm", rep)
    hidden = int(arm_rng.integers(0, 2))
    x, _ = j_sample_inputs(d, arm_rng)
    first = play_round(prover, params, x, rng, "expE", rep, real=hidden == 0)
    indices = None
    if alpha is not None:
        # the prover is deterministic, so repeated questions add nothing;
        # sample without replacement (at alpha = 2^d this reproduces the
        # full enumeration exactly)
        indices = rng.stream("expE/questions", rep).choice(
            1 << d, size=min(alpha, 1 << d), replace=False)
    rho, _ = best_score(x, *rewind(prover, first.mem, d, indices))
    r = 1 if rng.stream("expE/signal", rep).random() < (1 + rho) / 2 else -1
    return ExperimentOutcome(hidden_bit=hidden, guess=0 if r == 1 else 1,
                             r=r, rho=rho)


@dataclass(frozen=True)
class AdvantageReport:
    reps: int
    reps_real: int
    reps_uniform: int
    mean_r_real: float
    mean_r_uniform: float
    advantage: float
    stderr: float
    guess_accuracy: float


def experiment_e_campaign(prover: ClassicalProver, params: Params, reps: int,
                          rng: Rng, alpha: int | None = None) -> AdvantageReport:
    """Estimated E[r | arm] for both arms and the distinguishing advantage
    (difference of means over two).

    An arm with no repetitions reports mean 0.0, which keeps the means in
    [-1, 1], but its count is 0 and advantage and stderr are nan: the
    difference is not measured then.
    """
    require_count("reps", reps)
    rs = {0: [], 1: []}
    correct = 0
    for rep in range(reps):
        out = experiment_e(prover, params, rng, rep, alpha)
        rs[out.hidden_bit].append(out.r)
        correct += out.guess == out.hidden_bit
    n0, n1 = len(rs[0]), len(rs[1])
    m0 = float(np.mean(rs[0])) if n0 else 0.0
    m1 = float(np.mean(rs[1])) if n1 else 0.0
    if n0 and n1:
        advantage = (m0 - m1) / 2
        stderr = float(np.sqrt((1 - m0 ** 2) / n0 + (1 - m1 ** 2) / n1)) / 2
    else:
        advantage = stderr = float("nan")
    return AdvantageReport(reps=reps, reps_real=n0, reps_uniform=n1,
                           mean_r_real=m0, mean_r_uniform=m1,
                           advantage=advantage, stderr=stderr,
                           guess_accuracy=correct / reps)


# ---------------------------------------------------------------------------
# the worked attack arithmetic

# Reference figures for the standard worked example.  Its threshold line
# reads 0.1127 + 0.05 = 0.1617, an addition slip (the sum is 0.1627); the
# plan reports the reference figure next to the recomputed one rather than
# silently picking either.
PUBLISHED_PLAN_FIGURES = {
    "d": 40, "epsilon": 0.05, "alpha": 400_000,
    "ceiling_upper": 0.1127, "threshold": 0.1617, "slack_base2": 0.01886,
}


@dataclass(frozen=True)
class AttackPlan:
    d: int
    epsilon: float
    alpha: int
    classical_ceiling: float
    ceiling_4dp: float
    threshold: float
    slack_natural: float
    slack_base2: float
    weight_cap: int
    weight_tail: float
    decode_work_log2: float
    published: dict | None = None


def attack_plan(d: int, epsilon: float, alpha: int) -> AttackPlan:
    """The end-to-end attack budget for the sequential game at dimension d.

    Reports the classical score ceiling 2 (3/4)^{d/4}, the distinguishing
    threshold (4-decimal ceiling plus epsilon), both sampling-slack modes,
    and a decode work estimate that ignores the all-zero columns: with
    probability 1 - weight_tail the question weight stays at or below
    weight_cap, leaving 2^{weight_cap} decode candidates of cost
    2 * alpha * weight_cap bit operations each.  That is the worked
    example's brute-force model; decode_error's transform does
    O(alpha + weight_cap 2^{weight_cap}) operations.
    """
    require_count("alpha", alpha)
    require_count("d", d)
    ceiling = 2 * (3 / 4) ** (d / 4)
    ceiling_4dp = math.ceil(ceiling * 10 ** 4) / 10 ** 4
    # smallest weight cap whose binomial tail drops below 0.12%
    nbits = d + 1
    tail = 1.0
    cap = nbits
    acc = 0.0
    total = 2 ** nbits
    for w in range(nbits, -1, -1):
        acc += math.comb(nbits, w) / total
        if acc > 0.0012:
            cap = w
            tail = acc - math.comb(nbits, w) / total
            break
    work = math.log2(2 * alpha * cap) + cap if cap else math.log2(2 * alpha)
    published = None
    ref = PUBLISHED_PLAN_FIGURES
    if (d, epsilon, alpha) == (ref["d"], ref["epsilon"], ref["alpha"]):
        published = dict(ref)
    return AttackPlan(
        d=d, epsilon=epsilon, alpha=alpha,
        classical_ceiling=ceiling, ceiling_4dp=ceiling_4dp,
        threshold=ceiling_4dp + epsilon,
        slack_natural=sampling_bound(alpha, 1 << d, base="e"),
        slack_base2=sampling_bound(alpha, 1 << d, base="2"),
        weight_cap=cap, weight_tail=tail, decode_work_log2=work,
        published=published)
