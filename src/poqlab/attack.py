"""Rewinding-adversary machinery: the optimal-answer decoder, the sampling
deviation bound, and the experiments that replay the protocol's round
against a classical prover: the share-the-prover experiments S1-S3 and the
distinguishing experiment E that turns a cheating prover into an attack on
the encryption.

Every experiment plays its first round through protocol.play_round, on real
or uniform advice, and rewinds the prover's second round through rewind(),
which walks the d + 1 question levels once and asks the prover's
respond_bit each distinct question prefix once (provers.answer_table).  The
prover is deterministic and sees only the prefix, so this is the table of
its second responses exactly.  best_score judges the rewound answers by the
referee's rules (its answer check protocol.check_bits and games.j_score),
and experiment S scores its rounds with the referee's verdict
protocol.referee_score, so a prover scores as in game R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import Params, Rng, require_count
from .games import j_sample_inputs, j_score
from .protocol import (ScoreStats, check_bits, play_round,
                       referee_first_assessment, referee_score)
from .provers import ClassicalProver, answer_table

REWIND_LIMIT = 14

# decode_error scores its answer patterns in blocks whose c-column product
# holds at most this many entries (1 MiB of uint8); at d = 8 every pattern
# of a full enumeration fits in one block
_DECODE_BLOCK = 1 << 20


def decode_error(b_matrix, w, return_argmin: bool = False):
    """min over z in {0,1}^{d+1} of the Hamming weight of B z xor w.

    Zero columns of B cannot affect the product, so the search runs over
    the nonzero columns only (their count k is at most the weight of the
    question string that built B).  The 2^k patterns are scored in index
    order, in blocks of at most _DECODE_BLOCK product entries, and the
    argmin is the first pattern that reaches the minimum.
    """
    b_matrix = np.asarray(b_matrix, dtype=np.uint8) % 2
    w = np.asarray(w, dtype=np.uint8) % 2
    c, width = b_matrix.shape
    if c < 1 or w.shape != (c,):
        raise ValueError("need a c x (d+1) matrix and a length-c vector")
    nonzero = np.flatnonzero(b_matrix.any(axis=0))
    best = int(w.sum())
    best_z = np.zeros(width, dtype=np.uint8)
    k = len(nonzero)
    bn_t = b_matrix[:, nonzero].T
    step = max(_DECODE_BLOCK // c, 1)
    for start in range(0, 1 << k, step):
        stop = min(start + step, 1 << k)
        patterns = ((np.arange(start, stop)[:, None] >> np.arange(k))
                    & 1).astype(np.uint8)
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
    if return_argmin:
        return best, best_z
    return best


def best_score(x, ys, bs, return_argmax: bool = False):
    """Best average score the first player can still reach against the
    second player's answers bs to questions ys (both (k, d + 1), row by
    row), maximized over her answer string.

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
    err, z = decode_error((x & ys) * valid[:, None], targets, return_argmin=True)
    score = 1 - 2 * err / len(ys)
    if return_argmax:
        return score, z
    return score


# ---------------------------------------------------------------------------
# the sampling bound

def sampling_bound(alpha: int, set_size: float, base: str = "e") -> float:
    """(2 + sqrt(log alpha + 2 log set_size)) / sqrt(alpha).

    Natural logarithms match the Hoeffding derivation; base-2 mode is kept
    alongside because the worked numbers in circulation use it.
    """
    require_count("alpha", alpha)
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
    count = 1 << d if indices is None else len(indices)
    if count > 1 << REWIND_LIMIT:
        raise ValueError(f"rewinding runs {count} second responses; "
                         f"the limit is 2^{REWIND_LIMIT}")
    indices = (np.arange(count) if indices is None
               else np.asarray(indices, dtype=np.int64))
    ys = np.ones((count, d + 1), dtype=np.uint8)
    ys[:, :d] = (indices[:, None] >> np.arange(d)) & 1
    return ys, answer_table(prover, ys, mem)


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
            a[t:t + 1], committed[t:t + 1], _, _ = referee_first_assessment(
                [first], params, lambda i: rng.stream("sexp/referee", t))
        else:
            _, a[t] = best_score(xs[t], *rewind(prover, first.mem, d),
                                 return_argmax=True)
        checked.append(check_bits([prover.second_response(ys[t], first.mem)],
                                  1, d + 1))
    b, b_ok = (np.concatenate(col) for col in zip(*checked))
    _, _, scores, _ = referee_score(xs, ys, a, committed, b, b_ok)
    return ScoreStats.from_scores(scores)


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
    samples that many.
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
        sample_rng = rng.stream("expE/questions", rep)
        if d <= 20:
            # the prover is deterministic, so repeated questions add nothing;
            # sample without replacement (at alpha = 2^d this reproduces the
            # full enumeration exactly)
            indices = sample_rng.choice(1 << d, size=min(alpha, 1 << d),
                                        replace=False)
        else:
            indices = sample_rng.integers(0, 1 << d, size=alpha)
    rho = best_score(x, *rewind(prover, first.mem, d, indices))
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
    2 * alpha * weight_cap bit operations each.
    """
    require_count("alpha", alpha)
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
        slack_natural=sampling_bound(alpha, 2.0 ** d, base="e"),
        slack_base2=sampling_bound(alpha, 2.0 ** d, base="2"),
        weight_cap=cap, weight_tail=tail, decode_work_log2=work,
        published=published)
