"""Referee/prover orchestration: the encrypted two-round game (one-shot and
sequential), its claw-game counterpart for the honest strategy, the three
share-the-prover experiments, and transcript/statistics plumbing.

Per-trial randomness always comes from labeled streams of a single Rng, so
any trial subset can be recomputed independently and reruns are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import best_score
from .core import Params, Rng, balanced_abs, binary_repr, matmul_mod, norminf
from .games import j_score
from .lattice import EncryptionRecord, ZqArray, encrypt, invert
from .provers import ClassicalProver, TrapdoorLeakProver
from .quantum import (honest_first_round, honest_second_round,
                      round_one_positions, sample_claw_outcomes)

REWIND_LIMIT = 14


@dataclass(frozen=True)
class ScoreStats:
    trials: int
    mean: float
    stderr: float
    ci95_lo: float
    ci95_hi: float

    @classmethod
    def from_scores(cls, scores) -> "ScoreStats":
        scores = np.asarray(scores, dtype=float)
        n = len(scores)
        mean = float(scores.mean()) if n else 0.0
        stderr = float(scores.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(trials=n, mean=mean, stderr=stderr,
                   ci95_lo=mean - 1.96 * stderr, ci95_hi=mean + 1.96 * stderr)

    def csv_row(self, experiment: str) -> str:
        return (f"{experiment},{self.trials},{self.mean:.6f},{self.stderr:.6f},"
                f"{self.ci95_lo:.6f},{self.ci95_hi:.6f}")

    @staticmethod
    def csv_header() -> str:
        return "experiment,trials,mean,stderr,ci95_lo,ci95_hi"


def _bits_str(bits) -> str:
    return "".join(str(int(b)) for b in np.atleast_1d(bits))


@dataclass(frozen=True)
class Transcript:
    """One full game record; every field round-trips through the line format."""

    game: str
    trial: int
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    ells: np.ndarray
    score: int
    e_flag: bool
    f_flag: bool
    seed: str

    def rescore(self) -> int:
        return j_score(self.x, self.y, self.a, self.b)

    def to_line(self) -> str:
        fields = [
            ("game", self.game), ("trial", self.trial),
            ("x", _bits_str(self.x)), ("y", _bits_str(self.y)),
            ("a", _bits_str(self.a)), ("b", _bits_str(self.b)),
            ("w", ",".join(str(int(v)) for v in self.w)),
            ("ells", _bits_str(self.ells)),
            ("score", f"{self.score:+d}"),
            ("e_flag", int(self.e_flag)), ("f_flag", int(self.f_flag)),
            ("seed", self.seed),
        ]
        return " ".join(f"{k}={v}" for k, v in fields)

    @classmethod
    def from_line(cls, line: str) -> "Transcript":
        kv = dict(part.split("=", 1) for part in line.split())
        as_bits = lambda s: np.array([int(c) for c in s], dtype=np.uint8)
        return cls(
            game=kv["game"], trial=int(kv["trial"]),
            x=as_bits(kv["x"]), y=as_bits(kv["y"]),
            a=as_bits(kv["a"]), b=as_bits(kv["b"]),
            w=np.array([int(v) for v in kv["w"].split(",")] if kv["w"] else [],
                       dtype=np.int64),
            ells=as_bits(kv["ells"]), score=int(kv["score"]),
            e_flag=bool(int(kv["e_flag"])), f_flag=bool(int(kv["f_flag"])),
            seed=kv["seed"])


@dataclass
class GameResult:
    stats: ScoreStats
    transcripts: list[Transcript] = field(default_factory=list)
    e_rate: float | None = None
    f_rate: float | None = None
    conditional_mean: float | None = None


# ---------------------------------------------------------------------------
# the claw game (no encryption layer)

def run_game_j(d: int, trials: int, rng: Rng,
               keep_transcripts: bool = False) -> GameResult:
    """Honest strategy at the claw game, vectorized over trials: a is the
    uniform first-round outcome, which leaves the claw
    (a[:d], a[:d] ^ x[:d], (-1)^{a_d}), and b is that claw measured in y."""
    gen = rng.stream("gameJ/inputs")
    xs = np.hstack([gen.integers(0, 2, size=(trials, d)),
                    np.ones((trials, 1), dtype=np.int64)])
    ys = np.hstack([gen.integers(0, 2, size=(trials, d)),
                    np.ones((trials, 1), dtype=np.int64)])
    gen = rng.stream("gameJ/answers")
    a = gen.integers(0, 2, size=(trials, d + 1))
    b = sample_claw_outcomes(a[:, :d], a[:, :d] ^ xs[:, :d], 1 - 2 * a[:, d],
                             ys, gen)
    u = xs * (1 - 2 * a)
    v = ys + 2 * b.astype(np.int64)
    scores = np.where(((u * v).sum(axis=1) % 4) <= 1, 1, -1)
    transcripts = []
    if keep_transcripts:
        for t in range(trials):
            transcripts.append(Transcript(
                game="J", trial=t, x=xs[t].astype(np.uint8),
                y=ys[t].astype(np.uint8), a=a[t].astype(np.uint8), b=b[t],
                w=np.zeros(0, dtype=np.int64), ells=np.zeros(0, dtype=np.uint8),
                score=int(scores[t]), e_flag=True, f_flag=True,
                seed=f"{rng.seed}:gameJ:{t}"))
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts)


# ---------------------------------------------------------------------------
# the encrypted game

def referee_first_assessment(w: ZqArray, ells: np.ndarray,
                             record: EncryptionRecord, params: Params,
                             fallback: np.random.Generator):
    """Referee's round-one bookkeeping: invert both shifts of the prover's
    commitment and derive the answer string it will be scored with.

    Returns (a, e_flag, f_flag); on inversion failure a is sampled uniformly.
    """
    q, n, d, tau = params.q, params.n, params.d, params.tau
    if ells.shape != (n * params.Q - d,):
        raise ValueError(f"round-one bits must cover {n * params.Q - d} positions")
    a_mat = record.ciphertext.a
    z0 = invert(a_mat, record.trapdoor, w, params)
    z1 = invert(a_mat, record.trapdoor, w + record.ciphertext.v, params)
    if z0 is None or z1 is None:
        return fallback.integers(0, 2, size=d + 1).astype(np.uint8), False, False

    in_box0 = norminf((w.values - matmul_mod(a_mat.values, z0, q)) % q, q) <= tau
    in_box1 = norminf(((w + record.ciphertext.v).values
                       - matmul_mod(a_mat.values, z1, q)) % q, q) <= tau
    e_flag = bool(in_box0 and in_box1)
    f_flag = bool((balanced_abs(z0, q) > np.abs(record.gamma)).all())

    a = np.zeros(d + 1, dtype=np.uint8)
    a[:d] = (z0[n - d:] % 2).astype(np.uint8)
    positions = round_one_positions(params)
    diff = (binary_repr(z0, params.Q) ^ binary_repr(z1, params.Q))[positions - 1]
    a[d] = int((diff & ells).sum()) % 2
    return a, e_flag, f_flag


def run_game_r(prover, params: Params, trials: int, rng: Rng,
               sequential: bool = False,
               keep_transcripts: bool = False) -> GameResult:
    """The encrypted game: prover is either the string 'honest' or a
    ClassicalProver.  Sequential mode feeds round-two question bits one at a
    time (honest measurement order is already sequential, so only classical
    provers behave differently there)."""
    if params.d < 1:
        raise ValueError("need d >= 1")
    if not params.game_r_runnable:
        raise ValueError("; ".join(params.runnability_problems()))
    d = params.d
    game = "Rseq" if sequential else "R"
    scores = np.zeros(trials, dtype=np.int64)
    e_flags = np.zeros(trials, dtype=bool)
    f_flags = np.zeros(trials, dtype=bool)
    transcripts: list[Transcript] = []

    for t in range(trials):
        inp = rng.stream("gameR/inputs", t)
        x = np.append(inp.integers(0, 2, size=d), 1).astype(np.uint8)
        y = np.append(inp.integers(0, 2, size=d), 1).astype(np.uint8)
        record = encrypt(x[:d], params, rng.stream("gameR/encrypt", t))

        if prover == "honest":
            first = honest_first_round(record, params,
                                       rng.stream("gameR/prover", t))
            w, ells = first.w, first.ells
            b = honest_second_round(first.claw, y,
                                    rng.stream("gameR/prover2", t))
        else:
            if isinstance(prover, TrapdoorLeakProver):
                prover.set_leak(record.trapdoor)
            coins = rng.stream("gameR/coins", t).integers(0, 1 << 62, size=4)
            w, ells, mem = prover.first_response(
                record.ciphertext.a, record.ciphertext.v, coins)
            if sequential:
                b = np.array([prover.respond_bit(j, y[:j + 1], mem)
                              for j in range(d + 1)], dtype=np.uint8)
            else:
                b = prover.second_response(y, mem)

        a, e_flag, f_flag = referee_first_assessment(
            w, ells, record, params, rng.stream("gameR/referee", t))
        scores[t] = j_score(x, y, a, b)
        e_flags[t], f_flags[t] = e_flag, f_flag
        if keep_transcripts:
            transcripts.append(Transcript(
                game=game, trial=t, x=x, y=y, a=a, b=b, w=w.values.copy(),
                ells=ells.copy(), score=int(scores[t]), e_flag=e_flag,
                f_flag=f_flag, seed=f"{rng.seed}:gameR:{t}"))

    both = e_flags & f_flags
    conditional = float(scores[both].mean()) if both.any() else None
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts,
                      e_rate=float(e_flags.mean()),
                      f_rate=float(f_flags.mean()),
                      conditional_mean=conditional)


# ---------------------------------------------------------------------------
# the share-the-prover experiments

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
    three runs are coupled trial by trial.
    """
    if which not in (1, 2, 3):
        raise ValueError("experiment index must be 1, 2, or 3")
    d = params.d
    if which in (2, 3) and d > REWIND_LIMIT:
        raise ValueError(f"rewinding runs 2^d second responses; d <= {REWIND_LIMIT}")
    scores = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        inp = rng.stream("sexp/inputs", t)
        x = np.append(inp.integers(0, 2, size=d), 1).astype(np.uint8)
        y = np.append(inp.integers(0, 2, size=d), 1).astype(np.uint8)
        record = encrypt(x[:d], params, rng.stream("sexp/encrypt", t))
        if which == 3:
            gen = rng.stream("sexp/uniform", t)
            a_mat = ZqArray(params.q, gen.integers(
                0, params.q, size=(params.m, params.n), dtype=np.int64))
            v_vec = ZqArray(params.q, gen.integers(0, params.q, size=params.m,
                                                   dtype=np.int64))
            if isinstance(prover, TrapdoorLeakProver):
                prover.set_leak(None)
        else:
            a_mat, v_vec = record.ciphertext.a, record.ciphertext.v
            if isinstance(prover, TrapdoorLeakProver):
                prover.set_leak(record.trapdoor)
        coins = rng.stream("sexp/coins", t).integers(0, 1 << 62, size=4)
        w, ells, mem = prover.first_response(a_mat, v_vec, coins)

        if which == 1:
            a, _, _ = referee_first_assessment(
                w, ells, record, params, rng.stream("sexp/referee", t))
        else:
            pairs = []
            for idx in range(1 << d):
                yq = np.append(((idx >> np.arange(d)) & 1), 1).astype(np.uint8)
                pairs.append((yq, prover.second_response(yq, mem)))
            _, a = best_score(x, pairs, return_argmax=True)
        b = prover.second_response(y, mem)
        scores[t] = j_score(x, y, a, b)
    return ScoreStats.from_scores(scores)


def experiment_s1(prover, params, trials, rng):
    return run_experiment_s(1, prover, params, trials, rng)


def experiment_s2(prover, params, trials, rng):
    return run_experiment_s(2, prover, params, trials, rng)


def experiment_s3(prover, params, trials, rng):
    return run_experiment_s(3, prover, params, trials, rng)
