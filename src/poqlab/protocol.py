"""The round engine and the games built on it: the encrypted two-round game
(one-shot and sequential), its claw-game counterpart for the honest
strategy, and transcript/statistics plumbing.

A round: the referee sends advice (A, v), the prover commits to (w, ells),
the referee inverts the commitment through its trapdoor into an answer
string a, and the prover answers a question y with b.  play_round plays the
first half for game R and for the experiments in attack.py, which replay it
on real or uniform advice.  The referee is total: a message that is not well
formed loses the trial (score -1); it is never coerced and never raises.
Its rules live once: the answer string quantum.round_one_answer, the score
games.j_score, the message check _bit_rows (_bits for one message;
attack.best_score checks each rewound answer with it).

Per-trial randomness always comes from labeled streams of a single Rng, so
any trial subset can be recomputed independently and reruns are bit-exact.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Params, Rng, balanced_abs
from .games import j_sample_inputs, j_score
from .lattice import (EncryptionRecord, Preimages, ZqArray, assess_preimages,
                      encrypt)
from .provers import TrapdoorLeakProver, answer_table
from .quantum import (honest_first_round, honest_second_round,
                      round_one_answer, sample_claw_outcomes)


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
    """One full game record; every field round-trips through the line format.

    A trial the referee rejected records its rejected commitment as empty w
    and ells, a rejected b as zeros, and the answer string a that loses
    against the recorded b, so it rescores to -1.
    """

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
    scores = j_score(xs, ys, a, b)
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
# the round engine

@dataclass(frozen=True)
class FirstRound:
    """Round one of a trial as the referee sees it: its encryption record
    (None on uniform advice) and the prover's commitment (w, ells), plus the
    memory the prover's second round reads.  The honest prover's memory is
    its claw, and it hands over the referee's preimage assessment of w."""

    record: EncryptionRecord | None
    w: Any
    ells: Any
    mem: Any
    preimages: Preimages | None = None


def play_round(prover, params: Params, x: np.ndarray, rng: Rng, label: str,
               index: int, real: bool = True) -> FirstRound:
    """Round one of trial `index`, drawn from the streams `label`/....

    real=True encrypts x[:d] (stream encrypt); real=False sends a uniform
    pair (A, v) that hides nothing (stream uniform).  The honest prover, the
    string 'honest', needs real advice and measures with stream prover.  A
    ClassicalProver commits with coins from stream coins; a
    TrapdoorLeakProver is first handed the trapdoor, or None.
    """
    q, m, n = params.q, params.m, params.n
    if real:
        record = encrypt(x[:params.d], params,
                         rng.stream(f"{label}/encrypt", index))
        a_mat, v_vec = record.ciphertext.a, record.ciphertext.v
    else:
        record = None
        gen = rng.stream(f"{label}/uniform", index)
        a_mat = ZqArray(q, gen.integers(0, q, size=(m, n), dtype=np.int64))
        v_vec = ZqArray(q, gen.integers(0, q, size=m, dtype=np.int64))
    if prover == "honest":
        first = honest_first_round(record, params,
                                   rng.stream(f"{label}/prover", index))
        return FirstRound(record, first.w, first.ells, first.claw,
                          first.preimages)
    if isinstance(prover, TrapdoorLeakProver):
        prover.set_leak(None if record is None else record.trapdoor)
    coins = rng.stream(f"{label}/coins", index).integers(0, 1 << 62, size=4)
    return FirstRound(record, *prover.first_response(a_mat, v_vec, coins))


def _bit_rows(messages, count: int,
              length: int) -> tuple[np.ndarray, np.ndarray]:
    """The referee's message check over the rows of messages: a row is
    accepted when it is `length` integer entries in {0, 1}, and every row is
    rejected unless messages is a (count, length) integer array.  Returns
    the rows as uint8, zeros where rejected, and which were accepted."""
    try:
        arr = np.asarray(messages)
    except (TypeError, ValueError):   # ragged nesting
        arr = None
    if arr is None or arr.shape != (count, length) or arr.dtype.kind not in "biu":
        return (np.zeros((count, length), dtype=np.uint8),
                np.zeros(count, dtype=bool))
    valid = ((arr == 0) | (arr == 1)).all(axis=1)
    return np.where(valid[:, None], arr, 0).astype(np.uint8), valid


def _bits(message, length: int) -> np.ndarray | None:
    """message as uint8 when it is `length` integer entries in {0, 1}."""
    rows, valid = _bit_rows([message], 1, length)
    return rows[0] if valid[0] else None


def referee_first_assessment(w, ells, record: EncryptionRecord, params: Params,
                             fallback: Callable[[], np.random.Generator],
                             preimages: Preimages | None = None):
    """Referee's round-one bookkeeping: invert both shifts of the prover's
    commitment and derive the answer string it will be scored with.

    preimages, when given, must be assess_preimages(w, record, params); the
    honest prover has already computed it, so the game passes it on instead
    of inverting w and w + v a second time.

    Returns (a, e_flag, f_flag).  a is None when the commitment is rejected:
    w is not a ZqArray of shape (m,) modulo q, or ells is not nQ - d bits.
    On inversion failure a is sampled uniformly from fallback(), which is
    called only then, so a trial whose inversions succeed derives no
    fallback stream.
    """
    q, n, d = params.q, params.n, params.d
    ells = _bits(ells, n * params.Q - d)
    if (ells is None or not isinstance(w, ZqArray) or w.q != q
            or w.values.shape != (params.m,)):
        return None, False, False
    if preimages is None:
        preimages = assess_preimages(w, record, params)
    z0, z1, in_box0, in_box1 = preimages
    if z0 is None or z1 is None:
        return fallback().integers(0, 2, size=d + 1).astype(np.uint8), False, False

    e_flag = bool(in_box0 and in_box1)
    f_flag = bool((balanced_abs(z0, q) > np.abs(record.gamma)).all())
    return round_one_answer(z0, z1, ells, params), e_flag, f_flag


def referee_score(x, y, a, b) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The referee's verdict on a round: (a, b, score, accepted), with a and
    b as recorded.

    a is None when the commitment was rejected; b is rejected unless it is
    d + 1 bits.  A rejected trial scores -1 and records b (zeros when b was
    the rejected message) with the answer string that loses against it:
    zeros, with a_{d+1} set so that u.v mod 4 lands in {2, 3}.
    """
    bits = _bits(b, len(x))
    if a is not None and bits is not None:
        return a, bits, j_score(x, y, a, bits), True
    if bits is None:
        bits = np.zeros(len(x), dtype=np.uint8)
    a = np.zeros(len(x), dtype=np.uint8)
    # x and y end in 1, so flipping a_{d+1} moves u.v by 2 mod 4
    a[-1] = j_score(x, y, a, bits) == 1
    return a, bits, -1, False


# ---------------------------------------------------------------------------
# the encrypted game

def run_game_r(prover, params: Params, trials: int, rng: Rng,
               sequential: bool = False,
               keep_transcripts: bool = False) -> GameResult:
    """The encrypted game: prover is either the string 'honest' or a
    ClassicalProver.  Sequential mode feeds round-two question bits one at a
    time: a classical prover's respond_bit answers one prefix per level
    (provers.answer_table), where one-shot mode asks its second_response
    (the honest measurement order is already sequential)."""
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
        x, y = j_sample_inputs(d, rng.stream("gameR/inputs", t))
        first = play_round(prover, params, x, rng, "gameR", t)
        if prover == "honest":
            b = honest_second_round(first.mem, y, rng.stream("gameR/prover2", t))
        elif sequential:
            b = answer_table(prover, y[None], first.mem)[0]
        else:
            b = prover.second_response(y, first.mem)

        a, e_flag, f_flag = referee_first_assessment(
            first.w, first.ells, first.record, params,
            functools.partial(rng.stream, "gameR/referee", t), first.preimages)
        committed = a is not None
        a, b, scores[t], accepted = referee_score(x, y, a, b)
        e_flag, f_flag = e_flag and accepted, f_flag and accepted
        e_flags[t], f_flags[t] = e_flag, f_flag
        if keep_transcripts:
            w = first.w.values.copy() if committed else np.zeros(0, dtype=np.int64)
            ells = (np.array(first.ells, dtype=np.uint8) if committed
                    else np.zeros(0, dtype=np.uint8))
            transcripts.append(Transcript(
                game=game, trial=t, x=x, y=y, a=a, b=b, w=w, ells=ells,
                score=int(scores[t]), e_flag=e_flag, f_flag=f_flag,
                seed=f"{rng.seed}:gameR:{t}"))

    both = e_flags & f_flags
    conditional = float(scores[both].mean()) if both.any() else None
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts,
                      e_rate=float(e_flags.mean()),
                      f_rate=float(f_flags.mean()),
                      conditional_mean=conditional)
