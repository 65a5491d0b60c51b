"""The round engine and the games built on it: the encrypted two-round game
(one-shot and sequential), its claw-game counterpart for the honest
strategy, and transcript/statistics plumbing.

A round: the referee sends advice (A, v), the prover commits to (w, ells),
the referee inverts the commitment through its trapdoor into an answer
string a, and the prover answers a question y with b.  Every prover
(quantum.HonestProver, provers.ClassicalProver) has the same two hooks, and
the engine calls nothing else: commit(a, v, streams, trapdoor) is round one
of a trial, given its TrapdoorKey (None on uniform advice), and returns
(w, ells, mem); answer(ys, mems, preimages, a, streams, sequential) is round
two over a block, given the referee's Preimages of the accepted commitments
and answer strings a, and returns one answer per row of ys.  streams(name)
derives the trial's stream label/name, or one per trial of the block; it
refuses the names the referee draws from (REFEREE_STREAMS), so no prover
reads x, y, the encryption's draws or experiment E's arm.

The engine's per-trial step is play_round: it draws a trial's advice from
the trial's own streams and asks the prover to commit; while the trial's
trapdoor R is live the referee takes the trapdoor images of both shifts of
the commitment (lattice.commitment_shifts), and then it drops the
encryption record, and R with it, so no record outlives its trial.  The
game calls play_round for each trial of a block and vectorizes the rest
over the block: the decode, the E and F flags, the answer strings, the
answer hook and the score.  Experiment E in attack.py calls play_round.

Round one has one owner, the referee: referee_first_assessment decodes a
block's accepted commitments once and returns their Preimages with its
verdict, which the answer hook is handed; the honest prover reads its claws
off them exactly (see quantum).

The referee's rules do not depend on the block.  It is total: a message that
is not well formed loses the trial (score -1); it is never coerced and never
raises.  Each rule is stated once, over rows of trials, and a single message
or round is a one-row call: the answer string quantum.round_one_answer, the
score games.j_score, the message check check_bits (attack.best_score checks
the rewound answers with it), and the verdict referee_score.

Randomness comes from labeled streams of a single Rng; reruns are
bit-exact.  In game R and experiment E each trial has its own streams, so a
trial's transcript does not depend on the number of trials or on where the
blocks start.  Game J draws each column for all trials from one stream: its
seed=...:gameJ:t names the run and trial, not a per-trial stream.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Params, Rng, balanced_abs, integer_array, require_count
from .games import _question_rows, j_sample_inputs, j_score
from .lattice import (Preimages, Shifts, ZqArray, commitment_shifts,
                      decode_preimages, encrypt)
from .quantum import (HonestProver, round_one_answer, round_one_positions,
                      sample_claw_outcomes)

# Trials per block of the encrypted game.  A block holds A, both targets and
# their images for each of its trials, about 45 kB a trial at the desk preset
# and 140 kB at desk_params(d=16, n=16), besides the one live R.  Eight
# trials share the per-block numpy calls; 16 ran no faster at desk and kept
# about 1 MB more resident.
_BLOCK = 8

# The stream names the referee draws from, under the game's or experiment E's
# label; the streams(name) a prover's hooks are handed refuses each of them.
REFEREE_STREAMS = frozenset(
    {"inputs", "encrypt", "uniform", "referee", "arm", "questions", "signal"})


def _prover_stream(name) -> str:
    """name, when a prover may derive it: a str that is not one of
    REFEREE_STREAMS; otherwise ValueError."""
    if type(name) is not str or name in REFEREE_STREAMS:
        raise ValueError(f"a prover's stream name must be a str other than "
                         f"the referee's {sorted(REFEREE_STREAMS)}, got {name!r}")
    return name


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
    require_count("trials", trials)
    require_count("d", d)
    gen = rng.stream("gameJ/inputs")
    xs, ys = _question_rows(gen.integers(0, 2, size=(2, trials, d)))
    gen = rng.stream("gameJ/answers")
    a = gen.integers(0, 2, size=(trials, d + 1))
    b = sample_claw_outcomes(a[:, :d], a[:, :d] ^ xs[:, :d], 1 - 2 * a[:, d],
                             ys, gen.integers(0, 2, size=(trials, d)),
                             gen.random(trials))
    scores = j_score(xs, ys, a, b)
    transcripts = []
    if keep_transcripts:
        for t in range(trials):
            transcripts.append(Transcript(
                game="J", trial=t, x=xs[t], y=ys[t],
                a=a[t].astype(np.uint8), b=b[t],
                w=np.zeros(0, dtype=np.int64), ells=np.zeros(0, dtype=np.uint8),
                score=int(scores[t]), e_flag=True, f_flag=True,
                seed=f"{rng.seed}:gameJ:{t}"))
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts)


# ---------------------------------------------------------------------------
# the round engine

@dataclass(frozen=True)
class FirstRound:
    """Round one of a trial as the referee sees it: the prover's commitment
    w and the memory its round two reads.  bits is the commitment's ells as
    the referee accepted it, None when it rejected the commitment, and
    shifts are the referee's Shifts of an accepted commitment on real
    advice."""

    w: Any
    mem: Any
    bits: np.ndarray | None = None
    shifts: Shifts | None = None


def play_round(prover, params: Params, x: np.ndarray, rng: Rng, label: str,
               index: int, real: bool = True) -> FirstRound:
    """Round one of trial `index`, drawn from the streams `label`/...: the
    engine's per-trial step, up to the commitment and its Shifts.

    real=True encrypts x[:d] (stream encrypt); real=False sends a uniform
    pair (A, v) that hides nothing (stream uniform).  The encryption record
    is dropped on return, once the Shifts are taken; the prover's commit
    hook is handed its trapdoor, or None.  A commit return that is not a
    3-tuple (w, ells, mem) is a rejected commitment with mem None.
    """
    q, m, n = params.q, params.m, params.n
    if real:
        record = encrypt(x[:params.d], params,
                         rng.stream(f"{label}/encrypt", index))
        a_mat, v_vec = record.a, record.v
    else:
        record = None
        gen = rng.stream(f"{label}/uniform", index)
        a_mat = ZqArray(q, gen.integers(0, q, size=(m, n), dtype=np.int64))
        v_vec = ZqArray(q, gen.integers(0, q, size=m, dtype=np.int64))
    message = prover.commit(
        a_mat, v_vec,
        lambda name: rng.stream(f"{label}/{_prover_stream(name)}", index),
        None if record is None else record.trapdoor)
    w, ells, mem = (message if isinstance(message, tuple) and len(message) == 3
                    else (None, None, None))
    (bits,), (ok,) = check_bits([ells], 1, len(round_one_positions(params)))
    if (not ok or not isinstance(w, ZqArray) or w.q != q
            or w.values.shape != (m,)):
        bits = None
    shifts = (None if record is None or bits is None
              else commitment_shifts(w, record, params))
    return FirstRound(w, mem, bits, shifts)


def check_bits(messages, count: int,
               length: int) -> tuple[np.ndarray, np.ndarray]:
    """The referee's message check over the rows of messages: a row is
    accepted when it is `length` integer entries in {0, 1}, and every row is
    rejected unless messages is a (count, length) integer array.  Returns
    the rows as uint8, zeros where rejected, and which were accepted."""
    arr = integer_array(messages, (count, length))
    if arr is None:
        return (np.zeros((count, length), dtype=np.uint8),
                np.zeros(count, dtype=bool))
    valid = ((arr == 0) | (arr == 1)).all(axis=1)
    return np.where(valid[:, None], arr, 0).astype(np.uint8), valid


def referee_first_assessment(firsts: Sequence[FirstRound], params: Params,
                             fallback: Callable[[int], np.random.Generator]):
    """Referee's round-one bookkeeping over a block of trials played on real
    advice: decode both shifts of every accepted commitment at once and
    derive the answer string it will be scored with.

    Returns (preimages, a, committed, e_flags, f_flags): the Preimages of
    the accepted trials, in row order (the honest prover reads its claws off
    them and a; its commitments are always accepted), a (trials, d + 1) and
    three (trials,) bool arrays.  A trial whose commitment was rejected (w
    not a ZqArray of shape (m,) modulo q, or ells not one bit per round-one
    position) has committed False, a row of zeros and both flags off.  On
    inversion failure a trial's a is sampled uniformly from fallback(i), i
    its row, which is called only then, so a block whose inversions succeed
    derives no fallback stream.
    """
    q, n, d = params.q, params.n, params.d
    count = len(firsts)
    a = np.zeros((count, d + 1), dtype=np.uint8)
    committed = np.array([f.shifts is not None for f in firsts], dtype=bool)
    e_flags = np.zeros(count, dtype=bool)
    f_flags = np.zeros(count, dtype=bool)
    rows = np.flatnonzero(committed)
    if not len(rows):
        none = np.zeros((0, 2), dtype=bool)
        return (Preimages(np.zeros((0, 2, n), dtype=np.int64), none, none),
                a, committed, e_flags, f_flags)
    shifts = Shifts(*(np.array(col) for col in
                      zip(*(firsts[i].shifts for i in rows))))
    preimages = decode_preimages(shifts, params)
    z, inverted, in_box = preimages
    ok = inverted.all(axis=1)
    a[rows] = round_one_answer(z[:, 0], z[:, 1],
                               np.array([firsts[i].bits for i in rows]), params)
    e_flags[rows] = ok & in_box.all(axis=1)
    f_flags[rows] = ok & (balanced_abs(z[:, 0], q)
                          > np.abs(shifts.gamma)).all(axis=1)
    for i in rows[~ok]:
        a[i] = fallback(int(i)).integers(0, 2, size=d + 1)
    return preimages, a, committed, e_flags, f_flags


def _losing_answer(x, y, b) -> np.ndarray:
    """The answer string that loses against b, over leading axes: zeros,
    with a_{d+1} set so that u.v mod 4 lands in {2, 3}."""
    a = np.zeros(np.shape(b), dtype=np.uint8)
    # x and y end in 1, so flipping a_{d+1} moves u.v by 2 mod 4
    a[..., -1] = j_score(x, y, a, b) == 1
    return a


def referee_score(xs, ys, a, committed, b, b_ok):
    """The referee's verdict over rows of rounds: (a, b, scores, accepted),
    with a and b as recorded.

    A row is accepted when its commitment was (committed; its a is ignored
    where not) and its answer b is d + 1 bits (b_ok, from check_bits; b is
    zeros where not).  An accepted row is scored by games.j_score; a
    rejected one scores -1 and records b with the answer string that loses
    against it (_losing_answer).
    """
    accepted = committed & b_ok
    if not accepted.all():
        a = np.where(accepted[:, None], a, _losing_answer(xs, ys, b))
    return a, b, np.where(accepted, j_score(xs, ys, a, b), -1), accepted


# ---------------------------------------------------------------------------
# the encrypted game

def _game_r_block(prover, params: Params, ts: range, rng: Rng,
                  sequential: bool, keep_transcripts: bool):
    """Trials ts of game R: (scores, e_flags, f_flags, transcripts).  The
    block's arrays live only while this runs."""
    d = params.d
    xs, ys = (np.array(col) for col in zip(
        *(j_sample_inputs(d, rng.stream("gameR/inputs", t)) for t in ts)))
    firsts = [play_round(prover, params, x, rng, "gameR", t)
              for x, t in zip(xs, ts)]
    preimages, a, committed, e, f = referee_first_assessment(
        firsts, params, lambda i: rng.stream("gameR/referee", ts[i]))
    answers = prover.answer(
        ys, [first.mem for first in firsts], preimages, a,
        lambda name: [rng.stream(f"gameR/{_prover_stream(name)}", t)
                      for t in ts], sequential)
    # each answer is checked alone, so a malformed one loses only its trial;
    # a block that is not one answer per trial pairs none with its trial
    answers = list(answers) if np.iterable(answers) else []
    if len(answers) != len(ts):
        answers = [None] * len(ts)
    checked = [check_bits([b], 1, d + 1) for b in answers]
    b, b_ok = (np.concatenate(col) for col in zip(*checked))
    a, b, scores, accepted = referee_score(xs, ys, a, committed, b, b_ok)
    e, f = e & accepted, f & accepted
    transcripts = []
    if keep_transcripts:
        game = "Rseq" if sequential else "R"
        for i, (t, first) in enumerate(zip(ts, firsts)):
            kept = committed[i]
            transcripts.append(Transcript(
                game=game, trial=t, x=xs[i], y=ys[i], a=a[i], b=b[i],
                w=first.w.values.copy() if kept else np.zeros(0, dtype=np.int64),
                ells=first.bits if kept else np.zeros(0, dtype=np.uint8),
                score=int(scores[i]), e_flag=bool(e[i]), f_flag=bool(f[i]),
                seed=f"{rng.seed}:gameR:{t}"))
    return scores, e, f, transcripts


def run_game_r(prover, params: Params, trials: int, rng: Rng,
               sequential: bool = False,
               keep_transcripts: bool = False) -> GameResult:
    """The encrypted game against a prover with the two hooks; 'honest'
    stands for quantum.HonestProver(params).  Sequential mode asks round two
    one question bit at a time.  Trials are played in blocks of _BLOCK; the
    transcripts do not depend on the block size."""
    require_count("trials", trials)
    problems = params.runnability_problems()
    if problems:
        raise ValueError("; ".join(problems))
    if prover == "honest":
        prover = HonestProver(params)
    scores, e_flags, f_flags, lines = zip(*(
        _game_r_block(prover, params, range(start, min(start + _BLOCK, trials)),
                      rng, sequential, keep_transcripts)
        for start in range(0, trials, _BLOCK)))
    scores, e_flags, f_flags = map(np.concatenate, (scores, e_flags, f_flags))
    transcripts = [line for block in lines for line in block]
    both = e_flags & f_flags
    conditional = float(scores[both].mean()) if both.any() else None
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts,
                      e_rate=float(e_flags.mean()),
                      f_rate=float(f_flags.mean()),
                      conditional_mean=conditional)
