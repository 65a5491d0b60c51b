"""The round engine and the games built on it: the encrypted two-round game
(one-shot and sequential), its claw-game counterpart for the honest
strategy, and transcript/statistics plumbing.

A round: the referee sends advice (A, v), the prover commits to (w, ells),
the referee inverts the commitment through its trapdoor into an answer
string a, and the prover answers a question y with b.  The engine plays a
block of trials at a time.  Each trial's draws come from its own streams,
in a fixed order, and while its trapdoor R is live the referee takes the
trapdoor images of both shifts of its commitment (lattice.commitment_shifts);
then R is dropped, so a block never holds more than one.  A classical
prover's first_response runs per trial (a TrapdoorLeakProver is handed that
trial's trapdoor), and the referee rejects a malformed commitment there.
The rest is vectorized over the block: decoding the preimages, the E and F
flags and the answer strings, the honest prover's claws and its round two,
and the score.  play_round is the one-trial case, for the experiments in
attack.py, which replay it on real or uniform advice.

The referee's rules do not depend on the block.  It is total: a message that
is not well formed loses the trial (score -1); it is never coerced and never
raises.  Each rule is stated once, over rows of trials, and a single message
or round is a one-row call: the answer string quantum.round_one_answer, the
score games.j_score, the message check check_bits (attack.best_score checks
the rewound answers with it), and the verdict referee_score (experiment S
scores its rounds with it).

Per-trial randomness always comes from labeled streams of a single Rng, so
any trial subset can be recomputed independently and reruns are bit-exact:
a trial's transcript does not depend on the number of trials or on where
the blocks start.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .core import Params, Rng, balanced_abs, require_count
from .games import j_sample_inputs, j_score
from .lattice import (EncryptionRecord, Preimages, Shifts, ZqArray,
                      commitment_shifts, decode_preimages, encrypt)
from .provers import TrapdoorLeakProver, answer_table
from .quantum import (honest_commitment, honest_first_round,
                      honest_second_round, round_one_answer,
                      sample_claw_outcomes)

# Trials per block of the encrypted game.  A block holds A, both targets and
# their images for each of its trials, about 45 kB a trial at the desk preset
# and 140 kB at desk_params(d=16, n=16), besides the one live R.  Eight
# trials share the per-block numpy calls; 16 ran no faster at desk and kept
# about 1 MB more resident.
_BLOCK = 8


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
    (None on uniform advice; the game drops it once the trapdoor images are
    taken), the prover's commitment (w, ells) and the memory its second
    round reads.  bits is ells as the referee accepted it, None when it
    rejected the commitment, and shifts are the referee's Shifts of an
    accepted commitment on real advice."""

    record: EncryptionRecord | None
    w: Any
    ells: Any
    mem: Any
    bits: np.ndarray | None = None
    shifts: Shifts | None = None


def _commit(prover, params: Params, x: np.ndarray, rng: Rng, label: str,
            index: int, real: bool, keep_record: bool) -> FirstRound:
    """Round one of trial `index` up to the commitment and its Shifts, drawn
    from the streams `label`/...: encrypt (or uniform), then prover for the
    honest prover or coins for a ClassicalProver."""
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
        w, ells = honest_commitment(a_mat, v_vec, params,
                                    rng.stream(f"{label}/prover", index))
        mem = None
    else:
        if isinstance(prover, TrapdoorLeakProver):
            prover.set_leak(None if record is None else record.trapdoor)
        coins = rng.stream(f"{label}/coins", index).integers(0, 1 << 62, size=4)
        w, ells, mem = prover.first_response(a_mat, v_vec, coins)
    (bits,), (ok,) = check_bits([ells], 1, n * params.Q - params.d)
    if (not ok or not isinstance(w, ZqArray) or w.q != q
            or w.values.shape != (m,)):
        bits = None
    shifts = (None if record is None or bits is None
              else commitment_shifts(w, record, params))
    return FirstRound(record if keep_record else None, w, ells, mem, bits,
                      shifts)


def _stack(shifts: Sequence[Shifts]) -> Shifts:
    return Shifts(*(np.array(field) for field in zip(*shifts)))


def _play_block(prover, params: Params, xs: np.ndarray, rng: Rng, label: str,
                indices: Sequence[int], real: bool = True,
                keep_records: bool = False):
    """Round one of the trials `indices`, one per row of xs: each trial's
    commitment in turn, then the honest prover's first round over the block.
    Returns the FirstRounds and the honest prover's FirstRoundResult (None
    for a ClassicalProver)."""
    firsts = [_commit(prover, params, x, rng, label, t, real, keep_records)
              for x, t in zip(xs, indices)]
    if prover != "honest":
        return firsts, None
    return firsts, honest_first_round(_stack([f.shifts for f in firsts]),
                                      np.array([f.bits for f in firsts]),
                                      params)


def play_round(prover, params: Params, x: np.ndarray, rng: Rng, label: str,
               index: int, real: bool = True) -> FirstRound:
    """Round one of trial `index`, drawn from the streams `label`/...: the
    one-trial case of the game's block engine, with the record kept.

    real=True encrypts x[:d] (stream encrypt); real=False sends a uniform
    pair (A, v) that hides nothing (stream uniform).  The honest prover, the
    string 'honest', needs real advice and measures with stream prover; its
    memory is its one-trial FirstRoundResult.  A ClassicalProver commits
    with coins from stream coins; a TrapdoorLeakProver is first handed the
    trapdoor, or None.
    """
    (first,), honest = _play_block(prover, params, x[None], rng, label,
                                   [index], real, keep_records=True)
    return first if honest is None else replace(first, mem=honest)


def check_bits(messages, count: int,
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


def referee_first_assessment(firsts: Sequence[FirstRound], params: Params,
                             fallback: Callable[[int], np.random.Generator],
                             preimages: Preimages | None = None):
    """Referee's round-one bookkeeping over a block of trials played on real
    advice: invert both shifts of each accepted commitment and derive the
    answer string it will be scored with.

    preimages, when given, must be decode_preimages of the stacked shifts of
    the accepted trials; the honest prover has already computed it, so the
    game passes it on instead of decoding the block a second time.

    Returns (a, committed, e_flags, f_flags): a (trials, d + 1) and three
    (trials,) bool arrays.  A trial whose commitment was rejected (w not a
    ZqArray of shape (m,) modulo q, or ells not nQ - d bits) has committed
    False, a row of zeros and both flags off.  On inversion failure a trial's
    a is sampled uniformly from fallback(i), i its row, which is called only
    then, so a block whose inversions succeed derives no fallback stream.
    """
    q, d = params.q, params.d
    count = len(firsts)
    a = np.zeros((count, d + 1), dtype=np.uint8)
    committed = np.array([f.shifts is not None for f in firsts], dtype=bool)
    e_flags = np.zeros(count, dtype=bool)
    f_flags = np.zeros(count, dtype=bool)
    rows = np.flatnonzero(committed)
    if not len(rows):
        return a, committed, e_flags, f_flags
    if preimages is None:
        preimages = decode_preimages(_stack([firsts[i].shifts for i in rows]),
                                     params)
    z, inverted, in_box = preimages
    gamma = np.array([firsts[i].shifts.gamma for i in rows])
    ells = np.array([firsts[i].bits for i in rows])
    ok = inverted.all(axis=1)
    a[rows] = round_one_answer(z[:, 0], z[:, 1], ells, params)
    e_flags[rows] = ok & in_box.all(axis=1)
    f_flags[rows] = ok & (balanced_abs(z[:, 0], q) > np.abs(gamma)).all(axis=1)
    for i in rows[~ok]:
        a[i] = fallback(int(i)).integers(0, 2, size=d + 1)
    return a, committed, e_flags, f_flags


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

def _game_r_block(prover, params: Params, ts: range, rng: Rng, game: str,
                  sequential: bool, keep_transcripts: bool):
    """Trials ts of game R: (scores, e_flags, f_flags, transcripts).  The
    block's arrays live only while this runs."""
    d = params.d
    xs, ys = (np.array(col) for col in zip(
        *(j_sample_inputs(d, rng.stream("gameR/inputs", t)) for t in ts)))
    firsts, honest = _play_block(prover, params, xs, rng, "gameR", ts)
    a, committed, e, f = referee_first_assessment(
        firsts, params, lambda i: rng.stream("gameR/referee", ts[i]),
        None if honest is None else honest.preimages)
    if honest is not None:
        b, b_ok = check_bits(honest_second_round(
            honest, ys, [rng.stream("gameR/prover2", t) for t in ts]),
            len(ts), d + 1)
    else:
        # each answer is checked alone, so a malformed one loses only its trial
        checked = [check_bits([answer_table(prover, y[None], first.mem)[0]
                               if sequential
                               else prover.second_response(y, first.mem)],
                              1, d + 1)
                   for y, first in zip(ys, firsts)]
        b, b_ok = (np.concatenate(col) for col in zip(*checked))
    a, b, scores, accepted = referee_score(xs, ys, a, committed, b, b_ok)
    e, f = e & accepted, f & accepted
    transcripts = []
    if keep_transcripts:
        for i, (t, first) in enumerate(zip(ts, firsts)):
            kept = committed[i]
            transcripts.append(Transcript(
                game=game, trial=t, x=xs[i], y=ys[i], a=a[i], b=b[i],
                w=first.w.values.copy() if kept else np.zeros(0, dtype=np.int64),
                ells=(np.array(first.ells, dtype=np.uint8) if kept
                      else np.zeros(0, dtype=np.uint8)),
                score=int(scores[i]), e_flag=bool(e[i]), f_flag=bool(f[i]),
                seed=f"{rng.seed}:gameR:{t}"))
    return scores, e, f, transcripts


def run_game_r(prover, params: Params, trials: int, rng: Rng,
               sequential: bool = False,
               keep_transcripts: bool = False) -> GameResult:
    """The encrypted game: prover is either the string 'honest' or a
    ClassicalProver.  Sequential mode feeds round-two question bits one at a
    time: a classical prover's respond_bit answers one prefix per level
    (provers.answer_table), where one-shot mode asks its second_response
    (the honest measurement order is already sequential).  Trials are
    played in blocks of _BLOCK (see the module docstring); the transcripts
    do not depend on the block size."""
    require_count("trials", trials)
    if params.d < 1:
        raise ValueError("need d >= 1")
    if not params.game_r_runnable:
        raise ValueError("; ".join(params.runnability_problems()))
    game = "Rseq" if sequential else "R"
    scores = np.zeros(trials, dtype=np.int64)
    e_flags = np.zeros(trials, dtype=bool)
    f_flags = np.zeros(trials, dtype=bool)
    transcripts: list[Transcript] = []
    for start in range(0, trials, _BLOCK):
        ts = range(start, min(start + _BLOCK, trials))
        rows = slice(start, ts.stop)
        scores[rows], e_flags[rows], f_flags[rows], lines = _game_r_block(
            prover, params, ts, rng, game, sequential, keep_transcripts)
        transcripts.extend(lines)

    both = e_flags & f_flags
    conditional = float(scores[both].mean()) if both.any() else None
    return GameResult(stats=ScoreStats.from_scores(scores),
                      transcripts=transcripts,
                      e_rate=float(e_flags.mean()),
                      f_rate=float(f_flags.mean()),
                      conditional_mean=conditional)
