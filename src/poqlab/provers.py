"""Classical prover model: deterministic first/second response algorithms
driven by explicit coin registers, plus the two built-in test provers.

Round two has one hook, respond_bit(j, prefixes, mem): bit j of the answer to
each row of prefixes, a (k, j + 1) array of question prefixes, as k integers.
A prover never sees a question bit past the one it answers, and being
deterministic it answers a prefix the same way each time it is asked.
answer_table asks the hook level by level, each distinct prefix once;
second_response, the sequential game and rewinding (attack.rewind) all go
through it, so sequential, one-shot and rewound runs of the same prover agree
by construction.  Answers are kept as given, so the referee rejects any that
is not a bit; an answer column that is not k integers answers -1 (not a bit)
for every question it was asked for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Params, integer_array
from .games import j_score
from .lattice import TrapdoorKey, ZqArray, decrypt
from .quantum import round_one_positions


class ClassicalProver:
    """Deterministic (A, v, coins) -> responses.  The engine's hooks, commit
    and answer, call the response hooks that subclasses fill in."""

    def commit(self, a: ZqArray, v: ZqArray, streams, trapdoor):
        """Round one: first_response on four coins from stream coins."""
        coins = streams("coins").integers(0, 1 << 62, size=4)
        return self.first_response(a, v, coins)

    def answer(self, ys, mems, preimages, a, streams, sequential: bool):
        """Per trial: answer_table when sequential, else second_response."""
        return [answer_table(self, y[None], mem)[0] if sequential
                else self.second_response(y, mem) for y, mem in zip(ys, mems)]

    def first_response(self, a: ZqArray, v: ZqArray,
                       coins: np.ndarray) -> tuple[ZqArray, np.ndarray, Any]:
        raise NotImplementedError

    def respond_bit(self, j: int, prefixes: np.ndarray, mem: Any):
        """Bit j of the answer to each row of the (k, j + 1) prefixes."""
        raise NotImplementedError

    def second_response(self, y: np.ndarray, mem: Any) -> np.ndarray:
        """The answer to one whole question y, asked bit by bit."""
        return answer_table(self, np.asarray(y, dtype=np.uint8)[None], mem)[0]


def answer_table(prover: ClassicalProver, questions: np.ndarray,
                 mem: Any) -> np.ndarray:
    """The prover's answers to each row of questions, a (k, d + 1) uint8
    array, as a (k, d + 1) int64 table.

    Level j calls respond_bit once, with each distinct (j + 1)-bit prefix
    once; repeated questions keep their rows.  A column that is not one
    integer per prefix answers -1 for all its rows.
    """
    k, width = questions.shape
    table = np.empty((k, width), dtype=np.int64)
    group = np.zeros(k, dtype=np.int64)   # each row's prefix, ranked
    first = np.arange(min(k, 1))          # a row per distinct prefix
    for j in range(width):
        # once every row has its own prefix, longer prefixes stay distinct
        if len(first) < k:
            _, first, group = np.unique(2 * group + questions[:, j],
                                        return_index=True, return_inverse=True)
        column = integer_array(
            prover.respond_bit(j, questions[first, :j + 1], mem), first.shape)
        table[:, j] = -1 if column is None else column[group]
    return table


def _coin_bits(coins: np.ndarray, j: int, prefixes: np.ndarray) -> np.ndarray:
    """One deterministic pseudorandom bit per row of the (k, width) prefix
    bits from the coin register: the low bit of SHA-256(coins "/" j "," the
    prefix bits as ASCII digits joined by ",").

    The level's payloads are one (k, 2 width - 1) byte array, digits in the
    even columns and commas between them, and each row is hashed from a
    copy of one SHA-256 object already fed the shared head, so a row costs
    one copy, one update and one digest.
    """
    k, width = prefixes.shape
    payload = np.full((k, 2 * width - 1), ord(","), dtype=np.uint8)
    np.add(prefixes, ord("0"), out=payload[:, ::2])
    head = hashlib.sha256(coins.tobytes() + f"/{j},".encode())
    first = bytearray(k)
    for i, row in enumerate(payload):
        h = head.copy()
        h.update(row)
        first[i] = h.digest()[0]
    return np.frombuffer(first, dtype=np.uint8) & 1


def _zero_commitment(params: Params) -> tuple[ZqArray, np.ndarray]:
    """(w, ells) = (A.0, zero bits), which the referee decodes as a = 0."""
    return (ZqArray(params.q, np.zeros(params.m, dtype=np.int64)),
            np.zeros(len(round_one_positions(params)), dtype=np.uint8))


@dataclass
class BlindProver(ClassicalProver):
    """Ignores the ciphertext entirely: zero commitment, zero answers."""

    params: Params

    def first_response(self, a, v, coins):
        return (*_zero_commitment(self.params), None)

    def respond_bit(self, j, prefixes, mem):
        return np.zeros(len(prefixes), dtype=np.uint8)


@dataclass
class TrapdoorLeakProver(ClassicalProver):
    """Pipeline-validation prover holding the decryption key out of band.

    With the key it decrypts the hidden bits and plays perfectly against the
    all-zero first-round answer: commit to w = A.0 so the referee derives
    a = 0, then steer each u.v into {0, 1} mod 4 with the final answer bit.
    Without the key (uniform ciphertext arm) it falls back to coin-derived
    answers, one hash of each prefix.
    """

    params: Params
    leak: TrapdoorKey | None = field(default=None)

    def set_leak(self, trapdoor: TrapdoorKey | None):
        self.leak = trapdoor

    def commit(self, a, v, streams, trapdoor):
        """Round one with the trial's trapdoor as the leak, then dropped."""
        self.set_leak(trapdoor)
        try:
            return super().commit(a, v, streams, trapdoor)
        finally:
            self.leak = None

    def first_response(self, a, v, coins):
        known = (None if self.leak is None
                 else decrypt(a, self.leak, v, self.params))
        return (*_zero_commitment(self.params), {"x": known, "coins": coins})

    def respond_bit(self, j, prefixes, mem):
        if mem["x"] is None:
            return _coin_bits(mem["coins"], j, prefixes)
        if j < self.params.d:
            return np.zeros(len(prefixes), dtype=np.uint8)
        # final bit: the game's x ends in 1, so against a = 0 flipping
        # b_{d+1} moves u.v by exactly 2 when the all-zero answer loses
        x = np.append(mem["x"], 1)
        zeros = np.zeros_like(x)
        return (j_score(x, prefixes, zeros, zeros) == -1).astype(np.uint8)
