"""Classical prover model: deterministic first/second response algorithms
driven by explicit coin registers, plus the two built-in test provers.

Round two has one hook, respond_bit(j, prefixes, mem): bit j of the answer to
each row of prefixes, a (k, j + 1) array of question prefixes, as k integers.
A prover never sees a question bit past the one it answers, and being
deterministic it answers a prefix the same way each time it is asked.
answer_table asks the hook level by level, each distinct prefix once (ranked
by a counting pass, not a sort); second_response, the sequential game and
rewinding (attack.rewind) all go through it, so sequential, one-shot and
rewound runs of the same prover agree by construction.  Answers are kept as
given, so the referee rejects any that is not a bit; an answer column that
is not k integers answers -1 (not a bit) for every question it was asked
for.  Coin-derived answers (_coin_bits) cost one SHA-256 a level and a few
uint64 array passes.
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
    once, in lexicographic order; repeated questions keep their rows.  A
    prefix's rank is 2 * (its j-bit prefix's rank) + bit j, a key below
    twice the previous level's count, so a counting pass over the keys
    ranks the level without a sort.  A column that is not one integer per
    prefix answers -1 for all its rows.
    """
    k, width = questions.shape
    table = np.empty((k, width), dtype=np.int64)
    group = np.zeros(k, dtype=np.int64)   # each row's prefix, ranked
    first = np.arange(min(k, 1))          # a row per distinct prefix
    for j in range(width):
        # once every row has its own prefix, longer prefixes stay distinct
        if len(first) < k:
            key = 2 * group + questions[:, j]
            rank = np.zeros(2 * len(first), dtype=np.int64)
            rank[key] = 1
            np.cumsum(rank, out=rank)
            group = rank[key] - 1
            first = np.empty(int(rank[-1]), dtype=np.int64)
            # rows sharing a key share a prefix, so any one may stand for it
            first[group] = np.arange(k)
        column = integer_array(
            prover.respond_bit(j, questions[first, :j + 1], mem), first.shape)
        table[:, j] = -1 if column is None else column[group]
    return table


_FMIX_MULTIPLIERS = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))
_FMIX_SHIFT = np.uint64(33)


def _fmix64(h: np.ndarray) -> None:
    """MurmurHash3's 64-bit finalizer, in place on a uint64 array."""
    for multiplier in _FMIX_MULTIPLIERS:
        h ^= h >> _FMIX_SHIFT
        h *= multiplier
    h ^= h >> _FMIX_SHIFT


def _coin_bits(coins: np.ndarray, j: int, prefixes: np.ndarray) -> np.ndarray:
    """One deterministic pseudorandom bit per row of the (k, j + 1) prefix
    bits from the coin register.

    The rule: the level key K is the first 8 bytes of SHA-256(coins "/" j),
    read little-endian.  A row's bits, little-endian (a nonzero entry is a
    1), fill ceil((j + 1) / 64) 64-bit words w_0, w_1, ...; starting from
    h = K, each word in turn sets h = fmix64(h xor w_t), and the bit is the
    top bit of the last h.  So a level costs one hash and a few uint64
    array passes per word, whatever its row count.
    """
    k, width = prefixes.shape
    digest = hashlib.sha256(coins.tobytes() + f"/{j}".encode()).digest()
    packed = np.zeros((k, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, :-(-width // 8)] = np.packbits(prefixes, axis=1,
                                             bitorder="little")
    h = np.full(k, int.from_bytes(digest[:8], "little"), dtype=np.uint64)
    for word in packed.view("<u8").T:
        h ^= word
        _fmix64(h)
    h >>= np.uint64(63)
    return h.astype(np.uint8)


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
    answers (_coin_bits).
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
