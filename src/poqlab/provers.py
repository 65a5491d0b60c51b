"""Classical prover model: deterministic first/second response algorithms
driven by explicit coin registers, plus the two built-in test provers.

A prover must answer round two bit by bit (respond_bit), never looking past
the question prefix it has been shown; the whole-question second_response is
derived from that, so sequential and one-shot runs of the same prover agree
by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Params
from .games import j_score
from .lattice import TrapdoorKey, ZqArray, decrypt


class ClassicalProver:
    """Deterministic (A, v, coins) -> responses; subclasses fill in the two
    response hooks."""

    def first_response(self, a: ZqArray, v: ZqArray,
                       coins: np.ndarray) -> tuple[ZqArray, np.ndarray, Any]:
        raise NotImplementedError

    def respond_bit(self, j: int, y_prefix: np.ndarray, mem: Any) -> int:
        raise NotImplementedError

    def second_response(self, y: np.ndarray, mem: Any) -> np.ndarray:
        # answers are kept as given: the referee rejects any that is not a
        # bit, where a uint8 cast would wrap or raise
        y = np.asarray(y, dtype=np.uint8)
        return np.array([self.respond_bit(j, y[:j + 1], mem)
                         for j in range(len(y))])


def _coin_bit(coins: np.ndarray, *context: int) -> int:
    """One deterministic pseudorandom bit from the coin register."""
    payload = coins.tobytes() + b"/" + b",".join(str(c).encode() for c in context)
    return hashlib.sha256(payload).digest()[0] & 1


@dataclass
class BlindProver(ClassicalProver):
    """Ignores the ciphertext entirely: zero commitment, zero answers."""

    params: Params

    def first_response(self, a, v, coins):
        w = ZqArray(self.params.q, np.zeros(self.params.m, dtype=np.int64))
        ells = np.zeros(self.params.n * self.params.Q - self.params.d,
                        dtype=np.uint8)
        return w, ells, None

    def respond_bit(self, j, y_prefix, mem):
        return 0


@dataclass
class TrapdoorLeakProver(ClassicalProver):
    """Pipeline-validation prover holding the decryption key out of band.

    With the key it decrypts the hidden bits and plays perfectly against the
    all-zero first-round answer: commit to w = A.0 so the referee derives
    a = 0, then steer each u.v into {0, 1} mod 4 with the final answer bit.
    Without the key (uniform ciphertext arm) it falls back to coin-derived
    answers.
    """

    params: Params
    leak: TrapdoorKey | None = field(default=None)

    def set_leak(self, trapdoor: TrapdoorKey | None):
        self.leak = trapdoor

    def first_response(self, a, v, coins):
        p = self.params
        w = ZqArray(p.q, np.zeros(p.m, dtype=np.int64))
        ells = np.zeros(p.n * p.Q - p.d, dtype=np.uint8)
        known = None if self.leak is None else decrypt(a, self.leak, v, p)
        return w, ells, {"x": known, "coins": coins}

    def respond_bit(self, j, y_prefix, mem):
        p = self.params
        if mem["x"] is None:
            return _coin_bit(mem["coins"], j, *y_prefix)
        if j < p.d:
            return 0
        # final bit: the game's x ends in 1, so against a = 0 flipping
        # b_{d+1} moves u.v by exactly 2 when the all-zero answer loses
        x = np.concatenate([mem["x"], [1]])
        zeros = np.zeros_like(x)
        return int(j_score(x, y_prefix, zeros, zeros) == -1)
