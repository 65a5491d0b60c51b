"""The honest quantum prover and the statevector oracle it is checked against.

Measurement conventions, used throughout: Y = [[0, i], [-i, 0]] as printed,
outcome 0 of a W-basis measurement corresponding to the projector (I + W)/2.

HonestProver plays both rounds of the encrypted game through the engine's
two prover hooks, without a dense state.  The first round never
materializes the (nQ+1)-qubit state; for a two-branch residual state the
X-measurements on the non-data qubits are equivalent to uniform bits plus a
phase XOR, which is what gets simulated.  HonestProver.commit draws a
trial's commitment and measurement bits from that trial's stream.  The claw
left behind is exactly what the referee's trapdoor decode recovers, so the
referee decodes round one once (protocol.referee_first_assessment) and
HonestProver.answer reads a block's claws off that assessment
(honest_first_round), as the rows (branch0, branch1, phase) that
sample_claw_outcomes takes: branch0 is a[:d], branch1 the data bits of z1,
and the phase (-1)^{a_d} when both preimages sit in the noise box, else 0.
The read-off is exact: an honest commitment is A r - c v plus a box vector,
so one shift's residual is the box (at most tau) and the other's is the box
plus or minus the encryption noise (at most 2 tau); both always invert, and
the referee's a is the decoded answer string, never a fallback draw.
The second round measures each remaining (d+1)-qubit claw, and its outcome
law has a closed form (coin_zero_probability), so sample_claw_outcomes turns
the caller's uniform draws into exact Born-rule answers for a whole batch of
claws at O(d) per claw; the claw game uses the same sampler.

StateVector, build_claw_state, measure and StateVector.outcome_distribution
(a dense simulator of up to 26 qubits) are the reference oracle that the
closed form is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Params, binary_repr, matmul_mod
from .lattice import Preimages, ZqArray

MAX_QUBITS = 26

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
BASIS_OPS = {
    "X": PAULI_X,
    "Y": PAULI_Y,
    "XY": (PAULI_X + PAULI_Y) / np.sqrt(2),
}


@functools.cache
def _eigenbras(basis: str) -> np.ndarray:
    """Row o is <e_o|, the bra of W's (-1)^o eigenvector.  Computed on first
    use, so that importing the module does not start LAPACK (about 1 MB of
    resident memory that the prover itself never needs)."""
    _, vecs = np.linalg.eigh(BASIS_OPS[basis])  # eigenvalues ascending: -1, +1
    return vecs[:, ::-1].conj().T


@dataclass
class StateVector:
    """Amplitudes over computational basis states; qubit j is tensor axis j."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError("amplitude count must be 2**num_qubits")
        self.amplitudes = amps

    @classmethod
    def computational(cls, bits) -> "StateVector":
        bits = [int(b) for b in bits]
        amps = np.zeros(2 ** len(bits), dtype=complex)
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        amps[idx] = 1.0
        return cls(len(bits), amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _grid(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.num_qubits)

    def outcome_distribution(self, bases) -> np.ndarray:
        """Born-rule probability of every outcome string when qubit j is
        measured in bases[j]; entry i is the outcome whose bits, qubit 0
        first, spell i in binary (the amplitude order)."""
        if len(bases) != self.num_qubits:
            raise ValueError("one basis per qubit")
        grid = self._grid()
        for qubit, basis in enumerate(bases):
            grid = np.moveaxis(np.tensordot(_eigenbras(basis), grid,
                                            axes=([1], [qubit])), 0, qubit)
        return (np.abs(grid) ** 2).reshape(-1)


def measure(state: StateVector, qubit: int, basis: str,
            rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projective W-basis measurement; returns (bit, collapsed state)."""
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    w = BASIS_OPS[basis]
    grid = state._grid()
    proj0 = (np.eye(2) + w) / 2
    branch0 = np.moveaxis(np.tensordot(proj0, grid, axes=([1], [qubit])), 0, qubit)
    p0 = float(np.linalg.norm(branch0) ** 2)
    if rng.random() < p0:
        outcome, branch, p = 0, branch0, p0
    else:
        proj1 = (np.eye(2) - w) / 2
        branch = np.moveaxis(np.tensordot(proj1, grid, axes=([1], [qubit])), 0, qubit)
        outcome, p = 1, 1.0 - p0
    return outcome, StateVector(state.num_qubits, branch.reshape(-1) / np.sqrt(p))


# ---------------------------------------------------------------------------
# claw states

@dataclass(frozen=True)
class ClawDescription:
    """The residual (d+1)-qubit state after the first round: either the
    superposition (|branch0, 0> + phase |branch1, 1>)/sqrt(2), or a single
    computational branch when only one preimage existed."""

    branch0: np.ndarray | None
    branch1: np.ndarray | None
    phase: int = 1

    def __post_init__(self):
        for name in ("branch0", "branch1"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=np.uint8))
        if self.branch0 is None and self.branch1 is None:
            raise ValueError("at least one branch required")
        if self.phase not in (1, -1):
            raise ValueError("phase must be +1 or -1")
        if self.degenerate is False and len(self.branch0) != len(self.branch1):
            raise ValueError("branches must share a length")

    @property
    def degenerate(self) -> bool:
        return self.branch0 is None or self.branch1 is None

    @property
    def d(self) -> int:
        ref = self.branch0 if self.branch0 is not None else self.branch1
        return len(ref)


def build_claw_state(claw: ClawDescription) -> StateVector:
    """Qubits 0..d-1 carry the branch bits, qubit d is the coin."""
    d = claw.d
    if d + 1 > MAX_QUBITS:
        raise ValueError(f"claw needs {d + 1} qubits > {MAX_QUBITS}")
    if claw.degenerate:
        coin = 0 if claw.branch0 is not None else 1
        bits = claw.branch0 if coin == 0 else claw.branch1
        return StateVector.computational(list(bits) + [coin])
    amps = np.zeros([2] * (d + 1), dtype=complex)
    amps[tuple(claw.branch0) + (0,)] = 1 / np.sqrt(2)
    amps[tuple(claw.branch1) + (1,)] = claw.phase / np.sqrt(2)
    return StateVector(d + 1, amps.reshape(-1))


# ---------------------------------------------------------------------------
# the claw sampler, closed form

# Every basis operator has a zero diagonal and a unit off-diagonal W[0, 1] =
# e^{i theta}; for outcome o the entry of (I + (-1)^o W)/2 is (-1)^o e^{i theta}/2.
_THETA = {name: float(np.angle(op[0, 1])) for name, op in BASIS_OPS.items()}


def coin_zero_probability(branch0, branch1, phase, y, data) -> np.ndarray:
    """P(coin outcome 0 | data outcomes) for each row of a batch of claws.

    For the claw (|b0, 0> + phase |b1, 1>)/sqrt(2), data qubit j measured in
    X (y_j = 0) or Y (y_j = 1) and the coin in XY, the Born rule gives
    P(o) = 2^{-(d+1)} (1 + Re z), z = phase r_XY(o_d) prod_j r_j(o_j)^{s_j},
    with r_W(o) = (-1)^o W[0, 1] and s_j = b1_j - b0_j.  The d data bits are
    therefore uniform and the coin bit is 0 with probability
    (1 + Re z|_{o_d = 0}) / 2.  A phase of 0 (a single branch) gives 1/2.

    branch0, branch1, data: (trials, d) bits; phase: (trials,) in {-1, 0, 1};
    y: (trials, d + 1) or (d + 1,) question bits ending in 1.
    """
    s = np.asarray(branch1, dtype=np.int64) - np.asarray(branch0, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    d = s.shape[-1]
    if y.shape[-1] != d + 1 or not (y[..., d] == 1).all():
        raise ValueError("questions are d+1 bits ending in 1")
    theta = np.where(y[..., :d] == 1, _THETA["Y"], _THETA["X"])
    angle = (np.pi * (np.abs(s) * np.asarray(data, dtype=np.int64)).sum(axis=-1)
             + (s * theta).sum(axis=-1) + _THETA["XY"])
    return (1 + np.asarray(phase) * np.cos(angle)) / 2


def sample_claw_outcomes(branch0, branch1, phase, y, data,
                         uniforms) -> np.ndarray:
    """Exact Born-rule samples of the round-two measurement, one (d+1)-bit
    row per claw: the caller's uniform data bits, then the coin, which is 1
    when the caller's uniform in [0, 1) reaches coin_zero_probability.
    O(d) work per claw and no statevector.

    data: (trials, d) bits shaped like branch0; uniforms: (trials,).
    """
    branch0 = np.asarray(branch0)
    data = np.asarray(data)
    uniforms = np.asarray(uniforms)
    if data.shape != branch0.shape or uniforms.shape != branch0.shape[:1]:
        raise ValueError("need one row of data bits and one uniform per claw")
    p0 = coin_zero_probability(branch0, branch1, phase, y, data)
    return np.column_stack([data, uniforms >= p0]).astype(np.uint8)


# ---------------------------------------------------------------------------
# honest prover for the encrypted game

@functools.lru_cache(maxsize=16)
def round_one_positions(params: Params) -> np.ndarray:
    """1-based bit positions measured in round one: every position except the
    final (least significant) bit of each of the last d coordinates, which
    together with the coin qubit carry the claw.  Read-only, built once per
    Params."""
    n, q_bits, d = params.n, params.Q, params.d
    excluded = {(n - d + j) * q_bits for j in range(1, d + 1)}
    pos = np.array([p for p in range(1, n * q_bits + 1) if p not in excluded],
                   dtype=np.int64)
    pos.setflags(write=False)
    return pos


def round_one_answer(z0: np.ndarray, z1: np.ndarray, ells: np.ndarray,
                     params: Params) -> np.ndarray:
    """The round-one answer string a of the claw left by preimages z0 and z1
    and measurement bits ells, over leading axes: the data bits of z0 (the
    parities of its last d coordinates), then the parity of ells over the
    round-one positions where z0 and z1 differ.  The claw is (a[:d], z1's
    data bits, (-1)^{a_d}); the referee scores the trial with a."""
    n, d = params.n, params.d
    diff = (binary_repr(z0, params.Q)
            ^ binary_repr(z1, params.Q))[..., round_one_positions(params) - 1]
    parity = (diff & ells).sum(axis=-1) % 2
    return np.concatenate([z0[..., n - d:] % 2, parity[..., None]],
                          axis=-1).astype(np.uint8)


def honest_first_round(preimages: Preimages, a: np.ndarray,
                       params: Params) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """Read each trial's claw off the referee's assessment of a block of
    honest commitments: preimages and the answer strings a (trials, d + 1)
    that protocol.referee_first_assessment returns.  The claws are the rows
    (branch0, branch1, phase) that sample_claw_outcomes takes: a[:d], z1's
    data bits, and (-1)^{a_d} when both preimages sit in the noise box, else
    0 (one branch, the one whose preimage does)."""
    n, d = params.n, params.d
    phase = np.where(preimages.in_box.all(axis=1),
                     1 - 2 * a[:, d].astype(np.int64), 0)
    return (a[:, :d], (preimages.z[:, 1, n - d:] % 2).astype(np.uint8),
            phase)


def honest_second_round(claws, ys, rngs) -> np.ndarray:
    """Measure each trial's data qubit j in X or Y according to y_j, the coin
    qubit in the rotated XY basis; the d+1 outcome bits are the round-two
    answer.  claws are the rows (branch0, branch1, phase) of
    honest_first_round, ys is (trials, d + 1), rngs one generator per trial,
    which draws its trial's data bits and then its coin uniform.  Sampled in
    closed form (sample_claw_outcomes), not simulated; a single branch has
    phase 0, which gives every outcome with probability 1/2."""
    branch0 = np.asarray(claws[0])
    if len(rngs) != len(branch0):
        raise ValueError("one generator per claw")
    data = np.empty(branch0.shape, dtype=np.int64)
    uniforms = np.empty(len(branch0))
    for i, gen in enumerate(rngs):
        data[i] = gen.integers(0, 2, size=branch0.shape[-1])
        uniforms[i] = gen.random()
    return sample_claw_outcomes(*claws, ys, data, uniforms)


@dataclass
class HonestProver:
    """The honest prover of the encrypted game, as the engine's two hooks."""

    params: Params

    def commit(self, a: ZqArray, v: ZqArray, streams, trapdoor):
        """Round one from stream prover: w = A r - c v + z (r uniform, c a
        coin, z a noise-box vector), ells at round_one_positions, and no
        memory, since round two reads its claws off the referee's decode."""
        params, rng = self.params, streams("prover")
        q, n, m, tau = params.q, params.n, params.m, params.tau
        r = rng.integers(0, q, size=n, dtype=np.int64)
        coin = int(rng.integers(0, 2))
        box = rng.integers(-tau, tau + 1, size=m, dtype=np.int64)
        w = ZqArray(q, matmul_mod(a.values, r, q) - coin * v.values + box)
        ells = rng.integers(0, 2, size=len(round_one_positions(params)))
        return w, ells.astype(np.uint8), None

    def answer(self, ys, mems, preimages, a, streams, sequential: bool):
        """Round two over a block on streams prover2: the claws read off the
        referee's decode, measured in an order that is already sequential."""
        claws = honest_first_round(preimages, a, self.params)
        return honest_second_round(claws, ys, streams("prover2"))
