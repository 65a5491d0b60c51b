"""The honest quantum prover and the statevector oracle it is checked against.

Measurement conventions, used throughout: Y = [[0, i], [-i, 0]] as printed,
outcome 0 of a W-basis measurement corresponding to the projector (I + W)/2.

The honest prover plays both rounds of the encrypted game without a dense
state.  The first round never materializes the (nQ+1)-qubit state; for a
two-branch residual state the X-measurements on the non-data qubits are
equivalent to uniform bits plus a phase XOR, which is what gets simulated.
The first round's two preimages come from lattice.assess_preimages, and
that one assessment, carried in FirstRoundResult, is what the referee
scores the trial with.
The second round measures the remaining (d+1)-qubit claw, and its outcome
law has a closed form (coin_zero_probability), so sample_claw_outcomes draws
exact Born-rule answers for a whole batch of claws at O(d) per claw; the
claw game uses the same sampler.

StateVector, build_claw_state, measure and StateVector.outcome_distribution
(a dense simulator of up to 26 qubits) are the reference oracle that the
closed form is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Params, balanced_abs, binary_repr, matmul_mod
from .lattice import EncryptionRecord, Preimages, ZqArray, assess_preimages

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


def apply_zc(state: StateVector, qubit: int, c: float) -> StateVector:
    """Z^c: multiply the |1> component of the target qubit by exp(i pi c)."""
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    grid = state._grid().copy()
    index = [slice(None)] * state.num_qubits
    index[qubit] = 1
    grid[tuple(index)] *= np.exp(1j * np.pi * c)
    return StateVector(state.num_qubits, grid.reshape(-1))


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

    def rows(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(branch0, branch1, phase) as sample_claw_outcomes takes them.  A
        single branch becomes phase 0: one computational branch gives every
        X, Y and XY outcome with probability 1/2, which is the law of z = 0."""
        if self.degenerate:
            zeros = np.zeros(self.d, dtype=np.uint8)
            return zeros, zeros, 0
        return self.branch0, self.branch1, self.phase


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


def sample_claw_outcomes(branch0, branch1, phase, y,
                         rng: np.random.Generator) -> np.ndarray:
    """Exact Born-rule samples of the round-two measurement, one (d+1)-bit
    row per claw: uniform data bits, then the coin from
    coin_zero_probability.  O(d) work per claw and no statevector."""
    branch0 = np.asarray(branch0)
    data = rng.integers(0, 2, size=branch0.shape)
    p0 = coin_zero_probability(branch0, branch1, phase, y, data)
    coin = rng.random(len(p0)) >= p0
    return np.column_stack([data, coin]).astype(np.uint8)


# ---------------------------------------------------------------------------
# honest prover for the encrypted game

@dataclass(frozen=True)
class FirstRoundResult:
    w: ZqArray
    ells: np.ndarray          # bits indexed by positions kept in round one
    ell_positions: np.ndarray  # the 1-based bit positions those bits answer
    claw: ClawDescription
    event_e: bool
    event_f: bool
    preimages: Preimages  # the referee's assessment of w, shared


def round_one_positions(params: Params) -> np.ndarray:
    """1-based bit positions measured in round one: every position except the
    final (least significant) bit of each of the last d coordinates, which
    together with the coin qubit carry the claw."""
    n, q_bits, d = params.n, params.Q, params.d
    excluded = {(n - d + j) * q_bits for j in range(1, d + 1)}
    return np.array([p for p in range(1, n * q_bits + 1) if p not in excluded],
                    dtype=np.int64)


def honest_first_round(record: EncryptionRecord, params: Params,
                       rng: np.random.Generator) -> FirstRoundResult:
    """Prepare w = A r - c v + z, resolve the consistent preimages through
    the referee's trapdoor (assess_preimages), and reduce the residual state
    to its claw.

    The event flags record whether both preimages sat inside the noise box
    (E) and whether no coordinate of the recovered preimage was smaller in
    balanced absolute value than the encryption offset (F).
    """
    q, n, m, tau, d = params.q, params.n, params.m, params.tau, params.d
    a, v = record.ciphertext.a, record.ciphertext.v
    r = rng.integers(0, q, size=n, dtype=np.int64)
    coin = int(rng.integers(0, 2))
    box = rng.integers(-tau, tau + 1, size=m, dtype=np.int64)
    w_vals = (matmul_mod(a.values, r, q) - coin * v.values + box) % q
    w = ZqArray(q, w_vals)

    preimages = assess_preimages(w, record, params)
    z0, z1, in_box0, in_box1 = preimages
    event_e = in_box0 and in_box1
    event_f = bool(z0 is not None and
                   (balanced_abs(z0, q) > np.abs(record.gamma)).all())

    positions = round_one_positions(params)
    ells = rng.integers(0, 2, size=len(positions)).astype(np.uint8)

    def data_bits(z):
        return (z[n - d:] % 2).astype(np.uint8)

    if event_e:
        bits0 = binary_repr(z0, params.Q)
        bits1 = binary_repr(z1, params.Q)
        diff = (bits0 ^ bits1)[positions - 1]
        phase = 1 if int((ells & diff).sum()) % 2 == 0 else -1
        claw = ClawDescription(branch0=data_bits(z0), branch1=data_bits(z1),
                               phase=phase)
    elif in_box0:
        claw = ClawDescription(branch0=data_bits(z0), branch1=None)
    else:
        claw = ClawDescription(branch0=None, branch1=data_bits(z1))
    return FirstRoundResult(w=w, ells=ells, ell_positions=positions, claw=claw,
                            event_e=event_e, event_f=event_f,
                            preimages=preimages)


def honest_second_round(claw: ClawDescription, y,
                        rng: np.random.Generator) -> np.ndarray:
    """Measure data qubit j in X or Y according to y_j, the coin qubit in
    the rotated XY basis; the d+1 outcome bits are the round-two answer.
    Sampled in closed form (sample_claw_outcomes), not simulated."""
    branch0, branch1, phase = claw.rows()
    return sample_claw_outcomes(branch0[None], branch1[None], np.array([phase]),
                                y, rng)[0]
