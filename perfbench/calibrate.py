"""Machine-speed calibration for the end-to-end times.

The shared machines this benchmark runs on drift between a fast and a slow
state over tens of seconds to minutes, and the same job's wall time moves by
up to 80% between runs.  A fixed kernel, timed between the job's rounds,
slows down with the job when it exercises the same kind of work, and it
touches no poqlab code, so a change to poqlab cannot move it:

- `dispatch`: SHA-256 stream derivation, Philox generators, small integer
  matrix products and the Python overhead of many small numpy calls, the
  work of the desk-preset games;
- `statevector`: one-qubit projections over a 17-qubit statevector, the way
  `quantum.measure` applies them, the work of the honest prover at d = 16.

exact-d2 is not calibrated.  Scaled by the dispatch kernel its run-to-run
spread went from 0.09 to 0.17, and a kernel of its own work (a float32
product on both BLAS threads, rounding and a gather-max-sum over 32 MB) left
it where it was (0.14 against 0.13).

Calibrated workloads report wall and CPU time in reference seconds: measured
seconds scaled by the kernel's reference duration over its measured mean
duration.  A reference duration is the kernel's typical duration on the
machine the reference figures in README.md come from, so a reference second
is close to a measured second there.

Set-up time drifts with the machine too, but with neither kernel.  It is
scaled the same way by the start-up time of a bare interpreter that imports
numpy (STARTUP_PROGRAM), timed next to every set-up sample: over 25 groups
of five samples this cut the spread of set-up medians from 0.26 to 0.10.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np


def dispatch_kernel() -> int:
    acc = 0
    for i in range(60):
        digest = hashlib.sha256(f"calibration:{i}".encode()).digest()
        seq = np.random.SeedSequence([i, int.from_bytes(digest[:8], "little")])
        gen = np.random.Generator(np.random.Philox(seq))
        a = gen.integers(0, 1 << 20, size=(64, 32))
        b = gen.integers(-1, 2, size=(48, 64))
        c = (b @ a) % 1_000_003
        acc += int(np.abs(np.where(c > 500_001, c - 1_000_003, c)).max())
        acc += int(np.searchsorted(np.cumsum(gen.random(64)), 3.0))
    return acc


_QUBITS = 17
_STATE = np.full((2,) * _QUBITS, 2 ** (-_QUBITS / 2), dtype=complex)
_PROJECTOR = np.array([[1, -1j], [1j, 1]]) / 2


def statevector_kernel() -> float:
    state = _STATE
    for qubit in range(_QUBITS):
        state = np.moveaxis(np.tensordot(_PROJECTOR, state, axes=([1], [qubit])),
                            0, qubit)
    return float(np.linalg.norm(state))


STARTUP_PROGRAM = ("import time, numpy; "
                   "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
STARTUP_REFERENCE_S = 0.150

# name -> (kernel, reference duration in seconds)
KERNELS = {
    "dispatch": (dispatch_kernel, 0.015),
    "statevector": (statevector_kernel, 0.025),
}


class Speed:
    """Kernel runs and the time they took, accumulated over a run."""

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.kernel()  # the first run in a process pays for cold caches
        self.runs = 0
        self.seconds = 0.0

    def sample(self, min_seconds: float = 0.0):
        """Run the kernel at least once and until min_seconds have passed."""
        start = time.perf_counter()
        while True:
            self.kernel()
            self.runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        self.seconds += elapsed

    @property
    def factor(self) -> float:
        """Reference seconds per measured second (1 before any sample, when
        a check fails in the first round)."""
        return self.reference_s * self.runs / self.seconds if self.runs else 1.0
