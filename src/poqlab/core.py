"""Exact modular arithmetic, protocol parameters, and reproducible randomness.

Everything downstream (games, lattice crypto, the prover simulators) builds on
the primitives here.  Conventions, fixed once and used everywhere:

* Residues mod q are stored canonically in ``[0, q)``.
* ``balanced_abs``/``balanced`` give the representative in ``(-q/2, q/2)``,
  which exists only for odd q (they, ``norm1`` and ``norminf`` reject an
  even q); norms and noise are measured on balanced representatives, binary
  representations and parity tests use the canonical one.
* Binary representations are big-endian, ``Q = ceil(log2 q)`` bits per
  residue; bit positions are 1-based when a whole vector is indexed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

PAPER_ASYMPTOTIC = "paper-asymptotic"
DESK = "desk"

# Default desk-scale configuration.  q is the largest prime below 2**27, which
# keeps every int64 matrix product in range while making the honest-prover
# success events overwhelmingly likely (see Params.event_bounds).
DESK_N = 8
DESK_Q = 134_217_689
DESK_D = 4
DESK_SIGMA = 0.35


class NoPrimeInRange(ValueError):
    """find_prime was given an interval containing no odd prime."""


class InvalidDeskParams(ValueError):
    """Desk parameter validation failed (tau = 0, sigma > tau, ...)."""


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_prime(lo: int, hi: int) -> int:
    """Smallest odd prime in [lo, hi]."""
    if lo < 3:
        raise ValueError("lo must be >= 3")
    n = lo | 1  # skip even candidates
    while n <= hi:
        if is_prime(n):
            return n
        n += 2
    raise NoPrimeInRange(f"no odd prime in [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# residue arithmetic

def _require_odd(q: int) -> None:
    if q % 2 == 0:
        raise ValueError(f"modulus {q} is even; only odd moduli have a "
                         "balanced representative in (-q/2, q/2)")


def balanced(x, q: int):
    """Representative of x mod q in (-q/2, q/2); accepts scalars or arrays.
    Raises ValueError for an even q."""
    _require_odd(q)
    r = np.asarray(x) % q
    out = np.where(r > q // 2, r - q, r)
    return int(out) if np.ndim(x) == 0 else out.astype(np.int64)


def balanced_abs(x, q: int):
    """min(x, q - x): the absolute value of the balanced representative,
    at most (q - 1) // 2.  Raises ValueError for an even q."""
    _require_odd(q)
    r = np.asarray(x) % q
    out = np.minimum(r, q - r)
    return int(out) if np.ndim(x) == 0 else out.astype(np.int64)


def norm1(v, q: int) -> int:
    return int(balanced_abs(np.asarray(v), q).sum())


def norminf(v, q: int) -> int:
    _require_odd(q)
    v = np.atleast_1d(np.asarray(v))
    if v.size == 0:
        return 0
    return int(balanced_abs(v, q).max())


def bit_length(q: int) -> int:
    """Q = ceil(log2 q)."""
    return (q - 1).bit_length()


def binary_repr(x, width: int) -> np.ndarray:
    """Big-endian bits of the canonical representative(s).

    A scalar yields `width` bits; a length-n vector yields the n*width-bit
    concatenation of its per-coordinate blocks, and leading axes are kept.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = (xs[..., None] >> shifts) & 1
    return bits.reshape(*xs.shape[:-1], -1).astype(np.uint8)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a @ b) % q without int64 overflow.

    Splits the inner dimension into chunks small enough that partial sums of
    (q-1)^2-sized products stay below 2**62, reducing mod q between chunks.
    Leading axes broadcast as in np.matmul.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (q - 1) ** 2 >= (1 << 63):
        raise ValueError("modulus too large for int64 products (q >= ~2^31.5)")
    per = max(int((1 << 62) // ((q - 1) ** 2)), 1)
    k = a.shape[-1]
    if k <= per:
        return (a @ b) % q
    acc = None
    for start in range(0, k, per):
        rows = slice(start, start + per)
        chunk = (a[..., rows] @ (b[rows] if b.ndim == 1 else b[..., rows, :])) % q
        acc = chunk if acc is None else (acc + chunk) % q
    return acc


# ---------------------------------------------------------------------------
# parameters

def require_count(name: str, value: int) -> None:
    """Raise ValueError naming the argument unless value is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class Params:
    """The seven protocol sizes plus the preset tag they were derived under.

    Invariants: q is an odd prime, Q = ceil(log2 q), m = (2Q+1)n,
    tau = floor(q / (4 m Q)), d <= n.  The desk preset additionally requires
    tau >= 1, sigma <= tau, and the trapdoor error margin (see gadget_bound).
    """

    lam: int | None
    n: int
    q: int
    d: int
    sigma: float
    preset: str
    Q: int = field(init=False)
    m: int = field(init=False)
    tau: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.q) or self.q == 2:
            raise ValueError(f"q = {self.q} is not an odd prime")
        if self.d > self.n:
            raise ValueError(f"d = {self.d} exceeds n = {self.n}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        Q = bit_length(self.q)
        m = (2 * Q + 1) * self.n
        tau = self.q // (4 * m * Q)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau", tau)
        if self.preset == DESK:
            problems = self.runnability_problems()
            if problems:
                raise InvalidDeskParams("; ".join(problems))

    @property
    def gadget_bound(self) -> int:
        """Worst-case gadget-domain error after trapdoor recombination."""
        return 2 * self.tau * (1 + (self.Q + 1) * self.n)

    def runnability_problems(self) -> list[str]:
        """Reasons this parameter set cannot run the encrypted game."""
        problems = []
        if self.tau < 1:
            problems.append("tau = 0 (noise box is empty)")
        elif self.sigma > self.tau:
            problems.append(f"sigma = {self.sigma} exceeds tau = {self.tau}")
        if 4 * self.gadget_bound >= self.q:
            problems.append(
                f"gadget error margin violated: 2*tau*(1+(Q+1)n) = "
                f"{self.gadget_bound} >= q/4")
        return problems

    @property
    def game_r_runnable(self) -> bool:
        return not self.runnability_problems()

    def event_bounds(self) -> tuple[float, float]:
        """Analytic lower bounds for the honest-prover events (E, F)."""
        e = 1.0 - self.m * self.sigma / (2 * self.tau + 1)
        f = 1.0 - (2 * self.sigma + self.d + self.m) / self.q
        return e, f


def derive_params(lam: int | None = None, preset: str = PAPER_ASYMPTOTIC, *,
                  n: int | None = None, q: int | None = None,
                  d: int | None = None, sigma: float | None = None) -> Params:
    """Build a Params under one of the two presets.

    paper-asymptotic: everything follows from lam (n = lam, q the smallest
    odd prime in [lam^3, 2 lam^3], d = floor(log2 lam), sigma = sqrt(lam)).
    desk: n, q, d, sigma are given explicitly and validated.
    """
    if preset == PAPER_ASYMPTOTIC:
        if lam is None or lam < 2:
            raise ValueError("paper-asymptotic preset needs lam >= 2")
        return Params(lam=lam, n=lam, q=find_prime(lam ** 3, 2 * lam ** 3),
                      d=max(int(np.log2(lam)), 1), sigma=float(np.sqrt(lam)),
                      preset=PAPER_ASYMPTOTIC)
    if preset == DESK:
        if None in (n, q, d, sigma):
            raise InvalidDeskParams("desk preset needs explicit n, q, d, sigma")
        return Params(lam=lam, n=n, q=q, d=d, sigma=float(sigma), preset=DESK)
    raise ValueError(f"unknown preset {preset!r}")


def desk_params(d: int = DESK_D, n: int = DESK_N, q: int = DESK_Q,
                sigma: float = DESK_SIGMA) -> Params:
    """The validated default desk preset."""
    return derive_params(preset=DESK, n=n, q=q, d=d, sigma=sigma)


# ---------------------------------------------------------------------------
# randomness

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Rng:
    """Labeled, replayable random streams over a counter-based generator.

    stream(label, index) always yields the same Philox stream for the same
    (seed, label, index) triple, and distinct triples give independent
    streams, so trials can be farmed out in any order or process layout.
    """

    seed: int

    def stream(self, label: str, index: int = 0) -> np.random.Generator:
        digest = hashlib.sha256(f"{label}:{index}".encode()).digest()
        words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
        ss = np.random.SeedSequence([self.seed & _MASK64, *words])
        return np.random.Generator(np.random.Philox(ss))
