"""Exact modular arithmetic, protocol parameters, and reproducible randomness.

Everything downstream (games, lattice crypto, the prover simulators) builds on
the primitives here.  Conventions, fixed once and used everywhere:

* Residues mod q are stored canonically in ``[0, q)``.
* ``balanced_abs``/``balanced`` give the representative in ``(-q/2, q/2)``,
  which exists only for odd q (they and ``norminf`` reject an even q);
  norms and noise are measured on balanced representatives, binary
  representations and parity tests use the canonical one.
* Binary representations are big-endian, ``Q = ceil(log2 q)`` bits per
  residue; bit positions are 1-based when a whole vector is indexed.
* Randomness comes from labeled Philox streams, each keyed straight from a
  SHA-256 digest of (seed, label, index); see ``Rng``.  ``numpy.random`` is
  imported on the first stream, not at import.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

PAPER_ASYMPTOTIC = "paper-asymptotic"
DESK = "desk"

# Default desk-scale configuration.  q is the largest prime below 2**27, which
# keeps every int64 matrix product in range while making the honest-prover
# event E likely: lattice.honest_e_rate gives P(E) = 0.99746 here.
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
    for p in _MR_WITNESSES:
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


# Most multiply-adds in one float64 or float32 product that should run on
# the calling thread: OpenBLAS keeps a product of fewer than 2^19 of them
# there, while a larger one wakes a second thread, which then spins between
# calls and doubles the CPU time.  On 2 CPUs (numpy 2.4.6, OpenBLAS 0.3.31,
# two BLAS threads) the parity-game search's d = 2 key product
# 256 x 16 x 256 in float64 took 354 us on two threads against 72 us on
# one, its k = 4 block 128 x 16 x 1,864 in float32 95 against 90 us;
# blocks of 127 x 16 x 256 and 17 x 16 x 1,864 ran on one thread.  The
# games search and the lattice trapdoor products size their row blocks
# from it.
_PRODUCT_WORK = (1 << 19) - 1

# Most entries one block of an exact search's scan holds (8 MiB of int64),
# in the one-round parity-game search and eta_set
_SCAN_ENTRIES = 1 << 20


def _scan_blocks(total: int, per_item: int):
    """Consecutive ranges tiling range(total), each of at most
    _SCAN_ENTRIES // per_item items and at least one."""
    step = max(_SCAN_ENTRIES // per_item, 1)
    return (range(i, min(i + step, total)) for i in range(0, total, step))


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


def integer_array(x, shape: tuple[int, ...]) -> np.ndarray | None:
    """x as an array when it is one of integers (bools included) with the
    given shape; None otherwise, ragged nesting included.  The gate every
    prover message passes before its entries are read."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):   # ragged nesting
        return None
    if arr.shape != shape or arr.dtype.kind not in "biu":
        return None
    return arr


def _integer_indices(x, what: str) -> np.ndarray:
    """x as an int64 array; a non-empty x whose dtype is not integer (bools
    count, as in integer_array) raises ValueError naming what, where int64
    would truncate 1.5 to 1, and so does an integer entry outside int64
    (a uint64 past 2^63 - 1, a larger Python int), naming the entry, where
    int64 would wrap 2^64 - 1 to -1."""
    arr = np.asarray(x)
    kind = arr.dtype.kind
    # numpy holds Python ints past uint64 as objects
    ints = kind == "O" and all(isinstance(v, (int, np.integer))
                               for v in arr.flat)
    if arr.size and not ints and kind not in "biu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if ints or (kind == "u" and arr.dtype.itemsize == 8):
        wide = arr[(arr < -1 << 63) | (arr >= 1 << 63)]
        if wide.size:
            raise ValueError(f"{what} must fit in int64, got {wide.flat[0]}")
    return arr.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# parameters

def require_count(name: str, value: int) -> None:
    """Raise ValueError naming the argument unless value is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class Params:
    """The protocol sizes: n, q, d and sigma as given, Q, m and tau derived.

    Invariants: n >= 1, q is an odd prime, Q = ceil(log2 q), m = (2Q+1)n,
    tau = floor(q / (4 m Q)), 0 <= d <= n (d = 0 encrypts the empty
    message), 0 < sigma < inf.  Whether the encrypted game can run (d >= 1,
    tau >= 1 and sigma <= tau) is reported by runnability_problems, and
    desk_params and protocol.run_game_r require it.  The trapdoor decode's
    margin 6 gadget_bound < q needs no check here: tau >= 1 forces Q >= 3,
    where this tau gives it (see lattice), and tau = 0 makes gadget_bound 0.
    """

    n: int
    q: int
    d: int
    sigma: float
    Q: int = field(init=False)
    m: int = field(init=False)
    tau: int = field(init=False)

    def __post_init__(self):
        require_count("n", self.n)
        if self.d < 0:
            raise ValueError(f"d must be at least 0, got {self.d}")
        if not is_prime(self.q) or self.q == 2:
            raise ValueError(f"q = {self.q} is not an odd prime")
        if self.d > self.n:
            raise ValueError(f"d = {self.d} exceeds n = {self.n}")
        if not 0 < self.sigma < np.inf:   # nan fails too
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        Q = bit_length(self.q)
        m = (2 * Q + 1) * self.n
        tau = self.q // (4 * m * Q)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau", tau)

    @property
    def gadget_bound(self) -> int:
        """Worst-case gadget-domain error after trapdoor recombination."""
        return 2 * self.tau * (1 + (self.Q + 1) * self.n)

    def runnability_problems(self) -> list[str]:
        """Reasons this parameter set cannot run the encrypted game."""
        problems = []
        if self.d < 1:
            problems.append("d = 0 (no question bit besides the final 1)")
        if self.tau < 1:
            problems.append("tau = 0 (noise box is empty)")
        elif self.sigma > self.tau:
            problems.append(f"sigma = {self.sigma} exceeds tau = {self.tau}")
        return problems

    def event_bounds(self) -> tuple[float, float]:
        """Analytic lower bounds for the honest-prover events (E, F)."""
        e = 1.0 - self.m * self.sigma / (2 * self.tau + 1)
        f = 1.0 - (2 * self.sigma + self.d + self.m) / self.q
        return e, f


def derive_params(lam: int) -> Params:
    """The paper-asymptotic preset: everything follows from lam (n = lam, q
    the smallest odd prime in [lam^3, 2 lam^3], d = floor(log2 lam), sigma =
    sqrt(lam))."""
    if lam is None or lam < 2:
        raise ValueError("paper-asymptotic preset needs lam >= 2")
    return Params(n=lam, q=find_prime(lam ** 3, 2 * lam ** 3),
                  d=max(int(np.log2(lam)), 1), sigma=float(np.sqrt(lam)))


def desk_params(d: int = DESK_D, n: int = DESK_N, q: int = DESK_Q,
                sigma: float = DESK_SIGMA) -> Params:
    """The desk preset: n, q, d, sigma given explicitly (the defaults are
    the validated desk point).  Raises InvalidDeskParams unless the
    encrypted game can run at them."""
    params = Params(n=n, q=q, d=d, sigma=float(sigma))
    problems = params.runnability_problems()
    if problems:
        raise InvalidDeskParams("; ".join(problems))
    return params


# ---------------------------------------------------------------------------
# randomness

_MASK64 = (1 << 64) - 1


@functools.cache
def _digest_key_class() -> type:
    """The seed sequence that hands Philox the words of a digest, defined on
    first use so that importing poqlab does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class DigestKey(ISeedSequence):
        """Words of a byte string, read little-endian in order; asking for
        more bytes than it holds raises ValueError."""

        def __init__(self, digest: bytes):
            self.digest = digest

        def generate_state(self, n_words, dtype=np.uint32):
            dtype = np.dtype(dtype)
            if n_words * dtype.itemsize > len(self.digest):
                raise ValueError(
                    f"{n_words} words of {dtype} exceed the "
                    f"{len(self.digest)}-byte digest")
            words = np.frombuffer(self.digest, dtype.newbyteorder("<"), n_words)
            return words.astype(dtype)

    return DigestKey


@dataclass(frozen=True)
class Rng:
    """Labeled, replayable random streams over a counter-based generator.

    stream(label, index) is the Philox stream whose 128-bit key is the first
    16 bytes, read as two little-endian uint64, of the SHA-256 digest of
    ``f"{seed & (2**64 - 1)}:{label}:{index}"`` (a negative seed aliases its
    64-bit two's complement).  The same (seed, label, index) triple always
    yields the same stream, and distinct triples give independent streams,
    so trials can be farmed out in any order or process layout.
    """

    seed: int

    def stream(self, label: str, index: int = 0) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.seed & _MASK64}:{label}:{index}".encode()).digest()
        key = _digest_key_class()(digest)
        return np.random.Generator(np.random.Philox(key))
