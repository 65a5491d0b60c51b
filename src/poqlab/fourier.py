"""Complex functions on Z_m^n: transform, convolution, and the two support
coefficients (uniformity and linearity) that drive the uncertainty bounds.

Index convention: a group element (x_0, ..., x_{n-1}) in Z_m^n is stored at
flat index sum_j x_j * m**j (little-endian mixed radix).  The transform pairs
the group with itself through the character x' |-> zeta^{x . x'} with
zeta = exp(2 pi i / m), so transformed functions live on the same index space.

dft, idft, convolve and the linearity coefficient all go through one unitary
transform with two paths.  It takes a stack of functions on its leading axes
and transforms them in one call.  For m <= _MATRIX_MAX_M it splits the n
axes into blocks of at most _BLOCK_MAX entries (one axis at least) and
applies each block's character table, the Kronecker power of the m x m
character matrix, in one product; the tables are built on first use and
cached read-only.  Larger moduli go to np.fft, where a dense matrix would be
slower and, near the CLI's 4^12 cap, too large to hold.  The linearity
coefficient takes one forward transform: by Parseval, sum_s P[x+y=s]^2 =
|G| sum |p_hat|^4.  Each uncertainty check makes one transform call, on
the stack of f and p = |f| / ||f||_1.  The support product
|Supp h| |Supp h_hat| nu(h) eta(h) / |G| needs neither Supp h nor nu:
|Supp h| nu(h) = 1 / sum p^2 and eta(h) / |G| = sum |p_hat|^4 / sum p^2,
so the product is |Supp h_hat| C(p) with C(p) = sum |p_hat|^4 / (sum p^2)^2.

The transform runs in floating point for every input.  Supports, on either
side of the transform and in the uniformity coefficient nu, are the entries
whose modulus exceeds SUPPORT_EPS, and a function with no such entry is the
zero function; uncertainty_bound_check tests unit norms and the bound within
BOUND_TOL.  Only the Fraction-valued linearity coefficient of an indicator
(eta_set, which counts pair sums in integers) is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _integer_indices, _scan_blocks

SUPPORT_EPS = 1e-9
BOUND_TOL = 1e-9

# Largest modulus transformed by character tables.  Against np.fft.ifftn
# (numpy 2.4.6, 2 CPUs, blocks as below) the table path measured 5.9x faster
# at Z_4^3, 11-18x at Z_4^n for 5 <= n <= 10 and 2.2x at Z_32^2; it ran at
# 1.1-1.3x on Z_64^2, 0.7-0.8x on Z_128^2 and 0.4x on Z_1021, so the
# crossover lies between 64 and 128 and the gain at 64 is within the
# machine's drift.  Near the CLI's cap of 4^12 elements an m x m matrix
# would not fit in memory.
_MATRIX_MAX_M = 32

# Most entries in one block's character table (a block of one axis may hold
# more).  Median per transform call on 2 CPUs, one axis per block against
# blocks of at most 16 and 64 entries: one Z_4^3 function 16.4 / 12.6 /
# 9.4 us, a stack of two Z_4^4 functions 35.1 / 20.9 / 32.2 us, one Z_4^10
# function 24.3 / 17.8 / 28.7 ms, one Z_2^16 function 3.66 / 0.82 / 1.20 ms.
# A cap of 32 matched 16 on Z_4^n, gained on Z_3^8 (117 against 145 us)
# and lost on Z_2^16 (1.13 ms).
_BLOCK_MAX = 16


class ZeroFunction(ValueError):
    """Operation requires a nonzero function."""


class GroupMismatch(ValueError):
    """Operands live on different groups."""


@dataclass(frozen=True)
class Group:
    """The ambient group Z_m^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2 or self.n < 1:
            raise ValueError("need m >= 2 and n >= 1")

    @property
    def size(self) -> int:
        return self.m ** self.n

    def encode(self, element):
        """Flat index of an element, its integer coordinates taken mod m.  The
        last axis of an array holds the n coordinates and leading axes
        broadcast to an array of indices; one element gives an int."""
        x = _integer_indices(element, "coordinates")
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"an element of Z_{self.m}^{self.n} has "
                             f"{self.n} coordinates, got shape {x.shape}")
        idx = x % self.m @ self.m ** np.arange(self.n)
        return int(idx) if idx.ndim == 0 else idx

    def decode(self, idx):
        """Inverse of encode: one index gives a tuple, an array of indices an
        array with the n coordinates on a new last axis."""
        i = _integer_indices(idx, "indices")
        outside = i[(i < 0) | (i >= self.size)]
        if outside.size:
            raise ValueError(f"index {outside.flat[0]} of Z_{self.m}^{self.n} "
                             f"is outside [0, {self.size})")
        coords = i[..., None] // self.m ** np.arange(self.n) % self.m
        return tuple(coords.tolist()) if i.ndim == 0 else coords


@dataclass(frozen=True)
class GroupFunction:
    group: Group
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.group.size,):
            raise ValueError(f"need exactly {self.group.size} values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_dict(cls, group: Group, entries: dict) -> "GroupFunction":
        """Values at the listed elements, zero elsewhere; two keys that name
        the same element mod m raise ValueError."""
        v = np.zeros(group.size, dtype=complex)
        keys: dict[int, object] = {}
        for element, value in entries.items():
            idx = group.encode(element)
            if idx in keys:
                raise ValueError(f"keys {keys[idx]} and {element} name the "
                                 f"same element of Z_{group.m}^{group.n}")
            keys[idx] = element
            v[idx] = value
        return cls(group, v)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class SubsetOfGroup:
    group: Group
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.group.size,):
            raise ValueError(f"mask must have length {self.group.size}")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_elements(cls, group: Group, elements) -> "SubsetOfGroup":
        """The set of the given elements: an array whose last axis holds the
        coordinates, or any iterable of elements."""
        if not isinstance(elements, np.ndarray):
            elements = list(elements)
        mask = np.zeros(group.size, dtype=bool)
        if len(elements):
            mask[group.encode(elements)] = True
        return cls(group, mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def indicator(self) -> GroupFunction:
        return GroupFunction(self.group, self.mask.astype(complex))


# ---------------------------------------------------------------------------
# transform and convolution

@functools.cache
def _characters(m: int, sign: int, axes: int) -> np.ndarray:
    """Read-only unitary table of a block of axes: the Kronecker power
    C^{(x) axes} of the m x m matrix C[x, x'] = zeta^{sign x x'} / sqrt(m)."""
    if axes > 1:
        c = np.kron(_characters(m, sign, axes - 1), _characters(m, sign, 1))
    else:
        roots = np.exp(sign * 2j * np.pi * np.arange(m) / m) / np.sqrt(m)
        k = np.arange(m)
        c = roots[np.outer(k, k) % m]
    c.flags.writeable = False
    return c


@functools.cache
def _blocks(m: int, n: int, sign: int) -> tuple:
    """(table, (entries, rest)) per block of axes that _transform applies to
    Z_m^n, slowest block first: runs of the most axes whose entries number at
    most _BLOCK_MAX (one axis at least), the fastest run taking the
    remainder, and rest = m^n / entries."""
    per = 1
    while m ** (per + 1) <= _BLOCK_MAX:
        per += 1
    axes = [per] * (n // per) + [n % per] * (n % per > 0)
    return tuple((_characters(m, sign, a), (m ** a, m ** (n - a)))
                 for a in axes)


def _transform(values: np.ndarray, group: Group, sign: int) -> np.ndarray:
    """|G|^{-1/2} sum_x values(x) zeta^{sign x . x'} along the last axis, which
    holds flat indices; leading axes index a stack of functions."""
    m, n = group.m, group.n
    lead = values.shape[:-1]
    if m > _MATRIX_MAX_M:
        fft = np.fft.ifftn if sign > 0 else np.fft.fftn
        return fft(values.reshape(lead + (m,) * n), axes=tuple(range(-n, 0)),
                   norm="ortho").reshape(values.shape)
    x = values
    for c, shape in _blocks(m, n, sign):
        # transform each function's slowest block of axes and rotate it to
        # the back; after the last block every axis is transformed and back
        # in place.  Applying each block where it sits, by a left or right
        # product, measured the same up to Z_4^4 but 1.6x slower at Z_4^8,
        # where a middle block takes one small product per slice
        x = x.reshape(lead + shape).swapaxes(-1, -2) @ c
    return x.reshape(values.shape)


def dft(f: GroupFunction) -> GroupFunction:
    """f_hat(x') = |G|^{-1/2} sum_x f(x) zeta^{x . x'}."""
    return GroupFunction(f.group, _transform(f.values, f.group, 1))


def idft(f: GroupFunction) -> GroupFunction:
    return GroupFunction(f.group, _transform(f.values, f.group, -1))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = |G|^{-1/2} sum_y f(x-y) g(y), the inverse transform of
    f_hat * g_hat."""
    if f.group != g.group:
        raise GroupMismatch(f"{f.group} vs {g.group}")
    gr = f.group
    fh, gh = _transform(np.array([f.values, g.values]), gr, 1)
    return GroupFunction(gr, _transform(fh * gh, gr, -1))


# ---------------------------------------------------------------------------
# uniformity and linearity coefficients

def _support(f: GroupFunction, what: str) -> tuple[np.ndarray, int]:
    """The zero-function gate: the moduli w = |f| and |Supp f|, counted once
    for the gate and its callers; a function with no entry above
    SUPPORT_EPS raises ZeroFunction."""
    w = np.abs(f.values)
    if not (count := _count(w)):
        raise ZeroFunction(f"{what} of the zero function")
    return w, count


def _count(w: np.ndarray) -> int:
    """Support size of a function whose moduli are w."""
    return int(np.count_nonzero(w > SUPPORT_EPS))


def _eta(moduli: np.ndarray, square: float, size: int) -> float:
    """Linearity coefficient of a distribution p from the moduli |p_hat| of
    its transform and square = sum p^2: by Parseval,
    sum_s P[x+y=s]^2 = |G| sum |p_hat|^4."""
    power = moduli ** 2
    return size * float(power @ power) / square


def _concentration(p: np.ndarray, moduli: np.ndarray) -> float:
    """C(p) = sum |p_hat|^4 / (sum p^2)^2 from the distribution p and the
    moduli |p_hat| of its transform."""
    power = moduli ** 2
    square = float(p @ p)
    return float(power @ power) / (square * square)


def uniformity_nu(f: GroupFunction) -> float:
    """1 / (|Supp f| sum p^2) for p = |f| / ||f||_1, with Supp f the entries
    where |f| exceeds SUPPORT_EPS, as everywhere in this module.

    At most 1, with equality iff |f| is constant on its support, when f has
    no entry of modulus in (0, SUPPORT_EPS].  Such entries enter p but not
    the support, and can lift nu above 1 by up to about twice their share
    of ||f||_1.
    """
    w, count = _support(f, "uniformity coefficient")
    p = w / w.sum()
    return 1.0 / (count * float(p @ p))


def linearity_eta(f: GroupFunction) -> float:
    """P[x+y=z+w | p] / P[x=y | p] for p = |f| / ||f||_1.

    The numerator is sum_s P[x+y=s]^2, which by Parseval equals
    |G| sum |p_hat|^4 for the unitary transform p_hat.
    """
    w, _ = _support(f, "linearity coefficient")
    p = w / w.sum()
    return _eta(np.abs(_transform(p, f.group, 1)), float(p @ p), f.group.size)


def eta_set(s: SubsetOfGroup) -> Fraction:
    """Exact linearity coefficient of an indicator: with t = |S| and N(g)
    the number of ordered pairs summing to g, eta = sum_g N(g)^2 / t^3.

    N is counted with np.bincount in row blocks of at most
    core._SCAN_ENTRIES pairs (the budget every exact search's scan shares),
    so the pair sums held at once stay bounded for any t.
    """
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    g = s.group
    m, t = g.m, len(els)
    powers = m ** np.arange(g.n)
    coords = g.decode(els)
    counts = np.zeros(g.size, dtype=np.int64)
    for block in _scan_blocks(t, t):
        rows = coords[block.start:block.stop]
        idx = np.zeros((len(rows), t), dtype=np.int64)
        for j in range(g.n):
            idx += (rows[:, j, None] + coords[None, :, j]) % m * powers[j]
        counts += np.bincount(idx.ravel(), minlength=g.size)
    # sum N(g)^2 <= t^3: int64 holds it below t = 2^21, Python ints above
    if t ** 3 >= 1 << 63:
        counts = counts.astype(object)
    # P[x+y=z+w] = sum N^2 / t^4 ; P[x=y] = 1/t
    return Fraction(int((counts * counts).sum()), t ** 3)


# ---------------------------------------------------------------------------
# uncertainty relations

def support_size(f: GroupFunction) -> int:
    return _count(np.abs(f.values))


def uncertainty_product(h: GroupFunction) -> float:
    """|Supp h| |Supp h_hat| nu(h) eta(h) / |G|, at least 1 for nonzero h.
    Supp h and nu cancel: the product is |Supp h_hat| C(p) for
    p = |h| / ||h||_1 and C(p) = sum |p_hat|^4 / (sum p^2)^2."""
    w, _ = _support(h, "uncertainty product")
    p = w / w.sum()
    hh_abs, p_hat_abs = np.abs(_transform(np.array([h.values, p]), h.group, 1))
    return _count(hh_abs) * _concentration(p, p_hat_abs)


def donoho_stark_check(h: GroupFunction) -> bool:
    """|Supp h| * |Supp h_hat| >= |G| under the support cutoff."""
    _, count = _support(h, "support product")
    hh = _transform(h.values, h.group, 1)
    return count * _count(np.abs(hh)) >= h.group.size


def uncertainty_bound_check(f: GroupFunction,
                            g: GroupFunction) -> tuple[float, float, bool]:
    """lhs = |<f_hat, g>| against rhs = (|Supp f||Supp g| nu(f) eta(f)/|G|)^(1/4),
    read as (|Supp g| C(p))^(1/4) for p = |f| / ||f||_1 (uncertainty_product).

    Both arguments must be unit vectors; g lives on the transform side, which
    shares the index space with the group itself.
    """
    if f.group != g.group:
        raise GroupMismatch(f"{f.group} vs {g.group}")
    w, v = np.abs(f.values), np.abs(g.values)
    if max(abs(np.sqrt(w @ w) - 1.0), abs(np.sqrt(v @ v) - 1.0)) > BOUND_TOL:
        raise ValueError("f and g must be normalized to unit 2-norm")
    p = w / w.sum()
    fh, p_hat = _transform(np.array([f.values, p]), f.group, 1)
    lhs = abs(complex(np.vdot(g.values, fh)))
    rhs = (_count(v) * _concentration(p, np.abs(p_hat))) ** 0.25
    return lhs, rhs, lhs <= rhs + BOUND_TOL
