"""Complex functions on Z_m^n: transform, convolution, and the two support
coefficients (uniformity and linearity) that drive the uncertainty bounds.

Index convention: a group element (x_0, ..., x_{n-1}) in Z_m^n is stored at
flat index sum_j x_j * m**j (little-endian mixed radix).  The transform pairs
the group with itself through the character x' |-> zeta^{x . x'} with
zeta = exp(2 pi i / m), so transformed functions live on the same index space.

dft, idft, convolve and the linearity coefficient all go through one unitary
transform with two paths.  It takes a stack of functions on its leading axes
and transforms them in one call.  For m <= _MATRIX_MAX_M it applies the
m x m character matrix once per axis, built on first use and cached
read-only; larger moduli go to np.fft, where a dense matrix would be slower
and, near the CLI's 4^12 cap, too large to hold.  The linearity coefficient
takes one forward transform: by Parseval, sum_s P[x+y=s]^2 =
|G| sum |p_hat|^4.  Each uncertainty check makes one transform call:
uncertainty_product and uncertainty_bound_check transform f together with
p = |f| / ||f||_1, and read nu and eta off that stack.

The transform runs in floating point for every input.  Supports, on either
side of the transform and in the uniformity coefficient nu, are the entries
whose modulus exceeds SUPPORT_EPS, so support sizes and the uncertainty
products built on them depend on that one cutoff; uncertainty_bound_check
tests unit norms and the bound within BOUND_TOL.  Only the Fraction-valued
linearity coefficient of an indicator (eta_set, which counts pair sums in
integers) is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SUPPORT_EPS = 1e-9
BOUND_TOL = 1e-9

# Largest modulus transformed by character matrices.  Against np.fft.ifftn
# (numpy 2.4.6, 2 CPUs) the matrix path measured 3.6-4.7x faster at Z_4^3,
# 9-19x at Z_4^n for 5 <= n <= 10 and 1.5-2.3x at Z_32^2; it broke even
# near Z_64^2 and ran at 0.4-0.6x on Z_128^2 and 0.2-0.3x on Z_1021.  Near
# the CLI's cap of 4^12 elements an m x m matrix would not fit in memory.
_MATRIX_MAX_M = 32

# eta_set counts pair sums in row blocks of at most this many pairs
_PAIR_BLOCK = 1 << 16


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
        """Flat index of an element, its coordinates taken mod m.  The last
        axis of an array holds the n coordinates and leading axes broadcast
        to an array of indices; one element gives an int."""
        x = np.asarray(element, dtype=np.int64)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"an element of Z_{self.m}^{self.n} has "
                             f"{self.n} coordinates, got shape {x.shape}")
        idx = x % self.m @ self.m ** np.arange(self.n)
        return int(idx) if idx.ndim == 0 else idx

    def decode(self, idx):
        """Inverse of encode: one index gives a tuple, an array of indices an
        array with the n coordinates on a new last axis."""
        i = np.asarray(idx, dtype=np.int64)
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
def _characters(m: int, sign: int) -> np.ndarray:
    """Read-only unitary m x m matrix C[x, x'] = zeta^{sign x x'} / sqrt(m)."""
    roots = np.exp(sign * 2j * np.pi * np.arange(m) / m) / np.sqrt(m)
    k = np.arange(m)
    c = roots[np.outer(k, k) % m]
    c.flags.writeable = False
    return c


def _transform(values: np.ndarray, group: Group, sign: int) -> np.ndarray:
    """|G|^{-1/2} sum_x values(x) zeta^{sign x . x'} along the last axis, which
    holds flat indices; leading axes index a stack of functions."""
    m, n = group.m, group.n
    lead = values.shape[:-1]
    if m > _MATRIX_MAX_M:
        fft = np.fft.ifftn if sign > 0 else np.fft.fftn
        return fft(values.reshape(lead + (m,) * n), axes=tuple(range(-n, 0)),
                   norm="ortho").reshape(values.shape)
    c = _characters(m, sign)
    x = values
    for _ in range(n):
        # transform each function's leading (slowest) axis and rotate it to
        # the back; after n steps every axis is transformed and back in place
        x = x.reshape(lead + (m, -1)).swapaxes(-1, -2) @ c
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

def _weights(f: GroupFunction) -> np.ndarray:
    w = np.abs(f.values)
    if not w.any():
        raise ZeroFunction("coefficient undefined for the zero function")
    return w


def _count(w: np.ndarray) -> int:
    """Support size of a function whose moduli are w."""
    return int(np.count_nonzero(w > SUPPORT_EPS))


def _nu(w: np.ndarray, p: np.ndarray) -> float:
    """Uniformity coefficient of p = w / ||w||_1, its support that of w under
    the cutoff."""
    return 1.0 / (_count(w) * float((p ** 2).sum()))


def _eta(p: np.ndarray, p_hat: np.ndarray, size: int) -> float:
    """Linearity coefficient of the distribution p from its transform p_hat:
    by Parseval, sum_s P[x+y=s]^2 = |G| sum |p_hat|^4."""
    power = np.abs(p_hat) ** 2
    return size * float((power ** 2).sum()) / float((p ** 2).sum())


def uniformity_nu(f: GroupFunction) -> float:
    """1 / (|Supp f| sum p^2) for p = |f| / ||f||_1, with Supp f the entries
    where |f| exceeds SUPPORT_EPS, as everywhere in this module.

    At most 1, with equality iff |f| is constant on its support, when f has
    no entry of modulus in (0, SUPPORT_EPS].  Such entries enter p but not
    the support, and can lift nu above 1 by up to about twice their share
    of ||f||_1.
    """
    w = _weights(f)
    return _nu(w, w / w.sum())


def linearity_eta(f: GroupFunction) -> float:
    """P[x+y=z+w | p] / P[x=y | p] for p = |f| / ||f||_1.

    The numerator is sum_s P[x+y=s]^2, which by Parseval equals
    |G| sum |p_hat|^4 for the unitary transform p_hat.
    """
    w = _weights(f)
    p = w / w.sum()
    return _eta(p, _transform(p, f.group, 1), f.group.size)


def eta_set(s: SubsetOfGroup) -> Fraction:
    """Exact linearity coefficient of an indicator: with t = |S| and N(g)
    the number of ordered pairs summing to g, eta = sum_g N(g)^2 / t^3.

    N is counted with np.bincount in row blocks of at most _PAIR_BLOCK
    pairs, so the pair sums held at once stay bounded for any t.
    """
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    g = s.group
    m, t = g.m, len(els)
    powers = m ** np.arange(g.n)
    coords = g.decode(els)
    counts = np.zeros(g.size, dtype=np.int64)
    block = max(_PAIR_BLOCK // t, 1)
    for start in range(0, t, block):
        rows = coords[start:start + block]
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
    """|Supp h| |Supp h_hat| nu(h) eta(h) / |G|, every support under the
    cutoff; at least 1 for nonzero h."""
    w = np.abs(h.values)
    if not w.any():
        raise ZeroFunction("uncertainty product of the zero function")
    p = w / w.sum()
    hh, p_hat = _transform(np.array([h.values, p]), h.group, 1)
    return (_count(w) * _count(np.abs(hh)) * _nu(w, p)
            * _eta(p, p_hat, h.group.size)) / h.group.size


def donoho_stark_check(h: GroupFunction) -> bool:
    """|Supp h| * |Supp h_hat| >= |G| under the support cutoff."""
    w = np.abs(h.values)
    if not w.any():
        raise ZeroFunction("support product of the zero function")
    hh = _transform(h.values, h.group, 1)
    return _count(w) * _count(np.abs(hh)) >= h.group.size


def uncertainty_bound_check(f: GroupFunction,
                            g: GroupFunction) -> tuple[float, float, bool]:
    """lhs = |<f_hat, g>| against rhs = (|Supp f||Supp g| nu(f) eta(f)/|G|)^(1/4).

    Both arguments must be unit vectors; g lives on the transform side, which
    shares the index space with the group itself.
    """
    if f.group != g.group:
        raise GroupMismatch(f"{f.group} vs {g.group}")
    if abs(f.norm2() - 1.0) > BOUND_TOL or abs(g.norm2() - 1.0) > BOUND_TOL:
        raise ValueError("f and g must be normalized to unit 2-norm")
    w = np.abs(f.values)
    p = w / w.sum()
    fh, p_hat = _transform(np.array([f.values, p]), f.group, 1)
    lhs = abs(complex(np.vdot(g.values, fh)))
    rhs = float((_count(w) * _count(np.abs(g.values)) * _nu(w, p)
                 * _eta(p, p_hat, f.group.size) / f.group.size) ** 0.25)
    return lhs, rhs, lhs <= rhs + BOUND_TOL
