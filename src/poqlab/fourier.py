"""Complex functions on Z_m^n: transform, convolution, and the two support
coefficients (uniformity and linearity) that drive the uncertainty bounds.

Index convention: a group element (x_0, ..., x_{n-1}) in Z_m^n is stored at
flat index sum_j x_j * m**j (little-endian mixed radix).  The transform pairs
the group with itself through the character x' |-> zeta^{x . x'} with
zeta = exp(2 pi i / m), so transformed functions live on the same index space.

The transform runs in floating point for every input.  Supports, on either
side of the transform, are the entries whose modulus exceeds SUPPORT_EPS, so
support sizes and the uncertainty products built on them depend on that one
cutoff; uncertainty_bound_check tests unit norms and the bound within
BOUND_TOL.  Only the Fraction-valued linearity coefficient of an indicator
(eta_set) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SUPPORT_EPS = 1e-9
BOUND_TOL = 1e-9


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

    def encode(self, element) -> int:
        idx = 0
        for j, x in enumerate(element):
            idx += (int(x) % self.m) * self.m ** j
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(idx % self.m)
            idx //= self.m
        return tuple(out)

    def elements(self) -> np.ndarray:
        """All elements as an (size, n) array, row i = decode(i)."""
        idx = np.arange(self.size)
        return np.stack([(idx // self.m ** j) % self.m for j in range(self.n)],
                        axis=1).astype(np.int64)


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
        v = np.zeros(group.size, dtype=complex)
        for element, value in entries.items():
            v[group.encode(element)] = value
        return cls(group, v)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def support(self) -> np.ndarray:
        return np.flatnonzero(np.abs(self.values) > SUPPORT_EPS)


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
        mask = np.zeros(group.size, dtype=bool)
        for element in elements:
            mask[group.encode(element)] = True
        return cls(group, mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def indicator(self) -> GroupFunction:
        return GroupFunction(self.group, self.mask.astype(complex))


# ---------------------------------------------------------------------------
# transform and convolution

def dft(f: GroupFunction) -> GroupFunction:
    """f_hat(x') = |G|^{-1/2} sum_x f(x) zeta^{x . x'}."""
    g = f.group
    arr = f.values.reshape([g.m] * g.n)
    # numpy's inverse FFT uses the +2*pi*i/m kernel and divides by the size,
    # so one ifftn plus a sqrt(|G|) rescale gives exactly this normalization.
    out = np.fft.ifftn(arr) * np.sqrt(g.size)
    return GroupFunction(g, out.reshape(-1))


def idft(f: GroupFunction) -> GroupFunction:
    g = f.group
    arr = f.values.reshape([g.m] * g.n)
    out = np.fft.fftn(arr) / np.sqrt(g.size)
    return GroupFunction(g, out.reshape(-1))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = |G|^{-1/2} sum_y f(x-y) g(y)."""
    if f.group != g.group:
        raise GroupMismatch(f"{f.group} vs {g.group}")
    gr = f.group
    a = np.fft.fftn(f.values.reshape([gr.m] * gr.n))
    b = np.fft.fftn(g.values.reshape([gr.m] * gr.n))
    out = np.fft.ifftn(a * b) / np.sqrt(gr.size)
    return GroupFunction(gr, out.reshape(-1))


# ---------------------------------------------------------------------------
# uniformity and linearity coefficients

def _weights(f: GroupFunction) -> np.ndarray:
    w = np.abs(f.values)
    if not w.any():
        raise ZeroFunction("coefficient undefined for the zero function")
    return w


def uniformity_nu(f: GroupFunction) -> float:
    """1 / (|Supp p| sum p^2) for p = |f| / ||f||_1; equals 1 iff |f| is
    constant on its support."""
    w = _weights(f)
    p = w / w.sum()
    supp = int(np.count_nonzero(p))
    return 1.0 / (supp * float((p ** 2).sum()))


def _sum_distribution_eta(p: np.ndarray, group: Group):
    """eta from the distribution of x+y: P[x+y=z+w] = sum_s P[x+y=s]^2."""
    m, n = group.m, group.n
    arr = p.reshape([m] * n)
    conv = np.fft.ifftn(np.fft.fftn(arr) ** 2).real.reshape(-1)
    num = float((conv ** 2).sum())
    den = float((p ** 2).sum())
    return num / den


def linearity_eta(f: GroupFunction) -> float:
    """P[x+y=z+w | p] / P[x=y | p] for p = |f| / ||f||_1."""
    w = _weights(f)
    return _sum_distribution_eta(w / w.sum(), f.group)


def eta_set(s: SubsetOfGroup) -> Fraction:
    """Exact linearity coefficient of an indicator: with t = |S|,
    eta = t * sum_g N(g)^2 / t^4 / (1/t) where N counts pairs summing to g."""
    els = np.flatnonzero(s.mask)
    if els.size == 0:
        raise ZeroFunction("eta of the empty set")
    g = s.group
    coords = g.elements()[els]
    t = len(els)
    counts: dict[tuple[int, ...], int] = {}
    for i in range(t):
        sums = (coords[i][None, :] + coords) % g.m
        for row in sums:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
    pair_collisions = sum(c * c for c in counts.values())
    # P[x+y=z+w] = pair_collisions / t^4 ; P[x=y] = 1/t
    return Fraction(pair_collisions, t ** 4) / Fraction(1, t)


# ---------------------------------------------------------------------------
# uncertainty relations

def support_size(f: GroupFunction) -> int:
    return int(len(f.support()))


def uncertainty_product(h: GroupFunction) -> float:
    """|Supp h| |Supp h_hat| nu(h) eta(h) / |G|; at least 1 for nonzero h."""
    if not np.abs(h.values).any():
        raise ZeroFunction("uncertainty product of the zero function")
    hh = dft(h)
    return (support_size(h) * support_size(hh)
            * uniformity_nu(h) * linearity_eta(h)) / h.group.size


def donoho_stark_check(h: GroupFunction) -> bool:
    """|Supp h| * |Supp h_hat| >= |G| under the support cutoff."""
    if not np.abs(h.values).any():
        raise ZeroFunction("support product of the zero function")
    return support_size(h) * support_size(dft(h)) >= h.group.size


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
    fh = dft(f)
    lhs = abs(complex(np.vdot(g.values, fh.values)))
    rhs = float((support_size(f) * support_size(g)
                 * uniformity_nu(f) * linearity_eta(f) / f.group.size) ** 0.25)
    return lhs, rhs, lhs <= rhs + BOUND_TOL
