"""Nonlocal game engine: multiplayer parity games over Z_4, their repeated
variants, exhaustive strategy search with exact rational values, and the
two-player claw game whose bias has a closed Fourier form.

Conventions: a deterministic single-player strategy for the d-fold repeated
parity game is a function {0,1}^d -> {0,1}^d, stored as a table indexed by
the little-endian integer encoding of the input bits.  Each such strategy is
equivalent to a parity-balanced subset of Z_4^d via s(x) = x + 2 f(x); all
search code works on the subset side where the win condition is linear.
Each game's score rule is stated once and broadcasts over leading axes:
ghz_score for the parity game (the one-round search scores every strategy
tuple through it), and j_score for the claw game, which every claw-game
score in poqlab (search, bias identity, referee, rewinding decoder) goes
through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import Group, GroupFunction, SubsetOfGroup, dft, eta_set

SEARCH_CEILING = 1 << 32

# the one-round search scores its strategy tuples in blocks whose answer
# array holds at most this many entries (8 MiB of int64)
_SINGLE_BLOCK = 1 << 20


class SearchSpaceTooLarge(ValueError):
    """Requested enumeration exceeds the enforced ceiling."""


class OddParityInput(ValueError):
    """GHZ-style referees only emit even-parity question strings."""


class NotParityBalanced(ValueError):
    pass


def bits_of(index: int, width: int) -> np.ndarray:
    return ((index >> np.arange(width)) & 1).astype(np.uint8)


def index_of(bits) -> int:
    return int(sum(int(b) << j for j, b in enumerate(bits)))


# ---------------------------------------------------------------------------
# the k-player parity game

def ghz_score(x, a):
    """+1 iff sum(x) + 2*sum(a) is divisible by 4, else -1.  The last axis
    holds the k >= 3 players' bits; leading axes broadcast to an array of
    scores, and two single strings give an int.

    Every x must have even parity (the referee never asks anything else).
    """
    x, a = (np.asarray(v, dtype=np.int64) for v in (x, a))
    if x.shape[-1] != a.shape[-1] or x.shape[-1] < 3:
        raise ValueError("need k >= 3 and x, a of one length k")
    total = x.sum(axis=-1)
    odd = total % 2 == 1
    if odd.any():
        row = x.reshape(-1, x.shape[-1])[odd.reshape(-1)][0]
        raise OddParityInput(f"x = {tuple(row.tolist())} has odd parity")
    wins = (total + 2 * a.sum(axis=-1)) % 4 == 0
    return np.where(wins, 1, -1) if wins.ndim else 1 - 2 * int(not wins)


def ghz4_closed_form(f1, f2, f3, f4) -> Fraction:
    """Expected winning probability of a one-round 4-player strategy.

    Each argument is a pair (response to 0, response to 1).  The score is
    1/2 + Re(v1 v2 v3 v4)/4 with v_j = ((-1)^{f_j(0)} + i (-1)^{f_j(1)})/sqrt(2);
    the product of the four unnormalized Gaussian integers is tracked exactly.
    """
    re, im = 1, 0
    for f in (f1, f2, f3, f4):
        a, b = (-1) ** int(f[0]), (-1) ** int(f[1])
        re, im = re * a - im * b, re * b + im * a
    # dividing the Gaussian-integer product by sqrt(2)^4 = 4
    return Fraction(1, 2) + Fraction(re, 16)


# ---------------------------------------------------------------------------
# parity-balanced subsets of Z_4^d

@dataclass(frozen=True)
class ParityBalancedSet:
    """2^d elements of Z_4^d, exactly one in each mod-2 residue class.

    elements[i] is the member congruent mod 2 to the bits of i.
    """

    d: int
    elements: np.ndarray  # shape (2^d, d), entries in Z_4

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=np.int64) % 4
        if els.shape != (1 << self.d, self.d):
            raise NotParityBalanced(f"need shape {(1 << self.d, self.d)}")
        for i in range(1 << self.d):
            if not np.array_equal(els[i] % 2, bits_of(i, self.d)):
                raise NotParityBalanced(
                    f"row {i} is not congruent mod 2 to its residue class")
        object.__setattr__(self, "elements", els)

    @classmethod
    def from_elements(cls, d: int, elements) -> "ParityBalancedSet":
        els = np.asarray(elements, dtype=np.int64) % 4
        if els.shape != (1 << d, d):
            raise NotParityBalanced(f"a parity-balanced set has {1 << d} elements")
        rows = np.zeros((1 << d, d), dtype=np.int64)
        seen = set()
        for row in els:
            i = index_of(row % 2)
            if i in seen:
                raise NotParityBalanced("mod-2 reduction is not a bijection")
            seen.add(i)
            rows[i] = row
        return cls(d, rows)

    def negated(self) -> "ParityBalancedSet":
        els = (-self.elements) % 4
        order = [index_of(row % 2) for row in els]
        out = np.zeros_like(els)
        out[order] = els
        return ParityBalancedSet(self.d, out)

    def subset(self) -> SubsetOfGroup:
        g = Group(4, self.d)
        return SubsetOfGroup.from_elements(g, [tuple(r) for r in self.elements])

    def eta(self) -> Fraction:
        return eta_set(self.subset())


def parity_set_from_strategy(table: np.ndarray) -> ParityBalancedSet:
    """table[i] = response bits to input bits(i); yields {x + 2 f(x)}."""
    table = np.asarray(table, dtype=np.int64)
    size, d = table.shape
    x = np.stack([bits_of(i, d) for i in range(size)]).astype(np.int64)
    return ParityBalancedSet(d, (x + 2 * table) % 4)


def strategy_from_parity_set(ps: ParityBalancedSet) -> np.ndarray:
    """Inverse of parity_set_from_strategy: the unique a with s_x = x + 2a."""
    x = np.stack([bits_of(i, ps.d) for i in range(1 << ps.d)]).astype(np.int64)
    return (((ps.elements - x) % 4) // 2).astype(np.uint8)


def _tables(d: int, width: int, time_ordered: bool) -> np.ndarray:
    """Every table {0,1}^d -> {0,1}^width as bits, shape (count, 2^d, width),
    rows indexed by the little-endian input.  In the time-ordered family
    output bit i < d reads only input bits 0..i; later bits read them all."""
    nq = 1 << d
    cols = []   # per output bit: (choices, 2^d) values of each allowed function
    for i in range(width):
        inputs = 2 << i if time_ordered and i < d else nq
        funcs = (np.arange(1 << inputs)[:, None] >> np.arange(inputs)) & 1
        cols.append(funcs[:, np.arange(nq) & (inputs - 1)])
    grids = np.meshgrid(*[np.arange(len(c)) for c in cols], indexing="ij")
    return np.stack([c[g.ravel()] for c, g in zip(cols, grids)],
                    axis=-1).astype(np.uint8)


def max_eta_parity_balanced(d: int, time_ordered: bool) -> Fraction:
    """Maximum linearity coefficient over the enumerated family."""
    if d > 2:
        raise SearchSpaceTooLarge(f"eta enumeration capped at d <= 2, got {d}")
    tables = _tables(d, d, time_ordered)
    return max(parity_set_from_strategy(t).eta() for t in tables)


# ---------------------------------------------------------------------------
# exact values of the repeated games

def _group_index_tools(d: int):
    """Index helpers on Z_4^d, flat index = sum g_j 4^j."""
    size = 4 ** d
    coords = np.stack([(np.arange(size) // 4 ** j) % 4 for j in range(d)], axis=1)
    flat = (coords[:, None, :] - coords[None, :, :]) % 4
    sub = (flat * (4 ** np.arange(d))[None, None, :]).sum(axis=2)
    neg = sub[0]  # index of -g
    return size, coords, sub, neg


def _counting_vectors(sets: np.ndarray, d: int) -> np.ndarray:
    """One-hot counting vector over Z_4^d per parity-balanced element table."""
    size = 4 ** d
    n_sets = sets.shape[0]
    idx = (sets * (4 ** np.arange(d))[None, None, :]).sum(axis=2)
    vec = np.zeros((n_sets, size), dtype=np.int64)
    rows = np.repeat(np.arange(n_sets), sets.shape[1])
    np.add.at(vec, (rows, idx.reshape(-1)), 1)
    return vec


def ghz_strategy_score(tables: list[np.ndarray], d: int) -> Fraction:
    """Exact expected winning probability of the given per-player strategies
    at the d-fold repeated k-player parity game.

    Uses the subset picture: win iff the chosen set elements sum to zero in
    Z_4^d, conditioned on their sum lying in 2 Z_4^d (probability 2^{-d}).
    """
    k = len(tables)
    size, _, sub, _ = _group_index_tools(d)
    sets = np.stack([parity_set_from_strategy(t).elements for t in tables])
    vecs = _counting_vectors(sets, d)
    acc = vecs[0]
    for j in range(1, k):
        acc = np.array([(acc * vecs[j][sub[g]]).sum() for g in range(size)])
    zero_tuples = int(acc[0])
    return Fraction((1 << d) * zero_tuples, (1 << d) ** k)


def reduce_ghz4_to_ghz3(tables4: list[np.ndarray], t_bits) -> list[np.ndarray]:
    """Fold the last two players of a 4-player strategy into one 3-player
    strategy seeded by the bit string t.

    The third player answers F_t(z) = U(t) ^ V(t ^ z) ^ (~z & t); averaging
    the 3-player score over uniform t reproduces the 4-player score exactly.
    """
    S, T, U, V = (np.asarray(t_) for t_ in tables4)
    d = S.shape[1]
    t = np.asarray(t_bits, dtype=np.uint8)
    t_idx = index_of(t)
    F = np.zeros((1 << d, d), dtype=np.uint8)
    for z_idx in range(1 << d):
        z = bits_of(z_idx, d)
        tz_idx = t_idx ^ z_idx
        F[z_idx] = U[t_idx] ^ V[tz_idx] ^ ((1 - z) & t)
    return [S.copy(), T.copy(), F]


def _best_response_parallel(t_slice: np.ndarray, d: int, neg) -> np.ndarray:
    """max over parity-balanced responses of the zero-sum tuple count.

    The response picks one lift per mod-2 class independently, so the max
    decomposes class by class.
    """
    # order group elements as (class r, lift a): element = r + 2a coordinatewise
    lifts = 1 << d
    bits = (np.arange(lifts)[:, None] >> np.arange(d)) & 1
    order = ((bits[:, None, :] + 2 * bits[None, :, :]) * 4 ** np.arange(d)).sum(-1)
    gathered = t_slice[..., neg[order.ravel()]]
    shaped = gathered.reshape(t_slice.shape[:-1] + (1 << d, lifts))
    return shaped.max(axis=-1).sum(axis=-1)


def _best_response_sequential(t_slice: np.ndarray, d: int, neg) -> np.ndarray:
    """max over time-ordered parity-balanced responses, via the prefix rule:
    the lift bit for coordinate i may depend only on class bits 0..i."""
    # index array with axis order (r_0, c_0, r_1, c_1, ..., r_{d-1}, c_{d-1});
    # reducing innermost-first alternates max over lifts and sum over classes
    shape = (2,) * (2 * d)
    combos = np.indices(shape).reshape(2 * d, -1)
    g = combos[0::2] + 2 * combos[1::2]                  # (d, 4^d) coordinates
    idx = neg[(g * 4 ** np.arange(d)[:, None]).sum(axis=0)]
    gathered = t_slice[..., idx].reshape(t_slice.shape[:-1] + shape)
    # innermost coordinate first: max over its lift, sum over its class
    out = gathered
    for _ in range(d):
        out = out.max(axis=-1).sum(axis=-1)
    return out


def _distinct_pair_convolutions(vecs: np.ndarray, circulants: np.ndarray) -> np.ndarray:
    """The distinct vectors v_i * v_j over all ordered pairs (i, j), as int16
    rows in byte order.

    circulants[h, j * size + g] = v_j(g - h), as float32.  Rows are
    deduplicated as raw bytes, so two pairs share a row exactly when their
    convolutions agree.
    """
    n, size = vecs.shape
    lhs = vecs.astype(np.float32)
    # blocks of 8 first players: the whole float32 product (4 MB at d = 2)
    # left more heap resident and raised the peak RSS of later work
    pairs = np.empty((n, n * size), dtype=np.int16)
    for start in range(0, n, 8):
        pairs[start:start + 8] = np.rint(lhs[start:start + 8] @ circulants)
    rows = pairs.reshape(-1, size)
    keys = np.unique(rows.view(np.dtype((np.void, rows.itemsize * size))).ravel())
    return keys.view(np.int16).reshape(-1, size)


def ghz_value_bruteforce(k: int, mode: str = "single", d: int | None = None) -> Fraction:
    """Exact optimum winning probability over deterministic strategies.

    mode 'single' is the one-round k-player game.  Its search scores every
    tuple of one-bit strategies on every even-parity question through
    ghz_score, in blocks of at most _SINGLE_BLOCK answer entries: tuple c
    answers f_j(x_j) = bit 2j + x_j of c.  'parallel' and 'sequential' are
    the d-fold variants, the latter restricted to time-ordered strategies.
    The repeated search sees the first two players only through the
    convolution of their counting vectors, so it runs over the distinct pair
    convolutions (1,864 of the 65,536 ordered pairs in parallel mode at d = 2,
    160 of 4,096 in sequential mode), enumerates the third player for k = 4,
    and computes the last player's optimal (time-ordered, in sequential mode)
    response in closed form.

    Exactness: a pair entry counts pairs summing to g, at most 2^d * 2^d = 16
    at d <= 2, and a triple entry at most 2^(3d) = 64.  So the float32 pair
    and triple products sum small integers exactly, and every count fits in
    int16.
    """
    if mode == "single":
        space = (4 ** k) * (1 << (k - 1))
        if space > SEARCH_CEILING:
            raise SearchSpaceTooLarge(f"single-mode space {space} > 2^32")
        xs = np.array([x for x in itertools.product((0, 1), repeat=k)
                       if sum(x) % 2 == 0])
        shifts = 2 * np.arange(k) + xs          # (questions, k)
        step = max(_SINGLE_BLOCK // shifts.size, 1)
        best = 0
        for start in range(0, 1 << (2 * k), step):
            tuples = np.arange(start, min(start + step, 1 << (2 * k)))
            answers = (tuples[:, None, None] >> shifts) & 1
            wins = (ghz_score(xs, answers) == 1).sum(axis=1)
            best = max(best, int(wins.max()))
        return Fraction(best, len(xs))

    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if d is None:
        raise ValueError("repeated modes need d")
    n_sets = (1 << d) ** (1 << d)
    if n_sets ** k > SEARCH_CEILING or d > 2:
        raise SearchSpaceTooLarge(
            f"{n_sets ** k} strategy tuples exceed the 2^32 ceiling")

    if k not in (3, 4):
        raise SearchSpaceTooLarge(f"repeated modes support k in (3, 4), got {k}")
    tables = _tables(d, d, mode == "sequential")
    size, _, sub, neg = _group_index_tools(d)
    vecs = _counting_vectors(
        np.stack([parity_set_from_strategy(t).elements for t in tables]), d)
    n = vecs.shape[0]
    # circulants[h, j * size + g] = v_j(g - h): column block j is the
    # circulant of strategy j, shared by the pair and the triple products
    circulants = vecs[:, sub].transpose(2, 0, 1).reshape(size, n * size)
    circulants = circulants.astype(np.float32)

    def reduce_(t_slice):
        if mode == "sequential":
            return _best_response_sequential(t_slice, d, neg)
        return _best_response_parallel(t_slice, d, neg)

    pairs = _distinct_pair_convolutions(vecs, circulants)
    if k == 3:
        best = int(reduce_(pairs).max())
    else:
        # the third player's product runs in fixed row blocks of the distinct
        # pairs, so its peak memory does not grow with their number
        block = 128
        best = 0
        for start in range(0, len(pairs), block):
            rows = pairs[start:start + block].astype(np.float32)
            t_block = np.rint(rows @ circulants).astype(np.int16).reshape(-1, n, size)
            best = max(best, int(reduce_(t_block).max()))
    return Fraction((1 << d) * best, (1 << d) ** k)


# ---------------------------------------------------------------------------
# the two-player claw game

@dataclass(frozen=True)
class DeterministicStrategy:
    """One player's lookup table for the claw game: responses to every
    question x in {0,1}^d x {1}, indexed by the d free bits."""

    d: int
    outputs: np.ndarray  # shape (2^d, d+1) bits

    def __post_init__(self):
        outs = np.asarray(self.outputs, dtype=np.uint8)
        if outs.shape != (1 << self.d, self.d + 1):
            raise ValueError(f"need shape {(1 << self.d, self.d + 1)}")
        object.__setattr__(self, "outputs", outs)


def j_sample_inputs(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform question pair on {0,1}^d x {1}."""
    if d < 1:
        raise ValueError("need d >= 1")
    x = np.append(rng.integers(0, 2, size=d), 1).astype(np.uint8)
    y = np.append(rng.integers(0, 2, size=d), 1).astype(np.uint8)
    return x, y


def j_score(x, y, a, b):
    """+1 iff u . v = sum x_i (-1)^{a_i} (y_i + 2 b_i) is 0 or 1 mod 4, else -1.
    The last axis holds the d+1 bits; leading axes broadcast to an array of
    scores, and four single strings give an int."""
    x, y, a, b = (np.asarray(v, dtype=np.int64) for v in (x, y, a, b))
    if not (x.shape[-1] == y.shape[-1] == a.shape[-1] == b.shape[-1]):
        raise ValueError("x, y, a, b must share one length")
    dots = (x * (1 - 2 * a) * (y + 2 * b)).sum(axis=-1) % 4
    return np.where(dots <= 1, 1, -1) if dots.ndim else 1 - 2 * int(dots > 1)


def j_bias_bruteforce(d: int, sequential: bool = False) -> Fraction:
    """Exact max |expected score| over deterministic strategy pairs; the
    sequential variant restricts the second player to time-ordered tables."""
    if d > 2:
        raise SearchSpaceTooLarge(f"claw-game enumeration capped at d <= 2, got {d}")
    nq, na = 1 << d, 1 << (d + 1)
    xs = np.stack([np.append(bits_of(i, d), 1) for i in range(nq)])
    outs = np.stack([bits_of(i, d + 1) for i in range(na)])
    # score[x_idx, y_idx, a_idx, b_idx] over every question and answer index
    score = j_score(xs[:, None, None, None], xs[None, :, None, None],
                    outs[None, None, :, None], outs[None, None, None, :])
    weights = 1 << np.arange(d + 1)   # answer tables as answer indices
    alice = _tables(d, d + 1, False).astype(np.int64) @ weights
    bob = _tables(d, d + 1, sequential).astype(np.int64) @ weights
    # u_all[i, y, b]: Alice's table i summed over x against answer b to y
    u_all = score[np.arange(nq), :, alice].sum(axis=1)
    one_hot = np.zeros((nq * na, bob.shape[0]), dtype=np.float32)
    one_hot[np.arange(nq) * na + bob, np.arange(bob.shape[0])[:, None]] = 1.0
    sums = u_all.reshape(alice.shape[0], -1).astype(np.float32) @ one_hot
    best = int(np.rint(max(sums.max(), -sums.min())))   # no |sums| copy
    return Fraction(best, nq * nq)


def _strategy_image_sets(s: DeterministicStrategy, t: DeterministicStrategy):
    """(U, V): images of the referee's u- and v-vectors inside Z_4^{d+1},
    with u entries -1,0,1 stored as 3,0,1."""
    d = s.d
    g = Group(4, d + 1)
    u_set, v_set = [], []
    for idx in range(1 << d):
        x = np.append(bits_of(idx, d), 1).astype(np.int64)
        a = s.outputs[idx].astype(np.int64)
        b = t.outputs[idx].astype(np.int64)
        u_set.append(tuple((x * (1 - 2 * a)) % 4))
        v_set.append(tuple((x + 2 * b) % 4))
    return (SubsetOfGroup.from_elements(g, u_set),
            SubsetOfGroup.from_elements(g, v_set))


@dataclass(frozen=True)
class BiasIdentity:
    direct: Fraction
    fourier: float
    inner: complex
    eta_dropped: Fraction

    @property
    def identity_holds(self) -> bool:
        return abs(float(self.direct) - self.fourier) <= 1e-9

    @property
    def chain_holds(self) -> bool:
        mid = 2 * np.sqrt(2) * abs(self.inner)
        return (abs(float(self.direct)) <= mid + 1e-9
                and mid <= 2 * float(self.eta_dropped) ** 0.25 + 1e-9)


def j_bias_fourier_identity(s: DeterministicStrategy,
                            t: DeterministicStrategy) -> BiasIdentity:
    """Expected score two ways: direct enumeration, and
    2 Re[(1-i) <f_hat, g>] for the scaled indicators of the response images.

    Also carries the quantities for the chain
    |score| <= 2 sqrt(2) |<f_hat, g>| <= 2 eta(V')^{1/4}
    where V' drops the final coordinate of the v-image.
    """
    if s.d != t.d:
        raise ValueError("strategies must share d")
    d = s.d
    if d > 3:
        raise SearchSpaceTooLarge("identity check capped at d <= 3")
    xs = np.stack([np.append(bits_of(i, d), 1) for i in range(1 << d)])
    scores = j_score(xs[:, None], xs[None, :], s.outputs[:, None],
                     t.outputs[None, :])
    direct = Fraction(int(scores.sum()), (1 << d) ** 2)

    u_sub, v_sub = _strategy_image_sets(s, t)
    scale = 2 ** (-d / 2)
    f = GroupFunction(u_sub.group, v_sub.mask.astype(complex) * scale)
    g = GroupFunction(u_sub.group, u_sub.mask.astype(complex) * scale)
    inner = complex(np.vdot(g.values, dft(f).values))
    fourier = float(2 * ((1 - 1j) * inner).real)

    group_d = Group(4, d)
    dropped = {el[:-1] for el in
               (v_sub.group.decode(i) for i in np.flatnonzero(v_sub.mask))}
    eta_dropped = eta_set(SubsetOfGroup.from_elements(group_d, dropped))
    return BiasIdentity(direct=direct, fourier=fourier, inner=inner,
                        eta_dropped=eta_dropped)
