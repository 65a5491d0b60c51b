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
through.  The repeated parity-game search keys each distinct convolution of
two players' sets by one integer, then best-responds for a third player or
scores four pair against pair; the claw-game search enumerates only the
second player's tables and best-responds question by question.  Every flat
index of Z_4^d comes from fourier.Group's encode and decode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _PRODUCT_WORK, _integer_indices, _scan_blocks, require_count
from .fourier import Group, GroupFunction, SubsetOfGroup, dft, eta_set

SEARCH_CEILING = 1 << 32


class SearchSpaceTooLarge(ValueError):
    """Requested enumeration exceeds the enforced ceiling."""


class OddParityInput(ValueError):
    """GHZ-style referees only emit even-parity question strings."""


class NotParityBalanced(ValueError):
    pass


def _input_bits(d: int, indices=None) -> np.ndarray:
    """Row i holds the d little-endian bits of indices[i] (of i when indices
    is None, shape (2^d, d)); every expansion of an index into bits is this."""
    idx = np.arange(1 << d) if indices is None else np.asarray(indices, dtype=np.int64)
    return (idx[:, None] >> np.arange(d)) & 1


def _question_rows(bits) -> np.ndarray:
    """The claw game's questions {0,1}^d x {1} as uint8 rows: each row of
    d bits on the last axis, then 1."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.concatenate([bits, np.ones_like(bits[..., :1])], axis=-1)


def _questions(d: int, indices=None) -> np.ndarray:
    """_question_rows of the little-endian bits of indices[i] (of i when
    indices is None).  Indices must be integers (int64 would read 1.5 as 1)
    in one dimension, and one outside [0, 2^d) raises ValueError naming the
    first, where its low d bits would ask another index's question."""
    if indices is not None:
        indices = _integer_indices(indices, "question indices")
        if indices.ndim != 1:
            raise ValueError(f"question indices must be one-dimensional, "
                             f"got shape {indices.shape}")
        outside = indices[(indices < 0) | (indices >= 1 << d)]
        if outside.size:
            raise ValueError(f"question index {outside[0]} is outside [0, 2^{d})")
    return _question_rows(_input_bits(d, indices))


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

    elements[i] is the member congruent mod 2 to the bits of i; every row is
    checked at once, and a failure names the first bad row.  The search code
    never builds one per table: it works on (count, 2^d, d) stacks from
    _parity_sets, whose rows are congruent by construction.
    """

    d: int
    elements: np.ndarray  # shape (2^d, d), entries in Z_4

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=np.int64) % 4
        if els.shape != (1 << self.d, self.d):
            raise NotParityBalanced(f"need shape {(1 << self.d, self.d)}")
        bad = (els % 2 != _input_bits(self.d)).any(axis=1)
        if bad.any():
            raise NotParityBalanced(f"row {int(bad.argmax())} is not "
                                    "congruent mod 2 to its residue class")
        object.__setattr__(self, "elements", els)

    @classmethod
    def from_elements(cls, d: int, elements) -> "ParityBalancedSet":
        """The set of 2^d elements in any order; row i of the result is the
        one whose mod-2 class has index i."""
        els = np.asarray(elements, dtype=np.int64) % 4
        if els.shape != (1 << d, d):
            raise NotParityBalanced(f"a parity-balanced set has {1 << d} elements")
        classes = Group(2, d).encode(els)
        if np.unique(classes).size < classes.size:
            raise NotParityBalanced("mod-2 reduction is not a bijection")
        rows = np.empty_like(els)
        rows[classes] = els
        return cls(d, rows)

    def negated(self) -> "ParityBalancedSet":
        return ParityBalancedSet.from_elements(self.d, -self.elements)

    def subset(self) -> SubsetOfGroup:
        return SubsetOfGroup.from_elements(Group(4, self.d), self.elements)

    def eta(self) -> Fraction:
        return eta_set(self.subset())


def _parity_sets(tables) -> np.ndarray:
    """Element tables {x + 2 f(x)} of a (..., 2^d, d) stack of strategy
    tables f, as an int64 stack of the same shape: row i of each set is the
    member congruent mod 2 to the bits of i."""
    tables = np.asarray(tables, dtype=np.int64)
    d = tables.shape[-1]
    if tables.ndim < 2 or tables.shape[-2] != 1 << d:
        raise NotParityBalanced(f"need {1 << d} rows of {d} bits per table")
    return (_input_bits(d) + 2 * tables) % 4


def parity_set_from_strategy(table: np.ndarray) -> ParityBalancedSet:
    """table[i] = response bits to input bits(i); yields {x + 2 f(x)}."""
    els = _parity_sets(table)
    return ParityBalancedSet(els.shape[-1], els)


def strategy_from_parity_set(ps: ParityBalancedSet) -> np.ndarray:
    """Inverse of parity_set_from_strategy: the unique a with s_x = x + 2a."""
    return (((ps.elements - _input_bits(ps.d)) % 4) // 2).astype(np.uint8)


def _tables(d: int, width: int, time_ordered: bool) -> np.ndarray:
    """Every table {0,1}^d -> {0,1}^width as bits, shape (count, 2^d, width),
    rows indexed by the little-endian input.  In the time-ordered family
    output bit i < d reads only input bits 0..i; later bits read them all."""
    nq = 1 << d
    cols = []   # per output bit: (choices, 2^d) values of each allowed function
    for i in range(width):
        inputs = 2 << i if time_ordered and i < d else nq
        cols.append(_input_bits(inputs)[:, np.arange(nq) & (inputs - 1)])
    grids = np.meshgrid(*[np.arange(len(c)) for c in cols], indexing="ij")
    return np.stack([c[g.ravel()] for c, g in zip(cols, grids)],
                    axis=-1).astype(np.uint8)


def max_eta_parity_balanced(d: int, time_ordered: bool) -> Fraction:
    """Maximum linearity coefficient over the enumerated family (every
    parity-balanced set, or the time-ordered ones).

    Every set is scored at once: with v_c its counting vector on Z_4^d,
    N_c(g) = sum_h v_c(h) v_c(g - h) counts its ordered pairs summing to g,
    and eta_c = sum_g N_c(g)^2 / t^3 with t = 2^d, as in eta_set.  The
    counts are exact integers (256 sets x 16 x 16 int64, 0.5 MB, at d = 2).
    """
    require_count("d", d)
    if d > 2:
        raise SearchSpaceTooLarge(f"eta enumeration capped at d <= 2, got {d}")
    vecs = _counting_vectors(_parity_sets(_tables(d, d, time_ordered)))
    pairs = np.einsum("cgh,ch->cg", vecs[:, _differences(d)], vecs)
    return Fraction(int((pairs * pairs).sum(axis=1).max()), (1 << d) ** 3)


# ---------------------------------------------------------------------------
# exact values of the repeated games

def _differences(d: int) -> np.ndarray:
    """sub[i, j] = the index of g_i - g_j, for g_i the element of Z_4^d at
    index i (fourier.Group's index)."""
    g = Group(4, d)
    els = g.decode(np.arange(g.size))
    return g.encode(els[:, None] - els[None, :])


def _counting_vectors(sets: np.ndarray) -> np.ndarray:
    """Indicator over Z_4^d of each parity-balanced element table in a
    (count, 2^d, d) stack; a table's elements are distinct (one per mod-2
    class), so the indicator is its counting vector."""
    g = Group(4, sets.shape[-1])
    vec = np.zeros((len(sets), g.size), dtype=np.int64)
    vec[np.arange(len(sets))[:, None], g.encode(sets)] = 1
    return vec


def ghz_strategy_score(tables: list[np.ndarray]) -> Fraction:
    """Exact expected winning probability of the given per-player strategies
    at the d-fold repeated k-player parity game, d read from the tables'
    shape (2^d, d).

    Uses the subset picture: win iff the chosen set elements sum to zero in
    Z_4^d, conditioned on their sum lying in 2 Z_4^d (probability 2^{-d}).
    """
    k = len(tables)
    if k < 3:
        raise ValueError("need k >= 3")
    shapes = [np.shape(table) for table in tables]
    if len(set(shapes)) > 1:
        raise NotParityBalanced(f"tables must share one shape, got {shapes}")
    d = shapes[0][-1]
    require_count("d", d)
    sub = _differences(d)
    vecs = _counting_vectors(_parity_sets(np.stack(tables)))
    acc = vecs[0]
    for vec in vecs[1:]:
        # acc(g) = sum_h acc(h) v(g - h): tuples so far, then this player
        acc = vec[sub] @ acc
    zero_tuples = int(acc[0])
    return Fraction((1 << d) * zero_tuples, (1 << d) ** k)


def reduce_ghz4_to_ghz3(tables4: list[np.ndarray], t_bits) -> list[np.ndarray]:
    """Fold the last two players of a 4-player strategy into one 3-player
    strategy seeded by the bit string t.

    The third player answers F_t(z) = U(t) ^ V(t ^ z) ^ (~z & t); averaging
    the 3-player score over uniform t reproduces the 4-player score exactly.
    Public though no search calls it: it states the soundness step (four
    players do no better than three) that acceptance criterion 03 checks.
    """
    S, T, U, V = (np.asarray(t_) for t_ in tables4)
    d = S.shape[1]
    t = np.asarray(t_bits, dtype=np.uint8)
    t_idx = Group(2, d).encode(t)
    z = np.arange(1 << d)
    F = U[t_idx] ^ V[t_idx ^ z] ^ ((1 - _input_bits(d)) & t)
    return [S.copy(), T.copy(), F.astype(np.uint8)]


def _best_response_parallel(t_slice: np.ndarray, d: int) -> np.ndarray:
    """max over parity-balanced responses of the zero-sum tuple count, for
    t_slice[..., h] the count of tuples so far summing to h: a response
    element e completes those summing to -e.

    The response picks one lift per mod-2 class independently, so the max
    decomposes class by class.
    """
    # order the elements e = r + 2a by (class r, lift a)
    bits = _input_bits(d)
    neg = Group(4, d).encode(-(bits[:, None] + 2 * bits[None, :]))
    return t_slice[..., neg].max(axis=-1).sum(axis=-1)


def _best_response_sequential(t_slice: np.ndarray, d: int) -> np.ndarray:
    """max over time-ordered parity-balanced responses, via the prefix rule:
    the lift bit for coordinate i may depend only on class bits 0..i."""
    # index array with axis order (r_0, c_0, r_1, c_1, ..., r_{d-1}, c_{d-1});
    # reducing innermost-first alternates max over lifts and sum over classes
    shape = (2,) * (2 * d)
    combos = np.indices(shape).reshape(2 * d, -1)
    g = combos[0::2] + 2 * combos[1::2]                  # (d, 4^d) coordinates
    neg = Group(4, d).encode(-g.T)
    out = t_slice[..., neg].reshape(t_slice.shape[:-1] + shape)
    for _ in range(d):
        out = out.max(axis=-1).sum(axis=-1)
    return out


def _upper_products(left: np.ndarray, right: np.ndarray):
    """left[start:stop] @ right[start:].T for row blocks start:stop that tile
    left's rows in order (left and right have the same shape): the upper
    triangle of left @ right.T, on and above the diagonal, at most
    _PRODUCT_WORK multiply-adds a product (one row at least)."""
    n, inner = left.shape
    start = 0
    while start < n:
        stop = start + max(1, _PRODUCT_WORK // (inner * (n - start)))
        yield left[start:stop] @ right[start:].T
        start = stop


def _distinct_pair_convolutions(vecs: np.ndarray, d: int) -> np.ndarray:
    """The distinct vectors v_i * v_j over all pairs i <= j (convolution
    commutes) of the counting vectors vecs on Z_4^d, as int64 rows.

    (v_i * v_j)(g) counts the pairs of S_i x S_j summing to g, at most
    |S_i|, so the entries are the w-bit digits of one key, w the bit length
    of max |S_i|: key = sum_g (v_i * v_j)(g) 2^(w g) = v_i M v_j for the
    table M[h, u] = 2^(w idx(g_h + g_u)).  The keys are the upper triangle
    of vecs M vecs^T, read back into rows by shift and mask.  Every partial
    sum is an integer below 2^(w 4^d), so the float64 products are exact
    while w 4^d < 53, checked before any product.
    """
    size = vecs.shape[1]
    w = int(vecs.sum(axis=1).max()).bit_length()
    if w * size >= 53:
        raise ValueError(f"pair keys not exact in float64: {w} bits x "
                         f"{size} entries = {w * size} >= 53")
    sub = _differences(d)
    # idx(g_h + g_u) = sub[h, idx(-g_u)], and row 0 of sub negates
    table = 2.0 ** (w * sub[:, sub[0]])
    weighted = vecs.astype(np.float64)
    blocks = _upper_products(weighted, weighted @ table)
    # a block's row r starts at the diagonal's column r; a boolean mask
    # reads its upper triangle in half the time of np.triu_indices
    keys = np.concatenate([b[np.arange(b.shape[1]) >= np.arange(len(b))[:, None]]
                           for b in blocks]).astype(np.int64)
    # sorted, then neighbours compared: faster here than np.unique's hashing
    keys.sort()
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return (keys[:, None] >> (w * np.arange(size))) & ((1 << w) - 1)


def _zero_sum_operands(pairs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """float32 copies of pairs and of pairs negated over Z_4^d (row j holds
    g |-> pairs[j](-g)): left[i] @ right[j] = sum_g pairs[i](g) pairs[j](-g)
    counts the zero-sum 4-tuples of two pair convolutions' sets."""
    g = Group(4, d)
    neg = g.encode(-g.decode(np.arange(g.size)))
    return pairs.astype(np.float32), pairs[:, neg].astype(np.float32)


def ghz_value_bruteforce(k: int, mode: str = "single", d: int | None = None) -> Fraction:
    """Exact optimum winning probability over deterministic strategies.

    mode 'single' is the one-round k-player game.  Its search scores every
    tuple of one-bit strategies on every even-parity question through
    ghz_score, in blocks of at most core._SCAN_ENTRIES answer entries (the
    budget every exact search's scan shares): tuple c
    answers f_j(x_j) = bit 2j + x_j of c.  'parallel' and 'sequential' are
    the d-fold variants, the latter restricted to time-ordered strategies.
    The repeated search sees two players only through the convolution of
    their counting vectors, so it runs over the distinct pair convolutions
    (1,864 of the 65,536 ordered pairs in parallel mode at d = 2, 160 of
    4,096 in sequential mode).  For k = 3 the last player's optimal
    (time-ordered, in sequential mode) response is in closed form; k = 4
    scores pair against pair (both pairs are time-ordered in sequential
    mode).  Both the keys and the k = 4 scores are the upper triangle of a
    product, formed in row blocks of at most _PRODUCT_WORK multiply-adds so
    that BLAS runs each on one thread.

    Exactness: a pair entry is at most |S_i| = 2^d, so it fits in
    w = d + 1 bits and a key in w 4^d bits, 48 at d = 2: below 2^53, exact
    in float64 and int64 (_distinct_pair_convolutions checks w 4^d < 53,
    which fails from d = 3 on).  A pair-against-pair entry counts zero-sum
    4-tuples, at most 2^(3d) <= 64: exact in float32.
    """
    if k < 3:
        raise ValueError(f"need k >= 3 players, got {k}")
    if mode == "single":
        # 4^k tables x 2^(k-1) questions x k bits, by exponent (k is unbounded)
        if 3 * k - 1 + math.log2(k) > SEARCH_CEILING.bit_length() - 1:
            raise SearchSpaceTooLarge(f"single-mode space 2^{3 * k - 1} x {k} "
                                      "answer bits exceeds the 2^32 ceiling")
        bits = _input_bits(k)
        xs = bits[bits.sum(axis=1) % 2 == 0]
        shifts = 2 * np.arange(k) + xs          # (questions, k)
        best = 0
        for block in _scan_blocks(1 << (2 * k), shifts.size):
            tuples = np.arange(block.start, block.stop)
            answers = (tuples[:, None, None] >> shifts) & 1
            wins = (ghz_score(xs, answers) == 1).sum(axis=1)
            best = max(best, int(wins.max()))
        return Fraction(best, len(xs))

    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if d is None:
        raise ValueError("repeated modes need d")
    require_count("d", d)
    if d > 2:
        raise SearchSpaceTooLarge(f"repeated modes capped at d <= 2, got {d}")
    if k > 4:
        raise SearchSpaceTooLarge(f"repeated modes support k in (3, 4), got {k}")
    vecs = _counting_vectors(_parity_sets(_tables(d, d, mode == "sequential")))
    pairs = _distinct_pair_convolutions(vecs, d)
    if k == 3:
        respond = (_best_response_sequential if mode == "sequential"
                   else _best_response_parallel)
        best = respond(pairs, d).max()
    else:
        # counts are symmetric (negate g), so a block meets only the pairs
        # from its own first row on
        left, right = _zero_sum_operands(pairs, d)
        best = max(b.max() for b in _upper_products(left, right))
    return Fraction((1 << d) * int(best), (1 << d) ** k)


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
    require_count("d", d)
    x, y = _question_rows(rng.integers(0, 2, size=(2, d)))
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
    sequential variant restricts the second player to time-ordered tables.

    Only the second player's tables are enumerated.  Against a fixed one,
    the first player answers each question x on its own, so the best reply
    takes, per x, the answer a with the largest (for the most negative
    bias, the smallest) score summed over the questions y.  The score
    tensor is answer-first, score[a, x, y, b]: the sum over y is one gather
    per y along b, and the best reply reduces over the leading axis, with
    no (tables, questions, questions, answers) copy and no short last axis.
    """
    require_count("d", d)
    if d > 2:
        raise SearchSpaceTooLarge(f"claw-game enumeration capped at d <= 2, got {d}")
    nq = 1 << d
    xs = _questions(d)
    outs = _input_bits(d + 1)
    # score[a, x, y, b] over every answer and question index; int8 holds a
    # sum over y (at most 2^d = 4 in modulus) and keeps the gathers small
    score = j_score(xs[None, :, None, None], xs[None, None, :, None],
                    outs[:, None, None, None],
                    outs[None, None, None, :]).astype(np.int8)
    # the second player's tables, each row its answer indices per question
    tables = _tables(d, d + 1, sequential).astype(np.int64) @ (1 << np.arange(d + 1))
    # per[a, x, t]: answer a to x summed over y against table t
    per = sum(np.take(score[:, :, y], tables[:, y], axis=-1) for y in range(nq))
    best = max(per.max(axis=0).sum(axis=0).max(),
               -per.min(axis=0).sum(axis=0).min())
    return Fraction(int(best), nq * nq)


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
    xs = _questions(d)
    scores = j_score(xs[:, None], xs[None, :], s.outputs[:, None],
                     t.outputs[None, :])
    direct = Fraction(int(scores.sum()), (1 << d) ** 2)

    # the images of the referee's u- and v-vectors in Z_4^{d+1}, u's -1 as 3
    group = Group(4, d + 1)
    u_sub = SubsetOfGroup.from_elements(group, xs * (1 - 2 * s.outputs.astype(np.int64)))
    v_sub = SubsetOfGroup.from_elements(group, xs + 2 * t.outputs)
    scale = 2 ** (-d / 2)
    f = GroupFunction(group, v_sub.mask.astype(complex) * scale)
    g = GroupFunction(group, u_sub.mask.astype(complex) * scale)
    inner = complex(np.vdot(g.values, dft(f).values))
    fourier = float(2 * ((1 - 1j) * inner).real)

    dropped = group.decode(np.flatnonzero(v_sub.mask))[:, :-1]
    eta_dropped = eta_set(SubsetOfGroup.from_elements(Group(4, d), dropped))
    return BiasIdentity(direct=direct, fourier=fourier, inner=inner,
                        eta_dropped=eta_dropped)
