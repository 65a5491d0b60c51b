"""Output checks for the benchmark, computed apart from poqlab.

Nothing here calls poqlab: scores are recomputed from the transcript fields,
exact game values come from this file's own best-response enumerations over
strategy tables, and the transform is compared with numpy's FFT.  Every check
raises CheckFailed with a message that names what disagreed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

DFT_TOL = 1e-9


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# game transcripts

def claw_scores(x, y, a, b) -> np.ndarray:
    """+1 where u.v = sum x_i (-1)^a_i (y_i + 2 b_i) is 0 or 1 mod 4, else -1;
    one row per trial."""
    x, y, a, b = (np.asarray(v, dtype=np.int64) for v in (x, y, a, b))
    dot = (x * (1 - 2 * a) * (y + 2 * b)).sum(axis=-1) % 4
    return np.where(dot <= 1, 1, -1)


def check_transcripts(result, trials: int, d: int) -> dict[str, np.ndarray]:
    """Every transcript is well formed and its score is u.v mod 4 of its own
    x, y, a, b; the aggregate statistics agree with the transcripts.

    Returns the per-trial scores and event flags for pooled checks.
    """
    ts = result.transcripts
    require(len(ts) == trials, f"{len(ts)} transcripts for {trials} trials")
    fields = {}
    for key in ("x", "y", "a", "b"):
        arr = np.array([getattr(t, key) for t in ts], dtype=np.int64)
        require(arr.shape == (trials, d + 1),
                f"{key} has shape {arr.shape}, want {(trials, d + 1)}")
        require(bool(np.isin(arr, (0, 1)).all()), f"{key} holds a non-bit")
        fields[key] = arr
    require(bool((fields["x"][:, -1] == 1).all() and (fields["y"][:, -1] == 1).all()),
            "a question does not end in 1")
    scores = np.array([t.score for t in ts], dtype=np.int64)
    mine = claw_scores(fields["x"], fields["y"], fields["a"], fields["b"])
    bad = np.flatnonzero(scores != mine)
    require(bad.size == 0, f"trial {bad[:1].tolist()}: score "
            f"{scores[bad[:1]].tolist()} but u.v mod 4 gives {mine[bad[:1]].tolist()}")
    e = np.array([t.e_flag for t in ts], dtype=bool)
    f = np.array([t.f_flag for t in ts], dtype=bool)
    require(result.stats.trials == trials and
            math.isclose(result.stats.mean, float(scores.mean()), abs_tol=1e-12),
            f"summary mean {result.stats.mean} != transcript mean {scores.mean()}")
    require(math.isclose(result.e_rate, float(e.mean()), abs_tol=1e-12) and
            math.isclose(result.f_rate, float(f.mean()), abs_tol=1e-12),
            "summary event rates disagree with the transcripts")
    both = e & f
    want = float(scores[both].mean()) if both.any() else None
    require((want is None and result.conditional_mean is None) or
            (want is not None and result.conditional_mean is not None and
             math.isclose(result.conditional_mean, want, abs_tol=1e-12)),
            f"conditional mean {result.conditional_mean} != {want}")
    return {"scores": scores, "e": e, "f": f}


def check_honest_statistics(scores, e, f, event_bounds):
    """Pooled over a run: the mean score on trials where both events held is
    within 4 stderr of 1/sqrt(2), and each event rate is at least its
    analytic lower bound minus 4 stderr."""
    scores, e, f = np.asarray(scores), np.asarray(e, bool), np.asarray(f, bool)
    cond = scores[e & f].astype(float)
    require(cond.size > 1, "fewer than two trials with both events")
    stderr = float(cond.std(ddof=1) / np.sqrt(cond.size))
    target = 1 / math.sqrt(2)
    require(abs(cond.mean() - target) <= 4 * stderr,
            f"honest conditional mean {cond.mean():.4f} is more than 4 stderr "
            f"({stderr:.4f}) from 1/sqrt(2)")
    for label, flags, bound in (("E", e, event_bounds[0]), ("F", f, event_bounds[1])):
        n = flags.size
        slack = 4 * math.sqrt(max(bound * (1 - bound), 0.0) / n)
        require(flags.mean() >= bound - slack,
                f"{label} rate {flags.mean():.4f} below bound {bound:.4f} - {slack:.4f}")


def check_leak_game(scores):
    bad = np.flatnonzero(np.asarray(scores) != 1)
    require(bad.size == 0, f"key-leak prover lost Rseq trial {bad[:1].tolist()}")


def check_leak_campaign(report, reps: int, arms):
    """arms holds, per repetition, whether the prover was handed the real
    encryption.  On the real arm the key-leak prover answers every question
    perfectly, so r = +1 and the guess is right: E[r | real] = 1 whenever
    the real arm ran at all (the uniform arm alone runs in 2^-reps of the
    campaigns, and then E[r | real] is not defined)."""
    real = int(np.count_nonzero(arms))
    require(report.reps == reps and len(arms) == reps,
            f"campaign ran {report.reps} of {reps} reps, {len(arms)} arms drawn")
    require(real == 0 or report.mean_r_real == 1.0,
            f"E[r | real] = {report.mean_r_real} over {real} real reps, "
            f"the key-leak prover must give 1")
    require(-1.0 <= report.mean_r_uniform <= 1.0 and
            real / reps <= report.guess_accuracy <= 1.0,
            f"guess accuracy {report.guess_accuracy} or E[r | uniform] "
            f"{report.mean_r_uniform} out of range with {real} of {reps} reps real")


def check_malformed_scores(scores):
    bad = np.flatnonzero(np.asarray(scores) != -1)
    require(bad.size == 0,
            f"malformed commitment scored {np.asarray(scores)[bad[:1]].tolist()}, want -1")


# ---------------------------------------------------------------------------
# exact values by best-response enumeration

def _bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(width))


def _tables(d: int, time_ordered: bool) -> np.ndarray:
    """Maps {0,1}^d -> {0,1}^d as answer-index rows (count, 2^d); in the
    time-ordered family answer bit i reads only input bits 0..i."""
    rows = []
    for row in itertools.product(range(1 << d), repeat=1 << d):
        if time_ordered and any(
                (row[x] >> i) & 1 != (row[x & ((2 << i) - 1)] >> i) & 1
                for x in range(1 << d) for i in range(d)):
            continue
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _best_response(gain: np.ndarray, d_in: int, free_last: bool,
                   time_ordered: bool, reduce=np.max) -> np.ndarray:
    """Optimal total over the last player's answers.

    gain[..., q, b] is the payoff summed over everything except this
    player's question q (d_in bits, little-endian) and answer b.  Answers
    have d_in bits, plus one unconstrained bit when free_last.  In the
    time-ordered case answer bit i may depend only on question bits 0..i.
    """
    lead = gain.shape[:-2]
    n_ans = d_in + int(free_last)
    if not time_ordered:
        return reduce(gain, axis=-1).sum(axis=-1)
    # axes (..., q_{d-1}, ..., q_0, b_{n-1}, ..., b_0) in C order
    g = gain.reshape(lead + (2,) * d_in + (2,) * n_ans)
    q_axes = [len(lead) + d_in - 1 - i for i in range(d_in)]
    b_axes = [len(lead) + d_in + n_ans - 1 - i for i in range(n_ans)]
    # interleave to (q_0, b_0, q_1, b_1, ..., extra bit last)
    order = list(range(len(lead)))
    for i in range(d_in):
        order += [q_axes[i], b_axes[i]]
    order += b_axes[d_in:]
    g = g.transpose(order)
    if free_last:
        g = reduce(g, axis=-1)
    for _ in range(d_in):
        g = reduce(g, axis=-1).sum(axis=-1)
    return g


def j_bias_enum(d: int, sequential: bool) -> Fraction:
    """max |E score| of the claw game over deterministic pairs: the first
    player's tables are enumerated, the second player best-responds."""
    nq, na = 1 << d, 1 << (d + 1)
    q_bits = np.array([_bits(i, d) + (1,) for i in range(nq)], dtype=np.int64)
    a_bits = np.array([_bits(i, d + 1) for i in range(na)], dtype=np.int64)
    u = q_bits[:, None, :] * (1 - 2 * a_bits[None, :, :])        # (x, a, bit)
    v = q_bits[:, None, :] + 2 * a_bits[None, :, :]              # (y, b, bit)
    score = np.where(np.einsum("xai,ybi->xyab", u, v) % 4 <= 1, 1, -1)
    first = np.array(list(itertools.product(range(na), repeat=nq)), dtype=np.int64)
    gain = sum(score[x][:, first[:, x], :].transpose(1, 0, 2) for x in range(nq))
    hi = _best_response(gain, d, True, sequential, np.max)
    lo = _best_response(gain, d, True, sequential, np.min)
    return Fraction(int(max(hi.max(), -lo.min())), nq * nq)


def _even_questions(k: int) -> list[tuple[int, ...]]:
    return [x for x in itertools.product((0, 1), repeat=k) if sum(x) % 2 == 0]


def ghz_single_enum(k: int) -> Fraction:
    """One-round k-player parity game: every player maps a bit to a bit."""
    questions = _even_questions(k)
    best = 0
    for strategy in itertools.product(itertools.product((0, 1), repeat=2), repeat=k):
        wins = sum((sum(x) + 2 * sum(strategy[p][x[p]] for p in range(k))) % 4 == 0
                   for x in questions)
        best = max(best, wins)
    return Fraction(best, len(questions))


def ghz3_repeated_enum(d: int, sequential: bool) -> Fraction:
    """d-fold 3-player parity game by direct question enumeration: the first
    two players' tables are enumerated, the third best-responds."""
    tables = _tables(d, sequential)
    per = _even_questions(3)
    combos = list(itertools.product(per, repeat=d))         # questions
    nq = 1 << d
    ans = np.array([_bits(i, d) for i in range(nq)], dtype=np.int64)
    idx = np.array([[sum(c[i][p] << i for i in range(d)) for p in range(3)]
                    for c in combos], dtype=np.int64)       # (combo, player)
    xsum = np.array([[sum(c[i]) for i in range(d)] for c in combos], dtype=np.int64)
    a1 = ans[tables[:, idx[:, 0]]]                          # (t1, combo, d)
    a2 = ans[tables[:, idx[:, 1]]]                          # (t2, combo, d)
    base = xsum[None, None] + 2 * (a1[:, None] + a2[None, :])   # (t1, t2, combo, d)
    win = ((base[..., None, :] + 2 * ans[None, None, None]) % 4 == 0).all(axis=-1)
    # gain[t1, t2, q3, a3]: wins summed over combos that ask player 3 q3
    gain = np.zeros(win.shape[:2] + (nq, nq), dtype=np.int64)
    for c in range(len(combos)):
        gain[:, :, idx[c, 2], :] += win[:, :, c, :]
    best = _best_response(gain, d, False, sequential).max()
    return Fraction(int(best), len(combos))


def max_eta_enum(d: int, time_ordered: bool) -> Fraction:
    """max over parity-balanced sets {x + 2 f(x)} of the linearity
    coefficient P[s1+s2 = s3+s4] / P[s1 = s2], counting quadruples."""
    tables = _tables(d, time_ordered)
    ans = np.array([_bits(i, d) for i in range(1 << d)], dtype=np.int64)
    xs = ans  # element for input i is bits(i) + 2 f(bits(i))
    weights = 4 ** np.arange(d)
    best = Fraction(0)
    for row in tables:
        els = (xs + 2 * ans[row]) % 4
        pair = (((els[:, None, :] + els[None, :, :]) % 4) * weights).sum(-1).ravel()
        hits = int((np.bincount(pair) ** 2).sum())
        t = len(els)
        best = max(best, Fraction(hits, t ** 3))
    return best


def check_exact(label: str, value, want):
    require(value == want, f"{label} = {value}, the benchmark's enumeration gives {want}")


def check_exact_bounds(d: int, seq4, eta_all, par4):
    """Bounds the paper proves where no cheap enumeration exists:
    the 4-player sequential value is (3/4)^d, and
    (3/4)^d <= max eta over parity-balanced sets <= parallel value <= 1."""
    floor = Fraction(3, 4) ** d
    require(seq4 == floor, f"4-player sequential value {seq4} != (3/4)^{d}")
    require(floor <= eta_all <= par4 <= 1,
            f"chain (3/4)^{d} <= {eta_all} <= {par4} <= 1 fails")


# ---------------------------------------------------------------------------
# the transform on Z_m^n

def dft_reference(values: np.ndarray, m: int, n: int) -> np.ndarray:
    """f_hat(x') = |G|^{-1/2} sum_x f(x) exp(2 pi i x.x'/m) through numpy's
    forward FFT: conj(fftn(conj f)) flips the kernel sign.  Flat index
    sum_j x_j m^j is axis j of a Fortran-order reshape."""
    arr = np.asarray(values, dtype=complex).reshape((m,) * n, order="F")
    out = np.conj(np.fft.fftn(np.conj(arr))) / math.sqrt(m ** n)
    return out.reshape(-1, order="F")


def check_dft(values, transformed, m: int, n: int):
    want = dft_reference(values, m, n)
    err = float(np.abs(np.asarray(transformed) - want).max())
    require(err <= DFT_TOL, f"dft on Z_{m}^{n} is {err:.3e} from the FFT reference")
    norms = float(np.linalg.norm(transformed)), float(np.linalg.norm(values))
    require(abs(norms[0] - norms[1]) <= DFT_TOL,
            f"Parseval fails on Z_{m}^{n}: {norms[0]} vs {norms[1]}")


def check_uncertainty(product: float, donoho: bool):
    require(product >= 1 - DFT_TOL, f"uncertainty product {product} < 1")
    require(donoho, "support product below |G|")


def check_bound(f_values, g_values, m: int, n: int, lhs: float, holds: bool):
    want = abs(complex(np.vdot(g_values, dft_reference(f_values, m, n))))
    require(abs(lhs - want) <= DFT_TOL, f"|<f_hat, g>| = {lhs}, reference {want}")
    require(holds, f"uncertainty bound fails: lhs {lhs}")
