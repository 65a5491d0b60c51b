"""Exhaustive game values: the four-player parity game, its repeated
variants, parity-balanced sets, and the claw game's transform-side bias.

Run: python demos/parity_games_and_bias.py
"""

import numpy as np

from poqlab import (DeterministicStrategy, ghz4_closed_form,
                    ghz_value_bruteforce, j_bias_bruteforce,
                    j_bias_fourier_identity, max_eta_parity_balanced,
                    parity_set_from_strategy)
from poqlab.games import ghz_strategy_score, strategy_from_parity_set

print("=== one-round values ===")
print("4-player optimum:", ghz_value_bruteforce(4, "single"))
print("3-player optimum:", ghz_value_bruteforce(3, "single"))
print("closed form at the winning tuple:",
      ghz4_closed_form((0, 0), (0, 0), (0, 1), (0, 1)))

print("\n=== repeated play ===")
for d in (1, 2):
    seq = ghz_value_bruteforce(4, "sequential", d)
    print(f"sequential optimum, {d} rounds: {seq}  (= (3/4)^{d})")
print("parallel optimum, 2 rounds, 4 players:",
      ghz_value_bruteforce(4, "parallel", 2), "(no gain over sequential)")
print("parallel optimum, 2 rounds, 3 players:",
      ghz_value_bruteforce(3, "parallel", 2), "(beats (3/4)^2 = 9/16)")

print("\n=== parity-balanced sets as strategies ===")
rng = np.random.default_rng(3)
table = rng.integers(0, 2, size=(4, 2)).astype(np.uint8)
ps = parity_set_from_strategy(table)
print("a random strategy's set in Z_4^2:", [tuple(r) for r in ps.elements])
neg = ps.negated()
mirrored = ghz_strategy_score(
    [strategy_from_parity_set(s) for s in (ps, ps, neg, neg)])
print("eta of the set:", ps.eta(), "== mirrored-team score:", mirrored)

print("\nceilings over all parity-balanced sets:")
for d in (1, 2):
    print(f"  d={d}: time-ordered max eta = {max_eta_parity_balanced(d, True)},"
          f" unrestricted max eta = {max_eta_parity_balanced(d, False)}")

print("\n=== the claw game's bias, two ways ===")
print("exact optimum |bias| at d=1:", j_bias_bruteforce(1))
print("exact optimum |bias| at d=2, second player sequential:",
      j_bias_bruteforce(2, sequential=True),
      f"(bound 2*(3/4)^(1/2) = {2 * 0.75 ** 0.5:.4f})")

s = DeterministicStrategy(2, rng.integers(0, 2, size=(4, 3)).astype(np.uint8))
t = DeterministicStrategy(2, rng.integers(0, 2, size=(4, 3)).astype(np.uint8))
res = j_bias_fourier_identity(s, t)
print(f"random strategy pair: direct score {float(res.direct):+.6f}, "
      f"transform side {res.fourier:+.6f}")
print(f"chain: |score| <= 2*sqrt2*|<f^,g>| = "
      f"{2 * np.sqrt(2) * abs(res.inner):.6f} <= 2*eta(V')^(1/4) = "
      f"{2 * float(res.eta_dropped) ** 0.25:.6f}")
