"""One narrated round of the encrypted game, then a short campaign.

The referee hides its question bits inside a lattice ciphertext; the honest
prover builds a claw state from the ciphertext, commits to a measurement of
it, and answers the second-round question by measuring the residual qubits.
The referee decodes the commitment once through its trapdoor, and the claw
the prover is left with is read off that assessment.
The answer is drawn by the closed-form claw sampler; the statevector oracle
prints the exact Born-rule probability of that answer next to it.

Run: python demos/honest_prover_walkthrough.py
"""

import numpy as np

from poqlab import Rng, desk_params, run_game_r
from poqlab.games import j_score
from poqlab.protocol import play_round, referee_first_assessment
from poqlab.quantum import (ClawDescription, HonestProver, build_claw_state,
                            honest_first_round, honest_second_round)

params = desk_params()
print("desk parameters:", f"n={params.n} q={params.q} Q={params.Q} "
      f"m={params.m} tau={params.tau} sigma={params.sigma} d={params.d}")
bound_e, bound_f = params.event_bounds()
print(f"analytic event bounds: P(E) >= {bound_e:.4f}, P(F) >= {bound_f:.6f}")

rng = Rng(2024)
prover = HonestProver(params)

print("\n--- one round, narrated ---")
gen = rng.stream("demo-trial")
x = np.append(gen.integers(0, 2, size=params.d), 1).astype(np.uint8)
y = np.append(gen.integers(0, 2, size=params.d), 1).astype(np.uint8)
print("referee's hidden question x:", x, " second-round question y:", y)

# round one, the engine's per-trial step: the referee encrypts
# x (stream demo/encrypt), the prover commits (stream demo/prover), and the
# referee keeps only the trapdoor images of the commitment
first = play_round(prover, params, x, rng, "demo", 0)
print(f"ciphertext: A is ({params.m}, {params.n}), v has {params.m} entries")
print(f"prover commits w (length {len(first.w.values)}) and "
      f"{len(first.bits)} measurement bits")
# the referee decodes both shifts of w through its trapdoor, once; the
# honest prover's claw is exactly what that decode recovers, so the prover
# reads it off the assessment instead of decoding w itself
preimages, answers, _, (e_flag,), (f_flag,) = referee_first_assessment(
    [first], params, lambda i: rng.stream("demo/referee", 0))
a = answers[0]
print("referee's events: both preimages in the box (E):", e_flag,
      " no wraparound (F):", f_flag)
claws = honest_first_round(preimages, answers, params)
# under E both branches remain; otherwise only the one whose preimage sits
# in the noise box, and the phase is 0
branch0, branch1, phase = (col[0] for col in claws)
in_box0, in_box1 = preimages.in_box[0]
claw = ClawDescription(branch0 if in_box0 else None,
                       branch1 if in_box1 else None, int(phase) or 1)
print("claw read off the referee's answer string: branch0 = a[:d], "
      "branch1 = z1's data bits, phase = (-1)^{a_d} under E")
if not claw.degenerate:
    print("claw branches:", claw.branch0, claw.branch1, " phase:", claw.phase)
    print("branch XOR (should be x's data bits):",
          claw.branch0 ^ claw.branch1)

b = honest_second_round(claws, y[None], [rng.stream("demo/prover2", 0)])[0]
print("referee derives a =", a, "; prover answers b =", b)
bases = ["Y" if bit else "X" for bit in y[:params.d]] + ["XY"]
law = build_claw_state(claw).outcome_distribution(bases)
print(f"oracle: P(b | claw) = {law[int(''.join(map(str, b)), 2)]:.6f} "
      f"(claw outcomes range over [{law.min():.6f}, {law.max():.6f}])")
print("score:", j_score(x, y, a, b))

print("\n--- 400-trial campaign ---")
result = run_game_r(prover, params, 400, rng)
print(f"mean score {result.stats.mean:.4f} "
      f"(ci95 [{result.stats.ci95_lo:.4f}, {result.stats.ci95_hi:.4f}])")
print(f"event rates: E {result.e_rate:.4f}, F {result.f_rate:.4f}")
print(f"score conditioned on both events: {result.conditional_mean:.4f} "
      f"(the claw-game value 1/sqrt(2) = {1 / np.sqrt(2):.4f})")
