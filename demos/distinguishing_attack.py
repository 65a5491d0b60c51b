"""From a cheating score to a ciphertext distinguisher.

A prover that beats the classical ceiling at the encrypted game can be
rewound through its second responses to estimate its own best reachable
score; that estimate behaves differently on real ciphertexts than on
uniform noise.  The key-leak prover makes the effect visible end to end.

Run: python demos/distinguishing_attack.py
"""

import numpy as np

from poqlab import (BlindProver, Rng, TrapdoorLeakProver, attack_plan,
                    best_score, decode_error, desk_params,
                    experiment_e_campaign, j_sample_inputs, j_score,
                    play_round, rewind)

print("=== the decoder behind the rewinding ===")
x = np.array([1, 0, 1, 1], dtype=np.int64)
ys = np.array([[1, 1, 0, 1], [0, 0, 1, 1], [1, 0, 1, 1]])
bs = np.array([[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]])
rows = x & ys
# target 1 where the all-zero first answer loses the question
zeros = np.zeros_like(x)
targets = (j_score(x, ys, zeros, bs) == -1).astype(np.int64)
print("decode instance rows (x AND y):")
print(rows)
print("targets:", targets, " minimum flips:", decode_error(rows, targets)[0])
print("best reachable average score:", best_score(x, ys, bs)[0])

print("\n=== rewinding one first round ===")
# rewind asks respond_bit once per question level, with each distinct
# question prefix once, and returns every question with its answer
params = desk_params(d=6)
rng = Rng(98)
x6, _ = j_sample_inputs(params.d, rng.stream("demo/inputs"))
prover = TrapdoorLeakProver(params)
for real in (True, False):
    first = play_round(prover, params, x6, rng, "demo", 0, real=real)
    ys, bs = rewind(prover, first.mem, params.d)
    print(f"{'real' if real else 'uniform'} advice: {len(ys)} questions "
          f"rewound, best reachable score {best_score(x6, ys, bs)[0]:+.3f}")

print("\n=== the two arms, measured ===")
params = desk_params(d=6)
leak = experiment_e_campaign(TrapdoorLeakProver(params), params, 150,
                             Rng(99), alpha=64)
print(f"key-leak prover:  E[r|real] = {leak.mean_r_real:+.3f}, "
      f"E[r|uniform] = {leak.mean_r_uniform:+.3f}, "
      f"advantage = {leak.advantage:.3f} +- {leak.stderr:.3f}")
blind = experiment_e_campaign(BlindProver(params), params, 150,
                              Rng(100), alpha=64)
print(f"blind prover:     E[r|real] = {blind.mean_r_real:+.3f}, "
      f"E[r|uniform] = {blind.mean_r_uniform:+.3f}, "
      f"advantage = {blind.advantage:.3f} +- {blind.stderr:.3f}")

print("\n=== the budget at cryptographic scale ===")
plan = attack_plan(d=40, epsilon=0.05, alpha=400_000)
print(f"classical score ceiling 2*(3/4)^10 = {plan.classical_ceiling:.6f}"
      f" < {plan.ceiling_4dp}")
print(f"sampling slack: natural-log {plan.slack_natural:.5f}, "
      f"base-2 {plan.slack_base2:.5f}")
print(f"recomputed threshold {plan.threshold:.4f}; published figure "
      f"{plan.published['threshold']} (addition slip in the published example)")
print(f"question weight cap {plan.weight_cap} "
      f"(tail probability {plan.weight_tail:.5f})")
print(f"decode work estimate (brute force): 2^{plan.decode_work_log2:.1f} "
      "bit operations")
