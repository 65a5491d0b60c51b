"""Desk-scale laboratory for a hidden-state proof-of-quantumness protocol.

Subpackage map:
  core      modular arithmetic, parameter derivation, labeled random streams
  fourier   functions on Z_m^n, transform, uniformity/linearity coefficients
  games     parity games, parity-balanced sets, the claw game and its bias
  lattice   discrete Gaussians, gadget trapdoors, encrypt/decrypt
  quantum   the honest prover, its claw sampler, the statevector oracle
  provers   the classical prover model and built-in test provers
  protocol  the round engine (blocks of trials; play_round plays one), the
            total referee (check_bits, referee_score: each rule once, over
            rows of trials), the encrypted game and the claw game, transcripts
  attack    optimal-answer decoding, rewinding, and the experiments that
            replay the round: share-the-prover S1-S3 and distinguishing E
  cli       the poqlab command-line tool
"""

from .core import Params, Rng, derive_params, desk_params, find_prime
from .fourier import (Group, GroupFunction, SubsetOfGroup, convolve, dft,
                      donoho_stark_check, eta_set, linearity_eta,
                      uncertainty_bound_check, uncertainty_product,
                      uniformity_nu)
from .games import (DeterministicStrategy, ParityBalancedSet,
                    ghz4_closed_form, ghz_score, ghz_value_bruteforce,
                    j_bias_bruteforce, j_bias_fourier_identity,
                    j_sample_inputs, j_score, max_eta_parity_balanced,
                    parity_set_from_strategy, reduce_ghz4_to_ghz3,
                    strategy_from_parity_set)
from .lattice import GaussianSampler, decrypt, encrypt, gen_trap, invert
from .protocol import (FirstRound, GameResult, ScoreStats, Transcript,
                       check_bits, play_round, referee_score, run_game_j,
                       run_game_r)
from .provers import BlindProver, ClassicalProver, TrapdoorLeakProver
from .quantum import (ClawDescription, StateVector, apply_zc,
                      build_claw_state, honest_first_round,
                      honest_second_round, measure, sample_claw_outcomes)
from .attack import (attack_plan, best_score, decode_error, experiment_e,
                     experiment_e_campaign, rewind, run_experiment_s,
                     sampling_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
