"""Spans around the public calls into each poqlab layer.

Tracer.install replaces each function named in TARGETS, in every poqlab
module namespace that holds it (so `from .lattice import invert` in another
module is covered too), with a wrapper that records one span per call:
name, start, end, parent span and flags.  Spans stay in compact arrays in
memory until save() writes them out.  Nothing under src/ changes; an
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("core", "lattice", "quantum", "provers", "protocol", "games",
          "fourier", "attack")

# Public calls wrapped per layer: module functions and Class.method.
TARGETS = {
    "core": ("matmul_mod", "balanced", "balanced_abs", "norminf",
             "binary_repr", "Rng.stream"),
    "lattice": ("gen_trap", "invert", "encrypt", "decrypt",
                "GaussianSampler.sample"),
    "quantum": ("honest_first_round", "honest_second_round",
                "build_claw_state", "measure", "round_one_positions"),
    "provers": ("ClassicalProver.second_response", "BlindProver.first_response",
                "BlindProver.respond_bit", "TrapdoorLeakProver.first_response",
                "TrapdoorLeakProver.respond_bit"),
    "protocol": ("run_game_r", "referee_first_assessment"),
    "games": ("j_score", "ghz_value_bruteforce", "j_bias_bruteforce",
              "max_eta_parity_balanced", "parity_set_from_strategy"),
    "fourier": ("dft", "idft", "uncertainty_product", "donoho_stark_check",
                "uncertainty_bound_check", "uniformity_nu", "linearity_eta",
                "eta_set", "support_size"),
    "attack": ("experiment_e_campaign", "experiment_e", "best_score",
               "decode_error"),
}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("lattice.encrypt.self_s", "s"),
    ("lattice.gen_trap.time_s", "s"),
    ("core.matmul_mod.calls", "count"),
    ("core.matmul_mod.time_s", "s"),
    ("lattice.invert.calls", "count"),
    ("lattice.invert.time_s", "s"),
    ("lattice.invert.none", "count"),
    ("lattice.invert.calls_per_trial", "calls/trial"),
    ("core.Rng.stream.calls", "count"),
    ("core.Rng.stream.time_s", "s"),
    ("protocol.referee_first_assessment.calls", "count"),
    ("protocol.referee_first_assessment.self_s", "s"),
    ("protocol.referee_first_assessment.fallbacks", "count"),
    ("quantum.honest_first_round.self_s", "s"),
    ("quantum.honest_second_round.calls", "count"),
    ("quantum.honest_second_round.time_s", "s"),
    ("provers.first_response.time_s", "s"),
    ("provers.second_response.calls", "count"),
    ("provers.respond_bit.calls", "count"),
    ("provers.respond_bit.time_s", "s"),
    ("attack.experiment_e.self_s", "s"),
    ("attack.best_score.calls", "count"),
    ("attack.best_score.time_s", "s"),
    ("games.j_score.calls", "count"),
    ("games.j_score.time_s", "s"),
    ("games.ghz_value_bruteforce.time_s", "s"),
    ("games.j_bias_bruteforce.time_s", "s"),
    ("games.max_eta_parity_balanced.time_s", "s"),
    ("fourier.dft.calls", "count"),
    ("fourier.dft.time_s", "s"),
    ("fourier.uncertainty_product.time_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)

RETURNED_NONE = 1
RAISED = 2
OUTERMOST = 4   # no enclosing span of the same name


def span_name(layer: str, target: str) -> str:
    """Prover methods are one span name whatever the prover class."""
    if layer == "provers":
        return f"provers.{target.rsplit('.', 1)[-1]}"
    return f"{layer}.{target}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "poqlab" or key.startswith("poqlab.")]
        for layer, targets in TARGETS.items():
            module = sys.modules[f"poqlab.{layer}"]
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr,
                            self._wrap(span_name(layer, target), owner.__dict__[attr]))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(span_name(layer, target), original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return self

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._depth.append(0)
        depth, stack = self._depth, self._stack
        names_, parents, starts, ends, flags = (
            self.name, self.parent, self.start, self.end, self.flags)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names_.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            flag = OUTERMOST if depth[nid] == 0 else 0
            flags.append(flag)
            depth[nid] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if out is None:
                    flag |= RETURNED_NONE
                return out
            except BaseException:
                flag |= RAISED
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
                flags[idx] = flag

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, round_walls: list[float], trials_per_round: int,
                speed_factor: float) -> dict[str, float]:
        """Every LAYER_METRICS value, per round: counts and times summed over
        the traced rounds and divided by their number, times scaled by
        speed_factor to reference seconds.  Self time is a span's duration
        minus its children's; time_s counts only spans with no enclosing span
        of the same name."""
        s = self.arrays()
        rounds = len(round_walls)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        outer = (s["flags"] & OUTERMOST) != 0
        none = (s["flags"] & RETURNED_NONE) != 0
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        incl = np.bincount(s["name"], weights=dur * outer, minlength=k)
        selfs = np.bincount(s["name"], weights=self_t, minlength=k)

        def stat(span: str, kind: str) -> float:
            nid = self._ids.get(span)
            if nid is None:
                return 0.0
            return float({"calls": calls, "time_s": incl, "self_s": selfs}[kind][nid])

        invert = self._ids["lattice.invert"]
        referee = self._ids["protocol.referee_first_assessment"]
        failed_inv = (s["name"] == invert) & none & has_parent
        fallback_parents = np.unique(s["parent"][failed_inv])
        fallbacks = int((s["name"][fallback_parents] == referee).sum())
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, nid in self._ids.items():
            layer_self[name.split(".", 1)[0]] += float(selfs[nid])
        wall = float(sum(round_walls))
        special = {
            "lattice.invert.none": float(((s["name"] == invert) & none).sum()),
            "lattice.invert.calls_per_trial":
                stat("lattice.invert", "calls") / (trials_per_round * rounds)
                if trials_per_round else 0.0,
            "protocol.referee_first_assessment.fallbacks": float(fallbacks),
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - float(dur[~has_parent].sum()),
            "trace.spans": float(dur.size),
            **{f"layer.{layer}.self_s": v for layer, v in layer_self.items()},
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric in special:
                value = special[metric]
                if metric != "lattice.invert.calls_per_trial":
                    value /= rounds
            else:
                span, kind = metric.rsplit(".", 1)
                value = stat(span, kind) / rounds
            out[metric] = value * speed_factor if unit == "s" else value
        return out
