"""Command-line front end: parameter derivation, game campaigns, brute-force
sweeps, transform checks, and the distinguishing-attack reports.

Every command is deterministic under a fixed --seed.  A flat key=value
--config file supplies defaults; explicit flags win.  Exit status is 0 on
success/PASS and 1 on any FAIL comparison or error, so harnesses can gate
on it.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import attack, fourier, games, protocol, provers
from .core import (DESK, DESK_D, DESK_N, DESK_Q, DESK_SIGMA, PAPER_ASYMPTOTIC,
                   Params, Rng, derive_params, desk_params)


def _load_config(path: str) -> dict[str, str]:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config lines are key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_argv(argv: list[str]) -> list[str]:
    """Expand --config into equivalent flags placed before the user's own,
    so explicitly passed flags keep the last word."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise ValueError("--config needs a path")
    cfg = _load_config(argv[at + 1])
    flags: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        else:
            flags.extend([flag, value])
    return [argv[0], *flags, *argv[1:]]


def _params_from_args(args) -> Params:
    if getattr(args, "preset", DESK) == PAPER_ASYMPTOTIC:
        return derive_params(lam=args.lam, preset=PAPER_ASYMPTOTIC)
    return desk_params(d=args.d, n=args.n, q=args.q, sigma=args.sigma)


def _write_report(args, name: str, header: str, rows: list[str]):
    if not args.out:
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text("\n".join([header, *rows]) + "\n")


# ---------------------------------------------------------------------------
# params

def cmd_params(args) -> int:
    try:
        params = _params_from_args(args)
    except Exception as exc:  # invalid desk combinations are a report, not a crash
        print(f"invalid parameters: {exc}")
        return 1
    bound_e, bound_f = params.event_bounds()
    rows = [
        ("preset", params.preset), ("lambda", params.lam),
        ("n", params.n), ("q", params.q), ("Q", params.Q), ("m", params.m),
        ("sigma", params.sigma), ("tau", params.tau), ("d", params.d),
        ("gadget_error_bound", params.gadget_bound),
        ("event_bound_E", f"{bound_e:.6f}"), ("event_bound_F", f"{bound_f:.6f}"),
    ]
    for key, value in rows:
        print(f"{key:>20}: {value}")
    problems = params.runnability_problems()
    verdict = "runnable" if not problems else "non-runnable: " + "; ".join(problems)
    print(f"{'game verdict':>20}: {verdict}")
    _write_report(args, "params.csv", "key,value",
                  [f"{k},{v}" for k, v in rows + [("verdict", verdict)]])
    return 0


# ---------------------------------------------------------------------------
# run

CLASSICAL_PROVERS = {"blind": provers.BlindProver,
                     "leak": provers.TrapdoorLeakProver}


def cmd_run(args) -> int:
    rng = Rng(args.seed)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.game == "J":
        if args.prover != "honest":
            raise ValueError("the claw game runs the honest strategy only")
        result = protocol.run_game_j(args.d, args.trials, rng,
                                     keep_transcripts=out_dir is not None)
        extra = ""
    else:
        params = _params_from_args(args)
        prover = ("honest" if args.prover == "honest"
                  else CLASSICAL_PROVERS[args.prover](params))
        result = protocol.run_game_r(prover, params, args.trials, rng,
                                     sequential=args.game == "Rseq",
                                     keep_transcripts=out_dir is not None)
        extra = (f"  E-rate: {result.e_rate:.4f}  F-rate: {result.f_rate:.4f}"
                 f"  conditional-mean: "
                 + (f"{result.conditional_mean:.4f}"
                    if result.conditional_mean is not None else "n/a"))

    stats, transcripts = result.stats, result.transcripts
    label = f"{args.game}/{args.prover}"
    print(f"{label}: trials={stats.trials} mean={stats.mean:.6f} "
          f"stderr={stats.stderr:.6f} ci95=[{stats.ci95_lo:.6f}, {stats.ci95_hi:.6f}]"
          + extra)
    if out_dir:
        tfile = out_dir / f"{args.game}_{args.prover}_seed{args.seed}.transcripts"
        tfile.write_text("\n".join(t.to_line() for t in transcripts) + "\n"
                         if transcripts else "")
        summary = out_dir / "summary.csv"
        if not summary.exists():
            summary.write_text(protocol.ScoreStats.csv_header() + "\n")
        with summary.open("a") as fh:
            fh.write(stats.csv_row(label) + "\n")
    return 0


# ---------------------------------------------------------------------------
# brute

def cmd_brute(args) -> int:
    rows = []
    ok = True
    if args.target == "ghz":
        value = games.ghz_value_bruteforce(args.k, "single")
        bound = Fraction(3, 4) if args.k in (3, 4) else None
        passed = bound is None or value == bound
        rows.append(("ghz", args.k, None, value, bound, passed))
    elif args.target == "ghz-seq":
        value = games.ghz_value_bruteforce(args.k, "sequential", args.d)
        bound = Fraction(3, 4) ** args.d if args.k == 4 else None
        passed = bound is None or value <= bound
        rows.append(("ghz-seq", args.k, args.d, value, bound, passed))
    elif args.target == "j":
        value = games.j_bias_bruteforce(args.d, sequential=False)
        bound = 2 * float(games.ghz_value_bruteforce(4, "parallel", args.d)) ** 0.25
        passed = float(value) <= bound + 1e-12
        rows.append(("j", None, args.d, value, f"{bound:.6f}", passed))
    elif args.target == "j-seq":
        value = games.j_bias_bruteforce(args.d, sequential=True)
        bound = 2 * 0.75 ** (args.d / 4)
        passed = float(value) <= bound + 1e-12
        rows.append(("j-seq", None, args.d, value, f"{bound:.6f}", passed))
    elif args.target == "eta-parb":
        value = games.max_eta_parity_balanced(args.d, args.time_ordered)
        if args.time_ordered:
            bound = Fraction(3, 4) ** args.d
        else:
            bound = games.ghz_value_bruteforce(4, "parallel", args.d)
        passed = value <= bound
        rows.append(("eta-parb", None, args.d, value, bound, passed))
    else:
        raise ValueError(f"unknown target {args.target!r}")

    for target, k, d, value, bound, passed in rows:
        ok &= passed
        where = f"k={k}" if k is not None else f"d={d}"
        print(f"{target} ({where}): value={value} bound={bound} "
              f"{'PASS' if passed else 'FAIL'}")
    _write_report(args, "brute_report.csv", "target,k,d,value,bound,pass",
                  [f"{t},{k},{d},{v},{b},{int(p)}" for t, k, d, v, b, p in rows])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fourier

def _parse_group(spec: str) -> fourier.Group:
    m, _, n = spec.partition("^")
    return fourier.Group(int(m), int(n) if n else 1)


def _random_function(group, gen) -> fourier.GroupFunction:
    vals = gen.normal(size=group.size) + 1j * gen.normal(size=group.size)
    return fourier.GroupFunction(group, vals)


def cmd_fourier(args) -> int:
    group = _parse_group(args.group)
    if group.size > 4 ** 12:
        raise ValueError("group capped at 4^12 elements")
    gen = Rng(args.seed).stream("fourier")
    worst = 0.0
    failures = 0
    if args.check == "parseval":
        for _ in range(args.samples):
            f = _random_function(group, gen)
            worst = max(worst, abs(fourier.dft(f).norm2() - f.norm2()))
        failures = int(worst > 1e-9)
    elif args.check == "convolution":
        for _ in range(args.samples):
            f, g = _random_function(group, gen), _random_function(group, gen)
            lhs = fourier.dft(fourier.convolve(f, g)).values
            rhs = fourier.dft(f).values * fourier.dft(g).values
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        failures = int(worst > 1e-9)
    elif args.check in ("donoho", "uncertainty"):
        for _ in range(args.samples):
            f = _random_function(group, gen)
            keep = gen.random(group.size) < 0.25
            f = fourier.GroupFunction(group, f.values * keep)
            if not np.abs(f.values).any():
                continue
            if args.check == "donoho":
                product = (fourier.support_size(f)
                           * fourier.support_size(fourier.dft(f)))
                worst = max(worst, float(group.size - product))
                failures += not fourier.donoho_stark_check(f)
            else:
                product = fourier.uncertainty_product(f)
                worst = max(worst, 1.0 - product)
                failures += product < 1 - 1e-9
    else:
        raise ValueError(f"unknown check {args.check!r}")
    print(f"{args.check} on {args.group}: samples={args.samples} "
          f"violations={failures} worst-margin={worst:.3e} "
          f"{'PASS' if failures == 0 else 'FAIL'}")
    _write_report(args, "fourier_report.csv",
                  "check,group,samples,violations,worst_margin",
                  [f"{args.check},{args.group},{args.samples},{failures},{worst:.3e}"])
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# attack

def cmd_attack(args) -> int:
    if args.experiment == "plan":
        plan = attack.attack_plan(args.d, args.epsilon, args.alpha)
        print(f"classical ceiling 2*(3/4)^(d/4) = {plan.classical_ceiling:.6f}"
              f"  (< {plan.ceiling_4dp:.4f})")
        print(f"distinguishing threshold        = {plan.threshold:.4f}")
        mode = "base-2" if args.log2_mode else "natural"
        slack = plan.slack_base2 if args.log2_mode else plan.slack_natural
        print(f"sampling slack ({mode:>7})       = {slack:.5f}")
        print(f"question weight cap             = {plan.weight_cap} "
              f"(tail {plan.weight_tail:.4f})")
        print(f"decode work                     = 2^{plan.decode_work_log2:.1f} bit ops")
        if plan.published:
            ref = plan.published
            print(f"published figures               = ceiling < "
                  f"{ref['ceiling_upper']:.4f}, threshold {ref['threshold']:.4f}, "
                  f"base-2 slack {ref['slack_base2']:.5f}")
            if abs(ref["threshold"] - plan.threshold) > 5e-5:
                print(f"  note: published threshold {ref['threshold']:.4f} "
                      f"differs from the recomputed sum {plan.threshold:.4f} "
                      f"by {abs(ref['threshold'] - plan.threshold):.4f} "
                      f"(addition slip in the published example)")
        _write_report(args, "attack_plan.csv",
                      "d,epsilon,alpha,ceiling,threshold,slack_natural,"
                      "slack_base2,weight_cap,work_log2",
                      [f"{plan.d},{plan.epsilon},{plan.alpha},"
                       f"{plan.classical_ceiling:.6f},{plan.threshold:.4f},"
                       f"{plan.slack_natural:.6f},{plan.slack_base2:.6f},"
                       f"{plan.weight_cap},{plan.decode_work_log2:.2f}"])
        return 0

    params = _params_from_args(args)
    prover = CLASSICAL_PROVERS[args.prover](params)
    alpha = None if args.experiment == "E" else args.alpha
    report = attack.experiment_e_campaign(prover, params, args.reps,
                                          Rng(args.seed), alpha=alpha)
    print(f"experiment {args.experiment} ({args.prover}): reps={report.reps} "
          f"(real {report.reps_real}, uniform {report.reps_uniform}) "
          f"E[r|real]={report.mean_r_real:.4f} "
          f"E[r|uniform]={report.mean_r_uniform:.4f} "
          f"advantage={report.advantage:.4f} (stderr {report.stderr:.4f}) "
          f"guess-accuracy={report.guess_accuracy:.4f}")
    _write_report(args, "attack_report.csv",
                  "experiment,prover,reps,mean_real,mean_uniform,advantage,stderr",
                  [f"{args.experiment},{args.prover},{report.reps},"
                   f"{report.mean_r_real:.6f},{report.mean_r_uniform:.6f},"
                   f"{report.advantage:.6f},{report.stderr:.6f}"])
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poqlab",
        description="hidden-state proof-of-quantumness laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit run seed")
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value defaults file")
        p.add_argument("--out", type=str, default=None,
                       help="directory for CSV/transcript output")

    def desk_flags(p):
        p.add_argument("--preset", choices=[PAPER_ASYMPTOTIC, DESK], default=DESK)
        p.add_argument("--lam", type=int, default=None)
        p.add_argument("--n", type=int, default=DESK_N)
        p.add_argument("--q", type=int, default=DESK_Q)
        p.add_argument("--d", type=int, default=DESK_D)
        p.add_argument("--sigma", type=float, default=DESK_SIGMA)

    p = sub.add_parser("params", help="derive and validate a parameter set")
    common(p)
    desk_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("run", help="play a game for many trials")
    common(p)
    desk_flags(p)
    p.add_argument("--game", choices=["J", "R", "Rseq"], required=True)
    p.add_argument("--prover", choices=["honest", "blind", "leak"],
                   default="honest")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("brute", help="exhaustive game values with bounds")
    common(p)
    p.add_argument("--target", choices=["ghz", "ghz-seq", "j", "j-seq",
                                        "eta-parb"], required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--time-ordered", action="store_true")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("fourier", help="transform identity and bound checks")
    common(p)
    p.add_argument("--check", choices=["parseval", "convolution", "donoho",
                                       "uncertainty"], required=True)
    p.add_argument("--group", type=str, default="4^3")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("attack", help="distinguishing experiments and the plan")
    common(p)
    desk_flags(p)
    p.add_argument("--experiment", choices=["E", "Eprime", "plan"],
                   required=True)
    p.add_argument("--prover", choices=["leak", "blind"], default="leak")
    p.add_argument("--alpha", type=int, default=64)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--log2-mode", action="store_true",
                   help="use base-2 logs in the plan's sampling slack")
    p.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_config_argv(argv))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
