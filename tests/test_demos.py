"""Smoke test: every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_parity_games_demo():
    out = run_demo("parity_games_and_bias.py")
    assert "parallel optimum, 2 rounds, 4 players: 9/16" in out


def test_fourier_demo():
    assert "eta({1,3}) = 1" in run_demo("fourier_uncertainty.py")


def test_honest_prover_walkthrough_demo():
    out = run_demo("honest_prover_walkthrough.py")
    assert ("referee's events: both preimages in the box (E): True"
            "  no wraparound (F): True") in out


def test_distinguishing_attack_demo():
    out = run_demo("distinguishing_attack.py")
    assert "targets: [1 1 0]  minimum flips: 0" in out
