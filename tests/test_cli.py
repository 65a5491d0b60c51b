import hashlib
from pathlib import Path

import pytest

from poqlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_params_paper_asymptotic(capsys):
    code, out = run_cli(capsys, "params", "--preset", "paper-asymptotic",
                        "--lam", "64")
    assert code == 0
    assert "Q: 19" in out and "m: 2496" in out
    assert "non-runnable" in out  # sigma exceeds tau at this lambda


def test_params_lambda_4_flags_tau(capsys):
    code, out = run_cli(capsys, "params", "--preset", "paper-asymptotic",
                        "--lam", "4")
    assert code == 0
    assert "tau = 0" in out


def test_params_desk_round_trip(capsys):
    code, out = run_cli(capsys, "params")
    assert code == 0
    assert "runnable" in out and "desk" in out


def test_run_j_deterministic(tmp_path, capsys):
    args = ("run", "--game", "J", "--trials", "5000", "--seed", "9",
            "--d", "3", "--out", str(tmp_path / "a"))
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, "run", "--game", "J", "--trials", "5000",
                          "--seed", "9", "--d", "3", "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]
    f1 = (tmp_path / "a" / "J_honest_seed9.transcripts").read_bytes()
    f2 = (tmp_path / "b" / "J_honest_seed9.transcripts").read_bytes()
    assert f1 == f2
    summary = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,trials,mean,stderr,ci95_lo,ci95_hi"
    assert summary[1].startswith("J/honest,5000,")


def test_run_r_reports_event_rates(capsys):
    code, out = run_cli(capsys, "run", "--game", "R", "--prover", "honest",
                        "--trials", "60", "--seed", "1")
    assert code == 0
    assert "E-rate" in out and "F-rate" in out


@pytest.mark.parametrize("prover, digest", [
    ("honest", "2f96209210fab278b66357287807e4044e31eac4addc70327ec8560579052f67"),
    ("blind", "b7c38c794cd39e2a52521aef66714aea0eedf61bd0d0fd78ee490e1af4957346"),
])
def test_run_transcripts_pinned_at_fixed_seed(tmp_path, capsys, prover, digest):
    code, _ = run_cli(capsys, "run", "--game", "R", "--prover", prover,
                      "--trials", "24", "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    data = (tmp_path / f"R_{prover}_seed5.transcripts").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_run_rejects_classical_prover_at_claw_game(capsys):
    code = main(["run", "--game", "J", "--prover", "blind", "--trials", "10"])
    assert code == 1


def test_run_has_no_sequential_claw_game(capsys):
    # the honest claw-game law does not depend on measurement order
    code = main(["run", "--game", "Jseq", "--trials", "10"])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_brute_pass_and_fail_exit_codes(capsys):
    code, out = run_cli(capsys, "brute", "--target", "ghz", "--k", "4")
    assert code == 0 and "PASS" in out and "3/4" in out
    code, out = run_cli(capsys, "brute", "--target", "eta-parb", "--d", "2",
                        "--time-ordered")
    assert code == 0 and "9/16" in out
    code = main(["brute", "--target", "j", "--d", "3"])
    assert code == 1  # enumeration ceiling


def test_brute_eta_parb_d2_against_parallel_value(capsys):
    code, out = run_cli(capsys, "brute", "--target", "eta-parb", "--d", "2")
    assert code == 0
    assert "value=9/16 bound=9/16 PASS" in out


def test_brute_j_d2_against_parallel_value(capsys):
    code, out = run_cli(capsys, "brute", "--target", "j", "--d", "2")
    assert code == 0
    bound = 2 * (9 / 16) ** 0.25
    assert f"bound={bound:.6f} PASS" in out


def test_brute_j_sequential(capsys):
    code, out = run_cli(capsys, "brute", "--target", "j-seq", "--d", "2")
    assert code == 0 and "PASS" in out


def test_fourier_checks(capsys, tmp_path):
    for check in ("parseval", "convolution", "donoho", "uncertainty"):
        code, out = run_cli(capsys, "fourier", "--check", check,
                            "--group", "4^2", "--samples", "50",
                            "--seed", "3", "--out", str(tmp_path))
        assert code == 0, check
        assert "PASS" in out
    report = (tmp_path / "fourier_report.csv").read_text()
    assert report.startswith("check,group,samples")


def test_attack_plan_prints_worked_figures(capsys):
    code, out = run_cli(capsys, "attack", "--experiment", "plan",
                        "--d", "40", "--epsilon", "0.05", "--alpha", "400000",
                        "--log2-mode")
    assert code == 0
    assert "0.1127" in out
    assert "0.01886" in out
    assert "0.1617" in out       # published threshold figure
    assert "0.1627" in out       # recomputed sum, shown alongside


def test_log2_mode_belongs_to_attack_only(capsys):
    # only the attack plan reads --log2-mode
    assert main(["params", "--log2-mode"]) == 2
    assert "unrecognized arguments: --log2-mode" in capsys.readouterr().err


def test_attack_eprime_smoke(capsys):
    code, out = run_cli(capsys, "attack", "--experiment", "Eprime",
                        "--prover", "blind", "--reps", "40", "--seed", "2",
                        "--d", "4")
    assert code == 0
    assert "advantage=" in out
    assert "reps=40 (real " in out and ", uniform " in out


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=123\nseed=5\ngame=J\nd=2\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "trials=123" in out
    # explicit flag beats the config value
    code, out = run_cli(capsys, "run", "--config", str(cfg), "--trials", "77")
    assert code == 0
    assert "trials=77" in out


def test_config_without_a_path_fails(capsys):
    assert main(["run", "--game", "J", "--config"]) == 1
    assert capsys.readouterr().err == "error: --config needs a path\n"


@pytest.mark.parametrize("argv, message", [
    (("run", "--game", "R", "--trials", "0"), "trials must be at least 1, got 0"),
    (("run", "--game", "J", "--trials", "-1"),
     "trials must be at least 1, got -1"),
    (("attack", "--experiment", "E", "--reps", "0"),
     "reps must be at least 1, got 0"),
    (("attack", "--experiment", "Eprime", "--reps", "4", "--alpha", "0"),
     "alpha must be at least 1, got 0"),
    (("attack", "--experiment", "Eprime", "--reps", "4", "--alpha", "-3"),
     "alpha must be at least 1, got -3"),
    (("attack", "--experiment", "plan", "--alpha", "0"),
     "alpha must be at least 1, got 0"),
])
def test_counts_below_one_fail_with_their_name(capsys, argv, message):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a config line\n")
    assert main(["run", "--config", str(cfg), "--game", "J"]) == 1
