import hashlib
from pathlib import Path

import pytest

from poqlab import games, lattice
from poqlab.cli import _config_argv, build_parser, main
from poqlab.core import Rng

from oracles import rejection_noise_sampler, seedsequence_stream


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


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_params_reports_sigma_that_is_not_finite(capsys, sigma):
    code, out = run_cli(capsys, "params", "--sigma", sigma)
    assert code == 1
    assert out == f"invalid parameters: sigma must be finite and positive, got {sigma}\n"


def test_params_at_underflowing_sigma_reads_the_point_mass(capsys):
    # 2 sigma^2 underflows to 0; the noise is the point mass at 0, so P(E) = 1
    code, out = run_cli(capsys, "params", "--sigma", "1e-300")
    assert code == 0
    assert out.splitlines()[-2:] == ["       honest_E_rate: 1.000000e+0",
                                     "    ln_honest_E_rate: 0.000000"]


@pytest.mark.parametrize("argv, rate, log_rate", [
    ((), "9.974595e-1", "-0.002544"),
    (("--sigma", "10"), "5.371962e-1", "-0.621392"),
    (("--preset", "paper-asymptotic", "--lam", "384"), "4.664521e-2135",
     "-4914.479188"),
    (("--preset", "paper-asymptotic", "--lam", "4"), "1.000000e+0", "0.000000"),
], ids=["desk", "sigma10", "lam384", "lam4-tau0"])
def test_params_prints_the_exact_honest_e_rate(capsys, argv, rate, log_rate):
    # below the game verdict; at lambda = 384 the union bound is negative
    # and the exact rate underflows a float, so it is printed from its log
    code, out = run_cli(capsys, "params", *argv)
    assert code == 0
    assert out.splitlines()[-3].startswith(" " * 8 + "game verdict: ")
    assert out.splitlines()[-2:] == [f"       honest_E_rate: {rate}",
                                     f"    ln_honest_E_rate: {log_rate}"]


@pytest.mark.parametrize("argv, preset, lam", [
    ((), "desk", "None"),
    (("--lam", "64"), "desk", "None"),
    (("--preset", "paper-asymptotic", "--lam", "4"), "paper-asymptotic", "4"),
    (("--preset", "paper-asymptotic", "--lam", "64"), "paper-asymptotic", "64"),
    (("--preset", "paper-asymptotic", "--lam", "384"), "paper-asymptotic",
     "384"),
], ids=["desk", "desk-lam64", "lam4", "lam64", "lam384"])
def test_params_prints_the_preset_and_lambda_it_was_given(capsys, argv,
                                                          preset, lam):
    # lambda belongs to the paper-asymptotic schedule; the desk ignores it
    code, out = run_cli(capsys, "params", *argv)
    assert code == 0
    assert out.splitlines()[:2] == [f"              preset: {preset}",
                                    f"              lambda: {lam}"]


def test_params_reports_an_invalid_set(capsys):
    assert run_cli(capsys, "params", "--q", "91") == (
        1, "invalid parameters: q = 91 is not an odd prime\n")


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


# each case: the CLI transcript's digest, and the digest it had before
# streams were keyed straight from their SHA-256 digest
CLI_TRANSCRIPT_PINS = [
    pytest.param(
        "honest",
        "f1f77351af459cf888d87898017f5f2cb85547d530fd6499006ffee0e6c5d03b",
        "2f96209210fab278b66357287807e4044e31eac4addc70327ec8560579052f67",
        id="honest"),
    pytest.param(
        "blind",
        "3e43dd98fd3ced1a1bc6bc9b3cc8251e5a4b41014eb298b32a4faef88d54d8a8",
        "b7c38c794cd39e2a52521aef66714aea0eedf61bd0d0fd78ee490e1af4957346",
        id="blind"),
]


def _transcript_digest(tmp_path, capsys, prover):
    """SHA-256 of the transcript file of a 24-trial game R at seed 5."""
    code, _ = run_cli(capsys, "run", "--game", "R", "--prover", prover,
                      "--trials", "24", "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    data = (tmp_path / f"R_{prover}_seed5.transcripts").read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("prover, digest, _", CLI_TRANSCRIPT_PINS)
def test_run_transcripts_pinned_at_fixed_seed(tmp_path, capsys, prover, digest,
                                              _):
    assert _transcript_digest(tmp_path, capsys, prover) == digest


# the pins that drawing the noise by inversion moved, each with the digest it
# had while the noise was drawn by rejection
REJECTION_PINS = {
    "honest":
        "705291dcaf5728af60750bb869d01cbd418ba2fdc0aea0f807c6b756bc90d6dd",
}


def test_rejection_sampler_reproduces_earlier_pins(tmp_path, capsys,
                                                   monkeypatch):
    # with the rejection sampler put back, the moved CLI transcript comes
    # back byte for byte and the other holds
    monkeypatch.setattr(lattice, "_noise_sampler", rejection_noise_sampler)
    for case in CLI_TRANSCRIPT_PINS:
        prover, digest, _ = case.values
        assert _transcript_digest(tmp_path, capsys, prover) == \
            REJECTION_PINS.get(case.id, digest), case.id


def test_seedsequence_stream_reproduces_earlier_pins(tmp_path, capsys,
                                                     monkeypatch):
    # with the SeedSequence derivation and the rejection sampler put back,
    # each earlier CLI transcript comes back byte for byte
    monkeypatch.setattr(Rng, "stream", seedsequence_stream)
    monkeypatch.setattr(lattice, "_noise_sampler", rejection_noise_sampler)
    for case in CLI_TRANSCRIPT_PINS:
        prover, _, earlier = case.values
        assert _transcript_digest(tmp_path, capsys, prover) == earlier, case.id


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


@pytest.mark.parametrize("target", ["j", "j-seq", "eta-parb", "ghz-seq"])
def test_brute_rejects_d_below_one(capsys, target):
    assert main(["brute", "--target", target, "--d", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: d must be at least 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, line", [
    (("ghz-seq", "--k", "4", "--d", "1"),
     "ghz-seq (k=4 d=1): value=3/4 bound=3/4 PASS"),
    (("ghz-seq", "--k", "4", "--d", "2"),
     "ghz-seq (k=4 d=2): value=9/16 bound=9/16 PASS"),
    (("ghz-seq", "--k", "3", "--d", "1"),
     "ghz-seq (k=3 d=1): value=3/4 bound=None PASS"),
    (("ghz", "--k", "3"), "ghz (k=3): value=3/4 bound=3/4 PASS"),
    (("j", "--d", "2"), "j (d=2): value=7/8 bound=1.732051 PASS"),
    (("j-seq", "--d", "2"), "j-seq (d=2): value=7/8 bound=1.732051 PASS"),
    (("eta-parb", "--d", "2"), "eta-parb (d=2): value=9/16 bound=9/16 PASS"),
], ids=["ghz-seq-k4-d1", "ghz-seq-k4-d2", "ghz-seq-k3", "ghz", "j", "j-seq",
        "eta-parb"])
def test_brute_output_pinned(capsys, argv, line):
    # each target names the sizes it takes; ghz-seq takes both k and d
    assert run_cli(capsys, "brute", "--target", *argv) == (0, line + "\n")


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


# worst margins at seed 3 with 200 samples; Z_4^3 takes the character-matrix
# path, Z_64^2 the np.fft path
FOURIER_MARGINS = {
    ("parseval", "4^3"): "1.776e-15", ("convolution", "4^3"): "1.986e-15",
    ("donoho", "4^3"): "0.000e+00", ("uncertainty", "4^3"): "0.000e+00",
    ("parseval", "64^2"): "8.527e-14", ("convolution", "64^2"): "4.441e-15",
    ("donoho", "64^2"): "0.000e+00", ("uncertainty", "64^2"): "0.000e+00",
}


@pytest.mark.parametrize("check, group", FOURIER_MARGINS)
def test_fourier_output_pinned(capsys, check, group):
    code, out = run_cli(capsys, "fourier", "--check", check, "--group", group,
                        "--samples", "200", "--seed", "3")
    assert code == 0
    assert out == (f"{check} on {group}: samples=200 violations=0 "
                   f"worst-margin={FOURIER_MARGINS[check, group]} PASS\n")


@pytest.mark.parametrize("check", ["donoho", "uncertainty"])
def test_fourier_reports_the_functions_it_checked(capsys, tmp_path, check):
    # redraw the CLI's inputs: each sample is a complex Gaussian on Z_4 with
    # every entry kept with probability 1/4; the zero draws are skipped
    gen = Rng(3).stream("fourier")
    checked = 0
    for _ in range(50):
        gen.normal(size=4), gen.normal(size=4)
        checked += bool((gen.random(4) < 0.25).any())
    assert checked < 50
    code, out = run_cli(capsys, "fourier", "--check", check, "--group", "4",
                        "--samples", "50", "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    assert f"samples={checked} violations=0" in out and "PASS" in out
    row = (tmp_path / "fourier_report.csv").read_text().splitlines()[1]
    assert row.startswith(f"{check},4,{checked},0,")


def test_fourier_run_that_checked_nothing_fails(capsys):
    # at seed 1 the one draw on Z_2 keeps no entry
    code, out = run_cli(capsys, "fourier", "--check", "donoho", "--group", "2",
                        "--samples", "1", "--seed", "1")
    assert code == 1
    assert "samples=0 violations=0" in out and "FAIL" in out


def test_attack_plan_prints_worked_figures(capsys):
    code, out = run_cli(capsys, "attack", "--experiment", "plan",
                        "--d", "40", "--epsilon", "0.05", "--alpha", "400000")
    assert code == 0
    assert "0.1127" in out
    # both sampling slacks, natural and base-2
    assert "sampling slack (natural)       = 0.01623" in out
    assert "sampling slack ( base-2)       = 0.01886" in out
    assert "0.1617" in out       # published threshold figure
    assert "0.1627" in out       # recomputed sum, shown alongside


def test_log2_mode_belongs_to_attack_only(capsys):
    # only the attack plan prints the base-2 slack, and it always does: no
    # command takes a switch for it
    for argv in (["params"], ["attack", "--experiment", "plan"]):
        assert main([*argv, "--log2-mode"]) == 2
        assert ("unrecognized arguments: --log2-mode"
                in capsys.readouterr().err)


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


def test_config_equals_form_matches_two_word_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=7\nseed=5\nd=2\n")
    outputs = [run_cli(capsys, "run", "--game", "J", *form)
               for form in (("--config", str(cfg)), (f"--config={cfg}",))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "trials=7 " in outputs[0][1]


def test_config_skips_comments_and_reads_booleans(tmp_path):
    cfg = tmp_path / "brute.cfg"
    parser = build_parser()
    for value, flag in (("true", True), ("TRUE", True), ("false", False)):
        cfg.write_text(f"# the time-ordered ceiling\n\n  # indented\n"
                       f"target=eta-parb\nd=2\ntime_ordered={value}\n")
        args = parser.parse_args(_config_argv(["brute", "--config", str(cfg)]))
        assert (args.target, args.d, args.time_ordered) == ("eta-parb", 2, flag)


def test_config_boolean_matches_its_flag(tmp_path, capsys, monkeypatch):
    # both families have the ceiling 9/16 at d = 2, so the search records
    # which one each run asked for
    asked = []
    search = games.max_eta_parity_balanced
    monkeypatch.setattr(games, "max_eta_parity_balanced",
                        lambda d, time_ordered: asked.append(time_ordered)
                        or search(d, time_ordered))
    cfg = tmp_path / "brute.cfg"
    cfg.write_text("# the time-ordered ceiling\ntarget=eta-parb\nd=2\n"
                   "time_ordered=true\n")
    code, out = run_cli(capsys, "brute", "--config", str(cfg))
    assert code == 0 and "bound=9/16 PASS" in out
    assert (code, out) == run_cli(capsys, "brute", "--target", "eta-parb",
                                  "--d", "2", "--time-ordered")
    assert asked == [True, True]


def test_config_given_twice_fails(tmp_path, capsys):
    # only one file is expanded, so a second would be silently ignored
    first, second = tmp_path / "c1.cfg", tmp_path / "c2.cfg"
    first.write_text("trials=3\n")
    second.write_text("trials=5\n")
    for again in (("--config", str(second)), (f"--config={second}",),
                  ("--config", str(first))):
        assert main(["run", "--game", "J", "--config", str(first),
                     *again]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --config given more than once\n"
        assert captured.out == ""


def test_readme_command_lines_parse():
    # every poqlab line of README's "Command line" block, comment stripped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["poqlab"]]
    assert len(commands) >= 10
    assert ["brute", "--target", "ghz-seq", "--k", "4", "--d", "2"] in commands
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_bad_choice_is_a_usage_error(capsys):
    # argparse's exit status, not the 1 of a FAIL comparison or an error
    assert main(["run", "--game", "X"]) == 2
    assert "invalid choice: 'X'" in capsys.readouterr().err


def test_abbreviated_flags_are_usage_errors(tmp_path, capsys):
    # a prefix of --config would be parsed but never expanded into the
    # file's flags, so every abbreviation is refused instead
    cfg = tmp_path / "c1.cfg"
    cfg.write_text("trials=3\n")
    for argv, flag in ((("run", "--game", "J", "--d", "2", "--conf", cfg),
                        "--conf"),
                       (("run", "--game", "J", "--tri", "3"), "--tri"),
                       (("brute", "--target", "j", "--time"), "--time")):
        assert main([str(arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""
    code, out = run_cli(capsys, "run", "--game", "J", "--d", "2",
                        "--config", str(cfg))
    assert code == 0 and "trials=3 " in out


def test_config_without_a_path_fails(capsys):
    for form in ("--config", "--config="):
        assert main(["run", "--game", "J", form]) == 1
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
    (("fourier", "--check", "parseval", "--samples", "0"),
     "samples must be at least 1, got 0"),
    (("fourier", "--check", "uncertainty", "--samples", "-2"),
     "samples must be at least 1, got -2"),
    (("run", "--game", "J", "--d", "0", "--trials", "5"),
     "d must be at least 1, got 0"),
    (("run", "--game", "J", "--d", "-2", "--trials", "5"),
     "d must be at least 1, got -2"),
    (("attack", "--experiment", "plan", "--d", "0"),
     "d must be at least 1, got 0"),
    (("attack", "--experiment", "plan", "--d", "-3"),
     "d must be at least 1, got -3"),
])
def test_counts_below_one_fail_with_their_name(capsys, argv, message):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a config line\n")
    assert main(["run", "--config", str(cfg), "--game", "J"]) == 1
