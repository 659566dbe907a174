"""End-to-end tests for the command-line interface.

The CLI is exercised through main() with argv lists; outputs are checked
against golden strings where the format is load-bearing, and reports must
be byte-identical across repeated runs.
"""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

import sandlab
from sandlab import cli, witnesses
from sandlab.automaton import window_image
from sandlab.config import Configuration, equals
from sandlab.formats import parse_config_file
from sandlab.zoo import make


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg(name):
    return witnesses.path_of(name + ".cfg")


def test_zoo_emits_parseable_rule(capsys):
    code, out, err = run_cli(["zoo", "S"], capsys)
    assert code == 0
    assert out.startswith("sand-rule v1\n")
    assert "rule: (+inf, -inf) -> 0" in out


def test_simulate_collision_to_flat(capsys):
    code, out, err = run_cli(
        ["simulate", "--rule", "S", "--config", cfg("sandpile-collision-b"),
         "--steps", "1"],
        capsys,
    )
    assert code == 0
    c = parse_config_file(out)
    assert equals(c, Configuration.finite({}))


def test_simulate_ends_at_a_fixed_point(capsys):
    argv = ["simulate", "--rule", "S", "--config", cfg("sandpile-collision-a"), "--steps"]
    once = run_cli(argv + ["1"], capsys)
    start = time.perf_counter()
    assert run_cli(argv + ["100000000000"], capsys) == once
    assert time.perf_counter() - start < 1
    assert once[0] == 0


def test_simulate_render_ascii_flat_row(capsys):
    code, out, err = run_cli(
        ["simulate", "--rule", "S", "--config", cfg("sandpile-collision-b"),
         "--steps", "1", "--render", "ascii"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    ground = [ln for ln in lines if set(ln) == {"-"}]
    assert len(ground) == 1
    assert all("#" not in ln and "^" not in ln and "v" not in ln for ln in lines)


def test_simulate_accepts_rule_file(tmp_path, capsys):
    rule_path = tmp_path / "mine.rule"
    rule_path.write_text(witnesses._read("S.rule"))
    code, out, err = run_cli(
        ["simulate", "--rule", str(rule_path), "--config",
         cfg("two-grain-column"), "--steps", "1"],
        capsys,
    )
    assert code == 0
    assert equals(parse_config_file(out), Configuration.finite({0: 1, 1: 1}))


def test_render_window_and_dump(capsys):
    code, out, err = run_cli(
        ["render", "--config", cfg("step-two-level"), "--window", "-2", "3",
         "--dump"],
        capsys,
    )
    assert code == 0
    assert "dump v1" in out
    assert "window: -2 3" in out
    assert "heights: 0 0 2 2 2 2" in out


def test_far_render_windows_draw_the_flat_background(capsys):
    flat = "      \n------\n      \n"
    for lo in ("10000000000000000000", "-10000000000000000005"):
        argv = ["render", "--config", cfg("two-grain-column"), "--window", lo, str(int(lo) + 5)]
        assert run_cli(argv, capsys) == (0, flat, "")


def test_empty_render_window_is_a_domain_error(capsys):
    argv = ["render", "--config", cfg("two-grain-column"), "--window", "1", "-1"]
    assert run_cli(argv, capsys) == (1, "", "error: empty render window\n")


def test_distance_output(capsys):
    code, out, err = run_cli(
        ["distance", cfg("sandpile-collision-a"), cfg("sandpile-collision-b")],
        capsys,
    )
    assert code == 0
    assert out.strip() == "2^-0"
    code, out, err = run_cli(
        ["distance", cfg("sandpile-collision-a"), cfg("sandpile-collision-a")],
        capsys,
    )
    assert out.strip() == "0"


def test_preimage_subcommand(capsys):
    code, out, err = run_cli(
        ["preimage", "--config", cfg("step-two-level")], capsys
    )
    assert code == 0
    got = parse_config_file(out)
    want = witnesses.load_config("step-preimage")
    assert equals(got, want)


def test_preimage_rejects_other_rules(capsys):
    code, out, err = run_cli(
        ["preimage", "--automaton", "S", "--config", cfg("step-two-level")],
        capsys,
    )
    assert code == 1
    assert "left" in err


def test_preimage_accepts_any_table_of_the_left_rule(tmp_path, capsys):
    rule = tmp_path / "left.rule"
    rule.write_text(
        "sand-rule v1\nradius: 1\nrule: (-inf, *) -> -1\n"
        "rule: (neg, *) -> -1\nrule: (pos, *) -> 1\n"
    )
    argv = ["preimage", "--config", cfg("step-two-level"), "--automaton"]
    want = run_cli(argv + ["L"], capsys)
    assert want[0] == 0
    assert run_cli(argv + [str(rule)], capsys) == want


def test_crown_outputs_two_configs(capsys):
    code, out, err = run_cli(
        ["crown", "--rule", "S", "--config-a", cfg("sandpile-collision-a"),
         "--config-b", cfg("sandpile-collision-b")],
        capsys,
    )
    assert code == 0
    blocks = out.split("# crown b\n")
    assert len(blocks) == 2
    d2 = parse_config_file(blocks[1])
    assert equals(d2, witnesses.load_config("crown-pair-b"))


def test_splice_subcommand(capsys):
    code, out, err = run_cli(
        ["splice", "--rule", "S", "--config", cfg("sandpile-collision-b"),
         "--target", cfg("sandpile-collision-a"), "--period", "1"],
        capsys,
    )
    assert code == 0
    assert equals(parse_config_file(out), Configuration.finite({}))


def test_check_injective_witness_exit_code(capsys):
    code, out, err = run_cli(
        ["check-injective", "--rule", "S", "--class", "F", "--window", "1",
         "--height", "1"],
        capsys,
    )
    assert code == 3
    assert "verdict: WITNESS_FOUND" in out
    assert "witness a:" in out and "witness b:" in out


def test_check_injective_exhausted_exit_code(capsys):
    code, out, err = run_cli(
        ["check-injective", "--rule", "Sr", "--class", "F", "--window", "2",
         "--height", "2"],
        capsys,
    )
    assert code == 0
    assert "verdict: EXHAUSTED_NO_WITNESS" in out


def test_check_injective_periodic_needs_period(capsys):
    code, out, err = run_cli(
        ["check-injective", "--rule", "S", "--class", "P", "--height", "1"],
        capsys,
    )
    assert code == 1


def test_check_surjective_exit_codes(capsys):
    code, out, err = run_cli(
        ["check-surjective", "--rule", "Sr", "--target",
         cfg("two-grain-column"), "--class", "F", "--window", "3",
         "--height", "4"],
        capsys,
    )
    assert code == 3  # no pre-image found is the bad outcome here
    code, out, err = run_cli(
        ["check-surjective", "--rule", "S", "--target",
         cfg("two-grain-column"), "--class", "F", "--window", "2",
         "--height", "3"],
        capsys,
    )
    assert code == 0
    assert "verdict: WITNESS_FOUND" in out


def test_check_surjective_wide_window(tmp_path, capsys):
    target = tmp_path / "ridge.cfg"
    target.write_text("sand-config v1\nkind: finite\nat -600 1\nat 0 1\nat 1 1\n")
    code, out, err = run_cli(
        ["check-surjective", "--rule", "S", "--target", str(target),
         "--class", "F", "--window", "600", "--height", "1"],
        capsys,
    )
    assert code == 0
    assert "verdict: WITNESS_FOUND" in out


def test_check_nilpotent_exit_codes(capsys):
    code, out, err = run_cli(
        ["check-nilpotent", "--rule", "S", "--config",
         cfg("sandpile-collision-b"), "--steps", "5"],
        capsys,
    )
    assert code == 0
    assert "verdict: WITNESS_FOUND" in out
    code, out, err = run_cli(
        ["check-nilpotent", "--rule", "S", "--config",
         cfg("two-grain-column"), "--steps", "5"],
        capsys,
    )
    assert code == 4
    assert "verdict: BOUND_EXCEEDED" in out


def test_verify_witness_exit_codes(capsys):
    code, out, err = run_cli(
        ["verify-witness", "--rule", "S", "--config-a",
         cfg("sandpile-collision-a"), "--config-b",
         cfg("sandpile-collision-b")],
        capsys,
    )
    assert code == 0
    assert "valid pair: True" in out
    code, out, err = run_cli(
        ["verify-witness", "--rule", "Sr", "--config-a",
         cfg("sandpile-collision-a"), "--config-b",
         cfg("sandpile-collision-b")],
        capsys,
    )
    assert code == 3


def test_verify_inverse_exit_codes(capsys):
    code, out, err = run_cli(
        ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr",
         "--samples", "100", "--seed", "1"],
        capsys,
    )
    assert code == 0
    code, out, err = run_cli(
        ["verify-inverse", "--rule-outer", "Sr", "--rule-inner", "S",
         "--samples", "100", "--seed", "1"],
        capsys,
    )
    assert code == 3
    assert "verdict: WITNESS_FOUND" in out


def test_verify_inverse_refuses_samples_over_the_limit(capsys):
    code, out, err = run_cli(
        ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr",
         "--samples", "100000000000", "--seed", "1"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: sample count 100000000000 is over the limit of 1000000\n"
    )
    code, out, err = run_cli(
        ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr",
         "--samples", "1000001", "--seed", "1"],
        capsys,
    )
    assert code == 1 and "over the limit of 1000000" in err


def test_json_report_is_machine_readable(capsys):
    code, out, err = run_cli(
        ["check-injective", "--rule", "S", "--class", "F", "--window", "1",
         "--height", "1", "--json"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "WITNESS_FOUND"
    assert payload["manifest"]["subcommand"] == "check-injective"
    assert len(payload["witnesses"]) == 2
    for block in payload["witnesses"]:
        parse_config_file(block)


def test_reports_are_byte_identical(capsys):
    argv = ["check-injective", "--rule", "S", "--class", "F", "--window", "1",
            "--height", "1", "--json"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_manifest_echoed_in_report(capsys):
    code, out, err = run_cli(
        ["check-nilpotent", "--rule", "S", "--config",
         cfg("two-grain-column"), "--steps", "3"],
        capsys,
    )
    assert "subcommand: check-nilpotent" in out
    assert "steps: 3" in out
    assert "rule: S" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config\n")
    code, out, err = run_cli(["render", "--config", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_exit_code(capsys):
    code, out, err = run_cli(["render", "--config", "no-such-file.cfg"], capsys)
    assert code == 2


def test_unknown_rule_name_exit_code(capsys):
    code, out, err = run_cli(
        ["simulate", "--rule", "nope", "--config",
         cfg("sandpile-collision-a"), "--steps", "1"],
        capsys,
    )
    assert code == 2
    assert "no rule file" in err


def test_core_bound_exit_code(capsys):
    code, out, err = run_cli(
        ["simulate", "--rule", "S", "--config", cfg("two-grain-column"),
         "--steps", "60", "--max-core", "1"],
        capsys,
    )
    assert code == 4
    assert "error:" in err
    code, out, err = run_cli(
        ["simulate", "--rule", "S", "--config", cfg("two-grain-column"),
         "--steps", "1", "--max-core", "-1"],
        capsys,
    )
    assert code == 1
    assert "core cap must be >= 0" in err


def test_core_cap_variable_in_another_spelling_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("SANDLAB_MAX_CORE", "1_000")
    argv = ["simulate", "--rule", "S", "--config", cfg("two-grain-column"), "--steps", "1"]
    assert run_cli(argv, capsys) == (
        1, "", "error: SANDLAB_MAX_CORE is not an integer: '1_000'\n")


def test_integer_options_take_only_ascii_decimals(capsys):
    """Every integer option reads its value as the file parsers do: `_`
    separators and other scripts' digits are refused with argparse's own
    `invalid int value` error (exit 2), and plain decimals still parse."""
    two = cfg("two-grain-column")
    argvs = {
        "--steps": ["simulate", "--rule", "S", "--config", two, "--steps"],
        "--max-core": ["simulate", "--rule", "S", "--config", two, "--steps", "1", "--max-core"],
        "--window": ["check-injective", "--rule", "S", "--class", "F", "--height", "1", "--window"],
        "--period": ["check-injective", "--rule", "S", "--class", "P", "--height", "1", "--period"],
        "--height": ["check-injective", "--rule", "S", "--class", "F", "--window", "1", "--height"],
        "--samples": ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr", "--samples"],
        "--seed": ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr", "--seed"],
    }
    for flag, argv in argvs.items():
        for token in ("1_0", "\u0663", "+\u0661", "1\u0660", "x"):
            with pytest.raises(SystemExit) as stop:
                cli.main(argv + [token])
            assert stop.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: argument {flag}: invalid int value: {token!r}\n"), err
        assert cli.main(argv + ["2"]) in (0, 3, 4)
        capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        cli.main(["render", "--config", two, "--window", "-1", "1_0"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith("--window: invalid int value: '1_0'\n")
    assert run_cli(["render", "--config", two, "--window", "-1", " +2"], capsys)[0] == 0


def test_oversized_renders_are_refused(tmp_path):
    # run as a child process under a 1 GB address-space limit, so a build
    # that tries to draw the picture fails here instead of filling memory
    tall = tmp_path / "tall.cfg"
    tall.write_text("sand-config v1\nkind: finite\nat 0 100000000000\n")
    wide = ["--window", "-1000000000", "1000000000"]
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    for argv in (
        ["render", "--config", str(tall)],
        ["render", "--config", str(tall), *wide],
        ["render", "--config", str(tall), "--dump", *wide],
        ["simulate", "--rule", "S", "--config", str(tall), "--steps", "1",
         "--render", "ascii"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", *argv], env=env,
            capture_output=True, text=True, timeout=5, preexec_fn=limit,
        )
        assert done.returncode == 1
        assert "over the limit of 1000000 cells" in done.stderr


def test_wide_finite_files_are_refused(tmp_path, monkeypatch, capsys):
    # child processes under a 1 GB address-space limit: the span is checked
    # before any column of the core is built
    wide = tmp_path / "wide.cfg"
    wide.write_text(
        "sand-config v1\nkind: finite\nat -1000000000000 1\nat 1000000000000 1\n"
    )
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SANDLAB_MAX_CORE", None)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    for argv in (["render", "--config", str(wide)], ["distance", str(wide), str(wide)]):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", *argv], env=env,
            capture_output=True, text=True, timeout=5, preexec_fn=limit,
        )
        assert done.returncode == 4
        assert "finite core spans 2000000000001 columns (cap 65536)" in done.stderr
    # 70,001 columns: over the default cap, under a raised one
    near = tmp_path / "near.cfg"
    near.write_text("sand-config v1\nkind: finite\nat -35000 1\nat 35000 1\n")
    monkeypatch.delenv("SANDLAB_MAX_CORE", raising=False)
    assert run_cli(["distance", str(near), str(near)], capsys)[0] == 4
    monkeypatch.setenv("SANDLAB_MAX_CORE", "70001")
    code, out, err = run_cli(["distance", str(near), str(near)], capsys)
    assert code == 0, err


def test_non_utf8_files_exit_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    for argv in (
        ["simulate", "--rule", str(bad), "--config", cfg("two-grain-column"),
         "--steps", "1"],
        ["render", "--config", str(bad)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {str(bad)!r} is not UTF-8 text (byte 0)\n"


def test_splice_refuses_periods_over_the_core_cap():
    # child processes under a 1 GB address-space limit: the period is refused
    # before the target's periodicity test reads a period of columns
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SANDLAB_MAX_CORE", None)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    for rule in ("S", "X"):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", "splice", "--rule", rule,
             "--config", cfg("sandpile-collision-b"), "--target",
             cfg("sandpile-collision-a"), "--period", "100000000000"],
            env=env, capture_output=True, text=True, timeout=10, preexec_fn=limit,
        )
        assert done.returncode == 4
        assert done.stderr == (
            "error: splice period spans 100000000000 columns (cap 65536)\n"
        )


def test_crown_refuses_periods_over_the_core_cap(tmp_path):
    # child processes under a 1 GB address-space limit: a far support asks
    # for a 2k + 2r + 1 column period, refused before any column is read
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SANDLAB_MAX_CORE", None)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    for far in (10**6, 10**12):
        b = tmp_path / f"far-{far}.cfg"
        b.write_text(f"sand-config v1\nkind: finite\nat {far} 1\nat {far + 1} -1\n")
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", "crown", "--rule", "S",
             "--config-a", cfg("sandpile-collision-a"), "--config-b", str(b)],
            env=env, capture_output=True, text=True, timeout=5, preexec_fn=limit,
        )
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == (
            f"error: crown period spans {2 * far + 5} columns (cap 65536)\n"
        )


def test_huge_search_bounds_exit_cleanly(tmp_path):
    # child processes under a 1 GB address-space limit: the guard and the
    # lazy height values must act before any big number or list is built
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    inj = ["check-injective", "--rule", "S", "--class"]
    surj = ["check-surjective", "--rule", "S", "--target", cfg("step-preimage"),
            "--window", "1", "--class"]
    for argv, code, needle in (
        (inj + ["F", "--window", "30000000", "--height", "1"], 1, "exceeds the guard"),
        (inj + ["P", "--period", "3000000", "--height", "1"], 1, "exceeds the guard"),
        (inj + ["F", "--window", "3", "--height", "100000000000"], 1,
         "exceeds the guard"),
        (surj + ["F", "--height", "100000000000"], 3, "EXHAUSTED_NO_WITNESS"),
        (surj + ["EC", "--height", "2000"], 3, "EXHAUSTED_NO_WITNESS"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", *argv], env=env,
            capture_output=True, text=True, timeout=10, preexec_fn=limit,
        )
        assert done.returncode == code, done.stderr
        assert needle in done.stdout + done.stderr


def test_long_periods_and_far_cores_end_at_once(tmp_path):
    # child processes under a 1 GB address-space limit: canonical forms take
    # time linear in the core plus the periods, and equal keys decide before
    # any column between two cores 10^30 apart is read
    word = [(i * i) % 7 - 3 for i in range(99991)]
    long = tmp_path / "long.cfg"
    long.write_text("sand-config v1\nkind: periodic\nperiod: " + " ".join(map(str, word)) + "\n")
    zero = tmp_path / "zero.cfg"
    zero.write_text("sand-config v1\nkind: finite\n")
    far = tmp_path / "far.cfg"
    far.write_text(
        f"sand-config v1\nkind: general\ncore-start: {10**30}\ncore: 0\n"
        "left-period: 0\nleft-slope: 0\nright-period: 0\nright-slope: 0\n"
    )
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    image = tuple(window_image(make("S"), Configuration.periodic(word).heights(-1, len(word))))
    for argv, code, check in (
        (["simulate", "--rule", "S", "--config", str(long), "--steps", "1"], 0,
         lambda out: parse_config_file(out).heights(0, len(word) - 1) == image),
        (["distance", str(zero), str(far)], 0, lambda out: out == "0\n"),
        (["verify-witness", "--rule", "S", "--config-a", str(zero), "--config-b", str(far)],
         3, lambda out: "valid pair: False" in out),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", *argv], env=env,
            capture_output=True, text=True, timeout=10, preexec_fn=limit,
        )
        assert (done.returncode, done.stderr) == (code, ""), argv
        assert check(done.stdout), argv


def test_huge_rule_radius_exits_on_its_line(tmp_path):
    # child processes under a 1 GB address-space limit: the radius is
    # refused before any window of 2r + 1 columns is read
    rule = tmp_path / "wide.rule"
    rule.write_text("sand-rule v1\nradius: 100000000000\n")
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    for argv in (
        ["simulate", "--rule", str(rule), "--config", cfg("two-grain-column"),
         "--steps", "1"],
        ["check-injective", "--rule", str(rule), "--class", "F", "--window", "1",
         "--height", "1"],
        ["check-surjective", "--rule", str(rule), "--target", cfg("two-grain-column"),
         "--class", "F", "--window", "1", "--height", "1"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sandlab.cli", *argv], env=env,
            capture_output=True, text=True, timeout=10, preexec_fn=limit,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            "error: line 2: radius 100000000000 is over the limit of 64\n"
        )


def test_check_surjective_out_of_nodes_exits_4(monkeypatch, capsys):
    from functools import partial

    from sandlab import analysis

    monkeypatch.setattr(
        analysis, "check_preimage_bounded",
        partial(analysis.check_preimage_bounded, max_nodes=5),
    )
    code, out, err = run_cli(
        ["check-surjective", "--rule", "S", "--target", cfg("two-grain-column"),
         "--class", "F", "--window", "2", "--height", "3"],
        capsys,
    )
    assert code == 4
    assert "verdict: BOUND_EXCEEDED" in out
    assert "details: nodes=5" in out
