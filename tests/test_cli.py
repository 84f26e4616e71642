"""Command-line harness: exit codes, report formats, self-test, sweeps."""

import dataclasses
import functools
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import lvim
from lvim import cli, gravity, problems
from lvim.cli import main


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "dt", "tol", "jacobian", "rel_tol", "abs_tol"],
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "jacobian": {"enum": ["full", "frozen"]},
        "rel_tol": {"type": "number"},
        "abs_tol": {"type": "number"},
    },
}

RUN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "config", "samples", "total_iterations",
                 "total_rhs_evals", "wall_time_s", "notes"],
    "properties": {
        "problem": {"type": "string"},
        "config": CONFIG_SCHEMA,
        "samples": {"type": "array",
                    "items": {"type": "array", "items": {"type": "number"}}},
        "total_iterations": {"type": "integer", "minimum": 1},
        "total_rhs_evals": {"type": "integer", "minimum": 1},
        "wall_time_s": {"type": "number", "minimum": 0},
        "notes": {"type": "string"},
        "energy_drift": {"type": "number"},
    },
}

COMPARE_SCHEMA = json.loads(json.dumps(RUN_SCHEMA))
COMPARE_SCHEMA["required"] += ["max_discrepancy", "oracle_steps_accepted",
                               "oracle_steps_rejected", "oracle_rhs_evals"]
COMPARE_SCHEMA["properties"].update({
    "max_discrepancy": {"type": "array", "items": {"type": "number"}},
    "oracle_steps_accepted": {"type": "integer"},
    "oracle_steps_rejected": {"type": "integer"},
    "oracle_rhs_evals": {"type": "integer"},
})


# ----------------------------------------------------------------- exit 0

def test_run_pendulum_csv(tmp_path):
    out = tmp_path / "pendulum.csv"
    assert main(["run", "pendulum", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,theta,theta_dot"
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, 3.1329, 0.0]


def test_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "emden.csv"
    main(["run", "emden", "--out", str(out)])
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        for tok in line.split(","):
            assert f"{float(tok):.17g}" == tok


def test_run_json_schema(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", "white-dwarf", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate(report, RUN_SCHEMA)
    assert report["problem"] == "white-dwarf"
    assert "energy_drift" not in report


def test_compare_bar_json_shoots_with_the_oracle(tmp_path):
    out = tmp_path / "bar.json"
    assert main(["compare", "buckled-bar", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate(report, COMPARE_SCHEMA)
    assert report["problem"] == "buckled-bar"
    acc, rej = report["oracle_steps_accepted"], report["oracle_steps_rejected"]
    assert report["oracle_rhs_evals"] == 7 * acc + 6 * rej + 1
    assert report["max_discrepancy"][0] < 1e-6  # gate C08's theta bound
    assert "(oracle " in report["notes"]


def test_compare_json_schema(tmp_path):
    out = tmp_path / "c.json"
    assert main(["compare", "emden", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate(report, COMPARE_SCHEMA)
    assert max(report["max_discrepancy"]) < 1e-6
    acc, rej = report["oracle_steps_accepted"], report["oracle_steps_rejected"]
    assert report["oracle_rhs_evals"] == 7 * acc + 6 * rej + 1


def test_leo_report_has_energy_drift(tmp_path):
    out = tmp_path / "leo.json"
    assert main(["run", "leo", "--degree", "2", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate(report, RUN_SCHEMA)
    assert abs(report["energy_drift"]) < 1e-6


@pytest.mark.parametrize("command", ["run", "compare"])
def test_leo_field_is_loaded_once_per_command(command, monkeypatch, capsys):
    """The energy drift reads the field the problem was built on."""
    load, calls = cli.load_gravity_model, []

    def spy(path):
        calls.append(path)
        return load(path)
    monkeypatch.setattr(cli, "load_gravity_model", spy)
    assert main([command, "leo", "--gravity-file", "egm8.txt", "--t-end", "10",
                 "--format", "json"]) == 0
    assert "energy_drift" in json.loads(capsys.readouterr().out)
    assert len(calls) == 1


def test_gravity_file_path_is_never_swapped_for_a_bundled_file(tmp_path, capsys):
    """A bare name that is not in the working directory names a bundled
    file; a path that is not there is an error, even when its file name is
    a bundled one."""
    missing = str(tmp_path / "egm8.txt")
    assert main(["run", "leo", "--gravity-file", missing, "--t-end", "10"]) == 1
    assert capsys.readouterr().err == f"lvim: error: gravity file not found: {missing!r}\n"
    assert main(["run", "leo", "--gravity-file", "egm8.txt", "--t-end", "10",
                 "--format", "json"]) == 0
    assert "degree 8 field" in json.loads(capsys.readouterr().out)["notes"]


def test_gravity_degree_above_the_bound_is_one_error_line(tmp_path, capsys):
    typo = tmp_path / "typo.txt"
    typo.write_text(f"mu 1.0 r_ref 1.0 degree {gravity._MAX_DEGREE + 1}\n")
    assert main(["run", "leo", "--gravity-file", str(typo)]) == 1
    assert capsys.readouterr().err == (f"lvim: error: degree must be an integer and in "
                                       f"[0, {gravity._MAX_DEGREE}], got {gravity._MAX_DEGREE + 1}\n")


def test_print_defaults(capsys):
    assert main(["run", "--print-defaults"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == {"emden", "white-dwarf", "mathieu", "pendulum",
                          "blasius", "buckled-bar", "elastica", "leo"}
    assert table["pendulum"]["n"] == 5
    assert table["leo"]["jacobian"] == "frozen"
    assert table["white-dwarf"]["c_param"] == 0.3


def test_print_defaults_are_what_a_bare_run_uses(capsys, monkeypatch):
    """Every problem lists exactly the values its flags can set, each one
    equal to what a bare ``lvim run <name>`` passes on: factory arguments
    to the factory, solver settings to the march (or the bar shoot)."""
    assert main(["run", "--print-defaults"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == set(cli.PROBLEMS)
    parser = cli._build_parser()
    not_settings = {"command", "problem", "print_defaults", "out", "format"}

    class Captured(Exception):
        pass

    for name, problem in cli.PROBLEMS.items():
        listed = table[name]
        assert set(listed) == set(vars(parser.parse_args(["run", name]))) - not_settings
        seen = {}

        @functools.wraps(problem.factory)
        def factory(**kwargs):
            seen["kwargs"] = kwargs
            seen["spec"] = problem.factory(**kwargs)
            return seen["spec"]

        def stop(*args, **kwargs):
            seen["args"], seen["config"] = args, kwargs.get("config")
            raise Captured

        with monkeypatch.context() as m:
            m.setitem(cli.PROBLEMS, name, replace(problem, factory=factory))
            m.setattr(cli, "march", stop)
            m.setattr(cli, "solve_buckled_bar", stop)
            with pytest.raises(Captured):
                main(["run", name])
        for arg, value in seen["kwargs"].items():
            assert listed[problem.flags[arg]] == value, (name, arg)
        spec = seen["spec"]
        if name == "buckled-bar":
            cfg = seen["config"]
            assert listed["guesses"] == list(seen["args"][2])
        else:
            _, _, tf, _, cfg = seen["args"]
            assert listed["t_end"] == tf
            assert (listed["rel_tol"], listed["abs_tol"]) \
                == (spec.rk_defaults.rel_tol, spec.rk_defaults.abs_tol)
        assert (listed["n"], listed["dt"], listed["tol"], listed["jacobian"]) \
            == (cfg.n_basis, cfg.dt, cfg.tol, cfg.jacobian_mode), name


# factory parameters that no flag sets, each with what does set it
SET_ELSEWHERE = {
    ("emden", "xi_start"): "gate C04 checks two series starts",
    ("buckled-bar", "alpha"): "the free-end shoot of solve_buckled_bar",
}


def test_every_factory_parameter_has_a_setter():
    """A factory parameter that neither a flag nor a named caller sets is
    a configuration nothing runs; the oracle tolerances are one constant."""
    unflagged = {(name, arg) for name, problem in cli.PROBLEMS.items()
                 for arg in inspect.signature(problem.factory).parameters
                 if arg not in problem.flags}
    assert unflagged == set(SET_ELSEWHERE)
    fields = {f.name for f in dataclasses.fields(problems.ProblemSpec)}
    assert "rk_defaults" not in fields
    for name, problem in cli.PROBLEMS.items():
        spec = problem.factory(**problem.arguments())
        assert spec.rk_defaults == lvim.RkConfig(), name


def test_factories_are_looked_up_per_call(monkeypatch, tmp_path):
    # a wrapper set on lvim.problems after import (a tracer, a spy) runs
    calls = []
    real = problems.mathieu

    def spy(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(problems, "mathieu", spy)
    assert main(["run", "mathieu", "--t-end", "1",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert calls == [{"delta": 0.5, "epsilon": 0.1}]


def test_retry_ladder_relaxes_and_warns(tmp_path):
    out = tmp_path / "m.json"
    assert main(["run", "mathieu", "--epsilon", "1.0", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["tol"] == 1e-6
    assert "relaxed" in report["notes"]
    assert "growth warning" in report["notes"]


def test_compare_follower_bar_reports_its_sweeps(tmp_path):
    out = tmp_path / "follower.json"
    assert main(["compare", "buckled-bar", "--load-type", "perpendicular-follower",
                 "--load", "25", "--guesses", "2", "2.5", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "outer=3 inner=16" in report["notes"]
    acc, rej = report["oracle_steps_accepted"], report["oracle_steps_rejected"]
    assert report["oracle_rhs_evals"] == 7 * acc + 6 * rej + 1


def test_bar_run_reports_shoot_summary(tmp_path):
    out = tmp_path / "bar.json"
    assert main(["run", "buckled-bar", "--load-type", "dead", "--load", "50",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "theta_prime_0=12.95" in report["notes"]


# ------------------------------------------------------------- exit 1 / 2

def test_unknown_problem_is_usage_error(capsys):
    assert main(["run", "lorenz"]) == 1
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, arg", [
    (["white-dwarf", "--c-param", "nan"], "c_param"), (["mathieu", "--delta", "nan"], "delta"),
    (["mathieu", "--epsilon", "inf"], "epsilon"), (["buckled-bar", "--load", "nan"], "load"),
    (["elastica", "--a-param", "inf"], "a"), (["elastica", "--c-param", "nan"], "c")])
def test_non_finite_problem_parameter_is_usage_error(argv, arg, capsys):
    assert main(["run"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"lvim: error: {arg} must be finite")
    assert err.count("\n") == 1


def test_bad_parameter_is_usage_error(capsys):
    # elastica with c >= a*sqrt(2) has no bounded regime
    assert main(["run", "elastica", "--a-param", "1.0",
                 "--c-param", "1.5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("problem", ["blasius", "pendulum"])
def test_infinite_span_is_usage_error(problem, capsys):
    assert main(["run", problem, "--t-end", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lvim: error: ") and "finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("flag", ["--t-end", "--rel-tol", "--abs-tol"])
def test_bar_rejects_flags_it_cannot_honour(command, flag, capsys):
    # every shot spans s in [0, 1] at the oracle's stock tolerances, so a
    # span or oracle tolerance on the command line is refused, not echoed
    assert main([command, "buckled-bar", flag, "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lvim {command} buckled-bar [-h]")
    assert f"unrecognized arguments: {flag} 0.5" in err


@pytest.mark.parametrize("argv", [
    ["run", "pendulum"], ["sweep", "bar-load"], ["compare", "blasius"],
    ["run", "buckled-bar"], ["compare", "buckled-bar", "--format", "json"],
    ["sweep", "elastica-regimes"], ["sweep", "pendulum-frequency"]])
def test_unwritable_out_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # refused before any factory, march, oracle or shoot runs
    def never(*args, **kwargs):
        raise AssertionError("solved before the --out path was checked")

    for module, name in ((cli, "march"), (cli, "rk45_integrate"),
                         (cli, "solve_buckled_bar"), (problems, "blasius"),
                         (problems, "pendulum_frequency_sweep")):
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lvim: error: ") and str(out) in err


# a later curve's file of each multi-curve sweep run with --out e.csv
LATER_CURVE = {"elastica-regimes": "e-regime2.csv", "bar-load": "e-dead-P50-branch2.csv"}


@pytest.mark.parametrize("argv", [["run", "pendulum"], ["sweep", "elastica-regimes"],
                                  ["sweep", "bar-load"]])
def test_directory_out_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # refused before any march or shot; a multi-curve sweep, which reads
    # --out as a file stem, would otherwise write <dir>-regime1.csv beside
    # the directory, and a per-curve file that is a directory would fail
    # only after every curve was solved and the earlier ones written
    solves = []
    for name in ("march", "solve_buckled_bar"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: solves.append(args))
    cases = [(tmp_path, tmp_path)]
    if argv[-1] in LATER_CURVE:
        cases.append((tmp_path / "e.csv", tmp_path / LATER_CURVE[argv[-1]]))
    for out, directory in cases:
        directory.mkdir(exist_ok=True)
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"lvim: error: cannot write {str(directory)!r}: it is a directory\n"
    assert solves == []
    assert not list(tmp_path.parent.glob(tmp_path.name + "-*"))
    assert [p.name for p in tmp_path.iterdir()] == [d.name for _, d in cases[1:]]


@pytest.mark.parametrize("argv", [
    ["run", "blasius", "--t-end", "2"], ["run", "blasius", "--t-end", "12"],
    ["compare", "blasius", "--t-end", "12"], ["run", "blasius", "--t-end", "20"],
    ["run", "blasius", "--t-end", "30", "--dt", "0.25"]])
def test_blasius_span_sets_only_the_profile_span(argv, capsys):
    # f''(0) comes from a fixed stage-one span, so every span starts from
    # the stock f''(0), bit for bit; a span of 11.5 or more used to make
    # stage one itself diverge, and span 2 started from f''(0) = 0.4413
    assert main(argv + ["--format", "json"]) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    assert samples[0][1:] == problems.blasius().x0.tolist()
    assert samples[-1][0] == float(argv[3])


def test_blasius_diverging_span_fails_in_one_line(capsys):
    # at the stock dt the march diverges near t = 24.6, and the rhs
    # overflows to inf without a RuntimeWarning (filterwarnings = error)
    assert main(["run", "blasius", "--t-end", "30"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lvim: solver failed: ") and err.count("\n") == 1


# What each problem reads, spelled out here rather than taken from the
# registry: the solver flags, then the problem's own.
SOLVER_FLAGS = ("n", "dt", "tol", "jacobian", "t_end", "rel_tol", "abs_tol")
READS = {
    "blasius": SOLVER_FLAGS,
    "emden": SOLVER_FLAGS,
    "white-dwarf": SOLVER_FLAGS + ("c_param",),
    "mathieu": SOLVER_FLAGS + ("delta", "epsilon"),
    "pendulum": SOLVER_FLAGS,
    "buckled-bar": ("n", "dt", "tol", "jacobian", "load_type", "load", "guesses"),
    "elastica": SOLVER_FLAGS + ("a_param", "c_param"),
    "leo": SOLVER_FLAGS + ("gravity_file", "degree"),
}
# a well-formed value for every flag, so that only ownership decides
VALUES = {"n": ["7"], "dt": ["0.5"], "tol": ["1e-8"], "jacobian": ["full"],
          "t_end": ["1"], "rel_tol": ["1e-8"], "abs_tol": ["1e-10"],
          "gravity_file": ["egm8.txt"], "degree": ["3"], "delta": ["3"],
          "epsilon": ["0.2"], "a_param": ["1"], "c_param": ["0.9"],
          "load_type": ["dead"], "load": ["7"], "guesses": ["1", "2"]}


def _option(dest):
    return "--" + dest.replace("_", "-")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name,dest", [
    (name, dest) for name in READS for dest in VALUES
    if dest not in READS[name] + SOLVER_FLAGS])
def test_foreign_flag_is_refused(command, name, dest, capsys):
    # a flag meant for another problem is a usage error, not silently
    # dropped (the bar's refused solver flags have their own test above);
    # the problem's own parser reports it, with the usage of the flags it
    # does take
    stray = [_option(dest)] + VALUES[dest]
    assert main([command, name] + stray) == 1
    err = capsys.readouterr().err
    prog = f"lvim {command} {name}"
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"{prog}: error: unrecognized arguments: {' '.join(stray)}\n" in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("stray", [["--delta", "3"], ["--delta=3"], ["--delta"]])
def test_problem_flag_before_the_problem_is_named(command, stray, capsys):
    # written before the problem name, a problem's flag is not misread as
    # the problem ("invalid choice: '3'") nor handed up as unrecognized
    assert main([command] + stray + ["pendulum"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lvim {command} [-h]")
    assert (f"lvim {command}: error: --delta is not a 'lvim {command}' flag; "
            f"problem flags go after the problem name: "
            f"'lvim {command} <problem> --delta ...'\n") in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name", sorted(READS))
def test_each_problem_takes_exactly_its_flags(command, name, capsys):
    assert set(cli.PROBLEMS) == set(READS)
    assert main([command, name, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    extra = {"--help", "--out", "--format"}
    if command == "compare":
        extra.add("--assert-below")
    assert listed == {_option(dest) for dest in READS[name]} | extra
    argv = [command, name]
    for dest in READS[name]:
        argv += [_option(dest)] + VALUES[dest]
    args = cli._build_parser().parse_args(argv)
    assert all(getattr(args, dest) is not None for dest in READS[name])


def test_readme_cli_examples_parse():
    """Every ``lvim`` line of the README's command-line block parses with
    the real parser (parse only: nothing is solved)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("lvim ")]
    assert len(examples) >= 8
    parser = cli._build_parser()
    for tokens in examples:
        try:
            parser.parse_args(tokens[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(tokens)}")


@pytest.mark.parametrize("argv, code", [
    # grids refused before anything is allocated
    (["run", "pendulum", "--n", "100000000"], 1),
    (["ops-check", "100000000"], 1),
    (["run", "pendulum", "--t-end", "1e300"], 1),
    (["run", "pendulum", "--t-end", "1e300", "--dt", "1e-300"], 1),
    (["run", "elastica", "--a-param", "-1"], 1),
    # huge parameters: a non-finite rhs, with no numpy warning on the way
    (["run", "mathieu", "--delta", "1e300"], 2),
    (["run", "elastica", "--a-param", "1e300"], 2),
    # c*c underflows to 0, so the radicand guard fires at x = 0
    (["run", "elastica", "--c-param", "1e-200"], 2),
    # a NaN guess is refused before the first shot
    (["run", "buckled-bar", "--guesses", "nan", "1"], 1),
    # non-finite solver settings are refused when the config is built
    (["run", "pendulum", "--tol", "inf"], 1),
    (["compare", "pendulum", "--abs-tol", "inf"], 1),
    (["compare", "pendulum", "--rel-tol", "inf"], 1),
    (["run", "pendulum", "--dt", "inf"], 1),
    # an integer too large for a float is out of range, not an overflow
    (["run", "pendulum", "--n", "1" + "0" * 400], 1),
    # nothing to solve, and a coefficient file that is not there
    (["run"], 1),
    (["run", "leo", "--gravity-file", "missing.txt"], 1),
    # an empty amplitude list is not the default list
    (["sweep", "pendulum-frequency", "--amplitudes", ""], 1)])
def test_unworkable_input_is_one_error_line(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = "lvim: error: " if code == 1 else "lvim: solver failed: "
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv, field", [
    (["run", "pendulum", "--tol", "inf"], "tol"),
    (["compare", "pendulum", "--abs-tol", "inf"], "abs_tol"),
    (["compare", "pendulum", "--rel-tol", "inf"], "rel_tol"),
    (["run", "pendulum", "--dt", "inf"], "dt")])
def test_non_finite_solver_setting_names_its_field(argv, field, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"lvim: error: {field} must be finite and positive, got inf\n"


def test_rhs_overflow_is_exit_2(capsys):
    # frozen mode drives the Emden iterate far enough for math.exp to
    # overflow; that is a solver failure, not a usage error
    assert main(["run", "emden", "--jacobian", "frozen"]) == 2
    assert "overflowed" in capsys.readouterr().err


def test_pinned_tolerance_failure_is_exit_2(tmp_path, capsys):
    # dt too coarse for contraction; the pinned tolerance disables retries
    rc = main(["run", "pendulum", "--dt", "5", "--tol", "1e-10",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


# ------------------------------------------------------------ assert gate

def test_assert_below_pass(tmp_path):
    rc = main(["compare", "emden", "--assert-below", "1e-6",
               "--out", str(tmp_path / "a.csv")])
    assert rc == 0


def test_assert_below_failure_still_writes_report(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["compare", "emden", "--assert-below", "1e-13",
               "--format", "json", "--out", str(out)])
    assert rc == 3
    report = json.loads(out.read_text())
    assert max(report["max_discrepancy"]) > 1e-13


def test_assert_below_nan_is_usage_error(monkeypatch, capsys):
    # no discrepancy exceeds NaN, so the gate could never fail: refused
    # before any factory, march or oracle runs
    def never(*args, **kwargs):
        raise AssertionError("solved before the threshold was checked")

    for module, name in ((cli, "march"), (cli, "rk45_integrate"),
                         (problems, "pendulum")):
        monkeypatch.setattr(module, name, never)
    assert main(["compare", "pendulum", "--assert-below", "nan"]) == 1
    err = capsys.readouterr().err
    assert "--assert-below" in err and "NaN" in err


# -------------------------------------------------------------- self-test

def test_ops_check_passes(capsys):
    assert main(["ops-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header + default N = 5, 13, 26
    assert all(line.endswith("pass") for line in lines[1:])


def test_ops_check_rejects_tiny_n(capsys):
    assert main(["ops-check", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lvim: error: n_basis must be an integer and in [2, ")


@pytest.mark.parametrize("argv", [["100000000"], ["5", "100000000"]])
def test_ops_check_refuses_an_unbuildable_n_before_any_output(argv, capsys):
    assert main(["ops-check", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lvim: error: n_basis must be an integer and in [2, ")


# ------------------------------------------------------------------ sweep

@pytest.mark.parametrize("amplitudes", ["", "0.5,,1.5", "0.5,x"])
def test_amplitude_list_that_is_not_numbers_names_its_flag(amplitudes, capsys):
    assert main(["sweep", "pendulum-frequency", "--amplitudes", amplitudes]) == 1
    assert capsys.readouterr().err == \
        f"lvim: error: --amplitudes takes numbers, got {amplitudes!r}\n"


def test_frequency_sweep_table(tmp_path):
    out = tmp_path / "freq.csv"
    assert main(["sweep", "pendulum-frequency",
                 "--amplitudes", "0.5,1.5", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (2, 2)
    assert rows[0, 1] > rows[1, 1]  # softening spring


# the 16 default amplitudes 0.1, 0.3, .., 3.1 and their frequencies, each
# period the root of the velocity interpolant on its segment
DEFAULT_SWEEP_FREQUENCIES = (
    0.9993750325264462, 0.9943776138609428, 0.9843948500220439,
    0.9694493731643775, 0.9495711197567751, 0.9247918189146254,
    0.8951362364557751, 0.8606083466944371, 0.8211689489470162,
    0.776697716454449, 0.7269244000049797, 0.6712921739223695,
    0.6086492472219551, 0.5364062602078575, 0.4473251992253771,
    0.2986415007173966,
)


def test_default_frequency_sweep_is_pinned(tmp_path):
    out = tmp_path / "freq.csv"
    assert main(["sweep", "pendulum-frequency", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], [round(0.1 + 0.2 * k, 10) for k in range(16)])
    assert np.max(np.abs(rows[:, 1] - DEFAULT_SWEEP_FREQUENCIES)) <= 1e-12


def test_bar_sweep_writes_labeled_files(tmp_path):
    out = tmp_path / "bar.csv"
    assert main(["sweep", "bar-load", "--out", str(out)]) == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["bar-dead-P25-branch1.csv", "bar-dead-P50-branch1.csv",
                        "bar-dead-P50-branch2.csv"]
    for name in produced:
        rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert rows[0, 0] == 0.0 and abs(rows[-1, 0] - 1.0) < 1e-12


def test_elastica_sweep_stdout_labels(capsys):
    assert main(["sweep", "elastica-regimes"]) == 0
    out = capsys.readouterr().out
    for label in ("# regime1", "# regime2", "# regime3"):
        assert label in out


# ------------------------------------------------------------- entrypoint

def test_console_script_runs():
    # the child imports the same lvim as this process, installed or not
    src = os.path.dirname(os.path.dirname(lvim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "lvim.cli", "ops-check", "5"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: with it made unimportable, every
    factory (through --print-defaults), the self-test, all three sweeps and
    an oracle comparison still run."""
    script = f"""
import sys
sys.modules["scipy"] = None
from lvim.cli import main
out = {str(tmp_path)!r} + "/"
for argv in (["run", "--print-defaults"], ["ops-check"],
             ["sweep", "pendulum-frequency", "--amplitudes", "0.5,2.5",
              "--out", out + "freq.csv"],
             ["sweep", "elastica-regimes", "--out", out + "e.csv"],
             ["sweep", "bar-load", "--out", out + "bar.csv"],
             ["compare", "white-dwarf", "--out", out + "wd.csv"]):
    code = main(argv)
    if code:
        sys.exit(f"{{argv}} exited {{code}}")
"""
    src = os.path.dirname(os.path.dirname(lvim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
