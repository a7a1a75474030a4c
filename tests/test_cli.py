"""End-to-end command-line behavior: files, determinism, exit codes."""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsderisk.cli import main
from bsderisk.errors import SolverFailure
from bsderisk.reporting import Row, RunReport, emit_report, read_report


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "scenario_id": "cli-unit",
        "task": "risk",
        "grid": {"horizon": 1.0, "steps": 10},
        "mc": {"paths": 2000, "seed": 11},
        "model": {
            "x0": 0.0,
            "mu": 0.1,
            "sigma": 0.3,
            "jumps": [{"size": -0.2, "intensity": 1.5}],
        },
        "driver": {"family": "entropic", "gamma": 2.0},
        "payoff": {"family": "affine", "a": 0.0, "b": 1.0},
        "method": {"tolerances": {"closed_form": 0.05}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_risk_run_writes_payload_and_sidecar(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("risk", "--config", config_path, "--out", out)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == str(out / "cli-unit.csv")
    assert lines[1] == str(out / "cli-unit.provenance.json")
    assert lines[2].startswith("checks passed ")
    assert (out / "cli-unit.csv").exists()
    sidecar = json.loads((out / "cli-unit.provenance.json").read_text())
    assert sidecar["task"] == "risk"
    assert sidecar["seed"] == 11
    assert "wall_seconds" in sidecar


def test_payload_bytes_identical_across_reruns(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("risk", "--config", config_path, "--out", a) == 0
    assert run_cli("risk", "--config", config_path, "--out", b) == 0
    assert (a / "cli-unit.csv").read_bytes() == (b / "cli-unit.csv").read_bytes()
    # wall clock lives only in the sidecar
    sa = json.loads((a / "cli-unit.provenance.json").read_text())
    sb = json.loads((b / "cli-unit.provenance.json").read_text())
    sa.pop("wall_seconds"), sb.pop("wall_seconds")
    assert sa == sb


def test_set_override_reaches_provenance(config_path, tmp_path):
    out = tmp_path / "out"
    code = run_cli("risk", "--config", config_path, "--out", out,
                   "--set", "mc.paths=1500", "--set", "model.mu=0.2")
    # the smaller sample may fail the closed-form gap check; this test is
    # about override plumbing, so any completed run will do
    assert code in (0, 1)
    sidecar = json.loads((out / "cli-unit.provenance.json").read_text())
    assert sidecar["config"]["mc"]["paths"] == 1500
    assert sidecar["config"]["model"]["mu"] == 0.2


def test_seed_flag_replaces_config_seed(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("risk", "--config", config_path, "--out", out, "--seed", 123) == 0
    sidecar = json.loads((out / "cli-unit.provenance.json").read_text())
    assert sidecar["seed"] == 123
    assert sidecar["config"]["mc"]["seed"] == 123


def test_json_lines_format_round_trips(config_path, tmp_path):
    csv_dir, jl_dir = tmp_path / "c", tmp_path / "j"
    assert run_cli("risk", "--config", config_path, "--out", csv_dir) == 0
    assert run_cli("risk", "--config", config_path, "--out", jl_dir,
                   "--format", "json-lines") == 0
    from_csv = read_report(csv_dir / "cli-unit.csv")
    from_jl = read_report(jl_dir / "cli-unit.jsonl")
    assert from_csv.rows == from_jl.rows


texts = st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from(',"\''),
                max_size=10)
numbers = st.none() | st.floats()
report_rows = st.lists(st.builds(Row, scenario_id=texts, quantity=texts, value=numbers,
                                 std_error=numbers, check=texts,
                                 passed=st.none() | st.booleans()), max_size=5)


def same_number(a, b):
    if a is None or b is None:
        return a is b
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


EDGE_ROWS = [Row('a,"b"', "\u00e9\u4e2d", -0.0, float("nan"), "c'", False),
             Row("x", "y", float("inf"), float("-inf"), "", True), Row("", "", None, 1e-300)]


@settings(max_examples=150, deadline=None)
@given(rows=report_rows, fmt=st.sampled_from(["csv", "json-lines"]))
@example(rows=EDGE_ROWS, fmt="csv")
@example(rows=EDGE_ROWS, fmt="json-lines")
def test_report_round_trip_property(rows, fmt):
    # None, NaN, +-inf and -0.0 values, None or bool pass flags, and strings
    # with commas, quotes and non-ASCII text come back as written, and
    # re-emitting what was read reproduces the payload bytes
    with tempfile.TemporaryDirectory() as tmp:
        first, _ = emit_report(RunReport("rt", rows), fmt, Path(tmp) / "a")
        back = read_report(first).rows
        second, _ = emit_report(RunReport("rt", back), fmt, Path(tmp) / "b")
        assert second.read_bytes() == first.read_bytes()
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert (got.scenario_id, got.quantity, got.check, got.passed) == (
            want.scenario_id, want.quantity, want.check, want.passed)
        assert same_number(got.value, want.value)
        assert same_number(got.std_error, want.std_error)


def test_report_reemits_identical_payload(config_path, tmp_path):
    first, second = tmp_path / "f", tmp_path / "s"
    assert run_cli("risk", "--config", config_path, "--out", first) == 0
    assert run_cli("report", "--in", first / "cli-unit.csv", "--out", second) == 0
    assert (first / "cli-unit.csv").read_bytes() == (second / "cli-unit.csv").read_bytes()


@pytest.mark.parametrize("name, text, message", [
    ("bad.csv", "scenario_id,quantity,value,std_error,check,pass\nx,rho0,abc,,,\n",
     "bad.csv:2: bad row: could not convert"),
    ("bad.jsonl", '{"quantity": "rho0", "value": 1.0, "std_error": null, "check": "", '
     '"pass": null}\n', "bad.jsonl:1: row lacks the field 'scenario_id'"),
    ("bad.csv", "scenario_id,quantity,value,std_error,check,pass\nx,rho0,1.0,,c,maybe\n",
     "bad.csv:2: bad row: pass flag 'maybe'"),
], ids=["csv-value", "jsonl-missing-field", "csv-pass-flag"])
def test_report_rejects_malformed_rows(tmp_path, capsys, name, text, message):
    # a malformed row is a parse error (exit 2) naming the file and its line,
    # as a bad header is
    payload = tmp_path / name
    payload.write_text(text)
    assert run_cli("report", "--in", payload, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("config-parse-error: ") and message in err, err


@pytest.mark.parametrize("scenario_id", ["../escaped", "sub/dir"])
@pytest.mark.parametrize("name, line", [
    ("p.csv", "scenario_id,quantity,value,std_error,check,pass\n{id},rho0,1.0,,,\n"),
    ("p.jsonl", '{{"scenario_id": "{id}", "quantity": "rho0", "value": 1.0, '
     '"std_error": null, "check": "", "pass": null}}\n'),
], ids=["csv", "jsonl"])
def test_report_writes_nothing_outside_out(tmp_path, capsys, scenario_id, name, line):
    # the first row's scenario id names the re-emitted files, so an id that
    # is not a file name is a parse error and nothing is written
    payload = tmp_path / "in" / name
    payload.parent.mkdir()
    payload.write_text(line.format(id=scenario_id))
    assert run_cli("report", "--in", payload, "--out", tmp_path / "out" / "a") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config-parse-error: {payload}: ") and scenario_id in err, err
    assert not (tmp_path / "out").exists()


def test_out_env_fallback(config_path, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BSDERISK_OUT", str(target))
    assert run_cli("risk", "--config", config_path) == 0
    assert (target / "cli-unit.csv").exists()


def test_failing_check_exits_one(config_path, tmp_path, capsys):
    code = run_cli("risk", "--config", config_path, "--out", tmp_path / "o",
                   "--set", "method.tolerances.closed_form=1e-9")
    assert code == 1
    assert "checks passed" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = run_cli("risk", "--config", bad, "--out", tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("config-parse-error:")


@pytest.mark.parametrize("argv, kind, name, data", [
    (["risk", "--config"], "config", "bad.json", b"\xff\xfe{}"),
    (["report", "--in"], "report", "bad.csv",
     b"scenario_id,quantity,value,std_error,check,pass\n\xff,rho0,1,,,\n"),
], ids=["config", "report"])
def test_file_that_is_not_utf8_exits_two(tmp_path, capsys, argv, kind, name, data):
    bad = tmp_path / name
    bad.write_bytes(data)
    assert run_cli(*argv, bad, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config-parse-error: cannot read {kind} {bad}: "), err


def test_validation_error_exits_three(config_path, tmp_path, capsys):
    code = run_cli("risk", "--config", config_path, "--out", tmp_path,
                   "--set", "model.sigma=-1")
    assert code == 3
    assert capsys.readouterr().err.startswith("config-validation-error:")


VERIFY = ["--set", "task=verify",
          "--set", 'verify={"checks": ["entropic_identity", "coherent_static"]}']


@pytest.mark.parametrize("command, override", [
    ("verify", "verify.beta=-1"),
    ("verify", "verify.beta=Infinity"),
    ("verify", "verify.level=Infinity"),
    ("verify", "verify.phi_z=NaN"),
    ("verify", "verify.phi_jumps=[NaN]"),
    ("risk", "method.tolerances.closed_form=NaN"),
    ("risk", "method.tolerances.closed_form=-1"),
    ("risk", "method.tolerances.closed_form=abc"),
    ("risk", "method.fd_step=Infinity"),
    ("risk", "model.x0=Infinity"),
    ("risk", "model.mu=NaN"),
    ("risk", "model.sigma=NaN"),
    ("risk", "method.ridge=NaN"),
    ("risk", "method.z_clip=NaN"),
    ("risk", "method.upsilon_clip=Infinity"),
    ("risk", "driver.gamma=NaN"),
], ids=str)
def test_non_finite_config_value_exits_three(config_path, tmp_path, capsys, command, override):
    flags = VERIFY if command == "verify" else []
    code = run_cli(command, "--config", config_path, "--out", tmp_path, *flags,
                   "--set", override)
    assert code == 3
    err = capsys.readouterr().err
    field = override.split("=")[0].split(".")[-1]
    assert err.startswith("config-validation-error:") and field in err, err


@pytest.mark.parametrize("override, field", [
    ('driver={"family": "qexp", "alpha": 2.0, "z_coef": NaN}', "z_coef"),
    ('driver={"family": "qexp", "alpha": 2.0, "const": Infinity}', "const"),
    ('driver={"family": "sublinear", "forms": [{"z_coef": NaN}]}', "z_coef"),
    ('payoff={"family": "affine", "a": 0.0, "b": 1.0, "clip": {"lo": -Infinity, "hi": 1.0}}',
     "lo"),
    ("model.x0=1" + "0" * 400, "x0"),  # an integer beyond the float range
], ids=["qexp-z_coef", "qexp-const", "sublinear-z_coef", "clip-lo", "huge-x0"])
def test_non_finite_number_exits_three(config_path, tmp_path, capsys, override, field):
    code = run_cli("risk", "--config", config_path, "--out", tmp_path,
                   "--set", "mc.paths=200", "--set", "grid.steps=5", "--set", override)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config-validation-error:") and field in err, err


def test_jump_rate_above_step_bound_exits_three(config_path, tmp_path, capsys):
    # 1e5 jumps a year on 50 steps is 2000 a step, above the bound of 1000
    code = run_cli("risk", "--config", config_path, "--out", tmp_path, "--set", "grid.steps=50",
                   "--set", 'model.jumps=[{"size": -0.2, "intensity": 1e5}]')
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config-validation-error:")
    assert "config.model.jumps[0].intensity" in err, err


def test_deterministic_solve_passes_its_replay(tmp_path):
    # sigma = 0 and no jumps: the replay's sampling error is exactly 0 and its
    # means are rounding, which the floored standard error lets pass
    cfg = {
        "scenario_id": "deterministic",
        "grid": {"horizon": 1.0, "steps": 10},
        "mc": {"paths": 1000, "seed": 1},
        "model": {"x0": 0.0, "mu": 0.1, "sigma": 0.0},
        "driver": {"family": "qexp", "alpha": 1.0, "const": 0.3},
        "payoff": {"family": "affine", "a": 0.1, "b": 3.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("solve", "--config", path, "--out", tmp_path / "out") == 0
    rows = read_report(tmp_path / "out" / "deterministic.csv").rows
    replay = next(r for r in rows if r.quantity == "y0_replay_worst_z")
    assert replay.passed and 0.0 < replay.value < 1.0


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--set", "task=simulate"]),
    ("verify", ["--set", "task=verify", "--set", 'verify={"checks": ["moments"]}']),
], ids=["simulate", "verify-moments"])
def test_single_path_exits_three(config_path, tmp_path, capsys, command, flags):
    # one path has no sample variance: the run is refused, not written as NaN
    code = run_cli(command, "--config", config_path, "--out", tmp_path, *flags,
                   "--set", "mc.paths=1")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config-validation-error:") and "config.mc.paths" in err, err
    assert not (tmp_path / "cli-unit.csv").exists()


def test_unsupported_payoff_exits_three(config_path, tmp_path, capsys):
    # exp(1000 x) overflows on the simulated paths
    code = run_cli("risk", "--config", config_path, "--out", tmp_path, "--set",
                   'payoff={"family": "exp_affine", "a": 1.0, "b": 1000.0}')
    assert code == 3
    assert capsys.readouterr().err.startswith("unsupported-payoff:")


@pytest.mark.parametrize("check", ["clark_ocone", "entropic_identity"])
def test_overflowing_jump_field_exits_three(config_path, tmp_path, capsys, check):
    # exp(700 x) is finite at X(T) near 0.9 but overflows after the jump of 0.3
    code = run_cli(
        "verify", "--config", config_path, "--out", tmp_path, "--set", "task=verify",
        "--set", 'model={"x0": 0.9, "mu": 0.0, "sigma": 0.01, '
                 '"jumps": [{"size": 0.3, "intensity": 1e-6}]}',
        "--set", "mc.seed=7",
        "--set", 'payoff={"family": "exp_affine", "a": 1.0, "b": 700.0}',
        "--set", f'verify={{"checks": ["{check}"]}}',
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("unsupported-payoff: payoff derivative fields are non-finite"), err


def test_task_mismatch_exits_three(config_path, tmp_path, capsys):
    code = run_cli("solve", "--config", config_path, "--out", tmp_path)
    assert code == 3
    assert "subcommand" in capsys.readouterr().err


def test_solver_failure_exits_four(config_path, tmp_path, capsys, monkeypatch):
    import bsderisk.cli as cli_mod

    def boom(cfg, wall_seconds=None):
        raise SolverFailure("regression system is singular")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    code = run_cli("risk", "--config", config_path, "--out", tmp_path)
    assert code == 4
    assert capsys.readouterr().err.startswith("solver-failure:")


def test_signed_density_exits_five(config_path, tmp_path, capsys):
    # 1 + dg/du = e^{u} - 1.5 < 0 for u below log 1.5: the allocation sweep's
    # densities fail on the paths that jump there
    code = run_cli(
        "allocate", "--config", config_path, "--out", tmp_path,
        "--set", "task=allocate",
        "--set", 'driver={"family": "qexp", "alpha": 1.0, "jump_coefs": [-1.5]}',
        "--set", 'payoff={"decomposition": [{"family": "affine", "a": 0.0, "b": 0.5},'
                 ' {"family": "affine", "a": 0.0, "b": 0.5}]}',
    )
    assert code == 5
    assert capsys.readouterr().err.startswith("estimator-failure/signed-density:")


@pytest.mark.parametrize("phi_z", ["1e154", "1e155", "-1e155"])
def test_doleans_check_with_a_vanishing_density_exits_five(config_path, tmp_path, capsys, phi_z):
    # phi_z^2 dt / 2 beyond about 1e306 drives the density to 0 on every
    # path, and at 1e155 phi_z^2 itself is beyond the float range: the
    # reweighted Girsanov means are refused, not a traceback
    code = run_cli("verify", "--config", config_path, "--out", tmp_path, "--set", "task=verify",
                   "--set", 'verify={"checks": ["doleans"]}', "--set", f"verify.phi_z={phi_z}")
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("estimator-failure: weights must be finite and nonnegative"), err
    assert not (tmp_path / "cli-unit.csv").exists()


def test_console_script_is_installed(config_path, tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "bsderisk.cli", "risk",
         "--config", str(config_path), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "cli-unit.csv").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by its one caller, not by every CLI run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bsderisk.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_allocate_non_normalized_driver_passes_full_allocation(tmp_path, capsys):
    # g(0, 0) = 0.3: the Aumann-Shapley sum recovers rho(xi) - rho(0), not rho(xi)
    cfg = {
        "scenario_id": "desk-qexp",
        "task": "allocate",
        "grid": {"horizon": 1.0, "steps": 20},
        "mc": {"paths": 20000, "seed": 20240901},
        "model": {"x0": 0.0, "mu": 0.1, "sigma": 0.3,
                  "jumps": [{"size": -0.2, "intensity": 1.5}]},
        "driver": {"family": "qexp", "alpha": 1.0, "const": 0.3},
        "payoff": {"decomposition": [{"family": "affine", "a": a, "b": b}
                                     for a, b in ((0.0, 0.5), (0.2, 0.3), (-0.1, 0.2))]},
    }
    path = tmp_path / "qexp.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("allocate", "--config", path, "--out", tmp_path / "o") == 0
    rows = {r.quantity: r for r in read_report(tmp_path / "o" / "desk-qexp.csv").rows}
    assert rows["rho0_zero_claim"].value == pytest.approx(0.3, abs=1e-12)
    assert rows["allocation_residual"].passed
