"""Config parsing, validation messages, override semantics, task pipelines."""

import copy
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bsderisk as br
from bsderisk import scenario
from bsderisk.cli import main
from bsderisk.scenario import (_moment_rows, apply_overrides, build_scenario, load_config,
                               run_scenario)


def base_config(task="risk"):
    return {
        "scenario_id": "unit",
        "task": task,
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
    }


# --------------------------------------------------------------------------
# file loading


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base_config()))
    assert load_config(path) == base_config()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(br.ConfigParseError):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(br.ConfigParseError):
        load_config(path)


def test_load_config_non_object_root(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(br.ConfigParseError):
        load_config(path)


# --------------------------------------------------------------------------
# overrides


def test_overrides_parse_json_values():
    raw = base_config()
    apply_overrides(raw, ["mc.paths=5000", "model.sigma=0.5"])
    assert raw["mc"]["paths"] == 5000
    assert raw["model"]["sigma"] == 0.5


def test_overrides_fall_back_to_strings():
    raw = base_config()
    apply_overrides(raw, ["driver.family=entropic"])
    assert raw["driver"]["family"] == "entropic"


def test_overrides_accept_json_arrays():
    raw = base_config()
    apply_overrides(raw, ['model.jumps=[{"size": 0.1, "intensity": 0.5}]'])
    assert raw["model"]["jumps"] == [{"size": 0.1, "intensity": 0.5}]


def test_overrides_create_nested_objects():
    raw = base_config()
    apply_overrides(raw, ["method.tolerances.closed_form=0.02"])
    assert raw["method"]["tolerances"]["closed_form"] == 0.02


def test_overrides_reject_missing_equals():
    with pytest.raises(br.ConfigValidationError):
        apply_overrides(base_config(), ["mc.paths"])


def test_overrides_reject_crossing_scalars():
    with pytest.raises(br.ConfigValidationError):
        apply_overrides(base_config(), ["grid.horizon.sub=1"])


key_paths = st.lists(st.text(st.characters(blacklist_characters=".=",
                                           blacklist_categories=("Cs",)),
                             min_size=1, max_size=6), min_size=1, max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def read_path(raw, parts):
    for part in parts:
        raw = raw[part]
    return raw


def is_json(text):
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(parts=key_paths, value=json_values)
def test_override_sets_json_value_at_dotted_path(parts, value):
    raw = {}
    apply_overrides(raw, [".".join(parts) + "=" + json.dumps(value)])
    assert read_path(raw, parts) == value


@settings(max_examples=200, deadline=None)
@given(parts=key_paths, text=st.text(max_size=12))
def test_override_keeps_non_json_text_verbatim(parts, text):
    assume(not is_json(text))
    raw = {}
    apply_overrides(raw, [".".join(parts) + "=" + text])
    assert read_path(raw, parts) == text


# --------------------------------------------------------------------------
# validation


def test_build_scenario_happy_path():
    cfg = build_scenario(base_config())
    assert cfg.scenario_id == "unit"
    assert cfg.task == "risk"
    assert cfg.driver.entropic and cfg.driver.alpha == 2.0
    assert cfg.seed == 11
    assert cfg.resolved["mc"]["seed"] == 11


def test_build_scenario_seed_override_lands_in_resolved():
    cfg = build_scenario(base_config(), seed=99)
    assert cfg.seed == 99
    assert cfg.resolved["mc"]["seed"] == 99


def test_unknown_field_is_named():
    raw = base_config()
    raw["grid"]["zteps"] = 10
    with pytest.raises(br.ConfigValidationError, match="config.grid.zteps"):
        build_scenario(raw)


def test_first_unknown_field_alphabetically():
    raw = base_config()
    raw["model"]["bb"] = 1
    raw["model"]["aa"] = 1
    with pytest.raises(br.ConfigValidationError, match="config.model.aa"):
        build_scenario(raw)


def test_scenario_id_pattern_enforced():
    raw = base_config()
    raw["scenario_id"] = "bad id/with spaces"
    with pytest.raises(br.ConfigValidationError, match="scenario_id"):
        build_scenario(raw)


def test_task_must_be_known():
    raw = base_config(task="price")
    with pytest.raises(br.ConfigValidationError, match="task"):
        build_scenario(raw)


def test_cli_task_must_match_config_task():
    with pytest.raises(br.ConfigValidationError, match="subcommand"):
        build_scenario(base_config(task="solve"), task="risk")


def test_cli_task_fills_missing_config_task():
    raw = base_config()
    del raw["task"]
    cfg = build_scenario(raw, task="risk")
    assert cfg.task == "risk"
    assert cfg.resolved["task"] == "risk"


def test_task_required_somewhere():
    raw = base_config()
    del raw["task"]
    with pytest.raises(br.ConfigValidationError, match="task"):
        build_scenario(raw)


def test_solve_requires_driver_and_payoff():
    raw = base_config(task="solve")
    del raw["driver"]
    with pytest.raises(br.ConfigValidationError, match="driver"):
        build_scenario(raw)
    raw = base_config(task="solve")
    del raw["payoff"]
    with pytest.raises(br.ConfigValidationError, match="payoff"):
        build_scenario(raw)


def test_simulate_needs_no_driver():
    raw = base_config(task="simulate")
    del raw["driver"]
    del raw["payoff"]
    assert build_scenario(raw).driver is None


def test_allocate_requires_decomposition():
    raw = base_config(task="allocate")
    with pytest.raises(br.ConfigValidationError, match="decomposition"):
        build_scenario(raw)


def test_decomposition_builds_portfolio():
    raw = base_config(task="allocate")
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["payoff"] = {
        "decomposition": [
            {"family": "affine", "a": 0.0, "b": 0.5},
            {"family": "affine", "a": 0.2, "b": 0.5},
        ]
    }
    cfg = build_scenario(raw)
    assert isinstance(cfg.payoff, br.PortfolioPayoff)
    assert len(cfg.payoff.components) == 2


def test_decomposition_must_sum_to_stated_family():
    raw = base_config()
    raw["payoff"] = {
        "family": "affine",
        "a": 0.0,
        "b": 1.0,
        "decomposition": [
            {"family": "affine", "a": 0.0, "b": 0.5},
            {"family": "affine", "a": 0.2, "b": 0.5},
        ],
    }
    with pytest.raises(br.ConfigValidationError, match="decomposition"):
        build_scenario(raw)
    raw["payoff"]["a"] = 0.2
    assert isinstance(build_scenario(raw).payoff, br.PortfolioPayoff)


def test_family_with_nonpolynomial_decomposition_rejected():
    raw = base_config()
    raw["payoff"] = {
        "family": "affine",
        "a": 0.0,
        "b": 1.0,
        "decomposition": [{"family": "exp_affine", "a": 1.0, "b": 1.0}],
    }
    with pytest.raises(br.ConfigValidationError, match="family"):
        build_scenario(raw)


def test_clip_wraps_payoff():
    raw = base_config()
    raw["payoff"] = {"family": "exp_affine", "a": 1.0, "b": 1.0,
                     "clip": {"lo": 0.0, "hi": 5.0}}
    cfg = build_scenario(raw)
    assert isinstance(cfg.payoff, br.ClippedPayoff)
    assert cfg.payoff.hi == 5.0


def test_unknown_tolerance_rejected():
    raw = base_config()
    raw["method"] = {"tolerances": {"no_such_tol": 1.0}}
    with pytest.raises(br.ConfigValidationError, match="no_such_tol"):
        build_scenario(raw)


def test_risk_mode_is_unknown_field(tmp_path, capsys):
    # the risk task always runs the backward solve; the closed form is its cross-check
    raw = base_config()
    raw["method"] = {"risk_mode": "entropic-closed-form"}
    with pytest.raises(br.ConfigValidationError,
                       match=r"^unknown field config\.method\.risk_mode$"):
        build_scenario(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["risk", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "unknown field config.method.risk_mode" in capsys.readouterr().err


def test_unscaled_jump_exponent_is_unknown_field(tmp_path, capsys):
    raw = base_config()
    raw["driver"]["unscaled_jump_exponent"] = True
    with pytest.raises(br.ConfigValidationError,
                       match=r"^unknown field config\.driver\.unscaled_jump_exponent$"):
        build_scenario(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["risk", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "unknown field config.driver.unscaled_jump_exponent" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["closed_form", "entropic_identity"])
def test_entropic_verify_checks_require_entropic_driver(check):
    # rejected before any path is simulated, not after the earlier checks ran
    raw = base_config(task="verify")
    raw["driver"] = {"family": "qexp", "alpha": 2.0, "z_coef": 0.1}
    raw["verify"] = {"checks": ["moments", "clark_ocone", check]}
    with pytest.raises(br.ConfigValidationError, match=f"{check} requires an entropic driver"):
        build_scenario(raw)


def test_verify_requires_block():
    raw = base_config(task="verify")
    del raw["driver"]
    del raw["payoff"]
    with pytest.raises(br.ConfigValidationError, match="verify"):
        build_scenario(raw)


def test_verify_checks_must_be_known():
    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["moments", "bogus"]}
    with pytest.raises(br.ConfigValidationError, match="bogus"):
        build_scenario(raw)


def test_verify_checks_must_not_repeat():
    # a repeated check would write its rows twice under the same quantities
    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["moments", "doleans", "moments"]}
    with pytest.raises(br.ConfigValidationError, match="repeats check 'moments'"):
        build_scenario(raw)


def test_verify_phi_jumps_length_checked():
    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["doleans"], "phi_jumps": [0.5, 0.5]}
    with pytest.raises(br.ConfigValidationError, match="phi_jumps"):
        build_scenario(raw)


@pytest.mark.parametrize("paths, phi", [(4, -1.5), (2000, -1.5), (4, -1.0)])
def test_verify_phi_jumps_must_exceed_minus_one(tmp_path, capsys, paths, phi):
    # a per-jump factor 1 + phi <= 0: refused before any path is simulated,
    # rather than failing in the doleans check's log(1 + phi) when no jump is
    # realized (4 paths) or in the density guard when one is (2000 paths)
    raw = {
        "scenario_id": "phi", "task": "verify",
        "grid": {"horizon": 1.0, "steps": 5},
        "mc": {"paths": paths, "seed": 1},
        "model": {"x0": 0.0, "mu": 0.1, "sigma": 0.3,
                  "jumps": [{"size": -0.2, "intensity": 0.01}]},
        "verify": {"checks": ["doleans"], "phi_jumps": [phi]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config-validation-error:") and "config.verify.phi_jumps" in err, err


def test_verify_driver_needed_only_for_driver_checks():
    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["moments", "doleans"]}
    del raw["driver"]
    del raw["payoff"]
    assert build_scenario(raw).driver is None

    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["closed_form"]}
    del raw["driver"]
    with pytest.raises(br.ConfigValidationError, match="driver"):
        build_scenario(raw)


NUMBER_LISTS = {
    "driver.jump_coefs": lambda v: {
        "driver": {"family": "qexp", "alpha": 1.0, "jump_coefs": [v]}},
    "driver.forms[0].jump_coefs": lambda v: {
        "driver": {"family": "sublinear", "forms": [{"z_coef": 0.2, "jump_coefs": [v]}]}},
    "payoff.coeffs": lambda v: {"payoff": {"family": "polynomial", "coeffs": [0.0, v]}},
    "verify.phi_jumps": lambda v: {
        "task": "verify", "verify": {"checks": ["doleans"], "phi_jumps": [v]}},
}


@pytest.mark.parametrize("value", [None, True], ids=["null", "true"])
@pytest.mark.parametrize("field", sorted(NUMBER_LISTS))
def test_number_list_element_must_be_a_finite_number(tmp_path, capsys, field, value):
    # every entry of a number list must be a finite number: null and booleans
    # are refused, not read as 1.0 or failing in float(None)
    raw = {**base_config(), **NUMBER_LISTS[field](value)}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main([raw["task"], "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config-validation-error:") and f"config.{field} " in err, err


def test_coherent_static_needs_only_a_payoff(tmp_path):
    # the static coherent measure is a functional of the claim alone
    raw = base_config(task="verify")
    del raw["driver"]
    raw["verify"] = {"checks": ["coherent_static"]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = run_scenario(build_scenario(raw))
    assert "coherent_rho" in quantities(report.rows) and report.all_passed


def test_qexp_driver_built_with_model_intensities():
    raw = base_config()
    raw["driver"] = {"family": "qexp", "alpha": 1.0, "z_coef": 0.2,
                     "jump_coefs": [0.1], "const": 0.0}
    cfg = build_scenario(raw)
    assert cfg.driver.family == "qexp"
    assert cfg.driver.intensities == (1.5,)


# --------------------------------------------------------------------------
# task pipelines


def quantities(rows):
    return [r.quantity for r in rows]


def test_run_simulate_rows():
    raw = base_config(task="simulate")
    del raw["driver"]
    del raw["payoff"]
    report = run_scenario(build_scenario(raw))
    q = quantities(report.rows)
    assert "terminal_mean" in q and "terminal_variance_gap" in q
    assert report.all_passed
    assert report.provenance["seed"] == 11
    assert report.provenance["config"]["mc"]["paths"] == 2000


def noiseless_simulate_config():
    # sigma = 0 and no jumps: every path is x0 + mu T up to rounding
    raw = base_config(task="simulate")
    del raw["driver"]
    del raw["payoff"]
    raw["model"] = {"x0": 0.0, "mu": 0.1, "sigma": 0.0, "jumps": []}
    raw["mc"] = {"paths": 1000, "seed": 1}
    return raw


def test_noiseless_market_passes_moment_checks(tmp_path):
    # the gaps are rounding against a sampling error of 0; the standard
    # errors' rounding floor lets them pass
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(noiseless_simulate_config()))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = {r.quantity: r for r in run_scenario(build_scenario(noiseless_simulate_config())).rows}
    for name in ("terminal_mean_gap", "terminal_variance_gap"):
        assert rows[name].passed and rows[name].std_error > 0.0, name


def test_shifted_reference_mean_fails_moment_check():
    # paths of a market whose drift is 0.1 (about 11 standard errors) above
    # the configured one
    cfg = build_scenario(base_config(task="simulate"))
    shifted = br.LevyModel(x0=cfg.model.x0, mu=cfg.model.mu + 0.1, sigma=cfg.model.sigma,
                           jumps=cfg.model.jumps)
    rows = {r.quantity: r for r in _moment_rows(
        cfg, br.simulate_paths(cfg.grid, shifted, cfg.paths, cfg.seed))}
    assert not rows["terminal_mean_gap"].passed
    assert rows["terminal_variance_gap"].passed


def test_run_solve_rows():
    report = run_scenario(build_scenario(base_config(task="solve")))
    q = quantities(report.rows)
    assert q[0] == "y0"
    assert "y0_replay_worst_z" in q
    assert report.all_passed


def test_run_risk_rows_include_closed_form_gap():
    raw = base_config(task="risk")
    # 10 steps carry visible time-discretization bias; widen the gap check
    # accordingly and let the acceptance suite enforce the tight bound
    raw["method"] = {"tolerances": {"closed_form": 0.05}}
    report = run_scenario(build_scenario(raw))
    q = quantities(report.rows)
    assert "rho0" in q and "terminal_identity_gap" in q
    assert "rho0_closed_form_gap" in q
    assert report.all_passed
    gap_row = next(r for r in report.rows if r.quantity == "rho0_closed_form_gap")
    assert gap_row.check == "closed_form_within_0.05"


def test_run_risk_closed_form_for_qexp_without_linear_part():
    # a qexp driver with no linear terms is the entropic driver at gamma = alpha
    raw = base_config(task="risk")
    raw["method"] = {"tolerances": {"closed_form": 0.05}}
    entropic = run_scenario(build_scenario(raw)).rows
    raw["driver"] = {"family": "qexp", "alpha": 2.0}
    report = run_scenario(build_scenario(raw))
    gap_row = next(r for r in report.rows if r.quantity == "rho0_closed_form_gap")
    assert gap_row.passed and gap_row.check == "closed_form_within_0.05"
    assert report.rows == entropic
    raw["task"] = "verify"
    raw["verify"] = {"checks": ["closed_form", "entropic_identity"]}
    assert build_scenario(raw).driver.entropic


def test_run_risk_skips_closed_form_for_qexp():
    raw = base_config(task="risk")
    raw["driver"] = {"family": "qexp", "alpha": 1.0, "z_coef": 0.2,
                     "jump_coefs": [0.1]}
    report = run_scenario(build_scenario(raw))
    assert "rho0_closed_form_gap" not in quantities(report.rows)


def test_run_risk_reports_clamp_counts():
    raw = base_config(task="risk")
    raw["driver"] = {"family": "qexp", "alpha": 2.0, "z_coef": 0.1}
    raw["method"] = {"z_clip": 0.2, "upsilon_clip": 0.05}
    cfg = build_scenario(raw)
    report = run_scenario(cfg)
    bundle = br.simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)
    solution = br.solve_bsde(bundle, cfg.driver, -br.terminal_values(bundle, cfg.payoff),
                             cfg.method.regression, nodes=(0,))
    rows = {r.quantity: r for r in report.rows}
    for name, count in (("rho0_clamped_z", solution.clamped_z[0]),
                        ("rho0_clamped_upsilon", solution.clamped_upsilon[0])):
        assert count > 0
        assert rows[name].value == float(count)
        assert rows[name].passed is None and rows[name].check == ""
    assert quantities(report.rows)[:3] == ["rho0", "rho0_clamped_z", "rho0_clamped_upsilon"]


def test_run_allocate_rows():
    raw = base_config(task="allocate")
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["payoff"] = {
        "decomposition": [
            {"family": "affine", "a": 0.0, "b": 0.5},
            {"family": "affine", "a": 0.2, "b": 0.5},
        ]
    }
    raw["method"] = {"quad_nodes": 4}
    report = run_scenario(build_scenario(raw))
    q = quantities(report.rows)
    for name in ("rho0", "alloc_fd_0", "alloc_measure_1", "alloc_shapley_1",
                 "allocation_residual"):
        assert name in q, name
    assert report.all_passed


def test_allocate_task_uses_method_regression():
    raw = base_config(task="allocate")
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["payoff"] = {
        "decomposition": [
            {"family": "affine", "a": 0.0, "b": 0.5},
            {"family": "affine", "a": 0.2, "b": 0.5},
        ]
    }
    raw["method"] = {"degree": 2, "jump_count_features": True}
    cfg = build_scenario(raw)
    rows = {r.quantity: (r.value, r.std_error) for r in run_scenario(cfg).rows}
    bundle = br.simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)

    def report_rows(config):
        report = br.build_allocation_report(bundle, cfg.driver, cfg.payoff, config=config)
        out = {"rho0": (report.rho.value, report.rho.se)}
        for i, (fd, mv, shap) in enumerate(zip(report.fd, report.measure, report.shapley)):
            out.update({f"alloc_fd_{i}": (fd.value, fd.se),
                        f"alloc_measure_{i}": (mv.value, mv.se),
                        f"alloc_shapley_{i}": (shap.value, shap.se)})
        return out

    tuned = report_rows(br.RegressionConfig(degree=2, jump_count_features=True))
    assert {name: rows[name] for name in tuned} == tuned
    default = report_rows(br.RegressionConfig())
    assert all(default[name] != tuned[name] for name in tuned)


def test_run_verify_moments_and_doleans():
    raw = base_config(task="verify")
    raw["verify"] = {"checks": ["moments", "doleans"], "phi_z": 0.4,
                     "phi_jumps": [0.3]}
    del raw["driver"]
    del raw["payoff"]
    report = run_scenario(build_scenario(raw))
    assert report.checks_total >= 4
    assert report.all_passed


def test_run_scenario_is_seed_deterministic():
    r1 = run_scenario(build_scenario(copy.deepcopy(base_config(task="solve"))))
    r2 = run_scenario(build_scenario(copy.deepcopy(base_config(task="solve"))))
    assert [r.value for r in r1.rows] == [r.value for r in r2.rows]


@pytest.mark.parametrize("checks", [["closed_form", "axioms"], ["axioms", "closed_form"],
                                    ["closed_form"]])
def test_verify_solves_claim_once(monkeypatch, checks):
    # the closed_form check reads rho(xi) off the axiom block when both run

    calls = []
    original = scenario.solve_bsde

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "solve_bsde", counted)
    monkeypatch.setattr(br.risk, "solve_bsde", counted)
    raw = base_config(task="verify")
    raw["verify"] = {"checks": checks}
    cfg = build_scenario(raw)
    report = run_scenario(cfg)
    assert len(calls) == 1
    gap = next(r for r in report.rows if r.quantity == "rho0_closed_form_gap")
    # the gap against a standalone solve of xi
    bundle = br.simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)
    xi = br.terminal_values(bundle, cfg.payoff)
    alone = original(bundle, cfg.driver, -xi, cfg.method.regression, nodes=(0,)).y[0][0, 0]
    closed = float(br.entropic_closed_form(cfg.driver.alpha, xi, 0, bundle,
                                           cfg.method.regression)[0])
    assert gap.value == pytest.approx(abs(alone - closed), rel=0.0, abs=1e-10)


def test_verify_entropic_identity_estimates_controls_once(monkeypatch):
    # the identity's gaps fit the closed-form controls in one walk of the
    # per-node fit; the control gaps fit them inside the solver's sweep, on
    # each step's own design, with no walk of their own
    import bsderisk.malliavin as malliavin

    calls = []
    original = malliavin.condexp_at_nodes

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(malliavin, "condexp_at_nodes", counted)
    raw = base_config(task="verify")
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["verify"] = {"checks": ["entropic_identity"], "beta": 0.5}
    report = run_scenario(build_scenario(raw))
    assert "controls_z_l2_gap" in quantities(report.rows)
    assert len(calls) == 1


def test_verify_entropic_identity_raises_the_checks_failure_before_the_solves(monkeypatch):
    # the check's walk runs before the solve, so a failure of the check
    # comes before a failure of the solve
    import bsderisk.malliavin as malliavin

    def failing_solve(*args, **kwargs):
        raise br.SolverFailure("solve failed")

    monkeypatch.setattr(scenario, "solve_bsde", failing_solve)
    raw = base_config(task="verify")
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["verify"] = {"checks": ["entropic_identity"], "beta": 0.5}
    cfg = build_scenario(raw)
    with pytest.raises(br.SolverFailure, match="solve failed"):
        run_scenario(cfg)
    walk = malliavin.condexp_at_nodes

    def failing_fit(*args):
        for node, fitted in walk(*args):
            fitted[:2, 0] = -1.0
            yield node, fitted

    monkeypatch.setattr(malliavin, "condexp_at_nodes", failing_fit)
    with pytest.raises(br.EstimatorFailure, match="normalizer at node 0 on 2 paths"):
        run_scenario(cfg)
    monkeypatch.undo()
    # closed-form rows failing at nodes 2 and 7: the check's forward walk
    # runs first and fails at node 2, before the sweep's consumer meets 7
    split = malliavin._entropic_targets

    def failing_targets(*args):
        targets, rows = split(*args)

        def failing_rows(i, fitted):
            if i in (2, 7):
                raise br.EstimatorFailure(f"closed form fails at node {i}")
            return rows(i, fitted)

        return targets, failing_rows

    for module in (malliavin, scenario):
        monkeypatch.setattr(module, "_entropic_targets", failing_targets)
    with pytest.raises(br.EstimatorFailure, match="fails at node 2$"):
        run_scenario(cfg)


@pytest.mark.parametrize("jumps", [[], [{"size": -0.2, "intensity": 1.5}]],
                         ids=["brownian", "one_mark"])
def test_verify_control_gaps_are_the_whole_field_rms(jumps, solve_stacked):
    # summed node by node, the control gaps are the root mean square of the
    # difference of the solver's whole control fields and entropic_controls'
    raw = base_config(task="verify")
    raw["model"]["jumps"] = jumps
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["verify"] = {"checks": ["entropic_identity"], "beta": 0.5}
    cfg = build_scenario(raw)
    rows = {r.quantity: r.value for r in run_scenario(cfg).rows}
    bundle = br.simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)
    n, reg = bundle.grid.step_count, cfg.method.regression
    xi = br.terminal_values(bundle, cfg.payoff)
    solution = solve_stacked(bundle, cfg.driver, -0.5 * xi, reg)
    closed = br.entropic_controls(bundle, cfg.payoff, 1.0, 0.5, reg)
    assert rows["controls_z_l2_gap"] == pytest.approx(
        np.sqrt(np.mean((solution.z - closed.z) ** 2)), rel=1e-12, abs=0.0)
    if not jumps:
        assert "controls_upsilon_l2_gap" not in rows
        return
    assert rows["controls_upsilon_l2_gap"] == pytest.approx(
        np.sqrt(np.mean((solution.upsilon - closed.upsilon) ** 2)), rel=1e-12, abs=0.0)


def desk_rows_config(task):
    """A 20000-path, 50-step one-mark scenario for the memory tests, without
    jump-count features."""
    raw = base_config(task=task)
    raw["grid"]["steps"] = 50
    raw["mc"] = {"paths": 20_000, "seed": 20240901}
    raw["driver"] = {"family": "entropic", "gamma": 1.0}
    raw["verify"] = {"checks": ["entropic_identity"], "beta": 0.5}
    cfg = build_scenario(raw)
    return cfg, br.simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)


def test_verify_entropic_identity_holds_rows_not_fields(traced_peak):
    # the sweep, whose consumer fits the closed form on each step's design,
    # then the identity check: each holds a fixed number of (M,) rows, at
    # most 44 beyond the walk's c rows of X and their two scratch rows. The
    # solver's controls stored at every node would take 100 rows more.
    cfg, bundle = desk_rows_config("verify")
    rows, peak = traced_peak(scenario._verify_entropic_identity, cfg, bundle)
    assert [r.quantity for r in rows][:2] == ["gamma_exponential_gap", "controls_z_l2_gap"]
    assert peak <= (bundle.stride + 2 + 44) * 8 * bundle.path_count


def test_solve_task_replays_inside_the_sweep(traced_peak):
    # beyond the walk's rows of X, the solve holds its design (4 rows), its
    # workspace (8 rows at K = 1), the node 0 and 1 reads (2 rows) and the
    # replay's kept Y_{i+1} and per-step temporaries (about 10 rows). Y at
    # every node and the controls below N would take 150 rows more.
    cfg, bundle = desk_rows_config("solve")
    rows, peak = traced_peak(scenario._task_solve, cfg, bundle)
    assert [r.quantity for r in rows][-1] == "y0_replay_worst_z" and rows[-1].passed
    assert peak <= (bundle.stride + 2 + 26) * 8 * bundle.path_count
