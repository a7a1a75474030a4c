"""Scenario configs and task pipelines behind the CLI.

A scenario is a JSON document (UTF-8) with the blocks below; dotted paths
(e.g. ``model.sigma``) address individual keys for command-line overrides.

    scenario_id   string, [A-Za-z0-9_.-]+
    task          simulate | solve | risk | allocate | verify (optional;
                  the CLI subcommand takes precedence)
    grid          {"horizon": 1.0, "steps": 50}
    mc            {"paths": 200000, "seed": 20240901}
    model         {"x0": 0.0, "mu": 0.1, "sigma": 0.3,
                   "jumps": [{"size": -0.2, "intensity": 1.5}]}
    driver        {"family": "entropic", "gamma": 2.0}
                  | {"family": "qexp", "alpha": 2.0, "z_coef": 0.0,
                     "jump_coefs": [...], "const": 0.0}
                  | {"family": "sublinear",
                     "forms": [{"z_coef": 0.3, "jump_coefs": [0.1]}, ...]}
                  ("entropic" is shorthand for qexp at alpha = gamma with no
                  linear terms; any such driver gets the entropic closed form)
    payoff        {"family": "affine", "a": 0.0, "b": 1.0}
                  | {"family": "exp_affine", "a": 1.0, "b": 1.0}
                  | {"family": "polynomial", "coeffs": [...]}
                  with optional "clip": {"lo": ..., "hi": ...} and optional
                  "decomposition": [payoff, ...] (the claim is then their
                  exact pathwise sum)
    method        {"degree": 3, "ridge": 1e-8, "jump_count_features": false,
                   "z_clip": 10.0, "upsilon_clip": 5.0, "fd_step": null,
                   "quad_nodes": 16, "tolerances": {}}
    verify        {"checks": [...], "phi_z": 0.5, "phi_jumps": [...],
                   "level": 0.1, "beta": 1.0}
                  (each phi_jumps entry > -1, as the sublinear forms'
                  jump_coefs: the per-jump density factor 1 + phi_k
                  must stay positive)

Every block a task needs must be present (referential completeness);
unknown keys anywhere are validation errors naming the offending field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import build_allocation_report
from .bsde import REPLAY_SE_FLOOR_ULPS, RegressionConfig, residual_replay, solve_bsde
from .drivers import Driver, LinearForm, make_entropic_driver, make_qexp_driver, make_sublinear_driver
from .errors import ConfigParseError, ConfigValidationError
from .malliavin import clark_ocone, gamma_exponential_check
from .market import (
    AffinePayoff,
    ClippedPayoff,
    ExpAffinePayoff,
    JumpMark,
    LevyModel,
    PathBundle,
    Payoff,
    PolynomialPayoff,
    PortfolioPayoff,
    TimeGrid,
    build_grid,
    simulate_paths,
    terminal_values,
)
from .measure import doleans_dade, girsanov_shift_check, kazamaki_check, martingale_diagnostic
from .reporting import Row, RunReport
from .risk import axiom_suite, entropic_closed_form, entropic_coherent_static

__all__ = ["ScenarioConfig", "load_config", "apply_overrides", "build_scenario", "run_scenario"]

TASKS = ("simulate", "solve", "risk", "allocate", "verify")
VERIFY_CHECKS = (
    "moments", "doleans", "closed_form", "clark_ocone", "axioms",
    "entropic_identity", "coherent_static",
)
_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

DEFAULT_TOLERANCES = {
    "mean_sigmas": 4.0,
    "variance_sigmas": 4.0,
    "replay_sigmas": 3.0,
    "closed_form": None,        # resolved per model: 5e-3 diffusive, 1e-2 with jumps
    "doleans_pathwise": 1e-12,
    "martingale_sigmas": 3.0,
    "girsanov_sigmas": 4.0,
    "clark_ocone": 2e-2,
    "fd_measure_gap": 2e-2,
    "fd_measure_sigmas": 4.0,
    "full_allocation": 1e-2,
    "identity_gap": None,       # resolved per model: 3e-2 diffusive, 5e-2 with jumps
    "control_formulas": 3e-2,
    "scaling_identity": 1e-8,
    "entropy_identity": 1e-6,
}


@dataclass
class MethodOptions:
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    fd_step: float | None = None
    quad_nodes: int = 16
    tolerances: dict = field(default_factory=dict)

    def tolerance(self, name: str, fallback=None):
        value = self.tolerances.get(name, DEFAULT_TOLERANCES.get(name))
        return fallback if value is None else value


@dataclass
class VerifyOptions:
    checks: tuple[str, ...]
    phi_z: float = 0.5
    phi_jumps: tuple[float, ...] = ()
    level: float = 0.1
    beta: float = 1.0


@dataclass
class ScenarioConfig:
    scenario_id: str
    task: str
    grid: TimeGrid
    model: LevyModel
    paths: int
    seed: int
    method: MethodOptions
    driver: Driver | None = None
    payoff: Payoff | None = None
    verify: VerifyOptions | None = None
    resolved: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# parsing and validation


def load_config(path) -> dict:
    """Parse the JSON config file; syntax problems raise ConfigParseError."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{p}: config root must be an object")
    return raw


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON, else strings."""
    for item in assignments or ():
        if "=" not in item:
            raise ConfigValidationError(f"override {item!r} is not of the form key=value")
        key, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigValidationError(f"override path {key!r} crosses non-object {part!r}")
            node = nxt
        node[parts[-1]] = value
    return raw


class _Block:
    """Cursor into one config object that tracks consumed keys."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigValidationError(f"{path} must be an object")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    KINDS = {float: "a number", int: "an integer", bool: "a boolean",
             str: "a string", list: "a list", dict: "an object"}

    def take(self, key: str, kind, required: bool = True, default=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigValidationError(f"missing required field {self.path}.{key}")
            return default
        value = self.data[key]
        # bool subclasses int, so only a boolean field accepts true/false
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
            raise ConfigValidationError(f"{self.path}.{key} must be {self.KINDS[kind]}")
        return float(value) if kind is float else value

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            name = sorted(unknown)[0]
            raise ConfigValidationError(f"unknown field {self.path}.{name}")


def _build_model(block: _Block) -> LevyModel:
    x0 = block.take("x0", float)
    mu = block.take("mu", float, required=False, default=0.0)
    sigma = block.take("sigma", float, required=False, default=0.0)
    jumps = []
    for i, entry in enumerate(block.take("jumps", list, required=False, default=[])):
        jb = _Block(entry, f"{block.path}.jumps[{i}]")
        size = jb.take("size", float)
        intensity = jb.take("intensity", float)
        jb.finish()
        try:
            jumps.append(JumpMark(size=size, intensity=intensity))
        except ValueError as exc:
            raise ConfigValidationError(f"{block.path}.jumps[{i}]: {exc}") from exc
    block.finish()
    try:
        return LevyModel(x0=x0, mu=mu, sigma=sigma, jumps=tuple(jumps))
    except ValueError as exc:
        raise ConfigValidationError(f"{block.path}: {exc}") from exc


def _build_driver(block: _Block, intensities: tuple[float, ...]) -> Driver:
    mark_count = len(intensities)
    family = block.take("family", str)
    try:
        if family == "entropic":
            gamma = block.take("gamma", float)
            block.finish()
            return make_entropic_driver(gamma, intensities)
        if family == "qexp":
            alpha = block.take("alpha", float)
            z_coef = block.take("z_coef", float, required=False, default=0.0)
            jump_coefs = block.take("jump_coefs", list, required=False, default=[0.0] * mark_count)
            const = block.take("const", float, required=False, default=0.0)
            block.finish()
            form = LinearForm(z_coef=z_coef, jump_coefs=tuple(float(c) for c in jump_coefs), const=const)
            return make_qexp_driver(alpha, form, intensities)
        if family == "sublinear":
            forms = []
            for i, entry in enumerate(block.take("forms", list)):
                fb = _Block(entry, f"{block.path}.forms[{i}]")
                z_coef = fb.take("z_coef", float, required=False, default=0.0)
                jump_coefs = fb.take("jump_coefs", list, required=False, default=[0.0] * mark_count)
                fb.finish()
                forms.append(LinearForm(z_coef=z_coef, jump_coefs=tuple(float(c) for c in jump_coefs)))
            block.finish()
            return make_sublinear_driver(forms, intensities)
    except ValueError as exc:
        raise ConfigValidationError(f"{block.path}: {exc}") from exc
    raise ConfigValidationError(
        f"{block.path}.family must be entropic, qexp or sublinear, got {family!r}"
    )


def _build_single_payoff(block: _Block) -> Payoff:
    family = block.take("family", str)
    try:
        if family == "affine":
            payoff: Payoff = AffinePayoff(a=block.take("a", float), b=block.take("b", float))
        elif family == "exp_affine":
            payoff = ExpAffinePayoff(a=block.take("a", float), b=block.take("b", float))
        elif family == "polynomial":
            coeffs = block.take("coeffs", list)
            payoff = PolynomialPayoff(coeffs=tuple(float(c) for c in coeffs))
        else:
            raise ConfigValidationError(
                f"{block.path}.family must be affine, exp_affine or polynomial, got {family!r}"
            )
        clip = block.take("clip", dict, required=False)
        if clip is not None:
            cb = _Block(clip, f"{block.path}.clip")
            lo = cb.take("lo", float)
            hi = cb.take("hi", float)
            cb.finish()
            payoff = ClippedPayoff(inner=payoff, lo=lo, hi=hi)
    except ValueError as exc:
        raise ConfigValidationError(f"{block.path}: {exc}") from exc
    return payoff


def _poly_coeffs(payoff: Payoff) -> tuple[float, ...] | None:
    if isinstance(payoff, AffinePayoff):
        return (payoff.a, payoff.b)
    if isinstance(payoff, PolynomialPayoff):
        return payoff.coeffs
    return None


def _build_payoff(block: _Block) -> Payoff:
    decomposition = block.take("decomposition", list, required=False)
    has_family = "family" in block.data
    if decomposition is None and not has_family:
        raise ConfigValidationError(f"{block.path} needs a family or a decomposition")

    components = []
    if decomposition is not None:
        if not decomposition:
            raise ConfigValidationError(f"{block.path}.decomposition must be nonempty")
        for i, entry in enumerate(decomposition):
            cb = _Block(entry, f"{block.path}.decomposition[{i}]")
            components.append(_build_single_payoff(cb))
            cb.finish()

    if has_family:
        outer = _build_single_payoff(block)
        block.finish()
        if decomposition is None:
            return outer
        # a stated family alongside a decomposition must agree symbolically
        outer_coeffs = _poly_coeffs(outer)
        part_coeffs = [_poly_coeffs(c) for c in components]
        if outer_coeffs is None or any(pc is None for pc in part_coeffs):
            raise ConfigValidationError(
                f"{block.path}: family plus decomposition is only checkable for "
                "affine/polynomial components; drop the family"
            )
        width = max(len(outer_coeffs), *(len(pc) for pc in part_coeffs))
        total = np.zeros(width)
        for pc in part_coeffs:
            total[: len(pc)] += pc
        stated = np.zeros(width)
        stated[: len(outer_coeffs)] = outer_coeffs
        if not np.allclose(total, stated, rtol=0.0, atol=1e-12):
            raise ConfigValidationError(
                f"{block.path}.decomposition does not sum to the stated family coefficients"
            )
        return PortfolioPayoff(parts=tuple(components))

    block.finish()
    return PortfolioPayoff(parts=tuple(components))


def _finite_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _build_method(block: _Block | None) -> MethodOptions:
    if block is None:
        return MethodOptions()
    degree = block.take("degree", int, required=False, default=3)
    ridge = block.take("ridge", float, required=False, default=1e-8)
    jump_features = block.take("jump_count_features", bool, required=False, default=False)
    z_clip = block.take("z_clip", float, required=False, default=10.0)
    upsilon_clip = block.take("upsilon_clip", float, required=False, default=5.0)
    fd_step = block.take("fd_step", float, required=False)
    quad_nodes = block.take("quad_nodes", int, required=False, default=16)
    tolerances = block.take("tolerances", dict, required=False, default={})
    block.finish()
    for name, value in tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigValidationError(f"{block.path}.tolerances.{name} is not a known tolerance")
        if not (_finite_number(value) and value >= 0.0):
            raise ConfigValidationError(f"{block.path}.tolerances.{name} must be a finite number >= 0")
    if quad_nodes < 1:
        raise ConfigValidationError(f"{block.path}.quad_nodes must be >= 1")
    if fd_step is not None and not 0.0 < fd_step < math.inf:
        raise ConfigValidationError(f"{block.path}.fd_step must be positive and finite")
    try:
        regression = RegressionConfig(
            degree=degree, ridge=ridge, jump_count_features=jump_features,
            z_clip=z_clip, upsilon_clip=upsilon_clip,
        )
    except ValueError as exc:
        raise ConfigValidationError(f"{block.path}: {exc}") from exc
    return MethodOptions(
        regression=regression, fd_step=fd_step, quad_nodes=quad_nodes,
        tolerances=dict(tolerances),
    )


def _build_verify(block: _Block | None, mark_count: int) -> VerifyOptions | None:
    if block is None:
        return None
    checks = block.take("checks", list)
    for i, c in enumerate(checks):
        if c not in VERIFY_CHECKS:
            raise ConfigValidationError(
                f"{block.path}.checks contains unknown check {c!r}; "
                f"known: {', '.join(VERIFY_CHECKS)}"
            )
        if c in checks[:i]:
            # each check writes its rows once, under quantities no other check uses
            raise ConfigValidationError(f"{block.path}.checks repeats check {c!r}")
    phi_z = block.take("phi_z", float, required=False, default=0.5)
    phi_jumps = block.take("phi_jumps", list, required=False, default=[0.5] * mark_count)
    level = block.take("level", float, required=False, default=0.1)
    beta = block.take("beta", float, required=False, default=1.0)
    block.finish()
    if len(phi_jumps) != mark_count:
        raise ConfigValidationError(
            f"{block.path}.phi_jumps must have one entry per jump mark ({mark_count})"
        )
    if not all(_finite_number(p) for p in (phi_z, *phi_jumps)):
        raise ConfigValidationError(f"{block.path}.phi_z and phi_jumps must be finite numbers")
    if any(p <= -1.0 for p in phi_jumps):
        raise ConfigValidationError(f"{block.path}.phi_jumps entries must be > -1, got {phi_jumps}")
    if not 0.0 < level < math.inf:
        raise ConfigValidationError(f"{block.path}.level must be positive and finite")
    if not 0.0 <= beta < math.inf:
        raise ConfigValidationError(f"{block.path}.beta must be >= 0 and finite")
    return VerifyOptions(
        checks=tuple(checks),
        phi_z=phi_z,
        phi_jumps=tuple(float(p) for p in phi_jumps),
        level=level,
        beta=beta,
    )


def build_scenario(raw: dict, task: str | None = None, seed: int | None = None) -> ScenarioConfig:
    """Validate a parsed config and construct all domain objects."""
    top = _Block(raw, "config")
    scenario_id = top.take("scenario_id", str)
    if not _ID_PATTERN.match(scenario_id):
        raise ConfigValidationError(
            "config.scenario_id must match [A-Za-z0-9_.-]+ for stable file names"
        )
    config_task = top.take("task", str, required=False)
    effective_task = task or config_task
    if effective_task is None:
        raise ConfigValidationError("config.task missing and no subcommand given")
    if effective_task not in TASKS:
        raise ConfigValidationError(f"config.task must be one of {TASKS}, got {effective_task!r}")
    if task and config_task and task != config_task:
        raise ConfigValidationError(
            f"config.task is {config_task!r} but the {task!r} subcommand was invoked"
        )

    gb = _Block(top.take("grid", dict), "config.grid")
    horizon = gb.take("horizon", float)
    steps = gb.take("steps", int)
    gb.finish()
    try:
        grid = build_grid(horizon, steps)
    except ValueError as exc:
        raise ConfigValidationError(f"config.grid: {exc}") from exc

    mb = _Block(top.take("mc", dict), "config.mc")
    paths = mb.take("paths", int)
    cfg_seed = mb.take("seed", int)
    mb.finish()
    if paths < 2:
        # the terminal variance and every standard error need two paths
        raise ConfigValidationError("config.mc.paths must be >= 2")
    effective_seed = cfg_seed if seed is None else seed
    if not 0 <= effective_seed < 2**64:
        raise ConfigValidationError("config.mc.seed must be a 64-bit unsigned integer")

    model = _build_model(_Block(top.take("model", dict), "config.model"))
    intensities = tuple(float(j.intensity) for j in model.jumps)

    driver_raw = top.take("driver", dict, required=False)
    driver = None
    if driver_raw is not None:
        driver = _build_driver(_Block(driver_raw, "config.driver"), intensities)

    payoff_raw = top.take("payoff", dict, required=False)
    payoff = None
    if payoff_raw is not None:
        payoff = _build_payoff(_Block(payoff_raw, "config.payoff"))

    method_raw = top.take("method", dict, required=False)
    method = _build_method(
        _Block(method_raw, "config.method") if method_raw is not None else None)
    verify_raw = top.take("verify", dict, required=False)
    verify = _build_verify(
        _Block(verify_raw, "config.verify") if verify_raw is not None else None,
        model.mark_count,
    )
    top.finish()

    # referential completeness per task
    needs_driver = effective_task in ("solve", "risk", "allocate")
    needs_payoff = effective_task in ("solve", "risk", "allocate")
    if effective_task == "verify":
        if verify is None:
            raise ConfigValidationError("config.verify block is required for the verify task")
        driver_checks = {"closed_form", "axioms", "entropic_identity", "coherent_static"}
        payoff_checks = {"closed_form", "clark_ocone", "axioms",
                         "entropic_identity", "coherent_static"}
        needs_driver = bool(driver_checks & set(verify.checks))
        needs_payoff = bool(payoff_checks & set(verify.checks))
    if needs_driver and driver is None:
        raise ConfigValidationError(f"config.driver is required for the {effective_task} task")
    if needs_payoff and payoff is None:
        raise ConfigValidationError(f"config.payoff is required for the {effective_task} task")
    if effective_task == "allocate" and payoff is not None and payoff.components is None:
        raise ConfigValidationError("config.payoff.decomposition is required for the allocate task")
    if driver is not None and not driver.entropic:
        for check in ("closed_form", "entropic_identity"):
            if effective_task == "verify" and check in verify.checks:
                raise ConfigValidationError(f"verify check {check} requires an entropic driver")

    resolved = json.loads(json.dumps(raw))
    resolved.setdefault("mc", {})["seed"] = effective_seed
    resolved["task"] = effective_task
    return ScenarioConfig(
        scenario_id=scenario_id,
        task=effective_task,
        grid=grid,
        model=model,
        paths=paths,
        seed=effective_seed,
        method=method,
        driver=driver,
        payoff=payoff,
        verify=verify,
        resolved=resolved,
    )


# --------------------------------------------------------------------------
# task pipelines


def _moment_rows(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    x = bundle.terminal
    m = bundle.path_count
    # both standard errors are floored at REPLAY_SE_FLOOR_ULPS epsilons of
    # the quantity's own scale, the mean absolute value for the mean and the
    # mean square for the variance: a noiseless market's gaps are rounding
    # against a sampling error of 0, as in the residual replay
    floor = REPLAY_SE_FLOOR_ULPS * np.finfo(float).eps
    mean = float(x.mean())
    se_mean = max(float(x.std() / math.sqrt(m)), floor * float(np.abs(x).mean()))
    mean_ref = cfg.model.terminal_mean(cfg.grid.horizon)
    var = float(x.var(ddof=1))
    centered = x - mean
    m4 = float(np.mean(centered**4))
    se_var = max(math.sqrt(max(m4 - var**2, 0.0) / m), floor * float(np.mean(x * x)))
    var_ref = cfg.model.terminal_variance(cfg.grid.horizon)
    k_mean = cfg.method.tolerance("mean_sigmas")
    k_var = cfg.method.tolerance("variance_sigmas")
    return [
        Row(sid, "terminal_mean", mean, se_mean),
        Row(sid, "terminal_mean_analytic", mean_ref),
        Row(sid, "terminal_variance", var, se_var),
        Row(sid, "terminal_variance_analytic", var_ref),
        Row(sid, "terminal_mean_gap", abs(mean - mean_ref), se_mean,
            check=f"mean_within_{k_mean:g}_se",
            passed=abs(mean - mean_ref) <= k_mean * se_mean),
        Row(sid, "terminal_variance_gap", abs(var - var_ref), se_var,
            check=f"variance_within_{k_var:g}_se",
            passed=abs(var - var_ref) <= k_var * se_var),
    ]


def _clamp_rows(sid: str, label: str, clamped_z, clamped_upsilon) -> list[Row]:
    """How many driver inputs the sweep clamped; information, not a check."""
    return [Row(sid, f"{label}_clamped_z", float(clamped_z)),
            Row(sid, f"{label}_clamped_upsilon", float(clamped_upsilon))]


def _task_solve(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    xi = terminal_values(bundle, cfg.payoff)
    n = bundle.grid.step_count
    columns = solve_bsde(bundle, cfg.driver, xi, cfg.method.regression,
                         nodes=range(n + 1), controls=True)
    sigmas = cfg.method.tolerance("replay_sigmas")
    replay = residual_replay(bundle, cfg.driver, columns, k_sigma=sigmas)
    return [
        Row(sid, "y0", float(columns.y[0][0, 0]), columns.std_error(0)),
        *_clamp_rows(sid, "y0", columns.clamped_z[0], columns.clamped_upsilon[0]),
        Row(sid, "y0_replay_worst_z", replay.worst_z,
            check=f"replay_within_{sigmas:g}_se", passed=replay.passed),
    ]


def _closed_form_rows(cfg: ScenarioConfig, bundle: PathBundle, xi, rho0: float) -> list[Row]:
    """The entropic closed-form rho0 and its gap to the backward solve's rho0."""
    closed = float(entropic_closed_form(cfg.driver.alpha, xi, 0, bundle, cfg.method.regression)[0])
    tol = cfg.method.tolerance("closed_form", 5e-3 if cfg.model.mark_count == 0 else 1e-2)
    gap = abs(rho0 - closed)
    return [Row(cfg.scenario_id, "rho0_closed_form", closed),
            Row(cfg.scenario_id, "rho0_closed_form_gap", gap,
                check=f"closed_form_within_{tol:g}", passed=gap <= tol)]


def _task_risk(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    xi = terminal_values(bundle, cfg.payoff)
    n = bundle.grid.step_count
    columns = solve_bsde(bundle, cfg.driver, -xi, cfg.method.regression, nodes=(0, 1, n))
    y = columns.y
    rho0 = float(y[0][0, 0])
    rows = [Row(sid, "rho0", rho0, columns.std_error(0))]
    rows += _clamp_rows(sid, "rho0", columns.clamped_z[0], columns.clamped_upsilon[0])
    terminal_gap = float(np.abs(y[n][:, 0] + xi).max())
    rows.append(Row(sid, "terminal_identity_gap", terminal_gap,
                    check="terminal_identity_exact", passed=terminal_gap == 0.0))
    if cfg.driver.entropic:
        rows += _closed_form_rows(cfg, bundle, xi, rho0)
    return rows


def _task_allocate(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    report = build_allocation_report(
        bundle,
        cfg.driver,
        cfg.payoff,
        step=cfg.method.fd_step,
        node_count=cfg.method.quad_nodes,
        tolerance=cfg.method.tolerance("full_allocation"),
        config=cfg.method.regression,
    )
    gap_tol = cfg.method.tolerance("fd_measure_gap")
    gap_sigmas = cfg.method.tolerance("fd_measure_sigmas")
    rows = [Row(sid, "rho0", report.rho.value, report.rho.se),
            Row(sid, "rho0_zero_claim", report.rho_zero.value, report.rho_zero.se)]
    for i, (fd, mv, shap) in enumerate(zip(report.fd, report.measure, report.shapley)):
        rows.append(Row(sid, f"alloc_fd_{i}", fd.value, fd.se))
        rows.append(Row(sid, f"alloc_measure_{i}", mv.value, mv.se))
        rows.append(Row(sid, f"alloc_shapley_{i}", shap.value, shap.se))
        pooled = math.sqrt(fd.se**2 + mv.se**2)
        bound = max(gap_tol, gap_sigmas * pooled)
        gap = report.fd_measure_gaps[i]
        rows.append(Row(sid, f"alloc_gap_{i}", gap, pooled,
                        check=f"fd_vs_measure_{i}", passed=gap <= bound))
    rows.append(Row(sid, "allocation_residual", report.check.residual, report.check.pooled_se,
                    check=f"full_allocation_within_{report.check.tolerance:g}",
                    passed=report.check.passed))
    return rows


def _verify_doleans(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    v = cfg.verify
    m, n, k = cfg.paths, cfg.grid.step_count, cfg.model.mark_count
    # full integrand arrays in the bundle's time-major (N, M) and (N, M, K)
    # storage
    phi_z = np.full((n, m), v.phi_z)
    phi_j = np.full((n, m, k), v.phi_jumps)
    rn = doleans_dade(bundle, phi_z.T, phi_j.transpose(1, 0, 2))

    # closed form for constant integrands, node by node: W(t_i) and the
    # per-mark counts N_k(t_i) are running sums of the bundle's rows
    w, counts = np.zeros(m), np.zeros((k, m))
    gaps = np.empty(n + 1)
    for i in range(n + 1):
        if i:
            w += bundle.dw[:, i - 1]
            counts += bundle.dn[:, i - 1].T
        t = bundle.grid.dt * i
        log_ref = v.phi_z * w - 0.5 * v.phi_z**2 * t
        for j in range(k):
            lam = cfg.model.jumps[j].intensity
            log_ref += counts[j] * math.log1p(v.phi_jumps[j]) - v.phi_jumps[j] * lam * t
        gaps[i] = np.abs(rn.lam[:, i] - np.exp(log_ref)).max()
    gap = float(gaps.max())
    tol = cfg.method.tolerance("doleans_pathwise")

    kaz = kazamaki_check(rn)
    mart = martingale_diagnostic(rn, k_sigma=cfg.method.tolerance("martingale_sigmas"))
    gir = girsanov_shift_check(rn, k_sigma=cfg.method.tolerance("girsanov_sigmas"))
    return [
        Row(sid, "doleans_closed_form_gap", gap,
            check=f"doleans_pathwise_within_{tol:g}", passed=gap <= tol),
        Row(sid, "kazamaki_margin", kaz.worst_margin,
            check="kazamaki", passed=kaz.passed),
        Row(sid, "martingale_worst_gap", float(np.abs(mart.means - 1.0).max()),
            check=f"martingale_within_{mart.k_sigma:g}_se", passed=mart.passed),
        Row(sid, "girsanov_worst_z", gir.worst_z,
            check=f"girsanov_within_{gir.k_sigma:g}_se", passed=gir.passed),
    ]


def _verify_entropic_identity(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    gamma = cfg.driver.alpha
    beta = cfg.verify.beta
    gap_tol = cfg.method.tolerance(
        "identity_gap", 3e-2 if cfg.model.mark_count == 0 else 5e-2)
    ctl_tol = cfg.method.tolerance("control_formulas")
    reg = cfg.method.regression

    report = gamma_exponential_check(bundle, cfg.payoff, gamma, beta, reg)
    xi = terminal_values(bundle, cfg.payoff)
    n = bundle.grid.step_count
    columns = solve_bsde(bundle, cfg.driver, -beta * xi, reg, nodes=range(n), controls=True)
    # time-major stacks viewed as (M, N) and (M, N, K), the storage of the
    # closed-form controls they are compared with
    z = np.stack([columns.z[i][:, 0] for i in range(n)]).T
    z_gap = float(np.sqrt(np.mean((z - report.controls.z) ** 2)))
    rows = [
        Row(sid, "gamma_exponential_gap", report.max_gap,
            check=f"gamma_exponential_within_{gap_tol:g}", passed=report.max_gap <= gap_tol),
        Row(sid, "controls_z_l2_gap", z_gap,
            check=f"controls_z_within_{ctl_tol:g}", passed=z_gap <= ctl_tol),
    ]
    if cfg.model.mark_count:
        rows.append(Row(sid, "gamma_exponential_gap_linearized", report.max_gap_linearized))
        ups = np.stack([columns.upsilon[i][:, 0] for i in range(n)]).transpose(1, 0, 2)
        u_gap = float(np.sqrt(np.mean((ups - report.controls.upsilon) ** 2)))
        rows.append(Row(sid, "controls_upsilon_l2_gap", u_gap,
                        check=f"controls_upsilon_within_{ctl_tol:g}",
                        passed=u_gap <= ctl_tol))
    return rows


def _verify_coherent_static(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    xi = terminal_values(bundle, cfg.payoff)
    level = cfg.verify.level
    result = entropic_coherent_static(level, xi)
    rows = [
        Row(sid, "coherent_gamma", result.gamma if result.gamma is not None else float("nan")),
        Row(sid, "coherent_rho", result.rho),
    ]
    if result.degenerate:
        rows.append(Row(sid, "coherent_degenerate", 1.0,
                        check="degenerate_claim", passed=True))
        return rows
    ent_tol = cfg.method.tolerance("entropy_identity")
    rows.append(Row(sid, "coherent_entropy_gap", abs(result.entropy_gap),
                    check=f"entropy_identity_within_{ent_tol:g}",
                    passed=abs(result.entropy_gap) <= ent_tol))
    scale_tol = cfg.method.tolerance("scaling_identity")
    for beta in (0.5, 2.0):
        scaled = entropic_coherent_static(level, beta * xi)
        gap = abs(scaled.rho - beta * result.rho)
        rows.append(Row(sid, f"coherent_scaling_gap_beta_{beta:g}", gap,
                        check=f"scaling_identity_within_{scale_tol:g}",
                        passed=gap <= scale_tol))
    return rows


def _task_verify(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    reg = cfg.method.regression
    rows: list[Row] = []
    # the axiom block's first column is rho(xi), which the closed_form check
    # then reads instead of solving xi again
    axioms = None
    for check in cfg.verify.checks:
        if check == "moments":
            rows.extend(_moment_rows(cfg, bundle))
        elif check == "doleans":
            rows.extend(_verify_doleans(cfg, bundle))
        elif check == "closed_form":
            xi = terminal_values(bundle, cfg.payoff)
            if "axioms" in cfg.verify.checks:
                axioms = axioms or axiom_suite(bundle, cfg.driver, cfg.payoff, config=reg)
                rho0 = axioms.rho
            else:
                y = solve_bsde(bundle, cfg.driver, -xi, reg, nodes=(0,)).y
                rho0 = float(y[0][0, 0])
            rows.append(_closed_form_rows(cfg, bundle, xi, rho0)[1])
        elif check == "clark_ocone":
            co = clark_ocone(bundle, cfg.payoff, reg)
            tol = cfg.method.tolerance("clark_ocone")
            rows.append(Row(sid, "clark_ocone_residual", co.residual,
                            check=f"clark_ocone_within_{tol:g}",
                            passed=co.residual <= tol))
        elif check == "axioms":
            axioms = axioms or axiom_suite(bundle, cfg.driver, cfg.payoff, config=reg)
            for row in axioms.rows:
                rows.append(Row(sid, f"axiom_{row.axiom}_{row.case}".replace(" ", "_"),
                                row.residual, check=row.axiom, passed=row.passed))
        elif check == "entropic_identity":
            rows.extend(_verify_entropic_identity(cfg, bundle))
        elif check == "coherent_static":
            rows.extend(_verify_coherent_static(cfg, bundle))
    return rows


_TASK_RUNNERS = {
    "simulate": _moment_rows,
    "solve": _task_solve,
    "risk": _task_risk,
    "allocate": _task_allocate,
    "verify": _task_verify,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the scenario's task pipeline and assemble the report."""
    bundle = simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)
    rows = _TASK_RUNNERS[cfg.task](cfg, bundle)
    provenance = {
        "scenario_id": cfg.scenario_id,
        "task": cfg.task,
        "seed": cfg.seed,
        "version": __version__,
        "config": cfg.resolved,
    }
    return RunReport(scenario_id=cfg.scenario_id, rows=rows, provenance=provenance)
