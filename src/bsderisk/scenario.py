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
                  | {"family": "qexp", "alpha": 2.0, "z_coef": ...,
                     "jump_coefs": [...], "const": ...}
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
    method        optional "degree", "ridge", "jump_count_features", "z_clip"
                  and "upsilon_clip" (RegressionConfig), "fd_step",
                  "quad_nodes" and "tolerances" (MethodOptions)
    verify        {"checks": [...]} with optional "phi_z", "phi_jumps" (one
                  entry per jump mark, each > -1 so that the per-jump
                  density factor 1 + phi_k stays positive), "level" and
                  "beta" (VerifyOptions)

Every entry of a number list is a finite JSON number. A key left out takes
the default of the object it configures; jump_coefs and phi_jumps default
per jump mark. Every block the task, or one of its verify checks, reads
must be present (``_TASKS``, ``_CHECK_READS``); unknown keys anywhere are
validation errors naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import build_allocation_report
from .bsde import REPLAY_SE_FLOOR_ULPS, Estimate, RegressionConfig, residual_replay, solve_bsde
from .drivers import Driver, LinearForm, make_entropic_driver, make_qexp_driver, make_sublinear_driver
from .errors import ConfigParseError, ConfigValidationError
from .malliavin import clark_ocone, gamma_exponential_check
from .market import (
    MAX_STEP_RATE,
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
from .reporting import SCENARIO_ID, Row, RunReport
from .risk import axiom_suite, entropic_closed_form, entropic_coherent_static

__all__ = ["ScenarioConfig", "load_config", "apply_overrides", "build_scenario", "run_scenario"]

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


def _finite_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here, nor is an
    integer beyond the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class _Block:
    """Cursor into one config object that tracks consumed keys."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigValidationError(f"{path} must be an object")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    KINDS = {float: "a finite number", int: "an integer", bool: "a boolean",
             str: "a string", list: "a list", dict: "an object",
             tuple: "a list of finite numbers"}

    def take(self, key: str, kind, required: bool = True, default=None):
        """The value of ``key`` read as ``kind``: float reads a finite number
        as a float, tuple a list of finite numbers as a tuple of floats.
        Booleans are numbers for no kind."""
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigValidationError(f"missing required field {self.path}.{key}")
            return default
        value = self.data[key]
        if kind is tuple:
            if isinstance(value, list) and all(map(_finite_number, value)):
                return tuple(float(v) for v in value)
        elif kind is float:
            if _finite_number(value):
                return float(value)
        # bool subclasses int, so only a boolean field accepts true/false
        elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
            return value
        raise ConfigValidationError(f"{self.path}.{key} must be {self.KINDS[kind]}")

    def block(self, key: str, required: bool = True):
        """The object ``key`` as a block, or None when it is optional and absent."""
        value = self.take(key, dict, required)
        return None if value is None else _Block(value, f"{self.path}.{key}")

    def blocks(self, key: str, required: bool = True) -> list:
        """The objects of the list ``key`` as blocks, none when it is absent."""
        return [_Block(entry, f"{self.path}.{key}[{i}]")
                for i, entry in enumerate(self.take(key, list, required, default=[]))]

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            name = sorted(unknown)[0]
            raise ConfigValidationError(f"unknown field {self.path}.{name}")

    def build(self, make, required: dict, optional: dict | None = None, **defaults):
        """make(**keys) on the required keys and the present optional ones,
        each read by its kind, once the block is known to set no other key.
        An absent optional key is not passed, so make's own default applies
        unless ``defaults`` names one. A ValueError from make becomes a
        validation error naming the block."""
        keys = {key: self.take(key, kind) for key, kind in required.items()}
        keys.update((key, self.take(key, kind))
                    for key, kind in (optional or {}).items() if key in self.data)
        self.finish()
        try:
            return make(**{**defaults, **keys})
        except ValueError as exc:
            raise ConfigValidationError(f"{self.path}: {exc}") from exc


def _build_model(block: _Block) -> LevyModel:
    marks = [jb.build(JumpMark, {"size": float, "intensity": float})
             for jb in block.blocks("jumps", required=False)]
    return block.build(LevyModel, {"x0": float}, {"mu": float, "sigma": float}, jumps=tuple(marks))


def _build_driver(block: _Block, intensities) -> Driver:
    family = block.take("family", str)
    linear = {"z_coef": float, "jump_coefs": tuple}
    # the one default that depends on the market: a zero jump coefficient per mark
    zeros = {"jump_coefs": (0.0,) * len(intensities)}
    if family == "entropic":
        return block.build(lambda gamma: make_entropic_driver(gamma, intensities), {"gamma": float})
    if family == "qexp":
        return block.build(
            lambda alpha, **form: make_qexp_driver(alpha, LinearForm(**form), intensities),
            {"alpha": float}, {**linear, "const": float}, **zeros)
    if family == "sublinear":
        forms = [fb.build(LinearForm, {}, linear, **zeros) for fb in block.blocks("forms")]
        return block.build(lambda: make_sublinear_driver(forms, intensities), {})
    raise ConfigValidationError(
        f"{block.path}.family must be entropic, qexp or sublinear, got {family!r}"
    )


_PAYOFF_FAMILIES = {
    "affine": (AffinePayoff, {"a": float, "b": float}),
    "exp_affine": (ExpAffinePayoff, {"a": float, "b": float}),
    "polynomial": (PolynomialPayoff, {"coeffs": tuple}),
}


def _build_single_payoff(block: _Block) -> Payoff:
    family = block.take("family", str)
    if family not in _PAYOFF_FAMILIES:
        raise ConfigValidationError(
            f"{block.path}.family must be affine, exp_affine or polynomial, got {family!r}"
        )
    clip = block.block("clip", required=False)
    payoff = block.build(*_PAYOFF_FAMILIES[family])
    if clip is None:
        return payoff
    return clip.build(ClippedPayoff, {"lo": float, "hi": float}, inner=payoff)


def _poly_coeffs(payoff: Payoff) -> tuple[float, ...] | None:
    if isinstance(payoff, AffinePayoff):
        return (payoff.a, payoff.b)
    if isinstance(payoff, PolynomialPayoff):
        return payoff.coeffs
    return None


def _build_payoff(block: _Block) -> Payoff:
    if "decomposition" not in block.data:
        if "family" not in block.data:
            raise ConfigValidationError(f"{block.path} needs a family or a decomposition")
        return _build_single_payoff(block)
    components = [_build_single_payoff(cb) for cb in block.blocks("decomposition")]
    if not components:
        raise ConfigValidationError(f"{block.path}.decomposition must be nonempty")
    if "family" not in block.data:
        block.finish()
        return PortfolioPayoff(parts=tuple(components))

    # a stated family alongside a decomposition must agree symbolically
    stated = _poly_coeffs(_build_single_payoff(block))
    parts = [_poly_coeffs(c) for c in components]
    if stated is None or None in parts:
        raise ConfigValidationError(
            f"{block.path}: family plus decomposition is only checkable for "
            "affine/polynomial components; drop the family"
        )
    gap = np.polynomial.Polynomial(stated) - sum(map(np.polynomial.Polynomial, parts))
    if np.abs(gap.coef).max() > 1e-12:
        raise ConfigValidationError(
            f"{block.path}.decomposition does not sum to the stated family coefficients"
        )
    return PortfolioPayoff(parts=tuple(components))


_REGRESSION_KEYS = {"degree": int, "ridge": float, "jump_count_features": bool,
                    "z_clip": float, "upsilon_clip": float}


def _method_options(**keys) -> MethodOptions:
    regression = RegressionConfig(**{key: keys.pop(key) for key in _REGRESSION_KEYS if key in keys})
    return MethodOptions(regression=regression, **keys)


def _build_method(block: _Block) -> MethodOptions:
    method = block.build(_method_options, {}, {
        **_REGRESSION_KEYS, "fd_step": float, "quad_nodes": int, "tolerances": dict})
    for name, value in method.tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigValidationError(f"{block.path}.tolerances.{name} is not a known tolerance")
        if not (_finite_number(value) and value >= 0.0):
            raise ConfigValidationError(f"{block.path}.tolerances.{name} must be a finite number >= 0")
    if method.quad_nodes < 1:
        raise ConfigValidationError(f"{block.path}.quad_nodes must be >= 1")
    if method.fd_step is not None and not method.fd_step > 0.0:
        raise ConfigValidationError(f"{block.path}.fd_step must be positive and finite")
    return method


def _build_verify(block: _Block, mark_count: int) -> VerifyOptions:
    # the one default that depends on the market: phi_jumps at 0.5 per mark
    verify = block.build(
        lambda checks, **keys: VerifyOptions(checks=tuple(checks), **keys), {"checks": list},
        {"phi_z": float, "phi_jumps": tuple, "level": float, "beta": float},
        phi_jumps=(0.5,) * mark_count)
    for i, c in enumerate(verify.checks):
        if c not in VERIFY_CHECKS:
            raise ConfigValidationError(
                f"{block.path}.checks contains unknown check {c!r}; "
                f"known: {', '.join(VERIFY_CHECKS)}"
            )
        if c in verify.checks[:i]:
            # each check writes its rows once, under quantities no other check uses
            raise ConfigValidationError(f"{block.path}.checks repeats check {c!r}")
    if len(verify.phi_jumps) != mark_count:
        raise ConfigValidationError(
            f"{block.path}.phi_jumps must have one entry per jump mark ({mark_count})"
        )
    if any(p <= -1.0 for p in verify.phi_jumps):
        raise ConfigValidationError(
            f"{block.path}.phi_jumps entries must be > -1, got {list(verify.phi_jumps)}")
    if not verify.level > 0.0:
        raise ConfigValidationError(f"{block.path}.level must be positive and finite")
    if not verify.beta >= 0.0:
        raise ConfigValidationError(f"{block.path}.beta must be >= 0 and finite")
    return verify


def build_scenario(raw: dict, task: str | None = None, seed: int | None = None) -> ScenarioConfig:
    """Validate a parsed config and construct all domain objects."""
    top = _Block(raw, "config")
    scenario_id = top.take("scenario_id", str)
    if not SCENARIO_ID.fullmatch(scenario_id):
        raise ConfigValidationError(
            f"config.scenario_id must match {SCENARIO_ID.pattern} for stable file names"
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

    grid = top.block("grid").build(
        lambda horizon, steps: build_grid(horizon, steps), {"horizon": float, "steps": int})

    paths, cfg_seed = top.block("mc").build(lambda paths, seed: (paths, seed),
                                            {"paths": int, "seed": int})
    if paths < 2:
        # the terminal variance and every standard error need two paths
        raise ConfigValidationError("config.mc.paths must be >= 2")
    effective_seed = cfg_seed if seed is None else seed
    if not 0 <= effective_seed < 2**64:
        raise ConfigValidationError("config.mc.seed must be a 64-bit unsigned integer")

    model = _build_model(top.block("model"))
    for k, rate in enumerate(model.jump_intensities * grid.dt):
        if rate > MAX_STEP_RATE:
            raise ConfigValidationError(
                f"config.model.jumps[{k}].intensity gives {rate:g} jumps per step, "
                f"above {MAX_STEP_RATE:g}; use more grid steps")
    block = top.block("driver", required=False)
    driver = None if block is None else _build_driver(block, model.jump_intensities)
    block = top.block("payoff", required=False)
    payoff = None if block is None else _build_payoff(block)
    method = _build_method(top.block("method", required=False) or _Block({}, "config.method"))
    block = top.block("verify", required=False)
    verify = None if block is None else _build_verify(block, model.mark_count)
    top.finish()

    # referential completeness: every block the task, or one of its checks, reads
    checks = verify.checks if effective_task == "verify" and verify is not None else ()
    reads = set(_TASKS[effective_task][1]).union(*(_CHECK_READS[c] for c in checks))
    for name, value in (("verify", verify), ("driver", driver), ("payoff", payoff)):
        if name in reads and value is None:
            raise ConfigValidationError(f"config.{name} is required for the {effective_task} task")
    if effective_task == "allocate" and payoff.components is None:
        raise ConfigValidationError("config.payoff.decomposition is required for the allocate task")
    entropic = [c for c in checks if "entropic" in _CHECK_READS[c]]
    if entropic and not driver.entropic:
        raise ConfigValidationError(f"verify check {entropic[0]} requires an entropic driver")

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
    y0 = columns.estimate(0)
    return [
        Row(sid, "y0", y0.value, y0.se),
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
    columns = solve_bsde(bundle, cfg.driver, -xi, cfg.method.regression, nodes=(0, n))
    rho0 = columns.estimate(0)
    rows = [Row(sid, "rho0", rho0.value, rho0.se)]
    rows += _clamp_rows(sid, "rho0", columns.clamped_z[0], columns.clamped_upsilon[0])
    terminal_gap = float(np.abs(columns.y[n][:, 0] + xi).max())
    rows.append(Row(sid, "terminal_identity_gap", terminal_gap,
                    check="terminal_identity_exact", passed=terminal_gap == 0.0))
    if cfg.driver.entropic:
        rows += _closed_form_rows(cfg, bundle, xi, rho0.value)
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
    for i, routes in enumerate(zip(report.fd, report.measure, report.shapley)):
        rows += [Row(sid, f"alloc_{name}_{i}", est.value, est.se)
                 for name, est in zip(("fd", "measure", "shapley"), routes)]
        gap = Estimate.combine((1.0, -1.0), routes[:2])
        rows.append(Row(sid, f"alloc_gap_{i}", abs(gap.value), gap.se, check=f"fd_vs_measure_{i}",
                        passed=abs(gap.value) <= max(gap_tol, gap_sigmas * gap.se)))
    rows.append(Row(sid, "allocation_residual", report.check.residual, report.check.pooled_se,
                    check=f"full_allocation_within_{report.check.tolerance:g}",
                    passed=report.check.passed))
    return rows


def _verify_doleans(cfg: ScenarioConfig, bundle: PathBundle) -> list[Row]:
    sid = cfg.scenario_id
    v = cfg.verify
    m, n, k = cfg.paths, cfg.grid.step_count, cfg.model.mark_count
    # the constant integrands stay broadcast views (doleans_dade)
    rn = doleans_dade(bundle, v.phi_z, v.phi_jumps)

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


# The requirement table. Each task names its runner and the blocks it reads,
# and each verify check the blocks it reads; the verify task reads the blocks
# of its checks, and "entropic" marks a check that needs an entropic driver.
_TASKS = {
    "simulate": (_moment_rows, ()),
    "solve": (_task_solve, ("driver", "payoff")),
    "risk": (_task_risk, ("driver", "payoff")),
    "allocate": (_task_allocate, ("driver", "payoff")),
    "verify": (_task_verify, ("verify",)),
}
_CHECK_READS = {
    "moments": (),
    "doleans": (),
    "closed_form": ("driver", "payoff", "entropic"),
    "clark_ocone": ("payoff",),
    "axioms": ("driver", "payoff"),
    "entropic_identity": ("driver", "payoff", "entropic"),
    "coherent_static": ("payoff",),
}
TASKS = tuple(_TASKS)
VERIFY_CHECKS = tuple(_CHECK_READS)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the scenario's task pipeline and assemble the report."""
    bundle = simulate_paths(cfg.grid, cfg.model, cfg.paths, cfg.seed)
    runner, _ = _TASKS[cfg.task]
    rows = runner(cfg, bundle)
    provenance = {
        "scenario_id": cfg.scenario_id,
        "task": cfg.task,
        "seed": cfg.seed,
        "version": __version__,
        "config": cfg.resolved,
    }
    return RunReport(scenario_id=cfg.scenario_id, rows=rows, provenance=provenance)
