"""Acceptance suite: every shipping criterion at full desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured value against its tolerance. Scale is fixed at
200000 paths, 50 steps, horizon 1, seed 20240901; every criterion finishes
in well under two minutes on commodity hardware.
"""

import json
import math
import time

import numpy as np
import pytest

import bsderisk as br
from bsderisk.cli import main as cli_main

DESK_SEED = 20240901
PATHS = 200_000
STEPS = 50
HORIZON = 1.0

GAMMA, MU, SIGMA, LAM, ZETA = 2.0, 0.1, 0.3, 1.5, -0.2

# closed forms for the identity claim xi = X(1), x0 = 0:
# rho0 = -mu + g sigma^2/2 [+ (lam/g)(e^{-g zeta} - 1)]
BROWNIAN_RHO = -MU + GAMMA * SIGMA**2 / 2
JUMP_RHO = BROWNIAN_RHO + (LAM / GAMMA) * (math.exp(-GAMMA * ZETA) - 1.0)

_clock = {}


def check(num, label, ok, detail):
    elapsed = time.monotonic() - _clock.pop(num, time.monotonic())
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} [{elapsed:5.1f}s] {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def start(num):
    _clock[num] = time.monotonic()


@pytest.fixture(scope="module")
def desk_grid():
    return br.build_grid(HORIZON, STEPS)


@pytest.fixture(scope="module")
def brownian_desk(desk_grid):
    model = br.LevyModel(x0=0.0, mu=MU, sigma=SIGMA)
    return br.simulate_paths(desk_grid, model, PATHS, DESK_SEED)


@pytest.fixture(scope="module")
def jump_desk(desk_grid):
    model = br.LevyModel(
        x0=0.0, mu=MU, sigma=SIGMA, jumps=(br.JumpMark(size=ZETA, intensity=LAM),)
    )
    return br.simulate_paths(desk_grid, model, PATHS, DESK_SEED)


@pytest.fixture(scope="module")
def desk_parts():
    return (
        br.AffinePayoff(0.0, 0.5),
        br.AffinePayoff(0.2, 0.3),
        br.AffinePayoff(-0.1, 0.2),
    )


@pytest.fixture(scope="module")
def alloc_driver():
    return br.make_entropic_driver(1.0, (LAM,))


def _alloc_report(bundle, driver, parts, nodes):
    return br.build_allocation_report(
        bundle, driver, br.PortfolioPayoff(parts), node_count=nodes, tolerance=1e-2
    )


@pytest.fixture(scope="module")
def alloc_report_16(jump_desk, alloc_driver, desk_parts):
    return _alloc_report(jump_desk, alloc_driver, desk_parts, 16)


@pytest.fixture(scope="module")
def sublinear_driver():
    return br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,)), br.LinearForm(-0.25, (0.5,))), (LAM,)
    )


def test_c01_entropic_brownian_identity(brownian_desk):
    start(1)
    driver = br.make_entropic_driver(GAMMA)
    rho0 = br.dynamic_risk(brownian_desk, driver, brownian_desk.terminal)[0]
    gap = abs(rho0 - BROWNIAN_RHO)
    check(1, "entropic Brownian identity claim", gap <= 5e-3,
          f"rho0={rho0:.6f} ref={BROWNIAN_RHO:.6f} gap={gap:.2e} tol=5e-3")


def test_c02_entropic_jump_identity(jump_desk):
    start(2)
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    rho0 = br.dynamic_risk(jump_desk, driver, jump_desk.terminal)[0]
    gap = abs(rho0 - JUMP_RHO)
    check(2, "entropic jump identity claim", gap <= 1e-2,
          f"rho0={rho0:.6f} ref={JUMP_RHO:.6f} gap={gap:.2e} tol=1e-2")


def test_c03_gradient_routes_agree(alloc_report_16):
    start(3)
    report = alloc_report_16
    details = []
    ok = True
    for i, (fd, mv, gap) in enumerate(
        zip(report.fd, report.measure, report.fd_measure_gaps)
    ):
        pooled = math.sqrt(fd.se**2 + mv.se**2)
        bound = max(2e-2, 4 * pooled)
        ok &= gap <= bound
        details.append(f"dir{i}: gap={gap:.2e} bound={bound:.2e}")
    check(3, "finite-difference vs measure-change gradients", ok, "; ".join(details))


def test_c04_aumann_shapley_sums_to_risk(jump_desk, alloc_driver, desk_parts, alloc_report_16):
    start(4)
    report16 = alloc_report_16
    ok = report16.check.passed
    detail = (
        f"rho0={report16.check.rho:.6f} allocated={report16.check.allocated:.6f} "
        f"residual={report16.check.residual:.2e} tol=1e-2"
    )
    # refinement: the residual must not degrade beyond one pooled SE
    residuals, pooled = [], []
    for nodes in (4, 8):
        rep = _alloc_report(jump_desk, alloc_driver, desk_parts, nodes)
        residuals.append(rep.check.residual)
        pooled.append(rep.check.pooled_se)
    residuals.append(report16.check.residual)
    pooled.append(report16.check.pooled_se)
    mono = (residuals[1] <= residuals[0] + pooled[1]
            and residuals[2] <= residuals[1] + pooled[2])
    detail += f"; residuals 4/8/16 nodes: {residuals[0]:.2e}/{residuals[1]:.2e}/{residuals[2]:.2e}"
    check(4, "full allocation and quadrature refinement", ok and mono, detail)


def test_c05_sublinear_homogeneity(sublinear_driver, jump_desk, desk_parts):
    start(5)
    driver = sublinear_driver
    payoff = br.PortfolioPayoff(desk_parts)
    xi = br.terminal_values(jump_desk, payoff)
    rho0 = br.dynamic_risk(jump_desk, driver, xi)[0]
    scale_tol = 1e-2 * (1.0 + abs(rho0))
    details = [f"rho0={rho0:.6f}"]
    ok = True
    for beta in (0.25, 0.5, 2.0):
        rho_b = br.dynamic_risk(jump_desk, driver, beta * xi)[0]
        gap = abs(rho_b - beta * rho0)
        ok &= gap <= scale_tol
        details.append(f"beta={beta:g}: gap={gap:.2e} tol={scale_tol:.2e}")
    report = _alloc_report(jump_desk, driver, desk_parts, 16)
    for i, (shap, grad) in enumerate(zip(report.shapley, report.measure)):
        g_gap = abs(shap.value - grad.value)
        ok &= g_gap <= 1e-2
        details.append(f"AS vs gradient dir{i}: gap={g_gap:.2e} tol=1e-2")
    coh = br.convex_representation(jump_desk, driver, xi, node_count=1)
    c_gap = abs(coh.value - rho0)
    ok &= c_gap <= 2e-2
    details.append(f"coherent repr gap={c_gap:.2e} tol=2e-2")
    check(5, "positively homogeneous driver", ok, "; ".join(details))


def test_c06_convex_representation(brownian_desk, jump_desk):
    start(6)
    details = []
    ok = True
    for name, bundle, lam in (("brownian", brownian_desk, ()),
                              ("jump", jump_desk, (LAM,))):
        driver = br.make_entropic_driver(GAMMA, lam)
        xi = bundle.terminal
        rho0 = br.dynamic_risk(bundle, driver, xi)[0]
        est = br.convex_representation(bundle, driver, xi, node_count=16)
        gap = abs(est.value - rho0)
        ok &= gap <= 2e-2
        details.append(f"{name}: rho0={rho0:.6f} repr={est.value:.6f} gap={gap:.2e}")
    check(6, "convex dual representation", ok, "; ".join(details) + " tol=2e-2")


def test_c07_doleans_dade_density(jump_desk):
    start(7)
    report = br.doleans_check(jump_desk, 0.5, (0.5,))
    pathwise = report.closed_form_gap
    mart = not np.any(np.abs(report.means - 1.0) > 3.0 * report.std_errors)
    mean_gap = float(abs(report.means[-1] - 1.0))
    ok = pathwise <= 1e-12 and mart and report.worst_z <= 4.0
    check(7, "stochastic exponential and measure change", ok,
          f"pathwise={pathwise:.2e} tol=1e-12; |mean-1|={mean_gap:.2e} "
          f"within 3 SE: {mart}; girsanov worst z={report.worst_z:.2f} (4 SE)")


def test_c08_clark_ocone(jump_desk):
    start(8)
    affine = br.clark_ocone(jump_desk, br.AffinePayoff(0.1, 0.8))
    clipped = br.clark_ocone(
        jump_desk, br.ClippedPayoff(br.ExpAffinePayoff(1.0, 1.0), 0.0, 5.0)
    )
    ok = affine.residual <= 1e-10 and clipped.residual <= 2e-2
    check(8, "predictable representation", ok,
          f"affine residual={affine.residual:.2e} tol=1e-10; "
          f"clipped exp residual={clipped.residual:.2e} tol=2e-2")


def test_c09_entropic_value_process(brownian_desk, jump_desk):
    start(9)
    # position size 0.5: at beta = 1 the desk claim's exponential spread
    # exceeds what a cubic fit of the normalizer keeps positive, which the
    # estimator turns into a typed failure by design
    gamma, beta = 1.0, 0.5
    payoff = br.AffinePayoff(0.0, 1.0)
    rep_b = br.gamma_exponential_check(brownian_desk, payoff, gamma, beta)
    rep_j = br.gamma_exponential_check(jump_desk, payoff, gamma, beta)
    controls = br.entropic_controls(jump_desk, payoff, gamma, beta)
    # the solver's controls against the closed form's, node by node inside
    # the sweep: the squared gaps of z (row 0) and upsilon (row 1)
    squares = np.zeros((2, jump_desk.grid.step_count))

    def compare(step):
        i = step.node
        squares[0, i] = np.square(step.z[:, 0] - controls.z[:, i]).sum()
        squares[1, i] = np.square(step.upsilon[:, 0] - controls.upsilon[:, i]).sum()

    br.solve_bsde(jump_desk, br.make_entropic_driver(gamma, (LAM,)), -beta * jump_desk.terminal,
                  nodes=(), consumers=(compare,))
    cells = jump_desk.path_count * jump_desk.grid.step_count
    z_gap, u_gap = map(float, np.sqrt(squares.sum(axis=1) / cells))
    ok = (rep_b.max_gap <= 3e-2 and rep_j.max_gap <= 5e-2
          and z_gap <= 3e-2 and u_gap <= 3e-2)
    check(9, "entropic value process identity and controls", ok,
          f"exp gap brownian={rep_b.max_gap:.2e} tol=3e-2, jump={rep_j.max_gap:.2e} "
          f"tol=5e-2; control L2 gaps z={z_gap:.2e} ups={u_gap:.2e} tol=3e-2")


def test_c09_full_position_fails_on_its_normalizer(jump_desk):
    # the beta = 1 case c09 avoids: the cubic fit of the normalizer goes
    # non-positive on one path at node 46, and the check raises that fit's
    # typed failure
    with pytest.raises(br.EstimatorFailure) as failure:
        br.gamma_exponential_check(jump_desk, br.AffinePayoff(0.0, 1.0), 1.0, 1.0)
    assert type(failure.value) is br.EstimatorFailure
    assert str(failure.value) == "non-positive entropic normalizer at node 46 on 1 paths"
    assert failure.value.paths.tolist() == [191962]


def brute_force_coherent(level, xi, lo=1e-4, hi=50.0):
    p_sorted = np.sort(xi)

    def objective(g):
        c = p_sorted[0]
        m = np.exp(-g * (p_sorted - c)).mean()
        return level / g + (math.log(m) - g * c) / g

    coarse = np.exp(np.linspace(math.log(lo), math.log(hi), 4000))
    vals = np.array([objective(g) for g in coarse])
    g0 = coarse[vals.argmin()]
    fine = np.arange(max(g0 - 2e-3, lo), g0 + 2e-3, 1e-6)
    fvals = np.array([objective(g) for g in fine])
    return fine[fvals.argmin()], fvals.min()


def test_c10_coherent_static(jump_desk):
    start(10)
    x = jump_desk.terminal
    xi = np.where(x > np.median(x), 1.0, -1.0)
    level = 0.1
    res = br.entropic_coherent_static(level, xi)
    g_grid, rho_grid = brute_force_coherent(level, xi)
    g_gap = abs(res.gamma - g_grid)
    scale_ok = True
    for beta in (0.5, 2.0):
        scaled = br.entropic_coherent_static(level, beta * xi)
        scale_ok &= abs(scaled.rho - beta * res.rho) <= 1e-8
    ok = g_gap <= 1e-5 and abs(res.entropy_gap) <= 1e-6 and scale_ok
    check(10, "static coherent calibration", ok,
          f"gamma={res.gamma:.6f} grid gap={g_gap:.2e} tol=1e-5; "
          f"entropy gap={abs(res.entropy_gap):.2e} tol=1e-6; "
          f"scaling to 1e-8: {scale_ok}")


def test_c11_axiom_suite(jump_desk, sublinear_driver):
    start(11)
    entropic = br.make_entropic_driver(GAMMA, (LAM,))
    payoff = br.AffinePayoff(0.0, 1.0)
    rep_e = br.axiom_suite(jump_desk, entropic, payoff)
    rep_s = br.axiom_suite(jump_desk, sublinear_driver, payoff)
    axioms_e = {r.axiom for r in rep_e.rows}
    axioms_s = {r.axiom for r in rep_s.rows}
    covered = ({"monotonicity", "translation", "convexity"} <= axioms_e
               and {"scaling", "subadditivity"} <= axioms_s)
    ok = rep_e.passed and rep_s.passed and covered
    xi = br.terminal_values(jump_desk, payoff)
    terminal = br.dynamic_risk(jump_desk, entropic, xi, node=STEPS)
    exact = bool(np.array_equal(terminal, -xi))
    worst = max(rep_e.rows + rep_s.rows, key=lambda r: r.residual - r.tolerance)
    check(11, "axiom suite and terminal identity", ok and exact,
          f"all {len(rep_e.rows) + len(rep_s.rows)} axiom rows passed; tightest "
          f"margin {worst.axiom}[{worst.case}]={worst.residual:.2e} "
          f"(tol {worst.tolerance:g}); terminal rho_T = -xi exact: {exact}")


def test_c12_deterministic_reports(tmp_path):
    start(12)
    cfg = {
        "scenario_id": "desk-jump",
        "task": "risk",
        "grid": {"horizon": HORIZON, "steps": STEPS},
        "mc": {"paths": PATHS, "seed": DESK_SEED},
        "model": {
            "x0": 0.0, "mu": MU, "sigma": SIGMA,
            "jumps": [{"size": ZETA, "intensity": LAM}],
        },
        "driver": {"family": "entropic", "gamma": GAMMA},
        "payoff": {"family": "affine", "a": 0.0, "b": 1.0},
    }
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["risk", "--config", str(path), "--out", str(out_a)])
    code_b = cli_main(["risk", "--config", str(path), "--out", str(out_b)])
    bytes_a = (out_a / "desk-jump.csv").read_bytes()
    bytes_b = (out_b / "desk-jump.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    check(12, "byte-identical report payloads", ok,
          f"exit codes {code_a}/{code_b}; payload bytes equal: {bytes_a == bytes_b}")
