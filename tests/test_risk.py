"""Dynamic risk evaluations, closed forms, the static coherent measure,
and the axiom suite.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import bsderisk as br
from bsderisk.errors import RootFailure
from bsderisk.risk import _relative_entropy


GAMMA, MU, SIGMA, LAM, ZETA = 2.0, 0.1, 0.3, 1.5, -0.2

# frozen closed forms for the identity claim xi = X(T), x0 = 0, T = 1:
# rho_0 = (1/g) ln E e^{-g X(T)} = -mu + g sigma^2 / 2 [+ (lam/g)(e^{-g zeta} - 1)]
BROWNIAN_RHO = -MU + GAMMA * SIGMA**2 / 2
JUMP_RHO = BROWNIAN_RHO + (LAM / GAMMA) * (math.exp(-GAMMA * ZETA) - 1.0)


def test_frozen_oracles():
    assert BROWNIAN_RHO == pytest.approx(-0.01)
    assert JUMP_RHO == pytest.approx(0.3588685232, abs=1e-9)


def test_terminal_risk_is_negated_claim(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    xi = jump_bundle.terminal
    rho_t = br.dynamic_risk(jump_bundle, driver, xi, node=jump_bundle.grid.step_count)
    assert np.array_equal(rho_t, -xi)


def test_brownian_identity_claim(brownian_bundle):
    driver = br.make_entropic_driver(GAMMA)
    rho0 = br.dynamic_risk(brownian_bundle, driver, brownian_bundle.terminal)[0]
    assert abs(rho0 - BROWNIAN_RHO) < 5e-3


def test_jump_identity_claim(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    rho0 = br.dynamic_risk(jump_bundle, driver, jump_bundle.terminal)[0]
    assert abs(rho0 - JUMP_RHO) < 1e-2


def test_closed_form_matches_bsde(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    xi = jump_bundle.terminal
    a = br.dynamic_risk(jump_bundle, driver, xi)[0]
    b = br.entropic_closed_form(GAMMA, xi, 0, jump_bundle)[0]
    assert abs(a - b) < 1e-2


def test_entropic_closed_form_interior_node(jump_bundle):
    # at an interior node the conditional version must be close to the exact
    # affine function of the state; gamma = 1 keeps the exponential target
    # inside what the cubic basis can fit positively
    gamma = 1.0
    xi = jump_bundle.terminal
    node = 25
    t = jump_bundle.grid.nodes[node]
    est = br.entropic_closed_form(gamma, xi, node, jump_bundle)
    remaining = 1.0 - t
    exact = (
        -jump_bundle.states(node, node + 1)[0]
        - MU * remaining
        + gamma * SIGMA**2 * remaining / 2
        + (LAM * remaining / gamma) * (math.exp(-gamma * ZETA) - 1.0)
    )
    err = np.sqrt(np.mean((est - exact) ** 2))
    assert err < 2e-2


def test_entropic_closed_form_positivity_guard(jump_bundle):
    # an aggressive tilt pushes the polynomial fit of the exponential
    # negative in the tails; the estimator must refuse rather than return
    # logs of garbage
    with pytest.raises(br.EstimatorFailure):
        br.entropic_closed_form(GAMMA, jump_bundle.terminal, 25, jump_bundle)


def test_risk_accepts_payoff_or_vector(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    a = br.dynamic_risk(jump_bundle, driver, br.AffinePayoff(0.0, 1.0))[0]
    b = br.dynamic_risk(jump_bundle, driver, jump_bundle.terminal)[0]
    assert a == b


def test_risk_routes_use_the_given_config(desk_grid, jump_model):
    bundle = br.simulate_paths(desk_grid, jump_model, 5_000, 7)
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    tuned = br.RegressionConfig(degree=2, jump_count_features=True)
    xi = bundle.terminal
    node = 25
    rho_t = br.dynamic_risk(bundle, driver, xi, node=node, config=tuned)
    alone = br.solve_bsde(bundle, driver, -xi[:, None], tuned, nodes=(node,)).y[node][:, 0]
    assert np.array_equal(rho_t, alone)
    assert not np.array_equal(rho_t, br.dynamic_risk(bundle, driver, xi, node=node))

    # the default axiom block of a convex driver: xi, xi + 0.5, xi + 1, 0, xi / 2
    report = br.axiom_suite(bundle, driver, xi, config=tuned)
    claims = np.column_stack([xi, xi + 0.5, xi + 1.0, 0.0 * xi, 0.5 * xi])
    rho = br.solve_bsde(bundle, driver, -claims, tuned, nodes=(0,)).y[0][0]
    rows = {row.axiom: row.residual for row in report.rows}
    assert report.rho == rho[0]
    assert rows["translation"] == abs(rho[2] - (rho[0] - 1.0))
    assert rows["convexity"] == max(0.0, rho[4] - 0.5 * rho[0] - 0.5 * rho[3])
    assert report.rho != br.axiom_suite(bundle, driver, xi).rho


def brute_force_coherent(level, xi, lo=1e-4, hi=50.0):
    # two-stage independent search: coarse log grid, then a 1e-6 lattice
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


def test_coherent_static_matches_grid_search():
    rng = np.random.default_rng(5)
    xi = rng.choice([1.0, -1.0], 100_000)
    level = 0.1
    res = br.entropic_coherent_static(level, xi)
    g_grid, rho_grid = brute_force_coherent(level, xi)
    assert abs(res.gamma - g_grid) < 1e-5
    assert abs(res.rho - rho_grid) < 1e-9
    assert abs(res.entropy_gap) < 1e-6


def test_coherent_static_entropy_identity_two_point():
    # for a symmetric two-point claim the stationarity condition is
    # H(g) = g tanh(g) - ln cosh(g) = level (exact empirical masses here)
    xi = np.concatenate([np.ones(50_000), -np.ones(50_000)])
    res = br.entropic_coherent_static(0.1, xi)
    h = res.gamma * math.tanh(res.gamma) - math.log(math.cosh(res.gamma))
    assert abs(h - 0.1) < 1e-9
    assert abs(_relative_entropy(res.gamma, xi) - 0.1) < 1e-9


def test_coherent_static_positive_homogeneity():
    rng = np.random.default_rng(6)
    xi = rng.normal(size=100_000)
    res = br.entropic_coherent_static(0.2, xi)
    for beta in (0.5, 2.0):
        scaled = br.entropic_coherent_static(0.2, beta * xi)
        assert abs(scaled.rho - beta * res.rho) < 1e-8


def test_coherent_static_degenerate_claim():
    res = br.entropic_coherent_static(0.1, np.full(100, -1.25))
    assert res.degenerate
    assert res.rho == 1.25
    assert res.gamma is None


def test_coherent_static_unbracketable_root():
    # a near-degenerate claim with tiny spread pushes the root beyond any
    # reasonable bracket
    xi = np.concatenate([np.zeros(1000), np.full(1, 1e-12)])
    with pytest.raises(RootFailure):
        br.entropic_coherent_static(5.0, xi, gamma_hi=10.0)


def test_coherent_static_root_between_half_cap_and_cap():
    # H crosses the level near gamma = 705, inside (gamma_hi / 2, gamma_hi]:
    # the doubling bracket stops at gamma_hi instead of stepping past it
    xi = 6.4e-4 * np.random.default_rng(1).standard_normal(20_000)
    res = br.entropic_coherent_static(0.1, xi)
    assert 512.0 < res.gamma < 1e3
    assert res.gamma == pytest.approx(704.847, abs=1e-3)
    assert abs(res.entropy_gap) < 1e-9


def test_coherent_static_runs_without_scipy():
    # the package needs numpy alone: a blocked scipy import must not matter
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np, bsderisk as br\n"
        "xi = np.random.default_rng(5).normal(size=10_000)\n"
        "print(br.entropic_coherent_static(0.1, xi).gamma)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0


def test_relative_entropy_increasing():
    rng = np.random.default_rng(7)
    xi = rng.normal(size=10_000)
    gammas = [0.1, 0.5, 1.0, 2.0, 5.0]
    values = [_relative_entropy(g, xi) for g in gammas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_axiom_suite_entropic(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    report = br.axiom_suite(jump_bundle, driver, br.AffinePayoff(0.0, 1.0))
    axioms = {row.axiom for row in report.rows}
    assert {"monotonicity", "translation", "terminal", "convexity"} <= axioms
    assert report.passed, report.worst()


def test_axiom_suite_sublinear_scaling(jump_bundle):
    sub = br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,)), br.LinearForm(-0.25, (0.5,))), (LAM,)
    )
    report = br.axiom_suite(
        jump_bundle, sub, br.AffinePayoff(0.0, 1.0), partner=br.ExpAffinePayoff(0.5, 1.0),
        scales=(0.25, 0.5, 2.0),
    )
    axioms = {row.axiom for row in report.rows}
    assert {"scaling", "subadditivity"} <= axioms
    assert "convexity" not in axioms
    assert report.passed, report.worst()


def test_translation_residual_tiny(jump_bundle):
    driver = br.make_entropic_driver(GAMMA, (LAM,))
    report = br.axiom_suite(jump_bundle, driver, br.AffinePayoff(0.0, 1.0), shifts=(1.0, -2.5))
    rows = [r for r in report.rows if r.axiom == "translation"]
    assert len(rows) == 2
    assert all(r.residual < 1e-10 for r in rows)
