"""Gradient estimators, path-integral allocation, density representations."""

import math

import numpy as np
import pytest

import bsderisk as br


GAMMA = 1.0


@pytest.fixture(scope="module")
def parts():
    return (
        br.AffinePayoff(0.0, 0.5),
        br.AffinePayoff(0.2, 0.3),
        br.AffinePayoff(-0.1, 0.2),
    )


@pytest.fixture(scope="module")
def driver():
    return br.make_entropic_driver(GAMMA, (1.5,))


def entropic_tilt_gradient(bundle, xi, eta, gamma=GAMMA):
    # analytic Gateaux derivative of the entropic risk:
    # d/de rho(xi + e eta) = E[-eta e^{-gamma xi}] / E[e^{-gamma xi}]
    w = np.exp(-gamma * (xi - xi.min()))
    return float(-(w @ eta) / w.sum())


def test_gradient_measure_matches_analytic_tilt(driver, jump_bundle, parts):
    xi = br.terminal_values(jump_bundle, br.PortfolioPayoff(parts))
    for p in parts:
        eta = p(jump_bundle.terminal)
        est = br.gradient_measure(jump_bundle, driver, xi, eta)
        ana = entropic_tilt_gradient(jump_bundle.terminal * 0 + xi, xi, eta)
        assert abs(est.value - ana) < 5e-3, (est.value, ana)


def test_gradient_fd_matches_analytic_tilt(driver, jump_bundle, parts):
    xi = br.terminal_values(jump_bundle, br.PortfolioPayoff(parts))
    for p in parts:
        eta = p(jump_bundle.terminal)
        est = br.gradient_fd(jump_bundle, driver, xi, eta)
        ana = entropic_tilt_gradient(xi, xi, eta)
        assert abs(est.value - ana) < 5e-3


def test_cash_direction_gradient_is_minus_one(driver, jump_bundle):
    # translation property: adding cash reduces risk one for one
    xi = jump_bundle.terminal
    eta = np.ones_like(xi)
    fd = br.gradient_fd(jump_bundle, driver, xi, eta)
    mv = br.gradient_measure(jump_bundle, driver, xi, eta)
    assert fd.value == pytest.approx(-1.0, abs=1e-6)
    assert mv.value == pytest.approx(-1.0, abs=1e-6)


def test_fd_and_measure_agree(driver, jump_bundle, parts):
    xi = br.terminal_values(jump_bundle, br.PortfolioPayoff(parts))
    for p in parts:
        eta = p(jump_bundle.terminal)
        fd = br.gradient_fd(jump_bundle, driver, xi, eta)
        mv = br.gradient_measure(jump_bundle, driver, xi, eta)
        pooled = math.sqrt(fd.se**2 + mv.se**2)
        assert abs(fd.value - mv.value) <= max(2e-2, 4 * pooled)


def test_aumann_shapley_full_allocation(driver, jump_bundle, parts):
    payoff = br.PortfolioPayoff(parts)
    xi = br.terminal_values(jump_bundle, payoff)
    rho0 = br.dynamic_risk(jump_bundle, driver, xi)[0]
    allocs = [
        br.aumann_shapley(jump_bundle, driver, xi, p(jump_bundle.terminal), node_count=8)
        for p in parts
    ]
    check = br.full_allocation_check(allocs, rho0)
    assert check.passed, check


def test_aumann_shapley_refinement(driver, jump_bundle, parts):
    # quadrature refinement must not worsen the allocation residual beyond
    # one pooled standard error
    payoff = br.PortfolioPayoff(parts)
    xi = br.terminal_values(jump_bundle, payoff)
    rho0 = br.dynamic_risk(jump_bundle, driver, xi)[0]
    residuals = []
    pooled = []
    for nodes in (4, 8, 16):
        allocs = [
            br.aumann_shapley(jump_bundle, driver, xi, p(jump_bundle.terminal), node_count=nodes)
            for p in parts
        ]
        check = br.full_allocation_check(allocs, rho0)
        residuals.append(check.residual)
        pooled.append(check.pooled_se)
    assert residuals[1] <= residuals[0] + pooled[1]
    assert residuals[2] <= residuals[1] + pooled[2]


def test_aumann_shapley_equals_gradient_for_homogeneous(jump_bundle):
    sub = br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,)), br.LinearForm(-0.25, (0.5,))), (1.5,)
    )
    xi = jump_bundle.terminal
    eta = 0.5 * xi
    grad = br.gradient_measure(jump_bundle, sub, xi, eta)
    shap = br.aumann_shapley(jump_bundle, sub, xi, eta, node_count=8)
    assert abs(grad.value - shap.value) < 1e-2


def test_convex_representation_recovers_risk(driver, jump_bundle):
    xi = jump_bundle.terminal
    rho0 = br.dynamic_risk(jump_bundle, driver, xi)[0]
    est = br.convex_representation(jump_bundle, driver, xi, node_count=16)
    assert abs(est.value - rho0) < 2e-2


def test_coherent_representation_recovers_risk(jump_bundle):
    sub = br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,)), br.LinearForm(-0.25, (0.5,))), (1.5,)
    )
    xi = jump_bundle.terminal
    rho0 = br.dynamic_risk(jump_bundle, sub, xi)[0]
    est = br.coherent_representation(jump_bundle, sub, xi)
    assert abs(est.value - rho0) < 2e-2


def test_coherent_representation_rejects_convex_driver(driver, jump_bundle):
    with pytest.raises(ValueError):
        br.coherent_representation(jump_bundle, driver, jump_bundle.terminal)


def test_allocation_report_shares_seed_and_paths(driver, jump_bundle, parts):
    report = br.build_allocation_report(jump_bundle, driver, br.PortfolioPayoff(parts),
                                        node_count=4)
    assert report.seed == jump_bundle.seed
    assert len(report.fd) == len(report.measure) == len(report.shapley) == 3
    assert report.check.passed
    for gap, fd, mv in zip(report.fd_measure_gaps, report.fd, report.measure):
        assert gap <= max(2e-2, 4 * math.sqrt(fd.se**2 + mv.se**2))


def test_allocation_report_interior_node_matches_closed_forms(driver, jump_bundle, parts):
    # xi = a + b X_T and eta = a' + b' X_T under the entropic driver have
    # pathwise closed forms at t through the cumulant
    # kappa(th) = mu th + sigma^2 th^2 / 2 + lam (e^{th zeta} - 1) of X
    model = jump_bundle.model
    mu, sigma = model.mu, model.sigma
    (mark,) = model.jumps
    lam, zeta = mark.intensity, mark.size
    node = 25
    report = br.build_allocation_report(jump_bundle, driver, br.PortfolioPayoff(parts), node=node)
    tau = 1.0 - jump_bundle.grid.nodes[node]
    x_t = jump_bundle.state[:, node]
    a, b = sum(p.a for p in parts), sum(p.b for p in parts)
    th = -GAMMA * b
    kappa = mu * th + sigma**2 * th**2 / 2 + lam * (math.exp(th * zeta) - 1.0)
    dkappa = mu + sigma**2 * th + lam * zeta * math.exp(th * zeta)

    def close(est, closed_form):
        assert abs(est.value - closed_form.mean()) <= 4 * est.se
        assert math.sqrt(np.mean((est.per_path - closed_form) ** 2)) <= 1e-2

    close(report.rho, -a - b * x_t + tau * kappa / GAMMA)
    for p, fd, mv, sh in zip(parts, report.fd, report.measure, report.shapley):
        gradient = -p.a - p.b * (x_t + tau * dkappa)
        close(fd, gradient)
        close(mv, gradient)
        close(sh, -p.a - p.b * x_t + p.b * tau * kappa / (GAMMA * b))
    assert report.check.passed, report.check


def test_allocation_report_requires_decomposition(driver, jump_bundle):
    with pytest.raises(ValueError):
        br.build_allocation_report(jump_bundle, driver, br.AffinePayoff(0.0, 1.0))


def test_fd_step_default_scales_with_claim():
    xi = np.array([0.0, 4.0, -2.0])
    from bsderisk.allocation import default_fd_step

    assert default_fd_step(xi) == pytest.approx(0.05 * 5.0)


@pytest.mark.parametrize("jump_coef, message", [
    # 1 + dg/du = -0.5 on every path that jumps
    (-1.5, "non-positive per-jump factor at a realized jump"),
    # every realized factor is positive; only the uniform Kazamaki bound fails
    (-1.0 + 5e-13, "density is not a positive martingale"),
])
def test_signed_density_guard_shared_by_measure_routes(jump_bundle, jump_coef, message):
    # zero claims keep the solved controls exactly at zero, so dg/du = jump_coef
    driver = br.make_qexp_driver(1.0, br.LinearForm(0.0, (jump_coef,)), (1.5,))
    payoff = br.PortfolioPayoff((br.AffinePayoff(0.0, 0.0), br.AffinePayoff(0.0, 0.0)))
    xi = br.terminal_values(jump_bundle, payoff)
    with pytest.raises(br.SignedDensityFailure, match=message):
        br.solve_bsde(jump_bundle, driver, -xi, nodes=(0,), densities=1)
    with pytest.raises(br.SignedDensityFailure, match=message):
        br.gradient_measure(jump_bundle, driver, xi, xi)
    with pytest.raises(br.SignedDensityFailure, match=message):
        br.build_allocation_report(jump_bundle, driver, payoff, node_count=4)


def test_full_allocation_subtracts_risk_of_zero_claim(jump_bundle, parts):
    # g(0, 0) = 0.3 makes rho(0) = 0.3 T; the allocations sum to rho(xi) - rho(0)
    driver = br.make_qexp_driver(1.0, br.LinearForm(0.0, (0.0,), 0.3), (1.5,))
    report = br.build_allocation_report(
        jump_bundle, driver, br.PortfolioPayoff(parts), node_count=8)
    assert report.rho_zero.value == pytest.approx(0.3, abs=1e-12)
    assert report.check.rho_zero == report.rho_zero.value
    assert report.check.passed, report.check
