"""The allocation report's three routes, full allocation, density representations."""

import math

import numpy as np
import pytest

import bsderisk as br
from bsderisk.allocation import SHAPLEY_NODES
from bsderisk.bsde import Estimate
from bsderisk.measure import weighted_estimate, weighted_mean_se


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


@pytest.fixture(scope="module")
def sublinear():
    return br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,)), br.LinearForm(-0.25, (0.5,))), (1.5,)
    )


@pytest.fixture(scope="module")
def reports(driver, jump_bundle, parts):
    """The allocation report of the three parts at 4, 8 and 16 quadrature nodes."""
    payoff = br.PortfolioPayoff(parts)
    return {q: br.build_allocation_report(jump_bundle, driver, payoff, node_count=q)
            for q in (4, 8, 16)}


@pytest.fixture(scope="module")
def report_bundle(desk_grid, jump_model):
    """The bundle of the allocate-report benchmark: 10000 desk paths."""
    return br.simulate_paths(desk_grid, jump_model, 10_000, 20240901)


# driver, and the clip of the first part (None: unclipped)
QUADRATURE_FAMILIES = {
    "entropic": (br.make_entropic_driver(1.0, (1.5,)), None),
    "entropic-clipped": (br.make_entropic_driver(2.0, (1.5,)), (-0.15, 0.25)),
    "qexp": (br.make_qexp_driver(1.0, br.LinearForm(0.2, (0.1,), 0.3), (1.5,)), None),
}


@pytest.mark.parametrize("family", QUADRATURE_FAMILIES)
def test_default_shapley_nodes_are_the_fewest_within_the_bound(report_bundle, parts, family):
    # the default Q matches 16 nodes within 1e-3 of the largest 16-node
    # Shapley SE on every part, and Q/2 misses that on at least one: the
    # default is the smallest such Q
    driver, clip = QUADRATURE_FAMILIES[family]
    claim = parts if clip is None else (br.ClippedPayoff(parts[0], *clip),) + parts[1:]
    payoff = br.PortfolioPayoff(claim)
    default = br.build_allocation_report(report_bundle, driver, payoff)
    q = default.node_count
    half, full = (br.build_allocation_report(report_bundle, driver, payoff, node_count=count)
                  for count in (q // 2, 16))
    bound = 1e-3 * max(est.se for est in full.shapley)
    gaps = [abs(a.value - b.value) for a, b in zip(default.shapley, full.shapley)]
    assert max(gaps) <= bound, (q, gaps, bound)
    gaps = [abs(a.value - b.value) for a, b in zip(half.shapley, full.shapley)]
    assert max(gaps) > bound, (q // 2, gaps, bound)


def test_only_the_shapley_rows_depend_on_the_node_count():
    # the allocate rows of the allocate-report benchmark at the default Q and
    # at 16 nodes: the column count changes only how BLAS blocks the sweep's
    # sums; the Shapley rows move by their quadrature error
    raw = {"scenario_id": "nodes", "task": "allocate", "grid": {"horizon": 1.0, "steps": 50},
           "mc": {"paths": 10_000, "seed": 20240901},
           "model": {"x0": 0.0, "mu": 0.1, "sigma": 0.3,
                     "jumps": [{"size": -0.2, "intensity": 1.5}]},
           "driver": {"family": "entropic", "gamma": 1.0},
           "payoff": {"decomposition": [{"family": "affine", "a": a, "b": b}
                                        for a, b in ((0.0, 0.5), (0.2, 0.3), (-0.1, 0.2))]}}
    rows = {}
    for q in (SHAPLEY_NODES, 16):
        raw["method"] = {"quad_nodes": q}
        rows[q] = {row.quantity: row for row in br.run_scenario(br.build_scenario(raw)).rows}
    few, full = rows[SHAPLEY_NODES], rows[16]
    assert list(few) == list(full)
    bound = 1e-3 * max(row.std_error for name, row in full.items()
                       if name.startswith("alloc_shapley_"))
    for name, row in few.items():
        want = full[name]
        assert row.passed == want.passed, name
        if name.startswith("alloc_shapley_"):
            assert abs(row.value - want.value) <= bound, (name, row.value, want.value)
        elif name != "allocation_residual":
            # a gap is a difference of its two legs: its rounding is theirs
            i = name.rpartition("_")[2]
            scale = (abs(full[f"alloc_fd_{i}"].value) + abs(full[f"alloc_measure_{i}"].value)
                     if name.startswith("alloc_gap_") else abs(want.value))
            assert abs(row.value - want.value) <= 1e-12 * scale, (name, row.value, want.value)
            assert row.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0.0), name


def entropic_tilt_gradient(bundle, xi, eta, gamma=GAMMA):
    # analytic Gateaux derivative of the entropic risk:
    # d/de rho(xi + e eta) = E[-eta e^{-gamma xi}] / E[e^{-gamma xi}]
    w = np.exp(-gamma * (xi - xi.min()))
    return float(-(w @ eta) / w.sum())


def test_gradient_measure_matches_analytic_tilt(reports, jump_bundle, parts):
    xi = br.terminal_values(jump_bundle, br.PortfolioPayoff(parts))
    for p, mv in zip(parts, reports[16].measure):
        ana = entropic_tilt_gradient(jump_bundle, xi, p(jump_bundle.terminal))
        assert abs(mv.value - ana) < 5e-3, (mv.value, ana)


def test_gradient_fd_matches_analytic_tilt(reports, jump_bundle, parts):
    xi = br.terminal_values(jump_bundle, br.PortfolioPayoff(parts))
    for p, fd in zip(parts, reports[16].fd):
        ana = entropic_tilt_gradient(jump_bundle, xi, p(jump_bundle.terminal))
        assert abs(fd.value - ana) < 5e-3, (fd.value, ana)


def test_cash_direction_gradient_is_minus_one(driver, jump_bundle):
    # translation property: adding cash reduces risk one for one
    payoff = br.PortfolioPayoff((br.AffinePayoff(0.0, 1.0), br.AffinePayoff(1.0, 0.0)))
    report = br.build_allocation_report(jump_bundle, driver, payoff, node_count=1)
    assert report.fd[1].value == pytest.approx(-1.0, abs=1e-6)
    assert report.measure[1].value == pytest.approx(-1.0, abs=1e-6)


def test_fd_and_measure_agree(reports):
    report = reports[16]
    for fd, mv in zip(report.fd, report.measure):
        pooled = math.sqrt(fd.se**2 + mv.se**2)
        assert abs(fd.value - mv.value) <= max(2e-2, 4 * pooled)


def test_aumann_shapley_full_allocation(reports):
    for report in reports.values():
        assert report.check.passed, report.check


def test_aumann_shapley_refinement(reports):
    # quadrature refinement must not worsen the allocation residual beyond
    # one pooled standard error
    residuals = [reports[q].check.residual for q in (4, 8, 16)]
    pooled = [reports[q].check.pooled_se for q in (4, 8, 16)]
    assert residuals[1] <= residuals[0] + pooled[1]
    assert residuals[2] <= residuals[1] + pooled[2]


def test_aumann_shapley_equals_gradient_for_homogeneous(jump_bundle, sublinear):
    half = br.AffinePayoff(0.0, 0.5)
    report = br.build_allocation_report(jump_bundle, sublinear, br.PortfolioPayoff((half, half)),
                                        node_count=8)
    for shap, grad in zip(report.shapley, report.measure):
        assert abs(grad.value - shap.value) < 1e-2


def test_part_rows_do_not_depend_on_the_other_parts(reports, driver, jump_bundle, parts):
    # eta = parts[1] against (a, eta, xi - eta - a) in the fixture and
    # (eta, xi - eta) here; the two claims differ only in rounding
    eta = parts[1]
    rest = br.AffinePayoff(parts[0].a + parts[2].a, parts[0].b + parts[2].b)
    two = br.build_allocation_report(jump_bundle, driver, br.PortfolioPayoff((eta, rest)),
                                     node_count=4)
    three = reports[4]
    for route in ("fd", "measure", "shapley"):
        got, want = getattr(two, route)[0], getattr(three, route)[1]
        assert got.value == pytest.approx(want.value, rel=0.0, abs=1e-12), route
        assert got.se == pytest.approx(want.se, rel=0.0, abs=1e-12), route


def old_weighted_estimate(bundle, weights, payload, node, config):
    """allocation._weighted_estimate before Estimate: (value, se, per_path)."""
    per_path = br.weighted_condexp(bundle, weights, payload, node, config)
    _, se = weighted_mean_se(weights, payload)
    return (float(per_path[0]) if node == 0 else float(per_path.mean())), se, per_path


def old_quadrature(weights, parts):
    """allocation._quadrature before Estimate.combine: (value, se, per_path)."""
    return (float(sum(w * p.value for w, p in zip(weights, parts))),
            float(math.sqrt(sum((w * p.se) ** 2 for w, p in zip(weights, parts)))),
            sum(w * p.per_path for w, p in zip(weights, parts)))


def test_weighted_estimate_and_combine_match_the_old_rules(jump_bundle):
    config = br.RegressionConfig(jump_count_features=True)
    x = jump_bundle.terminal
    _, weights = np.polynomial.legendre.leggauss(3)
    for node in (0, 25):
        parts = []
        for beta in (0.3, 0.7, 1.0):
            density = np.exp(-beta * x) / np.exp(-beta * x).mean()
            est = weighted_estimate(jump_bundle, density, -x, node, config)
            value, se, per_path = old_weighted_estimate(jump_bundle, density, -x, node, config)
            assert (est.value, est.se) == (value, se), (node, beta)
            assert np.array_equal(est.per_path, per_path), (node, beta)
            parts.append(est)
        combined = Estimate.combine(weights / 2.0, parts)
        value, se, per_path = old_quadrature(weights / 2.0, parts)
        assert (combined.value, combined.se) == (value, se), node
        assert np.array_equal(combined.per_path, per_path), node


def test_convex_representation_recovers_risk(driver, jump_bundle):
    xi = jump_bundle.terminal
    rho0 = br.dynamic_risk(jump_bundle, driver, xi)[0]
    est = br.convex_representation(jump_bundle, driver, xi, node_count=16)
    assert abs(est.value - rho0) < 2e-2, (est.value, rho0)


def test_coherent_representation_recovers_risk(sublinear, jump_bundle):
    # for the positively homogeneous driver one node is the coherent,
    # single-density representation: every beta xi has the density of xi
    xi = jump_bundle.terminal
    rho0 = br.dynamic_risk(jump_bundle, sublinear, xi)[0]
    est = br.convex_representation(jump_bundle, sublinear, xi, node_count=1)
    assert abs(est.value - rho0) < 2e-2, (est.value, rho0)
    mixed = br.convex_representation(jump_bundle, sublinear, xi, node_count=4)
    assert mixed.value == pytest.approx(est.value, rel=0.0, abs=1e-12)


def test_allocation_report_shares_seed_and_paths(reports, jump_bundle):
    report = reports[4]
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
    x_t = jump_bundle.states(node, node + 1)[0]
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
        br.build_allocation_report(jump_bundle, driver, payoff, node_count=4)


def test_full_allocation_subtracts_risk_of_zero_claim(jump_bundle, parts):
    # g(0, 0) = 0.3 makes rho(0) = 0.3 T; the allocations sum to rho(xi) - rho(0)
    driver = br.make_qexp_driver(1.0, br.LinearForm(0.0, (0.0,), 0.3), (1.5,))
    report = br.build_allocation_report(
        jump_bundle, driver, br.PortfolioPayoff(parts), node_count=8)
    assert report.rho_zero.value == pytest.approx(0.3, abs=1e-12)
    assert report.check.rho_zero == report.rho_zero.value
    assert report.check.passed, report.check
