"""Properties the closed-form references must have.

Run with ``python3 -m pytest perfbench``; needs only numpy.
"""

import math

import numpy as np
import pytest

from reference import (
    DESK,
    Market,
    coherent_objective,
    coherent_static_grid,
    cumulant,
    cumulant_slope,
    entropic_gradient,
    entropic_risk,
    entropic_risk_se,
    entropic_shapley,
)

PARTS = ((0.0, 0.5), (0.2, 0.3), (-0.1, 0.2))
TOTAL = (sum(a for a, _ in PARTS), sum(b for _, b in PARTS))
TWO_MARKS = Market(x0=0.3, mu=-0.05, sigma=0.2, jumps=((-0.2, 1.5), (0.1, 0.7)), horizon=2.0)


def test_desk_risk_value():
    # -mu + gamma sigma^2 / 2 + (lambda / gamma)(e^{-gamma zeta} - 1) at gamma = 2
    expected = -0.1 + 2.0 * 0.09 / 2 + (1.5 / 2.0) * (math.exp(0.4) - 1.0)
    assert entropic_risk(DESK, 2.0, 0.0, 1.0) == pytest.approx(expected, abs=1e-15)
    assert round(entropic_risk(DESK, 2.0, 0.0, 1.0), 5) == 0.35887


def test_cumulant_slope_is_derivative():
    for m in (DESK, TWO_MARKS):
        for s in (-2.0, -0.5, 0.0, 0.7):
            h = 1e-5
            fd = (cumulant(m, s + h) - cumulant(m, s - h)) / (2 * h)
            assert cumulant_slope(m, s) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_risk_matches_simulated_expectation():
    # exact sampling of X(T): Gaussian part plus Poisson jump counts
    rng = np.random.Generator(np.random.Philox(7))
    for m, gamma, (a, b) in ((DESK, 2.0, (0.0, 1.0)), (TWO_MARKS, 1.0, (0.4, -0.7))):
        n = 1_000_000
        x = m.x0 + m.mu * m.horizon + m.sigma * math.sqrt(m.horizon) * rng.standard_normal(n)
        for zeta, lam in m.jumps:
            x += zeta * rng.poisson(lam * m.horizon, n)
        w = np.exp(-gamma * (a + b * x))
        mc = math.log(w.mean()) / gamma
        se = entropic_risk_se(m, gamma, b, n)
        assert abs(mc - entropic_risk(m, gamma, a, b)) <= 4.0 * se


def test_translation_and_zero_claim():
    assert entropic_risk(DESK, 1.0, 0.0, 0.0) == 0.0
    for shift in (-1.0, 0.3, 2.5):
        assert entropic_risk(DESK, 1.0, shift, 0.7) == pytest.approx(
            entropic_risk(DESK, 1.0, 0.0, 0.7) - shift, abs=1e-14)


@pytest.mark.parametrize("m", [DESK, TWO_MARKS])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_gradient_matches_finite_difference(m, gamma):
    a, b = TOTAL
    for a_d, b_d in PARTS + ((1.0, 0.0), (0.0, -1.3)):
        h = 1e-6
        up = entropic_risk(m, gamma, a + h * a_d, b + h * b_d)
        dn = entropic_risk(m, gamma, a - h * a_d, b - h * b_d)
        assert entropic_gradient(m, gamma, TOTAL, (a_d, b_d)) == pytest.approx(
            (up - dn) / (2 * h), rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("m", [DESK, TWO_MARKS])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_shapley_terms_sum_to_risk_increment(m, gamma):
    total = sum(entropic_shapley(m, gamma, TOTAL, part) for part in PARTS)
    increment = entropic_risk(m, gamma, *TOTAL) - entropic_risk(m, gamma, 0.0, 0.0)
    assert total == pytest.approx(increment, abs=1e-13)


@pytest.mark.parametrize("m", [DESK, TWO_MARKS])
def test_shapley_is_integral_of_gradient(m):
    gamma = 1.0
    x, w = np.polynomial.legendre.leggauss(64)
    betas, weights = (x + 1.0) / 2.0, w / 2.0
    for part in PARTS:
        quad = sum(
            wt * entropic_gradient(m, gamma, (beta * TOTAL[0], beta * TOTAL[1]), part)
            for beta, wt in zip(betas, weights)
        )
        assert entropic_shapley(m, gamma, TOTAL, part) == pytest.approx(quad, abs=1e-13)
    # b = 0 branch: the gradient does not depend on beta
    flat = (0.4, 0.0)
    assert entropic_shapley(m, gamma, flat, (0.1, 0.2)) == pytest.approx(
        entropic_gradient(m, gamma, flat, (0.1, 0.2)), abs=1e-15)


def test_coherent_grid_is_stationary_and_minimal():
    level = 0.1
    g, rho = coherent_static_grid(DESK, level, 0.0, 1.0)
    h = 1e-4
    f = coherent_objective(DESK, level, 0.0, 1.0, [g - h, g, g + h])
    assert abs(f[2] - f[0]) / (2 * h) < 1e-4
    probe = np.exp(np.linspace(math.log(1e-3), math.log(40.0), 20001))
    assert rho <= coherent_objective(DESK, level, 0.0, 1.0, probe).min() + 1e-12


def test_coherent_grid_is_positively_homogeneous():
    level = 0.1
    g1, rho1 = coherent_static_grid(DESK, level, 0.0, 1.0)
    for beta in (0.5, 2.0):
        g_b, rho_b = coherent_static_grid(DESK, level, 0.0, beta)
        assert rho_b == pytest.approx(beta * rho1, abs=1e-8)
        assert g_b == pytest.approx(g1 / beta, abs=2e-5)
