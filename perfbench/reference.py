"""Closed-form references for the benchmark's output checks.

Everything here is derived from the model, not from the package: the
benchmark must be able to tell a wrong engine from a right one, so it never
imports ``bsderisk`` to build its references.

The market is the arithmetic jump diffusion

    X(T) = x0 + mu T + sigma W(T) + sum_k zeta_k N_k(T),   N_k ~ Poisson(lambda_k T),

whose cumulant function is

    K(s) = log E[e^{s X(T)}] = s (x0 + mu T) + s^2 sigma^2 T / 2
                               + T sum_k lambda_k (e^{s zeta_k} - 1).

Under the entropic driver with parameter gamma, an affine claim a + b X(T)
has the risk rho = (1/gamma) log E[e^{-gamma (a + b X(T))}] = -a + K(-gamma b) / gamma,
and every allocation quantity follows from K in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Market:
    """Arithmetic jump diffusion on [0, horizon]; jumps are (size, intensity) pairs."""

    x0: float
    mu: float
    sigma: float
    jumps: tuple[tuple[float, float], ...]
    horizon: float


DESK = Market(x0=0.0, mu=0.1, sigma=0.3, jumps=((-0.2, 1.5),), horizon=1.0)


def cumulant(m: Market, s: float) -> float:
    """K(s) = log E[exp(s X(T))]."""
    t = m.horizon
    jump = sum(lam * math.expm1(s * zeta) for zeta, lam in m.jumps)
    return s * (m.x0 + m.mu * t) + 0.5 * s * s * m.sigma**2 * t + t * jump


def cumulant_slope(m: Market, s: float) -> float:
    """K'(s)."""
    t = m.horizon
    jump = sum(lam * zeta * math.exp(s * zeta) for zeta, lam in m.jumps)
    return m.x0 + m.mu * t + s * m.sigma**2 * t + t * jump


def entropic_risk(m: Market, gamma: float, a: float, b: float) -> float:
    """rho(a + b X(T)) = -a + K(-gamma b) / gamma."""
    return -a + cumulant(m, -gamma * b) / gamma


def entropic_gradient(m: Market, gamma: float, claim, direction) -> float:
    """d/de rho(xi + e eta) at e = 0 for xi = a + b X(T), eta = a' + b' X(T).

    Equals -a' - b' K'(-gamma b): the expectation of -eta under the
    exponentially tilted measure.
    """
    _, b = claim
    a_d, b_d = direction
    return -a_d - b_d * cumulant_slope(m, -gamma * b)


def entropic_shapley(m: Market, gamma: float, claim, direction) -> float:
    """Aumann-Shapley allocation: the gradient along eta at beta xi, integrated
    over beta in (0, 1).

    Since d/dbeta K(-gamma beta b) = -gamma b K'(-gamma beta b), the integral
    is -a' + b' K(-gamma b) / (gamma b), and -a' - b' K'(0) when b = 0.
    """
    _, b = claim
    a_d, b_d = direction
    if b == 0.0:
        return -a_d - b_d * cumulant_slope(m, 0.0)
    return -a_d + b_d * cumulant(m, -gamma * b) / (gamma * b)


def entropic_risk_se(m: Market, gamma: float, b: float, paths: int) -> float:
    """Standard error of the plain Monte Carlo estimator (1/gamma) log mean e^{-gamma xi}.

    By the delta method it is sd(e^{-gamma xi}) / (gamma E[e^{-gamma xi}] sqrt(M)),
    and the squared coefficient of variation of e^{-gamma b X(T)} is
    exp(K(-2 gamma b) - 2 K(-gamma b)) - 1. The intercept cancels.
    """
    cv2 = math.expm1(cumulant(m, -2.0 * gamma * b) - 2.0 * cumulant(m, -gamma * b))
    return math.sqrt(cv2) / (gamma * math.sqrt(paths))


def coherent_objective(m: Market, level: float, a: float, b: float, gamma):
    """level/gamma + (1/gamma) log E[e^{-gamma xi}] for xi = a + b X(T); vectorized in gamma."""
    g = np.asarray(gamma, dtype=float)
    t = m.horizon
    jump = sum(lam * np.expm1(-g * b * zeta) for zeta, lam in m.jumps)
    log_m = -g * (a + b * (m.x0 + m.mu * t)) + 0.5 * (g * b * m.sigma) ** 2 * t + t * jump
    return level / g + log_m / g


def coherent_static_grid(m: Market, level: float, a: float, b: float,
                         lo: float = 1e-4, hi: float = 50.0):
    """Brute-force minimization of the static coherent objective over gamma.

    A log-spaced coarse grid finds the basin, a uniform fine grid of step
    1e-6 between the coarse minimizer's neighbours resolves it. Returns
    (gamma, rho).
    """
    coarse = np.exp(np.linspace(math.log(lo), math.log(hi), 4000))
    j = int(np.argmin(coherent_objective(m, level, a, b, coarse)))
    fine = np.arange(coarse[max(j - 1, 0)], coarse[min(j + 1, coarse.size - 1)], 1e-6)
    vals = coherent_objective(m, level, a, b, fine)
    i = int(np.argmin(vals))
    return float(fine[i]), float(vals[i])


def coherent_curvature(m: Market, level: float, a: float, b: float, gamma: float) -> float:
    """Second derivative of the coherent objective in gamma, by central differences."""
    h = 1e-3 * gamma
    f = coherent_objective(m, level, a, b, [gamma - h, gamma, gamma + h])
    return float((f[0] - 2.0 * f[1] + f[2]) / (h * h))
