"""Capital allocation of a dynamic risk number across sub-portfolios.

Three routes to the same marginal quantity, kept deliberately separate so
they can cross-check each other:

  gradient_fd       central finite difference of rho along a direction,
                    common random numbers on both sides
  gradient_measure  the measure-change identity: solve the risk BSDE once,
                    build the Radon-Nikodym density from the driver's
                    partials at the solved controls, and take E_Q[-eta]
  aumann_shapley    Gauss-Legendre average over beta in (0,1) of the
                    measure-route gradient at the scaled claim beta * xi,
                    which sums to the full risk across a decomposition

plus the density representations of the risk number itself:

  convex_representation    rho as E[-Lambda xi] with Lambda the
                           quadrature mixture of per-beta stochastic
                           exponentials
  coherent_representation  the positively homogeneous case, where a single
                           beta = 1 exponential suffices

Every route builds a block of terminals (finite-difference legs, scaled
claims), runs one backward sweep on the bundle and reads columns;
the allocation report is one sweep over 2 + 2D + Q columns for D
directions and Q quadrature nodes. The measure routes read their densities
off that sweep (solve_bsde's ``densities``), so every density passes the
sweep's sign, overflow and uniform Kazamaki guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import BsdeColumns, RegressionConfig, solve_bsde
from .drivers import Driver
from .market import PathBundle, Payoff
from .measure import weighted_condexp, weighted_mean_se
from .risk import _claim_values

__all__ = [
    "Estimate",
    "FullAllocationCheck",
    "AllocationReport",
    "gradient_fd",
    "gradient_measure",
    "aumann_shapley",
    "convex_representation",
    "coherent_representation",
    "full_allocation_check",
    "build_allocation_report",
]


@dataclass(frozen=True)
class Estimate:
    """Scalar estimate with a standard error and its per-path field.

    At node 0 every path carries the same value and ``value`` is exact;
    at interior nodes the estimate is conditional, ``per_path`` holds the
    pathwise values and ``value`` is their cross-path mean.
    """

    value: float
    se: float
    per_path: np.ndarray


def _collapse(per_path: np.ndarray, node: int) -> float:
    return float(per_path[0]) if node == 0 else float(per_path.mean())


def _unit_legendre(count: int):
    """Gauss-Legendre nodes and weights mapped to (0, 1); weights sum to 1."""
    if count < 1:
        raise ValueError(f"quadrature needs >= 1 node, got {count}")
    x, w = np.polynomial.legendre.leggauss(count)
    return (x + 1.0) / 2.0, w / 2.0


def default_fd_step(xi_values: np.ndarray) -> float:
    """h = 0.05 * (1 + sup-norm estimate of the claim)."""
    return 0.05 * (1.0 + float(np.abs(xi_values).max()))


def _quadrature(weights, parts: list[Estimate]) -> Estimate:
    """Gauss-Legendre combination of per-node estimates; errors add in quadrature."""
    return Estimate(
        value=float(sum(w * p.value for w, p in zip(weights, parts))),
        se=float(math.sqrt(sum((w * p.se) ** 2 for w, p in zip(weights, parts)))),
        per_path=sum(w * p.per_path for w, p in zip(weights, parts)),
    )


def _fd_legs(pairs, h: float) -> list[np.ndarray]:
    """Claim columns x + h e, x - h e of a central difference per (x, e) pair."""
    if not h > 0.0:
        raise ValueError(f"fd step must be positive, got {h}")
    return [x + sign * h * e for x, e in pairs for sign in (1.0, -1.0)]


def _fd_estimates(columns: BsdeColumns, first: int, count: int, h: float, node: int):
    """Central differences of ``count`` leg pairs from column ``first`` on. The
    standard error is the delta-method one: dispersion of the pathwise
    differenced value process one step after the averaging node."""
    probe = max(node, 1)
    estimates = []
    for j in range(first, first + 2 * count, 2):
        per_path = (columns.y[node][:, j] - columns.y[node][:, j + 1]) / (2.0 * h)
        diffs = (columns.y[probe][:, j] - columns.y[probe][:, j + 1]) / (2.0 * h)
        se = float(diffs.std() / math.sqrt(diffs.size))
        estimates.append(Estimate(value=_collapse(per_path, node), se=se, per_path=per_path))
    return estimates


def gradient_fd(
    bundle: PathBundle,
    driver: Driver,
    xi,
    eta,
    step: float | None = None,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> Estimate:
    """Central difference [rho(xi + h eta) - rho(xi - h eta)] / 2h.

    Both legs are columns of one sweep on the bundle (common random
    numbers), so the Monte Carlo noise largely cancels pathwise.
    """
    xi_v = _claim_values(bundle, xi)
    eta_v = _claim_values(bundle, eta)
    h = default_fd_step(xi_v) if step is None else float(step)
    legs = np.column_stack(_fd_legs([(xi_v, eta_v)], h))
    columns = solve_bsde(bundle, driver, -legs, config, nodes={node, max(node, 1)})
    return _fd_estimates(columns, 0, 1, h, node)[0]


def _weighted_estimate(bundle: PathBundle, weights, payload, node: int, config) -> Estimate:
    per_path = weighted_condexp(bundle, weights, payload, node, config)
    _, se = weighted_mean_se(weights, payload)
    return Estimate(value=_collapse(per_path, node), se=se, per_path=per_path)


def gradient_measure(
    bundle: PathBundle,
    driver: Driver,
    xi,
    eta,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> Estimate:
    """Marginal risk along eta via the gradient measure: E_Q[-eta | F_t]."""
    xi_v = _claim_values(bundle, xi)
    eta_v = _claim_values(bundle, eta)
    density = solve_bsde(bundle, driver, -xi_v, config, nodes=(0,), densities=1).density[0][:, 0]
    return _weighted_estimate(bundle, density, -eta_v, node, config)


def _shapley_multi(bundle: PathBundle, densities, directions, node: int, config) -> list[Estimate]:
    """Aumann-Shapley estimates for several directions; column q of
    ``densities`` is L(T) of the claim beta_q * xi at Gauss-Legendre node q."""
    _, weights = _unit_legendre(densities.shape[1])
    estimates = []
    for eta_v in directions:
        parts = [_weighted_estimate(bundle, densities[:, q], -eta_v, node, config)
                 for q in range(len(weights))]
        estimates.append(_quadrature(weights, parts))
    return estimates


def aumann_shapley(
    bundle: PathBundle,
    driver: Driver,
    xi,
    eta,
    node_count: int = 16,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> Estimate:
    """Aumann-Shapley allocation along eta.

    Integrates the measure-route gradient of rho at the scaled claim beta*xi
    over beta in (0, 1) with a Gauss-Legendre rule; the densities of all
    beta nodes are columns of one sweep on the same bundle.
    """
    xi_v = _claim_values(bundle, xi)
    eta_v = _claim_values(bundle, eta)
    betas, _ = _unit_legendre(node_count)
    scaled = np.column_stack([beta * xi_v for beta in betas])
    columns = solve_bsde(bundle, driver, -scaled, config, nodes=(0,), densities=node_count)
    return _shapley_multi(bundle, columns.density[0], [eta_v], node, config)[0]


def convex_representation(
    bundle: PathBundle,
    driver: Driver,
    xi,
    node_count: int = 16,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> Estimate:
    """rho_t(xi) as a weighted expectation E[-Lambda(T, t) xi | F_t].

    Lambda(T, t) is the Gauss-Legendre mixture over beta of the stochastic
    exponentials built from the solved controls of the scaled claims
    beta * xi, all columns of one sweep; expectations are self-normalized.
    """
    xi_v = _claim_values(bundle, xi)
    betas, weights = _unit_legendre(node_count)
    scaled = np.column_stack([beta * xi_v for beta in betas])
    columns = solve_bsde(bundle, driver, -scaled, config, nodes=(node,), densities=node_count)
    mix = columns.density[node] @ weights
    return _weighted_estimate(bundle, mix, -xi_v, node, config)


def coherent_representation(
    bundle: PathBundle,
    driver: Driver,
    xi,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> Estimate:
    """Single-density representation for positively homogeneous drivers.

    Scaling invariance collapses the beta mixture to the single exponential
    at beta = 1. Requires a positively homogeneous driver.
    """
    if not driver.positively_homogeneous:
        raise ValueError(
            "coherent_representation requires a positively homogeneous driver; "
            f"got family {driver.family!r}"
        )
    xi_v = _claim_values(bundle, xi)
    weights = solve_bsde(bundle, driver, -xi_v, config, nodes=(node,),
                         densities=1).density[node][:, 0]
    return _weighted_estimate(bundle, weights, -xi_v, node, config)


@dataclass(frozen=True)
class FullAllocationCheck:
    """Does the allocation sum recover rho(xi) - rho(0)?"""

    rho: float
    rho_zero: float
    allocated: float
    residual: float
    pooled_se: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def full_allocation_check(
    allocations, rho, tolerance: float = 1e-2, rho_zero=0.0
) -> FullAllocationCheck:
    """Compare sum_i allocation_i, which path-integral allocations make
    rho(xi) - rho(0), against that difference; pooled SE is informational.
    The default rho(0) = 0 is the normalized case g(0, 0) = 0 of every
    factory-built family except a qexp driver with a constant term.
    """

    def value_var(x):
        return (x.value, x.se**2) if isinstance(x, Estimate) else (float(x), 0.0)

    parts = [value_var(a) for a in allocations]
    rho_v, rho_var = value_var(rho)
    zero_v, zero_var = value_var(rho_zero)
    allocated = float(sum(v for v, _ in parts))
    pooled_se = float(math.sqrt(rho_var + zero_var + sum(var for _, var in parts)))
    return FullAllocationCheck(rho_v, zero_v, allocated, abs(rho_v - zero_v - allocated),
                               pooled_se, tolerance)


@dataclass(frozen=True)
class AllocationReport:
    """Side-by-side allocation of one decomposed claim."""

    rho: Estimate
    rho_zero: Estimate
    fd: tuple[Estimate, ...]
    measure: tuple[Estimate, ...]
    shapley: tuple[Estimate, ...]
    fd_measure_gaps: tuple[float, ...]
    check: FullAllocationCheck
    h: float
    node_count: int
    node: int
    seed: int


def build_allocation_report(
    bundle: PathBundle,
    driver: Driver,
    payoff: Payoff,
    step: float | None = None,
    node_count: int = 16,
    node: int = 0,
    tolerance: float = 1e-2,
    config: RegressionConfig = RegressionConfig(),
) -> AllocationReport:
    """Run all three allocation routes across a claim's decomposition.

    The payoff must carry components (a decomposition); the portfolio claim
    is their exact pathwise sum. One sweep solves [xi, beta_q xi, 0,
    xi +- h eta_d]: the first 1 + Q columns carry the densities of the measure
    and Aumann-Shapley routes, the zero claim gives rho(0) for the
    full-allocation check and the legs the finite differences.
    """
    if payoff.components is None:
        raise ValueError("allocation needs a payoff with a decomposition")
    xi_v = _claim_values(bundle, payoff)
    directions = [_claim_values(bundle, c) for c in payoff.components]
    h = default_fd_step(xi_v) if step is None else float(step)
    betas, _ = _unit_legendre(node_count)

    claims = ([xi_v] + [beta * xi_v for beta in betas] + [np.zeros_like(xi_v)]
              + _fd_legs([(xi_v, eta_v) for eta_v in directions], h))
    columns = solve_bsde(bundle, driver, -np.column_stack(claims), config,
                         nodes={0, node, max(node, 1)}, densities=1 + node_count)

    def risk(j):
        per_path = columns.y[node][:, j].copy()
        return Estimate(value=_collapse(per_path, node), se=columns.std_error(node, j),
                        per_path=per_path)

    rho, rho_zero = risk(0), risk(1 + node_count)
    density = columns.density[0]
    measure = tuple(
        _weighted_estimate(bundle, density[:, 0], -eta_v, node, config)
        for eta_v in directions
    )
    fd = tuple(_fd_estimates(columns, 2 + node_count, len(directions), h, node))
    shapley = tuple(_shapley_multi(bundle, density[:, 1:], directions, node, config))
    gaps = tuple(abs(f.value - m.value) for f, m in zip(fd, measure))
    check = full_allocation_check(shapley, rho, tolerance, rho_zero)
    return AllocationReport(rho, rho_zero, fd, measure, shapley, gaps, check, h,
                            node_count, node, bundle.seed)
