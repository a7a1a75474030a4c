"""Capital allocation of a dynamic risk number across sub-portfolios.

``build_allocation_report`` allocates a claim xi across the parts
eta_1, ..., eta_D of its decomposition (the components of a
``PortfolioPayoff``) by three routes that cross-check each other. All three
read one backward sweep over the 2 + 2D + Q columns
[xi, beta_q xi, 0, xi +- h eta_d], for Q Gauss-Legendre nodes beta_q:

  fd       central difference [rho(xi + h eta) - rho(xi - h eta)] / 2h; both
           legs are columns of the sweep (common random numbers)
  measure  the measure-change identity E_Q[-eta], Q the density the sweep
           builds from the driver's partials at the solved controls of xi
  shapley  Aumann-Shapley: the Gauss-Legendre average over beta in (0, 1) of
           the measure-route gradient at the scaled claims beta_q xi; the
           parts sum to rho(xi) - rho(0), and the zero claim's column gives
           rho(0) for that full-allocation check

``convex_representation`` re-expresses the risk number itself as
E[-Lambda xi], Lambda the Gauss-Legendre mixture of the densities of the
scaled claims, all columns of one sweep. For a positively homogeneous
driver every claim beta xi has the density of xi, so ``node_count=1`` is the
coherent, single-density representation.

Every density is read off the sweep (solve_bsde's ``densities``), so every
one passes the sweep's sign, overflow and uniform Kazamaki guards.
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
    "convex_representation",
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


def _weighted_estimate(bundle: PathBundle, weights, payload, node: int, config) -> Estimate:
    per_path = weighted_condexp(bundle, weights, payload, node, config)
    _, se = weighted_mean_se(weights, payload)
    return Estimate(value=_collapse(per_path, node), se=se, per_path=per_path)


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
    For a positively homogeneous driver ``node_count=1`` gives the coherent
    representation: the one density of beta * xi is the density of xi.
    """
    xi_v = _claim_values(bundle, xi)
    betas, weights = _unit_legendre(node_count)
    scaled = np.column_stack([beta * xi_v for beta in betas])
    columns = solve_bsde(bundle, driver, -scaled, config, nodes=(node,), densities=node_count)
    mix = columns.density[node] @ weights
    return _weighted_estimate(bundle, mix, -xi_v, node, config)


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


def _full_allocation_check(
    allocations, rho: Estimate, rho_zero: Estimate, tolerance: float
) -> FullAllocationCheck:
    """Compare sum_i allocation_i, which path-integral allocations make
    rho(xi) - rho(0), against that difference; pooled SE is informational."""
    allocated = float(sum(a.value for a in allocations))
    pooled_se = float(math.sqrt(rho.se**2 + rho_zero.se**2 + sum(a.se**2 for a in allocations)))
    return FullAllocationCheck(rho.value, rho_zero.value, allocated,
                               abs(rho.value - rho_zero.value - allocated), pooled_se, tolerance)


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
    if not h > 0.0:
        raise ValueError(f"fd step must be positive, got {h}")
    betas, _ = _unit_legendre(node_count)

    claims = ([xi_v] + [beta * xi_v for beta in betas] + [np.zeros_like(xi_v)]
              + [xi_v + sign * h * eta_v for eta_v in directions for sign in (1.0, -1.0)])
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
    check = _full_allocation_check(shapley, rho, rho_zero, tolerance)
    return AllocationReport(rho, rho_zero, fd, measure, shapley, gaps, check, h,
                            node_count, node, bundle.seed)
