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

Q defaults to ``SHAPLEY_NODES`` = 4. The integrand beta -> E_{Q_beta}[-eta]
is smooth (analytic in beta for the entropic driver), so the Gauss-Legendre
error falls geometrically in Q: 4 nodes differ from 8 by less than 1e-3 of
the largest Shapley SE, and 2 nodes differ from 4 by more.

``convex_representation`` re-expresses the risk number itself as
E[-Lambda xi], Lambda the Gauss-Legendre mixture of the densities of the
scaled claims, all columns of one sweep. For a positively homogeneous
driver every claim beta xi has the density of xi, so ``node_count=1`` is the
coherent, single-density representation. It keeps 16 nodes by default: the
mixture is integrated over beta path by path, before the expectation, where
the quadrature converges slowly (entropic gamma 2 at 10000 paths: 4 nodes
lie 5.4e-3 from 16, about one SE).

Every density is read off the sweep (solve_bsde's ``densities``), so every
one passes the sweep's sign, overflow and uniform Kazamaki guards. Every
reported value is a ``bsde.Estimate`` from one of its three constructors:
rho and the finite differences are sweep reads (``BsdeColumns.estimate``),
the measure route and the representation weighted reads
(``measure.weighted_estimate``), and each Aumann-Shapley part their
Gauss-Legendre combination (``Estimate.combine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import Estimate, RegressionConfig, solve_bsde
from .drivers import Driver
from .market import PathBundle, Payoff
from .measure import weighted_estimate
from .risk import _claim_values

__all__ = [
    "FullAllocationCheck",
    "AllocationReport",
    "convex_representation",
    "build_allocation_report",
]


# Gauss-Legendre nodes of the Aumann-Shapley integral: the smallest Q whose
# Shapley values differ from those at 2Q by less than 1e-3 of the largest
# Shapley SE, on the entropic, clipped entropic and qexp desk reports
SHAPLEY_NODES = 4


def _unit_legendre(count: int):
    """Gauss-Legendre nodes and weights mapped to (0, 1); weights sum to 1."""
    if count < 1:
        raise ValueError(f"quadrature needs >= 1 node, got {count}")
    x, w = np.polynomial.legendre.leggauss(count)
    return (x + 1.0) / 2.0, w / 2.0


def default_fd_step(xi_values: np.ndarray) -> float:
    """h = 0.05 * (1 + sup-norm estimate of the claim)."""
    return 0.05 * (1.0 + float(np.abs(xi_values).max()))


def _shapley_multi(bundle: PathBundle, densities, directions, node: int, config) -> list[Estimate]:
    """Aumann-Shapley estimates for several directions; column q of
    ``densities`` is L(T) of the claim beta_q * xi at Gauss-Legendre node q."""
    _, weights = _unit_legendre(densities.shape[1])
    return [Estimate.combine(weights, [weighted_estimate(bundle, l_q, -eta_v, node, config)
                                       for l_q in densities.T])
            for eta_v in directions]


def convex_representation(
    bundle: PathBundle,
    driver: Driver,
    xi,
    # the mixture is integrated path by path, where Q converges slowly
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
    return weighted_estimate(bundle, mix, -xi_v, node, config)


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
    node_count: int = SHAPLEY_NODES,
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
                         nodes={0, node}, densities=1 + node_count)
    rho, rho_zero = columns.estimate(node, 0), columns.estimate(node, 1 + node_count)
    density = columns.density[0]
    measure = tuple(weighted_estimate(bundle, density[:, 0], -eta_v, node, config)
                    for eta_v in directions)
    legs = range(2 + node_count, 2 + node_count + 2 * len(directions), 2)
    fd = tuple(columns.estimate(node, j, j + 1, 2.0 * h) for j in legs)
    shapley = tuple(_shapley_multi(bundle, density[:, 1:], directions, node, config))
    gaps = tuple(abs(f.value - m.value) for f, m in zip(fd, measure))
    check = _full_allocation_check(shapley, rho, rho_zero, tolerance)
    return AllocationReport(rho, rho_zero, fd, measure, shapley, gaps, check, h,
                            node_count, node, bundle.seed)
