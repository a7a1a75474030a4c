"""Dynamic and static risk measures induced by the backward equations.

The dynamic risk of a claim xi is rho_t(xi) = Y(t) where (Y, Z, Ups) solves
the BSDE with terminal value -xi; with a y-free driver this makes rho
translation-invariant (rho(xi + m) = rho(xi) - m) and normalizes
rho_T(xi) = -xi exactly. The entropic driver admits the closed form
rho_t(xi) = (1/gamma) ln E[ e^{-gamma xi} | F_t ], kept as an independent
cross-check of the backward solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import RegressionConfig, condexp_at_node, solve_bsde
from .drivers import Driver
from .errors import EstimatorFailure, RootFailure
from .market import PathBundle, Payoff, terminal_values

__all__ = [
    "CoherentStaticResult",
    "AxiomRow",
    "AxiomReport",
    "dynamic_risk",
    "entropic_closed_form",
    "entropic_coherent_static",
    "axiom_suite",
]


def _claim_values(bundle: PathBundle, xi) -> np.ndarray:
    if isinstance(xi, Payoff):
        return terminal_values(bundle, xi)
    values = np.asarray(xi, dtype=float)
    if values.shape != (bundle.path_count,):
        raise ValueError(
            f"claim values must have shape ({bundle.path_count},), got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("claim values must be finite")
    return values


def dynamic_risk(
    bundle: PathBundle,
    driver: Driver,
    xi,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> np.ndarray:
    """Per-path rho_{t_node}(xi); constant across paths at node 0.

    ``xi`` may be a Payoff or a per-path value vector (so shifted and mixed
    claims can be priced without constructing payoff objects).
    """
    values = _claim_values(bundle, xi)
    return solve_bsde(bundle, driver, -values[:, None], config, nodes=(node,)).y[node][:, 0]


def entropic_closed_form(
    gamma: float,
    xi_values: np.ndarray,
    node: int,
    bundle: PathBundle,
    config: RegressionConfig = RegressionConfig(),
) -> np.ndarray:
    """(1/gamma) ln E[e^{-gamma xi} | F_{t_node}], estimated pathwise.

    The exponential is shifted by min(xi) before conditioning so the
    regression never overflows; the shift is undone in log space.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    xi = _claim_values(bundle, xi_values)
    c = float(xi.min())
    w = np.exp(-gamma * (xi - c))
    fitted = condexp_at_node(bundle, node, w, config)
    bad = np.flatnonzero(fitted <= 0.0)
    if bad.size:
        raise EstimatorFailure(
            f"conditional estimate of e^(-gamma xi) non-positive on {bad.size} "
            f"paths (first: {bad[:5]})",
            paths=bad,
        )
    return np.log(fitted) / gamma - c


# --------------------------------------------------------------------------
# static entropic-coherent measure


@dataclass(frozen=True)
class CoherentStaticResult:
    level: float
    gamma: float | None
    rho: float
    degenerate: bool
    entropy_gap: float


def _relative_entropy(gamma: float, xi: np.ndarray) -> float:
    """H(gamma) = gamma m'(gamma)/m(gamma) - ln m(gamma) for m = E[e^{-gamma xi}];
    the relative entropy of the tilted measure, increasing in gamma."""
    c = float(xi.min())
    w = np.exp(-gamma * (xi - c))
    mean_w = w.mean()
    tilted_mean = float((xi * w).sum() / w.sum())
    log_m = math.log(mean_w) - gamma * c
    return -gamma * tilted_mean - log_m


def entropic_coherent_static(
    level: float,
    xi_values: np.ndarray,
    gamma_hi: float = 1e3,
) -> CoherentStaticResult:
    """Static coherent risk inf_{gamma>0} [ level/gamma + (1/gamma) ln E e^{-gamma xi} ].

    The minimizer gamma_c is the root of the stationarity condition
    H(gamma) = level, where H is the relative entropy of the exponentially
    tilted measure. H is increasing, so doubling gamma from 1 (capped at
    gamma_hi) brackets the root and bisection keeps it bracketed down to a
    width of 1e-12 + 8.9e-16 gamma. A degenerate (constant) claim
    short-circuits to rho = -xi with a flag.
    """
    if not (level > 0.0 and math.isfinite(level)):
        raise ValueError(f"level must be positive and finite, got {level}")
    xi = np.asarray(xi_values, dtype=float)
    if xi.ndim != 1 or xi.size < 1:
        raise ValueError("xi_values must be a nonempty vector")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi_values must be finite")

    if float(xi.max() - xi.min()) == 0.0:
        return CoherentStaticResult(
            level=level, gamma=None, rho=float(-xi[0]), degenerate=True, entropy_gap=0.0
        )

    def objective(g: float) -> float:
        return _relative_entropy(g, xi) - level

    lo, hi = 1e-6, min(1.0, gamma_hi)
    if objective(lo) > 0.0:
        raise RootFailure(
            f"relative entropy at gamma={lo} already exceeds level {level}"
        )
    while objective(hi) < 0.0:
        if hi >= gamma_hi:
            raise RootFailure(
                f"no bracketing gamma <= {gamma_hi} reaches entropy level {level}"
            )
        lo, hi = hi, min(2.0 * hi, gamma_hi)
    while hi - lo > 1e-12 + 8.9e-16 * hi:
        mid = 0.5 * (lo + hi)
        if objective(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    gamma_c = 0.5 * (lo + hi)

    c = float(xi.min())
    log_m = math.log(np.exp(-gamma_c * (xi - c)).mean()) - gamma_c * c
    rho = level / gamma_c + log_m / gamma_c
    return CoherentStaticResult(
        level=level,
        gamma=gamma_c,
        rho=float(rho),
        degenerate=False,
        entropy_gap=float(objective(gamma_c)),
    )


# --------------------------------------------------------------------------
# axiom suite


@dataclass(frozen=True)
class AxiomRow:
    axiom: str
    case: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class AxiomReport:
    """The axiom rows and rho_0(xi) of the claim they were checked on."""

    rows: tuple[AxiomRow, ...]
    rho: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def worst(self) -> AxiomRow:
        return max(self.rows, key=lambda r: r.residual - r.tolerance)


DEFAULT_AXIOM_TOLERANCES = {
    "monotonicity": 5e-3,
    "translation": 5e-3,
    "terminal": 0.0,
    "convexity": 1e-2,
    "scaling": 1e-2,
    "subadditivity": 1e-2,
}


def axiom_suite(
    bundle: PathBundle,
    driver: Driver,
    xi,
    increment=None,
    partner=None,
    shifts=(1.0,),
    scales=(2.0,),
    tolerances: dict | None = None,
    config: RegressionConfig = RegressionConfig(),
) -> AxiomReport:
    """Empirical residuals of the risk-measure axioms on common paths.

    All claims are columns of one block on the bundle, so
    comparisons are common random numbers throughout. Checked: monotonicity
    against xi plus a nonnegative increment, translation for each constant
    shift, the terminal identity rho_T(xi) = -xi, then positive homogeneity
    plus subadditivity (positively homogeneous drivers) or convexity at the
    even mix of xi and the partner (every other driver). Scaling rows use
    the relative tolerance tol * (1 + |rho_0(xi)|).
    """
    tol = dict(DEFAULT_AXIOM_TOLERANCES)
    tol.update(tolerances or {})
    xi_v = _claim_values(bundle, xi)

    if increment is None:
        inc = np.full(bundle.path_count, 0.5)
    else:
        inc = _claim_values(bundle, increment)
    if np.any(inc < 0.0):
        raise ValueError("monotonicity increment must be nonnegative pathwise")

    other = xi_v * 0.0 if partner is None else _claim_values(bundle, partner)
    claims = [xi_v, xi_v + inc] + [xi_v + shift for shift in shifts]
    if driver.positively_homogeneous:
        claims += [k * xi_v for k in scales] + [other, xi_v + other]
    else:
        claims += [other, 0.5 * xi_v + 0.5 * other]
    n = bundle.grid.step_count
    block = solve_bsde(bundle, driver, -np.column_stack(claims), config, nodes=(0, n)).y
    risks = iter(block[0][0])
    rho = next(risks)
    rows = [AxiomRow("monotonicity", "xi vs xi+increment",
                     max(0.0, float(next(risks) - rho)), tol["monotonicity"])]
    for shift in shifts:
        rows.append(
            AxiomRow("translation", f"m={shift:g}",
                     abs(float(next(risks) - (rho - shift))), tol["translation"])
        )

    term_resid = float(np.abs(block[n][:, 0] + xi_v).max())
    rows.append(AxiomRow("terminal", "rho_T(xi) = -xi", term_resid, tol["terminal"]))

    if driver.positively_homogeneous:
        for k in scales:
            rows.append(
                AxiomRow("scaling", f"k={k:g}",
                         abs(float(next(risks) - k * rho)),
                         tol["scaling"] * (1.0 + abs(rho)))
            )
        rho_other, rho_sum = next(risks), next(risks)
        rows.append(
            AxiomRow("subadditivity", "xi, partner",
                     max(0.0, float(rho_sum - rho - rho_other)),
                     tol["subadditivity"])
        )
    else:
        rho_other, rho_mix = next(risks), next(risks)
        rows.append(
            AxiomRow("convexity", "w=0.5",
                     max(0.0, float(rho_mix - 0.5 * rho - 0.5 * rho_other)),
                     tol["convexity"])
        )

    return AxiomReport(rows=tuple(rows), rho=float(rho))
