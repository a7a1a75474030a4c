"""Malliavin fields, the predictable representation, and entropic controls.

For terminal claims xi = f(X(T)) on the arithmetic jump diffusion the two
derivative fields have closed forms:

  Brownian direction   D_t xi       = f'(X(T)) sigma          (constant in t)
  jump direction       D_{t,k} xi   = f(X(T) + zeta_k) - f(X(T))

the jump derivative being the exact nonlinear difference, not a linearized
chain rule. The predictable representation of xi then uses the conditional
projections of these fields as integrands; the entropic value process
Gamma(t) = E[e^{-gamma beta xi} | F_t] yields closed-form controls that
cross-check the backward solver and the stochastic-exponential identity
Gamma(t)/Gamma(0) = DoleansDade(gamma Z^{beta xi}, e^{gamma Ups} - 1)(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import RegressionConfig, condexp_at_nodes
from .errors import EstimatorFailure, UnsupportedPayoff
from .market import PathBundle, Payoff, terminal_values
from .measure import doleans_dade

__all__ = [
    "MalliavinField",
    "ClarkOconeResult",
    "EntropicControls",
    "GammaExponentialReport",
    "malliavin_derivative",
    "clark_ocone",
    "entropic_controls",
    "gamma_exponential_check",
]


@dataclass(frozen=True)
class MalliavinField:
    """Pathwise derivative fields of a terminal claim.

    brownian  (M,)   f'(X(T)) sigma; constant in the differentiation time
    jump      (M, K) f(X(T) + zeta_k) - f(X(T)) per mark
    """

    brownian: np.ndarray
    jump: np.ndarray


def malliavin_derivative(bundle: PathBundle, payoff: Payoff) -> MalliavinField:
    """Evaluate both derivative fields for a payoff in the closed family."""
    if not isinstance(payoff, Payoff):
        raise UnsupportedPayoff(
            f"malliavin_derivative needs a Payoff from the closed family, got {type(payoff)!r}"
        )
    x_t = bundle.terminal
    brownian = payoff.slope(x_t) * bundle.model.sigma
    k = bundle.mark_count
    jump = np.empty((bundle.path_count, k))
    base = payoff.value(x_t)
    for j in range(k):
        jump[:, j] = payoff.value(x_t + bundle.model.jumps[j].size) - base
    return MalliavinField(brownian=brownian, jump=jump)


@dataclass(frozen=True)
class ClarkOconeResult:
    """Predictable-representation integrands and the rebuilt claim.

    u               (M, N)     Brownian integrand at each step
    v               (M, N, K)  jump integrand per mark
    reconstruction  (M,)       mean(xi) + sum_i u_i dW_i + sum_{i,k} v_ki dN~_ki
    residual        relative L2 error of the reconstruction against xi

    u and v are transposed views of time-major (N, M) and (N, M, K) storage,
    like the bundle's, so the step-i integrand u[:, i] or v[:, i] is contiguous.
    """

    u: np.ndarray
    v: np.ndarray
    reconstruction: np.ndarray
    residual: float


def clark_ocone(
    bundle: PathBundle, payoff: Payoff, config: RegressionConfig = RegressionConfig()
) -> ClarkOconeResult:
    """Rebuild xi from its predictable representation on the grid.

    Integrands are the conditional projections of the Malliavin fields at
    each left endpoint. The increments in the reconstruction are
    compensated empirically (cross-path sample means subtracted) rather
    than with their theoretical compensators: under the sample measure the
    martingale parts then have exactly zero mean, which is the
    finite-sample statement of the representation and makes the affine
    case exact to roundoff instead of O(M^-1/2).
    """
    field = malliavin_derivative(bundle, payoff)
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    xi = terminal_values(bundle, payoff)

    # the conditional projections (E[D xi | F_t], E[D_k xi | F_t]), read at
    # every node in one walk
    targets = np.column_stack([field.brownian, field.jump])
    # time-major storage: row i holds the step-i integrands of every path
    u = np.empty((n, m))
    v = np.empty((n, m, k))
    recon = np.full(m, xi.mean())
    for i, fitted in condexp_at_nodes(bundle, range(n), targets, config):
        u[i], v[i] = fitted[:, 0], fitted[:, 1:]
        dw_c = bundle.dw[:, i] - bundle.dw[:, i].mean()
        recon += u[i] * dw_c
        for j in range(k):
            dn_c = bundle.dn[:, i, j] - bundle.dn[:, i, j].mean()
            recon += v[i, :, j] * dn_c

    scale = float(np.sqrt(np.mean(xi * xi)))
    err = float(np.sqrt(np.mean((recon - xi) ** 2)))
    residual = err / scale if scale > 0.0 else err
    return ClarkOconeResult(u=u.T, v=v.transpose(1, 0, 2), reconstruction=recon,
                            residual=residual)


# --------------------------------------------------------------------------
# entropic closed-form controls


@dataclass(frozen=True)
class EntropicControls:
    """Closed-form controls of the entropic value process for beta * xi.

    z                    (M, N)    -beta E[e^{-g b xi} D xi | F_t] / E[e^{-g b xi} | F_t]
    upsilon              (M, N, K) exact: (1/gamma) log of the conditional jump ratio
    upsilon_linearized   (M, N, K) first-order variant using the jump field directly
    normalizer           (M, N)    E[e^{-g b (xi - min xi)} | F_t], the shifted Gamma(t)

    Each array is a transposed view of time-major (N, M) or (N, M, K)
    storage, like the bundle's, so the step-i slice z[:, i] or upsilon[:, i]
    is contiguous.
    """

    gamma: float
    beta: float
    z: np.ndarray
    upsilon: np.ndarray
    upsilon_linearized: np.ndarray
    normalizer: np.ndarray


def entropic_controls(
    bundle: PathBundle,
    payoff: Payoff,
    gamma: float,
    beta: float = 1.0,
    config: RegressionConfig = RegressionConfig(),
) -> EntropicControls:
    """Estimate the closed-form entropic controls on the grid.

    The exact jump control is BSDE-consistent: it is the jump the value
    process (1/gamma) ln Gamma(t) actually makes when mark k fires,

        Ups_k(t) = (1/gamma) ln ( E[e^{-g b (xi + D_k xi)} | F_t]
                                   / E[e^{-g b xi} | F_t] ),

    while the linearized variant replaces the ratio with the first-order
    tilt -beta E[e^{-g b xi} D_k xi | F_t] / E[e^{-g b xi} | F_t]; they agree
    only for small jumps. Exponentials are shifted before regression for
    overflow safety; shifts cancel in log space. beta = 0 short-circuits to
    identically zero controls.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    if beta == 0.0:
        return EntropicControls(
            gamma=gamma, beta=0.0,
            z=np.zeros((n, m)).T,
            upsilon=np.zeros((n, m, k)).transpose(1, 0, 2),
            upsilon_linearized=np.zeros((n, m, k)).transpose(1, 0, 2),
            normalizer=np.ones((n, m)).T,
        )

    field = malliavin_derivative(bundle, payoff)
    xi = terminal_values(bundle, payoff)
    c0 = float(xi.min())
    w = np.exp(-gamma * beta * (xi - c0))

    # xi + D_k xi per mark, each shifted by its own minimum
    jumped = xi[:, None] + field.jump
    shifts = jumped.min(axis=0)
    shifted = np.exp(-gamma * beta * (jumped - shifts))
    targets = np.column_stack([w, w * field.brownian, shifted, w[:, None] * field.jump])

    # time-major storage: row i holds the step-i controls of every path
    z = np.empty((n, m))
    ups = np.empty((n, m, k))
    ups_lin = np.empty((n, m, k))
    normalizer = np.empty((n, m))
    for i, fitted in condexp_at_nodes(bundle, range(n), targets, config):
        den = normalizer[i] = fitted[:, 0]
        bad = np.flatnonzero(den <= 0.0)
        if bad.size:
            raise EstimatorFailure(
                f"non-positive entropic normalizer at node {i} on {bad.size} paths",
                paths=bad,
            )
        z[i] = -beta * fitted[:, 1] / den
        log_den = np.log(den)
        for j in range(k):
            num = fitted[:, 2 + j]
            bad = np.flatnonzero(num <= 0.0)
            if bad.size:
                raise EstimatorFailure(
                    f"non-positive shifted entropic numerator at node {i}, mark {j}",
                    paths=bad,
                )
            ups[i, :, j] = (
                np.log(num) - log_den - gamma * beta * (shifts[j] - c0)
            ) / gamma
            ups_lin[i, :, j] = -beta * fitted[:, 2 + k + j] / den
    return EntropicControls(gamma=gamma, beta=beta, z=z.T, upsilon=ups.transpose(1, 0, 2),
                            upsilon_linearized=ups_lin.transpose(1, 0, 2),
                            normalizer=normalizer.T)


@dataclass(frozen=True)
class GammaExponentialReport:
    """Node-by-node agreement of Gamma(t)/Gamma(0) with its stochastic exponential.

    gaps holds the cross-path mean absolute difference per node for the
    exact jump control; gaps_linearized the same for the linearized
    variant (equal to gaps when there are no marks). controls are the
    estimated entropic controls the exponential was built from.
    """

    controls: EntropicControls
    gaps: np.ndarray
    gaps_linearized: np.ndarray
    max_gap: float
    max_gap_linearized: float


def gamma_exponential_check(
    bundle: PathBundle,
    payoff: Payoff,
    gamma: float,
    beta: float = 1.0,
    config: RegressionConfig = RegressionConfig(),
) -> GammaExponentialReport:
    """Check Gamma(t)/Gamma(0) = stochastic exponential of the control integrands.

    The candidate exponential uses phi_z = gamma Z^{beta xi} and
    phi_k = e^{gamma Ups_k} - 1 built from the estimated controls; the
    reference ratio takes Gamma(t) = E[e^{-gamma beta xi} | F_t] from the
    regression that normalized those controls at every node. With exact
    controls the discrete identity is exact even with jumps, so the reported
    gap is pure estimation error.
    """
    controls = entropic_controls(bundle, payoff, gamma, beta, config)
    n, k = bundle.grid.step_count, bundle.mark_count

    xi = terminal_values(bundle, payoff)
    # Gamma-hat(t_i) / Gamma-hat(0), one row per node; Gamma(T) is the
    # shifted exponential itself
    ratio = np.empty((n + 1, bundle.path_count))
    ratio[:n] = controls.normalizer.T
    ratio[n] = np.exp(-gamma * beta * (xi - xi.min()))
    ratio /= ratio[0].copy()

    def gaps_for(upsilon: np.ndarray) -> np.ndarray:
        phi_jump = np.exp(gamma * upsilon) - 1.0
        rn = doleans_dade(bundle, gamma * controls.z, phi_jump)
        return np.abs(rn.lam.T - ratio).mean(axis=1)

    gaps = gaps_for(controls.upsilon)
    if k:
        gaps_lin = gaps_for(controls.upsilon_linearized)
    else:
        gaps_lin = gaps.copy()
    return GammaExponentialReport(
        controls=controls,
        gaps=gaps,
        gaps_linearized=gaps_lin,
        max_gap=float(gaps.max()),
        max_gap_linearized=float(gaps_lin.max()),
    )
