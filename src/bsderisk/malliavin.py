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

Each route reads its N nodes in one forward walk of conditional
expectations (``bsde.condexp_at_nodes``). ``clark_ocone`` adds each node's
integrands into the reconstruction as the walk yields them, and
``gamma_exponential_check`` consumes the entropic controls row by row and
steps its densities alongside with ``measure._ForwardDensity``, the one
forward Doleans-Dade stepper: both hold (M,) rows, not fields. Only
``entropic_controls`` stacks its rows into time-major (N, M) fields. The
closed-form targets of the entropic controls and the per-node step that
turns their fit into controls (``_entropic_targets``) also serve a backward
sweep's step consumer, which fits them on the step's own design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import RegressionConfig, condexp_at_nodes
from .errors import EstimatorFailure, UnsupportedPayoff
from .market import PathBundle, Payoff, terminal_values
from .measure import _ForwardDensity

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
    """Evaluate both derivative fields for a payoff in the closed family.

    A field that is not finite on some path (the payoff, its slope or its
    jump-shifted value overflowed there) raises UnsupportedPayoff naming
    those paths."""
    if not isinstance(payoff, Payoff):
        raise UnsupportedPayoff(
            f"malliavin_derivative needs a Payoff from the closed family, got {type(payoff)!r}"
        )
    x_t = bundle.terminal
    k = bundle.mark_count
    jump = np.empty((bundle.path_count, k))
    # the finiteness guard below turns any overflow into a typed failure
    with np.errstate(over="ignore", invalid="ignore"):
        brownian = payoff.slope(x_t) * bundle.model.sigma
        base = payoff.value(x_t)
        for j in range(k):
            jump[:, j] = payoff.value(x_t + bundle.model.jumps[j].size) - base
    bad = np.flatnonzero(~(np.isfinite(brownian) & np.isfinite(jump).all(axis=1)))
    if bad.size:
        raise UnsupportedPayoff(
            f"payoff derivative fields are non-finite on {bad.size} paths (first: {bad[:5]})"
        )
    return MalliavinField(brownian=brownian, jump=jump)


@dataclass(frozen=True)
class ClarkOconeResult:
    """The claim rebuilt from its predictable representation.

    reconstruction  (M,)  mean(xi) + sum_i u_i dW_i + sum_{i,k} v_ki dN~_ki,
                          u and v the Brownian and per-mark jump integrands
    residual        relative L2 error of the reconstruction against xi
    """

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
    case exact to roundoff instead of O(M^-1/2). Each node's integrands are
    added in as the walk yields them and then dropped, so it holds (M,)
    rows, not (M, N) fields.
    """
    field = malliavin_derivative(bundle, payoff)
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    xi = terminal_values(bundle, payoff)

    # the integrands are the conditional projections (E[D xi | F_t],
    # E[D_k xi | F_t]), read at every node in one walk
    targets = np.column_stack([field.brownian, field.jump])
    recon = np.full(m, xi.mean())
    for i, fitted in condexp_at_nodes(bundle, range(n), targets, config):
        dw_c = bundle.dw[:, i] - bundle.dw[:, i].mean()
        recon += fitted[:, 0] * dw_c
        for j in range(k):
            dn_c = bundle.dn[:, i, j] - bundle.dn[:, i, j].mean()
            recon += fitted[:, 1 + j] * dn_c

    scale = float(np.sqrt(np.mean(xi * xi)))
    err = float(np.sqrt(np.mean((recon - xi) ** 2)))
    residual = err / scale if scale > 0.0 else err
    return ClarkOconeResult(reconstruction=recon, residual=residual)


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


def _entropic_targets(bundle: PathBundle, payoff: Payoff, gamma: float, beta: float):
    """The closed-form entropic controls of beta * xi as a regression and a
    per-node step: (targets, rows), where ``targets`` is the (M, 2 + 2K)
    block [w, w D xi, e^{-g b (xi + D_k xi)} per mark, w D_k xi per mark],
    with w = e^{-g b xi}, each exponential shifted by its own minimum, and
    ``rows(i, fitted)`` turns its fit at node i into the step-i rows
    (normalizer, z, upsilon, upsilon_linearized), (M,), (M,), (M, K) and
    (M, K), of ``EntropicControls``. A non-positive normalizer or shifted
    numerator raises EstimatorFailure at its node. beta = 0 has no targets
    (None) and does not evaluate the payoff; its rows are ones and zeros,
    shared between nodes.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    m, k = bundle.path_count, bundle.mark_count
    if beta == 0.0:
        zero_rows = (np.ones(m), np.zeros(m), np.zeros((m, k)), np.zeros((m, k)))
        return None, lambda i, fitted: zero_rows
    field = malliavin_derivative(bundle, payoff)
    xi = terminal_values(bundle, payoff)
    c0 = float(xi.min())
    w = np.exp(-gamma * beta * (xi - c0))
    # xi + D_k xi per mark, each shifted by its own minimum
    jumped = xi[:, None] + field.jump
    shifts = jumped.min(axis=0)
    shifted = np.exp(-gamma * beta * (jumped - shifts))
    targets = np.column_stack([w, w * field.brownian, shifted, w[:, None] * field.jump])

    def rows(i, fitted):
        den = fitted[:, 0]
        bad = np.flatnonzero(den <= 0.0)
        if bad.size:
            raise EstimatorFailure(f"non-positive entropic normalizer at node {i} on "
                                   f"{bad.size} paths", paths=bad)
        z = -beta * fitted[:, 1] / den
        log_den = np.log(den)
        ups, ups_lin = np.empty((m, k)), np.empty((m, k))
        for j in range(k):
            num = fitted[:, 2 + j]
            bad = np.flatnonzero(num <= 0.0)
            if bad.size:
                raise EstimatorFailure(f"non-positive shifted entropic numerator at node {i}, "
                                       f"mark {j}", paths=bad)
            ups[:, j] = (np.log(num) - log_den - gamma * beta * (shifts[j] - c0)) / gamma
            ups_lin[:, j] = -beta * fitted[:, 2 + k + j] / den
        return den, z, ups, ups_lin

    return targets, rows


def _entropic_rows(bundle: PathBundle, payoff: Payoff, gamma: float, beta: float,
                   config: RegressionConfig):
    """Yield (i, normalizer, z, upsilon, upsilon_linearized) at nodes
    i = 0..N-1 in turn: ``_entropic_targets``' rows, fitted in one
    ``condexp_at_nodes`` walk (none at beta = 0)."""
    targets, rows = _entropic_targets(bundle, payoff, gamma, beta)
    n = bundle.grid.step_count
    fits = (((i, None) for i in range(n)) if targets is None
            else condexp_at_nodes(bundle, range(n), targets, config))
    for i, fitted in fits:
        yield i, *rows(i, fitted)


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
    overflow safety; shifts cancel in log space. beta = 0 gives identically
    zero controls. The controls are the rows of one node-by-node walk, which
    ``gamma_exponential_check`` consumes without storing them; this stacks
    them into time-major fields.
    """
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    # time-major storage: row i holds the step-i controls of every path
    z = np.empty((n, m))
    ups = np.empty((n, m, k))
    ups_lin = np.empty((n, m, k))
    normalizer = np.empty((n, m))
    for i, den, z_i, ups_i, ups_lin_i in _entropic_rows(bundle, payoff, gamma, beta, config):
        normalizer[i], z[i], ups[i], ups_lin[i] = den, z_i, ups_i, ups_lin_i
    return EntropicControls(gamma=gamma, beta=beta, z=z.T, upsilon=ups.transpose(1, 0, 2),
                            upsilon_linearized=ups_lin.transpose(1, 0, 2),
                            normalizer=normalizer.T)


@dataclass(frozen=True)
class GammaExponentialReport:
    """Node-by-node agreement of Gamma(t)/Gamma(0) with its stochastic exponential.

    gaps holds the cross-path mean absolute difference per node, 0..N, for
    the exact jump control; gaps_linearized the same for the linearized
    variant (equal to gaps when there are no marks). The report holds only
    these (N+1,) gaps: the controls and densities they come from are rows of
    a walk, dropped node by node.
    """

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

    The check walks the nodes forward once, as ``entropic_controls`` fits
    them, and steps both densities as it goes with
    ``measure._ForwardDensity``, so it holds a few (M,) rows rather than
    (M, N) fields; its gaps are those of ``entropic_controls``, the
    reference stepper ``measure.doleans_dade`` on its whole fields and the
    Gamma ratio, bit for bit. Failures are theirs in their order: a failing
    fit raises at its node; the densities' failures (``doleans_dade``'s, the
    exact density's before the linearized one's) are raised once the walk
    is done.
    """
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    # the exact density, then the linearized one when there are marks, each
    # with its row L(t_i) and its failure, held back until the walk is done.
    # The failure is doleans_dade's, which checks every integrand before its
    # first step: ValueError if an integrand row was ever non-finite, else
    # the first step's failure, after which the density stops
    count = 2 if k else 1
    densities = [_ForwardDensity(bundle) for _ in range(count)]
    lam = [np.ones(m)] * count
    gaps = np.empty((count, n + 1))
    failures: list[Exception | None] = [None] * count
    gamma0 = None
    for i, normalizer, z, ups, ups_lin in _entropic_rows(bundle, payoff, gamma, beta, config):
        if gamma0 is None:
            gamma0 = normalizer.copy()
        # Gamma-hat(t_i) / Gamma-hat(0)
        ratio = normalizer / gamma0
        phi_z = gamma * z
        for d, upsilon in enumerate((ups, ups_lin)[:count]):
            gaps[d, i] = np.abs(lam[d] - ratio).mean()
            # an overflow here is a non-finite integrand
            with np.errstate(over="ignore"):
                phi_jump = np.exp(gamma * upsilon) - 1.0
            if not (np.all(np.isfinite(phi_z)) and np.all(np.isfinite(phi_jump))):
                failures[d] = ValueError("integrands must be finite")
            elif failures[d] is None:
                try:
                    lam[d] = densities[d].step(i, phi_z, phi_jump)
                except EstimatorFailure as failure:
                    failures[d] = failure
    for failure in failures:
        if failure is not None:
            raise failure

    # Gamma(T) is the shifted exponential itself
    xi = terminal_values(bundle, payoff)
    ratio = np.exp(-gamma * beta * (xi - xi.min()))
    ratio /= gamma0
    for d in range(count):
        gaps[d, n] = np.abs(lam[d] - ratio).mean()
    return GammaExponentialReport(gaps=gaps[0], gaps_linearized=gaps[-1].copy(),
                                  max_gap=float(gaps[0].max()),
                                  max_gap_linearized=float(gaps[-1].max()))
