"""Discrete stochastic exponentials and measure-change machinery.

For integrands phi_z (Brownian) and phi_k (per jump mark), the candidate
density process is the exact per-step Doleans-Dade factorization

  L_{i+1} = L_i * exp(phi_z dW_i - phi_z^2 dt / 2)
                * prod_k (1 + phi_k)^{dN_{k,i}} * exp(-phi_k lambda_k dt),

whose one-step conditional expectation is exactly 1, so L is a discrete-time
martingale by construction and E[L(T)] = 1 up to sampling noise only; the
step is bsde._doleans_step, shared with the backward sweep. Forward in time
it is taken in one place, ``_ForwardDensity``, which holds one (M,) density
row: ``doleans_check`` steps it with constant integrands and checks the
density against its closed form, its martingale property and the Girsanov
shift it makes; ``malliavin.gamma_exponential_check`` steps it through the
rows of a walk of nodes; ``doleans_dade`` loops it into a whole (N+1, M)
path, a reference for tests. Expectations under the new measure are
estimated with self-normalized importance weights: divide by the sample (or
conditional) mean of L(T) rather than trusting raw weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import (Estimate, RegressionConfig, _doleans_step, _exponential,
                   _signed_density, condexp_at_node)
from .errors import EstimatorFailure
from .market import PathBundle

__all__ = [
    "DoleansReport",
    "doleans_check",
    "doleans_dade",
    "weighted_condexp",
    "weighted_mean_se",
    "weighted_estimate",
]


class _ForwardDensity:
    """One stochastic exponential of int phi_z dW + sum_k int phi_k dN~_k on
    ``bundle``, stepped forward from L(0) = 1 one node at a time.

    ``step(i, phi_z, phi_jump)`` takes the step-i integrand rows (M,) and
    (M, K), which must be finite, and returns L at node i+1 as an (M,) row. A
    factor 1 + phi_k <= 0 at a realized jump raises SignedDensityFailure
    naming that step's paths, and an overflow EstimatorFailure; the density
    is then left as it was before the step."""

    def __init__(self, bundle: PathBundle):
        m = bundle.path_count
        self.bundle = bundle
        self.lam_dt = bundle.model.jump_intensities * bundle.grid.dt
        self.log_l, self.jump_l = np.zeros((m, 1)), np.ones((m, 1))
        self.work = (np.empty((m, 1)), np.empty((m, 1)))

    def step(self, i: int, phi_z: np.ndarray, phi_jump: np.ndarray) -> np.ndarray:
        b = self.bundle
        bad = _doleans_step(self.log_l, self.jump_l, phi_z[:, None], phi_jump[:, None, :],
                            b.dw[:, i], b.dn[:, i], b.grid.dt, self.lam_dt, self.work)
        if bad.size:
            raise _signed_density(bad)
        return _exponential(self.log_l, self.jump_l)[:, 0]


def doleans_dade(bundle: PathBundle, phi_z, phi_jump=None) -> np.ndarray:
    """The stochastic exponential of int phi_z dW + sum_k int phi_k dN~_k as
    an (N+1, M) path, row i holding L at node i: ``_ForwardDensity`` looped
    over every step, a reference for tests.

    Integrands broadcast to (M, N) and (M, N, K) and must be adapted: the
    value at step i is the one in force on [t_i, t_{i+1}). Non-finite
    integrands anywhere raise ValueError before the first step; a factor
    1 + phi_k <= 0 at a realized jump raises SignedDensityFailure (naming the
    paths of the first such step), and an overflow EstimatorFailure.
    """
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    pz = np.broadcast_to(np.asarray(phi_z, dtype=float), (m, n))
    pj = np.broadcast_to(np.asarray(0.0 if phi_jump is None else phi_jump, dtype=float),
                         (m, n, k))
    if not (np.all(np.isfinite(pz)) and np.all(np.isfinite(pj))):
        raise ValueError("integrands must be finite")
    lam = np.ones((n + 1, m))
    density = _ForwardDensity(bundle)
    for i in range(n):
        lam[i + 1] = density.step(i, pz[:, i], pj[:, i])
    return lam


@dataclass(frozen=True)
class DoleansReport:
    """What ``doleans_check`` measures of the density L of constant integrands.

    closed_form_gap     max over paths and nodes of |L - its closed form|
    kazamaki_margin     min_k phi_k - (-1 + 1e-6), inf with no marks: the
                        uniform bound that certifies L as a true martingale
    means, std_errors   (N+1,) cross-path mean of L at each node and its SE
    shift_gap, shift_se (N, 1+K) per step, the L(T)-weighted mean of
                        dW_i - phi_z dt (column 0) and of
                        dN_{k,i} - lambda_k (1 + phi_k) dt (column 1+k), and
                        its importance-sampling SE
    """

    closed_form_gap: float
    kazamaki_margin: float
    means: np.ndarray
    std_errors: np.ndarray
    shift_gap: np.ndarray
    shift_se: np.ndarray

    @property
    def worst_z(self) -> float:
        """Largest |shift gap| / SE; a zero SE scores a zero gap 0 and any other inf."""
        gap, se = np.abs(self.shift_gap), self.shift_se
        z = np.divide(gap, se, out=np.full(gap.shape, np.inf), where=se > 0)
        return float(np.where(gap == 0.0, 0.0, z).max())


def doleans_check(bundle: PathBundle, phi_z: float, phi_jumps) -> DoleansReport:
    """Check the stochastic exponential of the constant integrands phi_z and
    phi_k (one per mark), holding (M,) rows, not fields.

    One forward walk of ``_ForwardDensity`` compares L at every node with the
    closed form

      L(t_i) = exp(phi_z W(t_i) - phi_z^2 t_i / 2
                   + sum_k N_k(t_i) log(1 + phi_k) - phi_k lambda_k t_i),

    whose W and counts N_k are running sums of the bundle's rows, and records
    the mean of L and its SE. Then, weighting by L(T), one pass over the
    steps checks the Girsanov shift: under the new measure E[dW_i] = phi_z dt
    and E[dN_{k,i}] = lambda_k (1 + phi_k) dt, both exactly at the discrete
    level, estimated with ``weighted_mean_se``.

    Non-finite integrands raise ValueError; the walk raises
    ``_ForwardDensity``'s failures. A drift phi_z^2 dt / 2 beyond the float
    range makes L(T) zero on every path, which ``weighted_mean_se`` rejects.
    """
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    phi_z, phi_jumps = float(phi_z), tuple(map(float, phi_jumps))
    if not all(map(math.isfinite, (phi_z, *phi_jumps))):
        raise ValueError("integrands must be finite")
    dt, lam = bundle.grid.dt, bundle.model.jump_intensities
    # inf, not an OverflowError, beyond the float range; the walk raises
    # SignedDensityFailure at the first jump where 1 + phi_k <= 0
    half_sq = 0.5 * phi_z * phi_z
    log_factors = [math.log1p(p) if p > -1.0 else math.nan for p in phi_jumps]
    z_row = np.broadcast_to(phi_z, (m,))
    jump_row = np.broadcast_to(np.array(phi_jumps), (m, k))

    density = _ForwardDensity(bundle)
    w, counts = np.zeros(m), np.zeros((k, m))
    means, ses = np.ones(n + 1), np.zeros(n + 1)
    gaps = np.zeros(n + 1)  # L(0) = 1 is its closed form exactly
    # the closed form of a density driven to 0 or past the float range is
    # inf or NaN; the density's own guards and weighted_mean_se report it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            row = density.step(i, z_row, jump_row)
            w += bundle.dw[:, i]
            counts += bundle.dn[:, i].T
            t = dt * (i + 1)
            ref = phi_z * w
            ref -= half_sq * t
            for j in range(k):
                ref += counts[j] * log_factors[j] - phi_jumps[j] * lam[j] * t
            # |L - exp(ref)|, in place
            np.subtract(row, np.exp(ref, out=ref), out=ref)
            gaps[i + 1] = np.abs(ref, out=ref).max()
            means[i + 1], ses[i + 1] = row.mean(), row.std() / math.sqrt(m)
    del density, w, counts, ref  # only L(T) is read from here on

    # each increment with its predicted drift, one row at a time
    increments = [bundle.dw] + [bundle.dn[:, :, j] for j in range(k)]
    drifts = [phi_z * dt] + [lam[j] * (1.0 + phi_jumps[j]) * dt for j in range(k)]
    shift = np.array([[weighted_mean_se(row, inc[:, i] - drift)
                       for inc, drift in zip(increments, drifts)] for i in range(n)])
    margin = min(phi_jumps) - (-1.0 + 1e-6) if k else math.inf
    return DoleansReport(closed_form_gap=float(gaps.max()), kazamaki_margin=margin, means=means,
                         std_errors=ses, shift_gap=shift[..., 0], shift_se=shift[..., 1])


def weighted_condexp(
    bundle: PathBundle,
    weights: np.ndarray,
    payload: np.ndarray,
    node: int = 0,
    config: RegressionConfig = RegressionConfig(),
) -> np.ndarray:
    """Self-normalized weighted conditional mean fit(w * h) / fit(w) at a node,
    both fitted in one two-column regression.

    With terminal density weights L(T) this is the expectation of h under the
    reweighted measure given F_{t_node}: the F_t-measurable factor L(t)
    cancels in the self-normalized ratio, so no division by the running
    density is needed.

    Non-finite weights or payload raise ValueError. Wherever the conditional
    estimate of the weights is not strictly positive the normalization is
    meaningless and EstimatorFailure is raised, listing the offending paths.
    """
    w = np.asarray(weights, dtype=float)
    h = np.asarray(payload, dtype=float)
    if w.shape != (bundle.path_count,) or h.shape != (bundle.path_count,):
        raise ValueError("weights and payload must be per-path vectors")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(h))):
        raise ValueError("weights and payload must be finite")
    if w.size and w[0] > 0.0 and np.all(w == w[0]):
        # constant positive weights cancel exactly; keep the unweighted
        # estimator bit-for-bit
        return condexp_at_node(bundle, node, h, config)
    num, den = condexp_at_node(bundle, node, np.column_stack([w * h, w]), config).T
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        raise EstimatorFailure(
            f"non-positive weight normalizer on {bad.size} paths (first: {bad[:5]})",
            paths=bad,
        )
    return num / den


def weighted_mean_se(weights: np.ndarray, payload: np.ndarray):
    """Self-normalized weighted mean sum w h / sum w and its importance-sampling
    standard error sqrt(sum v_m^2 (h_m - mean)^2), v = w / sum w.

    An (M,) payload gives two floats; an (M, q) payload gives two (q,) arrays,
    one entry per column. The payload is read column-major, so that the sums
    run in one order and give the same bits whatever its memory layout.
    Unless the weights are finite and nonnegative with a positive sum (exact
    zeros allowed) EstimatorFailure is raised, listing the negative or
    non-finite ones; a non-finite payload raises ValueError."""
    w = np.asarray(weights, dtype=float)
    payload = np.asarray(payload, dtype=float, order="F")
    if not np.all(np.isfinite(payload)):
        raise ValueError("payload values must be finite")
    total = w.sum()
    if not (0.0 < total < np.inf and w.min() >= 0.0):
        bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
        raise EstimatorFailure(
            f"weights must be finite and nonnegative with a positive sum: sum {total}, "
            f"{bad.size} negative or non-finite (first: {bad[:5]})",
            paths=bad,
        )
    v = w / total
    mean = v @ payload
    # squared in place: a copied payload and one temporary, no more
    spread = payload - mean
    se = np.sqrt((v * v) @ np.square(spread, out=spread))
    return (float(mean), float(se)) if np.ndim(payload) == 1 else (mean, se)


def weighted_estimate(bundle: PathBundle, weights, payload, node: int = 0,
                      config: RegressionConfig = RegressionConfig()) -> Estimate:
    """The weighted expectation of ``payload`` at ``node`` as an Estimate:
    the per-path values of ``weighted_condexp`` and the importance-sampling
    standard error of ``weighted_mean_se``."""
    per_path = weighted_condexp(bundle, weights, payload, node, config)
    _, se = weighted_mean_se(weights, payload)
    return Estimate.at_node(per_path, se, node)
