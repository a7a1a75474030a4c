"""Discrete stochastic exponentials and measure-change machinery.

For integrands phi_z (Brownian) and phi_k (per jump mark), the candidate
density process is the exact per-step Doleans-Dade factorization

  L_{i+1} = L_i * exp(phi_z dW_i - phi_z^2 dt / 2)
                * prod_k (1 + phi_k)^{dN_{k,i}} * exp(-phi_k lambda_k dt),

whose one-step conditional expectation is exactly 1, so L is a discrete-time
martingale by construction and E[L(T)] = 1 up to sampling noise only; the
step is bsde._doleans_step, shared with the backward sweep. Expectations
under the new measure are estimated with self-normalized importance
weights: divide by the sample (or conditional) mean of L(T) rather than
trusting raw weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import (Estimate, RegressionConfig, _doleans_step, _exponential,
                   _signed_density, condexp_at_node)
from .errors import EstimatorFailure
from .market import PathBundle

__all__ = [
    "RNProcess",
    "KazamakiReport",
    "MartingaleReport",
    "GirsanovReport",
    "doleans_dade",
    "kazamaki_check",
    "martingale_diagnostic",
    "weighted_condexp",
    "weighted_mean_se",
    "weighted_estimate",
    "girsanov_shift_check",
]


@dataclass(frozen=True)
class RNProcess:
    """Candidate Radon-Nikodym density path with its integrands.

    lam      (M, N+1) density path, lam[:, 0] == 1
    phi_z    (M, N)   Brownian integrand on [t_i, t_{i+1})
    phi_jump (M, N, K) per-mark jump integrands

    Each field is time-major: lam, and any integrand given as a full array,
    is the transposed view of (N+1, M), (N, M) or (N, M, K) storage, like the
    bundle's, so the step-i slice lam[:, i], phi_z[:, i] or phi_jump[:, i] is
    contiguous; an integrand given as a scalar or another broadcastable shape
    is a broadcast view.
    """

    bundle: PathBundle
    lam: np.ndarray
    phi_z: np.ndarray
    phi_jump: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.lam[:, -1]


def _time_major(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array of ``shape`` (M, N, ...) whose step-i slice
    [:, i] is contiguous: a full array is the transposed view of (N, M, ...)
    storage, copied once if it is stored otherwise; anything that broadcasts
    to ``shape`` stays a broadcast view."""
    a = np.asarray(values, dtype=float)
    if a.shape != shape:
        return np.broadcast_to(a, shape)
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


def doleans_dade(
    bundle: PathBundle, phi_z: np.ndarray, phi_jump: np.ndarray | None = None
) -> RNProcess:
    """Build the stochastic exponential of int phi_z dW + sum_k int phi_k dN~_k.

    Integrands must be adapted: the value at step i is the one in force on
    [t_i, t_{i+1}). Full (M, N) and (M, N, K) integrands are read from
    time-major storage (see RNProcess): a path-major array costs one
    transposing copy, a transposed view of time-major rows none. A factor
    1 + phi_k <= 0 at a realized jump makes the density signed and raises
    SignedDensityFailure (naming the paths of the first such step); an
    overflow raises EstimatorFailure.
    """
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    dt = bundle.grid.dt
    pz = _time_major(phi_z, (m, n))
    pj = _time_major(0.0 if phi_jump is None else phi_jump, (m, n, k))
    if not (np.all(np.isfinite(pz)) and np.all(np.isfinite(pj))):
        raise ValueError("integrands must be finite")

    lam_dt = bundle.model.jump_intensities * dt
    lam = np.empty((n + 1, m))
    lam[0] = 1.0
    log_l, jump_l = np.zeros((m, 1)), np.ones((m, 1))
    work = (np.empty((m, 1)), np.empty((m, 1)))
    for i in range(n):
        bad = _doleans_step(log_l, jump_l, pz[:, i, None], pj[:, i, None, :], bundle.dw[:, i],
                            bundle.dn[:, i], dt, lam_dt, work)
        if bad.size:
            raise _signed_density(bad)
        lam[i + 1] = _exponential(log_l, jump_l)[:, 0]
    return RNProcess(bundle=bundle, lam=lam.T, phi_z=pz, phi_jump=pj)


@dataclass(frozen=True)
class KazamakiReport:
    """Uniform lower-bound check on jump integrands: phi_k >= -1 + delta."""

    delta: float
    worst_margin: float
    passed: bool


def kazamaki_check(rn: RNProcess, delta: float = 1e-6) -> KazamakiReport:
    """Check the jump integrands stay uniformly above -1 + delta.

    The bound is what certifies the stochastic exponential as a true
    martingale for this jump structure; vacuously true with no marks.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if rn.phi_jump.size == 0:
        return KazamakiReport(delta=delta, worst_margin=np.inf, passed=True)
    worst = float(rn.phi_jump.min() - (-1.0 + delta))
    return KazamakiReport(delta=delta, worst_margin=worst, passed=worst >= 0.0)


@dataclass(frozen=True)
class MartingaleReport:
    """Cross-path mean of the density at every node, against 1."""

    means: np.ndarray
    std_errors: np.ndarray
    k_sigma: float

    @property
    def flagged(self) -> np.ndarray:
        return np.flatnonzero(np.abs(self.means - 1.0) > self.k_sigma * self.std_errors)

    @property
    def passed(self) -> bool:
        return self.flagged.size == 0


def martingale_diagnostic(rn: RNProcess, k_sigma: float = 3.0) -> MartingaleReport:
    m = rn.bundle.path_count
    means = rn.lam.mean(axis=0)
    ses = rn.lam.std(axis=0) / np.sqrt(m)
    return MartingaleReport(means=means, std_errors=ses, k_sigma=k_sigma)


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
    one entry per column. Unless the weights are finite and nonnegative with
    a positive sum (exact zeros allowed) EstimatorFailure is raised, listing
    the negative or non-finite ones; a non-finite payload raises ValueError."""
    w = np.asarray(weights, dtype=float)
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
    se = np.sqrt((v * v) @ ((payload - mean) ** 2))
    return (float(mean), float(se)) if np.ndim(payload) == 1 else (mean, se)


def weighted_estimate(bundle: PathBundle, weights, payload, node: int = 0,
                      config: RegressionConfig = RegressionConfig()) -> Estimate:
    """The weighted expectation of ``payload`` at ``node`` as an Estimate:
    the per-path values of ``weighted_condexp`` and the importance-sampling
    standard error of ``weighted_mean_se``."""
    per_path = weighted_condexp(bundle, weights, payload, node, config)
    _, se = weighted_mean_se(weights, payload)
    return Estimate.at_node(per_path, se, node)


@dataclass(frozen=True)
class GirsanovReport:
    """Reweighted increment means against their predicted drifts, per step."""

    dw_gap: np.ndarray
    dw_se: np.ndarray
    dn_gap: np.ndarray
    dn_se: np.ndarray
    k_sigma: float

    @property
    def worst_z(self) -> float:
        """Largest |gap| / SE; a zero SE scores a zero gap 0 and any other inf."""
        gap = np.abs(np.concatenate([self.dw_gap, self.dn_gap.ravel()]))
        se = np.concatenate([self.dw_se, self.dn_se.ravel()])
        z = np.divide(gap, se, out=np.full(gap.shape, np.inf), where=se > 0)
        return float(np.where(gap == 0.0, 0.0, z).max())

    @property
    def passed(self) -> bool:
        return self.worst_z <= self.k_sigma


def girsanov_shift_check(rn: RNProcess, k_sigma: float = 4.0) -> GirsanovReport:
    """Check the measure change moves increments the way it should.

    Under the reweighted measure, E[dW_i] = E[phi_z(t_i)] dt and
    E[dN_{k,i}] = lambda_k E[1 + phi_k(t_i)] dt, both exactly at the
    discrete level. Gaps are self-normalized weighted means of
    d = increment - predicted drift (``weighted_mean_se``).
    """
    b = rn.bundle
    m, n, k = b.path_count, b.grid.step_count, b.mark_count
    dt = b.grid.dt
    # time-major like dw, as weighted_mean_se's sums follow the payload's layout
    dw_gap, dw_se = weighted_mean_se(rn.terminal, np.subtract(b.dw, rn.phi_z * dt, order="F"))
    predicted = b.model.jump_intensities * (1.0 + rn.phi_jump) * dt
    dn_gap, dn_se = weighted_mean_se(rn.terminal, (b.dn - predicted).reshape(m, n * k))
    return GirsanovReport(dw_gap=dw_gap, dw_se=dw_se, dn_gap=dn_gap.reshape(n, k),
                          dn_se=dn_se.reshape(n, k), k_sigma=k_sigma)
