"""Backward solver for quadratic-exponential BSDEs with jumps.

Discretization of Y(t) = xi + int g ds - int Z dW - int int Ups dN~ on the
bundle's grid, with conditional expectations estimated by ridge-penalized
polynomial regression in the state (least-squares Monte Carlo). Backward
recursion per step i:

    Z_i      = E[ Y_{i+1} dW_i | X(t_i) ] / dt
    Ups_{k,i}= E[ Y_{i+1} (dN_{k,i} - lambda_k dt) | X(t_i) ] / (lambda_k dt)
    Y_i      = E[ Y_{i+1} | X(t_i) ] + g(Z_i, Ups_i) dt

At nodes whose features carry no information (t_0 always; every node when
sigma = 0 and K = 0) the estimates collapse to plain cross-path means, which
reduces the scheme to deterministic backward Euler. Driver inputs are
clamped to configured guards against regression outliers.

``solve_bsde`` runs this recursion once for a block of terminals and returns
one result, ``BsdeColumns``: the value process (and optionally densities and
the controls, the clamped values the driver actually saw) at the nodes the
caller reads. ``residual_replay`` checks a one-column solve read at every node.
The per-step Doleans-Dade factor (``_doleans_step``) lives here too: the
sweep and ``measure.doleans_dade`` share it and its guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import Driver
from .errors import EstimatorFailure, SignedDensityFailure, SolverFailure
from .market import PathBundle

__all__ = [
    "RegressionConfig",
    "BsdeColumns",
    "ResidualReport",
    "regress_condexp",
    "features_at_node",
    "condexp_at_node",
    "solve_bsde",
    "residual_replay",
]


@dataclass(frozen=True)
class RegressionConfig:
    """Basis and guards for the conditional-expectation regressions.

    degree                polynomial degree in the (standardized) state
    ridge                 Tikhonov penalty on non-intercept coefficients
    jump_count_features   append cumulative per-mark jump counts to the basis
    z_clip, upsilon_clip  symmetric clamps on driver inputs
    """

    degree: int = 3
    ridge: float = 1e-8
    jump_count_features: bool = False
    z_clip: float = 10.0
    upsilon_clip: float = 5.0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if not 0.0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be >= 0 and finite, got {self.ridge}")
        for name in ("z_clip", "upsilon_clip"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


def regress_condexp(
    features: np.ndarray, targets: np.ndarray, ridge: float = 1e-8, gram=None
):
    """Fitted values of a (ridge) least-squares regression.

    ``features`` is (M, p); ``targets`` is (M,) or (M, q) for q regressions
    sharing one design matrix. The penalty is not applied to an intercept
    (constant) column in position 0. With ridge = 0 a rank-deficient design
    raises SolverFailure rather than silently picking a pseudoinverse
    solution. ``gram`` is the design's F^T F when the caller has already
    formed it (it is not modified); with ridge = 0 it is not used.

    A 2-d fit is returned as the (M, q) transpose of a (q, M) array, so each
    fitted column is contiguous.
    """
    f = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {f.shape}")
    if y.shape[0] != f.shape[0]:
        raise ValueError(
            f"targets first axis {y.shape[0]} != features rows {f.shape[0]}"
        )
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    p = f.shape[1]
    if ridge == 0.0:
        beta, _, rank, _ = np.linalg.lstsq(f, y, rcond=None)
        if rank < p:
            raise SolverFailure(
                f"design matrix rank {rank} < {p} columns with zero penalty"
            )
        return (beta.T @ f.T).T
    penalty = np.full(p, ridge)
    if np.all(f[:, 0] == f[0, 0]):
        penalty[0] = 0.0
    gram = (f.T @ f if gram is None else gram) + np.diag(penalty)
    beta = np.linalg.solve(gram, f.T @ y)
    return (beta.T @ f.T).T


def _standardize(col: np.ndarray):
    m = col.mean()
    s = col.std()
    if not np.isfinite(s) or s <= 1e-12 * (1.0 + abs(m)):
        return None
    return (col - m) / s


def features_at_node(
    bundle: PathBundle, node: int, config: RegressionConfig
) -> np.ndarray | None:
    """Regression design at grid node: [1, x, ..., x^degree] in the
    standardized state, optionally followed by standardized cumulative jump
    counts. Returns None when every candidate column is constant (the node
    carries no cross-path information). The design is the (M, p) view of a
    (p, M) buffer, so each basis function is one contiguous row."""
    xs = _standardize(bundle.state[:, node])
    powers = config.degree if xs is not None else 0
    counts = []
    if config.jump_count_features and bundle.mark_count and node > 0:
        for k in range(bundle.mark_count):
            ck = _standardize(bundle.jump_counts[:, node - 1, k].astype(float))
            if ck is not None:
                counts.append(ck)
    if not powers and not counts:
        return None
    design = np.empty((1 + powers + len(counts), bundle.path_count))
    design[0] = 1.0
    # x^j = x^(j-1) * x, the multiplication order of np.vander
    for j in range(1, powers + 1):
        np.multiply(design[j - 1], xs, out=design[j])
    for row, c in zip(design[1 + powers:], counts):
        row[:] = c
    return design.T


def condexp_at_node(
    bundle: PathBundle, node: int, targets: np.ndarray, config: RegressionConfig
):
    """Estimate E[targets | F_{t_node}] pathwise.

    Node N (the horizon) returns the targets unchanged; nodes with
    degenerate features return the plain cross-path mean.
    """
    y = np.asarray(targets, dtype=float)
    if node < 0 or node > bundle.grid.step_count:
        raise ValueError(f"node {node} outside grid 0..{bundle.grid.step_count}")
    if node == bundle.grid.step_count:
        return y
    return _project(features_at_node(bundle, node, config), y, config.ridge)


def _project(feats: np.ndarray | None, targets: np.ndarray, ridge: float,
             gram=None) -> np.ndarray:
    """Regression fit on the design; the plain cross-path mean without one,
    in the targets' memory layout."""
    if feats is None:
        fit = np.empty_like(targets)
        fit[...] = targets.mean(axis=0)
        return fit
    return regress_condexp(feats, targets, ridge, gram)


@dataclass(frozen=True)
class BsdeColumns:
    """One backward sweep over B terminals, read at the requested nodes.

    y        {node: (M, B)} value process
    density  {node: (M, D)} L(T)/L(t_node) for the first D columns, L the
             stochastic exponential of the driver's partials at the controls
    z        {node: (M, B)} Brownian control on [t_node, t_node+1), and
    upsilon  {node: (M, B, K)} jump controls, per mark: the clamped values the
             driver saw, at the read nodes below N; empty without ``controls``
    clamped_z, clamped_upsilon (B,) per column

    Every array is a transposed view of the sweep's (B, M), (D, M) or
    (K, B, M) rows, so every column y[node][:, j], density[node][:, j],
    z[node][:, j] or upsilon[node][:, j, k] is contiguous.
    """

    y: dict
    density: dict
    z: dict
    upsilon: dict
    clamped_z: np.ndarray
    clamped_upsilon: np.ndarray


def _doleans_step(log_l, jump_l, phi_z, phi_jump, dw, dn, dt, lam_dt) -> None:
    """One step of D stochastic exponentials of int phi_z dW + sum_k int
    phi_k dN~_k, in place: log_l (M, D) adds phi_z dW - phi_z^2 dt / 2 -
    sum_k phi_k lambda_k dt and jump_l (M, D) multiplies in prod_k
    (1 + phi_k)^{dN_k}, a product so that an overflow stays non-finite (a sum
    of logs would exponentiate to a finite zero). phi_z (M, D), phi_jump
    (M, D, K), dw (M,), dn (M, K)."""
    step = phi_z * dw[:, None] - 0.5 * phi_z * phi_z * dt
    if lam_dt.size:
        # the compensator sum_k phi_k lambda_k dt, added in mark order as
        # ndarray.sum over the mark axis does
        comp = phi_jump[..., 0] * lam_dt[0]
        for k in range(1, lam_dt.size):
            comp += phi_jump[..., k] * lam_dt[k]
        step -= comp
    log_l += step
    # the per-jump factors 1 + phi_k enter only on paths where a mark fired
    jumped = np.flatnonzero(dn.any(axis=1))
    factors, jumps = 1.0 + phi_jump[jumped], dn[jumped, None, :]
    bad = ((factors <= 0.0) & (jumps > 0)).any(axis=(1, 2))
    if np.any(bad):
        paths = jumped[bad]
        raise SignedDensityFailure(
            f"non-positive per-jump factor at a realized jump on "
            f"{paths.size} paths (first: {paths[:5]})",
            paths=paths,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        jump_l[jumped] *= (factors ** jumps).prod(axis=2)


def _exponential(log_l, jump_l) -> np.ndarray:
    """The density exp(log_l) * jump_l of ``_doleans_step``'s state."""
    # the finiteness guard below turns any overflow into a typed failure
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.exp(log_l) * jump_l
    if not np.all(np.isfinite(density)):
        raise EstimatorFailure("density path overflowed to non-finite values")
    return density


def _clamp(values: np.ndarray, bound: float, axis):
    """Clip values to [-bound, bound] in place and return how many lay
    outside, per column (counted over ``axis``), or 0 when none did. The
    count and clip passes run only when the extremes of the whole array show
    that some value is outside."""
    if values.min() >= -bound and values.max() <= bound:
        return 0
    counts = np.count_nonzero(np.abs(values) > bound, axis=axis)
    np.clip(values, -bound, bound, out=values)
    return counts


def solve_bsde(
    bundle: PathBundle,
    driver: Driver,
    terminal: np.ndarray,
    config: RegressionConfig = RegressionConfig(),
    *,
    nodes,
    densities: int = 0,
    controls: bool = False,
) -> BsdeColumns:
    """Run the backward regression scheme once for a block of terminals.

    ``terminal`` is (M,) or (M, B); each step builds one design and its Gram
    and fits all B columns of Y_{i+1} in one regression and their B (1 + K)
    control targets in a second. Only the value process of the current step
    is kept; BsdeColumns holds it at ``nodes``, and with ``controls`` also
    z and upsilon at the nodes below N.
    The sweep stores each column as a contiguous row: the value process is
    (B, M), the control targets (1 + K, B, M), z (B, M) and upsilon
    (K, B, M), so every per-path operation runs its inner loop over paths;
    the driver, the regression and ``_doleans_step`` see their transposes,
    which have the shapes of their contracts.
    The first ``densities`` columns also run ``_doleans_step`` on the driver's
    partials at their controls and return L(T)/L(t_node), under its guards
    and the uniform Kazamaki bound: a dg/du_k below -1 + 1e-12 at any step
    raises SignedDensityFailure after the sweep.
    """
    xi = np.asarray(terminal, dtype=float)
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    if xi.ndim not in (1, 2) or xi.shape[0] != m:
        raise ValueError(f"terminal must have shape ({m},) or ({m}, B), got {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("terminal values must be finite")
    if driver.mark_count != k:
        raise ValueError(f"driver has {driver.mark_count} marks, bundle has {k}")
    reads = {int(node) for node in nodes}
    if not reads <= set(range(n + 1)):
        raise ValueError(f"nodes must lie in 0..{n}, got {sorted(reads)}")

    dt = bundle.grid.dt
    lam_dt = bundle.model.jump_intensities * dt
    # the (B, M) value process, copied once from the terminal
    cur = xi.reshape(m, -1).T.copy()
    y_at = {n: cur.T} if n in reads else {}
    z_at, u_at = {}, {}
    log_l, jump_l = np.zeros((densities, m)), np.ones((densities, m))
    state_at = {n: (log_l.copy(), jump_l.copy())} if n in reads else {}
    clamped_z = clamped_u = np.zeros(cur.shape[0], dtype=np.int64)
    increments = np.empty((1 + k, m))
    worst = np.inf

    for i in range(n - 1, -1, -1):
        feats = features_at_node(bundle, i, config)
        gram = None if feats is None else feats.T @ feats
        y_fit = _project(feats, cur.T, config.ridge, gram).T

        # martingale-increment control variate: the fitted mean is known at
        # t_i and the increments are conditionally centered, so subtracting
        # it leaves the estimand unchanged while the target variance drops
        # from O(Y^2) to O(one-step variance); targets are (1 + K, B, M)
        increments[0] = bundle.dw[:, i]
        np.subtract(bundle.dn[:, i].T, lam_dt[:, None], out=increments[1:])
        targets = (cur - y_fit)[None] * increments[:, None]
        fitted = _project(feats, targets.reshape(-1, m).T, config.ridge,
                          gram).T.reshape(targets.shape)
        z_i, u_i = fitted[0], fitted[1:]
        z_i /= dt
        u_i /= lam_dt[:, None, None]
        clamped_z = clamped_z + _clamp(z_i, config.z_clip, 1)
        if k:
            clamped_u = clamped_u + _clamp(u_i, config.upsilon_clip, (0, 2))
        out, phi_z, phi_jump = driver.evaluate(z_i.T, u_i.T, densities)
        cur = out.T
        cur *= dt
        cur += y_fit
        # a finite sum has finite terms; only a non-finite one needs the scan
        if not np.isfinite(cur.sum()) and not np.all(np.isfinite(cur)):
            raise SolverFailure(f"non-finite value process at step {i}", step=i)

        if densities:
            worst = min(worst, float(phi_jump.min(initial=np.inf)))
            _doleans_step(log_l.T, jump_l.T, phi_z, phi_jump, bundle.dw[:, i],
                          bundle.dn[:, i], dt, lam_dt)
        if i in reads:
            y_at[i], state_at[i] = cur.T, (log_l.copy(), jump_l.copy())
            if controls:
                z_at[i], u_at[i] = z_i.T, u_i.T

    density = {node: _exponential(*state).T for node, state in state_at.items()}
    if worst < -1.0 + 1e-12:
        raise SignedDensityFailure(
            f"jump integrand reaches {1.0 + worst:.3e} above -1; "
            "density is not a positive martingale"
        )
    return BsdeColumns(y_at, density, z_at, u_at, clamped_z, clamped_u)


# floor of the replay's standard error, in machine epsilons of a step's terms
REPLAY_SE_FLOOR_ULPS = 64.0


@dataclass(frozen=True)
class ResidualReport:
    """Cross-path mean of the one-step identity residual and its SE, per step."""

    means: np.ndarray
    std_errors: np.ndarray
    k_sigma: float

    @property
    def z_scores(self) -> np.ndarray:
        """|mean| / SE per step, 0 where the mean is exactly 0."""
        return np.divide(np.abs(self.means), self.std_errors,
                         out=np.zeros_like(self.means), where=self.means != 0.0)

    @property
    def flagged(self) -> np.ndarray:
        """Step indices whose z-score exceeds k_sigma or is NaN."""
        return np.flatnonzero(~(self.z_scores <= self.k_sigma))

    @property
    def worst_z(self) -> float:
        return float(self.z_scores.max(initial=0.0))

    @property
    def passed(self) -> bool:
        return self.flagged.size == 0


def residual_replay(
    bundle: PathBundle, driver: Driver, columns: BsdeColumns, k_sigma: float = 3.0
) -> ResidualReport:
    """Replay the discrete identity
    Y_{i+1} - Y_i + g dt - Z_i dW_i - sum_k Ups_{k,i} (dN_{k,i} - lambda_k dt)
    and report its cross-path mean per step. ``columns`` is a one-column
    solve read at every node with ``controls``. Near zero by construction for
    a fresh solve; a corrupted Y at node i moves the means at steps i-1 and i
    outside the noise band.

    The standard error is taken at the one-step increment scale
    std(dY + g dt)/sqrt(M), the noise level the scheme's conditional
    expectations operate at. The residual after subtracting the control
    integrands can have far smaller spread, but its leftover is estimation
    bias rather than sampling noise, so it would miscalibrate the flag. Its
    floor, REPLAY_SE_FLOOR_ULPS epsilons of the mean absolute sum of the
    step's terms, judges a noiseless run, whose means are a few ulps of
    rounding, against that rounding.
    """
    n = bundle.grid.step_count
    if columns.clamped_z.size != 1:
        raise ValueError(f"residual_replay needs one column, got {columns.clamped_z.size}")
    if len(columns.y) != n + 1 or len(columns.z) != n:
        raise ValueError("residual_replay needs y at every node and the controls "
                         "below N (solve_bsde with controls=True)")
    dt = bundle.grid.dt
    lam_dt = bundle.model.jump_intensities * dt
    floor = REPLAY_SE_FLOOR_ULPS * np.finfo(float).eps
    means = np.empty(n)
    ses = np.empty(n)
    for i in range(n):
        z, ups = columns.z[i][:, 0], columns.upsilon[i][:, 0]
        y_next, y_now = columns.y[i + 1][:, 0], columns.y[i][:, 0]
        g_dt = driver(z, ups) * dt
        step = y_next - y_now + g_dt
        z_dw = z * bundle.dw[:, i]
        resid = step - z_dw
        size = np.abs(y_next) + np.abs(y_now) + np.abs(g_dt) + np.abs(z_dw)
        if bundle.mark_count:
            jumps = ups * (bundle.dn[:, i] - lam_dt)
            resid -= jumps.sum(axis=1)
            size += np.abs(jumps).sum(axis=1)
        means[i] = resid.mean()
        ses[i] = max(step.std() / np.sqrt(bundle.path_count), floor * size.mean())
    return ResidualReport(means=means, std_errors=ses, k_sigma=k_sigma)
