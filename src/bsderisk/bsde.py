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
caller reads, as copies of the sweep's in-place workspace (node 0 excepted);
``BsdeColumns.estimate`` is the one place a value read off it gets its
standard error. ``residual_replay`` checks a one-column solve read at every node.
The per-step Doleans-Dade factor (``_doleans_step``) lives here too: the
sweep and ``measure.doleans_dade`` share it and its guards.

Every fit, in the sweep or standalone (``condexp_at_node``), is the same
two steps on the (p, M) basis rows of ``features_at_node``: ``_coefficients``
finds the coefficients on the calling thread with F Y^T summed over path
chunks in path order, and ``_fit_range`` forms the fitted values chunk by
chunk, each chunk's product at most 2^17 multiply-adds. Two calls span the
whole bundle: the Gram F F^T (about p^2 M / 2 multiply-adds) and, at ridge
0, ``lstsq`` on the (M, p) design; forming the Gram from path chunks is open
(ROADMAP.md, "The serial part of a sweep"). The sweep runs its per-path
work over contiguous path ranges: for large blocks one range per usable
CPU, on a ``concurrent.futures.ThreadPoolExecutor`` that lives for the
sweep, else one range on the calling thread. Its results do not depend on
the number of ranges.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from . import market
from .drivers import Driver
from .errors import EstimatorFailure, SignedDensityFailure, SolverFailure
from .market import PathBundle

__all__ = [
    "RegressionConfig",
    "Estimate",
    "BsdeColumns",
    "ResidualReport",
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


# the multiply-adds of one chunked product of a fit, q target rows by p basis
# rows over a chunk of paths, stay at or below 2^17: OpenBLAS (0.3.31) may run a
# product on its own threads above 2^18 (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4), and those threads then spin-wait between
# calls on CPUs the sweep's path ranges need
_BLAS_BLOCK = 2**17
_MAX_CHUNK = 16384


def _chunk_length(q: int, p: int) -> int:
    """Paths per BLAS call of a fit of q target rows on p basis rows: the
    largest power of two with q p chunk <= 2^17, at most 16384 and at least
    2 (see ``_fit_range``)."""
    chunk = _MAX_CHUNK
    while chunk > 2 and q * p * chunk > _BLAS_BLOCK:
        chunk //= 2
    return chunk


def _coefficients(design, rows: np.ndarray, ridge: float, gram=None) -> np.ndarray:
    """What the fits of ``rows`` (q, M) on ``design`` (p, M) need on any path
    range: the (p, q) ridge coefficients, or the q cross-path means when
    ``design`` is None.

    The penalty is not applied to a constant first basis row. F Y^T is
    summed over path chunks in path order (see ``_chunk_length``), so the
    coefficients do not depend on how the fitted values are split. ``gram``
    is design design^T when the caller has already formed it. With ridge = 0
    a rank-deficient design raises SolverFailure rather than silently
    picking a pseudoinverse solution.
    """
    if design is None:
        return rows.T.mean(axis=0)
    p, m = design.shape
    if ridge == 0.0:
        beta, _, rank, _ = np.linalg.lstsq(design.T, rows.T, rcond=None)
        if rank < p:
            raise SolverFailure(
                f"design matrix rank {rank} < {p} columns with zero penalty"
            )
        return beta
    penalty = np.full(p, ridge)
    if np.all(design[0] == design[0, 0]):
        penalty[0] = 0.0
    chunk = _chunk_length(rows.shape[0], p)
    moments = design[:, :chunk] @ rows[:, :chunk].T
    for lo in range(chunk, m, chunk):
        moments += design[:, lo:lo + chunk] @ rows[:, lo:lo + chunk].T
    gram = (design @ design.T if gram is None else gram) + np.diag(penalty)
    return np.linalg.solve(gram, moments)


def _fit_range(coef: np.ndarray, design, out: np.ndarray, lo: int, hi: int) -> None:
    """Write the fitted values of ``_coefficients`` on paths lo..hi-1 into
    out[:, lo:hi] (out is (q, M)): coef^T design in path chunks, or the
    means. The bits of a fitted value do not depend on the range or chunk
    that holds it. Matrix products give that for any piece of two or more
    paths, so a trailing single path joins the chunk before it; a single
    row is a sum of scaled basis rows instead, as a matrix-vector kernel
    rounds differently at different offsets."""
    if design is None:
        out[:, lo:hi] = coef[:, None]
        return
    q, p = out.shape[0], design.shape[0]
    chunk = _chunk_length(q, p)
    start = lo
    while start < hi:
        stop = hi if hi - start <= chunk + 1 else start + chunk
        if q == 1:
            row = np.multiply(design[0, start:stop], coef[0, 0], out=out[0, start:stop])
            for j in range(1, p):
                row += design[j, start:stop] * coef[j, 0]
        else:
            np.matmul(coef.T, design[:, start:stop], out=out[:, start:stop])
        start = stop


def _grid_node(node, n: int) -> int:
    """The grid node ``node`` names: an integer in 0..n, where an integral
    float names that node; anything else, a bool too, raises ValueError."""
    try:
        named = int(node) == node and not isinstance(node, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        named = False
    if not named or not 0 <= int(node) <= n:
        raise ValueError(f"node must be an integer in 0..{n}, got {node!r}")
    return int(node)


def _standardize(col: np.ndarray):
    m = col.mean()
    s = col.std()
    if not np.isfinite(s) or s <= 1e-12 * (1.0 + abs(m)):
        return None
    return (col - m) / s


def features_at_node(
    bundle: PathBundle, node: int, config: RegressionConfig
) -> np.ndarray | None:
    """Regression design at grid node: the (p, M) basis rows [1, x, ...,
    x^degree] in the standardized state, optionally followed by standardized
    cumulative jump counts, each row contiguous. Returns None when every
    candidate row is constant (the node carries no cross-path information)."""
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
    return design


def condexp_at_node(
    bundle: PathBundle, node: int, targets: np.ndarray, config: RegressionConfig
):
    """Estimate E[targets | F_{t_node}] pathwise for (M,) or (M, q) targets.

    ``node`` follows the rule of ``solve_bsde``'s nodes, and a non-finite
    target raises ValueError. Node N (the horizon) returns the targets
    unchanged. Other nodes fit as the sweep does (``_coefficients``, then
    ``_fit_range``), so the sweep's fits and this one agree bit for bit;
    nodes with degenerate features return the plain cross-path mean. A 2-d
    fit is the (M, q) transpose of a (q, M) array, so each fitted column is
    contiguous.
    """
    y = np.asarray(targets, dtype=float)
    m, n = bundle.path_count, bundle.grid.step_count
    node = _grid_node(node, n)
    if y.ndim not in (1, 2) or y.shape[0] != m:
        raise ValueError(f"targets must have shape ({m},) or ({m}, q), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if node == n:
        return y
    design = features_at_node(bundle, node, config)
    rows = y.reshape(m, -1).T
    fit = np.empty(rows.shape)
    _fit_range(_coefficients(design, rows, config.ridge), design, fit, 0, m)
    return fit.T if y.ndim == 2 else fit[0]


@dataclass(frozen=True)
class Estimate:
    """A reported value, its standard error and its per-path values, from
    one of three constructors, each the one place of its standard-error
    rule: a sweep read (``BsdeColumns.estimate``), a weighted read
    (``measure.weighted_estimate``) and a linear combination (``combine``).
    """

    value: float
    se: float
    per_path: np.ndarray

    @classmethod
    def at_node(cls, per_path: np.ndarray, se, node: int) -> Estimate:
        """At node 0 every path carries the value; elsewhere it is the mean."""
        return cls(float(per_path[0] if node == 0 else per_path.mean()), float(se), per_path)

    @classmethod
    def combine(cls, weights, parts) -> Estimate:
        """sum w value, sqrt(sum (w se)^2) and sum w per_path, each from 0."""
        terms = list(zip(weights, parts))
        return cls(float(sum(w * p.value for w, p in terms)),
                   float(math.sqrt(sum((w * p.se) ** 2 for w, p in terms))),
                   sum(w * p.per_path for w, p in terms))


@dataclass(frozen=True)
class BsdeColumns:
    """One backward sweep over B terminals, read at the requested nodes.

    y        {node: (M, B)} value process; node 1 too when node 0 is read
    density  {node: (M, D)} L(T)/L(t_node) for the first D columns, L the
             stochastic exponential of the driver's partials at the controls
    z        {node: (M, B)} Brownian control on [t_node, t_node+1), and
    upsilon  {node: (M, B, K)} jump controls, per mark: the clamped values the
             driver saw, at the read nodes below N; empty without ``controls``
    clamped_z, clamped_upsilon (B,) per column

    Every array is the transpose of (B, M), (D, M) or (K, B, M) rows, so
    every column y[node][:, j], density[node][:, j], z[node][:, j] or
    upsilon[node][:, j, k] is contiguous. The rows are copies, not views of
    the sweep's workspace, except y, z and upsilon at node 0.
    """

    y: dict
    density: dict
    z: dict
    upsilon: dict
    clamped_z: np.ndarray
    clamped_upsilon: np.ndarray

    def estimate(self, node: int, column: int = 0, minus: int | None = None,
                 step: float = 1.0) -> Estimate:
        """y[:, column] at ``node``, or with ``minus`` (y[:, column] -
        y[:, minus]) / step, as an Estimate whose standard error is the
        spread of the same per-path values at max(node, 1) over sqrt(M)."""

        def values(at):
            y = self.y[at]
            return y[:, column].copy() if minus is None else (y[:, column] - y[:, minus]) / step

        spread = values(max(node, 1))
        return Estimate.at_node(values(node), spread.std() / math.sqrt(spread.size), node)


def _doleans_step(log_l, jump_l, phi_z, phi_jump, dw, dn, dt, lam_dt, work) -> np.ndarray:
    """One step of D stochastic exponentials of int phi_z dW + sum_k int
    phi_k dN~_k, in place: log_l (M, D) adds phi_z dW - phi_z^2 dt / 2 -
    sum_k phi_k lambda_k dt and jump_l (M, D) multiplies in prod_k
    (1 + phi_k)^{dN_k}, a product so that an overflow stays non-finite (a sum
    of logs would exponentiate to a finite zero). phi_z (M, D), phi_jump
    (M, D, K), dw (M,), dn (M, K); ``work`` is two scratch arrays of log_l's
    shape.

    Returns the rows (paths) where a per-jump factor 1 + phi_k is
    non-positive at a realized jump, in order; jump_l is then left as it
    was. An empty array when there are none."""
    step, drift = work
    np.multiply(phi_z, dw[:, None], out=step)
    # phi_z^2 dt / 2, multiplied in the order of 0.5 * phi_z * phi_z * dt
    np.multiply(phi_z, 0.5, out=drift)
    drift *= phi_z
    drift *= dt
    step -= drift
    if lam_dt.size:
        # the compensator sum_k phi_k lambda_k dt, added in mark order as
        # ndarray.sum over the mark axis does
        np.multiply(phi_jump[..., 0], lam_dt[0], out=drift)
        for k in range(1, lam_dt.size):
            drift += phi_jump[..., k] * lam_dt[k]
        step -= drift
    log_l += step
    # the per-jump factors 1 + phi_k enter only on paths where a mark fired
    jumped = np.flatnonzero(dn.any(axis=1))
    factors, jumps = 1.0 + phi_jump[jumped], dn[jumped, None, :]
    bad = jumped[((factors <= 0.0) & (jumps > 0)).any(axis=(1, 2))]
    if not bad.size:
        with np.errstate(over="ignore", invalid="ignore"):
            jump_l[jumped] *= (factors ** jumps).prod(axis=2)
    return bad


def _signed_density(paths: np.ndarray) -> SignedDensityFailure:
    """The failure for the paths ``_doleans_step`` returned."""
    return SignedDensityFailure(
        f"non-positive per-jump factor at a realized jump on "
        f"{paths.size} paths (first: {paths[:5]})",
        paths=paths,
    )


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


# a sweep splits its per-path work over threads from this many values per
# (B, M) block; below it thread hand-offs cost more than they save
_SPLIT_FLOOR = 2**17


def _path_ranges(paths: int, columns: int) -> list:
    """The contiguous path ranges of a sweep's per-path phases: for a block
    of at least ``_SPLIT_FLOOR`` values, one range of two or more paths (see
    ``_fit_range``) per usable CPU; else one range. Smaller ranges would
    balance better but cost more than they save: each numpy call of a range
    hands the interpreter lock between threads."""
    count = max(1, market._worker_count(paths // 2)) if columns * paths >= _SPLIT_FLOOR else 1
    edges = [paths * r // count for r in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_ranges(pool, phase, ranges) -> list:
    """phase(lo, hi) on every range: on the calling thread when ``pool`` is
    None, else on the pool's threads, which take the ranges in order as they
    come free, each range under a copy of the caller's context (numpy's error
    state is per thread). Returns the results in range order once every range
    has finished, so no range still writes when an exception is raised again
    here, the first in range order."""
    if pool is None:
        return [phase(lo, hi) for lo, hi in ranges]
    futures = [pool.submit(contextvars.copy_context().run, phase, lo, hi)
               for lo, hi in ranges]
    concurrent.futures.wait(futures)
    return [future.result() for future in futures]


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
    control targets in a second. A step holds one (p, M) design: it is freed
    once the step's fits are done, before the next is built. Only the value
    process of the current step is kept; BsdeColumns holds it at ``nodes``
    (integers in 0..N, where an integral float names that node; node 1 too
    if node 0 is read), and with ``controls`` z and upsilon at nodes below N.
    The sweep stores each column as a contiguous row: the value process is
    (B, M), the control targets (1 + K, B, M), z (B, M) and upsilon
    (K, B, M), so every per-path operation runs its inner loop over paths;
    the driver and ``_doleans_step`` see their transposes, which have the
    shapes of their contracts. These arrays are one workspace, allocated
    once per sweep and written in place, Y_i over the rows of Y_{i+1}; a
    read node keeps copies of its rows, except node 0, the last step.
    Each step finds the regression coefficients on the calling thread and
    runs the rest in two per-path phases over contiguous path ranges, one
    thread per usable CPU for blocks of at least ``_SPLIT_FLOOR`` values:
    (A) the fit of Y_{i+1} and the control targets, (B) the fitted controls,
    the clamps, the driver, the value update (a non-finite Y_i raises
    SolverFailure) and the Doleans-Dade step. The results, and which failure
    is raised, do not depend on the number of ranges.
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
    cols = 1 if xi.ndim == 1 else xi.shape[1]
    if not 0 <= densities <= cols:
        raise ValueError(f"densities must be in 0..{cols}, the terminal's columns, got {densities}")
    if driver.mark_count != k:
        raise ValueError(f"driver has {driver.mark_count} marks, bundle has {k}")
    reads = {_grid_node(node, n) for node in nodes}
    # BsdeColumns.estimate takes the spread of a node-0 read at node 1
    y_reads = reads | {1} if 0 in reads else reads

    dt = bundle.grid.dt
    lam_dt = bundle.model.jump_intensities * dt
    # the (B, M) rows of Y_{i+1}, copied once from the terminal; phase B
    # overwrites them with Y_i at every step
    cur = xi.reshape(m, -1).T.copy()
    log_l, jump_l = np.zeros((densities, m)), np.ones((densities, m))
    y_at = {n: cur.copy().T} if n in y_reads else {}
    state_at = {n: (log_l.copy(), jump_l.copy())} if n in reads else {}
    z_at, u_at = {}, {}
    clamped_z = clamped_u = np.zeros(cols, dtype=np.int64)
    worst = np.inf

    # the step workspace, allocated in the first step after its design: that
    # design may build the bundle's cached jump counts, and a long-lived
    # array allocated above the workspace would keep the heap from reusing
    # its memory once the sweep frees it
    y_fit = None
    ranges = _path_ranges(m, cols)
    # one thread per range, alive for the sweep; one range needs none
    with (concurrent.futures.ThreadPoolExecutor(len(ranges)) if len(ranges) > 1
          else contextlib.nullcontext()) as pool:
        for i in range(n - 1, -1, -1):
            design = features_at_node(bundle, i, config)
            gram = None if design is None else design @ design.T
            y_coef = _coefficients(design, cur, config.ridge, gram)
            dw, dn = bundle.dw[:, i], bundle.dn[:, i]
            if y_fit is None:
                # the fit of Y_{i+1}, the control targets (1 + K, B, M) and
                # their fit, the compensated jumps, the driver's partials and
                # the Doleans-Dade step's scratch
                y_fit = np.empty((cols, m))
                targets, fitted = np.empty((1 + k, cols, m)), np.empty((1 + k, cols, m))
                comp_dn = np.empty((k, m))
                phi_z, phi_u = np.empty((densities, m)), np.empty((k, densities, m))
                work = (np.empty((densities, m)), np.empty((densities, m)))

            def phase_a(lo, hi):
                # martingale-increment control variate: the fitted mean is
                # known at t_i and the increments are conditionally centered,
                # so subtracting it leaves the estimand unchanged while the
                # target variance drops from O(Y^2) to O(one-step variance)
                _fit_range(y_coef, design, y_fit, lo, hi)
                noise = np.subtract(cur[:, lo:hi], y_fit[:, lo:hi], out=targets[0, :, lo:hi])
                np.subtract(dn[lo:hi].T, lam_dt[:, None], out=comp_dn[:, lo:hi])
                for j in range(k):
                    np.multiply(noise, comp_dn[j, lo:hi], out=targets[1 + j, :, lo:hi])
                noise *= dw[lo:hi]

            _run_ranges(pool, phase_a, ranges)
            c_coef = _coefficients(design, targets.reshape(-1, m), config.ridge, gram)

            def phase_b(lo, hi):
                _fit_range(c_coef, design, fitted.reshape(-1, m), lo, hi)
                z_i, u_i = fitted[0, :, lo:hi], fitted[1:, :, lo:hi]
                z_i /= dt
                u_i /= lam_dt[:, None, None]
                counts = (_clamp(z_i, config.z_clip, 1),
                          _clamp(u_i, config.upsilon_clip, (0, 2)) if k else 0)
                # the driver's value, then Y_i, goes into the rows of Y_{i+1},
                # which phase A has read; the control targets, fitted
                # already, are the driver's scratch
                buffers = (cur[:, lo:hi].T, phi_z[:, lo:hi].T, phi_u[:, :, lo:hi].T)
                value = driver.evaluate(z_i.T, u_i.T, densities, out=buffers,
                                        work=targets[:, :, lo:hi].transpose(0, 2, 1))[0].T
                value *= dt
                value += y_fit[:, lo:hi]
                # a finite sum has finite terms; only a non-finite one needs
                # the scan
                if not np.isfinite(value.sum()) and not np.all(np.isfinite(value)):
                    raise SolverFailure(f"non-finite value process at step {i}", step=i)
                if not densities:
                    return counts, np.inf, None
                low = float(phi_u[:, :, lo:hi].min(initial=np.inf))
                bad = _doleans_step(
                    log_l[:, lo:hi].T, jump_l[:, lo:hi].T, buffers[1], buffers[2],
                    dw[lo:hi], dn[lo:hi], dt, lam_dt,
                    (work[0][:, lo:hi].T, work[1][:, lo:hi].T))
                return counts, low, bad + lo

            results = _run_ranges(pool, phase_b, ranges)
            # the design is done with: freed before the read node's copies
            # and the next step's design are allocated
            design = None
            for (cz, cu), _, _ in results:
                clamped_z = clamped_z + cz
                clamped_u = clamped_u + cu
            if densities:
                worst = min(worst, *(low for _, low, _ in results))
                bad = np.concatenate([paths for *_, paths in results])
                if bad.size:
                    raise _signed_density(bad)
            # later steps overwrite the workspace, so a read node keeps
            # copies; node 0, the last step, keeps the rows themselves
            rows = np.copy if i else np.asarray
            if i in y_reads:
                y_at[i] = rows(cur).T
            if i in reads:
                state_at[i] = (log_l.copy(), jump_l.copy())
                if controls:
                    z_at[i], u_at[i] = rows(fitted[0]).T, rows(fitted[1:]).T

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
