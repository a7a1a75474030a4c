"""Market state: time grid, arithmetic jump-diffusion model, path bundles, payoffs.

The state process is the arithmetic Ito-Levy dynamic

    dX(t) = mu dt + sigma dW(t) + sum_k zeta_k dN_k(t),

driven by one Brownian motion and K independent Poisson processes with
intensities lambda_k, i.e. a discrete finite-activity Levy measure
nu = sum_k lambda_k delta_{zeta_k}. Every jump integral downstream is a
finite sum over the K marks.

A path bundle keeps X only at every c-th node and at N (``PathBundle``).
Every fit reads a node's state through ``PathBundle.walk``: X from one
block of c rows, refilled from the checkpoints, bit for bit as simulated,
only when the walk reaches a node outside it (a backward sweep refills it
once per block of c nodes, over its path ranges), and, for a basis with
jump-count features, the per-mark cumulative jump counts, one running
(K, M) block moved by the ``dn`` rows between nodes. ``PathBundle.states``
materializes rows of X for a caller that keeps them. No other module knows
the stride.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedPayoff

__all__ = [
    "TimeGrid",
    "JumpMark",
    "LevyModel",
    "PathBundle",
    "Payoff",
    "AffinePayoff",
    "ExpAffinePayoff",
    "PolynomialPayoff",
    "ClippedPayoff",
    "PortfolioPayoff",
    "build_grid",
    "checkpoint_stride",
    "simulate_paths",
    "terminal_values",
]

_MAX_SEED = 2**64
# the largest jump count one step of one mark can store: dn is int16
MAX_STEP_COUNT = int(np.iinfo(np.int16).max)
# the largest per-step jump rate lambda_k dt a scenario may set: at this rate
# a count above MAX_STEP_COUNT has probability below exp(-80000)
MAX_STEP_RATE = 1000.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < ... < t_N = T."""

    horizon: float
    step_count: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.step_count < 1:
            raise ValueError(f"step_count must be >= 1, got {self.step_count}")

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count

    @property
    def nodes(self) -> np.ndarray:
        # i/N is computed first so t_N == horizon exactly, whatever (T, N) are
        return self.horizon * (np.arange(self.step_count + 1) / self.step_count)


def build_grid(horizon: float, step_count: int) -> TimeGrid:
    """Construct a uniform grid; thin wrapper kept for symmetry with the CLI."""
    return TimeGrid(float(horizon), int(step_count))


@dataclass(frozen=True)
class JumpMark:
    """One atom of the jump measure: fixed size and Poisson intensity."""

    size: float
    intensity: float

    def __post_init__(self):
        if self.size == 0.0 or not math.isfinite(self.size):
            raise ValueError(f"jump size must be nonzero and finite, got {self.size}")
        if not (self.intensity > 0.0 and math.isfinite(self.intensity)):
            raise ValueError(f"jump intensity must be positive, got {self.intensity}")


@dataclass(frozen=True)
class LevyModel:
    """Arithmetic jump diffusion with constant coefficients."""

    x0: float
    mu: float = 0.0
    sigma: float = 0.0
    jumps: tuple[JumpMark, ...] = ()

    def __post_init__(self):
        for name in ("x0", "mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        sizes = [j.size for j in self.jumps]
        if len(set(sizes)) != len(sizes):
            raise ValueError("jump mark sizes must be distinct")

    @property
    def mark_count(self) -> int:
        return len(self.jumps)

    @property
    def jump_sizes(self) -> np.ndarray:
        return np.array([j.size for j in self.jumps])

    @property
    def jump_intensities(self) -> np.ndarray:
        return np.array([j.intensity for j in self.jumps])

    def terminal_mean(self, horizon: float) -> float:
        """E[X(T)] = x0 + mu T + sum_k lambda_k zeta_k T."""
        drift = self.mu + sum(j.intensity * j.size for j in self.jumps)
        return self.x0 + drift * horizon

    def terminal_variance(self, horizon: float) -> float:
        """Var[X(T)] = sigma^2 T + sum_k lambda_k zeta_k^2 T."""
        rate = self.sigma**2 + sum(j.intensity * j.size**2 for j in self.jumps)
        return rate * horizon


def checkpoint_stride(step_count: int) -> int:
    """Nodes between two stored running sums of a bundle of N steps,
    floor(sqrt(N + 1)): 7 at N = 50. A bundle keeps (N - 1) // c rows and a
    backward sweep recomputes c, so a stride near sqrt(N) keeps the two
    together, about 2 sqrt(N) rows, near their least."""
    return math.isqrt(step_count + 1)


@dataclass(frozen=True)
class PathBundle:
    """Simulated increments on a grid and the state they drive; immutable.

    dw           Brownian increments, shape (M, N), float64
    dn           Poisson jump counts per mark and step, shape (M, N, K), int16
                 (at most MAX_STEP_COUNT each)
    checkpoints  the running sum S = X - x0 of the increments at the nodes c,
                 2c, ... below N, c = checkpoint_stride(N): shape
                 ((N - 1) // c, M), float64, one contiguous row per node
    terminal     X at node N, shape (M,), float64

    X at any other node is not stored: ``walk`` and ``states`` recompute it
    forward from the nearest checkpoint at or below, with the operations and
    order of ``simulate_paths``, so every row is bit for bit the one the
    simulation summed. Node 0 is x0 on every path. Nor are the cumulative
    jump counts: ``walk`` sums them from dn as it goes.

    simulate_paths stores dw and dn time-major, one contiguous row per date,
    and these fields are transposed views of that storage: the
    cross-section dw[:, i] that a backward step reads is contiguous. The
    arrays are bit-identical for any number of simulation worker threads.
    """

    grid: TimeGrid
    model: LevyModel
    path_count: int
    seed: int
    dw: np.ndarray
    dn: np.ndarray
    checkpoints: np.ndarray
    terminal: np.ndarray

    @property
    def mark_count(self) -> int:
        return self.model.mark_count

    @property
    def stride(self) -> int:
        """Nodes between two checkpoints, ``checkpoint_stride(N)``."""
        return checkpoint_stride(self.grid.step_count)

    def states(self, lo: int, hi: int) -> np.ndarray:
        """X at nodes lo..hi-1 (0 <= lo < hi <= N + 1) as (hi - lo, M)
        time-major rows: row r is the contiguous cross-section at node
        lo + r."""
        n, m = self.grid.step_count, self.path_count
        if not 0 <= lo < hi <= n + 1:
            raise ValueError(f"need 0 <= lo < hi <= {n + 1}, got lo={lo}, hi={hi}")
        out = np.empty((hi - lo, m))
        self.fill_states(lo, out, np.empty((2, m)), 0, m)
        return out

    def walk(self, nodes, run=None, counts=False):
        """Yield (node, X at node, counts) for each of ``nodes``, integers in
        0..N in any order, repeats allowed: the one reader of a node's state
        for a fit. Like ``fill_states`` it trusts its caller to name valid
        nodes (``states`` checks them).

        The walk holds one block of c rows, X at the nodes of one checkpoint
        block, and refills it (``fill_states``) only when a node lies
        outside it, from the block's first node up to the highest of
        ``nodes`` in the block; node N is ``terminal``. ``run(fill)`` calls
        fill(a, b) on path ranges that cover 0..M-1 (default: 0..M on the
        calling thread). Every row is ``states``' row, bit for bit.

        With ``counts`` the walk also holds the per-mark cumulative jump
        counts at the node, one (K, M) float64 block that counts steps
        0..node-1, and moves it between nodes by adding or subtracting the
        ``dn`` rows in between; else counts is None. The counts are integers
        below 2^53, so the block is exact whatever the order of the nodes.
        A yielded row or block is a view that the walk's next move
        overwrites."""
        n, m, c = self.grid.step_count, self.path_count, self.stride
        nodes, run = list(nodes), run or (lambda fill: fill(0, m))
        block, work = np.empty((c, m)), np.empty((2, m))
        tally = np.zeros((self.mark_count, m)) if counts else None
        base, at = None, 0
        for node in nodes:
            if node < n and node - node % c != base:
                base = node - node % c
                top = max(v for v in nodes if base <= v < min(base + c, n))
                run(lambda a, b: self.fill_states(base, block[:top - base + 1], work, a, b))
            if counts:
                for step in range(at, node):
                    tally += self.dn[:, step].T
                for step in range(node, at):
                    tally -= self.dn[:, step].T
                at = node
            yield node, self.terminal if node == n else block[node - base], tally

    def fill_states(self, lo: int, out: np.ndarray, work: np.ndarray, a: int, b: int) -> None:
        """``states`` on paths a..b-1, in place: X at nodes lo..lo+len(out)-1
        into out[:, a:b], with the two rows work[:, a:b] as scratch. Each
        path's bits depend only on that path, so any split of the paths
        gives the same rows."""
        c, x0 = self.stride, self.model.x0
        total, jump = work[0, a:b], work[1, a:b]
        base = min(lo // c, len(self.checkpoints)) * c
        if base:
            np.copyto(total, self.checkpoints[base // c - 1, a:b])
        for node in range(base, lo + len(out)):
            if node > base:
                # the increment is formed in a row not yet written: the
                # node's own, or the first while walking up to lo
                _add_step(total, out[max(node - lo, 0), a:b], jump, self.dw[a:b, node - 1],
                          self.dn[a:b, node - 1], self.model, self.grid.dt, node == 1)
            if node >= lo:
                if node:
                    np.add(total, x0, out=out[node - lo, a:b])
                else:
                    out[0, a:b] = x0


def _add_step(total, inc, jump, dw, dn, model: LevyModel, dt: float, first: bool) -> None:
    """Add one step's increment sigma dW + mu dt + sum_k zeta_k dN_k to the
    running sum ``total`` in place, or with ``first`` (step 0) set ``total``
    to it. dw (m,) and dn (m, K) are the step's rows of m paths; the
    increment is formed in ``inc`` and its jumps in ``jump``. Every state the
    package reads is summed with these operations in this order."""
    if first:
        inc = total
    np.multiply(dw, model.sigma, out=inc)
    inc += model.mu * dt
    if model.mark_count:
        # the jumps summed elementwise in mark order, so that a path's bits
        # do not depend on the path count (dN @ zeta rounds differently for
        # one path than for a matrix of them)
        sizes = model.jump_sizes
        np.multiply(dn[:, 0], sizes[0], out=jump)
        for j in range(1, sizes.size):
            jump += dn[:, j] * sizes[j]
        inc += jump
    if not first:
        total += inc


def _stream(seed: int, channel: int, step: int) -> np.random.Generator:
    # one counter-based stream per (channel, step); path m reads slot m, so
    # growing the path count extends a bundle without touching earlier paths
    ss = np.random.SeedSequence(seed, spawn_key=(channel, step))
    return np.random.Generator(np.random.Philox(ss))


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent pieces of work: the CPUs this
    process may run on, at most one per piece. It sizes the thread pool of
    ``simulate_paths`` (its steps) and the path ranges of a backward sweep,
    one pool thread per range (``bsde._path_ranges``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def simulate_paths(
    grid: TimeGrid, model: LevyModel, path_count: int, seed: int
) -> PathBundle:
    """Simulate M paths of the arithmetic jump diffusion on the grid.

    Increments are exact in distribution per step (Gaussian and Poisson);
    the state recursion X_{i+1} = X_i + mu dt + sigma dW_i + sum_k zeta_k dN_{k,i}
    is itself exact for this model, so there is no discretization bias in X.

    Each step draws from its own streams into its own rows of the bundle, in
    place, and the steps run on a thread pool of one thread per usable CPU
    (numpy's generators and ufuncs release the interpreter lock). The same
    pool then sums the increments along time over contiguous path ranges,
    one per thread, in the running sum's own rows: it keeps S = X - x0 at
    every c-th node below N (the bundle's checkpoints) and X at node N,
    and no other node's state (see ``PathBundle.states``). Everything is
    built before the function returns.

    The jump counts are stored as int16: a step's draw above MAX_STEP_COUNT
    raises ValueError before it is stored, so no count wraps.

    Reproducibility contract: identical (grid, model, path_count, seed)
    gives a bit-identical bundle, whatever the number of worker threads;
    increasing path_count alone extends the bundle, leaving existing paths
    bit-identical.
    """
    if path_count < 1:
        raise ValueError(f"path_count must be >= 1, got {path_count}")
    if not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")

    m, n, k = path_count, grid.step_count, model.mark_count
    dt = grid.dt
    root_dt = math.sqrt(dt)
    rates = model.jump_intensities * dt
    c = checkpoint_stride(n)

    # time-major storage: row i is the cross-section at step i
    dw = np.empty((n, m))
    dn = np.empty((n, m, k), dtype=np.int16)
    checkpoints = np.empty(((n - 1) // c, m))
    terminal = np.empty(m)
    work = np.empty((2, m))

    def draw(i: int) -> None:
        _stream(seed, 0, i).standard_normal(out=dw[i])
        dw[i] *= root_dt
        for j in range(k):
            counts = _stream(seed, 1 + j, i).poisson(rates[j], m)
            top = int(counts.max())
            if top > MAX_STEP_COUNT:
                raise ValueError(
                    f"jump mark {j} draws {top} jumps at step {i}, more than the "
                    f"{MAX_STEP_COUNT} a step's count can hold")
            dn[i, :, j] = counts

    def running_sum(a: int, b: int) -> None:
        # S runs in the terminal row; every c-th node below N keeps a copy
        total = terminal[a:b]
        for i in range(n):
            _add_step(total, work[0, a:b], work[1, a:b], dw[i, a:b], dn[i, a:b],
                      model, dt, i == 0)
            if (i + 1) % c == 0 and i + 1 < n:
                checkpoints[(i + 1) // c - 1, a:b] = total
        total += model.x0

    workers = _worker_count(n)
    edges = [m * r // workers for r in range(workers + 1)]
    # map raises the first exception in order; leaving the pool waits for
    # every piece that has started
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(draw, range(n)):
            pass
        for _ in pool.map(running_sum, edges[:-1], edges[1:]):
            pass

    return PathBundle(grid, model, path_count, seed, dw.T, dn.transpose(1, 0, 2),
                      checkpoints, terminal)


# --------------------------------------------------------------------------
# payoffs


class Payoff:
    """Terminal claim xi = f(X(T)) from a closed family of maps f.

    The family is kept closed so the jump derivative f(x + zeta) - f(x) and
    the a.e. slope f'(x) are available without symbolic machinery.
    """

    components: tuple["Payoff", ...] | None = None

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def slope(self, x: np.ndarray) -> np.ndarray:
        """Almost-everywhere derivative f'(x)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)


@dataclass(frozen=True)
class AffinePayoff(Payoff):
    """f(x) = a + b x."""

    a: float
    b: float

    def value(self, x):
        return self.a + self.b * np.asarray(x, dtype=float)

    def slope(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.b)


@dataclass(frozen=True)
class ExpAffinePayoff(Payoff):
    """f(x) = a * exp(b x)."""

    a: float
    b: float

    def value(self, x):
        return self.a * np.exp(self.b * np.asarray(x, dtype=float))

    def slope(self, x):
        return self.b * self.value(x)


@dataclass(frozen=True)
class PolynomialPayoff(Payoff):
    """f(x) = sum_j coeffs[j] * x^j, degree at most 4 (ascending order)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= 5:
            raise UnsupportedPayoff(
                f"polynomial payoffs support degree <= 4, got {len(self.coeffs) - 1}"
            )

    def value(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    def slope(self, x):
        deriv = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), deriv)


@dataclass(frozen=True)
class ClippedPayoff(Payoff):
    """f(x) = clip(inner(x), lo, hi); bounded, slope 0 outside the band."""

    inner: Payoff
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"clip bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    def value(self, x):
        return np.clip(self.inner.value(x), self.lo, self.hi)

    def slope(self, x):
        v = self.inner.value(x)
        inside = (v > self.lo) & (v < self.hi)
        return np.where(inside, self.inner.slope(x), 0.0)


@dataclass(frozen=True)
class PortfolioPayoff(Payoff):
    """Sum of component payoffs, evaluated in fixed component order.

    The components double as the capital-allocation decomposition
    [eta_1, ..., eta_n]; because evaluation *is* the ordered sum, the
    per-path identity sum_i eta_i(X(T)) = xi(X(T)) holds bit-exactly.
    """

    parts: tuple[Payoff, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("portfolio payoff needs at least one component")

    @property
    def components(self):  # type: ignore[override]
        return self.parts

    def value(self, x):
        total = self.parts[0].value(x)
        for p in self.parts[1:]:
            total = total + p.value(x)
        return total

    def slope(self, x):
        total = self.parts[0].slope(x)
        for p in self.parts[1:]:
            total = total + p.slope(x)
        return total


def terminal_values(bundle: PathBundle, payoff: Payoff) -> np.ndarray:
    """Evaluate xi = f(X(T)) on every path, shape (M,)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = payoff.value(bundle.terminal)
    if not np.all(np.isfinite(out)):
        bad = np.flatnonzero(~np.isfinite(out))
        raise UnsupportedPayoff(
            f"payoff produced non-finite values on {bad.size} paths (first: {bad[:5]})"
        )
    return out
