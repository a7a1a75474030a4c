"""Market state: time grid, arithmetic jump-diffusion model, path bundles, payoffs.

The state process is the arithmetic Ito-Levy dynamic

    dX(t) = mu dt + sigma dW(t) + sum_k zeta_k dN_k(t),

driven by one Brownian motion and K independent Poisson processes with
intensities lambda_k, i.e. a discrete finite-activity Levy measure
nu = sum_k lambda_k delta_{zeta_k}. Every jump integral downstream is a
finite sum over the K marks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class PathBundle:
    """Simulated increments and states on a grid; treated as immutable.

    dw       Brownian increments, shape (M, N), float64
    dn       Poisson jump counts per mark and step, shape (M, N, K), int16
             (at most MAX_STEP_COUNT each)
    state    X at every node, shape (M, N+1), float64; state[:, 0] == x0

    simulate_paths stores the arrays time-major, one contiguous row per date,
    and these fields are transposed views of that storage: the cross-section
    dw[:, i] or state[:, i] that a backward step reads is contiguous. The
    arrays are bit-identical for any number of simulation worker threads.
    """

    grid: TimeGrid
    model: LevyModel
    path_count: int
    seed: int
    dw: np.ndarray
    dn: np.ndarray
    state: np.ndarray

    @property
    def mark_count(self) -> int:
        return self.model.mark_count

    @property
    def terminal(self) -> np.ndarray:
        return self.state[:, -1]

    @cached_property
    def jump_counts(self) -> np.ndarray:
        """Cumulative per-mark jump counts, shape (M, N, K), int64: [:, i]
        counts steps 0..i. A running sum can pass the int16 range of dn, so
        it is summed in int64."""
        counts = self.dn.transpose(1, 0, 2).astype(np.int64)  # time-major rows
        for i in range(1, counts.shape[0]):
            counts[i] += counts[i - 1]
        return counts.transpose(1, 0, 2)


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
    (numpy's generators and ufuncs release the interpreter lock); the
    increments are then summed in place along time.

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
    sizes = model.jump_sizes
    rates = model.jump_intensities * dt

    # time-major storage: row i is the cross-section at step i
    dw = np.empty((n, m))
    dn = np.empty((n, m, k), dtype=np.int16)
    state = np.empty((n + 1, m))
    state[0] = model.x0

    def draw(i: int) -> None:
        # state[i + 1] first holds the increment sigma dW + mu dt + dN zeta
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
        inc = np.multiply(dw[i], model.sigma, out=state[i + 1])
        inc += model.mu * dt
        if k:
            # the jumps summed elementwise in mark order, so that a path's
            # bits do not depend on the path count (dN @ zeta rounds
            # differently for one path than for a matrix of them)
            jump = dn[i, :, 0] * sizes[0]
            for j in range(1, k):
                jump += dn[i, :, j] * sizes[j]
            inc += jump

    # map raises the first exception in step order; leaving the pool waits
    # for every step that has started
    with ThreadPoolExecutor(_worker_count(n)) as pool:
        for _ in pool.map(draw, range(n)):
            pass

    # the running sum over time as row adds, the order np.cumsum adds in but
    # without its strided walk down each column
    for i in range(2, n + 1):
        state[i] += state[i - 1]
    state[1:] += model.x0

    return PathBundle(grid, model, path_count, seed, dw.T, dn.transpose(1, 0, 2), state.T)


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
