import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bsderisk as br

DESK_SEED = 20240901


@pytest.fixture(scope="session")
def desk_grid():
    return br.build_grid(1.0, 50)


@pytest.fixture(scope="session")
def brownian_model():
    return br.LevyModel(x0=0.0, mu=0.1, sigma=0.3)


@pytest.fixture(scope="session")
def jump_model():
    return br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=(br.JumpMark(-0.2, 1.5),))


# mid-sized bundles for unit tests; the acceptance module builds its own
# full-scale ones
@pytest.fixture(scope="session")
def brownian_bundle(desk_grid, brownian_model):
    return br.simulate_paths(desk_grid, brownian_model, 50_000, DESK_SEED)


@pytest.fixture(scope="session")
def jump_bundle(desk_grid, jump_model):
    return br.simulate_paths(desk_grid, jump_model, 50_000, DESK_SEED)


@pytest.fixture(scope="session")
def two_mark_bundle(desk_grid):
    model = br.LevyModel(
        x0=0.0, mu=0.05, sigma=0.2,
        jumps=(br.JumpMark(-0.15, 1.0), br.JumpMark(0.1, 0.5)),
    )
    return br.simulate_paths(desk_grid, model, 30_000, 77)


def _solve_stacked(bundle, driver, terminal, config=br.RegressionConfig()):
    """A one-column solve whose step consumer copies Y and the clamped
    controls at every step, stacked into y (M, N+1), z (M, N) and upsilon
    (M, N, K) arrays (time-major storage, like the bundle's), with its clamp
    counts as ints."""
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    y, z, ups = np.empty((n + 1, m)), np.empty((n, m)), np.empty((n, m, k))
    y[n] = terminal

    def keep(step):
        i = step.node
        y[i], z[i], ups[i] = step.y[:, 0], step.z[:, 0], step.upsilon[:, 0]

    cols = br.solve_bsde(bundle, driver, terminal, config, nodes=(), consumers=(keep,))
    return SimpleNamespace(y=y.T, z=z.T, upsilon=ups.transpose(1, 0, 2),
                           clamped_z=int(cols.clamped_z[0]),
                           clamped_upsilon=int(cols.clamped_upsilon[0]))


@pytest.fixture(scope="session")
def solve_stacked():
    return _solve_stacked


def _traced_peak(call, *args, **kwargs):
    """Run ``call(*args, **kwargs)`` with tracemalloc on and return its result
    and the peak of the memory it allocated, in bytes (numpy's arrays
    included; what was allocated before the call does not count)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak
