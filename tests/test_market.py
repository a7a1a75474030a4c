"""Grid, model, path simulation and the payoff family."""

import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsderisk as br
from bsderisk import market
from bsderisk.market import _stream


def test_grid_endpoints_exact():
    grid = br.build_grid(1.0, 50)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 1.0  # no accumulated rounding at the horizon
    assert grid.dt == pytest.approx(0.02)
    assert len(grid.nodes) == 51


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        br.build_grid(0.0, 10)
    with pytest.raises(ValueError):
        br.build_grid(1.0, 0)


def test_model_moments():
    model = br.LevyModel(x0=0.5, mu=0.1, sigma=0.3, jumps=(br.JumpMark(-0.2, 1.5),))
    # E X_T = x0 + (mu + sum lam zeta) T, Var X_T = (sigma^2 + sum lam zeta^2) T
    assert model.terminal_mean(2.0) == pytest.approx(0.5 + (0.1 - 0.3) * 2.0)
    assert model.terminal_variance(2.0) == pytest.approx((0.09 + 1.5 * 0.04) * 2.0)


def test_model_validation():
    with pytest.raises(ValueError):
        br.JumpMark(size=0.1, intensity=0.0)
    with pytest.raises(ValueError):
        br.LevyModel(x0=0.0, sigma=-0.1)


def test_simulation_reproducible(desk_grid, jump_model):
    a = br.simulate_paths(desk_grid, jump_model, 1000, 123)
    b = br.simulate_paths(desk_grid, jump_model, 1000, 123)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.dn, b.dn)
    assert np.array_equal(a.states(0, 51), b.states(0, 51))


def test_simulation_seed_sensitivity(desk_grid, jump_model):
    a = br.simulate_paths(desk_grid, jump_model, 1000, 123)
    b = br.simulate_paths(desk_grid, jump_model, 1000, 124)
    assert not np.array_equal(a.dw, b.dw)


def test_path_count_extension_is_prefix(desk_grid, jump_model):
    # growing the budget must extend the path set without disturbing
    # already-drawn paths
    small = br.simulate_paths(desk_grid, jump_model, 500, 9)
    big = br.simulate_paths(desk_grid, jump_model, 2000, 9)
    assert np.array_equal(big.dw[:500], small.dw)
    assert np.array_equal(big.dn[:500], small.dn)
    assert np.array_equal(big.states(0, 51)[:, :500], small.states(0, 51))


@settings(max_examples=30, deadline=None)
@given(small=st.integers(1, 300), extra=st.integers(0, 500), steps=st.integers(1, 12),
       marks=st.integers(0, 2), seed=st.integers(0, 2**64 - 1))
# one path against two, with the counts [3, 1]: numpy's dN @ zeta gives
# -0.5000000000000001 for one path and -0.5 for two
@example(small=1, extra=1, steps=1, marks=2, seed=0)
def test_prefix_extension_property(small, extra, steps, marks, seed):
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=0.3, mu=0.1, sigma=0.25, jumps=jumps)
    grid = br.build_grid(1.0, steps)
    a = br.simulate_paths(grid, model, small, seed)
    b = br.simulate_paths(grid, model, small + extra, seed)
    assert np.array_equal(b.dw[:small], a.dw)
    assert np.array_equal(b.dn[:small], a.dn)
    assert np.array_equal(b.states(0, steps + 1)[:, :small], a.states(0, steps + 1))


def serial_reference(grid, model, path_count, seed):
    """The serial simulation the threaded one replaced: whole-bundle
    increments, their jumps summed in mark order, then one cumulative sum."""
    m, n, k = path_count, grid.step_count, model.mark_count
    dt = grid.dt
    dw = np.empty((n, m))
    dn = np.zeros((n, m, k), dtype=np.int16)
    for i in range(n):
        dw[i] = _stream(seed, 0, i).standard_normal(m) * math.sqrt(dt)
        for j in range(k):
            dn[i, :, j] = _stream(seed, 1 + j, i).poisson(model.jumps[j].intensity * dt, m)
    increments = model.mu * dt + model.sigma * dw
    if k:
        increments = increments + (dn * model.jump_sizes).sum(axis=2)
    state = np.empty((n + 1, m))
    state[0] = model.x0
    np.cumsum(increments, axis=0, out=state[1:])
    state[1:] += model.x0
    return dw.T, dn.transpose(1, 0, 2), state.T


@settings(max_examples=30, deadline=None)
@given(paths=st.integers(1, 300), steps=st.integers(1, 12), marks=st.integers(0, 2),
       seed=st.integers(0, 2**64 - 1))
def test_simulation_matches_serial_reference(paths, steps, marks, seed):
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=0.3, mu=0.1, sigma=0.25, jumps=jumps)
    grid = br.build_grid(1.0, steps)
    expected = serial_reference(grid, model, paths, seed)
    threads = threading.active_count()
    bundles = [br.simulate_paths(grid, model, paths, seed)]
    switch = sys.getswitchinterval()
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "_worker_count", lambda n, w=workers: min(w, n))
            sys.setswitchinterval(1e-6)  # more thread switches
            try:
                bundles.append(br.simulate_paths(grid, model, paths, seed))
            finally:
                sys.setswitchinterval(switch)
    assert threading.active_count() == threads
    for bundle in bundles:
        states = bundle.states(0, steps + 1).T
        for got, want in zip((bundle.dw, bundle.dn, states), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(bundle.terminal, expected[2][:, -1])


@settings(max_examples=40, deadline=None)
@given(paths=st.integers(1, 200), extra=st.integers(0, 100), steps=st.integers(1, 30),
       marks=st.integers(0, 2), x0=st.floats(-5.0, 5.0).filter(bool),
       seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 30), span=st.integers(1, 31),
       cut=st.integers(0, 300))
# 12 steps have checkpoints at nodes 3, 6 and 9: nodes 2..4 straddle one
@example(paths=5, extra=3, steps=12, marks=2, x0=-1.5, seed=7, lo=2, span=3, cut=4)
def test_states_match_serial_reference(paths, extra, steps, marks, x0, seed, lo, span, cut):
    # any block of rows recomputed from the checkpoints is the serial
    # simulation's, bit for bit, for any split of the paths into ranges
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=x0, mu=0.1, sigma=0.25, jumps=jumps)
    grid = br.build_grid(1.0, steps)
    m = paths + extra
    lo = min(lo, steps)
    hi, cut = min(lo + span, steps + 1), min(cut, m)
    want = serial_reference(grid, model, m, seed)[2].T[lo:hi]
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "_worker_count", lambda n, w=workers: min(w, n))
            bundle = br.simulate_paths(grid, model, m, seed)
        assert np.array_equal(bundle.states(lo, hi), want)
        rows, work = np.empty((hi - lo, m)), np.empty((2, m))
        bundle.fill_states(lo, rows, work, 0, cut)
        bundle.fill_states(lo, rows, work, cut, m)
        assert np.array_equal(rows, want)
    # prefix extension: the first paths of a larger bundle give the same rows
    small = br.simulate_paths(grid, model, paths, seed)
    assert np.array_equal(small.states(lo, hi), want[:, :paths])


@settings(max_examples=40, deadline=None)
@given(paths=st.integers(1, 200), steps=st.integers(1, 30), marks=st.integers(0, 2),
       x0=st.floats(-5.0, 5.0).filter(bool), seed=st.integers(0, 2**64 - 1),
       picks=st.lists(st.integers(0, 30), min_size=1, max_size=25),
       cuts=st.lists(st.integers(0, 200), max_size=3))
# 12 steps have checkpoints at nodes 3, 6 and 9 and N % c == 0: the nodes
# cross checkpoints, repeat, come back to a block and include N
@example(paths=7, steps=12, marks=2, x0=-1.5, seed=7,
         picks=[12, 2, 4, 3, 3, 11, 0, 12, 9, 10, 2], cuts=[3, 5])
def test_walk_yields_the_rows_of_states(paths, steps, marks, x0, seed, picks, cuts):
    # every row the walk yields is states' row at its node, bit for bit, in
    # the order asked, for any node list and any split of the paths
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=x0, mu=0.1, sigma=0.25, jumps=jumps)
    bundle = br.simulate_paths(br.build_grid(1.0, steps), model, paths, seed)
    nodes = [min(node, steps) for node in picks]
    edges = [0, *sorted(min(cut, paths) for cut in cuts), paths]

    def run(fill):
        for a, b in zip(edges[:-1], edges[1:]):
            fill(a, b)

    for walk in (bundle.walk(nodes), bundle.walk(nodes, run)):
        seen = []
        for node, x in walk:
            seen.append(node)
            assert np.array_equal(x, bundle.states(node, node + 1)[0]), node
        assert seen == nodes


def test_worker_failure_reaches_the_caller(monkeypatch):
    def failing(seed, channel, step):
        if step == 4:
            raise MemoryError("step 4")
        return _stream(seed, channel, step)

    monkeypatch.setattr(market, "_stream", failing)
    monkeypatch.setattr(market, "_worker_count", lambda n: min(3, n))
    model = br.LevyModel(x0=0.3, mu=0.1, sigma=0.25, jumps=(br.JumpMark(-0.2, 1.5),))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="step 4"):
        br.simulate_paths(br.build_grid(1.0, 9), model, 50, 3)
    assert threading.active_count() == threads


def test_simulation_memory_is_the_bundle(traced_peak):
    # each step writes its own rows in place: no whole-bundle temporaries,
    # only a few rows per worker thread
    model = br.LevyModel(x0=0.3, mu=0.1, sigma=0.25,
                         jumps=(br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7)))
    grid = br.build_grid(1.0, 40)
    m = 20_000
    workers = min(os.cpu_count() or 1, grid.step_count)  # at least the thread count
    bundle, peak = traced_peak(br.simulate_paths, grid, model, m, 11)
    assert peak <= bundle_bytes(bundle) + 8 * workers * m * 8


def bundle_bytes(bundle):
    return sum(a.nbytes for a in (bundle.dw, bundle.dn, bundle.checkpoints, bundle.terminal))


def test_bundle_bytes_per_path():
    # float64 dw, int16 jump counts, and float64 state rows at the
    # (N - 1) // c checkpoints and at node N: 8N + 2NK + 8 ((N - 1) // c + 1)
    # bytes a path, c = floor(sqrt(N + 1))
    model = br.LevyModel(x0=0.3, mu=0.1, sigma=0.25,
                         jumps=(br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7)))
    m, k = 7, 2
    for n in (1, 3, 50):
        b = br.simulate_paths(br.build_grid(1.0, n), model, m, 2)
        c = math.isqrt(n + 1)
        assert b.stride == market.checkpoint_stride(n) == c
        assert b.dn.dtype == np.int16
        assert b.checkpoints.shape == ((n - 1) // c, m) and b.terminal.shape == (m,)
        assert bundle_bytes(b) == m * (8 * n + 2 * n * k + 8 * ((n - 1) // c + 1))
    # desk scale, N = 50 and K = 1: 7 checkpoints, 564 bytes a path
    assert 8 * 50 + 2 * 50 + 8 * (49 // market.checkpoint_stride(50) + 1) == 564


def test_step_count_above_int16_raises():
    model = br.LevyModel(x0=0.0, jumps=(br.JumpMark(0.1, 40_000.0),))
    with pytest.raises(ValueError, match=r"jump mark 0 draws \d+ jumps at step 0"):
        br.simulate_paths(br.build_grid(1.0, 1), model, 5, 3)


def test_jump_counts_widen_past_int16():
    # about 10000 jumps a step fit in int16; their running sum does not
    model = br.LevyModel(x0=0.0, jumps=(br.JumpMark(0.1, 40_000.0),))
    b = br.simulate_paths(br.build_grid(1.0, 4), model, 5, 3)
    total = b.dn.sum(axis=1, dtype=np.int64)
    assert total.min() > np.iinfo(np.int16).max
    assert b.jump_counts.dtype == np.int32
    assert np.array_equal(b.jump_counts[:, -1], total)


def test_jump_counts_widen_past_int32():
    # 65539 full steps of one path sum past the int32 range
    model = br.LevyModel(x0=0.0, jumps=(br.JumpMark(0.1, 1.0),))
    b = br.simulate_paths(br.build_grid(1.0, 2), model, 1, 3)
    steps = 65539
    full = dataclasses.replace(b, dn=np.full((1, steps, 1), market.MAX_STEP_COUNT, np.int16))
    assert steps * market.MAX_STEP_COUNT > np.iinfo(np.int32).max
    assert full.jump_counts.dtype == np.int64
    assert full.jump_counts[0, -1, 0] == steps * market.MAX_STEP_COUNT
    below = dataclasses.replace(b, dn=full.dn[:, :steps - 1])
    assert below.jump_counts.dtype == np.int32
    assert below.jump_counts[0, -1, 0] == (steps - 1) * market.MAX_STEP_COUNT


def test_cross_sections_are_contiguous(desk_grid, jump_model):
    # time-major storage: a backward step reads each date's cross-section
    # as one contiguous row
    b = br.simulate_paths(desk_grid, jump_model, 300, 4)
    assert b.dw.shape == (300, 50) and b.dn.shape == (300, 50, 1)
    states = b.states(0, 51)
    assert states.shape == (51, 300)
    for i in (0, 17, 49):
        assert b.dw[:, i].flags.c_contiguous
        assert b.dn[:, i].flags.c_contiguous
        assert states[i].flags.c_contiguous
    assert b.checkpoints[3].flags.c_contiguous and b.terminal.flags.c_contiguous


def test_state_accumulates_increments(desk_grid, jump_model):
    b = br.simulate_paths(desk_grid, jump_model, 200, 5)
    m = jump_model
    dt = desk_grid.dt
    manual = m.x0 + np.cumsum(
        m.mu * dt + m.sigma * b.dw + b.dn[:, :, 0] * m.jumps[0].size, axis=1
    )
    states = b.states(0, 51).T
    np.testing.assert_allclose(states[:, 1:], manual, rtol=0.0, atol=1e-12)
    assert np.all(states[:, 0] == m.x0)
    assert np.array_equal(b.terminal, states[:, -1])
    with pytest.raises(ValueError, match="lo < hi"):
        b.states(3, 3)
    with pytest.raises(ValueError, match="lo < hi"):
        b.states(0, 52)


def test_terminal_moments_match_analytic(jump_bundle, jump_model):
    x = jump_bundle.terminal
    m = jump_bundle.path_count
    mean_se = x.std() / np.sqrt(m)
    assert abs(x.mean() - jump_model.terminal_mean(1.0)) < 4 * mean_se
    var = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    var_se = np.sqrt((m4 - var**2) / m)
    assert abs(var - jump_model.terminal_variance(1.0)) < 4 * var_se


def test_jump_counts_match_intensity(jump_bundle):
    total = jump_bundle.dn[:, :, 0].sum(axis=1)
    m = jump_bundle.path_count
    se = total.std() / np.sqrt(m)
    assert abs(total.mean() - 1.5) < 4 * se


def test_seed_range_validation(desk_grid, brownian_model):
    with pytest.raises(ValueError):
        br.simulate_paths(desk_grid, brownian_model, 10, -1)
    with pytest.raises(ValueError):
        br.simulate_paths(desk_grid, brownian_model, 10, 2**64)


def test_payoff_families():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(br.AffinePayoff(0.5, 2.0)(x), 0.5 + 2.0 * x)
    np.testing.assert_allclose(br.ExpAffinePayoff(2.0, -1.0)(x), 2.0 * np.exp(-x))
    np.testing.assert_allclose(
        br.PolynomialPayoff((1.0, 0.0, 3.0))(x), 1.0 + 3.0 * x * x
    )


def test_payoff_slopes():
    x = np.array([-1.0, 0.3, 2.0])
    np.testing.assert_allclose(br.AffinePayoff(0.5, 2.0).slope(x), 2.0)
    np.testing.assert_allclose(
        br.ExpAffinePayoff(2.0, -1.0).slope(x), -2.0 * np.exp(-x)
    )
    np.testing.assert_allclose(
        br.PolynomialPayoff((0.0, 1.0, 2.0)).slope(x), 1.0 + 4.0 * x
    )


def test_clipped_payoff_slope_vanishes_outside_band():
    inner = br.ExpAffinePayoff(1.0, 1.0)
    clipped = br.ClippedPayoff(inner, 0.5, 3.0)
    x = np.array([-3.0, 0.0, 2.0])
    np.testing.assert_allclose(clipped(x), np.clip(np.exp(x), 0.5, 3.0))
    slopes = clipped.slope(x)
    assert slopes[0] == 0.0  # below the band
    assert slopes[2] == 0.0  # above the band
    assert slopes[1] == pytest.approx(1.0)


def test_polynomial_degree_cap():
    with pytest.raises(br.UnsupportedPayoff):
        br.PolynomialPayoff((1.0, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_portfolio_sum_is_bitwise(jump_bundle):
    parts = (
        br.AffinePayoff(0.0, 0.5),
        br.ExpAffinePayoff(0.2, 0.3),
        br.PolynomialPayoff((0.1, 0.0, 0.05)),
    )
    portfolio = br.PortfolioPayoff(parts)
    x = jump_bundle.terminal
    total = parts[0](x) + parts[1](x) + parts[2](x)  # fixed left-to-right order
    assert np.array_equal(portfolio(x), total)
    assert portfolio.components == parts


def test_terminal_values_guard(jump_bundle):
    with pytest.raises(ValueError):
        br.terminal_values(jump_bundle, br.ExpAffinePayoff(1e308, 5.0))
