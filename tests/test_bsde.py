"""Regression machinery and the backward solver."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsderisk as br
from bsderisk import bsde, market
from bsderisk.bsde import _standardize, condexp_at_node, features_at_node
from bsderisk.errors import EstimatorFailure, SignedDensityFailure, SolverFailure


def fit(features, targets, ridge):
    """A standalone fit of (M,) or (M, q) targets on the (p, M) basis rows
    ``features`` in the sweep's two steps; a 2-d fit is the (M, q) transpose
    of (q, M) rows."""
    y = np.asarray(targets, dtype=float)
    rows = y.reshape(y.shape[0], -1).T
    out = np.empty(rows.shape)
    bsde._fit_range(bsde._coefficients(features, rows, ridge), features, out, 0, y.shape[0])
    return out.T if y.ndim == 2 else out[0]


def test_regression_recovers_linear_function_exactly():
    rng = np.random.default_rng(0)
    feats = np.vstack([np.ones(500), rng.normal(size=(3, 500))])
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    y = beta @ feats
    fitted = fit(feats, y, ridge=0.0)
    np.testing.assert_allclose(fitted, y, rtol=0.0, atol=1e-10)


def test_ridge_keeps_constants_exact():
    # the intercept is excluded from the penalty, so a constant target is
    # reproduced exactly even with ridge on
    rng = np.random.default_rng(1)
    feats = np.vstack([np.ones(400), rng.normal(size=(2, 400))])
    y = np.full(400, 7.25)
    fitted = fit(feats, y, ridge=1e-8)
    np.testing.assert_allclose(fitted, y, rtol=0.0, atol=1e-12)


def test_rank_deficiency_raises_without_ridge():
    feats = np.ones((2, 50))  # duplicated constant row
    with pytest.raises(SolverFailure):
        fit(feats, np.arange(50.0), ridge=0.0)


def test_multi_column_targets_match_separate_fits():
    rng = np.random.default_rng(2)
    feats = np.vstack([np.ones(300), rng.normal(size=(3, 300))])
    targets = rng.normal(size=(300, 4))
    joint = fit(feats, targets, ridge=1e-8)
    for j in range(4):
        single = fit(feats, targets[:, j], ridge=1e-8)
        np.testing.assert_allclose(joint[:, j], single, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("q", [1, 3, 24, 48])
def test_fit_split_by_path_range_is_bitwise_equal(q):
    # the bits of a fitted value do not depend on the range of paths (of two
    # or more, as the sweep's ranges are) that holds it, nor on where that
    # range's chunks end: 2049 and 4097 paths leave one path over a whole
    # number of chunks for q = 24 and 48
    rng = np.random.default_rng(q)
    m = 40_003
    feats = np.vstack([np.ones(m), rng.normal(size=(3, m))])
    targets = rng.normal(size=(m, q))
    whole = fit(feats, targets, ridge=1e-8)
    coef = bsde._coefficients(feats, targets.T, 1e-8)
    for cuts in ([0, 2, 2051, 6148, m], [0, 777, 20_001, 33_333, m]):
        split = np.empty((q, m))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            bsde._fit_range(coef, feats, split, lo, hi)
        assert np.array_equal(split, whole.T), cuts


def test_chunk_length_keeps_each_blas_call_small():
    for q in range(1, 65):
        for p in range(1, 9):
            chunk = bsde._chunk_length(q, p)
            assert chunk & (chunk - 1) == 0 and chunk <= 16384
            assert q * p * chunk <= 2**17
            assert chunk == 16384 or q * p * 2 * chunk > 2**17


@pytest.mark.parametrize("ridge", [1e-8, 0.0])
def test_multi_column_fit_has_contiguous_columns(jump_bundle, ridge):
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(jump_bundle.path_count, 4))
    # node 0 has no basis beyond the intercept and fits the plain means
    for node in (0, 25):
        joint = condexp_at_node(jump_bundle, node, targets, br.RegressionConfig(ridge=ridge))
        assert all(joint[:, j].flags.c_contiguous for j in range(4)), node


def test_condexp_terminal_node_is_identity(jump_bundle):
    y = jump_bundle.terminal**2
    out = condexp_at_node(jump_bundle, 50, y, br.RegressionConfig())
    assert out is y


def test_condexp_node_zero_is_plain_mean(jump_bundle):
    y = jump_bundle.terminal
    out = condexp_at_node(jump_bundle, 0, y, br.RegressionConfig())
    np.testing.assert_allclose(out, y.mean(), rtol=0.0, atol=1e-14)


def test_condexp_checks_path_count_at_every_node(jump_bundle):
    # node 0 (degenerate features), an interior node and node N (identity)
    cfg = br.RegressionConfig()
    for node in (0, 25, 50):
        for targets in (np.ones(7), np.ones((7, 2))):
            with pytest.raises(ValueError):
                condexp_at_node(jump_bundle, node, targets, cfg)


def test_condexp_reads_nodes_as_the_sweep_does(jump_bundle):
    # an integral float names its node; a fraction or a bool raises
    cfg, y = br.RegressionConfig(), jump_bundle.terminal
    assert np.array_equal(condexp_at_node(jump_bundle, 5.0, y, cfg),
                          condexp_at_node(jump_bundle, 5, y, cfg))
    for node in (2.5, True, -1, 51):
        with pytest.raises(ValueError, match="node must be an integer"):
            condexp_at_node(jump_bundle, node, y, cfg)


def test_features_standardized(jump_bundle):
    feats = features_at_node(jump_bundle, 25, br.RegressionConfig())
    assert feats.shape == (4, jump_bundle.path_count)
    np.testing.assert_allclose(feats[0], 1.0)
    assert abs(feats[1].mean()) < 1e-12
    assert feats[1].std() == pytest.approx(1.0, abs=1e-10)


def test_jump_count_features_extend_basis(jump_bundle):
    cfg = br.RegressionConfig(jump_count_features=True)
    feats = features_at_node(jump_bundle, 25, cfg)
    assert feats.shape == (5, jump_bundle.path_count)


def reference_features(bundle, node, config):
    """The (M, p) design as built by re-summing the count increments at every
    node."""
    xs = _standardize(bundle.state[:, node])
    cols = []
    if xs is not None and config.degree >= 1:
        cols.append(np.vander(xs, config.degree + 1, increasing=True)[:, 1:])
    if config.jump_count_features and bundle.mark_count and node > 0:
        counts = bundle.dn[:, :node, :].sum(axis=1)
        for k in range(bundle.mark_count):
            ck = _standardize(counts[:, k].astype(float))
            if ck is not None:
                cols.append(ck[:, None])
    if not cols:
        return None
    return np.hstack([np.ones((bundle.path_count, 1))] + cols)


def test_jump_count_basis_matches_direct_sums(two_mark_bundle):
    cfg = br.RegressionConfig(jump_count_features=True)
    for node in range(two_mark_bundle.grid.step_count + 1):
        feats = features_at_node(two_mark_bundle, node, cfg)
        ref = reference_features(two_mark_bundle, node, cfg)
        assert (feats is None and ref is None) or np.array_equal(feats, ref.T), node


def test_jump_counts_cached_only_with_count_features(desk_grid, jump_model):
    bundle = br.simulate_paths(desk_grid, jump_model, 500, 9)
    features_at_node(bundle, 25, br.RegressionConfig())
    assert "jump_counts" not in vars(bundle)
    features_at_node(bundle, 25, br.RegressionConfig(jump_count_features=True))
    assert "jump_counts" in vars(bundle)


def test_zero_noise_reduces_to_backward_euler(solve_stacked):
    # sigma = 0 and no jumps: Y' = -g(0, 0), solved exactly by the scheme
    grid = br.build_grid(1.0, 50)
    model = br.LevyModel(x0=0.0, mu=0.1)
    bundle = br.simulate_paths(grid, model, 64, 3)
    driver = br.make_qexp_driver(1.0, br.LinearForm(const=0.3))
    sol = solve_stacked(bundle, driver, -bundle.terminal)
    # terminal -X(T) = -0.1; plus integral of the constant driver 0.3
    assert sol.y[0, 0] == pytest.approx(-0.1 + 0.3, abs=1e-10)
    np.testing.assert_allclose(sol.z, 0.0, atol=1e-12)


def test_translation_invariance_of_solver(jump_bundle, solve_stacked):
    driver = br.make_entropic_driver(2.0, (1.5,))
    xi = jump_bundle.terminal
    a = solve_stacked(jump_bundle, driver, -xi)
    b = solve_stacked(jump_bundle, driver, -(xi + 1.0))
    # shifting the claim by a constant shifts Y by the same constant and
    # leaves the controls untouched (regression is affine in targets)
    assert abs((a.y[0, 0] - 1.0) - b.y[0, 0]) < 1e-10
    np.testing.assert_allclose(a.z, b.z, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(a.upsilon, b.upsilon, rtol=0.0, atol=1e-9)


def test_comparison_between_ordered_terminals(jump_bundle):
    driver = br.make_entropic_driver(2.0, (1.5,))
    xi = jump_bundle.terminal
    lo = br.solve_bsde(jump_bundle, driver, -xi, nodes=(0,)).y[0]
    hi = br.solve_bsde(jump_bundle, driver, -(xi - 0.5), nodes=(0,)).y[0]
    assert hi[0, 0] >= lo[0, 0]


def test_solver_noise_shrinks_with_path_count(desk_grid, jump_model):
    # grid fixed, paths quadrupled: the gap to the closed form shrinks
    driver = br.make_entropic_driver(2.0, (1.5,))
    gamma, mu, s, lam, zeta = 2.0, 0.1, 0.3, 1.5, -0.2
    limit = -mu + gamma * s * s / 2 + (lam / gamma) * (math.exp(-gamma * zeta) - 1)
    gaps = []
    for m in (25_000, 100_000):
        b = br.simulate_paths(desk_grid, jump_model, m, 31)
        y0 = br.solve_bsde(b, driver, -b.terminal, nodes=(0,)).y[0][0, 0]
        gaps.append(abs(y0 - limit))
    assert gaps[1] < max(gaps[0], 5e-3)


def reference_sweep(bundle, driver, xi, cfg):
    """The backward recursion with one condexp_at_node call per fit: y, z,
    upsilon and the per-step counts of clamped z and upsilon values. It stops
    at the first step with a non-finite value; y stays NaN below that node."""
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    dt = bundle.grid.dt
    lam_dt = bundle.model.jump_intensities * dt
    y, z, ups = np.full((m, n + 1), np.nan), np.zeros((m, n)), np.zeros((m, n, k))
    clamps = np.zeros((n, 2), dtype=int)
    y[:, n] = xi
    for i in range(n - 1, -1, -1):
        y_fit = condexp_at_node(bundle, i, y[:, i + 1], cfg)
        noise = y[:, i + 1] - y_fit
        z_raw = condexp_at_node(bundle, i, noise * bundle.dw[:, i], cfg) / dt
        u_raw = np.column_stack([
            condexp_at_node(bundle, i, noise * (bundle.dn[:, i, j] - lam_dt[j]), cfg) / lam_dt[j]
            for j in range(k)])
        clamps[i] = (np.count_nonzero(np.abs(z_raw) > cfg.z_clip),
                     np.count_nonzero(np.abs(u_raw) > cfg.upsilon_clip))
        z[:, i] = np.clip(z_raw, -cfg.z_clip, cfg.z_clip)
        ups[:, i] = np.clip(u_raw, -cfg.upsilon_clip, cfg.upsilon_clip)
        y[:, i] = y_fit + driver(z[:, i], ups[:, i]) * dt
        if not np.all(np.isfinite(y[:, i])):
            break
    return y, z, ups, clamps


@pytest.mark.parametrize("ridge, clips", [
    pytest.param(1e-8, {}, id="1e-08"),
    pytest.param(0.0, {}, id="0.0"),
    # some steps clamp z or upsilon and others do not
    pytest.param(1e-8, {"z_clip": 0.3, "upsilon_clip": 0.4}, id="tight-clamp"),
])
def test_sweep_matches_reference_recursion(two_mark_bundle, solve_stacked, ridge, clips):
    b = two_mark_bundle
    driver = block_driver(b)
    cfg = br.RegressionConfig(ridge=ridge, jump_count_features=True, **clips)
    xi = -(b.terminal + 0.5 * b.terminal**2)
    sol = solve_stacked(b, driver, xi, cfg)
    y, z, ups, clamps = reference_sweep(b, driver, xi, cfg)
    np.testing.assert_allclose(sol.y, y, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(sol.z, z, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(sol.upsilon, ups, rtol=0.0, atol=1e-10)
    assert (sol.clamped_z, sol.clamped_upsilon) == tuple(clamps.sum(axis=0))
    if clips:
        for kind in (0, 1):
            assert 0 < np.count_nonzero(clamps[:, kind]) < b.grid.step_count


def test_block_controls_match_reference_recursion(two_mark_bundle):
    # a block's controls at every step are each column's own, clamps included
    b = two_mark_bundle
    driver = block_driver(b)
    cfg = br.RegressionConfig(jump_count_features=True, z_clip=0.3, upsilon_clip=0.4)
    x = b.terminal
    terminals = np.column_stack([-(x + 0.5 * x * x), -x, -(0.5 * x + 0.2), np.zeros_like(x)])
    n = b.grid.step_count
    cols = br.solve_bsde(b, driver, terminals, cfg, nodes=range(n + 1), controls=True)
    assert sorted(cols.z) == sorted(cols.upsilon) == list(range(n))
    for j in range(terminals.shape[1]):
        _, z, ups, clamps = reference_sweep(b, driver, terminals[:, j], cfg)
        for i in range(n):
            np.testing.assert_allclose(cols.z[i][:, j], z[:, i], rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(cols.upsilon[i][:, j], ups[:, i], rtol=0.0, atol=1e-10)
        assert (cols.clamped_z[j], cols.clamped_upsilon[j]) == tuple(clamps.sum(axis=0))
    assert cols.clamped_z[0] > 0 and cols.clamped_upsilon[0] > 0


def test_controls_only_on_request(jump_bundle):
    driver = br.make_entropic_driver(2.0, (1.5,))
    xi = -jump_bundle.terminal
    plain = br.solve_bsde(jump_bundle, driver, xi, nodes=(0, 25, 50))
    assert plain.z == {} and plain.upsilon == {}
    # node N has no control step; the others are read as asked
    read = br.solve_bsde(jump_bundle, driver, xi, nodes=(0, 25, 50), controls=True)
    assert sorted(read.z) == sorted(read.upsilon) == [0, 25]
    m = jump_bundle.path_count
    assert read.z[25].shape == (m, 1) and read.upsilon[25].shape == (m, 1, 1)


def test_node_reads_equal_full_solution(jump_bundle, solve_stacked):
    driver = br.make_entropic_driver(2.0, (1.5,))
    xi = -jump_bundle.terminal
    full = solve_stacked(jump_bundle, driver, xi)
    nodes = (0, 1, 25, 50)
    cols = br.solve_bsde(jump_bundle, driver, xi, nodes=nodes)
    for i in nodes:
        assert np.array_equal(cols.y[i][:, 0], full.y[:, i]), i


def old_sweep_estimate(columns, node, column, minus=None, h=None):
    """The rules before Estimate: BsdeColumns.std_error for a column's value
    and allocation._fd_estimates for a central difference."""
    probe = max(node, 1)
    if minus is None:
        per_path = columns.y[node][:, column].copy()
        y = columns.y[probe][:, column]
        se = float(y.std() / np.sqrt(y.size))
    else:
        per_path = (columns.y[node][:, column] - columns.y[node][:, minus]) / (2.0 * h)
        diffs = (columns.y[probe][:, column] - columns.y[probe][:, minus]) / (2.0 * h)
        se = float(diffs.std() / math.sqrt(diffs.size))
    value = float(per_path[0]) if node == 0 else float(per_path.mean())
    return value, se, per_path


def test_sweep_estimate_matches_the_old_rules(jump_bundle):
    x = jump_bundle.terminal
    h = 0.07
    terminals = np.column_stack([-x, -(x + h * x * x), -(x - h * x * x)])
    cols = br.solve_bsde(jump_bundle, br.make_entropic_driver(2.0, (1.5,)), terminals,
                         nodes=(0, 25))
    for node in (0, 25):
        for column, minus, step in ((0, None, 1.0), (2, None, 1.0), (1, 2, 2.0 * h)):
            est = cols.estimate(node, column, minus, step)
            value, se, per_path = old_sweep_estimate(cols, node, column, minus, h)
            assert (est.value, est.se) == (value, se), (node, column)
            assert np.array_equal(est.per_path, per_path), (node, column)
            assert est.se > 0.0


def test_reading_node_zero_keeps_y_at_node_one(jump_bundle):
    driver = br.make_entropic_driver(2.0, (1.5,))
    xi = -jump_bundle.terminal
    alone = br.solve_bsde(jump_bundle, driver, xi, nodes=(0,), densities=1, controls=True)
    both = br.solve_bsde(jump_bundle, driver, xi, nodes=(0, 1), densities=1)
    assert sorted(alone.y) == [0, 1]
    # only y: the density and the controls stay at the nodes asked for
    assert list(alone.density) == list(alone.z) == list(alone.upsilon) == [0]
    assert np.array_equal(alone.y[1], both.y[1])
    assert alone.estimate(0).se == both.estimate(0).se > 0.0
    assert sorted(br.solve_bsde(jump_bundle, driver, xi, nodes=(25,)).y) == [25]


def test_condexp_rejects_non_finite_targets(jump_bundle):
    targets = np.column_stack([jump_bundle.terminal, jump_bundle.terminal])
    targets[17, 1] = np.inf
    for node in (0, 25, 50):
        with pytest.raises(ValueError, match="targets must be finite"):
            condexp_at_node(jump_bundle, node, targets, br.RegressionConfig())


def test_solution_rows_are_contiguous(jump_bundle):
    cols = br.solve_bsde(jump_bundle, br.make_entropic_driver(2.0, (1.5,)),
                         -jump_bundle.terminal, nodes=range(51), controls=True)
    for i in (0, 1, 49):
        assert cols.y[i][:, 0].flags.c_contiguous
        assert cols.z[i][:, 0].flags.c_contiguous
        assert cols.upsilon[i][:, 0, 0].flags.c_contiguous
    assert cols.y[50][:, 0].flags.c_contiguous


def test_block_columns_are_contiguous(jump_bundle):
    # the sweep keeps one contiguous row per column, node 0 (a plain mean)
    # and the terminal included
    x = jump_bundle.terminal
    terminals = np.column_stack([-x, -(x * x), -(0.5 * x + 0.2)])
    cols = br.solve_bsde(jump_bundle, br.make_entropic_driver(2.0, (1.5,)), terminals,
                         nodes=(0, 1, 25, 50), densities=2)
    for node in (0, 1, 25, 50):
        assert all(cols.y[node][:, j].flags.c_contiguous for j in range(3)), node
        assert all(cols.density[node][:, j].flags.c_contiguous for j in range(2)), node


def test_solution_shapes_and_terminal_row(jump_bundle, solve_stacked):
    driver = br.make_entropic_driver(1.0, (1.5,))
    xi = jump_bundle.terminal
    sol = solve_stacked(jump_bundle, driver, -xi)
    m, n = jump_bundle.path_count, 50
    assert sol.y.shape == (m, n + 1)
    assert sol.z.shape == (m, n)
    assert sol.upsilon.shape == (m, n, 1)
    assert np.array_equal(sol.y[:, n], -xi)
    assert np.all(np.ptp(sol.y[:, 0]) == 0.0)  # time-0 value is scalar


def replay_columns(bundle, driver, terminal, **kwargs):
    n = bundle.grid.step_count
    return br.solve_bsde(bundle, driver, terminal, nodes=range(n + 1), **kwargs)


def deterministic_replay_case():
    """No noise at all: sigma = 0, no jumps, so every path is the same and
    each step's sampling error is exactly zero."""
    bundle = br.simulate_paths(br.build_grid(1.0, 10), br.LevyModel(x0=0.0, mu=0.1, sigma=0.0),
                               1000, 1)
    return bundle, br.make_qexp_driver(1.0, br.LinearForm(const=0.3)), 0.1 + 3.0 * bundle.terminal


def test_residual_replay_clean_solution(jump_bundle):
    # in the deterministic case the replay means are rounding and the sampling
    # error is 0: the standard error floor keeps every step unflagged
    cases = [(jump_bundle, br.make_entropic_driver(1.0, (1.5,)), -jump_bundle.terminal),
             deterministic_replay_case()]
    for bundle, driver, terminal in cases:
        cols = replay_columns(bundle, driver, terminal, controls=True)
        report = br.residual_replay(bundle, driver, cols)
        assert report.flagged.size == 0
        assert np.all(report.std_errors > 0.0)
        assert report.passed and report.worst_z == float(report.z_scores.max())


def test_residual_replay_flags_corruption(jump_bundle):
    cases = [(jump_bundle, br.make_entropic_driver(1.0, (1.5,)), -jump_bundle.terminal, 20),
             (*deterministic_replay_case(), 5)]
    for bundle, driver, terminal, node in cases:
        cols = replay_columns(bundle, driver, terminal, controls=True)
        cols.y[node][:, 0] += 0.05  # corrupt one node; steps node-1 and node both see it
        report = br.residual_replay(bundle, driver, cols)
        assert set(report.flagged) == {node - 1, node}
        assert not report.passed


def test_residual_replay_needs_one_column_with_controls(jump_bundle):
    driver = br.make_entropic_driver(1.0, (1.5,))
    x = jump_bundle.terminal
    block = replay_columns(jump_bundle, driver, -np.column_stack([x, x]), controls=True)
    with pytest.raises(ValueError, match="one column"):
        br.residual_replay(jump_bundle, driver, block)
    plain = replay_columns(jump_bundle, driver, -x)
    with pytest.raises(ValueError, match="controls"):
        br.residual_replay(jump_bundle, driver, plain)


def test_terminal_shape_validation(jump_bundle):
    driver = br.make_entropic_driver(1.0, (1.5,))
    with pytest.raises(ValueError):
        br.solve_bsde(jump_bundle, driver, np.zeros(7), nodes=(0,))
    with pytest.raises(ValueError):
        br.solve_bsde(jump_bundle, driver, np.full(jump_bundle.path_count, np.nan), nodes=(0,))


def test_non_integer_nodes_rejected():
    b = range_bundle(1)
    driver = br.make_entropic_driver(1.0, b.model.jump_intensities)
    with pytest.raises(ValueError, match="2.7"):
        br.solve_bsde(b, driver, -b.terminal, nodes=(2.7,))
    plain = br.solve_bsde(b, driver, -b.terminal, nodes=(2,)).y[2]
    numpy = br.solve_bsde(b, driver, -b.terminal, nodes=(np.int64(2),)).y[2]
    assert np.array_equal(plain, numpy)


def test_densities_fit_within_the_terminal_columns():
    # each density reads the controls of its own column: at most one per column
    b = range_bundle(1)
    driver = br.make_entropic_driver(1.0, b.model.jump_intensities)
    for densities in (-1, 2, 3):
        with pytest.raises(ValueError, match="densities must be in 0..1"):
            br.solve_bsde(b, driver, -b.terminal, nodes=(0,), densities=densities)
    block = np.column_stack([-b.terminal, b.terminal])
    assert br.solve_bsde(b, driver, block, nodes=(0,), densities=2).density[0].shape == (1203, 2)


def test_mark_count_mismatch_rejected(brownian_bundle):
    driver = br.make_entropic_driver(1.0, (1.5,))
    with pytest.raises(ValueError):
        br.solve_bsde(brownian_bundle, driver, -brownian_bundle.terminal, nodes=(0,))


# --------------------------------------------------------------------------
# batched sweep


def block_driver(bundle):
    return br.make_qexp_driver(
        1.0, br.LinearForm(0.1, (0.2, -0.1), 0.05), bundle.model.jump_intensities)


def test_block_sweep_matches_single_solves(two_mark_bundle, solve_stacked):
    b = two_mark_bundle
    driver = block_driver(b)
    # a tight z clamp makes the clamp counts nonzero
    cfg = br.RegressionConfig(z_clip=0.3)
    x = b.terminal
    terminals = np.column_stack([-x, -(x * x), -(0.5 * x + 0.2), -np.clip(x, -0.1, 0.3),
                                 np.zeros_like(x)])
    block = br.solve_bsde(b, driver, terminals, cfg, nodes=(0, 1), densities=5)
    assert sum(block.clamped_z) > 0
    for j in range(terminals.shape[1]):
        single = solve_stacked(b, driver, terminals[:, j], cfg)
        for node in (0, 1):
            np.testing.assert_allclose(block.y[node][:, j], single.y[:, node],
                                       rtol=0.0, atol=1e-10)
        assert block.clamped_z[j] == single.clamped_z
        assert block.clamped_upsilon[j] == single.clamped_upsilon
        rn = br.doleans_dade(b, driver.partial_z(single.z, single.upsilon),
                             driver.partial_upsilon(single.z, single.upsilon))
        np.testing.assert_allclose(np.log(block.density[0][:, j]), np.log(rn.terminal),
                                   rtol=0.0, atol=1e-10)


def test_block_with_one_clamping_column(two_mark_bundle, solve_stacked):
    # only the -4x column has controls beyond the clamps, and only at some steps
    b = two_mark_bundle
    driver = block_driver(b)
    cfg = br.RegressionConfig(z_clip=1.0, upsilon_clip=2.0)
    x = b.terminal
    terminals = np.column_stack([-x, -4.0 * x, -(0.5 * x + 0.2)])
    block = br.solve_bsde(b, driver, terminals, cfg, nodes=(0, 1), densities=3)
    for j in range(3):
        clamps = reference_sweep(b, driver, terminals[:, j], cfg)[3].sum(axis=0)
        assert (block.clamped_z[j], block.clamped_upsilon[j]) == tuple(clamps), j
    assert block.clamped_z[1] > 0 and block.clamped_upsilon[1] > 0
    # a block of the same width whose middle column clamps nowhere
    calm = terminals.copy()
    calm[:, 1] = -0.4 * x
    other = br.solve_bsde(b, driver, calm, cfg, nodes=(0, 1), densities=3)
    assert not other.clamped_z.any() and not other.clamped_upsilon.any()
    for node in (0, 1):
        for j in (0, 2):
            assert np.array_equal(block.y[node][:, j], other.y[node][:, j]), (node, j)
            assert np.array_equal(block.density[node][:, j], other.density[node][:, j])
    # the clamping column itself agrees with its own solve
    single = solve_stacked(b, driver, terminals[:, 1], cfg)
    np.testing.assert_allclose(block.y[1][:, 1], single.y[:, 1], rtol=0.0, atol=1e-10)
    assert (block.clamped_z[1], block.clamped_upsilon[1]) == (single.clamped_z,
                                                              single.clamped_upsilon)


@pytest.mark.parametrize("driver", [
    br.make_qexp_driver(1.0, br.LinearForm(0.1, (), 0.05)),
    br.make_sublinear_driver((br.LinearForm(0.3, ()), br.LinearForm(-0.2, ()))),
], ids=["qexp", "sublinear"])
def test_brownian_block_densities_match_doleans_dade(brownian_bundle, solve_stacked, driver):
    b = brownian_bundle
    x = b.terminal
    terminals = np.column_stack([-x, -(x * x), -(0.5 * x + 0.2)])
    block = br.solve_bsde(b, driver, terminals, nodes=(0,), densities=3)
    for j in range(3):
        single = solve_stacked(b, driver, terminals[:, j])
        np.testing.assert_allclose(block.y[0][:, j], single.y[:, 0], rtol=0.0, atol=1e-10)
        rn = br.doleans_dade(b, driver.partial_z(single.z, single.upsilon))
        np.testing.assert_allclose(np.log(block.density[0][:, j]), np.log(rn.terminal),
                                   rtol=0.0, atol=1e-10)


def reference_residual_replay(b, driver, solution):
    """Means and standard errors of the replayed identity, one driver call and
    one compensated-jump slice per step, on the stacked solution."""
    n, dt = b.grid.step_count, b.grid.dt
    dnc = b.dn - b.model.jump_intensities * dt
    means, ses = np.empty(n), np.empty(n)
    for i in range(n):
        g = driver(solution.z[:, i], solution.upsilon[:, i, :])
        step = solution.y[:, i + 1] - solution.y[:, i] + g * dt
        resid = step - solution.z[:, i] * b.dw[:, i]
        resid -= (solution.upsilon[:, i, :] * dnc[:, i, :]).sum(axis=1)
        means[i] = resid.mean()
        ses[i] = step.std() / np.sqrt(b.path_count)
    return means, ses


def test_residual_replay_equals_per_step_replay(two_mark_bundle, solve_stacked):
    b = two_mark_bundle
    driver = block_driver(b)
    xi = -(b.terminal + 0.5 * b.terminal**2)
    report = br.residual_replay(b, driver, replay_columns(b, driver, xi, controls=True))
    means, ses = reference_residual_replay(b, driver, solve_stacked(b, driver, xi))
    assert np.array_equal(report.means, means)
    assert np.array_equal(report.std_errors, ses)


def test_overflowing_driver_raises_at_first_non_finite_step(two_mark_bundle):
    # e^{gamma u} overflows for gamma = 800 once some |u| passes about 0.9
    b = two_mark_bundle
    driver = br.make_entropic_driver(800.0, b.model.jump_intensities)
    xi = -(b.terminal + 0.5 * b.terminal**2)
    with np.errstate(over="ignore", invalid="ignore"):
        y = reference_sweep(b, driver, xi, br.RegressionConfig())[0]
    first = max(i for i in range(b.grid.step_count) if not np.all(np.isfinite(y[:, i])))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverFailure, match=f"at step {first}$") as failure:
            br.solve_bsde(b, driver, np.column_stack([xi, xi]), nodes=(0,))
    assert failure.value.step == first


def test_sweep_density_overflow_raises_like_doleans_dade(jump_bundle):
    # the zero claim keeps the controls at zero, so dg/du = 1e308 at every
    # step: a path with two jumps overflows its product of jump factors
    b = jump_bundle
    driver = br.make_qexp_driver(1.0, br.LinearForm(0.0, (1e308,)), (1.5,))
    m, n = b.path_count, b.grid.step_count
    z, u = np.zeros((m, n)), np.zeros((m, n, 1))
    with pytest.raises(EstimatorFailure, match="overflowed"):
        br.doleans_dade(b, driver.partial_z(z, u), driver.partial_upsilon(z, u))
    with pytest.raises(EstimatorFailure, match="overflowed"):
        br.solve_bsde(b, driver, np.zeros(m), nodes=(0,), densities=1)


@pytest.fixture(scope="module")
def small_bundle(jump_model):
    return br.simulate_paths(br.build_grid(1.0, 10), jump_model, 2000, 5)


def claim_column(bundle, coefs):
    x = bundle.terminal
    return coefs[0] + coefs[1] * x + coefs[2] * x * x


coef = st.floats(-1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(a=coef, b=coef, c=coef, shift=st.floats(-5.0, 5.0))
def test_block_translation_invariance(small_bundle, a, b, c, shift):
    driver = br.make_entropic_driver(1.5, (1.5,))
    xi = claim_column(small_bundle, (a, b, c))
    y = br.solve_bsde(small_bundle, driver, -np.column_stack([xi, xi + shift]),
                      nodes=(0,)).y[0]
    assert y[0, 1] == pytest.approx(y[0, 0] - shift, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(target=st.tuples(coef, coef, coef),
       others=st.lists(st.tuples(coef, coef, coef), max_size=4),
       position=st.integers(0, 4))
def test_column_independent_of_block_partners(small_bundle, target, others, position):
    driver = br.make_entropic_driver(1.5, (1.5,))
    cfg = br.RegressionConfig(z_clip=0.5)
    columns = [claim_column(small_bundle, c) for c in others]
    j = min(position, len(columns))
    columns.insert(j, claim_column(small_bundle, target))
    alone = br.solve_bsde(small_bundle, driver, -columns[j][:, None], cfg,
                          nodes=(0, 1), densities=1)
    shared = br.solve_bsde(small_bundle, driver, -np.column_stack(columns), cfg,
                           nodes=(0, 1), densities=len(columns))
    # relative tolerances: fit roundoff reaches the driver and the density
    # through e^{gamma u}, which the clamp lets grow to e^{7.5}
    for node in (0, 1):
        np.testing.assert_allclose(shared.y[node][:, j], alone.y[node][:, 0],
                                   rtol=1e-10, atol=1e-12)
        # densities can underflow to exactly 0; matching -inf logs compare equal
        with np.errstate(divide="ignore"):
            shared_log = np.log(shared.density[node][:, j])
            alone_log = np.log(alone.density[node][:, 0])
        np.testing.assert_allclose(shared_log, alone_log, rtol=1e-10, atol=1e-12)
    assert shared.clamped_z[j] == alone.clamped_z[0]
    assert shared.clamped_upsilon[j] == alone.clamped_upsilon[0]


# --------------------------------------------------------------------------
# the sweep's path ranges


def sweep_on(workers, *args, **kwargs):
    """solve_bsde with ``workers`` path ranges whenever there are that many
    paths, the split floor lowered so that small bundles split too, and many
    thread switches."""
    switch = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_worker_count", lambda n, w=workers: min(w, n))
        patch.setattr(bsde, "_SPLIT_FLOOR", 1)
        sys.setswitchinterval(1e-6)
        try:
            return br.solve_bsde(*args, **kwargs)
        finally:
            sys.setswitchinterval(switch)


def range_bundle(marks):
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=jumps)
    return br.simulate_paths(br.build_grid(1.0, 8), model, 1203, 13)


RANGE_DRIVERS = {
    "entropic": lambda lam: br.make_entropic_driver(1.5, lam),
    "qexp-linear": lambda lam: br.make_qexp_driver(
        1.0, br.LinearForm(0.1, tuple(0.2 - 0.3 * j for j in range(len(lam))), 0.05), lam),
    "sublinear": lambda lam: br.make_sublinear_driver(
        (br.LinearForm(0.3, (0.2,) * len(lam)), br.LinearForm(-0.25, (0.5,) * len(lam))), lam),
}


@pytest.mark.parametrize("marks", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(RANGE_DRIVERS))
def test_sweep_is_the_same_on_any_number_of_threads(family, marks):
    b = range_bundle(marks)
    driver = RANGE_DRIVERS[family](b.model.jump_intensities)
    x = b.terminal
    # one column (its fits are single rows) and a block
    blocks = (-2.0 * x, np.column_stack([-x, -(x * x), -(0.5 * x + 0.2), -2.0 * x]))
    # tight clamps, so that some controls are clamped
    cfg = br.RegressionConfig(jump_count_features=True, z_clip=0.4, upsilon_clip=0.3)
    n = b.grid.step_count
    threads = threading.active_count()
    for terminals in blocks:
        densities = 1 if terminals.ndim == 1 else 3
        runs = [sweep_on(w, b, driver, terminals, cfg, nodes=range(n + 1),
                         densities=densities, controls=True) for w in (1, 2, 3)]
        ref = runs[0]
        assert ref.clamped_z.any() and (marks == 0 or ref.clamped_upsilon.any())
        for run in runs[1:]:
            for name in ("y", "density", "z", "upsilon"):
                want, got = getattr(ref, name), getattr(run, name)
                assert sorted(want) == sorted(got), name
                for node in want:
                    assert np.array_equal(want[node], got[node]), (name, node)
            assert np.array_equal(run.clamped_z, ref.clamped_z)
            assert np.array_equal(run.clamped_upsilon, ref.clamped_upsilon)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 3])
def test_single_node_reads_equal_a_read_of_every_node(workers):
    # a read node keeps copies of the sweep's rows: what one node reads
    # alone equals what a read of every node gives there, and no two read
    # arrays share memory
    b = range_bundle(1)
    driver = RANGE_DRIVERS["entropic"](b.model.jump_intensities)
    x = b.terminal
    terminals = np.column_stack([-x, -(x * x), -(0.5 * x + 0.2)])
    n = b.grid.step_count
    full = sweep_on(workers, b, driver, terminals, nodes=range(n + 1), densities=2,
                    controls=True)
    for i in (0, 1, n // 2, n - 1, n):
        alone = sweep_on(workers, b, driver, terminals, nodes=(i,), densities=2,
                         controls=True)
        for name in ("y", "density", "z", "upsilon"):
            got = getattr(alone, name)
            if name in ("z", "upsilon") and i == n:
                assert not got
                continue
            assert np.array_equal(got[i], getattr(full, name)[i]), (name, i)
    arrays = [(name, node, a) for name in ("y", "density", "z", "upsilon")
              for node, a in getattr(full, name).items()]
    for j, (name, node, a) in enumerate(arrays):
        for other, other_node, c in arrays[j + 1:]:
            assert not np.shares_memory(a, c), (name, node, other, other_node)


def test_signed_density_names_the_same_paths_on_any_number_of_threads():
    # 1 + dg/du = e^{u} - 1.5 < 0 for every clamped u: every path with a jump
    # at the last step fails there, named by its index in the whole bundle
    b = range_bundle(1)
    driver = br.make_qexp_driver(1.0, br.LinearForm(0.0, (-1.5,)), b.model.jump_intensities)
    cfg = br.RegressionConfig(upsilon_clip=0.3)
    n = b.grid.step_count
    failures = []
    for workers in (1, 2, 3):
        with pytest.raises(SignedDensityFailure) as failure:
            sweep_on(workers, b, driver, -b.terminal, cfg, nodes=(0,), densities=1)
        failures.append(failure.value)
    expected = np.flatnonzero(b.dn[:, n - 1].any(axis=1))
    assert 0 < expected.size
    for failure in failures:
        assert np.array_equal(failure.paths, expected)
        assert str(failure) == str(failures[0])


def test_solver_failure_names_the_same_step_on_any_number_of_threads(two_mark_bundle):
    b = two_mark_bundle
    driver = br.make_entropic_driver(800.0, b.model.jump_intensities)
    xi = -(b.terminal + 0.5 * b.terminal**2)
    steps = []
    for workers in (1, 2, 3):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverFailure) as failure:
                sweep_on(workers, b, driver, np.column_stack([xi, xi]), nodes=(0,))
        steps.append(failure.value.step)
    assert steps[0] is not None and steps == [steps[0]] * 3


def test_path_range_failure_reaches_the_caller(jump_bundle, monkeypatch):
    # an exception in a range is raised again in the calling thread, and the
    # sweep's threads end
    driver = br.make_entropic_driver(2.0, (1.5,))
    evaluate = type(driver).evaluate

    def failing(self, z, *args, **kwargs):
        if z.shape[0] < jump_bundle.path_count:
            raise MemoryError("range")
        return evaluate(self, z, *args, **kwargs)

    monkeypatch.setattr(type(driver), "evaluate", failing)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="range"):
        sweep_on(3, jump_bundle, driver, -jump_bundle.terminal, nodes=(0,))
    assert threading.active_count() == threads


def test_path_ranges_run_on_other_threads_in_the_callers_context(monkeypatch):
    # the first range waits until another thread has run one; every range
    # sees the caller's numpy error state, which is per thread, the results
    # come in range order, and a failure on another thread reaches the
    # caller, the first in range order
    monkeypatch.setattr(market, "_worker_count", lambda n: min(3, n))
    threads = threading.active_count()
    ranges = bsde._path_ranges(1000, 1000)
    assert ranges == [(0, 333), (333, 666), (666, 1000)]
    other = threading.Event()
    seen = []

    def phase(lo, hi):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        if lo == 0:
            other.wait(timeout=30)
        else:
            other.set()
        return lo

    def failing(lo, hi):
        if lo:
            other.set()
            raise MemoryError(f"range {lo}")
        other.wait(timeout=30)
        return lo

    with np.errstate(over="ignore"):
        with ThreadPoolExecutor(len(ranges)) as pool:
            assert bsde._run_ranges(pool, phase, ranges) == [0, 333, 666]
            other.clear()
            with pytest.raises(MemoryError, match="^range 333$"):
                bsde._run_ranges(pool, failing, ranges)
    assert threading.active_count() == threads
    assert other.is_set()
    assert {state for _, state in seen} == {"ignore"}
    assert len({ident for ident, _ in seen}) > 1


def test_path_range_failure_waits_for_every_range():
    # range 0 fails at once and range 2 ends late: the failure reaches the
    # caller only after range 2 has finished, so no range of a sweep still
    # writes into its workspace once solve_bsde has raised
    finished = []

    def phase(lo, hi):
        if lo == 0:
            raise MemoryError("range 0")
        if lo == 2:
            time.sleep(0.2)
        finished.append(lo)
        return lo

    with ThreadPoolExecutor(3) as pool:
        with pytest.raises(MemoryError, match="range 0"):
            bsde._run_ranges(pool, phase, [(0, 1), (1, 2), (2, 3)])
        assert sorted(finished) == [1, 2]
