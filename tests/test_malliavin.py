"""Derivative fields, predictable representation, entropic control formulas."""

import re

import numpy as np
import pytest

import bsderisk as br
from bsderisk import malliavin


def test_affine_fields_are_exact_constants(jump_bundle):
    payoff = br.AffinePayoff(0.3, 0.7)
    field = br.malliavin_derivative(jump_bundle, payoff)
    sigma = jump_bundle.model.sigma
    zeta = jump_bundle.model.jumps[0].size
    assert np.allclose(field.brownian, 0.7 * sigma, atol=1e-14)
    assert field.jump.shape == (jump_bundle.path_count, 1)
    assert np.allclose(field.jump[:, 0], 0.7 * zeta, atol=1e-14)


def test_jump_field_is_nonlinear_difference(jump_bundle):
    # the jump derivative is f(x + zeta) - f(x), not slope * zeta
    payoff = br.ExpAffinePayoff(1.0, 1.0)
    field = br.malliavin_derivative(jump_bundle, payoff)
    x = jump_bundle.terminal
    zeta = jump_bundle.model.jumps[0].size
    exact = np.exp(x + zeta) - np.exp(x)
    linearized = np.exp(x) * zeta
    assert np.allclose(field.jump[:, 0], exact, rtol=1e-12)
    assert np.max(np.abs(exact - linearized)) > 1e-3


def test_derivative_rejects_foreign_callables(jump_bundle):
    with pytest.raises(br.UnsupportedPayoff):
        br.malliavin_derivative(jump_bundle, lambda x: x**2)


def test_overflowing_jump_field_is_an_unsupported_payoff():
    # exp(591.5 x) overflows after the jump of 0.3 on the paths ending above
    # 709.78 / 591.5 - 0.3, about half of them: every reader of the fields
    # names those paths rather than regress on infinities
    model = br.LevyModel(x0=0.9, mu=0.0, sigma=0.01, jumps=(br.JumpMark(0.3, 1e-6),))
    bundle = br.simulate_paths(br.build_grid(1.0, 10), model, 2000, 7)
    payoff = br.ExpAffinePayoff(1.0, 591.5)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(np.isinf(payoff.value(bundle.terminal + 0.3)))
    assert 0 < bad.size < bundle.path_count
    message = re.escape(f"non-finite on {bad.size} paths (first: {bad[:5]})")
    for read in (br.malliavin_derivative, br.clark_ocone,
                 lambda b, f: br.entropic_controls(b, f, 1.0),
                 lambda b, f: br.gamma_exponential_check(b, f, 1.0)):
        with pytest.raises(br.UnsupportedPayoff, match=message):
            read(bundle, payoff)


def test_projection_at_terminal_node_is_identity(jump_bundle):
    field = br.malliavin_derivative(jump_bundle, br.ExpAffinePayoff(1.0, 0.5))
    fitted = br.condexp_at_node(jump_bundle, jump_bundle.grid.step_count,
                                np.column_stack([field.brownian, field.jump]),
                                br.RegressionConfig())
    u, v = fitted[:, 0], fitted[:, 1:]
    assert np.allclose(u, field.brownian, atol=1e-12)
    assert np.allclose(v, field.jump, atol=1e-12)


def test_clark_ocone_affine_is_exact(jump_bundle):
    payoff = br.AffinePayoff(0.1, 0.8)
    result = br.clark_ocone(jump_bundle, payoff)
    assert result.residual <= 1e-10
    # the integrands are the constants 0.8 sigma and 0.8 zeta, so the
    # reconstruction is the claim on every path
    xi = br.terminal_values(jump_bundle, payoff)
    assert np.allclose(result.reconstruction, xi, rtol=0.0, atol=1e-9)


def test_clark_ocone_reconstruction_is_mean_centered(jump_bundle):
    payoff = br.AffinePayoff(0.1, 0.8)
    result = br.clark_ocone(jump_bundle, payoff)
    xi = br.terminal_values(jump_bundle, payoff)
    # with constant integrands the empirically compensated increments have
    # exactly zero mean, pinning the reconstruction mean to mean(xi)
    assert result.reconstruction.mean() == pytest.approx(xi.mean(), abs=1e-10)


def test_clark_ocone_clipped_exponential(jump_bundle):
    payoff = br.ClippedPayoff(br.ExpAffinePayoff(1.0, 1.0), 0.0, 5.0)
    result = br.clark_ocone(jump_bundle, payoff)
    assert result.residual <= 2e-2, result.residual


def test_entropic_controls_zero_position(jump_bundle):
    controls = br.entropic_controls(jump_bundle, br.AffinePayoff(0.0, 1.0), 2.0, beta=0.0)
    assert controls.z.shape == (jump_bundle.path_count, jump_bundle.grid.step_count)
    assert not controls.z.any()
    assert not controls.upsilon.any()
    assert not controls.upsilon_linearized.any()


def test_entropic_controls_affine_closed_form(jump_bundle):
    # for xi = a + b X the controls collapse to constants:
    # Z = -beta b sigma, Ups_k = -beta b zeta_k
    b, beta, gamma = 0.6, 0.7, 1.5
    controls = br.entropic_controls(jump_bundle, br.AffinePayoff(0.2, b), gamma, beta)
    sigma = jump_bundle.model.sigma
    zeta = jump_bundle.model.jumps[0].size
    assert np.allclose(controls.z, -beta * b * sigma, atol=1e-9)
    assert np.allclose(controls.upsilon[:, :, 0], -beta * b * zeta, atol=1e-9)
    assert np.allclose(controls.upsilon, controls.upsilon_linearized, atol=1e-9)


def test_entropic_controls_linearization_gap(jump_bundle):
    # nonlinear payoffs separate the exact jump control from its tilt
    controls = br.entropic_controls(jump_bundle, br.ExpAffinePayoff(1.0, 0.5), 1.0)
    gap = np.max(np.abs(controls.upsilon - controls.upsilon_linearized))
    assert gap > 1e-3


def test_entropic_controls_validation(jump_bundle):
    payoff = br.AffinePayoff(0.0, 1.0)
    with pytest.raises(ValueError):
        br.entropic_controls(jump_bundle, payoff, 0.0)
    with pytest.raises(ValueError):
        br.entropic_controls(jump_bundle, payoff, 1.0, beta=-0.5)


def test_gamma_exponential_identity_brownian(brownian_bundle):
    report = br.gamma_exponential_check(brownian_bundle, br.AffinePayoff(0.0, 1.0), 1.0)
    assert report.max_gap <= 2e-2, report.max_gap
    assert np.array_equal(report.gaps, report.gaps_linearized)


def test_gamma_exponential_identity_jumps(jump_bundle):
    # gamma = 0.5 keeps the exponential spread inside what a cubic fit of
    # the normalizer can hold positive on this fixture
    report = br.gamma_exponential_check(jump_bundle, br.AffinePayoff(0.0, 1.0), 0.5)
    assert report.max_gap <= 3e-2, report.max_gap
    assert report.gaps.shape == (jump_bundle.grid.step_count + 1,)
    # affine claim: the jump field is constant, so the linearized control
    # coincides with the exact one and so do the gaps
    assert report.max_gap_linearized == pytest.approx(report.max_gap, rel=1e-6)


def _full_field_check(bundle, payoff, gamma, beta, config=br.RegressionConfig()):
    """The identity's controls and gaps from whole fields: entropic_controls,
    doleans_dade of each jump control, and the (N+1, M) Gamma ratio."""
    controls = br.entropic_controls(bundle, payoff, gamma, beta, config)
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    xi = br.terminal_values(bundle, payoff)
    ratio = np.empty((n + 1, m))
    ratio[:n] = controls.normalizer.T
    ratio[n] = np.exp(-gamma * beta * (xi - xi.min()))
    ratio /= ratio[0].copy()

    def gaps_for(upsilon):
        with np.errstate(over="ignore"):
            phi_jump = np.exp(gamma * upsilon) - 1.0
        return np.abs(br.doleans_dade(bundle, gamma * controls.z, phi_jump) - ratio).mean(axis=1)

    gaps = gaps_for(controls.upsilon)
    return controls, gaps, gaps_for(controls.upsilon_linearized) if k else gaps


@pytest.mark.parametrize("fixture, payoff, gamma, beta, config", [
    ("brownian_bundle", br.AffinePayoff(0.0, 1.0), 1.0, 1.0, br.RegressionConfig()),
    ("jump_bundle", br.ExpAffinePayoff(1.0, 0.5), 1.0, 0.5, br.RegressionConfig()),
    ("two_mark_bundle", br.ClippedPayoff(br.ExpAffinePayoff(1.0, 1.0), 0.0, 3.0), 1.0, 0.5,
     br.RegressionConfig(jump_count_features=True)),
    ("two_mark_bundle", br.AffinePayoff(0.0, 1.0), 2.0, 0.0, br.RegressionConfig()),
], ids=["brownian", "one_mark", "two_marks", "beta_zero"])
def test_streamed_gaps_equal_the_full_field_formula(request, fixture, payoff, gamma, beta,
                                                    config):
    bundle = request.getfixturevalue(fixture)
    controls, gaps, gaps_lin = _full_field_check(bundle, payoff, gamma, beta, config)
    report = br.gamma_exponential_check(bundle, payoff, gamma, beta, config)
    assert np.array_equal(report.gaps, gaps)
    assert np.array_equal(report.gaps_linearized, gaps_lin)
    assert (report.max_gap, report.max_gap_linearized) == (gaps.max(), gaps_lin.max())
    # the closed-form targets fitted on a backward sweep's steps, as the
    # verify task's consumer fits them, give the controls entropic_controls
    # stacks, node by node
    targets, rows = malliavin._entropic_targets(bundle, payoff, gamma, beta)
    seen = []

    def fit_closed_form(step):
        fitted = None if targets is None else step.fit(targets)
        seen.append((step.node, *rows(step.node, fitted)))

    driver = br.make_entropic_driver(gamma, bundle.model.jump_intensities)
    br.solve_bsde(bundle, driver, -bundle.terminal, config, nodes=(),
                  consumers=(fit_closed_form,))
    assert [row[0] for row in seen] == list(range(bundle.grid.step_count - 1, -1, -1))
    for i, den, z, ups, ups_lin in seen:
        assert np.array_equal(den, controls.normalizer[:, i])
        assert np.array_equal(z, controls.z[:, i])
        assert np.array_equal(ups, controls.upsilon[:, i])
        assert np.array_equal(ups_lin, controls.upsilon_linearized[:, i])
    if beta == 0.0:
        assert not gaps.any()


def _edit_fits(monkeypatch, edits):
    """Make the entropic walk apply edits[node] to the (M, q) fit of each
    node it names, in place, before the controls are formed from it."""
    walk = malliavin.condexp_at_nodes

    def edited(*args):
        for node, fitted in walk(*args):
            if node in edits:
                edits[node](fitted)
            yield node, fitted

    monkeypatch.setattr(malliavin, "condexp_at_nodes", edited)


# the fit columns with one mark: normalizer, Brownian numerator, the exact
# jump control's shifted numerator and the linearized one's numerator
def _signed(fitted):
    fitted[:, 2] *= 1e-30  # e^{gamma Ups} rounds -1 + e^{...} to -1


def _non_finite(fitted):
    fitted[:5, 1] = np.inf  # z = -inf


def _overflow(fitted):
    fitted[:, 2] *= 1e200  # (1 + phi)^2 overflows where the mark fires twice


def _negative_normalizer(fitted):
    fitted[:3, 0] = -1.0


def _linearized_signed(fitted):
    fitted[:, 3] = 1e3 * fitted[:, 0]


@pytest.mark.parametrize("edits", [
    {3: _signed},
    {2: _non_finite},
    {4: _overflow},
    {3: _signed, 7: _non_finite},
    {2: _non_finite, 40: _negative_normalizer},
    {5: _linearized_signed},
    {5: _linearized_signed, 9: _signed},
], ids=["signed", "non_finite_held_back", "overflow", "non_finite_after_signed",
        "fit_failure_after_held_back", "linearized_signed", "exact_before_linearized"])
def test_streamed_check_raises_the_full_field_failure(jump_bundle, monkeypatch, edits):
    # the walk holds the densities' failures back until its end, so a fit
    # failure at any node comes first, then the exact density's (a
    # non-finite integrand before its first step failure), then the
    # linearized one's: the order of entropic_controls, then doleans_dade
    _edit_fits(monkeypatch, edits)
    payoff = br.AffinePayoff(0.0, 1.0)
    with pytest.raises(Exception) as expected:
        _full_field_check(jump_bundle, payoff, 0.5, 1.0)
    with pytest.raises(Exception) as streamed:
        br.gamma_exponential_check(jump_bundle, payoff, 0.5, 1.0)
    assert type(streamed.value) is type(expected.value)
    assert str(streamed.value) == str(expected.value)
    if hasattr(expected.value, "paths"):
        assert np.array_equal(streamed.value.paths, expected.value.paths)


def test_identity_check_holds_rows_not_fields(jump_bundle, traced_peak):
    # beyond the walk's c rows of X and their two scratch rows, the check
    # holds a fixed number of (M,) rows at any N: the target block, the
    # design and its fit, a node's controls and integrands, and two
    # densities. Whole (M, N) fields of controls, integrands and densities
    # would take about 500 rows here.
    _, peak = traced_peak(br.gamma_exponential_check, jump_bundle,
                          br.AffinePayoff(0.0, 1.0), 0.5)
    rows = jump_bundle.stride + 2 + 44
    assert peak <= rows * 8 * jump_bundle.path_count


def test_clark_ocone_holds_rows_not_fields(jump_bundle, traced_peak):
    # beyond the walk's c rows of X and their two scratch rows, the check
    # holds a fixed number of (M,) rows at any N: the claim, the derivative
    # fields and their target block, the design and its fit, the centred
    # increments and the reconstruction. The (M, N) and (M, N, K) integrand
    # fields alone would take 100 rows here.
    _, peak = traced_peak(br.clark_ocone, jump_bundle, br.ExpAffinePayoff(1.0, 0.5))
    rows = jump_bundle.stride + 2 + 20
    assert peak <= rows * 8 * jump_bundle.path_count


def test_per_step_fields_are_contiguous(jump_bundle):
    # time-major storage: each step's field across paths is one contiguous row
    b = jump_bundle
    n = b.grid.step_count
    payoff = br.ExpAffinePayoff(1.0, 0.5)
    controls = [br.entropic_controls(b, payoff, 1.0), br.entropic_controls(b, payoff, 1.0, 0.0)]
    for i in range(n):
        for c in controls:
            assert c.z[:, i].flags.c_contiguous and c.normalizer[:, i].flags.c_contiguous
            assert c.upsilon[:, i, 0].flags.c_contiguous
            assert c.upsilon_linearized[:, i, 0].flags.c_contiguous


@pytest.mark.parametrize("read", [
    lambda b: br.clark_ocone(b, br.ExpAffinePayoff(1.0, 0.5)),
    lambda b: br.entropic_controls(b, br.ExpAffinePayoff(1.0, 0.5), 1.5),
], ids=["clark_ocone", "entropic_controls"])
def test_per_node_loops_refill_once_per_checkpoint_block(jump_bundle, monkeypatch, read):
    # all N nodes are read in one walk: X is recomputed once per block of
    # checkpoint_stride(N) nodes (8 blocks at N = 50), not once per node
    fills = []
    fill_states = br.PathBundle.fill_states

    def counted(self, *args):
        fills.append(args[0])
        return fill_states(self, *args)

    monkeypatch.setattr(br.PathBundle, "fill_states", counted)
    read(jump_bundle)
    assert len(jump_bundle.checkpoints) + 1 == 8
    assert len(fills) <= 8
    assert sorted(fills) == list(range(0, 50, jump_bundle.stride))
