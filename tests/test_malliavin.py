"""Derivative fields, predictable representation, entropic control formulas."""

import numpy as np
import pytest

import bsderisk as br


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
    sigma = jump_bundle.model.sigma
    zeta = jump_bundle.model.jumps[0].size
    assert np.allclose(result.u, 0.8 * sigma, atol=1e-9)
    assert np.allclose(result.v[:, :, 0], 0.8 * zeta, atol=1e-9)


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


def test_per_step_fields_are_contiguous(jump_bundle):
    # time-major storage: each step's field across paths is one contiguous row
    b = jump_bundle
    m, n = b.path_count, b.grid.step_count
    payoff = br.ExpAffinePayoff(1.0, 0.5)
    co = br.clark_ocone(b, payoff)
    controls = [br.entropic_controls(b, payoff, 1.0), br.entropic_controls(b, payoff, 1.0, 0.0)]
    # path-major full integrands, as a caller may build them
    phi_z, phi_jump = np.full((m, n), 0.3), np.full((m, n, 1), 0.2)
    rn = br.doleans_dade(b, phi_z, phi_jump)
    assert rn.phi_z.shape == (m, n) and rn.phi_jump.shape == (m, n, 1)
    for i in range(n):
        assert co.u[:, i].flags.c_contiguous and co.v[:, i, 0].flags.c_contiguous
        for c in controls:
            assert c.z[:, i].flags.c_contiguous and c.normalizer[:, i].flags.c_contiguous
            assert c.upsilon[:, i, 0].flags.c_contiguous
            assert c.upsilon_linearized[:, i, 0].flags.c_contiguous
        assert rn.lam[:, i].flags.c_contiguous and rn.phi_z[:, i].flags.c_contiguous
        assert rn.phi_jump[:, i, 0].flags.c_contiguous
    assert rn.lam[:, n].flags.c_contiguous
    # time-major integrands are read in place, broadcast ones stay views
    again = br.doleans_dade(b, rn.phi_z, rn.phi_jump)
    assert np.shares_memory(again.phi_z, rn.phi_z)
    assert np.shares_memory(again.phi_jump, rn.phi_jump)
    scalar = br.doleans_dade(b, 0.3, 0.2)
    assert scalar.phi_z.strides == (0, 0) and scalar.phi_jump.strides == (0, 0, 0)
    assert np.array_equal(scalar.lam, rn.lam)


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
