"""Discrete stochastic exponentials, admissibility checks, reweighting."""

import math
import warnings

import numpy as np
import pytest

import bsderisk as br
from bsderisk.errors import EstimatorFailure, SignedDensityFailure
from bsderisk.measure import GirsanovReport, weighted_mean_se


def constant_rn(bundle, phi_z, phi_jumps):
    m, n, k = bundle.path_count, bundle.grid.step_count, bundle.mark_count
    pz = np.full((m, n), phi_z)
    pj = np.broadcast_to(np.array(phi_jumps), (m, n, k)).copy()
    return br.doleans_dade(bundle, pz, pj)


def test_constant_integrand_matches_closed_form(jump_bundle):
    phi_z, phi_j, lam = 0.5, 0.3, 0.6
    rn = constant_rn(jump_bundle, phi_z, (phi_j,))
    t = jump_bundle.grid.nodes
    w = np.concatenate(
        [np.zeros((jump_bundle.path_count, 1)), np.cumsum(jump_bundle.dw, axis=1)],
        axis=1,
    )
    counts = np.concatenate(
        [np.zeros((jump_bundle.path_count, 1)), np.cumsum(jump_bundle.dn[:, :, 0], axis=1)],
        axis=1,
    )
    ref = np.exp(
        phi_z * w - 0.5 * phi_z**2 * t
        + counts * math.log1p(phi_j) - phi_j * 1.5 * t
    )
    np.testing.assert_allclose(rn.lam, ref, rtol=0.0, atol=1e-12)


def test_density_is_exact_discrete_martingale(jump_bundle):
    # each per-step factor has conditional mean one, true in expectation;
    # empirically the terminal mean must sit within noise of 1
    rn = constant_rn(jump_bundle, 0.4, (0.5,))
    report = br.martingale_diagnostic(rn)
    assert report.passed
    term = rn.terminal
    se = term.std() / math.sqrt(term.size)
    assert abs(term.mean() - 1.0) < 3 * se


def test_signed_density_rejected(jump_bundle):
    # a jump integrand at -1.2 makes 1 + phi negative on any path that jumps
    with pytest.raises(SignedDensityFailure):
        constant_rn(jump_bundle, 0.0, (-1.2,))


def test_zero_integrands_give_unit_density(jump_bundle):
    rn = constant_rn(jump_bundle, 0.0, (0.0,))
    assert np.all(rn.lam == 1.0)


def test_kazamaki_margins(jump_bundle):
    rn = constant_rn(jump_bundle, 0.3, (0.0,))
    rep = br.kazamaki_check(rn, delta=1e-6)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(1.0 - 1e-6)
    # margin sits exactly at -delta when a jump integrand touches -1;
    # build it without triggering the signed-density guard by zeroing phi on
    # the paths that jump
    m, n = jump_bundle.path_count, jump_bundle.grid.step_count
    pj = np.full((m, n, 1), -1.0)
    pj[jump_bundle.dn > 0] = 0.0
    rn2 = br.doleans_dade(jump_bundle, np.zeros((m, n)), pj)
    rep2 = br.kazamaki_check(rn2, delta=1e-6)
    assert not rep2.passed
    assert rep2.worst_margin == pytest.approx(-1e-6)


def test_weighted_condexp_unit_weights_bit_identical(jump_bundle):
    from bsderisk.bsde import condexp_at_node

    cfg = br.RegressionConfig()
    payload = jump_bundle.terminal**2
    weights = np.ones(jump_bundle.path_count)
    node = 25
    weighted = br.weighted_condexp(jump_bundle, weights, payload, node, cfg)
    plain = condexp_at_node(jump_bundle, node, payload, cfg)
    assert np.array_equal(weighted, plain)


@pytest.mark.parametrize("weight", [0.0, -2.0])
def test_constant_non_positive_weights_raise(weight):
    # constant weights skip the regression only when they are positive; a
    # zero or negative constant is a non-positive normalizer on every path
    model = br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=(br.JumpMark(-0.2, 1.5),))
    bundle = br.simulate_paths(br.build_grid(1.0, 5), model, 200, 1)
    weights = np.full(bundle.path_count, weight)
    with pytest.raises(EstimatorFailure, match="non-positive weight normalizer") as failure:
        br.weighted_condexp(bundle, weights, bundle.terminal)
    assert failure.value.paths.size == bundle.path_count


def test_weighted_mean_se_rejects_inadmissible_weights():
    payload = np.linspace(-1.0, 1.0, 200)
    # mixed signs would give a "mean" of -1.51, outside the payload's range
    mixed = np.concatenate([np.full(100, 2.0), np.full(100, -1.0)])
    with pytest.raises(EstimatorFailure) as failure:
        weighted_mean_se(mixed, payload)
    assert np.array_equal(failure.value.paths, np.arange(100, 200))
    for weights in (np.zeros(200), np.full(200, np.inf), np.full(200, np.nan)):
        with pytest.raises(EstimatorFailure):
            weighted_mean_se(weights, payload)
    # exact zeros, as a collapsed density has, stay allowed
    weights = np.concatenate([np.zeros(100), np.ones(100)])
    mean, _ = weighted_mean_se(weights, payload)
    assert mean == pytest.approx(payload[100:].mean(), abs=1e-15)


def test_weighted_mean_se_does_not_depend_on_the_payload_layout():
    # the same values stored row-major, column-major, as a transposed view
    # or as a strided column give the same bits
    rng = np.random.default_rng(5)
    weights = rng.exponential(size=20_000)
    payload = rng.standard_normal((20_000, 50))
    results = [weighted_mean_se(weights, p) for p in
               (payload, np.asfortranarray(payload), np.ascontiguousarray(payload.T).T)]
    for mean, se in results[1:]:
        assert mean.tobytes() == results[0][0].tobytes()
        assert se.tobytes() == results[0][1].tobytes()
    column = weighted_mean_se(weights, payload[:, 7])
    assert column == weighted_mean_se(weights, payload[:, 7].copy())


ESTIMATORS = {
    "entropic_closed_form": lambda b, claim: br.entropic_closed_form(
        1.0, claim, 0, b, br.RegressionConfig()),
    "weighted_condexp": lambda b, claim: br.weighted_condexp(
        b, np.exp(0.1 * b.terminal), claim, 2),
    "weighted_mean_se": lambda b, claim: weighted_mean_se(np.ones(b.path_count), claim),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_standalone_estimators_reject_a_non_finite_claim(name):
    # as solve_bsde rejects a non-finite terminal and condexp_at_node
    # non-finite targets: an error, not NaNs
    model = br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=(br.JumpMark(-0.2, 1.5),))
    bundle = br.simulate_paths(br.build_grid(1.0, 5), model, 200, 1)
    claim = bundle.terminal.copy()
    claim[17] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        ESTIMATORS[name](bundle, claim)


def test_reweighted_constant_payload_is_exact(jump_bundle):
    rn = constant_rn(jump_bundle, 0.5, (0.4,))
    payload = np.full(jump_bundle.path_count, 3.5)
    out = br.weighted_condexp(jump_bundle, rn.terminal, payload)
    np.testing.assert_allclose(out, 3.5, rtol=0.0, atol=1e-12)


def test_reweighted_expectation_matches_direct_weighting(jump_bundle):
    rn = constant_rn(jump_bundle, 0.5, (0.4,))
    payload = jump_bundle.terminal
    out = float(br.weighted_condexp(jump_bundle, rn.terminal, payload)[0])
    w = rn.terminal / rn.terminal.sum()
    assert out == pytest.approx(float(w @ payload), abs=1e-12)


def test_girsanov_shifts_within_noise(jump_bundle):
    # under the tilted measure E[dW] = phi_z dt and E[dN] = lam (1 + phi) dt;
    # the reweighted sample means must agree within 4 SE across all steps
    rn = constant_rn(jump_bundle, 0.5, (0.6,))
    rep = br.girsanov_shift_check(rn)
    assert rep.passed, f"worst z {rep.worst_z}"


def test_girsanov_flags_wrong_drift(jump_bundle):
    rn = constant_rn(jump_bundle, 0.5, (0.6,))
    # tamper with the Brownian integrand after the fact: predictions use
    # phi = 0.9 while the density was built at 0.5
    tampered = br.RNProcess(
        bundle=rn.bundle,
        lam=rn.lam,
        phi_z=np.full_like(rn.phi_z, 0.9),
        phi_jump=rn.phi_jump,
    )
    rep = br.girsanov_shift_check(tampered)
    assert not rep.passed


def test_girsanov_zero_se_counts_only_a_zero_gap():
    # a density on one path: every reweighted mean is that path's value and
    # every standard error is 0, so a nonzero gap is infinitely many SE away
    model = br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=(br.JumpMark(-0.2, 1.5),))
    b = br.simulate_paths(br.build_grid(1.0, 5), model, 200, 1)
    m, n, k = b.path_count, b.grid.step_count, b.mark_count
    lam = np.zeros((m, n + 1))
    lam[:, 0] = 1.0
    lam[17, -1] = 1.0
    rn = br.RNProcess(bundle=b, lam=lam, phi_z=np.zeros((m, n)), phi_jump=np.zeros((m, n, k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = br.girsanov_shift_check(rn)
        assert np.all(rep.dw_se == 0.0) and np.abs(rep.dw_gap).max() > 0.0
        assert rep.worst_z == np.inf and not rep.passed
        exact = GirsanovReport(dw_gap=np.zeros(n), dw_se=np.zeros(n), dn_gap=np.zeros((n, k)),
                               dn_se=np.zeros((n, k)), k_sigma=4.0)
        assert exact.worst_z == 0.0 and exact.passed


def test_girsanov_block_matches_per_step_means(two_mark_bundle):
    # path-dependent integrands, so every step and mark has its own drift
    b = two_mark_bundle
    m, n, k = b.path_count, b.grid.step_count, b.mark_count
    dt = b.grid.dt
    x = b.states(0, n).T
    pz = 0.4 * np.tanh(x)
    pj = np.stack([0.3 * np.cos(x), -0.2 * np.sin(x)], axis=2)
    rn = br.doleans_dade(b, pz, pj)
    rep = br.girsanov_shift_check(rn)
    lam = b.model.jump_intensities
    for i in range(n):
        gap, se = weighted_mean_se(rn.terminal, b.dw[:, i] - pz[:, i] * dt)
        assert rep.dw_gap[i] == pytest.approx(gap, rel=1e-12, abs=1e-300)
        assert rep.dw_se[i] == pytest.approx(se, rel=1e-12)
        for j in range(k):
            predicted = lam[j] * (1.0 + pj[:, i, j]) * dt
            gap, se = weighted_mean_se(rn.terminal, b.dn[:, i, j] - predicted)
            assert rep.dn_gap[i, j] == pytest.approx(gap, rel=1e-12, abs=1e-300)
            assert rep.dn_se[i, j] == pytest.approx(se, rel=1e-12)
    assert rep.dn_gap.shape == rep.dn_se.shape == (n, k)


def test_overflowing_density_raises(jump_bundle):
    # a huge jump integrand overflows on steps that see two or more jumps
    assert int((jump_bundle.dn >= 2).sum()) > 0
    m, n = jump_bundle.path_count, jump_bundle.grid.step_count
    with pytest.raises(EstimatorFailure):
        br.doleans_dade(jump_bundle, np.zeros((m, n)), np.full((m, n, 1), 1e308))
