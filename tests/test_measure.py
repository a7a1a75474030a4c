"""Discrete stochastic exponentials, admissibility checks, reweighting."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsderisk as br
from bsderisk.errors import EstimatorFailure, SignedDensityFailure
from bsderisk.measure import weighted_mean_se


def closed_form(bundle, phi_z, phi_jumps):
    """The (M, N+1) density of constant integrands, from cumulated increments."""
    m = bundle.path_count
    t = bundle.grid.nodes
    w = np.concatenate([np.zeros((m, 1)), np.cumsum(bundle.dw, axis=1)], axis=1)
    log_ref = phi_z * w - 0.5 * phi_z**2 * t
    for j, (phi, lam) in enumerate(zip(phi_jumps, bundle.model.jump_intensities)):
        counts = np.concatenate([np.zeros((m, 1)), np.cumsum(bundle.dn[:, :, j], axis=1)], axis=1)
        log_ref = log_ref + counts * math.log1p(phi) - phi * lam * t
    return np.exp(log_ref)


def test_constant_integrand_matches_closed_form(jump_bundle):
    phi_z, phi_j = 0.5, 0.3
    ref = closed_form(jump_bundle, phi_z, (phi_j,))
    assert br.doleans_check(jump_bundle, phi_z, (phi_j,)).closed_form_gap <= 1e-12
    # the reference stepper on full fields, against the same closed form
    m, n = jump_bundle.path_count, jump_bundle.grid.step_count
    lam = br.doleans_dade(jump_bundle, np.full((m, n), phi_z), np.full((m, n, 1), phi_j))
    np.testing.assert_allclose(lam.T, ref, rtol=0.0, atol=1e-12)


def test_density_is_exact_discrete_martingale(jump_bundle):
    # each per-step factor has conditional mean one, true in expectation;
    # empirically the mean at every node must sit within noise of 1
    report = br.doleans_check(jump_bundle, 0.4, (0.5,))
    assert np.all(np.abs(report.means - 1.0) <= 3 * report.std_errors)
    terminal = br.doleans_dade(jump_bundle, 0.4, 0.5)[-1]
    assert report.means[-1] == terminal.mean()
    assert report.std_errors[-1] == terminal.std() / math.sqrt(terminal.size)


def test_signed_density_rejected(jump_bundle):
    # a jump integrand at -1.2 makes 1 + phi negative on any path that jumps
    with pytest.raises(SignedDensityFailure):
        br.doleans_check(jump_bundle, 0.0, (-1.2,))


def test_zero_integrands_give_unit_density(jump_bundle):
    report = br.doleans_check(jump_bundle, 0.0, (0.0,))
    assert np.all(report.means == 1.0) and np.all(report.std_errors == 0.0)
    assert report.closed_form_gap == 0.0
    assert np.all(br.doleans_dade(jump_bundle, 0.0, 0.0) == 1.0)


def test_kazamaki_margins(jump_bundle):
    report = br.doleans_check(jump_bundle, 0.3, (0.0,))
    assert report.kazamaki_margin == pytest.approx(1.0 - 1e-6)
    # a jump integrand within 1e-6 of -1 keeps the density positive but
    # misses the uniform bound
    close = br.doleans_check(jump_bundle, 0.0, (-1.0 + 1e-7,))
    assert close.kazamaki_margin == pytest.approx(-9e-7)


def test_doleans_check_holds_rows_not_fields(jump_bundle, traced_peak):
    # the walk holds the stepper's four state rows, L at the last node and
    # the next one with its temporary, W, one count row per mark and a node's
    # closed form: 9 (M,) rows here at any N; the Girsanov pass afterwards,
    # L(T) and one increment row with its weights, fewer. The (N+1, M)
    # density path alone would be 51 rows, its Girsanov payloads 100 more.
    _, peak = traced_peak(br.doleans_check, jump_bundle, 0.5, (0.5,))
    assert peak <= 10 * 8 * jump_bundle.path_count


@settings(max_examples=40, deadline=None)
@given(paths=st.integers(2, 300), steps=st.integers(1, 12), marks=st.integers(0, 2),
       seed=st.integers(0, 2**64 - 1), phi_z=st.floats(-1.0, 1.0),
       phi_jumps=st.lists(st.floats(-0.9, 2.0, exclude_min=True, exclude_max=True),
                          min_size=2, max_size=2))
def test_doleans_check_invariants(paths, steps, marks, seed, phi_z, phi_jumps):
    jumps = (br.JumpMark(-0.2, 1.5), br.JumpMark(0.1, 0.7))[:marks]
    model = br.LevyModel(x0=0.0, mu=0.1, sigma=0.3, jumps=jumps)
    bundle = br.simulate_paths(br.build_grid(1.0, steps), model, paths, seed)
    phi_jumps = tuple(phi_jumps[:marks])
    report = br.doleans_check(bundle, phi_z, phi_jumps)
    # the stepped density and the closed form agree to rounding, relative
    # to the largest density value
    assert report.closed_form_gap <= 1e-12 * closed_form(bundle, phi_z, phi_jumps).max()
    assert report.means[0] == 1.0 and report.std_errors[0] == 0.0
    assert report.means.shape == report.std_errors.shape == (steps + 1,)
    assert report.shift_gap.shape == report.shift_se.shape == (steps, 1 + marks)
    if marks:
        assert report.kazamaki_margin == min(phi_jumps) - (-1.0 + 1e-6)
    else:
        assert report.kazamaki_margin == math.inf


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
    terminal = br.doleans_dade(jump_bundle, 0.5, 0.4)[-1]
    payload = np.full(jump_bundle.path_count, 3.5)
    out = br.weighted_condexp(jump_bundle, terminal, payload)
    np.testing.assert_allclose(out, 3.5, rtol=0.0, atol=1e-12)


def test_reweighted_expectation_matches_direct_weighting(jump_bundle):
    terminal = br.doleans_dade(jump_bundle, 0.5, 0.4)[-1]
    payload = jump_bundle.terminal
    out = float(br.weighted_condexp(jump_bundle, terminal, payload)[0])
    w = terminal / terminal.sum()
    assert out == pytest.approx(float(w @ payload), abs=1e-12)


def test_girsanov_shifts_within_noise(jump_bundle):
    # under the tilted measure E[dW] = phi_z dt and E[dN] = lam (1 + phi) dt;
    # the reweighted sample means must agree within 4 SE across all steps
    report = br.doleans_check(jump_bundle, 0.5, (0.6,))
    assert report.worst_z <= 4.0, f"worst z {report.worst_z}"


def test_girsanov_flags_wrong_drift(jump_bundle):
    # the check reads the increments as drawn under the bundle's model; a
    # model whose intensity is 1.8 where the counts were drawn at 1.5, or
    # Brownian increments with a drift, shift the reweighted means away
    # from their predictions
    assert jump_bundle.model.jumps == (br.JumpMark(-0.2, 1.5),)
    for tampered in ({"model": dataclasses.replace(jump_bundle.model,
                                                   jumps=(br.JumpMark(-0.2, 1.8),))},
                     {"dw": jump_bundle.dw + 0.4 * jump_bundle.grid.dt}):
        bundle = dataclasses.replace(jump_bundle, **tampered)
        assert br.doleans_check(bundle, 0.5, (0.6,)).worst_z > 4.0, list(tampered)


def test_girsanov_zero_se_counts_only_a_zero_gap():
    # a density on one path makes every reweighted mean that path's value
    # and every standard error 0, so a nonzero gap is infinitely many SE away
    n, k = 5, 1
    ones = np.ones(n + 1)
    report = br.DoleansReport(closed_form_gap=0.0, kazamaki_margin=1.0, means=ones,
                              std_errors=0 * ones, shift_gap=np.full((n, 1 + k), 0.1),
                              shift_se=np.zeros((n, 1 + k)))
    exact = dataclasses.replace(report, shift_gap=np.zeros((n, 1 + k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert report.worst_z == np.inf
        assert exact.worst_z == 0.0
    # one nonzero SE among zero ones: its ratio, the zero gaps scoring 0
    mixed = dataclasses.replace(exact, shift_gap=np.eye(n, 1 + k), shift_se=np.eye(n, 1 + k) / 4)
    assert mixed.worst_z == 4.0


def test_girsanov_shifts_are_per_step_weighted_means(two_mark_bundle):
    # every step and mark against weighted_mean_se at the reference
    # stepper's L(T), bit for bit
    b = two_mark_bundle
    n, k, dt = b.grid.step_count, b.mark_count, b.grid.dt
    phi_z, phi_jumps = 0.4, (0.3, -0.2)
    report = br.doleans_check(b, phi_z, phi_jumps)
    terminal = br.doleans_dade(b, phi_z, phi_jumps)[-1]
    lam = b.model.jump_intensities
    for i in range(n):
        assert (report.shift_gap[i, 0], report.shift_se[i, 0]) == weighted_mean_se(
            terminal, b.dw[:, i] - phi_z * dt)
        for j in range(k):
            predicted = lam[j] * (1.0 + phi_jumps[j]) * dt
            assert (report.shift_gap[i, 1 + j], report.shift_se[i, 1 + j]) == weighted_mean_se(
                terminal, b.dn[:, i, j] - predicted)
    assert report.shift_gap.shape == report.shift_se.shape == (n, 1 + k)


def test_overflowing_density_raises(jump_bundle):
    # a huge jump integrand overflows on steps that see two or more jumps
    assert int((jump_bundle.dn >= 2).sum()) > 0
    with pytest.raises(EstimatorFailure, match="overflowed"):
        br.doleans_check(jump_bundle, 0.0, (1e308,))
