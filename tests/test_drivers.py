"""Driver families: values, partials and the sampled assumption checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsderisk as br


def qexp_reference(alpha, ell, lam, z, u):
    # independent evaluation used to pin the implementation down
    out = ell.const + ell.z_coef * z + 0.5 * alpha * z * z
    for k, l in enumerate(lam):
        out += ell.jump_coefs[k] * u[k] * l
        out += (math.exp(alpha * u[k]) - 1.0 - alpha * u[k]) * l / alpha
    return out


def test_qexp_value_matches_reference():
    ell = br.LinearForm(z_coef=0.4, jump_coefs=(0.1, -0.3), const=0.2)
    d = br.make_qexp_driver(1.7, ell, (1.5, 0.5))
    z, u = 0.8, np.array([0.3, -0.6])
    assert d(z, u) == pytest.approx(qexp_reference(1.7, ell, (1.5, 0.5), z, u), rel=1e-14)


def test_entropic_is_qexp_special_case():
    gamma = 2.3
    for lam in ((), (1.5,), (1.5, 0.5)):
        ent = br.make_entropic_driver(gamma, lam)
        # the default linear part has one zero jump coefficient per mark
        assert ent == br.make_qexp_driver(gamma, None, lam)
        assert ent.family == "qexp" and ent.entropic and not ent.positively_homogeneous
        k = len(lam)
        qexp = br.make_qexp_driver(gamma, br.LinearForm(0.0, (0.0,) * k, 0.0), lam)
        rng = np.random.default_rng(0)
        z = rng.normal(size=100)
        u = rng.normal(size=(100, k))
        np.testing.assert_allclose(ent(z, u), qexp(z, u), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(ent.partial_z(z, u), qexp.partial_z(z, u), atol=1e-14)
        np.testing.assert_allclose(
            ent.partial_upsilon(z, u), qexp.partial_upsilon(z, u), atol=1e-14
        )


def test_entropic_and_homogeneous_read_off_the_coefficients():
    lam = (1.5,)
    for ell in (br.LinearForm(const=0.1, jump_coefs=(0.0,)),
                br.LinearForm(z_coef=-0.2, jump_coefs=(0.0,)),
                br.LinearForm(jump_coefs=(0.3,))):
        assert not br.make_qexp_driver(2.0, ell, lam).entropic
    assert br.make_qexp_driver(2.0, br.LinearForm(-0.0, (-0.0,), -0.0), lam).entropic
    sub = br.make_sublinear_driver((br.LinearForm(0.0, (0.0,)),), lam)
    assert sub.positively_homogeneous and not sub.entropic
    assert [f.name for f in dataclasses.fields(br.Driver)] == [
        "family", "intensities", "alpha", "linear", "forms"]


def test_sublinear_value_and_tie_break():
    forms = (br.LinearForm(1.0, (0.0,)), br.LinearForm(-1.0, (0.5,)))
    d = br.make_sublinear_driver(forms, (2.0,))
    # z=1, u=0: scores (1, -1) -> first form
    assert d(1.0, np.array([0.0])) == pytest.approx(1.0)
    # u makes the second form win: -z + 0.5*u*lam = 1 + 3
    assert d(-1.0, np.array([3.0])) == pytest.approx(4.0)
    # exact tie at z=0, u=0 resolves to the first (lowest index) form
    assert d.partial_z(0.0, np.array([0.0])) == pytest.approx(1.0)


def test_partials_match_finite_differences():
    drivers = [
        br.make_qexp_driver(1.7, br.LinearForm(0.4, (0.1, -0.3), 0.2), (1.5, 0.5)),
        br.make_entropic_driver(2.0, (1.5, 0.5)),
    ]
    rng = np.random.default_rng(1)
    for d in drivers:
        z = rng.uniform(-2, 2, 50)
        u = rng.uniform(-1, 1, (50, 2))
        h = 1e-6
        dz_fd = (d(z + h, u) - d(z - h, u)) / (2 * h)
        np.testing.assert_allclose(d.partial_z(z, u), dz_fd, rtol=1e-6, atol=1e-8)
        # the jump partial follows the per-mark density convention, so the
        # finite difference of the lambda-weighted sum is divided by lambda_k
        for k in range(2):
            e = np.zeros((1, 2))
            e[0, k] = h
            du_fd = (d(z, u + e) - d(z, u - e)) / (2 * h) / d.intensities[k]
            np.testing.assert_allclose(
                d.partial_upsilon(z, u)[:, k], du_fd, rtol=1e-5, atol=1e-7
            )


def test_sublinear_partials_are_active_form_coefficients():
    forms = (br.LinearForm(1.0, (0.2,)), br.LinearForm(-0.5, (0.8,)))
    d = br.make_sublinear_driver(forms, (1.5,))
    z = np.array([2.0, -2.0])
    u = np.zeros((2, 1))
    np.testing.assert_allclose(d.partial_z(z, u), [1.0, -0.5])
    np.testing.assert_allclose(d.partial_upsilon(z, u)[:, 0], [0.2, 0.8])


def test_factory_validation():
    with pytest.raises(ValueError):
        br.make_qexp_driver(0.0)
    with pytest.raises(ValueError):
        br.make_entropic_driver(-1.0)
    with pytest.raises(ValueError):
        br.make_sublinear_driver((), ())
    with pytest.raises(ValueError):
        # jump coefficient at -1 would zero the density factor
        br.make_sublinear_driver((br.LinearForm(0.0, (-1.0,)),), (1.0,))
    with pytest.raises(ValueError):
        # constant term breaks positive homogeneity
        br.make_sublinear_driver((br.LinearForm(0.0, (0.0,), 0.5),), (1.0,))
    with pytest.raises(ValueError):
        # coefficient count must match the mark count
        br.make_qexp_driver(1.0, br.LinearForm(0.0, (0.1,)), ())


def test_upsilon_shape_validation():
    d = br.make_entropic_driver(1.0, (1.5,))
    with pytest.raises(ValueError):
        d(0.0, np.zeros((4, 2)))


# --------------------------------------------------------------------------
# one driver pass: evaluate against the three separate passes it replaced


def reference_scores(d, z, u):
    a = np.array([f.z_coef for f in d.forms])
    scores = z[..., None] * a
    if d.mark_count:
        bw = np.array([f.jump_coefs for f in d.forms]) * np.asarray(d.intensities)
        scores = scores + u @ bw.T
    return scores


def reference_value(d, z, u):
    lam = np.asarray(d.intensities)
    if d.family == "sublinear":
        return reference_scores(d, z, u).max(axis=-1)
    a = d.alpha
    out = np.full(z.shape, d.linear.const, dtype=float)
    out += d.linear.z_coef * z
    out += 0.5 * a * z * z
    if d.mark_count:
        b = np.asarray(d.linear.jump_coefs)
        out += (u * b * lam).sum(axis=-1)
        j = np.exp(a * u) - 1.0 - a * u
        out += (j * lam).sum(axis=-1) / a
    return out


def reference_partial_z(d, z, u):
    if d.family != "sublinear":
        return d.linear.z_coef + d.alpha * z
    idx = reference_scores(d, z, u).argmax(axis=-1)
    return np.array([f.z_coef for f in d.forms])[idx]


def reference_partial_upsilon(d, z, u):
    if d.mark_count == 0:
        return np.zeros(z.shape + (0,))
    if d.family != "sublinear":
        b = np.asarray(d.linear.jump_coefs)
        return b + (np.exp(d.alpha * u) - 1.0)
    idx = reference_scores(d, z, u).argmax(axis=-1)
    return np.array([f.jump_coefs for f in d.forms])[idx]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# simple values make exact zeros and exact score ties likely
control = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0]), st.floats(-4.0, 4.0))
coefficient = st.one_of(st.just(0.0), st.floats(-0.9, 2.0))


@st.composite
def drivers_and_controls(draw):
    k = draw(st.integers(0, 2))
    lam = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["qexp", "entropic", "sublinear"]))
    if kind == "qexp":
        form = br.LinearForm(draw(coefficient), tuple(draw(coefficient) for _ in lam),
                             draw(coefficient))
        driver = br.make_qexp_driver(draw(st.floats(0.1, 3.0)), form, lam)
    elif kind == "sublinear":
        forms = [br.LinearForm(draw(coefficient), tuple(draw(coefficient) for _ in lam))
                 for _ in range(draw(st.integers(1, 3)))]
        driver = br.make_sublinear_driver(forms, lam)
    else:
        driver = br.make_entropic_driver(draw(st.floats(0.1, 3.0)), lam)
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    z = np.array(draw(st.lists(control, min_size=rows * cols, max_size=rows * cols)))
    u = np.array(draw(st.lists(control, min_size=rows * cols * k, max_size=rows * cols * k)))
    return driver, z.reshape(rows, cols), u.reshape(rows, cols, k)


@settings(max_examples=300, deadline=None)
@given(case=drivers_and_controls(), columns=st.integers(0, 4))
def test_evaluate_matches_separate_passes(case, columns):
    d, z, u = case
    columns = min(columns, z.shape[1])
    g, phi_z, phi_u = d.evaluate(z, u, columns)
    ref_g = reference_value(d, z, u)
    ref_z = reference_partial_z(d, z, u)[:, :columns]
    ref_u = reference_partial_upsilon(d, z, u)[:, :columns]
    if d.family == "sublinear" and d.mark_count == 2:
        # the old scores summed the marks in a matmul, whose rounding may
        # differ; compare the value relative to the size of its terms and the
        # active form only where no other form comes within that tolerance
        lam = np.asarray(d.intensities)
        bw = np.abs(np.array([f.jump_coefs for f in d.forms]) * lam).max(axis=0)
        scale = np.abs(z) * max(abs(f.z_coef) for f in d.forms) + np.abs(u) @ bw
        tol = 1e-13 * scale + 1e-300
        assert np.all(np.abs(g - ref_g) <= tol)
        top2 = np.sort(reference_scores(d, z, u), axis=-1)[..., -2:]
        clear = (top2[..., 1] - top2[..., 0] > 2 * tol) if len(d.forms) > 1 else tol > 0
        clear = np.broadcast_to(clear, z.shape)[:, :columns]
        if columns:
            assert np.array_equal(phi_z[clear], ref_z[clear])
            assert np.array_equal(phi_u[clear], ref_u[clear])
        return
    assert same_bits(g, ref_g)
    if columns == 0:
        assert phi_z is None and phi_u is None
        return
    assert same_bits(phi_z, ref_z)
    assert same_bits(phi_u, ref_u)
    # the public views are the same pass on all columns
    assert same_bits(d(z, u), ref_g)
    assert same_bits(d.partial_z(z, u), reference_partial_z(d, z, u))
    assert same_bits(d.partial_upsilon(z, u), reference_partial_upsilon(d, z, u))


def test_sublinear_nan_score_counts_as_maximal():
    # an infinite control times a zero coefficient scores NaN; as argmax, the
    # first NaN form is the active one and the value is NaN
    forms = (br.LinearForm(1.0, (0.2,)), br.LinearForm(0.0, (0.5,)), br.LinearForm(0.0, (0.1,)))
    d = br.make_sublinear_driver(forms, (1.5,))
    z = np.array([[np.inf, 1.0], [np.nan, -np.inf]])
    u = np.zeros((2, 2, 1))
    with np.errstate(invalid="ignore"):
        g, phi_z, phi_u = d.evaluate(z, u, 2)
        assert same_bits(g, reference_value(d, z, u))
        assert same_bits(phi_z, reference_partial_z(d, z, u))
        assert same_bits(phi_u, reference_partial_upsilon(d, z, u))
