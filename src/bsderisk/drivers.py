"""Driver (generator) families for the backward equations.

All families are deterministic, y-free maps of the controls (z, upsilon),
with upsilon in R^K holding the jump control at each mark, in two families:

  quadratic-exponential   g(z, u) = ell(z, u) + (alpha/2) z^2
                                     + (1/alpha) sum_k (e^{alpha u_k} - 1 - alpha u_k) lambda_k
  sublinear               g(z, u) = max_j ( a_j z + sum_k b_{j,k} u_k lambda_k )

The entropic driver is the qexp one at alpha = gamma with ell = 0: ``entropic``
reads off the coefficients, ``positively_homogeneous`` off the family.

Jump partial derivatives use the per-mark density convention: partial_upsilon
returns the derivative of the integrand at mark k, not of the lambda_k-weighted
sum, which is what the measure-change integrands downstream require
(e.g. e^{alpha u_k} - 1 for the qexp family).

``Driver.evaluate`` is the one pass: it writes g, dg/dz and the per-mark
dg/du_k at the same controls into the caller's buffers (or fresh ones), the
partials only on the leading columns asked for. The qexp family computes
e^{alpha u} once for the value and the jump partial and skips the zero
terms of its linear part; the sublinear family scores each form once and
reads the value and both partials off the first maximal score. ``__call__``,
``partial_z`` and ``partial_upsilon`` are views of that pass that also check
their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearForm",
    "Driver",
    "make_qexp_driver",
    "make_entropic_driver",
    "make_sublinear_driver",
]


@dataclass(frozen=True)
class LinearForm:
    """ell(z, u) = const + z_coef * z + sum_k jump_coefs[k] * u_k * lambda_k."""

    z_coef: float = 0.0
    jump_coefs: tuple[float, ...] = ()
    const: float = 0.0


def _as_upsilon(upsilon, mark_count: int) -> np.ndarray:
    u = np.asarray(upsilon, dtype=float)
    if mark_count == 0:
        if u.size == 0:
            return u.reshape(u.shape if u.shape else (0,))
        raise ValueError("driver has no jump marks but upsilon is nonempty")
    if u.shape[-1] != mark_count:
        raise ValueError(
            f"upsilon last axis must have size {mark_count}, got shape {u.shape}"
        )
    return u


@dataclass(frozen=True)
class Driver:
    """A driver bound to the jump intensities of its market.

    Evaluation and partials are vectorized: z has any shape S, upsilon has
    shape S + (K,), and results have shape S (partial_upsilon: S + (K,)).
    """

    family: str
    intensities: tuple[float, ...]
    alpha: float | None = None
    linear: LinearForm = LinearForm()
    forms: tuple[LinearForm, ...] = ()

    @property
    def mark_count(self) -> int:
        return len(self.intensities)

    @property
    def entropic(self) -> bool:
        """A qexp driver with no linear part: the entropic driver at gamma =
        alpha, whose risk has the closed form (1/gamma) ln E[e^{-gamma xi} | F_t]."""
        ell = self.linear
        return self.family == "qexp" and not any((ell.const, ell.z_coef, *ell.jump_coefs))

    @property
    def positively_homogeneous(self) -> bool:
        """g(c z, c u) = c g(z, u) for c > 0: the sublinear family."""
        return self.family == "sublinear"

    def __post_init__(self):
        # what evaluate skips and the coefficient arrays it reads, fixed once
        if self.family == "sublinear":
            z_coefs = np.array([f.z_coef for f in self.forms], dtype=float)
            jump_coefs = np.array([f.jump_coefs for f in self.forms], dtype=float)
            plan = (z_coefs, jump_coefs, jump_coefs * np.asarray(self.intensities))
        elif self.family == "qexp":
            b = np.asarray(self.linear.jump_coefs, dtype=float)
            plan = (tuple(k for k, c in enumerate(b) if c != 0.0), b)
        else:
            raise ValueError(f"unknown driver family {self.family!r}")
        object.__setattr__(self, "_plan", plan)

    # drivers in these families do not depend on (t, y); the backward solver
    # therefore calls them with the controls only
    def evaluate(self, z: np.ndarray, u: np.ndarray, columns: int | None = None,
                 out=None, work=None):
        """g(z, u), dg/dz and the per-mark dg/du_k at the same controls.

        z is a float array of shape S and u one of shape S + (K,); neither is
        checked. The partials are taken on z[..., :columns] and
        u[..., :columns, :], on all of them when ``columns`` is None, and are
        None when it is 0. ``out`` is three arrays of the result shapes that
        g and the two partials are written into (the last two unused when
        ``columns`` is 0), and ``work`` 1 + K scratch arrays of shape S (the
        qexp family computes in them, the sublinear family keeps a form's
        score in each); fresh ones when they are None. The backward sweep
        calls this once per step and path range, with its workspace as
        ``out`` and ``work``.
        """
        if out is None and columns == 0:
            out = (np.empty_like(z), None, None)
        elif out is None and columns is None:
            out = (np.empty_like(z), np.empty_like(z), np.empty_like(u))
        elif out is None:
            out = (np.empty_like(z), np.empty_like(z[..., :columns]),
                   np.empty_like(u[..., :columns, :]))
        if self.family == "sublinear":
            return self._sublinear(z, u, columns, out, () if work is None else work)
        if work is None:
            work = [np.empty_like(z) for _ in range(1 + self.mark_count)]
        return self._qexp(z, u, columns, out, work)

    def _qexp(self, z, u, columns, out, work):
        value, phi_z, phi_u = out
        a, lin, lam = self.alpha, self.linear, self.intensities
        linear_marks, b = self._plan
        # ell(z, u) + (alpha/2) z^2, each zero linear term skipped: adding an
        # exact zero to the quadratic term (never -0.0) changes no bit
        np.multiply(z, 0.5 * a, out=value)
        value *= z
        if lin.z_coef:
            head = np.multiply(z, lin.z_coef, out=work[0])
            if lin.const:
                head += lin.const
            value += head
        elif lin.const:
            value += lin.const
        # each sum over marks accumulates in mark order, as ndarray.sum over a
        # short mark axis does, so the bits are the same
        if linear_marks:
            total, term = work[0], work[-1]
            for n, k in enumerate(linear_marks):
                dest = term if n else total
                np.multiply(u[..., k], b[k], out=dest)
                dest *= lam[k]
                if n:
                    total += term
            value += total
        if self.mark_count:
            # one mark at a time in two scratch rows; a third row holds the
            # sum over marks when there are two or more
            au, core = work[0], work[1]
            total = work[2] if self.mark_count > 1 else au
            for k in range(self.mark_count):
                np.multiply(u[..., k], a, out=au)
                np.exp(au, out=core)
                core -= 1.0  # e^{alpha u} - 1, also the density core of dg/du
                if columns != 0:
                    head = core if columns is None else core[..., :columns]
                    if linear_marks:
                        np.add(head, b[k], out=phi_u[..., k])
                    else:
                        phi_u[..., k] = head
                jump = np.subtract(core, au, out=au)
                if k == 0:
                    np.multiply(jump, lam[0], out=total)
                else:
                    jump *= lam[k]
                    total += jump
            total /= a
            value += total
        if columns == 0:
            return value, None, None
        np.multiply(z if columns is None else z[..., :columns], a, out=phi_z)
        phi_z += lin.z_coef
        return value, phi_z, phi_u

    def _sublinear(self, z, u, columns, out, work):
        value, phi_z, phi_u = out
        z_coefs, jump_coefs, weights = self._plan
        # the score of form j, a_j z + sum_k b_{j,k} lambda_k u_k, in a
        # scratch row while there is one
        scores = []
        for j in range(len(self.forms)):
            s = np.multiply(z, z_coefs[j], out=work[j] if j < len(work) else None)
            if self.mark_count:
                s += _mark_sum(u[..., k] * weights[j, k] for k in range(self.mark_count))
            scores.append(s)
        np.copyto(value, scores[0])
        for s in scores[1:]:
            np.maximum(value, s, out=value)
        if self.mark_count:
            # as a matmul's mark sum, which starts from +0.0, the maximum is
            # never -0.0
            value += 0.0
        if columns == 0:
            return value, None, None
        # the partials of the active form, the first maximal score (a NaN
        # counting as maximal): each form's coefficients are written where
        # it is maximal, from the last form to the first
        top = value
        if columns is not None:  # the leading columns only
            top, scores = value[..., :columns], [s[..., :columns] for s in scores]
        phi_z[...] = z_coefs[0]
        phi_u[...] = jump_coefs[0]
        for j in range(len(scores) - 1, -1, -1):
            active = (scores[j] == top) | np.isnan(scores[j])
            np.copyto(phi_z, z_coefs[j], where=active)
            np.copyto(phi_u, jump_coefs[j], where=active[..., None])
        return value, phi_z, phi_u

    def __call__(self, z, upsilon) -> np.ndarray:
        return self.evaluate(*self._controls(z, upsilon), 0)[0]

    def partial_z(self, z, upsilon) -> np.ndarray:
        return self.evaluate(*self._controls(z, upsilon))[1]

    def partial_upsilon(self, z, upsilon) -> np.ndarray:
        """Per-mark density derivative, shape S + (K,)."""
        return self.evaluate(*self._controls(z, upsilon))[2]

    def _controls(self, z, upsilon):
        return np.asarray(z, dtype=float), _as_upsilon(upsilon, self.mark_count)


def _mark_sum(terms):
    """Sum of fresh per-mark arrays, accumulated into the first in mark order
    as ndarray.sum over a short mark axis does, so the bits are the same."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _check_intensities(intensities) -> tuple[float, ...]:
    lam = tuple(float(v) for v in intensities)
    if any(not (v > 0.0 and math.isfinite(v)) for v in lam):
        raise ValueError(f"intensities must be positive and finite, got {lam}")
    return lam


def _check_form(form: LinearForm, mark_count: int, name: str) -> LinearForm:
    coefs = tuple(float(c) for c in form.jump_coefs)
    if len(coefs) != mark_count:
        raise ValueError(
            f"{name} has {len(coefs)} jump coefficients for {mark_count} marks"
        )
    return LinearForm(float(form.z_coef), coefs, float(form.const))


def make_qexp_driver(
    alpha: float, linear: LinearForm | None = None, intensities=()
) -> Driver:
    """Quadratic-exponential driver with curvature alpha and linear part ell."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    lam = _check_intensities(intensities)
    ell = _check_form(linear or LinearForm(jump_coefs=(0.0,) * len(lam)), len(lam), "linear part")
    return Driver(family="qexp", intensities=lam, alpha=float(alpha), linear=ell)


def make_entropic_driver(gamma: float, intensities=()) -> Driver:
    """Entropic driver: the qexp driver at alpha = gamma with no linear part."""
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return make_qexp_driver(gamma, None, intensities)


def make_sublinear_driver(forms, intensities=()) -> Driver:
    """Pointwise max of finitely many linear forms; positively homogeneous.

    Every jump coefficient must exceed -1 so the induced per-jump density
    factors 1 + b_{j,k} stay positive (Kazamaki admissibility).
    """
    lam = _check_intensities(intensities)
    checked = []
    for j, f in enumerate(forms):
        f = _check_form(f, len(lam), f"form {j}")
        if f.const != 0.0:
            raise ValueError(f"form {j} has a constant term; sublinear forms must be homogeneous")
        if any(b <= -1.0 for b in f.jump_coefs):
            raise ValueError(
                f"form {j} jump coefficients must be > -1, got {f.jump_coefs}"
            )
        checked.append(f)
    if not checked:
        raise ValueError("sublinear driver needs at least one form")
    return Driver(family="sublinear", intensities=lam, forms=tuple(checked))

