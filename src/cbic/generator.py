"""Generator evaluation, Lyapunov certification and coupling-generator bounds.

The process generator acts on twice-differentiable f as

    Lf(x) = c x f''(x) + x int [f(x+z)-f(x) - z f'(x) 1{z<=1}] mu(dz)
          + [beta - b x - g(x)] f'(x) + int [f(x+z)-f(x)] nu(dz).

A weight V is a Lyapunov function when LV <= C0 - C1 V everywhere; the
built-in weights are V1(x) = x and Vlog(x) = log(1+x).

For the coupled pair the control surface is F0(x, y) = phi(x)(1 + psi(x-y))
off the diagonal, with psi(u) = 1 - e^{-lam0 u} and phi a cubic blend that
drops from theta+1 to theta across (0, x0).  The drift of F0 under the
coupling generator is evaluated through the proof's closed upper bound, which
is what the rate certificate needs.

:class:`LyapunovDrift`, :func:`lyapunov_margin` and the bound are closed forms;
quadrature runs only in :func:`apply_generator`, the cross-check that
``check-generator`` runs.  Nothing here writes files; ``cbic.cli`` writes the CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .measures import overlap_mass, overlap_masses, overlap_moment
from .mechanisms import ModelSpec, elementwise, log_jump_integral

__all__ = [
    "WeightFunction",
    "SmoothFunction",
    "GeneratorDomainError",
    "apply_generator",
    "LyapunovDrift",
    "LyapunovCertificate",
    "LyapunovFailure",
    "lyapunov_certify",
    "lyapunov_margin",
    "CouplingControl",
    "coupling_generator_F0",
]


class GeneratorDomainError(ValueError):
    """The requested f lies outside the generator's domain for this model."""


@dataclass(frozen=True)
class SmoothFunction:
    """Plain C^2 test function for apply_generator (no Lyapunov invariants)."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    second: Callable[[float], float]

    def jump(self, x: float, z: float) -> float:
        return self.value(x + z) - self.value(x)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight with V(x) -> inf and V' >= 0: linear or logarithmic."""

    kind: str  # "v1" | "vlog"
    value: Callable
    deriv: Callable
    second: Callable
    jump: Callable  # (x, z) -> V(x+z) - V(x)

    @classmethod
    def v1(cls) -> "WeightFunction":
        return cls(
            kind="v1",
            value=lambda x: np.asarray(x, dtype=float) + 0.0,
            deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            second=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            jump=lambda x, z: z + 0.0 * np.asarray(x, dtype=float),
        )

    @classmethod
    def vlog(cls) -> "WeightFunction":
        return cls(
            kind="vlog",
            value=lambda x: np.log1p(np.asarray(x, dtype=float)),
            deriv=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
            second=lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
            jump=lambda x, z: np.log1p(np.asarray(z, dtype=float) / (1.0 + x)),
        )

    def inverse(self, t: float) -> float:
        """Smallest x with V(x) >= t."""
        if self.kind == "v1":
            return float(t)
        return math.inf if t > 700.0 else float(np.expm1(t))


def _check_tail_flags(model: ModelSpec, f) -> None:
    if not isinstance(f, WeightFunction):
        return
    if f.kind == "v1":
        if not (model.mu.has_finite_linear_tail and model.nu.has_finite_linear_tail):
            raise GeneratorDomainError(
                "linear-growth weight needs finite first-moment tails: "
                "int_1^inf z mu(dz) and int_1^inf z nu(dz) must both converge"
            )
    elif not (model.mu.has_finite_log_tail and model.nu.has_finite_log_tail):
        raise GeneratorDomainError(
            "logarithmic weight needs finite log-moment tails: "
            "int_1^inf log(1+z) mu(dz) and int_1^inf log(1+z) nu(dz) must both converge"
        )


def apply_generator(model: ModelSpec, f, x: float) -> float:
    """Evaluate Lf(x) by quadrature against the model's jump measures."""
    if x < 0:
        raise GeneratorDomainError(f"state must be >= 0, got {x}")
    _check_tail_flags(model, f)
    x = float(x)
    jump = lambda z: float(f.jump(x, z))
    fp = float(f.deriv(x))
    fpp = float(f.second(x))
    mu_int = model.mu.integrate(lambda z: jump(z) - z * fp * (z <= 1.0))
    nu_int = model.nu.integrate(jump)
    drift = model.beta - model.b * x - float(model.g(x))
    return model.c * x * fpp + x * mu_int + drift * fp + nu_int


class LyapunovDrift:
    """LV(x) through the per-weight closed decompositions.

    V1 reduces to constants; Vlog to the log integrals of mu (compensated) and
    nu (:func:`~cbic.mechanisms.log_jump_integral`), closed per part kind, so
    apply_generator's quadrature is an independent cross-check.  Every call
    evaluates afresh: a caller that needs the values twice keeps them, as
    lyapunov_certify does for its grid.  A call at one x and :meth:`many` run
    the same elementwise code, so LV(x) has the same bits either way.
    """

    def __init__(self, model: ModelSpec, weight: WeightFunction):
        _check_tail_flags(model, weight)
        self.model = model
        self.weight = weight
        if weight.kind == "v1":
            self._mu_tail = model.mu.linear_tail()
            self._nu_mean = model.nu.moment(1.0, 0.0, math.inf)

    def __call__(self, x: float) -> float:
        return float(self._values(np.array([float(x)]))[0])

    def many(self, xs) -> np.ndarray:
        return self._values(np.asarray(xs, dtype=float))

    def _values(self, x: np.ndarray) -> np.ndarray:
        """LV elementwise over the 1-d array ``x``; a non-finite value raises at
        the first x that gives one."""
        m = self.model
        with np.errstate(all="ignore"):  # as float arithmetic: inf and nan, no warning
            if self.weight.kind == "v1":
                val = (m.beta - m.b * x - m.g(x)) + x * self._mu_tail + self._nu_mean
            else:
                w = 1.0 + x
                val = (
                    -m.c * x / elementwise(pow, w, 2.0)
                    + x * log_jump_integral(m.mu, w, 1)
                    + (m.beta - m.b * x - m.g(x)) / w
                    + log_jump_integral(m.nu, w, 0)
                )
        bad = ~np.isfinite(val)
        if bad.any():
            i = int(np.argmax(bad))
            raise GeneratorDomainError(
                f"{self.weight.kind} drift LV({float(x[i]):g}) = {float(val[i])} "
                "is not a finite number"
            )
        return val


@dataclass(frozen=True)
class LyapunovCertificate:
    """Constants with LV(x) <= C0 - C1 V(x) on the check grid and beyond."""

    c0: float
    c1: float
    weight: WeightFunction
    margin: float
    grid_x: np.ndarray
    grid_margin: np.ndarray  # LV + C1 V - C0 (<= 0 everywhere)
    pairs: List[Tuple[float, float]]  # every feasible (C1, C0), largest C1 first


@dataclass(frozen=True)
class LyapunovFailure:
    """Why no (C0, C1) pair exists, with the measured asymptotic margin."""

    margin: float
    lv_grid_min: float
    reason: str

    def __str__(self):
        return (
            f"Lyapunov certification failed: {self.reason} "
            f"(asymptotic margin {self.margin:.6g}, grid min LV {self.lv_grid_min:.6g})"
        )


def lyapunov_margin(model: ModelSpec, weight: WeightFunction) -> float:
    """Asymptotic decay margin; a certificate exists iff this is positive.

    Linear weight: liminf g(x)/x + b - int_1^inf z mu(dz).
    Log weight: liminf of g(x)/(x log x) - (x/log x) int_1^inf log(1+z/(1+x)) mu(dz),
    sampled along a large-x ladder; the integral is the closed ``mu.log_tail(1 + x)``.
    """
    if weight.kind == "v1":
        return model.g.linear_liminf() + model.b - model.mu.linear_tail()
    samples = []
    for x in (1e3, 1e4, 1e5, 1e6):
        mu_term = model.mu.log_tail(1.0 + x)
        samples.append(float(model.g(x)) / (x * math.log(x)) - (x / math.log(x)) * mu_term)
    return min(samples)


_C1_CAP = 64.0
_SWEEP_DEPTH = 15


def _lyapunov_grid() -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 201)])


def _feasible_c0(weight: WeightFunction, c1: float, grid, lv_vals):
    """Minimal C0 for this C1, or None when the sup is not closed by the tail."""
    h = lv_vals + c1 * np.asarray(weight.value(grid), dtype=float)
    tail = h[grid >= 1e3]
    if len(tail) >= 3 and not (np.diff(tail) <= 1e-9 * np.maximum(1.0, np.abs(tail[:-1]))).all():
        return None
    sup = float(h.max())
    return max(sup * (1.0 + 1e-9) + 1e-300, 1e-12)


def lyapunov_certify(model: ModelSpec, weight: WeightFunction):
    """Largest-C1 Lyapunov certificate, or a :class:`LyapunovFailure` report.

    LV is evaluated once on the check grid, and C1 is swept geometrically below
    the asymptotic margin; the certificate lists every feasible (C1 > 0, C0) pair.
    """
    drift = LyapunovDrift(model, weight)
    margin = lyapunov_margin(model, weight)
    grid = _lyapunov_grid()
    lv_vals = drift.many(grid)
    if margin <= 0:
        reason = "asymptotic drift margin is not positive"
        if float(lv_vals.min()) > 0:
            reason += "; LV is bounded below by a positive constant on the grid"
        return LyapunovFailure(margin, float(lv_vals.min()), reason)
    c1max = min(margin, _C1_CAP) if np.isfinite(margin) else _C1_CAP
    pairs = []
    for k in range(_SWEEP_DEPTH):
        c1 = c1max * 2.0**-k
        if c1 == 0.0:  # underflowed, and so does every later C1
            break
        c0 = _feasible_c0(weight, c1, grid, lv_vals)
        if c0 is not None:
            pairs.append((c1, c0))
    if not pairs:
        return LyapunovFailure(margin, float(lv_vals.min()), "no feasible C1 in the sweep")
    c1, c0 = pairs[0]
    h = lv_vals + c1 * np.asarray(weight.value(grid), dtype=float)
    return LyapunovCertificate(c0, c1, weight, margin, grid, h - c0, pairs)


# -- coupling control surface -------------------------------------------------


@dataclass(frozen=True)
class CouplingControl:
    """Constants and evaluators of the off-diagonal control function F0.

    psi(u) = 1 - e^{-lam0 u}; phi drops cubically from theta+1 at 0 to theta
    at x0; F0(x, y) = phi(x) (1 + psi(x-y)) for x != y and 0 on the diagonal,
    so theta <= F0 <= 2 (1 + theta) off the diagonal.
    """

    lambda0: float
    x0: float
    theta: float
    epsilon: float
    l: float
    psi_at_lambda0: float  # Psi(lambda0) for the model this control was built for

    def __post_init__(self):
        if self.lambda0 <= 0 or not 0.0 < self.x0 < 1.0:
            raise ValueError("coupling control needs lambda0 > 0 and x0 in (0, 1)")
        if self.theta < 4.0 or self.epsilon <= 0 or self.l < 1.0:
            raise ValueError("coupling control needs theta >= 4, epsilon > 0, l >= 1")
        if self.psi_at_lambda0 <= 0:
            raise ValueError("coupling control needs Psi(lambda0) > 0")

    @property
    def lambda1(self) -> float:
        return math.exp(-self.lambda0 * self.l) * self.psi_at_lambda0 / self.lambda0

    def psi(self, u):
        """1 - e^(-lambda0 u), elementwise over an array ``u``."""
        return -elementwise(math.expm1, -self.lambda0 * u)

    def phi(self, x):
        """theta + (1 - x/x0)^3 below x0 and theta from x0 on: a float at a float, and
        element by element over an array ``x`` (:func:`~cbic.mechanisms.elementwise`),
        so that each element has the bits of Python's power at its float."""
        if np.ndim(x):
            return elementwise(self.phi, x)
        return self.theta if x >= self.x0 else self.theta + (1.0 - x / self.x0) ** 3

    def phi_prime(self, x):
        """-(3/x0)(1 - x/x0)^2 below x0 and 0 from x0 on; over arrays as :meth:`phi`."""
        if np.ndim(x):
            return elementwise(self.phi_prime, x)
        return 0.0 if x >= self.x0 else -3.0 / self.x0 * (1.0 - x / self.x0) ** 2

    def F0(self, x: float, y: float) -> float:
        if x == y:
            return 0.0
        return self.phi(x) * (1.0 + self.psi(x - y))

    def V0(self, weight: WeightFunction, x: float, y: float) -> float:
        if x == y:
            return 0.0
        return float(weight.value(x)) + float(weight.value(y))

    def G0(self, weight: WeightFunction, x: float, y: float) -> float:
        return self.epsilon * self.F0(x, y) + self.V0(weight, x, y)


def _sweep_nu_term(model: ModelSpec, ctrl: CouplingControl, x: float, gap):
    """int [phi(x+z) - phi(x)] (nu - nu_{-gap})(dz) for x < x0 (else 0), elementwise
    over an array ``gap``.

    With w = 1 - x/x0 and h = z/x0, phi(x+z) - phi(x) is -(3 w^2 h - 3 w h^2 + h^3)
    below the cut x0 - x and -w^3 above it, so the term takes the moments 1 to 3
    on (0, cut) and the mass above the cut of nu less its overlap at -gap.  The
    overlaps are evaluated over all of ``gap`` at once, each element with the bits
    of its float gap alone (:func:`~cbic.measures.overlap_moment`,
    :func:`~cbic.measures.overlap_masses`).
    """
    if x >= ctrl.x0 or model.nu.is_zero:
        return 0.0
    x0, nu, w, cut, shift = ctrl.x0, model.nu, 1.0 - x / ctrl.x0, ctrl.x0 - x, -np.asarray(gap)
    d1, d2, d3 = (nu.moment(k, 0.0, cut) - overlap_moment(nu, shift, k, cut) for k in (1, 2, 3))
    above = nu.mass_above(cut) - overlap_masses(nu, shift, cut, math.inf)
    return -(3.0 * w * w * d1 / x0 - 3.0 * w * d2 / x0**2 + d3 / x0**3) - w**3 * above


def coupling_generator_F0(model: ModelSpec, ctrl: CouplingControl, x: float, y: float) -> float:
    """Closed upper bound of the drift of F0 under the coupling generator at
    (x, y), x > y >= 0, as the certificate chain uses it."""
    if not x > y >= 0:
        raise ValueError(f"coupling generator needs x > y >= 0, got ({x}, {y})")
    mum, num = overlap_mass(model.mu, x - y), overlap_mass(model.nu, x - y)
    return _coupling_F0_bound(model, ctrl, x, y, mum, num, ctrl.psi(x - y))


def _coupling_F0_bound(model: ModelSpec, ctrl: CouplingControl, x, y, mum, num, psig):
    """The closed upper bound of :func:`coupling_generator_F0` at (x, y), given the
    overlap masses of mu and nu at the gap, so that a grid check computes them
    once per gap, and psi(x - y), which the grid check shares with G0.

    Elementwise over arrays ``x``, ``y``, ``mum``, ``num`` and ``psig`` of one shape,
    as the grid check evaluates every grid point in one call; floats give a float.
    The terms of x <= x0 run under a mask, g(x) and phi'(x) once per distinct x
    there, and the immigration sweep term (:func:`_sweep_nu_term`) once per
    distinct x there when nu != 0.  Each element has the bits of its float
    evaluation: the arithmetic is IEEE in numpy, the libm calls run element by
    element (:func:`~cbic.mechanisms.elementwise`).
    """
    x, y, mum, num, psig = (np.asarray(v, dtype=float) for v in (x, y, mum, num, psig))
    gap = x - y
    with np.errstate(all="ignore"):  # as float arithmetic: inf and nan, no warning
        ub = (-model.c * ctrl.lambda0**2 * ctrl.theta * y
              * elementwise(math.exp, -ctrl.lambda0 * gap))
        ub = ub - ctrl.theta * (y * mum + num)
        ub = np.where(gap <= ctrl.l, ub - ctrl.lambda1 * ctrl.theta * psig, ub)
        near = x <= ctrl.x0
        if near.any():
            xn, gn = x[near], gap[near]
            ux, which = np.unique(xn, return_inverse=True)  # distinct x; each point's index
            i_term = ((model.beta - model.b * ux - model.g(ux)) * ctrl.phi_prime(ux))[which]
            j_term = 3.0 * xn / ctrl.x0**2 * (2.0 * model.c + model.mu.moment(2.0, 0.0, 1.0))
            sweep = np.zeros(xn.shape)  # 0 where nu = 0, added as the sum adds it
            if not model.nu.is_zero:
                for k, xk in enumerate(ux.tolist()):
                    at = which == k
                    sweep[at] = _sweep_nu_term(model, ctrl, xk, gn[at])
            p = 1.0 + psig[near]
            ub[near] = ub[near] + (y[near] * mum[near] + i_term + j_term) * p + p * sweep
    return ub if ub.ndim else float(ub)
