"""Branching, immigration and competition mechanisms.

A branching mechanism is the Levy--Khintchine function

    Psi(lam) = b*lam + c*lam^2 + int_0^inf (e^{-lam z} - 1 + lam z 1{z<=1}) mu(dz)

with (1 ^ z^2) mu(dz) finite; an immigration mechanism is

    Phi(lam) = beta*lam + int_0^inf (1 - e^{-lam z}) nu(dz)

with (1 ^ z) nu(dz) finite; a competition mechanism is a nondecreasing
continuous g with g(0) = 0.  The stable family

    Psi(lam) = a*lam + c*lam^2 + sigma*lam^alpha        (1 < alpha < 2)
             = a*lam + c*lam^2 + sigma*lam*log(lam)     (alpha = 1)
             = a*lam + c*lam^2 - sigma*lam^alpha        (0 < alpha < 1)

is carried parametrically and mapped to generic (b, c, mu) data by
:func:`stable_to_generic`.

:func:`summed` is the one place that knows ``sum`` measures: a functional
it decorates is written for one part, and a sum's value is its parts' values
added in part order.  The pointwise ``density`` and ``_dens1``, run once per
quadrature node, add up their parts inline.

Stable parts have closed forms for every mass, moment and log tail, and
uniform parts for every mass and moment; only the rest reaches
:mod:`cbic.quadrature`.  It and ``scipy.special`` are imported at first use,
so a run whose measures never need them does not pay for loading scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

EULER_GAMMA = float(np.euler_gamma)


class MechanismError(ValueError):
    """Invalid mechanism data (integrability, sign or range violations)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on a subinterval.

    Defined here rather than in :mod:`cbic.quadrature`, which re-exports it, so
    that catching it does not load scipy.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class InconclusiveError(RuntimeError):
    """A tail/boundary classification could not be decided numerically."""


def _gamma(x):
    from scipy.special import gamma  # loaded at first use (module docstring)

    return gamma(x)


def stable_density_prefactor(alpha: float) -> float:
    """Normalizing constant C with stable reference density C * z^{-1-alpha}."""
    if 1.0 < alpha < 2.0:
        return (alpha - 1.0) / _gamma(2.0 - alpha)
    if alpha == 1.0:
        return 1.0
    return 1.0 / _gamma(1.0 - alpha)


def stable_drift_shift(alpha: float) -> float:
    """Linear term h(alpha) absorbed when compensating stable jumps at z = 1.

    Chosen so that b = a - sigma*h(alpha) together with mu = alpha*sigma times
    the stable reference measure reproduces the closed stable forms of Psi.
    """
    if 1.0 < alpha < 2.0:
        return -alpha / _gamma(2.0 - alpha)
    if alpha == 1.0:
        return EULER_GAMMA - 1.0
    return alpha / ((1.0 - alpha) * _gamma(1.0 - alpha))


def summed(combine):
    """Make ``fn(measure, ...)``, written for one part, return ``combine`` of the
    parts' values, in part order, on a ``sum`` measure: ``sum`` (from int 0) for
    numbers, :data:`concat` for tuples.  A part is never a sum (``sum_of`` flattens).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def dispatch(measure, *args, **kwargs):
            if measure.kind == "sum":
                return combine(fn(p, *args, **kwargs) for p in measure.parts)
            return fn(measure, *args, **kwargs)

        return dispatch

    return decorate


concat = functools.partial(sum, start=())  # tuples joined in order


def _each(results) -> None:
    """Run a check on every part in order; the first failing part raises."""
    for _ in results:
        pass


def _density_support(support) -> Tuple[float, float]:
    lo, hi = float(support[0]), float(support[1])
    if lo < 0.0 or hi <= lo:
        raise MechanismError(f"density support must satisfy 0 <= lo < hi, got {support}")
    return lo, hi


@dataclass(frozen=True)
class LevyMeasure:
    """Parametric sigma-finite measure on (0, inf).

    Kinds: ``zero``; ``stable`` (alpha*sigma times the reference stable
    measure, density alpha*sigma*C_alpha*z^{-1-alpha}); ``density`` (callable
    on a support interval, or the constant ``rate`` there when ``fn`` is
    None); ``atoms``; ``sum``.  Measures are immutable and safe to share
    between workers.
    """

    kind: str = "zero"
    alpha: float = 0.0
    sigma: float = 0.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    rate: float = 0.0  # constant density of a ``density`` measure with no fn
    support: Tuple[float, float] = (0.0, math.inf)
    disc: Tuple[float, ...] = ()
    atom_data: Tuple[Tuple[float, float], ...] = ()
    parts: Tuple["LevyMeasure", ...] = ()

    def __post_init__(self):
        if self.kind == "stable":  # the density's alpha-only factor, once per measure
            object.__setattr__(
                self, "_dens_scale", self.alpha * self.sigma * stable_density_prefactor(self.alpha)
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LevyMeasure":
        return cls(kind="zero")

    @classmethod
    def stable(cls, alpha: float, sigma: float) -> "LevyMeasure":
        if not 0.0 < alpha < 2.0:
            raise MechanismError(f"stable index must lie in (0, 2), got {alpha}")
        if sigma < 0.0:
            raise MechanismError(f"stable scale must be >= 0, got {sigma}")
        if sigma == 0.0:
            return cls.zero()
        return cls(kind="stable", alpha=float(alpha), sigma=float(sigma))

    @classmethod
    def from_density(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        support: Tuple[float, float] = (0.0, math.inf),
        breakpoints: Sequence[float] = (),
    ) -> "LevyMeasure":
        return cls(
            kind="density",
            fn=fn,
            support=_density_support(support),
            disc=tuple(float(b) for b in breakpoints),
        )

    @classmethod
    def uniform(cls, rate: float, lo: float, hi: float) -> "LevyMeasure":
        """Density rate * 1_{(lo, hi)}(z) dz."""
        if rate < 0:
            raise MechanismError("uniform rate must be >= 0")
        if rate == 0:
            return cls.zero()
        return cls(kind="density", rate=float(rate), support=_density_support((lo, hi)))

    @classmethod
    def from_atoms(cls, pairs: Sequence[Tuple[float, float]]) -> "LevyMeasure":
        pairs = tuple((float(a), float(m)) for a, m in pairs)
        for loc, mass in pairs:
            if loc <= 0 or mass <= 0:
                raise MechanismError(f"atoms need location > 0 and mass > 0, got {(loc, mass)}")
        if not pairs:
            return cls.zero()
        return cls(kind="atoms", atom_data=pairs)

    @classmethod
    def sum_of(cls, parts: Sequence["LevyMeasure"]) -> "LevyMeasure":
        flat = []
        for p in parts:
            if p.kind == "sum":
                flat.extend(p.parts)
            elif p.kind != "zero":
                flat.append(p)
        if not flat:
            return cls.zero()
        if len(flat) == 1:
            return flat[0]
        return cls(kind="sum", parts=tuple(flat))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def singular_at_0(self) -> bool:
        """Stable and ``from_density`` densities may blow up at 0+; a uniform one cannot."""
        return self.kind == "stable" or self.fn is not None

    @summed(concat)
    def atoms(self) -> Tuple[Tuple[float, float], ...]:
        return self.atom_data

    def density(self, z):
        """Density part evaluated at z (vectorized; 0 off support)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.kind == "zero" or self.kind == "atoms":
            return np.zeros_like(z)
        if self.kind == "stable":
            out = np.zeros_like(z)
            pos = z > 0
            out[pos] = self._dens_scale * z[pos] ** (-1.0 - self.alpha)
            return out
        if self.kind == "density":
            lo, hi = self.support
            out = np.zeros_like(z)
            mask = (z > lo) & (z < hi) & (z > 0)
            if self.fn is None:
                out[mask] = self.rate
            elif mask.any():
                out[mask] = np.asarray(self.fn(z[mask]), dtype=float)
            return out
        return sum(p.density(z) for p in self.parts)

    def _dens1(self, z: float) -> float:
        """Scalar density fast path for quadrature integrands."""
        if z <= 0.0:
            return 0.0
        if self.kind == "stable":
            return self._dens_scale * z ** (-1.0 - self.alpha)
        if self.kind == "density":
            lo, hi = self.support
            if not (lo < z < hi):
                return 0.0
            if self.fn is None:
                return self.rate
            return float(np.atleast_1d(np.asarray(self.fn(np.asarray([z]))))[0])
        if self.kind == "sum":
            return sum(p._dens1(z) for p in self.parts)
        return 0.0

    @summed(concat)
    def breakpoints(self) -> Tuple[float, ...]:
        if self.kind != "density":
            return ()
        lo, hi = self.support
        return tuple(p for p in (lo, hi) if np.isfinite(p) and p > 0) + self.disc

    def density_support(self) -> Tuple[float, float]:
        """Hull of a part's density support ((0, 0) if none)."""
        if self.kind == "stable":
            return (0.0, math.inf)
        if self.kind == "density":
            return self.support
        return (0.0, 0.0)

    @summed(concat)
    def stable_components(self) -> Tuple[Tuple[float, float], ...]:
        """(alpha, sigma) pairs of the stable parts, each with sigma > 0."""
        return ((self.alpha, self.sigma),) if self.kind == "stable" else ()

    # -- integrals ---------------------------------------------------------

    @summed(sum)
    def integrate(self, fn, lo: float = 0.0, hi: float = math.inf) -> float:
        """int_lo^hi fn(z) measure(dz): density quadrature plus atom sum."""
        total = 0.0
        for loc, mass in self.atom_data:
            if lo < loc <= hi:
                total += mass * float(fn(loc))
        slo, shi = self.density_support()
        a, b = max(lo, slo), min(hi, shi)
        if b > a:
            from . import quadrature

            pts = tuple(self.breakpoints()) + (1.0,)
            total += quadrature.integrate(lambda z: float(fn(z)) * self._dens1(z), a, b,
                                          breakpoints=pts, singular_at_0=self.singular_at_0)
        return total

    def _density_integral(self, f, lo: float, hi: float) -> float:
        """int f(z) dz over (lo, hi) clipped to the density support, by quadrature; may be inf.

        A ``from_density`` part, which may be singular at its lower support
        edge (a uniform one is not), opens a range starting there with an edge
        integral up to its first breakpoint, over at most unit width; the rest
        of the range is split at the breakpoints.  Stable parts, and the masses
        and moments of uniform parts, use closed forms and never come here.
        """
        slo, shi = self.density_support()
        a, b = max(lo, slo), min(hi, shi)
        if b <= a:
            return 0.0
        from . import quadrature

        total = 0.0
        if a == slo and self.singular_at_0:
            mid = min([b, a + 1.0] + [p for p in self.breakpoints() if p > a])
            total = quadrature.lower_integral(f, a, mid)
            if total == math.inf:
                return total
            a = mid
        if not np.isfinite(b):
            return total + quadrature.tail_integral(f, a)
        if b > a:
            total += quadrature.integrate(f, a, b, breakpoints=self.breakpoints(),
                                          singular_at_0=self.singular_at_0)
        return total

    @summed(sum)
    def mass_above(self, z0: float) -> float:
        """measure((z0, inf)); may be inf."""
        z0 = max(float(z0), 0.0)
        if self.kind == "stable":
            if z0 == 0.0:
                return math.inf
            return self.sigma * stable_density_prefactor(self.alpha) * z0 ** (-self.alpha)
        if self.kind == "atoms":
            return sum(m for a, m in self.atom_data if a > z0)
        if self.kind == "density" and self.fn is None:  # uniform
            lo, hi = self.support
            return self.rate * max(hi - max(z0, lo), 0.0)
        return self._density_integral(self._dens1, z0, math.inf)

    @summed(sum)
    def moment(self, power: float, lo: float = 0.0, hi: float = math.inf) -> float:
        """int_lo^hi z^power measure(dz); may be inf."""
        lo = max(float(lo), 0.0)
        hi = float(hi)
        if self.kind == "zero" or hi <= lo:
            return 0.0
        if self.kind == "stable":
            c = self._dens_scale
            p = power - self.alpha
            if not np.isfinite(hi) and p >= 0:
                return math.inf
            if lo == 0.0 and p <= 0:
                return math.inf
            if p == 0:
                return c * math.log(hi / lo)
            try:
                top = 0.0 if not np.isfinite(hi) else hi**p
                return c * (top - lo**p) / p
            except OverflowError:  # the power beyond the float range dominates
                return math.inf
        if self.kind == "atoms":
            return sum(m * a**power for a, m in self.atom_data if lo < a <= hi)
        if self.fn is None and power > -1.0:  # uniform, with z^power integrable at 0
            a, b = max(lo, self.support[0]), min(hi, self.support[1])
            if b <= a:
                return 0.0
            q = power + 1.0
            try:
                return self.rate * (b**q - a**q) / q
            except OverflowError:  # the power beyond the float range dominates
                return math.inf
        return self._density_integral(lambda z: z**power * self._dens1(z), lo, hi)

    def linear_tail(self) -> float:
        """int_1^inf z measure(dz); inf when divergent."""
        if self.kind == "stable":
            if self.alpha <= 1.0:
                return math.inf
            return self.alpha * self.sigma / _gamma(2.0 - self.alpha)
        return self.moment(1.0, 1.0, math.inf)

    @property
    def has_finite_linear_tail(self) -> bool:
        return bool(np.isfinite(self.linear_tail()))

    @property
    @summed(all)
    def has_finite_log_tail(self) -> bool:
        # finite for every stable part, also where its closed form overflows (alpha -> 0)
        return self.kind == "stable" or bool(np.isfinite(self.log_tail()))

    @summed(sum)
    def log_tail(self) -> float:
        """int_1^inf log(1+z) measure(dz); inf when divergent.

        Closed for a stable part: sigma*C_alpha*(log 2 + beta(alpha)), by parts, with
        beta(alpha) = int_0^1 t^(alpha-1)/(1+t) dt = (psi((alpha+1)/2) - psi(alpha/2))/2.
        """
        if self.kind == "stable":
            from scipy.special import digamma as _digamma

            beta = 0.5 * float(_digamma(0.5 * (self.alpha + 1.0)) - _digamma(0.5 * self.alpha))
            return self.sigma * stable_density_prefactor(self.alpha) * (math.log(2.0) + beta)
        total = sum(m * math.log1p(a) for a, m in self.atom_data if a > 1.0)
        f = lambda z: math.log1p(z) * self._dens1(z)
        return total + self._density_integral(f, 1.0, math.inf)

    @summed(_each)
    def check_branching_integrable(self) -> None:
        """(1 ^ z^2) measure must be finite."""
        if self.kind != "density":
            return  # finite by construction (atoms lists are finite, alpha < 2)
        small = self.moment(2.0, 0.0, 1.0)
        tail = self.mass_above(1.0)
        if not (np.isfinite(small) and np.isfinite(tail)):
            raise MechanismError("(1 ^ z^2) integral of branching measure diverges")

    @summed(_each)
    def check_immigration_integrable(self) -> None:
        """(1 ^ z) measure must be finite."""
        if self.kind == "stable" and self.alpha >= 1.0:
            raise MechanismError(f"(1 ^ z) integral diverges for stable index {self.alpha} >= 1")
        if self.kind != "density":
            return
        small = self.moment(1.0, 0.0, 1.0)
        tail = self.mass_above(1.0)
        if not (np.isfinite(small) and np.isfinite(tail)):
            raise MechanismError("(1 ^ z) integral of immigration measure diverges")


@dataclass(frozen=True)
class BranchingMechanism:
    b: float
    c: float
    mu: LevyMeasure = field(default_factory=LevyMeasure.zero)

    def __post_init__(self):
        if self.c < 0:
            raise MechanismError(f"diffusion coefficient must be >= 0, got {self.c}")
        self.mu.check_branching_integrable()


@dataclass(frozen=True)
class ImmigrationMechanism:
    beta: float
    nu: LevyMeasure = field(default_factory=LevyMeasure.zero)

    def __post_init__(self):
        if self.beta < 0:
            raise MechanismError(f"immigration drift must be >= 0, got {self.beta}")
        self.nu.check_immigration_integrable()


@dataclass(frozen=True)
class CompetitionMechanism:
    """Nondecreasing continuous drift penalty g with g(0) = 0.

    Forms: ``linear`` g = a x; ``power`` g = K x^p; ``xlog`` g = K x log(1+x).
    """

    form: str = "linear"
    a: float = 0.0
    K: float = 0.0
    p: float = 1.0

    @classmethod
    def none(cls):
        return cls(form="linear", a=0.0)

    @classmethod
    def linear(cls, a: float):
        if a < 0:
            raise MechanismError("linear competition slope must be >= 0")
        return cls(form="linear", a=float(a))

    @classmethod
    def power(cls, K: float, p: float):
        if K < 0 or p <= 0:
            raise MechanismError("power competition needs K >= 0 and exponent > 0")
        return cls(form="power", K=float(K), p=float(p))

    @classmethod
    def xlog(cls, K: float):
        if K < 0:
            raise MechanismError("xlog competition needs K >= 0")
        return cls(form="xlog", K=float(K))

    def __call__(self, x):
        if self.form == "linear":
            return self._unguarded(x)
        with np.errstate(over="ignore"):  # K x^p, K x log(1+x) beyond the float range is +inf
            return self._unguarded(x)

    def _unguarded(self, x):
        """g(x) outside any np.errstate: for callers that already run under
        np.errstate(over="ignore"), as the simulator's steps do."""
        x = np.asarray(x, dtype=float)
        if self.form == "linear":
            out = self.a * x
        elif self.form == "power":
            out = self.K * np.power(np.maximum(x, 0.0), self.p)
        else:
            out = self.K * x * np.log1p(np.maximum(x, 0.0))
        return out if out.shape else float(out)

    @property
    def is_zero(self) -> bool:
        """g vanishes identically: a zero slope, or K = 0."""
        return (self.a if self.form == "linear" else self.K) == 0.0

    def linear_liminf(self) -> float:
        """liminf_{x->inf} g(x)/x (exact per form)."""
        if self.form == "linear":
            return self.a
        if self.form == "power":
            if self.p > 1:
                return math.inf if self.K > 0 else 0.0
            if self.p == 1:
                return self.K
            return 0.0
        return math.inf if self.K > 0 else 0.0


@dataclass(frozen=True)
class ModelSpec:
    branching: BranchingMechanism
    immigration: ImmigrationMechanism
    competition: CompetitionMechanism = field(default_factory=CompetitionMechanism.none)

    @property
    def b(self):
        return self.branching.b

    @property
    def c(self):
        return self.branching.c

    @property
    def mu(self):
        return self.branching.mu

    @property
    def beta(self):
        return self.immigration.beta

    @property
    def nu(self):
        return self.immigration.nu

    @property
    def g(self):
        return self.competition


# -- mechanism evaluation ----------------------------------------------------


def stable_levy_exponent(alpha: float, sigma: float, lam: float) -> float:
    """int (e^{-lam z} - 1 + lam z 1{z<=1}) alpha*sigma*m_alpha(dz), closed form."""
    if lam == 0.0 or sigma == 0.0:
        return 0.0
    if 1.0 < alpha < 2.0:
        return sigma * lam**alpha - lam * alpha * sigma / _gamma(2.0 - alpha)
    if alpha == 1.0:
        return sigma * (lam * math.log(lam) + (EULER_GAMMA - 1.0) * lam)
    return -sigma * lam**alpha + lam * alpha * sigma / ((1.0 - alpha) * _gamma(1.0 - alpha))


@summed(sum)
def _psi_jump_integral(mu: LevyMeasure, lam: float) -> float:
    if mu.kind == "zero" or lam == 0.0:
        return 0.0
    if mu.kind == "stable":
        return stable_levy_exponent(mu.alpha, mu.sigma, lam)
    return mu.integrate(lambda z: math.expm1(-lam * z) + lam * z * (z <= 1.0))


def psi_eval(mech: BranchingMechanism, lam: float) -> float:
    """Branching mechanism Psi(lam), lam >= 0."""
    if lam < 0:
        raise MechanismError(f"psi_eval requires lam >= 0, got {lam}")
    return mech.b * lam + mech.c * lam * lam + _psi_jump_integral(mech.mu, lam)


@summed(sum)
def _phi_jump_integral(nu: LevyMeasure, lam: float) -> float:
    if nu.kind == "zero" or lam == 0.0:
        return 0.0
    if nu.kind == "stable":
        # requires alpha < 1 (immigration integrability)
        return nu.sigma * lam**nu.alpha
    return nu.integrate(lambda z: -math.expm1(-lam * z))


def phi_eval(mech: ImmigrationMechanism, lam: float) -> float:
    """Immigration mechanism Phi(lam), lam >= 0."""
    if lam < 0:
        raise MechanismError(f"phi_eval requires lam >= 0, got {lam}")
    return mech.beta * lam + _phi_jump_integral(mech.nu, lam)


class CriticalityReport(NamedTuple):
    value: float  # Psi'(0+); -inf when the first moment diverges
    label: str  # "subcritical" | "critical" | "supercritical"


def psi_prime_at_zero(mech: BranchingMechanism) -> CriticalityReport:
    """Psi'(0+) = b - int_1^inf z mu(dz) and its criticality label."""
    tail = mech.mu.linear_tail()
    if not np.isfinite(tail):
        return CriticalityReport(-math.inf, "supercritical")
    value = mech.b - tail
    tol = 1e-12 * max(1.0, abs(mech.b), abs(tail))
    if value > tol:
        label = "subcritical"
    elif value < -tol:
        label = "supercritical"
    else:
        value = 0.0
        label = "critical"
    return CriticalityReport(value, label)


def grey_condition(mech: BranchingMechanism) -> bool:
    """Whether int^inf dlam / Psi(lam) converges.

    Decided from the dominant tail term: a diffusion part or a stable
    component with index > 1 gives convergence; a finite-mass jump measure
    (Psi at most linear) or a stable index <= 1 gives divergence.  Measures
    with none of those features raise :class:`InconclusiveError`.
    """
    if mech.c > 0:
        return True
    comps = mech.mu.stable_components()
    if comps:
        amax = max(a for a, _ in comps)
        if amax > 1.0:
            return True
        # lam^alpha (alpha <= 1) and lam*log(lam) tails both integrate to inf;
        # if Psi is eventually negative the condition fails by convention too.
        return False
    total = mech.mu.mass_above(0.0)
    if np.isfinite(total):
        # Psi'(lam) <= b + int_0^1 z mu, so Psi grows at most linearly.
        return False
    raise InconclusiveError(
        "cannot classify the tail of Psi: no diffusion part, no stable component "
        "and an infinite-activity density"
    )


def conservative_condition(mech: BranchingMechanism) -> bool:
    """Whether int_{0+} dlam / (0 v -Psi(lam)) diverges (no finite-time explosion)."""
    crit = psi_prime_at_zero(mech)
    if np.isfinite(crit.value):
        # -Psi(lam) <= (|Psi'(0+)| + o(1)) lam near 0, so the integral diverges.
        return True
    comps = mech.mu.stable_components()
    if comps:
        amin = min(a for a, _ in comps)
        if amin < 1.0:
            return False  # -Psi ~ sigma*lam^amin near 0, integrably small denominator
        if amin == 1.0:
            return True  # -Psi ~ sigma*lam*log(1/lam): loglog divergence
    raise InconclusiveError(
        "cannot classify Psi near 0: the first moment diverges, but not through a "
        "stable component of index <= 1"
    )


def stable_to_generic(a: float, c: float, sigma: float, alpha: float) -> BranchingMechanism:
    """Map stable parameters (a, c, sigma, alpha) to generic (b, c, mu) data.

    The returned triple evaluates, through the Levy--Khintchine form, to the
    closed stable Psi exactly.
    """
    if not 0.0 < alpha < 2.0:
        raise MechanismError(f"stable index must lie in (0, 2), got {alpha}")
    if sigma < 0:
        raise MechanismError(f"stable scale must be >= 0, got {sigma}")
    if sigma == 0.0:
        return BranchingMechanism(b=float(a), c=float(c), mu=LevyMeasure.zero())
    # a Python float, so that a b near the float maximum overflows to inf silently
    b = float(a) - sigma * float(stable_drift_shift(alpha))
    return BranchingMechanism(b=b, c=float(c), mu=LevyMeasure.stable(alpha, sigma))
