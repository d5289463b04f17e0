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

The measure kinds are the config grammar's: stable, uniform, atoms and
their sums.  Every mass, moment, log tail, Psi, Phi and log integral of a part
is closed; only :meth:`LevyMeasure.integrate` of a density against an arbitrary
function reaches :mod:`cbic.quadrature`.  It and ``scipy.special`` are imported
at first use, so a run whose measures never need them does not pay for loading scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Tuple

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


def _power_integral(c: float, k: float, a: float, b: float) -> float:
    """int_a^b c z^(k-1) dz for 0 <= a < b <= inf; inf where it diverges."""
    if (b == math.inf and k >= 0) or (a == 0.0 and k <= 0):
        return math.inf
    if k == 0:
        return c * math.log(b / a)
    try:
        top = 0.0 if b == math.inf else b**k
        return c * (top - a**k) / k
    except OverflowError:  # the power beyond the float range dominates
        return math.inf


@dataclass(frozen=True)
class LevyMeasure:
    """Parametric sigma-finite measure on (0, inf).

    Kinds, those of the config grammar: ``zero``; ``stable`` (alpha*sigma
    times the reference stable measure, density alpha*sigma*C_alpha*z^{-1-alpha});
    ``uniform`` (the constant density ``rate`` on the ``support`` interval);
    ``atoms``; ``sum``.  Measures are immutable and safe to share between
    workers.
    """

    kind: str = "zero"
    alpha: float = 0.0
    sigma: float = 0.0
    rate: float = 0.0  # constant density of a ``uniform`` measure
    support: Tuple[float, float] = (0.0, math.inf)
    atom_data: Tuple[Tuple[float, float], ...] = ()
    parts: Tuple["LevyMeasure", ...] = ()

    def __post_init__(self):
        if self.kind == "stable":  # the density's alpha-only factor, once per measure
            c = stable_density_prefactor(self.alpha)
            scale = self.alpha * self.sigma * c
            if math.isinf(scale):  # alpha*sigma overflowed before the small C_alpha (alpha -> 2)
                scale = self.alpha * (self.sigma * c)
            object.__setattr__(self, "_dens_scale", scale)

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
    def uniform(cls, rate: float, lo: float, hi: float) -> "LevyMeasure":
        """Density rate * 1_{(lo, hi)}(z) dz."""
        if rate < 0:
            raise MechanismError("uniform rate must be >= 0")
        if rate == 0:
            return cls.zero()
        lo, hi = float(lo), float(hi)
        if lo < 0.0 or hi <= lo:
            raise MechanismError(f"uniform support must satisfy 0 <= lo < hi, got {(lo, hi)}")
        return cls(kind="uniform", rate=float(rate), support=(lo, hi))

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
        """A stable density blows up at 0+; a uniform one cannot."""
        return self.kind == "stable"

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
        if self.kind == "uniform":
            lo, hi = self.support
            out = np.zeros_like(z)
            out[(z > lo) & (z < hi) & (z > 0)] = self.rate
            return out
        return sum(p.density(z) for p in self.parts)

    def _dens1(self, z: float) -> float:
        """Scalar density fast path for quadrature integrands; on a stable part within
        one ulp of :meth:`density` (Python's float power against numpy's)."""
        if z <= 0.0:
            return 0.0
        if self.kind == "stable":
            return self._dens_scale * z ** (-1.0 - self.alpha)
        if self.kind == "uniform":
            lo, hi = self.support
            return self.rate if lo < z < hi else 0.0
        if self.kind == "sum":
            return sum(p._dens1(z) for p in self.parts)
        return 0.0

    @summed(concat)
    def breakpoints(self) -> Tuple[float, ...]:
        if self.kind != "uniform":
            return ()
        lo, hi = self.support
        return tuple(p for p in (lo, hi) if np.isfinite(p) and p > 0)

    def density_support(self) -> Tuple[float, float]:
        """Hull of a part's density support ((0, 0) if none)."""
        if self.kind == "stable":
            return (0.0, math.inf)
        if self.kind == "uniform":
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

            # a part's own support edges are never inside (a, b): only z = 1 splits it
            total += quadrature.integrate(lambda z: float(fn(z)) * self._dens1(z), a, b,
                                          breakpoints=(1.0,), singular_at_0=self.singular_at_0)
        return total

    @summed(sum)
    def mass_above(self, z0: float) -> float:
        """measure((z0, inf)); may be inf."""
        z0 = max(float(z0), 0.0)
        if self.kind == "stable":
            if z0 == 0.0:
                return math.inf
            return self.sigma * stable_density_prefactor(self.alpha) * z0 ** (-self.alpha)
        if self.kind == "uniform":
            lo, hi = self.support
            return self.rate * max(hi - max(z0, lo), 0.0)
        if self.kind == "atoms":
            return sum(m for a, m in self.atom_data if a > z0)
        return 0.0

    @summed(sum)
    def moment(self, power: float, lo: float = 0.0, hi: float = math.inf) -> float:
        """int_lo^hi z^power measure(dz); may be inf."""
        lo = max(float(lo), 0.0)
        hi = float(hi)
        if self.kind == "zero" or hi <= lo:
            return 0.0
        if self.kind == "stable":
            return _power_integral(self._dens_scale, power - self.alpha, lo, hi)
        if self.kind == "uniform":
            a, b = max(lo, self.support[0]), min(hi, self.support[1])
            return _power_integral(self.rate, power + 1.0, a, b) if b > a else 0.0
        return sum(m * a**power for a, m in self.atom_data if lo < a <= hi)

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
        return self.kind == "stable" or bool(np.isfinite(self.log_tail(1.0)))

    @summed(sum)
    def log_tail(self, w: float) -> float:
        """int_1^inf log(1 + z/w) measure(dz) for w >= 1; inf when divergent.

        Closed for a stable part: sigma*C_alpha*(log1p(1/w) + I), by parts, with
        I = int_0^1 t^(alpha-1)/(1+wt) dt = 2F1(1, alpha; alpha+1; -w)/alpha (Euler's
        integral, DLMF 15.6.1), which is log1p(w)/w at alpha = 1.  A uniform part gives
        rate*w*[P_0(hi/w) - P_0(max(lo, 1)/w)] (:func:`_log_antiderivative`).
        """
        if self.kind == "stable":
            a = self.alpha
            if a == 1.0:  # hyp2f1 loses digits here (8e-7 at w = 1e12), and is inf from 1e14
                i = math.log1p(w) / w
            else:
                from scipy.special import hyp2f1  # loaded at first use (module docstring)

                i = float(hyp2f1(1.0, a, a + 1.0, -w)) / a
            return self.sigma * stable_density_prefactor(a) * (math.log1p(1.0 / w) + i)
        if self.kind == "uniform":
            a, b, P = max(self.support[0], 1.0), self.support[1], _log_antiderivative
            return self.rate * (w * (P(b / w, 0) - P(a / w, 0))) if b > a else 0.0
        return sum(m * math.log1p(a / w) for a, m in self.atom_data if a > 1.0)

    @summed(_each)
    def check_branching_integrable(self) -> None:
        """(1 ^ z^2) measure must be finite."""
        if self.kind != "uniform":
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
        if self.kind != "uniform":
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

    def on_states(self):
        """``_unguarded`` for float arrays of states >= +0.0 or inf: no conversion, no clamp;
        its coefficient is a read-only 0-d array, its exponent a float (numpy's square path)."""
        a, K, p = np.array(self.a), np.array(self.K), self.p
        a.flags.writeable = K.flags.writeable = False
        return {"linear": lambda x: a * x, "power": lambda x: K * np.power(x, p),
                "xlog": lambda x: K * x * np.log1p(x)}[self.form]

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
    if 1.0 < alpha < 2.0:
        return sigma * lam**alpha - lam * alpha * sigma / _gamma(2.0 - alpha)
    if alpha == 1.0:
        return sigma * (lam * math.log(lam) + (EULER_GAMMA - 1.0) * lam)
    return -sigma * lam**alpha + lam * alpha * sigma / ((1.0 - alpha) * _gamma(1.0 - alpha))


def exp_quotient(n: int, u: float) -> float:
    """Q_n(u) = R_n(u)/u for n = 2, 3 and 0 <= u <= inf, R_n(u) = e^-u minus its Taylor
    polynomial of degree n - 1: int_a^b R_(n-1)(lam z) dz = a Q_n(lam a) - b Q_n(lam b).
    Below u = 1 a series keeps the digits that expm1(-u)/u + 1 (- u/2) cancels."""
    if u >= 1.0:
        return math.expm1(-u) / u + (1.0 if n == 2 else 1.0 - 0.5 * u)
    term = total = -((-u) ** (n - 1)) / math.factorial(n)
    while abs(term) > 1e-17 * abs(total):
        n += 1
        term *= -u / n
        total += term
    return total


@summed(sum)
def _psi_jump_integral(mu: LevyMeasure, lam: float) -> float:
    if mu.kind == "zero" or lam == 0.0:
        return 0.0
    if mu.kind == "stable":
        return stable_levy_exponent(mu.alpha, mu.sigma, lam)
    if mu.kind == "uniform":  # int R_2(lam z) dz below z = 1, int R_1(lam z) dz above
        (lo, hi), Q = mu.support, exp_quotient
        a, b, c, d = min(lo, 1.0), min(hi, 1.0), max(lo, 1.0), max(hi, 1.0)
        return mu.rate * ((a * Q(3, lam * a) - b * Q(3, lam * b))
                          + (c * Q(2, lam * c) - d * Q(2, lam * d)))
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
    if nu.kind == "uniform":  # int -R_1(lam z) dz
        lo, hi = nu.support
        return nu.rate * (hi * exp_quotient(2, lam * hi) - lo * exp_quotient(2, lam * lo))
    return nu.integrate(lambda z: -math.expm1(-lam * z))


def phi_eval(mech: ImmigrationMechanism, lam: float) -> float:
    """Immigration mechanism Phi(lam), lam >= 0."""
    if lam < 0:
        raise MechanismError(f"phi_eval requires lam >= 0, got {lam}")
    return mech.beta * lam + _phi_jump_integral(mech.nu, lam)


def _log_antiderivative(t: float, k: int) -> float:
    """P_k(t) = int_0^t [log1p(s) - k s] ds = (1 + t) log1p(t) - t - k t^2/2 for t >= 0,
    k in {0, 1} (k = 1 for t <= 1); P_0(inf) = inf.  Below t = 1/2 the series
    sum_{m>k} (-t)^(m+1)/(m (m+1)) keeps the digits that the closed form cancels."""
    if t >= 0.5:
        return t if t == math.inf else (1.0 + t) * math.log1p(t) - t - (0.5 * t * t if k else 0.0)
    m = k + 1
    term = total = (-t) ** (m + 1) / (m * (m + 1))
    while abs(term) > 1e-17 * abs(total):
        term *= -t * m / (m + 2)
        m += 1
        total += term
    return total


def elementwise(fn, *args):
    """``fn``, a function of floats, applied element by element over ``args``,
    scalars and arrays of one shape: a float when every argument is a scalar,
    else a float array of that shape.

    This is how an array evaluation of a closed form makes its libm calls
    (``math.exp``, ``math.expm1``, ``math.log``, Python's ``**``): numpy's
    vectorized versions differ from these in the last bit on many inputs, so
    only this loop gives each element the bits of a scalar evaluation.
    """
    shape = next((np.shape(a) for a in args if np.ndim(a)), None)
    if shape is None:
        return fn(*map(float, args))
    cols = [np.asarray(a, dtype=float).ravel().tolist() if np.ndim(a)
            else itertools.repeat(float(a)) for a in args]
    return np.fromiter(map(fn, *cols), float, math.prod(shape)).reshape(shape)


def _sin_minus_x(x: float) -> float:
    """sin(x) - x for |x| <= 1/2: its series to x^17 in Horner form keeps the digits
    that the difference cancels."""
    total = 0.0
    for n in range(16, 0, -2):  # sin(x) - x = x sum_m (-x^2)^m / (2m + 1)!
        total = -x * x / (n * (n + 1)) * (1.0 + total)
    return x * total


@summed(sum)
def log_jump_integral(m: LevyMeasure, w, k: int):
    """int [log(1 + z/w) - k (z/w) 1{z<=1}] m(dz) for w >= 1, k in {0, 1}; closed per part.

    k = 1 compensates a branching measure; k = 0 needs int_0^1 z m(dz) finite, as
    for an immigration measure.  A stable part of index a != 1 gives
    D_a (pi w^-a/(a sin(pi a)) + k/((a - 1) w)), D_a = a sigma C_a its density
    factor; index 1 gives sigma (1 + log w)/w.  Within 0.1 of index 1 (e = a - 1) the
    bracket is [k (sin(pi e) - pi e + e sin(pi e)) - pi e (expm1(-e log w) + (1 - k))]
    / (a e sin(pi e) w): no terms of size 1/|e| cancel in it.  A uniform part takes
    w P_k(z/w) below z = 1 and w P_0(z/w) above (:func:`_log_antiderivative`).

    ``w`` may be an array: the arithmetic runs on it in numpy and every libm call
    element by element (:func:`elementwise`), so each element has the bits of a
    float ``w``.
    """
    if m.kind == "zero":
        return 0.0
    if m.kind == "stable":
        a = m.alpha
        if a == 1.0:
            return m.sigma * (1.0 + elementwise(math.log, w)) / w
        dens, eps = float(m._dens_scale), a - 1.0
        if abs(eps) < 0.1:  # sin(pi a) = -sin(pi eps), and the bracket as one fraction
            s = math.sin(math.pi * eps)
            decay = elementwise(lambda v: math.expm1(-eps * math.log(v)), w)  # w^-eps - 1
            num = k * (_sin_minus_x(math.pi * eps) + eps * s) - math.pi * eps * (decay + (1 - k))
            return dens * num / (a * eps * s * w)
        # D_a/a first: a sin(pi a) underflows to 0 as a -> 0
        wa = elementwise(pow, w, a)
        return dens / a * math.pi / (math.sin(a * math.pi) * wa) + k * dens / (eps * w)
    if m.kind == "uniform":
        lo, hi = m.support
        a, b, c, d = (v / w for v in (min(lo, 1.0), min(hi, 1.0), max(lo, 1.0), max(hi, 1.0)))
        P = lambda t, j: elementwise(lambda u: _log_antiderivative(u, j), t)
        return m.rate * (w * ((P(b, k) - P(a, k)) + (P(d, 0) - P(c, 0))))
    return elementwise(
        lambda v: m.integrate(lambda z: math.log1p(z / v) - k * z / v * (z <= 1.0)), w)


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


def conservative_condition(mech: BranchingMechanism) -> bool:
    """Whether int_{0+} dlam / (0 v -Psi(lam)) diverges (no finite-time explosion)."""
    crit = psi_prime_at_zero(mech)
    if np.isfinite(crit.value):
        # -Psi(lam) <= (|Psi'(0+)| + o(1)) lam near 0, so the integral diverges.
        return True
    # only a stable part of index a <= 1 has a divergent first moment (an infinite
    # uniform tail fails check_branching_integrable): -Psi ~ sigma lam^a near 0 is
    # integrably small for a < 1, and sigma lam log(1/lam) diverges loglog at a = 1
    return min(a for a, _ in mech.mu.stable_components()) >= 1.0


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
