"""Overlap-measure algebra shared by the coupling simulator and certificates.

For a sigma-finite measure m on (0, inf) and a shift x, the overlap measure

    m_x(dz) = (1/2) [m ^ (delta_x * m)](dz)

is the common part of m and its x-shift.  Its total mass drives the merge and
gap-doubling jump rates of the coupled process, and the normalized ratio
m_x(dz)/m(dz) supplies the disassembly thresholds.  Key facts used below:
m_x(0, 0 v x] = 0, m_x(0, inf) = m_{-x}(0, inf) <= m(|x|, inf)/2.

:func:`overlap_mass` is the one implementation of that mass, a closed form per
part kind evaluated elementwise over shifts: the coupled stepper takes its
sub-eps lasso rates from it at the (2, n) stack of shifts -gap and gap of its
open pairs, and :func:`kappa` per shift.  The certificate takes it through
:func:`overlap_masses`, the same closed forms over an array of shifts with a
stable part's powers taken one element at a time, so that each shift has the
bits of its float alone.
:func:`overlap_moment` gives the closed moments below a cut that the
certificate's immigration sweep term takes, elementwise over shifts as well.

Atoms only pair under exact location equality after the shift (1e-12 slack):
the infimum of measures is singular-part aware, and approximate matching
would inflate the overlap.  A ``sum`` measure's overlap mass and overlap
moments are the sums of its parts' values (:func:`~cbic.mechanisms.summed`),
so cross terms between any two parts, atoms against a density or one density
against another, are dropped.  :func:`rn_ratio_many` instead uses the summed
density and all the atoms of the measure; an event pass takes both thresholds
of its jumps z, at -gap and gap, from one call, with f(z) evaluated once.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .mechanisms import (
    LevyMeasure,
    ModelSpec,
    _power_integral,
    elementwise,
    stable_density_prefactor,
    summed,
)

ATOM_SLACK = 1e-12


def _atom_mass_at(base: LevyMeasure, loc):
    """Mass of the first atom of ``base`` at ``loc``, elementwise; 0 where none is."""
    loc = np.asarray(loc, dtype=float)
    out = np.zeros(loc.shape)
    for a, m in reversed(base.atoms()):  # the first match is written last
        out[(np.abs(a - loc) <= ATOM_SLACK * max(1.0, abs(a))) & (loc > 0)] = m
    return out[()]


@summed(sum)
def _part_overlap_mass(base: LevyMeasure, x, lo: float, hi: float, power):
    """One part's :func:`overlap_mass` for lo < hi, elementwise over the shift
    ``x`` (a numpy scalar or an array); 0.0 for a part without overlap there.
    ``power(a, e)`` takes a stable part's powers a^e."""
    if base.kind == "atoms":
        return sum((0.5 * np.minimum(m, _atom_mass_at(base, a - x))
                    for a, m in base.atom_data if lo < a <= hi), 0.0)
    if base.kind == "stable":
        # min(f(z), f(z-x)) = f(z - min(x, 0)) on the overlap region z > max(x, 0)
        s = np.minimum(x, 0.0)
        a, b = np.maximum(lo, x) - s, hi - s
        half = 0.5 * base.sigma * stable_density_prefactor(base.alpha)  # of the tail mass
        with np.errstate(divide="ignore"):  # a = 0: the infinite mass at 0+
            v = half * power(a, -base.alpha) - half * power(b, -base.alpha)
    elif base.kind == "uniform":
        slo, shi = base.support
        a, b = np.maximum(max(lo, slo), slo + x), np.minimum(min(hi, shi), shi + x)
        v = 0.5 * base.rate * (b - a)
    else:
        return 0.0
    return np.maximum(v, 0.0)  # v <= 0 where the range is empty, b <= a


def overlap_mass(base: LevyMeasure, x, lo: float = 0.0, hi: float = math.inf):
    """Total overlap mass over (lo, hi), elementwise over the shifts ``x``; may be inf
    (a valid, favorable flag).

    A float shift gives a float, an array of shifts an array of its shape.
    Each part kind has a closed form: a stable part's monotone density makes
    the mass half a tail mass, a uniform part's is half its rate times the
    length of (lo, hi) ^ (slo, shi) ^ (slo + x, shi + x), and atoms pair at
    exactly shifted locations.
    """
    x = np.asarray(x, dtype=float)[()]  # a float stays a scalar: array power rounds differently
    lo, hi = max(float(lo), 0.0), float(hi)
    v = _part_overlap_mass(base, x, lo, hi, operator.pow) if hi > lo else 0.0
    return float(v) if np.ndim(x) == 0 else np.full(x.shape, v)


def _scalar_power(a, e: float):
    """a^e element by element in numpy scalar arithmetic, as a float shift takes it."""
    return elementwise(lambda v: float(np.float64(v) ** e), a)


def overlap_masses(base: LevyMeasure, x, lo: float, hi: float):
    """:func:`overlap_mass` at every float shift of the array ``x``, each element with
    the bits of its float shift alone: one array evaluation per part, with a stable
    part's powers taken element by element (:func:`_scalar_power`)."""
    x = np.asarray(x, dtype=float)
    lo, hi = max(float(lo), 0.0), float(hi)
    return np.full(x.shape, _part_overlap_mass(base, x, lo, hi, _scalar_power) if hi > lo else 0.0)


@summed(sum)
def overlap_moment(base: LevyMeasure, x, k: int, hi: float):
    """int_0^hi z^k m_x(dz) for an integer k >= 1 and a finite hi, elementwise over
    the shifts ``x``; may be inf.

    A float shift gives a float, an array of shifts an array of its shape.  Each
    element has the bits of its shift alone: uniform parts and atoms, which
    overlap as in :func:`overlap_mass`, are evaluated on arrays with their powers
    element by element, and a stable part one shift at a time
    (:func:`_stable_overlap_moment`).
    """
    if base.kind == "stable":
        return elementwise(lambda s: _stable_overlap_moment(base, s, k, hi), x)
    x = np.asarray(x, dtype=float)
    if base.kind == "atoms":  # an atom without a partner at a - x adds 0.5 min(m, 0) a^k = 0
        v = sum(0.5 * np.minimum(m, _atom_mass_at(base, a - x)) * a**k
                for a, m in base.atom_data if a <= hi)
    elif base.kind == "uniform":
        slo, shi = base.support
        a, b = np.maximum(slo, slo + x), np.minimum(min(hi, shi), shi + x)
        integral = functools.partial(_power_integral, 0.5 * base.rate, k + 1.0)
        v = np.where(b > a, elementwise(integral, a, b), 0.0)
    else:
        v = 0.0
    return float(v) if x.ndim == 0 else np.full(x.shape, v)


def _stable_overlap_moment(base: LevyMeasure, x: float, k: int, hi: float) -> float:
    """:func:`overlap_moment` of a stable part (index a < 1, as in an immigration
    measure; density D z^(-1-a)) at one float shift x.

    At x = -g < 0 it is (D/2) hi^(k-a) T^(1+a) 2F1(1+a, k+1; k+2; -T)/(k+1),
    T = hi/g.  Below g = 1e-100 hi, where 2F1 underflows, T^(1+a) 2F1 is its
    expansion at T = inf, (k+1)/(k-a) + (k+1)! T^(a-k)/prod_{j=0..k} (a-j), exact
    there.
    """
    if x >= 0.0:  # min(f(z), f(z - x)) = f(z) on z > x
        return 0.5 * base.moment(k, x, hi)
    from scipy.special import hyp2f1  # loaded with the stable part's density factor

    a, g = base.alpha, -x
    try:
        if g < 1e-100 * hi:  # D = a sigma C_a, a taken into the bracket; g may be subnormal
            tail = math.factorial(k + 1) / math.prod(a - j for j in range(1, k + 1))
            v = a * (k + 1.0) / (k - a) * hi ** (k - a) + tail * g ** (k - a)
            v *= base.sigma * float(stable_density_prefactor(a))
        else:
            T = hi / g
            v = float(base._dens_scale) * hi ** (k - a) * T ** (1.0 + a)
            v *= float(hyp2f1(1 + a, k + 1, k + 2, -T))
    except OverflowError:  # a power beyond the float range dominates
        return math.inf
    return 0.5 * v / (k + 1.0)


def kappa(model: ModelSpec, x: float) -> float:
    """Fluctuation function [mu ^ (delta_x*mu)](0,inf) + [nu ^ (delta_x*nu)](0,inf).

    Twice the overlap masses (the overlap measure carries a 1/2 the fluctuation
    condition does not).  inf is a valid, favorable outcome.
    """
    return 2.0 * overlap_mass(model.mu, x) + 2.0 * overlap_mass(model.nu, x)


def rn_ratio_many(base: LevyMeasure, x, z):
    """Disassembly thresholds m_x(dz)/m(dz) in [0, 1/2], pairwise over (x, z).

    The shifts broadcast against ``z``: a scalar shift applies to every z, and
    a (k, n) stack of shifts against n jumps gives k rows with f(z) evaluated
    once.  Density part: min(1, f(z-x)/f(z))/2 where the base density is
    positive; atoms match only at exactly shifted locations; everything else is 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.asarray(x, dtype=float)
    fz = base.density(z)
    with np.errstate(divide="ignore", invalid="ignore"):  # taken only where f(z) > 0
        out = np.where(fz > 0, 0.5 * np.minimum(1.0, base.density(z - x) / fz), 0.0)
    for a, m in base.atoms():
        mask = np.abs(z - a) <= ATOM_SLACK * max(1.0, abs(a))
        if np.count_nonzero(mask):
            out = np.where(mask, 0.5 * np.minimum(1.0, _atom_mass_at(base, a - x) / m), out)
    return np.where(z <= np.maximum(0.0, x), 0.0, out)
