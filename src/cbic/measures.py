"""Overlap-measure algebra shared by the coupling simulator and certificates.

For a sigma-finite measure m on (0, inf) and a shift x, the overlap measure

    m_x(dz) = (1/2) [m ^ (delta_x * m)](dz)

is the common part of m and its x-shift.  Its total mass drives the merge and
gap-doubling jump rates of the coupled process, and the normalized ratio
m_x(dz)/m(dz) supplies the disassembly thresholds.  Key facts used below:
m_x(0, 0 v x] = 0, m_x(0, inf) = m_{-x}(0, inf) <= m(|x|, inf)/2.

:func:`overlap_mass` is the one implementation of that mass, a closed form per
part kind evaluated elementwise over shifts: the coupled stepper takes its
sub-eps lasso rates from it per pair, :func:`kappa` and the certificate per shift.

Atoms only pair under exact location equality after the shift (1e-12 slack):
the infimum of measures is singular-part aware, and approximate matching
would inflate the overlap.  A ``sum`` measure's overlap mass and overlap
integrals are the sums of its parts' values (:func:`~cbic.mechanisms.summed`),
so cross terms between any two parts, atoms against a density or one density
against another, are dropped.  :func:`rn_ratio_many` instead uses the summed
density and all the atoms of the measure.
"""

from __future__ import annotations

import math

import numpy as np

from .mechanisms import LevyMeasure, ModelSpec, stable_density_prefactor, summed

ATOM_SLACK = 1e-12


def _atom_mass_at(base: LevyMeasure, loc):
    """Mass of the first atom of ``base`` at ``loc``, elementwise; 0 where none is."""
    loc = np.asarray(loc, dtype=float)
    out = np.zeros(loc.shape)
    for a, m in reversed(base.atoms()):  # the first match is written last
        out[(np.abs(a - loc) <= ATOM_SLACK * max(1.0, abs(a))) & (loc > 0)] = m
    return out[()]


def overlap_atoms(base: LevyMeasure, x: float):
    """Atoms of the overlap measure: (loc, min(m(loc), m(loc-x))/2) pairs."""
    pairs = ((a, m, float(_atom_mass_at(base, a - x))) for a, m in base.atoms())
    return tuple((a, 0.5 * min(m, shifted)) for a, m, shifted in pairs if shifted > 0)


def overlap_density(base: LevyMeasure, x: float, z):
    """Density of the overlap measure: min(f(z), f(z-x))/2, f extended by 0."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    fz = base.density(z)
    fzx = base.density(z - x)
    out = 0.5 * np.minimum(fz, fzx)
    out[z <= 0] = 0.0
    return out


def _overlap_dens1(base: LevyMeasure, x: float, z: float) -> float:
    """Scalar overlap_density (same arithmetic); :func:`overlap_integrate`'s
    integrands inline the same expression."""
    if z <= 0.0:
        return 0.0
    return 0.5 * min(base._dens1(z), base._dens1(z - x))


@summed(sum)
def _part_overlap_mass(base: LevyMeasure, x, lo: float, hi: float):
    """One part's :func:`overlap_mass` for lo < hi, elementwise over the shift
    ``x`` (a numpy scalar or an array); 0.0 for a part without overlap there."""
    if base.kind == "atoms":
        return sum((0.5 * np.minimum(m, _atom_mass_at(base, a - x))
                    for a, m in base.atom_data if lo < a <= hi), 0.0)
    if base.fn is not None:
        one = lambda z: 1.0
        return np.vectorize(lambda s: overlap_integrate(base, s, one, lo, hi), otypes=[float])(x)
    if base.kind == "stable":
        # min(f(z), f(z-x)) = f(z - min(x, 0)) on the overlap region z > max(x, 0)
        s = np.minimum(x, 0.0)
        a, b = np.maximum(lo, x) - s, hi - s
        half = 0.5 * base.sigma * stable_density_prefactor(base.alpha)  # of the tail mass
        with np.errstate(divide="ignore"):  # a = 0: the infinite mass at 0+
            v = half * a ** -base.alpha - half * b ** -base.alpha
    elif base.kind == "density":  # uniform
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
    exactly shifted locations.  Only a ``from_density`` part integrates.
    """
    x = np.asarray(x, dtype=float)[()]  # a float stays a scalar: array power rounds differently
    lo, hi = max(float(lo), 0.0), float(hi)
    v = _part_overlap_mass(base, x, lo, hi) if hi > lo else 0.0
    return float(v) if np.ndim(x) == 0 else np.full(x.shape, v)


@summed(sum)
def overlap_integrate(base: LevyMeasure, x: float, fn, lo: float = 0.0, hi: float = math.inf) -> float:
    """int fn(z) m_x(dz) over (lo, hi)."""
    x = float(x)
    lo = max(float(lo), 0.0)
    hi = float(hi)
    if base.is_zero or hi <= lo:
        return 0.0
    total = sum(m * float(fn(a)) for a, m in overlap_atoms(base, x) if lo < a <= hi)
    slo, shi = base.density_support()
    a = max(lo, slo, slo + x, 0.0 if x <= 0 else x)
    b = min(hi, shi, shi + x)
    if b <= a:
        return total
    from . import quadrature  # loads scipy at first use

    # _overlap_dens1 inlined: one Python call per quadrature node fewer
    dens = base._dens1
    integrand = lambda z: float(fn(z)) * (0.0 if z <= 0.0 else 0.5 * min(dens(z), dens(z - x)))
    if not np.isfinite(b):
        return total + quadrature.tail_integral(integrand, a)
    pts = tuple(base.breakpoints()) + tuple(p + x for p in base.breakpoints())
    return total + quadrature.integrate(integrand, a, b, breakpoints=pts,
                                        singular_at_0=base.singular_at_0)


def kappa(model: ModelSpec, x: float) -> float:
    """Fluctuation function [mu ^ (delta_x*mu)](0,inf) + [nu ^ (delta_x*nu)](0,inf).

    Twice the overlap masses (the overlap measure carries a 1/2 the fluctuation
    condition does not).  inf is a valid, favorable outcome.
    """
    return 2.0 * overlap_mass(model.mu, x) + 2.0 * overlap_mass(model.nu, x)


def rn_ratio_many(base: LevyMeasure, x, z):
    """Disassembly thresholds m_x(dz)/m(dz) in [0, 1/2], pairwise over (x, z).

    A scalar shift applies to every z.  Density part: min(1, f(z-x)/f(z))/2
    where the base density is positive; atoms match only at exactly shifted
    locations; everything else is 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), z.shape)
    fz = base.density(z)
    fzx = base.density(z - x)
    out = np.zeros_like(fz)
    pos = fz > 0
    out[pos] = 0.5 * np.minimum(1.0, fzx[pos] / fz[pos])
    for a, m in base.atoms():
        mask = np.abs(z - a) <= ATOM_SLACK * max(1.0, abs(a))
        if mask.any():
            out[mask] = 0.5 * np.minimum(1.0, _atom_mass_at(base, a - x[mask]) / m)
    out[z <= np.maximum(0.0, x)] = 0.0
    return out
