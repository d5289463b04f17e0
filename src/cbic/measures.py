"""Overlap-measure algebra shared by the coupling simulator and certificates.

For a sigma-finite measure m on (0, inf) and a shift x, the overlap measure

    m_x(dz) = (1/2) [m ^ (delta_x * m)](dz)

is the common part of m and its x-shift.  Its total mass drives the merge and
gap-doubling jump rates of the coupled process, and the normalized ratio
m_x(dz)/m(dz) supplies the disassembly thresholds.  Key facts used below:
m_x(0, 0 v x] = 0, m_x(0, inf) = m_{-x}(0, inf) <= m(|x|, inf)/2.

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

from . import quadrature
from .mechanisms import LevyMeasure, ModelSpec, summed

ATOM_SLACK = 1e-12


def _atom_mass_at(base: LevyMeasure, loc: float) -> float:
    for a, m in base.atoms():
        if abs(a - loc) <= ATOM_SLACK * max(1.0, abs(a)):
            return m
    return 0.0


def overlap_atoms(base: LevyMeasure, x: float):
    """Atoms of the overlap measure: (loc, min(m(loc), m(loc-x))/2) pairs."""
    out = []
    for a, m in base.atoms():
        shifted = _atom_mass_at(base, a - x) if a - x > 0 else 0.0
        if shifted > 0:
            out.append((a, 0.5 * min(m, shifted)))
    return tuple(out)


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
def overlap_mass(base: LevyMeasure, x: float, lo: float = 0.0, hi: float = math.inf) -> float:
    """Total overlap mass over (lo, hi); may be inf (a valid, favorable flag).

    For a monotone-decreasing density the mass reduces to half a tail mass of
    the base measure, which is exact for the stable family.
    """
    x = float(x)
    if base.kind != "stable":
        return overlap_integrate(base, x, None, lo, hi)
    # min(f(z), f(z-x)) = f(z - min(x, 0)) on the overlap region z > max(x, 0)
    lo, hi = max(float(lo), 0.0), float(hi)
    a, b = max(lo, x) - min(x, 0.0), hi - min(x, 0.0)
    if b <= a:
        return 0.0
    return 0.5 * (base.mass_above(a) - (base.mass_above(b) if np.isfinite(b) else 0.0))


@summed(sum)
def overlap_integrate(base: LevyMeasure, x: float, fn, lo: float = 0.0, hi: float = math.inf) -> float:
    """int fn(z) m_x(dz) over (lo, hi); ``fn=None`` integrates 1.

    The unit case integrates the bare overlap density, one Python call per
    quadrature node fewer than a constant ``fn``.
    """
    x = float(x)
    lo = max(float(lo), 0.0)
    hi = float(hi)
    if base.is_zero or hi <= lo:
        return 0.0
    total = sum(
        m if fn is None else m * float(fn(a)) for a, m in overlap_atoms(base, x) if lo < a <= hi
    )
    slo, shi = base.density_support()
    a = max(lo, slo, slo + x, 0.0 if x <= 0 else x)
    b = min(hi, shi, shi + x)
    if b <= a:
        return total
    # _overlap_dens1 inlined: one Python call per quadrature node fewer
    dens = base._dens1
    if fn is None:
        integrand = lambda z: 0.0 if z <= 0.0 else 0.5 * min(dens(z), dens(z - x))
    else:
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
    atoms = base.atoms()
    for a, m in atoms:
        mask = np.abs(z - a) <= ATOM_SLACK * max(1.0, abs(a))
        if mask.any():
            shifted = np.zeros(int(mask.sum()))
            target = a - x[mask]
            for b_loc, b_mass in atoms:
                hit = (np.abs(target - b_loc) <= ATOM_SLACK * max(1.0, abs(b_loc))) & (target > 0)
                shifted[hit] = b_mass
            out[mask] = 0.5 * np.minimum(1.0, shifted / m)
    out[z <= np.maximum(0.0, x)] = 0.0
    return out
