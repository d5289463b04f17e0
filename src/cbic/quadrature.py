"""Shared adaptive quadrature for Levy-measure and generator integrals.

Every integral against a Levy measure in this package funnels through
:func:`integrate`, so tolerances and singularity handling live in one place.
Integrands are split at caller-supplied breakpoints (support edges, the z = 1
compensation threshold, density discontinuities).  Where the integrand may be
singular at 0+ (stable and ``from_density`` densities, time integrals; not a
uniform density), the piece touching zero is subdivided geometrically, which
keeps QUADPACK happy on integrable power singularities.  :func:`lower_integral`
and :func:`tail_integral` return a plain float that is ``inf`` when the edge
singularity or the tail is not integrable; a quadrature failure on a piece
raises :class:`QuadratureError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as _sciint

# Tolerances of every QUADPACK piece, fixed at what the certificate pipeline needs.
ABS_TOL = 1e-10
REL_TOL = 1e-8
_LIMIT = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on a subinterval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


def _pieces(lo, hi, breakpoints):
    pts = [lo]
    for b in sorted(set(float(p) for p in breakpoints)):
        if lo < b < hi:
            pts.append(b)
    pts.append(hi)
    return list(zip(pts[:-1], pts[1:]))


def _quad_piece(fn, a, b):
    # with full_output, QUADPACK's complaint comes back as msg instead of a warning
    val, err, info, *msg = _sciint.quad(
        fn, a, b, epsabs=ABS_TOL, epsrel=REL_TOL, limit=_LIMIT, full_output=1
    )
    if msg:
        # QUADPACK gave up; accept the value only if the error estimate is
        # still meaningfully below the result scale.
        if not np.isfinite(val) or err > max(100 * ABS_TOL, 1e-4 * max(1.0, abs(val))):
            raise QuadratureError(
                # QUADPACK's explanation spans several lines; keep it to one
                f"quadrature did not converge on [{a:g}, {b:g}]: {' '.join(msg[0].split())}",
                interval=(a, b),
            )
    if not np.isfinite(val):
        raise QuadratureError(
            f"quadrature returned non-finite value on [{a:g}, {b:g}]", interval=(a, b)
        )
    return val


def integrate(fn, lo, hi, *, breakpoints=(), singular_at_0):
    """Integrate ``fn`` over (lo, hi), hi may be ``np.inf``.

    The interval is split at interior ``breakpoints``.  With ``singular_at_0``,
    a finite piece starting at 0 is cut geometrically toward the origin (7
    QUADPACK calls), so integrable singularities at 0+ converge; else it is one.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return 0.0
    if np.isfinite(hi) and hi > 1e3 * max(lo, 1.0):
        # wide finite ranges defeat QUADPACK outright; split per decade
        k0 = math.ceil(math.log10(max(lo, 1.0)))
        decades = [10.0**k for k in range(k0, int(math.log10(hi)) + 1)]
        breakpoints = tuple(breakpoints) + tuple(decades)
    total = 0.0
    for a, b in _pieces(lo, hi, breakpoints):
        if a == 0.0 and np.isfinite(b) and singular_at_0:
            # geometric subdivision toward the origin-side singularity
            cuts = [b * 10.0**-k for k in range(6, 0, -1) if b * 10.0**-k > 0]
            prev = 0.0
            for c in cuts + [b]:
                total += _quad_piece(fn, prev, c)
                prev = c
        else:
            total += _quad_piece(fn, a, b)
    return total


def lower_integral(fn, lo, hi):
    """Integrate ``fn`` over (lo, hi] when fn may blow up at lo+.

    Dyadic shells shrinking toward ``lo`` must decline geometrically,
    otherwise the singularity is non-integrable and ``inf`` is returned.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        return 0.0
    w = hi - lo
    total = 0.0
    incs = []
    for k in range(48):
        a = lo + w * 2.0 ** -(k + 1)
        b = lo + w * 2.0**-k
        inc = _quad_piece(fn, a, b)
        incs.append(inc)
        total += inc
        if k >= 3 and abs(inc) < max(ABS_TOL, 1e-13 * abs(total)):
            return total
        if k >= 6:
            ratios = [
                abs(i2) / abs(i1) for i1, i2 in zip(incs[-4:-1], incs[-3:]) if abs(i1) > 0
            ]
            if ratios and min(ratios) >= 0.95:
                return math.inf
    rho = abs(incs[-1]) / abs(incs[-2]) if abs(incs[-2]) > 0 else 0.0
    if rho >= 0.95:
        return math.inf
    total += abs(incs[-1]) * rho / (1.0 - rho) if rho > 0 else 0.0
    return total


def tail_integral(fn, lo):
    """Integrate ``fn`` over (lo, inf); a divergent tail returns ``inf``.

    Decade increments over (H, 10H) must settle into a geometric decline;
    a final decade ratio at or above ~1 (the 1/z boundary) is divergent.
    """
    lo = max(float(lo), 0.0)
    horizons = [max(lo, 1.0) * 10.0**k for k in range(0, 12)]
    total = integrate(fn, lo, horizons[0], singular_at_0=True)  # stable or from_density support
    incs = []
    for a, b in zip(horizons[:-1], horizons[1:]):
        incs.append(_quad_piece(fn, a, b))
    scale = max(1.0, abs(total))
    ratios = [
        abs(i2) / abs(i1)
        for i1, i2 in zip(incs[:-1], incs[1:])
        if abs(i1) > 1e-13 * scale and abs(i2) > 1e-13 * scale
    ]
    total += sum(incs)
    if not ratios or abs(incs[-1]) <= 1e-12 * scale:
        return total
    rho = ratios[-1]
    if rho >= 0.95 or any(r >= 1.0 for r in ratios[-3:]):
        return math.inf
    # bound the remaining tail by the trailing geometric envelope
    total += abs(incs[-1]) * rho / (1.0 - rho)
    return total
