"""Shared adaptive quadrature for Levy-measure integrals.

Every integral against a Levy measure that has no closed form funnels through
:func:`integrate`, so tolerances and singularity handling live in one place.
Every integral the rate certificate takes of a stable, uniform or atom part is
closed and does not come here.  What does is :meth:`LevyMeasure.integrate`
alone, which ``apply_generator`` takes for ``check-generator``.  Callers
import this module at first use, so a run that needs no quadrature, ``rate``
and ``lyapunov`` among them, does not load ``scipy.integrate``.
Integrands are split at caller-supplied breakpoints (support edges, the z = 1
compensation threshold).  Where the integrand may be singular at 0+ (stable
densities; not a uniform density), the piece touching zero is subdivided
geometrically, which keeps QUADPACK happy on integrable power singularities.
A quadrature failure on a piece raises :class:`QuadratureError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as _sciint  # global: perfbench's tracer counts quad here

from .mechanisms import QuadratureError  # re-exported

# Tolerances of every QUADPACK piece.
ABS_TOL = 1e-10
REL_TOL = 1e-8
_LIMIT = 200


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
