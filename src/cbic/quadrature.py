"""Shared adaptive quadrature for Levy-measure and generator integrals.

Every integral against a Levy measure that has no closed form funnels through
:func:`integrate`, so tolerances and singularity handling live in one place.
Stable parts (masses, moments, log tails, overlap masses) and uniform parts
(masses, moments, overlap masses) have closed forms and do not come here.
Callers import this module at first use, so a run that needs no quadrature
does not load ``scipy.integrate``.
Integrands are split at caller-supplied breakpoints (support edges, the z = 1
compensation threshold, density discontinuities).  Where the integrand may be
singular at 0+ (stable and ``from_density`` densities, time integrals; not a
uniform density), the piece touching zero is subdivided geometrically, which
keeps QUADPACK happy on integrable power singularities.  :func:`lower_integral`
and :func:`tail_integral` sum geometric shells toward a singular edge or toward
infinity through one routine, :func:`_shell_sum`, and return ``inf`` when the
edge or the tail is not integrable; only ``from_density`` parts reach them, as
every other part has closed forms there.  A quadrature failure on a piece
raises :class:`QuadratureError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as _sciint  # global: perfbench's tracer counts quad here

from .mechanisms import QuadratureError  # re-exported

# Tolerances of every QUADPACK piece, fixed at what the certificate pipeline needs.
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


def _shell_sum(fn, edges):
    """Sum ``fn`` over the shells between consecutive ``edges``, which shrink
    geometrically toward an end where ``fn`` may be singular; may be inf.

    Once the sum is nonzero, a negligible shell from the fourth on ends it.
    The rest is bounded by the geometric series of the last shell ratio; a
    ratio of 0.95 or more means the shells stopped shrinking, and the end is
    not integrable.
    """
    total, incs = 0.0, []
    for a, b in zip(edges[:-1], edges[1:]):
        inc = _quad_piece(fn, min(a, b), max(a, b))
        total += inc
        incs.append(abs(inc))
        if len(incs) > 3 and total != 0.0 and incs[-1] < max(ABS_TOL, 1e-13 * abs(total)):
            break
    rho = incs[-1] / incs[-2] if len(incs) > 1 and incs[-2] > 0 else 0.0
    if rho >= 0.95:
        return math.inf
    return total + incs[-1] * rho / (1.0 - rho)


def lower_integral(fn, lo, hi):
    """Integrate ``fn`` over (lo, hi], hi > lo, when fn may blow up at lo+: 48
    dyadic shells toward ``lo`` (see :func:`_shell_sum`); a divergent edge is ``inf``."""
    return _shell_sum(fn, [lo + (hi - lo) * 2.0**-k for k in range(49)])


def tail_integral(fn, lo):
    """Integrate ``fn`` over (lo, inf): up to max(lo, 1), then 11 decade shells
    (see :func:`_shell_sum`); a divergent tail returns ``inf``."""
    lo = max(float(lo), 0.0)
    h = max(lo, 1.0)
    head = integrate(fn, lo, h, singular_at_0=True)  # fn may be singular at 0+
    return head + _shell_sum(fn, [h * 10.0**k for k in range(12)])
