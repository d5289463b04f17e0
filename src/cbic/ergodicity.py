"""Rate certificates, weighted total-variation distances and decay estimates.

The certificate pipeline turns the drift bounds on the coupling control
function into an explicit exponential-ergodicity rate:

  (1) pick x0 in (0, min(c0, 1)) and kappa with
      c lam0^2 e^{-lam0 x} + mu_x(0,inf) + nu_x(0,inf) >= 2 kappa on [0, x0];
  (2) l >= 1 with V(z) > 12 C0/C1 beyond l;
  (3) lam1 = e^{-lam0 l} Psi(lam0) / lam0;
  (4) q, r_* from the near-zero immigration bound, then r;
  (5) H and theta = max{4, 2H/lam1, 4H/(r kappa x0), 8H/(lam1 psi(r x0/2))};
  (6) lam2 = the minimum of the five regional contraction constants;
  (7) lam = min(C1, lam2)/2 and eps = 4 C0 / (lam2 theta).

x0 is optimized by golden-section search, run for every (lam0, C1) pair at
once, C1 by a geometric sweep, lam0 over a feasibility grid; every emitted
certificate is validated by the grid inequality
eps*LF0 + LV(x) + LV(y) <= -lam G0(x, y), evaluated in one array pass over
every grid point.  Both the search and the grid check give each point the
bits of its evaluation alone.

The V-weighted total-variation distance int (1+V) d|gamma - eta| doubles as
the Wasserstein distance for the cost (2 + V(x) + V(y)) 1{x != y}; both
routes are implemented (atom-by-atom, and an exact small-support transport
LP) and cross-checked in the tests.  Certificates, decay curves and
stationary estimates are returned; ``cbic.cli`` writes them to files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .generator import (
    CouplingControl,
    GeneratorDomainError,
    LyapunovCertificate,
    LyapunovDrift,
    LyapunovFailure,
    WeightFunction,
    _coupling_F0_bound,
    lyapunov_certify,
)
from .measures import overlap_masses
from .mechanisms import ModelSpec, elementwise, phi_eval, psi_eval
from .simulator import (
    CoupledEnsembleResult,
    SimConfig,
    SimulationError,
    simulate_ensembles,
)

__all__ = [
    "CertificateError",
    "TransportError",
    "RateCertificate",
    "ValidationReport",
    "certified_drift",
    "compute_rate_certificate",
    "validate_certificate",
    "render_certificate",
    "wv_exact_discrete",
    "wv_ot_small",
    "DecayEstimate",
    "estimate_wv_decay",
    "StationaryEstimate",
    "estimate_stationary",
]


class TransportError(RuntimeError):
    """The exact transport LP found no optimum (HiGHS takes a cost of 1e20 or more as infinite)."""


class CertificateError(RuntimeError):
    """A pipeline step produced a non-positive constant (with the step name)."""

    def __init__(self, step: str, message: str):
        super().__init__(f"[{step}] {message}")
        self.step = step


@dataclass
class ValidationReport:
    passed: bool
    n_points: int
    n_failures: int
    worst_margin: float  # min over grid of rhs - lhs (negative = violation), or its first nan/inf
    rows: List[Tuple[float, float, float, float]] = field(repr=False, default_factory=list)


# how each certificate constant is obtained, printed next to it in the report, in this order
_PROVENANCE = {
    "lambda0": "non-triviality search over a geometric grid",
    "c0": "end of the leading run of positive overlap masses (1.0 when c > 0)",
    "kappa": "half the grid minimum of c lam0^2 e^(-lam0 x) + overlap masses on [0, x0]",
    "x0": "golden-section search maximizing lambda",
    "l": "smallest level >= 1 with V > 12 C0/C1 beyond it",
    "lambda1": "e^(-lambda0 l) Psi(lambda0)/lambda0",
    "q": "sign-feasible near-zero immigration bound (bisection + grid max)",
    "r_star": "sign-feasible near-zero immigration bound (bisection + grid max)",
    "r": "r_* capped by x0 q / (6 (2c + int_0^1 z^2 mu))",
    "H": "(3/x0)(2c + |b| x0 + g(x0) + int_0^1 z^2 mu)",
    "theta": "max{4, 2H/lambda1, 4H/(r kappa x0), 8H/(lambda1 psi(r x0/2))}",
    "lambda2": "minimum of the five regional contraction constants",
    "C0": "Lyapunov sweep (largest feasible C1 scaled geometrically)",
    "C1": "Lyapunov sweep (largest feasible C1 scaled geometrically)",
    "epsilon": "4 C0 / (lambda2 theta)",
    "lam": "min(C1, lambda2)/2",
}


@dataclass
class RateCertificate:
    """All constants of the rate pipeline and the grid validation report."""

    lambda0: float
    c0: float
    kappa: float
    x0: float
    l: float
    lambda1: float
    q: float
    r_star: float
    r: float
    H: float
    theta: float
    lambda2: float
    C0: float
    C1: float
    epsilon: float
    lam: float
    psi_at_lambda0: float
    weight: WeightFunction
    validation: Optional[ValidationReport] = None

    def __post_init__(self):
        psi_rb = -math.expm1(-self.lambda0 * self.r * self.x0 / 2.0)
        theta_expected = max(
            4.0,
            2.0 * self.H / self.lambda1,
            4.0 * self.H / (self.r * self.kappa * self.x0),
            8.0 * self.H / (self.lambda1 * psi_rb),
        )
        for name, got, want in (
            ("theta", self.theta, theta_expected),
            ("epsilon", self.epsilon, 4.0 * self.C0 / (self.lambda2 * self.theta)),
            ("lambda", self.lam, min(self.C1, self.lambda2) / 2.0),
        ):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
                raise CertificateError("invariants", f"{name} = {got!r} != {want!r}")

    def control(self) -> CouplingControl:
        return CouplingControl(
            lambda0=self.lambda0,
            x0=self.x0,
            theta=self.theta,
            epsilon=self.epsilon,
            l=self.l,
            psi_at_lambda0=self.psi_at_lambda0,
        )


_N_LAMBDA0 = 8


def _lambda0_candidates(model: ModelSpec):
    """(lambda0, Psi(lambda0)) pairs with Psi, Phi > 0, spread over a geometric grid."""
    feas = []
    for l in np.geomspace(1e-3, 1e3, 61):
        l = float(l)
        psi = psi_eval(model.branching, l)
        if psi > 0 and phi_eval(model.immigration, l) > 0:
            feas.append((l, psi))
    if len(feas) <= _N_LAMBDA0:
        return feas
    idx = np.unique(np.round(np.linspace(0, len(feas) - 1, _N_LAMBDA0)).astype(int))
    return [feas[i] for i in idx]


def _overlap_table(model: ModelSpec):
    """Overlap masses mu_x + nu_x, half the fluctuation function
    (:func:`~cbic.measures.kappa`), at 257 equally spaced x in [0, 1]: one array
    evaluation per measure part, each x with the bits of its float alone."""
    xs = np.linspace(0.0, 1.0, 257)
    return xs, 0.5 * (2.0 * overlap_masses(model.mu, xs, 0.0, math.inf)
                 + 2.0 * overlap_masses(model.nu, xs, 0.0, math.inf))


def _q_and_rstar(model: ModelSpec, x0: float, nu_cube: float):
    """Step (4): largest r_* in (0, 1/2] and q > 0 with D <= -q on [0, r_* x0].

    D(x) = (3/x0)(|b| x + g(x)) - 3 beta/(4 x0) - nu_cube/8 is nondecreasing,
    so feasibility reduces to the sign at the right endpoint and the largest
    admissible q is -D(r_* x0).  That equals -max D over any grid on
    [0, r_* x0] ending at r_* x0, the "grid max" of the certificate's
    provenance line.
    """
    slope, b, g = 3.0 / x0, abs(model.b), model.g._unguarded
    drop = 3.0 * model.beta / (4.0 * x0)

    def D(x):
        return slope * (b * x + float(g(x))) - drop - nu_cube / 8.0

    with np.errstate(over="ignore"):  # g beyond the float range is inf, as model.g gives it
        if D(0.0) >= 0.0:
            return None, None
        if D(0.5 * x0) < 0.0:
            r_star = 0.5
        else:
            lo, hi = 0.0, 0.5
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if D(mid * x0) < 0.0:
                    lo = mid
                else:
                    hi = mid
            r_star = lo
        if r_star <= 0.0:
            return None, None
        return -D(r_star * x0), r_star


def _kappa_minima(model: ModelSpec, lambda0: float, table):
    """Step (1) at one lambda0: running minima of c lam0^2 e^(-lam0 x) + mu_x + nu_x
    over the overlap table's x, or None when c lam0^2 is not representable.

    min is exact, so the entry at the last table x <= x0 is the minimum over
    [0, x0]: one exponential per lambda0 serves every x0.
    """
    xs, vals = table
    c_lam2 = model.c * lambda0**2
    if not math.isfinite(c_lam2):
        return None
    return np.minimum.accumulate(c_lam2 * np.exp(-lambda0 * xs) + vals)


def _kappa(minima, row, xs, x0):
    """kappa at x0 from row ``row`` of the stacked :func:`_kappa_minima`, shaved for
    the grid resolution; elementwise over ``row`` and ``x0`` broadcast together."""
    return 0.5 * minima[row, np.searchsorted(xs, x0, "right") - 1] * 0.995


def _x0_constants(model: ModelSpec, x0: float, nu_cube: float, sq_small: float):
    """Steps (4) and H of (5) at one x0: (q, r_star, r, H), or None.

    None of them depends on lambda0 or C1, so a search computes them once per x0.
    H > 0 needs no check.  H = 0 takes c = 0, g(x0) = 0, and |b| x0 and
    int_0^1 z^2 mu both 0 in floats.  Then Psi(lambda) <= |b| lambda +
    (lambda^2/2) int_0^1 z^2 mu is below about 1e-320 lambda^2, so either no
    lambda0 has Psi > 0, or lambda1 < 1e-280 drops every pair before the search.
    """
    q, r_star = _q_and_rstar(model, x0, nu_cube)
    if q is None:
        return None
    denom = 2.0 * model.c + sq_small
    r = r_star if denom <= 0.0 else min(r_star, x0 * q / (6.0 * denom))
    if not r > 0.0:
        return None
    H = 3.0 / x0 * (2.0 * model.c + abs(model.b) * x0 + float(model.g(x0)) + sq_small)
    return q, r_star, r, H


_DEGENERATE = (math.nan,) * 4  # (q, r_star, r, H) of an x0 without constants


def _pipeline_at(lambda0, x0, lam1, c1, kappa, x0_constants):
    """Steps (5)-(7) at candidates (lambda0, lam1, C1, x0) with kappa at x0, elementwise
    over arrays of one shape: the RateCertificate fields that depend on x0, with
    lam = -inf where a candidate degenerates.

    ``x0_constants(x0)`` gives :func:`_x0_constants`; it is called only where
    kappa > 0.  Elsewhere, and where it gives None, the constants are nan, so
    lam1 psi(r x0/2) is nan and fails the check lam1 psi(r x0/2) > 0, which with
    lam1 > 0 also checks psi(r x0/2) > 0.  The arithmetic is IEEE on numpy
    arrays and the two expm1 run element by element, so each candidate has the
    bits of its evaluation alone.  np.fmax and np.fmin pass over a nan, as
    Python's max and min do after a first value that is not nan.
    """
    consts = [(x0_constants(x) or _DEGENERATE) if live else _DEGENERATE
              for x, live in zip(x0.ravel().tolist(), (kappa > 0.0).ravel().tolist())]
    q, r_star, r, H = np.array(consts).T.reshape((4,) + x0.shape)
    with np.errstate(all="ignore"):  # as float arithmetic: inf and nan, no warning
        psi_a = -elementwise(math.expm1, -lambda0 * x0 / 2.0)
        psi_rb = -elementwise(math.expm1, -lambda0 * r * x0 / 2.0)
        rkx, lam1_psi_rb = r * kappa * x0, lam1 * psi_rb
        theta = functools.reduce(np.fmax, (2.0 * H / lam1, 4.0 * H / rkx, 8.0 * H / lam1_psi_rb),
                                 4.0)
        lam1_theta, twice = lam1 * theta, 2.0 * (1.0 + theta)
        lam2 = functools.reduce(np.fmin, (
            lam1_theta * psi_a / twice,
            np.minimum(x0 * kappa, lam1) * theta / (1.0 + theta),
            q / twice,
            np.minimum(rkx / 2.0, lam1) * theta / twice,
            lam1_theta * psi_rb / (8.0 * (1.0 + theta)),
        ))
        ok = (lam1_psi_rb > 0.0) & np.isfinite(theta) & (lam2 > 0.0)
        lam = np.where(ok, np.minimum(c1, lam2) / 2.0, -math.inf)
    return dict(lam=lam, x0=x0, kappa=kappa, q=q, r_star=r_star, r=r, H=H, theta=theta,
                lambda2=lam2)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_x0(evaluate, lo, hi, n):
    """For each of n candidates at once, the x0 in [lo, hi] that maximizes its lam:
    arrays (lam, x0), lam = -inf where every point degenerated.

    ``evaluate(x0)`` gives lam at an array of x0 whose last axis runs over the
    candidates.  20 golden-section steps refine the best of 9 equally spaced
    probes, each step choosing its side per candidate.  Ties go to the smaller
    x0: among the probes, at each step, and among the last two points and the
    best probe.
    """
    probes = np.linspace(lo, hi, 9)
    each = np.arange(n)
    scores = evaluate(np.repeat(probes[:, None], n, axis=1))
    best = np.argmax(scores, axis=0)
    xp, fp = probes[best], scores[best, each]
    a, b = probes[np.maximum(best - 1, 0)], probes[np.minimum(best + 1, probes.size - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = evaluate(x1), evaluate(x2)
    for _ in range(20):
        left = f1 >= f2  # the bracket keeps its left part: ties toward the smaller x0
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        kept_x, kept_f = np.where(left, x1, x2), np.where(left, f1, f2)
        new_x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        new_f = evaluate(new_x)
        x1, f1 = np.where(left, new_x, kept_x), np.where(left, new_f, kept_f)
        x2, f2 = np.where(left, kept_x, new_x), np.where(left, kept_f, new_f)
    xs, fs = np.stack([x1, x2, xp]), np.stack([f1, f2, fp])
    top = fs.max(axis=0)
    return top, xs[np.argmin(np.where(fs == top, xs, math.inf), axis=0), each]


def _search_x0(pairs, minima, xs, lo, hi, x0_constants):
    """The certificate fields of the (lambda0, C1, x0) with the largest lam, or None.

    ``pairs`` lists (row of ``minima``, lambda0, Psi(lambda0), C1, C0, l, lambda1)
    for each (lambda0, C1) pair in search order; all pairs search x0 in lockstep
    (:func:`_golden_x0`), and of equal lams the first pair's wins.
    """
    if not pairs:
        return None
    row, lam0, _, c1, _, _, lam1 = map(np.array, zip(*pairs))

    def evaluate(x0):
        return _pipeline_at(lam0, x0, lam1, c1, _kappa(minima, row, xs, x0), x0_constants)

    lam, x0 = _golden_x0(lambda x0: evaluate(x0)["lam"], lo, hi, len(pairs))
    j = int(np.argmax(lam))  # the first of equals
    if lam[j] == -math.inf:
        return None
    _, lambda0, psi0, c1, c0, l_cut, lam1 = pairs[j]
    k = {name: float(v[j]) for name, v in evaluate(x0).items()}
    return dict(k, lambda0=lambda0, psi_at_lambda0=psi0, C0=c0, C1=c1, l=l_cut, lambda1=lam1,
                epsilon=4.0 * c0 / (k["lambda2"] * k["theta"]))


def certified_drift(model: ModelSpec, weight: WeightFunction) -> LyapunovCertificate:
    """The certificate of :func:`~cbic.generator.lyapunov_certify`; its failure report,
    or a drift outside the generator's domain, raises the ``lyapunov`` CertificateError."""
    try:
        ly = lyapunov_certify(model, weight)
    except GeneratorDomainError as exc:
        raise CertificateError("lyapunov", str(exc)) from exc
    if isinstance(ly, LyapunovFailure):
        raise CertificateError("lyapunov", str(ly))
    return ly


def compute_rate_certificate(
    model: ModelSpec, weight: WeightFunction, *, grid: int = 101
) -> RateCertificate:
    """Run the full rate pipeline and validate the result on a grid x grid check.

    Each condition fails by one raise of :class:`CertificateError` named after
    its step (``non-triviality``, ``fluctuation``, ``lyapunov``); the
    ``lyapunov`` one carries the report of :func:`~cbic.generator.lyapunov_certify`,
    whose (C1, C0) pairs the search visits.

    The search golden-section searches x0 for every (lambda0, C1) pair at once,
    one array of candidates per step (:func:`_search_x0`).  Each quantity is
    computed once for the values it depends on, and nothing is kept beyond
    this call:

    - once: the overlap table (:func:`_overlap_table`), one array evaluation
      per measure part;
    - per lambda0: the running minima of kappa's table (:func:`_kappa_minima`),
      stacked one row per lambda0, which every x0 reads at its last table point;
    - per (lambda0, C1): l and lambda1;
    - per distinct x0: q, r_star, r and H (:func:`_x0_constants`), which
      depend on neither lambda0 nor C1;
    - per (lambda0, C1, x0), elementwise over the pairs: kappa, one gather in
      the stacked minima, then theta, lambda2 and lambda (:func:`_pipeline_at`).

    :func:`validate_certificate` lists what the grid check computes per x,
    per gap and per grid point.
    """
    # Condition 1.1
    cand0 = _lambda0_candidates(model)
    if not cand0:
        raise CertificateError(
            "non-triviality", "no lambda0 with Psi(lambda0) > 0 and Phi(lambda0) > 0"
        )
    # Condition 1.2: c0 is the last x of the leading run of positive overlap masses
    table = _overlap_table(model)
    xs, vals = table
    c0 = 1.0
    if model.c <= 0:
        positive = vals[1:] > 1e-12
        if not positive[0]:
            raise CertificateError("fluctuation", "c = 0 and the overlap masses vanish near 0")
        c0 = float(xs[int(np.cumprod(positive).sum())])
    ly = certified_drift(model, weight)  # Condition 1.3

    sq_small = model.mu.moment(2.0, 0.0, 1.0)
    nu_cube = model.nu.moment(3.0, 0.0, 1.0) + model.nu.mass_above(1.0)  # int min(1, z^3) nu
    hi = min(c0, 1.0) * (1.0 - 1e-9)
    lo = min(1e-4, hi / 8.0)
    rows, pairs = [], []  # the minima of each lambda0; the search's (lambda0, C1) pairs
    for lam0, psi0 in cand0:
        minima = _kappa_minima(model, lam0, table)
        if minima is None:  # kappa's grid is not representable
            continue
        rows.append(minima)
        for c1, c0_ly in ly.pairs:
            l_cut = max(1.0, weight.inverse(12.0 * c0_ly / c1))
            if not np.isfinite(l_cut):
                continue
            lam1 = math.exp(-lam0 * l_cut) * psi0 / lam0
            if lam1 < 1e-280:  # certificate would be denormal-degenerate
                continue
            pairs.append((len(rows) - 1, lam0, psi0, c1, c0_ly, l_cut, lam1))
    x0_constants = functools.cache(lambda x0: _x0_constants(model, x0, nu_cube, sq_small))
    best = _search_x0(pairs, np.array(rows), xs, lo, hi, x0_constants)
    if best is None:
        raise CertificateError(
            "contraction", "every (lambda0, C1, x0) combination degenerated to lambda <= 0"
        )
    cert = RateCertificate(c0=c0, weight=weight, **best)
    report = validate_certificate(model, cert, grid=grid)
    cert.validation = report
    if not report.passed:
        raise CertificateError(
            "grid-validation",
            f"{report.n_failures}/{report.n_points} grid points violate the "
            f"contraction inequality (worst margin {report.worst_margin:.3e})",
        )
    return cert


def validate_certificate(
    model: ModelSpec, cert: RateCertificate, *, grid: int = 101
) -> ValidationReport:
    """Check eps*LF0 + LV(x) + LV(y) <= -lam G0(x, y) with 1e-6 slack.

    The check runs over ``grid`` log-spaced x times ``grid`` log-spaced gaps,
    with y = x - gap, keeping the points with gap <= x in row-major order (x
    outer).  Every constant is read from ``cert``.  The overlap masses of mu and
    nu are computed once per gap, at the float gap
    (:func:`~cbic.measures.overlap_masses`); LV(x), V(x) and phi(x) once per x;
    psi(x - y) once per point, for both the bound and G0.  The rest, the closed
    bound (:func:`~cbic.generator._coupling_F0_bound`), LV(y) and V(y), is
    evaluated in one array pass over every kept point: its IEEE arithmetic on
    numpy arrays and its libm calls element by element, so each point has the
    bits of the bound evaluated at that point alone.  A non-finite margin fails,
    and the first one in row order is reported as the worst margin.
    """
    ctrl = cert.control()
    weight = cert.weight
    drift = LyapunovDrift(model, weight)
    xs = np.geomspace(1e-4, 1e4, grid)
    gaps = np.geomspace(1e-4, 2.0 * cert.l, grid)
    row, col = np.nonzero(gaps <= xs[:, None])  # row-major: the kept gaps of each x in turn
    x = xs[row]
    y = x - gaps[col]
    mum, num = (overlap_masses(m, gaps, 0.0, math.inf)[col] for m in (model.mu, model.nu))
    lv_x, v_x, phi_x = drift.many(xs)[row], weight.value(xs)[row], ctrl.phi(xs)[row]
    psig = ctrl.psi(x - y)
    f0 = _coupling_F0_bound(model, ctrl, x, y, mum, num, psig)
    with np.errstate(all="ignore"):  # as float arithmetic: inf and nan, no warning
        lhs = cert.epsilon * f0 + lv_x + drift.many(y)
        # -lam G0(x, y) = -lam (eps F0(x, y) + V(x) + V(y)), F0 = phi(x) (1 + psi(x - y))
        g0 = np.where(x == y, 0.0, ctrl.epsilon * (phi_x * (1.0 + psig)) + (v_x + weight.value(y)))
        rhs = -cert.lam * g0
        margin = rhs - lhs + 1e-6 * np.abs(rhs) + 1e-12
    odd = margin[~np.isfinite(margin)]
    worst = float(odd[0]) if odd.size else float(margin.min(initial=math.inf))
    n_fail = int(np.count_nonzero(~(np.isfinite(margin) & (margin >= 0))))
    rows = list(zip(x.tolist(), y.tolist(), lhs.tolist(), rhs.tolist()))
    return ValidationReport(n_fail == 0, len(rows), n_fail, worst, rows)


def render_certificate(cert: RateCertificate) -> str:
    lines = ["rate certificate", "================"]
    for name, how in _PROVENANCE.items():
        label = "lambda" if name == "lam" else name
        lines.append(f"{label:>8} = {getattr(cert, name):.10g}    [{how}]")
    lines.append(f"weight   = {cert.weight.kind}")
    if cert.validation is not None:
        v = cert.validation
        lines.append(
            f"validation: {'PASS' if v.passed else 'FAIL'} on {v.n_points} grid points "
            f"(worst margin {v.worst_margin:.3e}, failures {v.n_failures})"
        )
    return "\n".join(lines)


# -- V-weighted total variation ----------------------------------------------


def _as_dist(d):
    atoms, probs = d
    atoms = np.asarray(atoms, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if atoms.shape != probs.shape or atoms.ndim != 1:
        raise ValueError("a discrete distribution is (atoms, probs) of equal 1-d shape")
    if not ((atoms >= 0.0) & (atoms < math.inf)).all():
        raise ValueError("atoms must be finite states >= 0")
    if (probs < -1e-15).any():
        raise ValueError("negative probabilities")
    if not abs(probs.sum() - 1.0) <= 1e-12:  # also refuses a nan probability
        raise ValueError(f"distribution not normalized: sum = {float(probs.sum())!r}")
    return atoms, probs


def wv_exact_discrete(gamma, eta, weight: WeightFunction) -> float:
    """int (1 + V) d|gamma - eta| atom-by-atom over the union support."""
    ga, gp = _as_dist(gamma)
    ea, ep = _as_dist(eta)
    locs = np.unique(np.concatenate([ga, ea]))
    pg = np.zeros_like(locs)
    pe = np.zeros_like(locs)
    np.add.at(pg, np.searchsorted(locs, ga), gp)
    np.add.at(pe, np.searchsorted(locs, ea), ep)
    v = np.asarray(weight.value(locs), dtype=float)
    return float(np.sum((1.0 + v) * np.abs(pg - pe)))


def wv_ot_small(gamma, eta, weight: WeightFunction) -> float:
    """Exact transport value for the cost (2 + V(x) + V(y)) 1{x != y}.

    Solves the transportation LP directly; supports at most 12 atoms a side.
    """
    from scipy.optimize import linprog  # loaded at first use: only `wv` needs it

    ga, gp = _as_dist(gamma)
    ea, ep = _as_dist(eta)
    n, m = ga.size, ea.size
    if n > 12 or m > 12:
        raise ValueError("exact transport solver is limited to 12 atoms per side")
    vg = np.asarray(weight.value(ga), dtype=float)
    ve = np.asarray(weight.value(ea), dtype=float)
    cost = np.where(
        ga[:, None] == ea[None, :], 0.0, 2.0 + vg[:, None] + ve[None, :]
    ).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    res = linprog(
        cost, A_eq=a_eq, b_eq=np.concatenate([gp, ep]), bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise TransportError(f"transport LP failed: {res.message}")
    return float(res.fun)


# -- empirical contraction ------------------------------------------------------


@dataclass
class DecayEstimate:
    times: np.ndarray
    wv_upper: np.ndarray
    se: np.ndarray
    n_uncoupled: np.ndarray
    fitted_rate: float  # minus the slope of the weighted log-linear fit; 0.0 without one
    fit_se: float  # the slope's standard error; inf without a fit


def estimate_wv_decay(res: CoupledEnsembleResult, weight: WeightFunction) -> DecayEstimate:
    """Coupled-pair upper bound on the weighted-TV decay with a log-linear fit.

    The estimator is the empirical mean of (2 + V(X_t) + V(Y_t)) 1{t < T}
    at every recorded time of ``res``, an upper bound on the weighted
    distance between the two time-t laws, all times in one array pass.  A
    degenerate start x0 == y0 yields the identically zero curve.
    """
    ok = ~res.exploded
    n = int(np.count_nonzero(ok))
    if not n:
        raise SimulationError("all coupled paths exploded")
    unc = res.coupling_times[ok] > res.times[:, None]
    vals = np.where(unc, 2.0 + np.asarray(weight.value(res.x_values[:, ok]))
                    + np.asarray(weight.value(res.y_values[:, ok])), 0.0)
    wv = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.full(wv.size, math.inf)
    nunc = np.count_nonzero(unc, axis=1)
    window = (wv > 0) & (wv > 10.0 * se)
    if window.sum() >= 3:
        t_w = res.times[window]
        y_w = np.log(wv[window])
        # relative-error floor keeps exact (zero-variance) points from
        # swamping the weighted fit
        se_eff = np.maximum(se[window], 1e-4 * wv[window])
        w_w = (wv[window] / se_eff) ** 2
        W = np.sum(w_w)
        tbar = np.sum(w_w * t_w) / W
        ybar = np.sum(w_w * y_w) / W
        sxx = np.sum(w_w * (t_w - tbar) ** 2)
        slope = np.sum(w_w * (t_w - tbar) * (y_w - ybar)) / sxx
        resid = y_w - (ybar + slope * (t_w - tbar))
        dof = max(window.sum() - 2, 1)
        slope_se = math.sqrt(max(np.sum(w_w * resid**2) / dof, 0.0) / sxx)
        rate = -float(slope)
    else:
        rate, slope_se = 0.0, math.inf
    return DecayEstimate(res.times, wv, se, nunc, rate, float(slope_se))


@dataclass
class StationaryEstimate:
    atoms: np.ndarray  # bin centers
    probs: np.ndarray
    sample_mean: float
    sample_mean_se: float
    two_start_distance: float
    threshold: float
    converged: bool
    n_samples: int


_STATIONARY_CHAINS = 16
_STATIONARY_BINS = 40


def _stationary_samples(vals, n_samples):
    """Pooled finite samples of one start's chains and their effective count."""
    finite = np.isfinite(vals)
    if not finite.any():
        raise SimulationError("all chains exploded while sampling the stationary law")
    # lag-1 chain autocorrelation -> effective sample count
    rhos = []
    for j in range(vals.shape[1]):
        col = vals[:, j]
        col = col[np.isfinite(col)]
        if col.size > 3 and col.std() > 0:
            rhos.append(float(np.corrcoef(col[:-1], col[1:])[0, 1]))
    rho = float(np.clip(np.mean(rhos) if rhos else 0.0, 0.0, 0.99))
    samples = vals[finite][: n_samples]
    n_eff = max(1.0, samples.size * (1.0 - rho) / (1.0 + rho))
    return samples, n_eff


def estimate_stationary(
    model: ModelSpec,
    cfg: SimConfig,
    burn_in: float,
    n_samples: int,
    *,
    starts: Tuple[float, float] = (0.0, 8.0),
    weight: Optional[WeightFunction] = None,
) -> StationaryEstimate:
    """Binned long-run law with a two-start agreement diagnostic.

    Time samples are pooled from parallel chains after burn-in; the diagnostic
    distance between the two binned laws must stay under a threshold built
    from the binomial sampling error (autocorrelation-adjusted) plus a
    bin-width transport term.  Non-convergence is reported, never hidden.
    """
    weight = weight if weight is not None else WeightFunction.v1()
    # 16 parallel chains per start, sampled every ~0.25 time units after burn-in
    stride = max(1, int(round(0.25 / cfg.dt)))
    per_chain = int(math.ceil(n_samples / _STATIONARY_CHAINS))
    times = burn_in + np.arange(per_chain) * stride * cfg.dt
    run = replace(cfg, t_end=float(times.max()), n_paths=_STATIONARY_CHAINS)
    res = simulate_ensembles(
        model, [(starts[0], cfg.seed), (starts[1], cfg.seed + 1000003)], run, record_times=times
    )
    (s1, n_eff1), (s2, n_eff2) = (_stationary_samples(r.values, n_samples) for r in res)
    pooled = np.concatenate([s1, s2])
    hi = float(np.quantile(pooled, 0.999)) * 1.1 + 1e-9
    edges = np.linspace(0.0, hi, _STATIONARY_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    p1, _ = np.histogram(np.clip(s1, 0, hi - 1e-12), bins=edges)
    p2, _ = np.histogram(np.clip(s2, 0, hi - 1e-12), bins=edges)
    p1 = p1 / p1.sum()
    p2 = p2 / p2.sum()
    v = np.asarray(weight.value(centers), dtype=float)
    dist = float(np.sum((1.0 + v) * np.abs(p1 - p2)))
    var = (1.0 + v) ** 2 * (p1 * (1 - p1) / n_eff1 + p2 * (1 - p2) / n_eff2)
    binwidth = edges[1] - edges[0]
    vprime = float(np.max(np.asarray(weight.deriv(centers), dtype=float)))
    threshold = 3.0 * math.sqrt(float(var.sum())) + 2.0 * binwidth * (1.0 + vprime)
    mix = 0.5 * (p1 + p2)
    mean = float(np.mean(pooled))
    mean_se = float(np.std(pooled, ddof=1) / math.sqrt(min(n_eff1 + n_eff2, pooled.size)))
    return StationaryEstimate(
        atoms=centers,
        probs=mix,
        sample_mean=mean,
        sample_mean_se=mean_se,
        two_start_distance=dist,
        threshold=threshold,
        converged=bool(dist <= threshold),
        n_samples=int(pooled.size),
    )
