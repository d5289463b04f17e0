"""Reference oracles the tests compare the package against.

No CLI run needs any of these; each is an independent, slower route to a value
the package computes in closed form or by simulation:

- the backward flow v_t of Psi (:func:`solve_vt`), the Laplace transform of
  the process without competition (:func:`cbi_laplace`) and a
  common-random-number mean at dt and dt/2 (:func:`mean_with_dt_refinement`);
- the coupling generator applied to F0 by quadrature of the two-dimensional
  generator (:func:`coupling_F0_exact`), against which the certificate's
  closed bound is checked;
- the overlap atoms (:func:`overlap_atoms`), and the overlap density and
  integrals against the overlap measure by quadrature
  (:func:`overlap_density`, :func:`overlap_integrate`), with the decade-shell
  tail integral they take over an unbounded range (:func:`tail_integral`);
- the spectrally positive stable increments of one stream
  (:func:`stable_increments`), from the angle and exponential draws of
  ``Generator.uniform`` and ``exponential`` (:func:`stable_draws`);
- the steppers with the live mask (``simulator._live``) at every step, the
  stable increments from :func:`stable_draws` and the mechanism's own g
  (:func:`drift`): :func:`step_single`, :func:`step_coupled` and
  :func:`increments`;
- the rate certificate's x0 search one (lambda0, C1) pair and one x0 at a time
  (:func:`search_x0_per_pair`), the immigration sweep term of the drift
  bound one gap at a time (:func:`sweep_nu_term_per_point`), and the grid check
  one x-row at a time (:func:`validate_certificate_per_row`), with the drift
  bound at one float x (:func:`coupling_F0_bound_per_row`) and the overlap
  masses one gap at a time.

The oracles call ``quadrature.integrate``, ``quadrature._quad_piece``,
``simulator._drive`` and ``simulator._step_single`` through their modules, so
a test that patches one of those patches the oracles too.
"""

from __future__ import annotations

import math

import numpy as np

from cbic import quadrature, simulator
from cbic.ergodicity import ValidationReport
from cbic.generator import CouplingControl, LyapunovDrift, _sweep_nu_term
from cbic.measures import _atom_mass_at, _stable_overlap_moment, overlap_mass
from cbic.mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    MechanismError,
    ModelSpec,
    _power_integral,
    exp_quotient,
    phi_eval,
    psi_eval,
    summed,
)
from cbic.simulator import (
    GAP_TOL,
    SimConfig,
    SimulationError,
    _add_jumps,
    _apply_jump_events,
    _live,
    _log_events,
)


def stable_draws(alpha: float, rng, n: int):
    """The angle and exponential draws behind n increments, in stream order."""
    lo, hi = (0.0, math.pi) if alpha < 1.0 else (-math.pi / 2.0, math.pi / 2.0)
    return rng.uniform(lo, hi, n), rng.exponential(1.0, n)


def stable_increments(alpha: float, dt: float, rng, n: int) -> np.ndarray:
    """n stable increments over dt from one stream, as a lane of one path draws them."""
    return simulator._stable_transform(alpha, dt, *stable_draws(alpha, rng, n))


# -- per-step steppers ----------------------------------------------------------


def increments(self, dt: float, n_steps: int):
    """``simulator._Group.increments`` from :func:`stable_draws`, row by row and lane by lane."""
    alpha, width = self.plan.alpha, self.cols.stop - self.cols.start
    k = max(1, simulator._PREDRAW // width)
    while n_steps > 0:
        rows = min(k, n_steps)
        n_steps -= rows
        u, w = np.empty((rows, width)), np.empty((rows, width))
        for r in range(rows):
            for s, sl in self.lanes:
                u[r, sl], w[r, sl] = stable_draws(alpha, s.mu, sl.stop - sl.start)
        yield from simulator._stable_transform(alpha, dt, u, w)


def drift(plan, x: np.ndarray) -> np.ndarray:
    """beta_eff - b_eff x - g(x), g by ``CompetitionMechanism.__call__``."""
    out = plan.beta_eff - plan.b_eff * x
    return out - plan.model.g(x) if plan.competes else out


def step_single(x: np.ndarray, g, dt: float, normals) -> np.ndarray:
    """``simulator._step_single`` with the live mask (``_live``) at every step."""
    plan = g.plan
    lam, live, every = _live(plan, x, dt)
    xl = x if every else np.where(live, x, 0.0)
    xn = xl + drift(plan, xl) * dt
    if plan.gaussian:
        # 2 c x dt; forming c x dt first keeps a huge c from overflowing at x = 0
        var = 2.0 * (plan.c * xl * dt)
        if plan.mu_small_sq > 0:
            var = var + xl * plan.mu_small_sq * dt
        xn = xn + np.sqrt(np.maximum(var, 0.0)) * normals
    if plan.stable_fast and plan.sigma > 0:
        inc = next(g.inc)
        if plan.alpha == 1.0:
            logdrift = np.where(
                xl > 0, plan.sigma * xl * np.log(np.maximum(plan.sigma * xl, 1e-300)), 0.0
            )
            xn = xn + plan.sigma * xl * inc + logdrift * dt
        else:
            # increments carry the lam^alpha exponent normalization, so the
            # state factor is (sigma x)^(1/alpha): the conditional branching
            # exponent over dt is then exactly dt sigma x lam^alpha
            xn = xn + (plan.sigma * xl) ** (1.0 / plan.alpha) * inc
    elif plan.mu_rate > 0:
        # a dead path draws nothing: a Poisson count at rate 0 takes no number
        _add_jumps(xn, g, "mu", lam if every else np.where(live, lam, 0.0), None, plan.mu_sampler)
    if plan.nu_rate > 0:  # nor does a dead path draw immigration events
        rate = plan.nu_rate * dt
        _add_jumps(xn, g, "nu", rate if every else np.where(live, rate, 0.0), None, plan.nu_sampler)
    xn = np.maximum(xn, 0.0)
    if not every:
        xn = np.where(live, xn, np.inf)
    ok = xn <= plan.x_max  # False where dead, exploded or NaN
    if np.count_nonzero(ok) < ok.size:
        if np.count_nonzero(np.isnan(xn)):
            raise SimulationError("single-path Euler step produced a NaN state")
        xn[~ok] = np.inf
    return xn


def step_coupled(state, g, dt, t_now):
    """``simulator._step_coupled`` with the live mask (``_live``) at every step."""
    plan = g.plan
    eps_mu, eps_nu = plan.eps_mu, plan.eps_nu
    lam, live, every = _live(plan, state.x, dt)
    if every:
        x, y = state.x, state.y
    else:
        x, y = np.where(live, state.x, 0.0), np.where(live, state.y, 0.0)
    state.x = x + drift(plan, x) * dt
    state.y = y + drift(plan, y) * dt
    if plan.gaussian:  # all rows or none: with c = 0, n1 and n2 still go before nc, nl
        gap0 = x - y
        # Gaussian reflection: X gets G1 + G2, Y gets -G1 before coupling
        n1, n2 = next(g.gauss), next(g.gauss)
        g1 = np.sqrt(np.maximum(2.0 * (plan.c * y * dt), 0.0)) * n1
        g2 = np.sqrt(np.maximum(2.0 * (plan.c * gap0 * dt), 0.0)) * n2
        if plan.mu_small_sq > 0:
            nc, nl = next(g.gauss), next(g.gauss)
            gc = np.sqrt(np.maximum(y * plan.mu_small_sq * dt, 0.0)) * nc
            gl = np.sqrt(np.maximum(gap0 * plan.mu_small_sq * dt, 0.0)) * nl
        else:
            gc = gl = 0.0
        state.x = state.x + g1 + g2 + gc + gl
        # only the diffusion part is reflected; the truncated-small-jump
        # correction gc stands in for shared jumps and is common to both
        state.y = state.y + np.where(state.coupled, g1, -g1) + gc
    # branching events (thinning at the step-start leader state)
    if plan.mu_rate > 0:
        lam = lam if every else np.where(live, lam, 0.0)
        counts = g.per_lane("mu", lambda r, sl: r.poisson(lam[sl]))
        _apply_jump_events(state, g, counts, plan.model.mu, plan.mu_sampler, "mu", x, t_now)
    # immigration events: a dead pair's rate is 0, which takes no number from the stream
    if plan.nu_rate > 0:
        rate = plan.nu_rate * dt if every else np.where(live, plan.nu_rate * dt, 0.0)
        counts = g.per_lane("nu", lambda r, sl: r.poisson(rate, sl.stop - sl.start) if every
                            else r.poisson(rate[sl]))
        _apply_jump_events(state, g, counts, plan.model.nu, plan.nu_sampler, "nu", None, t_now)
    # sub-eps lasso corrections: merges and gap doublings carried by small jumps
    if eps_mu > 0.0 or eps_nu > 0.0:
        u_up, u_dn, z_dn = g.per_lane("dis", lambda r, sl: r.random((3, sl.stop - sl.start)))
        gap = state.x - state.y
        open_ = ~state.coupled & (gap > GAP_TOL)
        op = np.flatnonzero(open_ if every else open_ & live)
        gap = gap[op]
        x2 = np.concatenate([-gap, gap])  # merge rates at -gap, doubling rates at gap
        mu, nu = plan.model.mu, plan.model.nu
        rate_up, rate_dn = (state.y[op] * overlap_mass(mu, x2, 0.0, eps_mu).reshape(2, -1)
                            + overlap_mass(nu, x2, 0.0, eps_nu).reshape(2, -1))
        up = u_up[op] < rate_up * dt  # u < 1: a probability rate * dt needs no cap at 1
        dn = ~up & (u_dn[op] < rate_dn * dt)
        fire_up, fire_dn, gap_dn = op[up], op[dn], gap[dn]
        zz = gap_dn + (max(eps_mu, eps_nu) - gap_dn) * z_dn[fire_dn]
        if state.logs is not None:
            _log_events(state, g, fire_up, t_now, "+", gap[up], np.zeros(fire_up.size), gap[up])
            _log_events(state, g, fire_dn, t_now, "-", gap_dn, zz, zz - gap_dn)
        state.y[fire_up] = state.x[fire_up]
        state.x[fire_dn] += zz
        state.y[fire_dn] += zz - gap_dn
    # clamp, merge detection, explosion
    state.x = np.maximum(state.x, 0.0)
    state.y = np.maximum(state.y, 0.0)
    inside = state.x <= plan.x_max  # False where the leader exploded or is NaN
    crossed = inside & ~state.coupled & (state.y >= state.x - GAP_TOL)
    if not every:
        crossed &= live
    if np.count_nonzero(crossed):
        state.coupled |= crossed
        state.t_couple[crossed] = t_now + dt
    state.y = np.where(state.coupled, state.x, state.y)
    boom = ~(inside & (state.y <= plan.x_max))  # exploded or NaN
    if not every:
        boom &= live
    if np.count_nonzero(boom):
        if np.count_nonzero(np.isnan(state.x[boom])) or np.count_nonzero(np.isnan(state.y[boom])):
            raise SimulationError("coupled Euler step produced a NaN state")
        state.x[boom] = np.inf
        state.y[boom] = np.inf
    if not every:
        state.x[~live] = np.inf
        state.y[~live] = np.inf
    return state


# -- transform oracles ----------------------------------------------------------


def solve_vt(mech: BranchingMechanism, lam: float, t: float, dense: bool = False):
    """Backward flow dv/dt = -Psi(v), v_0 = lam, by adaptive Runge-Kutta."""
    from scipy.integrate import solve_ivp

    if lam <= 0:
        raise MechanismError("solve_vt needs lam > 0")
    if t == 0.0:
        return (lam, None) if dense else lam
    cap = 1e14

    def rhs(_s, v):
        return [-psi_eval(mech, float(min(max(v[0], 0.0), cap)))]

    sol = solve_ivp(
        rhs, (0.0, t), [lam], method="RK45", rtol=1e-11, atol=1e-14, dense_output=True
    )
    if not sol.success:
        raise SimulationError(f"v_t solver failed: {sol.message}")
    vt = float(np.clip(sol.y[0, -1], 1e-300, cap))
    return (vt, sol) if dense else vt


def cbi_laplace(
    branching: BranchingMechanism,
    immigration: ImmigrationMechanism,
    x: float,
    lam: float,
    t: float,
) -> float:
    """E[e^{-lam x(t)}] for the no-competition process started at x."""
    if lam <= 0:
        raise MechanismError("cbi_laplace needs lam > 0")
    if t == 0.0:
        return math.exp(-x * lam)
    vt, sol = solve_vt(branching, lam, t, dense=True)
    phi_at = lambda s: phi_eval(immigration, float(np.clip(sol.sol(s)[0], 0.0, 1e14)))
    accum = quadrature.integrate(phi_at, 0.0, t, singular_at_0=True)
    return math.exp(-x * vt - accum)


def mean_with_dt_refinement(model: ModelSpec, x0: float, cfg: SimConfig):
    """Common-random-number mean at t_end for dt and dt/2 (diffusion models).

    Both runs use the ensemble stepper: each pair of dt/2 steps takes normals
    z1 and z2, and the dt step takes (z1 + z2)/sqrt(2), so the difference
    isolates the discretization effect.  Jump parts are not supported here.
    """
    if not model.mu.is_zero or not model.nu.is_zero:
        raise SimulationError("dt-refinement check supports diffusion-only models")
    dt2 = cfg.dt / 2.0

    def step(xs, g, k):
        z1, z2 = (next(g.gauss), next(g.gauss)) if g.plan.gaussian else (None, None)
        xf = simulator._step_single(simulator._step_single(xs[1], g, dt2, z1), g, dt2, z2)
        return simulator._step_single(
            xs[0], g, cfg.dt, z1 if z1 is None else (z1 + z2) / math.sqrt(2.0)), xf

    x0s = np.full(cfg.n_paths, float(x0))
    _, (x_c, x_f), _ = simulator._drive(
        [(simulator._Plan(model, cfg, float(x0)), cfg.seed)], [x0s, x0s], cfg, [cfg.t_end], step
    )
    x_c, x_f = x_c[-1], x_f[-1]
    se = float(np.std(x_c, ddof=1) / math.sqrt(cfg.n_paths))
    return float(x_c.mean()), float(x_f.mean()), se


# -- quadrature over the overlap measure ------------------------------------------


def _shell_sum(fn, edges):
    """Sum ``fn`` over the shells between consecutive ``edges``, which grow
    geometrically toward infinity; may be inf.

    Once the sum is nonzero, a negligible shell from the fourth on ends it.
    The rest is bounded by the geometric series of the last shell ratio; a
    ratio of 0.95 or more means the shells stopped shrinking, and the tail
    is not integrable.
    """
    total, incs = 0.0, []
    for a, b in zip(edges[:-1], edges[1:]):
        inc = quadrature._quad_piece(fn, a, b)
        total += inc
        incs.append(abs(inc))
        if len(incs) > 3 and total != 0.0 and incs[-1] < max(quadrature.ABS_TOL, 1e-13 * abs(total)):
            break
    rho = incs[-1] / incs[-2] if len(incs) > 1 and incs[-2] > 0 else 0.0
    if rho >= 0.95:
        return math.inf
    return total + incs[-1] * rho / (1.0 - rho)


def tail_integral(fn, lo):
    """Integrate ``fn`` over (lo, inf): up to max(lo, 1), then 11 decade shells
    (see :func:`_shell_sum`); a divergent tail returns ``inf``."""
    lo = max(float(lo), 0.0)
    h = max(lo, 1.0)
    head = quadrature.integrate(fn, lo, h, singular_at_0=True)  # fn may be singular at 0+
    return head + _shell_sum(fn, [h * 10.0**k for k in range(12)])


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
    """Scalar overlap_density through ``_dens1`` (within one ulp on a stable part);
    :func:`overlap_integrate`'s integrands inline the same expression."""
    if z <= 0.0:
        return 0.0
    return 0.5 * min(base._dens1(z), base._dens1(z - x))


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
    # _overlap_dens1 inlined: one Python call per quadrature node fewer
    dens = base._dens1
    integrand = lambda z: float(fn(z)) * (0.0 if z <= 0.0 else 0.5 * min(dens(z), dens(z - x)))
    if not np.isfinite(b):
        return total + tail_integral(integrand, a)
    pts = tuple(base.breakpoints()) + tuple(p + x for p in base.breakpoints())
    return total + quadrature.integrate(integrand, a, b, breakpoints=pts,
                                        singular_at_0=base.singular_at_0)


# -- the exact coupled generator ---------------------------------------------------


def phi_second(ctrl: CouplingControl, x: float) -> float:
    """phi''(x) of the control's cubic blend."""
    if x >= ctrl.x0:
        return 0.0
    return 6.0 / ctrl.x0**2 * (1.0 - x / ctrl.x0)


def _phi_diff_minus_linear(ctrl: CouplingControl, x: float, z: float) -> float:
    """phi(x+z) - phi(x) - phi'(x) z, exact piecewise cubic (no cancellation)."""
    x0 = ctrl.x0
    if x >= x0:
        return 0.0
    w = 1.0 - x / x0
    if x + z < x0:
        h = z / x0
        return h * h * (3.0 * w - h)
    return -(w**3) + 3.0 * w * w * z / x0


def coupling_F0_exact(model: ModelSpec, ctrl: CouplingControl, x: float, y: float) -> float:
    """Drift of F0 under the coupling generator at (x, y), x > y >= 0, by
    quadrature of the two-dimensional generator."""
    gap = x - y
    lam0 = ctrl.lambda0
    phix, phipx, phippx = ctrl.phi(x), ctrl.phi_prime(x), phi_second(ctrl, x)
    psig = ctrl.psi(gap)
    psipg = lam0 * math.exp(-lam0 * gap)
    psippg = -lam0 * psipg
    fx = phipx * (1.0 + psig) + phix * psipg
    # Gaussian block: c x Fxx + c y Fyy - 2 c y Fxy
    gauss = model.c * (
        x * (phippx * (1.0 + psig) + 2.0 * phipx * psipg + phix * psippg)
        + 3.0 * y * phix * psippg
        + 2.0 * y * phipx * psipg
    )
    drift = (model.beta - model.b * x - float(model.g(x))) * fx + (
        model.beta - model.b * y - float(model.g(y))
    ) * (-phix * psipg)

    eg = math.exp(-lam0 * gap)

    def shared_jump(z):  # (1 + psi(gap)) [phi(x+z) - phi(x) - phi'(x) z 1{z<=1}]
        lin = _phi_diff_minus_linear(ctrl, x, z) if z <= 1.0 else ctrl.phi(x + z) - phix
        return (1.0 + psig) * lin

    def leader_jump(z):  # F(x+z, y) - F(x, y) - Fx z 1{z<=1}
        phz = ctrl.phi(x + z)
        dpsi = eg * (-math.expm1(-lam0 * z))  # psi(gap+z) - psi(gap)
        if z <= 1.0:
            a = _phi_diff_minus_linear(ctrl, x, z) * (1.0 + psig + dpsi)
            b = phipx * z * dpsi
            c_ = -phix * eg * lam0 * z * exp_quotient(2, lam0 * z)
            return a + b + c_
        return phz * (1.0 + psig + dpsi) - phix * (1.0 + psig)

    nu_shared = model.nu.integrate(lambda z: ctrl.phi(x + z) - phix) * (1.0 + psig)
    mu_leader = model.mu.integrate(leader_jump)
    mu_shared = model.mu.integrate(shared_jump)
    l0 = gauss + drift + nu_shared + gap * mu_leader + y * mu_shared

    dpsi2 = ctrl.psi(2.0 * gap) - psig
    l1 = y * dpsi2 * overlap_integrate(model.mu, gap, lambda z: ctrl.phi(x + z))
    l1 -= y * (1.0 + psig) * overlap_integrate(model.mu, -gap, lambda z: ctrl.phi(x + z))
    l1 += dpsi2 * overlap_integrate(model.nu, gap, lambda z: ctrl.phi(x + z))
    l1 -= (1.0 + psig) * overlap_integrate(model.nu, -gap, lambda z: ctrl.phi(x + z))
    return l0 + l1


# -- the immigration sweep term, one gap at a time ------------------------------------


@summed(sum)
def overlap_moment_per_point(base: LevyMeasure, x: float, k: int, hi: float) -> float:
    """``measures.overlap_moment`` at one float shift, in float arithmetic."""
    if base.kind == "atoms":
        return sum(m * a**k for a, m in overlap_atoms(base, x) if a <= hi)
    if base.kind == "uniform":
        slo, shi = base.support
        a, b = max(slo, slo + x), min(hi, shi, shi + x)
        return _power_integral(0.5 * base.rate, k + 1.0, a, b) if b > a else 0.0
    if base.kind == "stable":
        return _stable_overlap_moment(base, x, k, hi)
    return 0.0


def sweep_nu_term_per_point(model: ModelSpec, ctrl: CouplingControl, x: float, gap: float):
    """``generator._sweep_nu_term`` at one float gap: the overlap moments and mass
    of nu at -gap evaluated at that gap alone."""
    if x >= ctrl.x0 or model.nu.is_zero:
        return 0.0
    x0, nu, w, cut = ctrl.x0, model.nu, 1.0 - x / ctrl.x0, ctrl.x0 - x
    d1, d2, d3 = (nu.moment(k, 0.0, cut) - overlap_moment_per_point(nu, -gap, k, cut)
                  for k in (1, 2, 3))
    above = nu.mass_above(cut) - overlap_mass(nu, -gap, cut, math.inf)
    return -(3.0 * w * w * d1 / x0 - 3.0 * w * d2 / x0**2 + d3 / x0**3) - w**3 * above


# -- the certificate search, one pair and one x0 at a time --------------------------


def pipeline_at_per_point(lambda0, x0, lam1, c1, kappa, x0_constants):
    """Steps (5)-(7) of the rate pipeline at one x0, in float arithmetic: the
    RateCertificate fields that depend on x0, or None."""
    if not kappa > 0.0:
        return None
    consts = x0_constants(x0)
    if consts is None:
        return None
    q, r_star, r, H = consts
    psi_a = -math.expm1(-lambda0 * x0 / 2.0)
    psi_rb = -math.expm1(-lambda0 * r * x0 / 2.0)
    if psi_rb <= 0.0 or lam1 * psi_rb <= 0.0:
        return None
    theta = max(4.0, 2.0 * H / lam1, 4.0 * H / (r * kappa * x0), 8.0 * H / (lam1 * psi_rb))
    if not np.isfinite(theta):
        return None
    lam2 = min(
        lam1 * theta * psi_a / (2.0 * (1.0 + theta)),
        min(x0 * kappa, lam1) * theta / (1.0 + theta),
        q / (2.0 * (1.0 + theta)),
        min(r * kappa * x0 / 2.0, lam1) * theta / (2.0 * (1.0 + theta)),
        lam1 * theta * psi_rb / (8.0 * (1.0 + theta)),
    )
    if not lam2 > 0.0:
        return None
    return dict(lam=min(c1, lam2) / 2.0, x0=x0, kappa=kappa, q=q, r_star=r_star, r=r, H=H,
                theta=theta, lambda2=lam2)


def golden_x0_per_point(evaluate, lo, hi):
    """The constants of the x0 in [lo, hi] that maximizes lam, or None: 20
    golden-section steps from the best of 9 equally spaced probes, one point at a
    time.  Each point is scored (lam or -inf, -x0, constants), so ties go to the
    smaller x0."""

    def score(x0):
        consts = evaluate(x0)
        return (consts["lam"] if consts else -math.inf, -x0, consts)

    probes = np.linspace(lo, hi, 9)
    scored = [score(float(p)) for p in probes]
    best_i = int(np.argmax([s[0] for s in scored]))
    a = probes[max(best_i - 1, 0)]
    b = probes[min(best_i + 1, probes.size - 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    s1 = score(b - inv * (b - a))
    s2 = score(a + inv * (b - a))
    for _ in range(20):
        if s1[0] >= s2[0]:  # ties toward the smaller x0
            b, s2 = -s2[1], s1
            s1 = score(b - inv * (b - a))
        else:
            a, s1 = -s1[1], s2
            s2 = score(a + inv * (b - a))
    cands = [s for s in (s1, s2, scored[best_i]) if s[2] is not None]
    return max(cands, key=lambda s: s[:2])[2] if cands else None


def search_x0_per_pair(pairs, minima, xs, lo, hi, x0_constants):
    """``ergodicity._search_x0`` one (lambda0, C1) pair after another: each pair
    golden-section searches x0 alone, and a later pair wins only with a larger lam."""
    best = None
    for row, lam0, psi0, c1, c0, l_cut, lam1 in pairs:

        def evaluate(x0, row=row, lam0=lam0, lam1=lam1, c1=c1):
            kappa = 0.5 * float(minima[row][np.searchsorted(xs, x0, "right") - 1]) * 0.995
            return pipeline_at_per_point(lam0, x0, lam1, c1, kappa, x0_constants)

        k = golden_x0_per_point(evaluate, lo, hi)
        if k is not None and (best is None or k["lam"] > best["lam"]):
            best = dict(k, lambda0=lam0, psi_at_lambda0=psi0, C0=c0, C1=c1, l=l_cut,
                        lambda1=lam1, epsilon=4.0 * c0 / (k["lambda2"] * k["theta"]))
    return best


# -- the grid check, one x-row at a time ---------------------------------------------


def coupling_F0_bound_per_row(model: ModelSpec, ctrl: CouplingControl, x: float, y, mum, num):
    """``generator._coupling_F0_bound`` at one float x, elementwise over arrays ``y``,
    ``mum`` and ``num``: the x <= x0 terms in float arithmetic, once for the row."""
    y = np.asarray(y, dtype=float)
    gap = x - y
    psig = ctrl.psi(gap)
    with np.errstate(all="ignore"):
        ub = (-model.c * ctrl.lambda0**2 * ctrl.theta * y
              * np.array([math.exp(v) for v in (-ctrl.lambda0 * gap).tolist()]))
        ub = ub - ctrl.theta * (y * mum + num)
        ub = np.where(gap <= ctrl.l, ub - ctrl.lambda1 * ctrl.theta * psig, ub)
        if x <= ctrl.x0:
            i_term = (model.beta - model.b * x - float(model.g(x))) * ctrl.phi_prime(x)
            j_term = 3.0 * x / ctrl.x0**2 * (2.0 * model.c + model.mu.moment(2.0, 0.0, 1.0))
            ub = ub + (y * mum + i_term + j_term) * (1.0 + psig)
            ub = ub + (1.0 + psig) * _sweep_nu_term(model, ctrl, x, gap)
    return ub


def validate_certificate_per_row(model: ModelSpec, cert, *, grid: int = 101) -> ValidationReport:
    """``ergodicity.validate_certificate`` one x-row at a time: the overlap masses one
    float gap at a time, the bound (:func:`coupling_F0_bound_per_row`), LV(y), V(y)
    and psi over each row's kept gaps, and phi(x) at the row's float x."""
    ctrl = cert.control()
    weight = cert.weight
    drift = LyapunovDrift(model, weight)
    xs = np.geomspace(1e-4, 1e4, grid)
    gaps = np.geomspace(1e-4, 2.0 * cert.l, grid)
    mums, nums = (np.array([overlap_mass(m, g) for g in gaps.tolist()])
                  for m in (model.mu, model.nu))
    lv_xs = drift.many(xs)
    v_xs = weight.value(xs)
    rows, margins = [], []
    for x, lv_x, v_x in zip(xs.tolist(), lv_xs.tolist(), v_xs.tolist()):
        keep = gaps <= x
        ys = x - gaps[keep]
        f0 = coupling_F0_bound_per_row(model, ctrl, x, ys, mums[keep], nums[keep])
        with np.errstate(all="ignore"):
            lhs = cert.epsilon * f0 + lv_x + drift.many(ys)
            g0 = np.where(x == ys, 0.0, ctrl.epsilon * (ctrl.phi(x) * (1.0 + ctrl.psi(x - ys)))
                          + (v_x + weight.value(ys)))
            rhs = -cert.lam * g0
            margins.append(rhs - lhs + 1e-6 * np.abs(rhs) + 1e-12)
        rows.extend(zip([x] * ys.size, ys.tolist(), lhs.tolist(), rhs.tolist()))
    margin = np.concatenate(margins or [np.empty(0)])
    odd = margin[~np.isfinite(margin)]
    worst = float(odd[0]) if odd.size else float(margin.min(initial=math.inf))
    n_fail = int(np.count_nonzero(~(np.isfinite(margin) & (margin >= 0))))
    return ValidationReport(n_fail == 0, len(rows), n_fail, worst, rows)
