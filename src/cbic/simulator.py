"""Path simulation of the branching-immigration-competition jump SDE.

A single path follows an Euler scheme: drift [beta - b x - g(x)] dt, Gaussian
variance 2 c x dt, branching jumps above the truncation level eps thinned at
state-dependent rate x * mu(z > eps) with the (eps, 1] compensator folded
into the drift, immigration jumps at constant rate nu(z > eps) with the
sub-eps mean folded into beta.  Stable branching mechanisms skip thinning and
draw spectrally positive alpha-stable increments directly.

The coupled pair reflects the shared Gaussian component and disassembles
every jump event by an independent uniform into merge / gap-doubling /
shared outcomes with thresholds given by the overlap-measure ratios; jumps
landing in the u-strip (Y, X] move the leader alone.  The jumps below eps
merge an open pair or double its gap at the rates y mu_x(0, eps) + nu_x(0, eps)
of the overlap masses at x = -gap and x = gap (``measures.overlap_mass``).
After the coupling time the pair moves as one path.

RNG: paths are partitioned into fixed 1024-path blocks; each block derives
four Philox streams (Gaussian, branching jumps, immigration jumps,
disassembly uniforms) from (seed, block).  The Gaussian stream is drawn from
only when the scheme has a Gaussian part: c > 0, or branching jumps below eps
whose variance it stands in for.  A lane is one such stream set and its
paths; the block size fixes the streams, and so the outputs, not the
arrays stepped.  Lanes sharing a plan are stepped together as one array, a
group, of at most one worker's share of all the paths and 2^18 paths: 4100
paths are one group on one CPU and groups of 2048, 2048 and 4 on two; the two
16-chain starts of a stationary run are one 32-wide group or two 16-wide
ones.  Every lane draws only from its own streams, in the same sizes and
order as alone; a group transforms the stable increments of a chunk of steps
at once, and each coupled event pass handles all its lanes' events at once.
The groups are stepped in forked worker processes, one per CPU the process
may run on.  Ensembles, and the coupled event log, which lists lane after
lane, are therefore bit-identical for a given (seed, config, model)
regardless of how the work is chunked, grouped or dealt to workers.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .measures import overlap_mass, rn_ratio_many
from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    MechanismError,
    ModelSpec,
    concat,
    phi_eval,
    psi_eval,
    stable_drift_shift,
    summed,
)

GAP_TOL = 1e-9
_BLOCK = 1024
_GROUP_MAX = 1 << 18  # wider groups stepped slower per path on stable and xlog models
_EVENT_BUDGET = 10.0  # expected jump events per step at the reference scale
# a path needing more than this many jump events in one step is treated as
# exploded (its jump intensity alone certifies divergence before x_max)
_LAM_CAP = 1e5
_PREDRAW = 1 << 13  # normals pre-drawn at once per lane group (64 KB)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Discretization, truncation and ensemble controls.

    ``eps`` is the small-jump truncation level; ``None`` resolves it
    automatically (0 for finite-activity measures, else the level keeping the
    expected events per step near the budget at ~10x the initial state).  The
    variance of the truncated small branching jumps is always replaced by a
    matching Gaussian.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    eps: Optional[float] = None
    x_max: float = 1e8
    seed: int = 0
    n_paths: int = 1

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 < self.dt < math.inf and 0 <= self.t_end < math.inf):
            raise SimulationError("need finite dt > 0 and t_end >= 0")
        if self.eps is not None and not 0 <= self.eps < math.inf:
            raise SimulationError("eps must be finite and >= 0")
        if not 0 < self.x_max < math.inf:
            raise SimulationError("x_max must be finite and > 0")
        if self.n_paths < 1:
            raise SimulationError("n_paths must be >= 1")
        if self.seed < 0:
            raise SimulationError("seed must be >= 0")


@dataclass
class Path:
    times: np.ndarray
    values: np.ndarray
    exploded: bool = False
    explosion_time: Optional[float] = None


@dataclass
class CoupledPath:
    times: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    coupling_time: float = math.inf
    lasso_events: List[Tuple[float, str, float]] = field(default_factory=list)
    exploded: bool = False


@dataclass
class EnsembleResult:
    times: np.ndarray
    values: np.ndarray  # (n_times, n_paths); inf after explosion
    exploded: np.ndarray  # (n_paths,) bool


@dataclass
class CoupledEnsembleResult:
    times: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    coupling_times: np.ndarray  # inf where not coupled by t_end
    exploded: np.ndarray
    # (time, sign, pre-event gap, leader jump, follower jump); recorded only
    # on request
    lasso_events: List[Tuple[float, str, float, float, float]] = field(default_factory=list)


# -- stable increments ---------------------------------------------------------


def _kanter_positive_stable(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    # E exp(-lam S) = exp(-lam^alpha), 0 < alpha < 1
    a = (
        np.sin(alpha * u) ** alpha
        * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
        / np.sin(u)
    ) ** (1.0 / (1.0 - alpha))
    return (a / w) ** ((1.0 - alpha) / alpha)


def _cms_standard(alpha: float, beta_skew: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    # S(alpha, beta; 1) with unit scale, alpha != 1
    tb = beta_skew * math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(tb) / alpha
    s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    return (
        s0
        * np.sin(alpha * (u + b0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_stable_increment(alpha: float, dt: float, rng, size: Optional[int] = None):
    """Increment(s) of the spectrally positive alpha-stable driver over dt.

    Normalization: E[exp(-lam * increment)] equals exp(-dt lam^alpha) for
    0 < alpha < 1 (no compensation), exp(+dt lam^alpha) for 1 < alpha < 2
    (full compensation), and exp(dt (lam log lam + (euler_gamma - 1) lam))
    for alpha = 1 (compensation of jumps below 1).
    """
    if not 0.0 < alpha < 2.0:
        raise MechanismError(f"stable index must lie in (0, 2), got {alpha}")
    n = 1 if size is None else int(size)
    out = _stable_transform(alpha, dt, *_stable_draws(alpha, rng, n))
    return float(out[0]) if size is None else out


def _stable_draws(alpha: float, rng, n: int):
    """The angle and exponential draws behind n increments, in stream order."""
    lo, hi = (0.0, math.pi) if alpha < 1.0 else (-math.pi / 2.0, math.pi / 2.0)
    return rng.uniform(lo, hi, n), rng.exponential(1.0, n)


def _stable_transform(alpha: float, dt: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter (alpha < 1) or Chambers-Mallows-Stuck increments from the draws."""
    if alpha == 1.0:
        x = (2.0 / math.pi) * (
            (math.pi / 2.0 + u) * np.tan(u)
            - np.log((math.pi / 2.0) * w * np.cos(u) / (math.pi / 2.0 + u))
        )
        return (math.pi / 2.0) * dt * x + dt * (math.log(math.pi * dt / 2.0) + 1.0 - np.euler_gamma)
    if alpha < 1.0:
        scale = dt ** (1.0 / alpha)
        if scale == 0.0:
            raise SimulationError(
                f"stable increment scale dt^(1/alpha) underflows to 0 "
                f"(alpha = {alpha:g}, dt = {dt:g})"
            )
        return scale * _kanter_positive_stable(alpha, u, w)
    scale = abs(math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
    return dt ** (1.0 / alpha) * scale * _cms_standard(alpha, 1.0, u, w)


# -- jump sampling plans -------------------------------------------------------


class _Component:
    """One sampleable piece of a truncated measure: (mass, draw)."""

    __slots__ = ("mass", "draw")

    def __init__(self, mass: float, draw: Callable[[np.ndarray], np.ndarray]):
        self.mass = mass
        self.draw = draw


@summed(concat)
def _components(part: LevyMeasure, eps: float) -> Tuple[_Component, ...]:
    """A part's sampleable pieces above eps: its atoms, then its density."""
    comps = tuple(
        _Component(m, lambda u, loc=loc: np.full_like(u, loc))
        for loc, m in part.atom_data
        if loc > eps
    )
    lo, hi = part.density_support()
    lo = max(lo, eps)
    if hi <= lo:
        return comps
    if part.kind == "stable":
        mass = part.mass_above(lo)
        alpha = part.alpha
        return comps + (_Component(mass, lambda u, lo=lo, a=alpha: lo * (1.0 - u) ** (-1.0 / a)),)
    if np.isfinite(hi):
        zs = np.linspace(lo, hi, 4097)
    else:
        # cap where all but 1e-12 of the truncated mass lives
        total = part.mass_above(lo)
        probe = max(lo, 1.0)
        while part.mass_above(probe) > 1e-12 * total:
            probe *= 4.0
            if probe > 1e30:
                break
        if lo > 0.0:
            zs = np.geomspace(lo, probe, 4097)
        else:  # geometric from 1e-12 probe, after a first cell that starts at 0
            zs = np.concatenate([[0.0], np.geomspace(1e-12 * probe, probe, 4096)])
    dens = part.density(zs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zs))])
    mass = part.mass_above(lo)
    if cdf[-1] <= 0:
        return comps
    cdf /= cdf[-1]
    return comps + (_Component(mass, lambda u, zs=zs, cdf=cdf: np.interp(u, cdf, zs)),)


class _MeasureSampler:
    """Inverse-CDF / atom-mixture sampler for a measure truncated at eps."""

    def __init__(self, measure: LevyMeasure, eps: float):
        self.components = comps = _components(measure, eps)
        self.total = sum(c.mass for c in comps)
        self._cum = np.cumsum([c.mass for c in comps])

    def draw(self, u_select: np.ndarray, u_pos: np.ndarray) -> np.ndarray:
        z = np.empty_like(u_pos)
        idx = np.searchsorted(self._cum, u_select * self.total)
        idx = np.minimum(idx, len(self.components) - 1)
        for j, comp in enumerate(self.components):
            mask = idx == j
            if mask.any():
                z[mask] = comp.draw(u_pos[mask])
        return z


def resolve_eps(measure: LevyMeasure, cfg: SimConfig, x_ref: float) -> float:
    """Truncation level: 0 for finite activity, else the events-per-step budget."""
    if cfg.eps is not None:
        return cfg.eps
    if measure.is_zero or np.isfinite(measure.mass_above(0.0)):
        return 0.0
    target = _EVENT_BUDGET / (cfg.dt * max(x_ref, 1e-12))
    lo, hi = 1e-12, 1.0
    while measure.mass_above(hi) > target and hi < 1e6:
        hi *= 2.0
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if measure.mass_above(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


class _Plan:
    """Everything the steppers need, precomputed once per run."""

    def __init__(self, model: ModelSpec, cfg: SimConfig, x_ref: float, force_thinning: bool = False):
        self.model = model
        mu, nu = model.mu, model.nu
        self.stable_fast = mu.kind == "stable" and not force_thinning
        self.eps_mu = 0.0 if self.stable_fast else resolve_eps(mu, cfg, max(10.0 * x_ref, 10.0))
        self.eps_nu = resolve_eps(nu, cfg, 1.0)
        if self.stable_fast:
            self.alpha = mu.alpha
            self.sigma = mu.sigma
            # b_eff multiplies -x dt in the drift.  alpha != 1: the raw
            # increment is (un)compensated stable noise and the drift absorbs
            # the z <= 1 compensation shift.  alpha = 1: the increment's
            # exponent and the x log(sigma x) term already carry the full
            # compensation, so the generator drift b applies as is.
            if self.alpha == 1.0:
                self.b_eff = model.b
            else:
                self.b_eff = model.b + self.sigma * stable_drift_shift(self.alpha)
            self.mu_rate = 0.0
            self.mu_sampler = None
            self.mu_small_sq = 0.0
        else:
            if not np.isfinite(mu.mass_above(self.eps_mu)):
                raise SimulationError("branching measure needs eps > 0 (infinite activity)")
            self.mu_rate = mu.mass_above(self.eps_mu)
            self.mu_sampler = _MeasureSampler(mu, self.eps_mu) if self.mu_rate > 0 else None
            # the compensator of the jumps in (eps, 1] joins the linear drift
            self.b_eff = model.b + (mu.moment(1.0, self.eps_mu, 1.0) if self.eps_mu < 1.0 else 0.0)
            self.mu_small_sq = mu.moment(2.0, 0.0, self.eps_mu) if self.eps_mu > 0 else 0.0
        if not np.isfinite(nu.mass_above(self.eps_nu)):
            raise SimulationError("immigration measure needs eps > 0 (infinite activity)")
        self.nu_rate = nu.mass_above(self.eps_nu)
        self.nu_sampler = _MeasureSampler(nu, self.eps_nu) if self.nu_rate > 0 else None
        self.nu_small_lin = nu.moment(1.0, 0.0, self.eps_nu) if self.eps_nu > 0 else 0.0
        if not (math.isfinite(self.mu_small_sq) and math.isfinite(self.nu_small_lin)):
            raise SimulationError(f"the jumps below eps (mu: {self.eps_mu:g}, "
                                  f"nu: {self.eps_nu:g}) have an infinite moment")
        self.beta_eff = model.beta + self.nu_small_lin
        self.x_max = cfg.x_max
        self.g = model.g._unguarded  # steps run inside _drive's np.errstate
        self.c = model.c
        # the terms a step draws and computes: Gaussian (c x, sub-eps variance), g
        self.gaussian = self.c > 0 or self.mu_small_sq > 0
        self.competes = not model.g.is_zero


class _Streams:
    """Per-block generators: Gaussian, mu jumps, nu jumps, disassembly."""

    def __init__(self, seed: int, block: int):
        root = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
        kids = root.spawn(4)
        self.gauss, self.mu, self.nu, self.dis = (
            np.random.Generator(np.random.Philox(k)) for k in kids
        )


def _cat(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class _Group:
    """Lanes stepped as one array, at columns ``cols`` of the driven fields.

    A lane is one (seed, block) stream set and its paths, at columns ``sl``
    of the group for each (streams, sl) in ``lanes``; they share ``plan``.
    """

    def __init__(self, plan: _Plan, start: int):
        self.plan, self.lanes, self.cols = plan, [], slice(start, start)

    def add(self, streams: _Streams, width: int) -> None:
        a, b = self.cols.start, self.cols.stop
        self.lanes.append((streams, slice(b - a, b - a + width)))
        self.cols = slice(a, b + width)

    def per_lane(self, which: str, draw):
        """Each lane's ``draw(rng, sl)`` from its own ``which`` stream, joined on the last axis."""
        return _cat([draw(getattr(s, which), sl) for s, sl in self.lanes])

    def normals(self):
        """Rows of standard normals, each lane's from its own Gaussian stream.

        Rows are drawn in chunks of about _PREDRAW numbers as they are taken;
        k rows drawn at once fill in row order, exactly as k one-row draws.
        """
        k = max(1, _PREDRAW // (self.cols.stop - self.cols.start))
        while True:
            yield from self.per_lane("gauss", lambda r, sl: r.standard_normal((k, sl.stop - sl.start)))

    def increments(self, dt: float, n_steps: int):
        """Rows of stable increments over dt, one row for each of ``n_steps`` steps.

        Each row's draws are the ones a step makes, lane by lane from its own
        mu stream (``_stable_draws``); chunks of about _PREDRAW numbers, never
        past the last step, are transformed at once.
        """
        alpha, width = self.plan.alpha, self.cols.stop - self.cols.start
        k = max(1, _PREDRAW // width)
        while n_steps > 0:
            rows = min(k, n_steps)
            n_steps -= rows
            u, w = np.empty((rows, width)), np.empty((rows, width))
            for r in range(rows):
                for s, sl in self.lanes:
                    u[r, sl], w[r, sl] = _stable_draws(alpha, s.mu, sl.stop - sl.start)
            yield from _stable_transform(alpha, dt, u, w)


def _drive(runs, fields, cfg: SimConfig, record_times, step, start=None, view=None):
    """Step ``runs``, ensembles [(plan, seed)] of cfg.n_paths paths, from ``fields``.

    ``fields`` holds arrays of n_runs * n_paths start values.  Consecutive
    lanes (the 1024-path RNG blocks) sharing a plan are packed into groups of
    at most ceil(n_runs * n_paths / _workers(n_lanes)) paths, one worker's
    share, so that a step's numpy dispatch is paid once per share, and at
    most _GROUP_MAX; a lane is never split.  A group starts from
    ``start(group, slices)``, or the list of its field slices, and
    ``step(state, group, k)`` advances it to step k; ``view(state)``, or the
    state itself, lists the field arrays recorded.  ``group.gauss`` yields
    rows of normals (``_Group.normals``) and ``group.inc`` rows of stable
    increments over cfg.dt (``_Group.increments``); a step takes rows only of
    the terms its plan has, so other groups draw none.  The groups are dealt
    to ``_workers`` processes (see ``_pooled``).  Returns the record times,
    one (n_times, n_runs * n_paths) record per field and the final states.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    rec = np.arange(n_steps + 1) if record_times is None else record_steps(cfg, record_times)
    rec_row = {int(i): r for r, i in enumerate(rec)}
    lanes = [(plan, seed, a) for plan, seed in runs for a in range(0, cfg.n_paths, _BLOCK)]
    cap = min(_GROUP_MAX, -(-len(runs) * cfg.n_paths // _workers(len(lanes))))
    groups: List[_Group] = []
    for plan, seed, a in lanes:
        width = min(_BLOCK, cfg.n_paths - a)
        g = groups[-1] if groups else None
        if g is None or g.plan is not plan or g.cols.stop - g.cols.start + width > cap:
            groups.append(_Group(plan, g.cols.stop if g else 0))
        groups[-1].add(_Streams(seed, a // _BLOCK), width)
    n_workers = _workers(len(groups))
    out = [_records((len(rec), f.size), n_workers > 1) for f in fields]

    def run(i: int):
        g = groups[i]
        g.gauss, g.inc = g.normals(), g.increments(cfg.dt, n_steps)
        state = [f[g.cols].copy() for f in fields]
        state = start(g, state) if start else state
        for k in range(n_steps + 1):
            if k:
                state = step(state, g, k)
            if k in rec_row:
                for o, v in zip(out, view(state) if view else state):
                    o[rec_row[k], g.cols] = v
        g.gauss = g.inc = None  # frees the last pre-drawn chunks
        return state

    # a state, variance, stable increment or competition term beyond the float
    # range is +inf, its exact limit: the path explodes or a -inf drift clamps it;
    # inf - inf is a NaN state, which each step reports as a one-line error
    with np.errstate(over="ignore", invalid="ignore"):
        finals = _pooled(run, len(groups), n_workers)
    return rec * cfg.dt, out, finals


# -- worker processes -------------------------------------------------------------


def _workers(n_groups: int) -> int:
    """Processes to step ``n_groups`` groups: one per CPU this process may run on.

    One, the caller alone, where fork is missing or unsafe: with another Python
    thread alive, a forked child could inherit a lock that thread holds.
    """
    if (n_groups < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_groups)


def _records(shape: Tuple[int, int], shared: bool) -> np.ndarray:
    """An uninitialized float record array, in memory that forked children share if ``shared``."""
    if not shared:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), dtype=float).reshape(shape)


def _run_share(run, share):
    """``run(i)`` for each group index i in ``share``, in order, up to the first failure.

    Returns one (i, final state, error, warnings) per group run.  Warnings are
    recorded, not shown, so that the caller can issue them in group order.
    """
    done = []
    for i in share:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                final, err = run(i), None
            except Exception as exc:  # the group's error, raised by the caller in group order
                final, err = None, exc
        done.append((i, final, err, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        if err is not None:
            break
    return done


def _pooled(run, n_groups: int, n_workers: int) -> list:
    """``run(i)`` for every group i, ``range(w, n_groups, n_workers)`` in worker w.

    Worker 0 is this process; each other worker is a forked child that writes
    nothing itself and sends its final states, error and warnings back pickled
    through a pipe.  Every child is reaped, on success, error or interrupt.
    The warnings are issued again and the final states returned in group
    order, up to the first group that failed, whose error is raised: what a
    serial run shows.
    """
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for w in range(1, n_workers):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(wr, "wb") as fh:
                        pickle.dump(_run_share(run, range(w, n_groups, n_workers)), fh)
                    code = 0
                finally:
                    os._exit(code)  # no exit handlers, no flush of inherited buffers
            os.close(wr)
            children.append((pid, open(r, "rb")))
        done = _run_share(run, range(0, n_groups, n_workers))
        while children:
            pid, fh = children[0]
            data = fh.read()
            fh.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise SimulationError(f"a simulation worker process ended without results "
                                      f"(wait status {status})")
            done += pickle.loads(data)
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    finals = []
    modules = None
    for i, final, err, caught in sorted(done, key=lambda d: d[0]):
        for message, category, filename, lineno in caught:
            if modules is None:
                modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
            # the registry and module name a warning raised in place would use,
            # so that the "default" action still shows it once per location
            mod = modules.get(filename)
            warnings.warn_explicit(
                message, category, filename, lineno, module=getattr(mod, "__name__", None),
                registry=None if mod is None else vars(mod).setdefault("__warningregistry__", {}),
            )
        if err is not None:
            raise err
        finals.append(final)
    return finals


# -- single-path stepping -------------------------------------------------------


def _add_jumps(xn: np.ndarray, g: _Group, which: str, lam, sampler) -> None:
    """Add jump events to ``xn``: per lane, Poisson counts at rates ``lam`` (one
    per path, or a float for all) and then a selector and a position uniform
    per event, all from its ``which`` stream."""
    scalar = isinstance(lam, float)
    counts = g.per_lane(which, lambda r, sl: r.poisson(lam, sl.stop - sl.start) if scalar
                        else r.poisson(lam[sl]))
    if np.count_nonzero(counts):
        u = g.per_lane(which, lambda r, sl: r.random((2, int(counts[sl].sum()))))
        np.add.at(xn, np.repeat(np.arange(xn.size), counts), sampler.draw(u[0], u[1]))


def _drift(plan: _Plan, x: np.ndarray) -> np.ndarray:
    """beta_eff - b_eff x - g(x) at finite states x, with g left out where it vanishes.

    A term a plan lacks (g, or a Gaussian part) is +-0.0 there, and a +- (+-0.0)
    is a bit for bit unless a is -0.0: beta_eff - b_eff x never is (beta_eff >= +0.0),
    nor is x + drift (only -0.0 + -0.0 is -0.0; at x = +-0.0 the drift is >= +0.0).
    """
    drift = plan.beta_eff - plan.b_eff * x
    return drift - plan.g(x) if plan.competes else drift


def _step_single(x: np.ndarray, g: _Group, dt: float, normals: Optional[np.ndarray]) -> np.ndarray:
    """One Euler step of every path of the group, driven by the step's standard
    ``normals``, or ``None`` when the plan has no Gaussian part, and on the
    stable fast path by the group's next row of increments (``g.inc``)."""
    plan = g.plan
    live = np.isfinite(x)
    if plan.mu_rate > 0:
        live &= x * plan.mu_rate * dt <= _LAM_CAP
    xl = np.where(live, x, 0.0)
    xn = xl + _drift(plan, xl) * dt
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
        _add_jumps(xn, g, "mu", xl * plan.mu_rate * dt, plan.mu_sampler)
    if plan.nu_rate > 0:
        _add_jumps(xn, g, "nu", plan.nu_rate * dt, plan.nu_sampler)
    xn = np.maximum(xn, 0.0)
    xn = np.where(live, xn, np.inf)
    ok = xn <= plan.x_max  # False where dead, exploded or NaN
    if np.count_nonzero(ok) < ok.size:
        if np.isnan(xn).any():
            raise SimulationError("single-path Euler step produced a NaN state")
        xn[~ok] = np.inf
    return xn


def record_steps(cfg: SimConfig, record_times: Sequence[float]) -> np.ndarray:
    """Sorted distinct step indices the simulators record for these times.

    Each time snaps to its nearest step, clipped to [0, t_end]; the row k of
    a result recorded at ``record_times`` is the step ``record_steps(...)[k]``.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    return np.unique(
        np.clip(np.round(np.asarray(record_times, dtype=float) / cfg.dt), 0, n_steps).astype(int)
    )


def simulate_ensemble(
    model: ModelSpec, x0, cfg: SimConfig, record_times: Optional[Sequence[float]] = None
) -> EnsembleResult:
    """Euler ensemble of the SDE; values recorded at the requested times."""
    return simulate_ensembles(model, [(x0, cfg.seed)], cfg, record_times)[0]


def simulate_ensembles(
    model: ModelSpec,
    starts: Sequence[Tuple[object, int]],
    cfg: SimConfig,
    record_times: Optional[Sequence[float]] = None,
) -> List[EnsembleResult]:
    """One ensemble of ``cfg.n_paths`` paths per (x0, seed) start, stepped in lockstep.

    Each result equals ``simulate_ensemble(model, x0, replace(cfg, seed=seed))``.
    """
    plans: dict = {}
    runs, cols = [], []
    for x0, seed in starts:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.n_paths,))
        if not ((0 <= x0) & (x0 <= cfg.x_max)).all():  # NaN fails too
            raise SimulationError(f"initial states must lie in [0, x_max = {cfg.x_max:g}]")
        # x_ref enters a plan only through eps_mu: starts resolving the same
        # level share one plan, so their lanes can be stepped together
        plan = _Plan(model, cfg, float(np.max(x0)))
        runs.append((plans.setdefault(plan.eps_mu, plan), seed))
        cols.append(x0)
    times, (out,), _ = _drive(
        runs, [np.concatenate(cols)], cfg, record_times,
        step=lambda xs, g, k: [
            _step_single(xs[0], g, cfg.dt, next(g.gauss) if g.plan.gaussian else None)],
    )
    return [EnsembleResult(times, v, ~np.isfinite(v[-1])) for v in np.split(out, len(starts), 1)]


def simulate_path(model: ModelSpec, x0: float, cfg: SimConfig) -> Path:
    """One path on the full dt-grid."""
    res = simulate_ensemble(model, [x0], replace(cfg, n_paths=1))
    vals = res.values[:, 0]
    exploded = bool(res.exploded[0])
    et = None
    if exploded:
        et = float(res.times[np.argmax(~np.isfinite(vals))])
    return Path(res.times, vals, exploded, et)


# -- coupled stepping -----------------------------------------------------------


class _CoupledState:
    __slots__ = ("x", "y", "coupled", "t_couple", "logs")

    def __init__(self, x0, y0, record_events):
        self.x = x0.copy()
        self.y = y0.copy()
        self.coupled = np.isclose(x0, y0, rtol=0.0, atol=GAP_TOL) | (x0 == y0)
        self.t_couple = np.where(self.coupled, 0.0, np.inf)
        self.y[self.coupled] = self.x[self.coupled]
        self.logs: Optional[dict] = {} if record_events else None  # lane index: its events

    @property
    def events(self) -> Optional[list]:
        """The lasso events, lane after lane, each lane's in the order it logged them."""
        return None if self.logs is None else [e for i in sorted(self.logs) for e in self.logs[i]]


def _log_events(state: _CoupledState, g: _Group, cols, t_now: float, sign: str, gap, dx, dy):
    """Log one lasso event (t_now, sign, pre-event gap, leader jump, follower
    jump) per entry of the arrays ``gap``, ``dx`` and ``dy``, in the log of
    the lane holding that entry's group column ``cols``."""
    lanes = np.searchsorted([sl.stop for _, sl in g.lanes], cols, side="right")
    for i, a, b, c in zip(lanes.tolist(), gap, dx, dy):
        state.logs.setdefault(i, []).append((t_now, sign, float(a), float(b), float(c)))


def _apply_jump_events(state, g, counts, measure, sampler, which, x_start, t_now):
    """Disassemble ``counts[i]`` jump events of path i, one pass per event index, in place.

    The events are of one kind, branching or immigration, with jumps z from
    ``measure`` above eps.  Each event draws z with ``sampler``, from a
    selector and a position uniform of the kind's stream ``which``.  A
    branching event then draws u from that stream, uniform on (0, x_start]
    with ``x_start`` the leader's step-start state: for u in the strip (Y, X]
    the leader jumps alone.  Immigration events, ``x_start`` None, have no
    strip.  Every event draws v from the disassembly stream: v <= rho_up
    merges the pair, rho_up < v <= rho_up + rho_dn doubles the gap, and
    otherwise the pair shares z.  rho_up and rho_dn are the overlap-measure
    ratios at -gap and gap (``rn_ratio_many``).  The follower's new state is
    one of these four cases; merges and doublings of an open gap are logged
    when events are recorded.  A pass draws each lane's uniforms from its own
    streams, in the sizes and order of the lane alone, and samples and
    disassembles the events of all lanes at once.
    """
    rows = 2 if x_start is None else 3
    for k in range(int(counts.max())):
        act = counts > k
        cols = np.flatnonzero(act)
        xa, ya = state.x[cols], state.y[cols]
        u = g.per_lane(which, lambda r, sl: r.random((rows, np.count_nonzero(act[sl]))))
        z = sampler.draw(u[0], u[1])
        alone = np.zeros(cols.size, dtype=bool) if x_start is None else u[2] * x_start[cols] > ya
        v = g.per_lane("dis", lambda r, sl: r.random(np.count_nonzero(act[sl])))
        gap = xa - ya
        rho_up = rn_ratio_many(measure, -gap, z)
        rho_dn = rn_ratio_many(measure, gap, z)
        merge = ~alone & (v <= rho_up)
        down = ~alone & (v > rho_up) & (v <= rho_up + rho_dn)
        state.x[cols] = xa_new = xa + z
        # nested np.where: np.select costs several times as much on a pass's few events
        ya_new = np.where(alone, ya, np.where(merge, xa_new, np.where(down, ya + (z - gap), ya + z)))
        state.y[cols] = ya_new
        if state.logs is not None:
            for sign, m in (("+", merge), ("-", down)):
                m = m & (gap > GAP_TOL)
                _log_events(state, g, cols[m], t_now, sign, gap[m], z[m], ya_new[m] - ya[m])


def _step_coupled(state: _CoupledState, g: _Group, eps_mu, eps_nu, dt, t_now):
    """One Euler step of the coupled pairs, in place; the sub-eps lasso rates
    are the overlap masses below eps (``overlap_mass``) of the open pairs."""
    plan = g.plan
    live = np.isfinite(state.x)
    if plan.mu_rate > 0:
        live &= state.x * plan.mu_rate * dt <= _LAM_CAP
    x = np.where(live, state.x, 0.0)
    y = np.where(live, state.y, 0.0)
    state.x = x + _drift(plan, x) * dt
    state.y = y + _drift(plan, y) * dt
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
        lam = np.where(live, x * plan.mu_rate * dt, 0.0)
        counts = g.per_lane("mu", lambda r, sl: r.poisson(lam[sl]))
        _apply_jump_events(state, g, counts, plan.model.mu, plan.mu_sampler, "mu", x, t_now)
    # immigration events
    if plan.nu_rate > 0:
        counts = g.per_lane("nu", lambda r, sl: r.poisson(plan.nu_rate * dt, sl.stop - sl.start))
        _apply_jump_events(state, g, counts * live, plan.model.nu, plan.nu_sampler, "nu", None, t_now)
    # sub-eps lasso corrections: merges and gap doublings carried by small jumps
    if eps_mu > 0.0 or eps_nu > 0.0:
        u_up, u_dn, z_dn = g.per_lane("dis", lambda r, sl: r.random((3, sl.stop - sl.start)))
        gap = state.x - state.y
        op = np.flatnonzero(live & ~state.coupled & (gap > GAP_TOL))
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
    crossed = live & inside & ~state.coupled & (state.y >= state.x - GAP_TOL)
    state.coupled |= crossed
    state.t_couple[crossed] = t_now + dt
    state.y = np.where(state.coupled, state.x, state.y)
    boom = live & ~(inside & (state.y <= plan.x_max))  # exploded or NaN
    if boom.any():
        if np.isnan(state.x[boom]).any() or np.isnan(state.y[boom]).any():
            raise SimulationError("coupled Euler step produced a NaN state")
        state.x[boom] = np.inf
        state.y[boom] = np.inf
    state.x[~live] = np.inf
    state.y[~live] = np.inf
    return state


def simulate_coupled_ensemble(
    model: ModelSpec,
    x0,
    y0,
    cfg: SimConfig,
    record_times: Optional[Sequence[float]] = None,
    _record_events: bool = False,
) -> CoupledEnsembleResult:
    """Coupled-pair ensemble; leader starts at x0 >= follower y0."""
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.n_paths,))
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (cfg.n_paths,))
    if not ((0 <= y0) & (y0 <= x0) & (x0 <= cfg.x_max)).all():  # NaN fails too
        raise SimulationError(f"coupled start needs 0 <= y0 <= x0 <= x_max = {cfg.x_max:g}")
    # coupling always runs on the thinning representation of the jumps
    plan = _Plan(model, cfg, float(np.max(x0)) if x0.size else 1.0, force_thinning=True)
    # the sub-eps lasso levels: 0 for a zero measure, which has no small jumps
    eps_mu = 0.0 if model.mu.is_zero else plan.eps_mu
    eps_nu = 0.0 if model.nu.is_zero else plan.eps_nu
    times, (xs, ys), finals = _drive(
        [(plan, cfg.seed)], [x0, y0], cfg, record_times,
        start=lambda g, f: _CoupledState(f[0], f[1], _record_events),
        step=lambda st, g, k: _step_coupled(st, g, eps_mu, eps_nu, cfg.dt, (k - 1) * cfg.dt),
        view=lambda st: (st.x, st.y),
    )
    t_couple = np.concatenate([st.t_couple for st in finals])
    events = [e for st in finals for e in st.events or ()]
    exploded = ~np.isfinite(xs[-1])
    return CoupledEnsembleResult(times, xs, ys, t_couple, exploded, events)


def simulate_coupled(model: ModelSpec, x0: float, y0: float, cfg: SimConfig) -> CoupledPath:
    """One coupled pair on the full dt-grid with its lassoing-event log."""
    res = simulate_coupled_ensemble(
        model, [x0], [y0], replace(cfg, n_paths=1), _record_events=True
    )
    return CoupledPath(
        times=res.times,
        x_values=res.x_values[:, 0],
        y_values=res.y_values[:, 0],
        coupling_time=float(res.coupling_times[0]),
        lasso_events=[(t, sign, mag) for t, sign, mag, _dx, _dy in sorted(res.lasso_events)],
        exploded=bool(res.exploded[0]),
    )


# -- transform oracles ----------------------------------------------------------


def solve_vt(mech: BranchingMechanism, lam: float, t: float, dense: bool = False):
    """Backward flow dv/dt = -Psi(v), v_0 = lam, by adaptive Runge-Kutta."""
    from scipy.integrate import solve_ivp  # loaded at first use: no CLI run needs it

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
    from . import quadrature  # loads scipy at first use

    vt, sol = solve_vt(branching, lam, t, dense=True)
    phi_at = lambda s: phi_eval(immigration, float(np.clip(sol.sol(s)[0], 0.0, 1e14)))
    accum = quadrature.integrate(phi_at, 0.0, t, singular_at_0=True)
    return math.exp(-x * vt - accum)


# -- output formats ---------------------------------------------------------------


def write_ensemble_csv(res: EnsembleResult, path) -> None:
    """time, mean, variance, quantiles and explosion fraction per record time.

    Exploded paths are excluded from the moments/quantiles and reported via
    the exploded_frac column.
    """
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    with open(path, "w", newline="") as fh:
        fh.write("time,mean,variance," + ",".join(f"q{int(100 * q):02d}" for q in qs) + ",exploded_frac\n")
        for i, t in enumerate(res.times):
            row = res.values[i]
            alive = row[np.isfinite(row)]
            frac = 1.0 - alive.size / row.size
            if alive.size:
                stats = [alive.mean(), alive.var(ddof=1) if alive.size > 1 else 0.0]
                stats += list(np.quantile(alive, qs))
            else:
                stats = [math.nan] * (2 + len(qs))
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in stats] + [format(frac, ".17g")]
            fh.write(",".join(cells) + "\n")


_DUMP_MAGIC = b"CBEN\x01\x00"


def write_path_dump(res: EnsembleResult, path) -> None:
    """Fixed-width little-endian dump: magic, counts, times, row-major values."""
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<QQ", res.times.size, res.values.shape[1]))
        fh.write(np.ascontiguousarray(res.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(res.values, dtype="<f8").tobytes())


def read_path_dump(path) -> EnsembleResult:
    with open(path, "rb") as fh:
        magic = fh.read(len(_DUMP_MAGIC))
        if magic != _DUMP_MAGIC:
            raise SimulationError("not a path dump file")
        nt, npaths = struct.unpack("<QQ", fh.read(16))
        times = np.frombuffer(fh.read(8 * nt), dtype="<f8").copy()
        vals = np.frombuffer(fh.read(8 * nt * npaths), dtype="<f8").reshape(nt, npaths).copy()
    return EnsembleResult(times, vals, ~np.isfinite(vals[-1]))


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
        xf = _step_single(_step_single(xs[1], g, dt2, z1), g, dt2, z2)
        return _step_single(xs[0], g, cfg.dt, z1 if z1 is None else (z1 + z2) / math.sqrt(2.0)), xf

    x0s = np.full(cfg.n_paths, float(x0))
    _, (x_c, x_f), _ = _drive(
        [(_Plan(model, cfg, float(x0)), cfg.seed)], [x0s, x0s], cfg, [cfg.t_end], step
    )
    x_c, x_f = x_c[-1], x_f[-1]
    se = float(np.std(x_c, ddof=1) / math.sqrt(cfg.n_paths))
    return float(x_c.mean()), float(x_f.mean()), se
