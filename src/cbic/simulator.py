"""Path simulation of the branching-immigration-competition jump SDE.

A single path follows an Euler scheme: drift [beta - b x - g(x)] dt, Gaussian
variance 2 c x dt, branching jumps above the truncation level eps thinned at
state-dependent rate x * mu(z > eps) with the (eps, 1] compensator folded
into the drift, immigration jumps at constant rate nu(z > eps) with the
sub-eps mean folded into beta.  Stable branching mechanisms skip thinning and
draw spectrally positive alpha-stable increments directly.  A path that
passes x_max, or whose jump intensity x mu(z > eps) dt passes _LAM_CAP, is
exploded and stays at inf; a step with no such path runs unmasked (``_step_start``).

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
whose variance it stands in for.  Jump counts are ``Generator.poisson``'s;
the single stepper reads each jump stream ahead from a twin generator and
settles a step whose counts are all surely 0 with one comparison, drawing the
numbers it took only before the stream's next other read
(``_Streams.sure_zero``).  A lane is one such stream set and its
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
regardless of how the work is chunked, grouped or dealt to workers.  Nothing
here writes files: ``cbic.cli`` writes the summaries and the path dump.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .measures import overlap_mass, rn_ratio_many
from .mechanisms import LevyMeasure, ModelSpec, concat, stable_drift_shift, summed

GAP_TOL = 1e-9
_BLOCK = 1024
_GROUP_MAX = 1 << 18  # wider groups stepped slower per path on stable and xlog models
_EVENT_BUDGET = 10.0  # expected jump events per step at the reference scale
# a path needing more than this many jump events in one step is treated as
# exploded (its jump intensity alone certifies divergence before x_max)
_LAM_CAP = 1e5
_PREDRAW = 1 << 13  # normals pre-drawn at once per lane group (64 KB)
# a lane reads ahead (_Streams.sure_zero) only while width x rate bound is below this.  The value
# is the break-even against Generator.poisson of an earlier sure-zero replay of numpy's loop
# (BENCH_31.json); the window's own break-even has not been measured
_AHEAD_GATE = 0.3
_SURE0 = 1.0 - 2.0 ** -40  # u + lam <= this is u < exp(-lam), past any rounding
# numbers a jump stream reads ahead (_Streams.sure_zero), in rows of its lane's width; a lane
# wider than half of it reads none.  us per _counts call at a total rate of 0.016, one CPU of a
# 2-CPU Xeon (BENCH_33.json): 16 paths 9.6 -> 2.3, 256 10.2 -> 5.4, 512 12.0 -> 10.0, and
# 1024, one row, 19.3 -> 19.9
_AHEAD = 1 << 10


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
        if not self.t_end / self.dt < 2.0 ** 63:  # the step count is an int64
            raise SimulationError("t_end / dt must be below 2^63 steps")
        if self.eps is not None and not 0 <= self.eps < math.inf:
            raise SimulationError("eps must be finite and >= 0")
        if not 0 < self.x_max < math.inf:
            raise SimulationError("x_max must be finite and > 0")
        if self.n_paths < 1:
            raise SimulationError("n_paths must be >= 1")
        if self.seed < 0:
            raise SimulationError("seed must be >= 0")


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


def _stable_transform(alpha: float, dt: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter (alpha < 1) or Chambers-Mallows-Stuck increments over dt from the draws.

    E exp(-lam inc) is exp(-dt lam^alpha) for alpha < 1 (no compensation),
    exp(dt lam^alpha) for alpha > 1 (full compensation), and
    exp(dt (lam log lam + (euler_gamma - 1) lam)) for alpha = 1 (jumps below 1).
    """
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
        draw = lambda u, lo=lo, a=part.alpha: lo * (1.0 - u) ** (-1.0 / a)
    else:  # uniform
        draw = lambda u, lo=lo, w=hi - lo: lo + w * u
    return comps + (_Component(part.mass_above(lo), draw),)


class _MeasureSampler:
    """Exact sampler for a measure truncated at eps: u_select picks a part's
    piece by mass, and u_pos gives its jump by the inverse CDF, the location of
    an atom, lo*(1 - u)^(-1/alpha) for a stable part above lo, and
    lo + (hi - lo)*u for a uniform part on (lo, hi)."""

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
            if np.count_nonzero(mask):
                z[mask] = comp.draw(u_pos[mask])
        return z


def resolve_eps(measure: LevyMeasure, cfg: SimConfig, x_ref: float) -> float:
    """Truncation level: 0 for a zero measure, else cfg.eps if set, else 0 for
    finite activity or the events-per-step budget."""
    if measure.is_zero:
        return 0.0
    if cfg.eps is not None:
        return cfg.eps
    if np.isfinite(measure.mass_above(0.0)):
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
        self.g = model.g.on_states()  # steps run inside _drive's np.errstate
        self.c = model.c
        # the terms a step draws and computes: Gaussian (c x, sub-eps variance), g
        self.gaussian = self.c > 0 or self.mu_small_sq > 0
        self.competes = not model.g.is_zero


class _Ahead:
    """A read-ahead window on one jump stream of a lane ``width`` paths wide:
    ``rowmax`` holds the maximum of each of the next rows of ``width`` numbers
    the stream gives, read by ``twin``, or is None; ``taken`` rows are taken."""

    __slots__ = ("twin", "width", "rowmax", "taken")

    def __init__(self, width: int):
        self.twin, self.width = np.random.Generator(np.random.Philox(0)), width
        self.rowmax, self.taken = None, 0


class _Streams:
    """Per-block generators: Gaussian, mu jumps, nu jumps, disassembly.

    A jump stream may run behind its read-ahead window (``sure_zero``): the
    generator under its name then lags by the rows the window gave out, and
    ``rng`` draws them before handing it to any other reader.
    """

    def __init__(self, seed: int, block: int):
        root = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
        kids = root.spawn(4)
        self.gauss, self.mu, self.nu, self.dis = (
            np.random.Generator(np.random.Philox(k)) for k in kids
        )
        self.ahead = {}  # jump stream: its _Ahead window

    def rng(self, which: str) -> np.random.Generator:
        """The generator ``which``, caught up with its window, which it drops."""
        rng, win = getattr(self, which), self.ahead.get(which)
        if win is not None and win.rowmax is not None:
            if win.taken:
                rng.random(win.taken * win.width)
            win.rowmax, win.taken = None, 0
        return rng

    def sure_zero(self, which: str, width: int, top: float) -> bool:
        """Whether the stream's next ``width`` numbers u all have u + top <= _SURE0,
        which takes them without a draw.

        numpy's ``poisson`` then counts 0 at any ``width`` positive rates of at
        most ``top`` (rounding is monotone) and takes exactly these numbers: below
        rate 10 it multiplies uniforms, ``random``'s, until the product is at most
        exp(-rate), and 1 - rate <= exp(-rate).  They are read, row by row, from
        a twin generator that copies the stream's state and reads _AHEAD numbers
        ahead; the stream itself draws the rows taken when ``rng`` hands it out,
        or takes the twin's state when the window runs out.
        """
        win = self.ahead.get(which)
        if win is None:
            win = self.ahead[which] = _Ahead(width)
        if win.rowmax is None or win.taken == len(win.rowmax):
            rng = getattr(self, which)
            if win.rowmax is None:
                win.twin.bit_generator.state = rng.bit_generator.state
            else:  # every row taken: the stream is where the twin is
                rng.bit_generator.state = win.twin.bit_generator.state
            win.rowmax = win.twin.random((_AHEAD // width, width)).max(axis=1).tolist()
            win.taken = 0
        if win.rowmax[win.taken] + top <= _SURE0:
            win.taken += 1
            return True
        return False


class _Group:
    """Lanes stepped as one array, at columns ``cols`` of the driven fields.

    A lane is one (seed, block) stream set and its paths, at columns ``sl``
    of the group for each (streams, sl) in ``lanes``; they share ``plan``.
    ``finite``: the (leader) states its last step left all finite and <= x_max, or None;
    ``top``: their maximum.
    """

    def __init__(self, plan: _Plan, start: int):
        self.plan, self.lanes, self.cols = plan, [], slice(start, start)
        self.finite = self.top = None

    def add(self, streams: _Streams, width: int) -> None:
        a, b = self.cols.start, self.cols.stop
        self.lanes.append((streams, slice(b - a, b - a + width)))
        self.cols = slice(a, b + width)

    def per_lane(self, which: str, draw):
        """Each lane's ``draw(rng, sl)`` from its own ``which`` stream, joined on the last axis."""
        if len(self.lanes) == 1:
            s, sl = self.lanes[0]
            return draw(s.rng(which), sl)
        return np.concatenate([draw(s.rng(which), sl) for s, sl in self.lanes], axis=-1)

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
        mu stream in place, uniforms then exponentials; chunks of about _PREDRAW
        numbers, never past the last step, are transformed at once, with the
        angles lo + (hi - lo) u: ``uniform(lo, hi)``'s values, bit for bit.
        """
        alpha, width = self.plan.alpha, self.cols.stop - self.cols.start
        lo, hi = (0.0, math.pi) if alpha < 1.0 else (-math.pi / 2.0, math.pi / 2.0)
        k = max(1, _PREDRAW // width)
        while n_steps > 0:
            rows = min(k, n_steps)
            n_steps -= rows
            u, w = np.empty((rows, width)), np.empty((rows, width))
            for r in range(rows):
                for s, sl in self.lanes:
                    s.mu.random(out=u[r, sl])
                    s.mu.standard_exponential(out=w[r, sl])
            yield from _stable_transform(alpha, dt, lo + (hi - lo) * u, w)


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
                    data = memoryview(pickle.dumps(_run_share(run, range(w, n_groups, n_workers))))
                    while data:
                        data = data[os.write(wr, data):]
                    code = 0
                finally:
                    os._exit(code)  # no exit handlers, no flush of inherited buffers
            os.close(wr)
            children.append((pid, io.FileIO(r)))
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


def _counts(g: _Group, which: str, lam, top: Optional[float]) -> Optional[np.ndarray]:
    """Per lane, ``Generator.poisson`` jump counts at rates ``lam`` (one per path,
    or a float for all) from its ``which`` stream, or None where every lane counts 0 unread.

    With ``top``, a bound on every rate, a lane of at most _AHEAD // 2 paths whose
    rates are all positive and sum below _AHEAD_GATE at that bound first asks its
    read-ahead window (``_Streams.sure_zero``); a lane it settles counts 0 without a draw.
    """
    scalar, lanes = isinstance(lam, float), g.lanes
    if top is not None:
        lanes = [(s, sl) for s, sl in lanes
                 if not ((n := sl.stop - sl.start) * top < _AHEAD_GATE and 2 * n <= _AHEAD
                         and (lam > 0 if scalar else np.count_nonzero(lam[sl]) == n)
                         and s.sure_zero(which, n, top))]
        if not lanes:
            return None
    draw = lambda r, sl: r.poisson(lam if scalar else lam[sl], sl.stop - sl.start)
    if len(lanes) == len(g.lanes):
        return g.per_lane(which, draw)
    counts = np.zeros(g.cols.stop - g.cols.start, np.int64)
    for s, sl in lanes:
        counts[sl] = draw(s.rng(which), sl)
    return counts


def _add_jumps(xn: np.ndarray, g: _Group, which: str, lam, top, sampler) -> None:
    """Add jump events to ``xn``: per lane, ``_counts`` at rates ``lam`` bounded by
    ``top`` and then a selector and a position uniform per event, all from its
    ``which`` stream."""
    counts = _counts(g, which, lam, top)
    if counts is not None and np.count_nonzero(counts):
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


def _live(plan: _Plan, x: np.ndarray, dt: float):
    """(lam, live, every) at the step-start states ``x``, finite or inf (NaN raises).

    ``lam`` = x mu_rate dt is the branching jump intensity, None without
    thinned branching jumps.  A path is live while ``lam`` is at most
    _LAM_CAP, which it is not at inf, or, with no ``lam``, while x is finite;
    ``every`` says that all paths are.  A step then runs on the states as
    they are; otherwise it steps dead paths from 0, with no jump event (and
    in the single stepper no jump count drawn), and sets them back to inf,
    which leaves every live path's result as is.
    """
    lam = x * plan.mu_rate * dt if plan.mu_rate > 0 else None
    live = x < np.inf if lam is None else lam <= _LAM_CAP
    return lam, live, np.count_nonzero(live) == live.size


def _step_start(g: _Group, x: np.ndarray, dt: float):
    """``_live(g.plan, x, dt)``, without its mask where x is ``g.finite`` (every x finite,
    <= x_max) and x_max mu_rate dt <= _LAM_CAP: rounding is monotone, so then every
    lam = x mu_rate dt <= _LAM_CAP too, and every path is live."""
    plan = g.plan
    if x is g.finite and plan.x_max * plan.mu_rate * dt <= _LAM_CAP:
        return (x * plan.mu_rate * dt if plan.mu_rate > 0 else None), None, True
    return _live(plan, x, dt)


def _step_single(x: np.ndarray, g: _Group, dt: float, normals: Optional[np.ndarray]) -> np.ndarray:
    """One Euler step of every path of the group, driven by the step's standard
    ``normals``, or ``None`` when the plan has no Gaussian part, and on the
    stable fast path by the group's next row of increments (``g.inc``); dead
    paths (``_step_start``) stay at inf."""
    plan = g.plan
    lam, live, every = _step_start(g, x, dt)
    xl = x if every else np.where(live, x, 0.0)
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
        # a dead path draws nothing: a Poisson count at rate 0 takes no number
        top = g.top * plan.mu_rate * dt if x is g.finite else None  # rounding is monotone
        _add_jumps(xn, g, "mu", lam if every else np.where(live, lam, 0.0), top, plan.mu_sampler)
    if plan.nu_rate > 0:  # nor does a dead path draw immigration events
        rate = plan.nu_rate * dt
        _add_jumps(xn, g, "nu", rate if every else np.where(live, rate, 0.0), rate, plan.nu_sampler)
    xn = np.maximum(xn, 0.0)
    if not every:
        xn = np.where(live, xn, np.inf)
    top = float(np.maximum.reduce(xn))  # NaN if any state is
    if top <= plan.x_max:
        g.finite, g.top = xn, top
        return xn
    g.finite = None
    if np.count_nonzero(np.isnan(xn)):
        raise SimulationError("single-path Euler step produced a NaN state")
    xn[~(xn <= plan.x_max)] = np.inf  # dead or exploded
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
    for k in range(int(counts.max()) if np.count_nonzero(counts) else 0):
        act = counts > k
        cols = np.flatnonzero(act)
        xa, ya = state.x[cols], state.y[cols]
        u = g.per_lane(which, lambda r, sl: r.random((rows, np.count_nonzero(act[sl]))))
        z = sampler.draw(u[0], u[1])
        alone = np.zeros(cols.size, dtype=bool) if x_start is None else u[2] * x_start[cols] > ya
        v = g.per_lane("dis", lambda r, sl: r.random(np.count_nonzero(act[sl])))
        gap = xa - ya
        rho_up, rho_dn = rn_ratio_many(measure, np.stack([-gap, gap]), z)
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


def _step_coupled(state: _CoupledState, g: _Group, dt, t_now):
    """One Euler step of the coupled pairs, in place; the sub-eps lasso rates
    are the overlap masses below the plan's eps levels (``overlap_mass``) of the open pairs.

    A pair is live while its leader is (``_step_start``); a live leader is finite
    and at most x_max, and so is its follower.  A dead pair takes no jump
    event, sub-eps lasso, coupling time or explosion check, and stays at inf.
    """
    plan = g.plan
    lam, live, every = _step_start(g, state.x, dt)
    if every:
        x, y = state.x, state.y
    else:
        x, y = np.where(live, state.x, 0.0), np.where(live, state.y, 0.0)
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
        counts = _counts(g, "mu", lam if every else np.where(live, lam, 0.0), None)
        _apply_jump_events(state, g, counts, plan.model.mu, plan.mu_sampler, "mu", x, t_now)
    # immigration events: a dead pair's rate is 0, which takes no number from the stream
    if plan.nu_rate > 0:
        rate = plan.nu_rate * dt
        counts = _counts(g, "nu", rate if every else np.where(live, rate, 0.0), None)
        _apply_jump_events(state, g, counts, plan.model.nu, plan.nu_sampler, "nu", None, t_now)
    # sub-eps lasso corrections: merges and gap doublings carried by small jumps
    if plan.eps_mu > 0.0 or plan.eps_nu > 0.0:
        u_up, u_dn, z_dn = g.per_lane("dis", lambda r, sl: r.random((3, sl.stop - sl.start)))
        gap = state.x - state.y
        open_ = ~state.coupled & (gap > GAP_TOL)
        op = np.flatnonzero(open_ if every else open_ & live)
        gap = gap[op]
        x2 = np.stack([-gap, gap])  # merge rates at -gap, doubling rates at gap
        mu, nu = plan.model.mu, plan.model.nu
        rate_up, rate_dn = (state.y[op] * overlap_mass(mu, x2, 0.0, plan.eps_mu)
                            + overlap_mass(nu, x2, 0.0, plan.eps_nu))
        up = u_up[op] < rate_up * dt  # u < 1: a probability rate * dt needs no cap at 1
        dn = ~up & (u_dn[op] < rate_dn * dt)
        fire_up, fire_dn, gap_dn = op[up], op[dn], gap[dn]
        zz = gap_dn + (max(plan.eps_mu, plan.eps_nu) - gap_dn) * z_dn[fire_dn]
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
    g.finite = state.x if every else None
    if np.count_nonzero(boom):
        g.finite = None
        if np.count_nonzero(np.isnan(state.x[boom])) or np.count_nonzero(np.isnan(state.y[boom])):
            raise SimulationError("coupled Euler step produced a NaN state")
        state.x[boom] = np.inf
        state.y[boom] = np.inf
    if not every:
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
    times, (xs, ys), finals = _drive(
        [(plan, cfg.seed)], [x0, y0], cfg, record_times,
        start=lambda g, f: _CoupledState(f[0], f[1], _record_events),
        step=lambda st, g, k: _step_coupled(st, g, cfg.dt, (k - 1) * cfg.dt),
        view=lambda st: (st.x, st.y),
    )
    t_couple = np.concatenate([st.t_couple for st in finals])
    events = [e for st in finals for e in st.events or ()]
    exploded = ~np.isfinite(xs[-1])
    return CoupledEnsembleResult(times, xs, ys, t_couple, exploded, events)
