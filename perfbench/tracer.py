"""Per-layer tracing from outside the program.

The tracer wraps cbic's public functions at their import sites: every global
of a ``cbic.*`` module that is bound to a traced function is rebound to a
wrapper, and traced methods are replaced on their class.  Each wrapper
belongs to one or more groups.  For a group it records entries from outside
the group (calls), the inclusive time of those entries, and self time (time
not covered by a wrapped child).  Hooks count work at the same boundaries.
``uninstall`` restores every binding, so untraced passes run the plain code.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

BLOCK = 1024  # paths per simulator block (fixed by the simulator's RNG contract)


class _ModuleProxy:
    """Stands in for a module at one import site, overriding some attributes."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


class Tracer:
    def __init__(self):
        self._patches: List[tuple] = []
        self.absent: List[str] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._lv_seen: Dict[int, tuple] = {}

    def reset(self):
        """Zero the statistics in place (hooks hold references to the dicts)."""
        for d in (self.calls, self.incl, self.self_s, self.counts, self._lv_seen):
            d.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_s), "counts": dict(self.counts)}

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, groups, before=None, after=None) -> Callable:
        tr = self
        groups = tuple(groups)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            entered = [g for g in groups if tr._depth[g] == 0]
            for g in groups:
                tr._depth[g] += 1
            frame = [0.0]
            tr._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tr._stack.pop()
                if tr._stack:
                    tr._stack[-1][0] += dt
                for g in groups:
                    tr._depth[g] -= 1
                    tr.self_s[g] += dt - frame[0]
                for g in entered:
                    tr.calls[g] += 1
                    tr.incl[g] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, replacement):
        """Rebind every cbic module global that refers to ``original``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cbic" or name.startswith("cbic.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _function(self, module, name, groups, before=None, after=None):
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        self._rebind(fn, self.wrap(fn, groups, before, after))

    def _method(self, cls, name, groups, before=None, after=None):
        fn = cls.__dict__.get(name)
        if fn is None:
            self.absent.append(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, self.wrap(fn, groups, before, after))
        self._patches.append((cls, name, fn))

    def install(self):
        import scipy.integrate

        from cbic import cli, config, ergodicity, generator, measures, mechanisms, quadrature, simulator

        self.absent = []
        c = self.counts
        quad = scipy.integrate.quad

        def quad_after(args, kwargs, result):
            if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], dict):
                c["quad_evals"] += result[2].get("neval", 0)

        wrapped_quad = self.wrap(quad, ("quadpack",), after=quad_after)
        proxy = _ModuleProxy(scipy.integrate, {"quad": wrapped_quad})
        self._rebind(scipy.integrate, proxy)
        self._rebind(quad, wrapped_quad)

        for name in ("integrate", "lower_integral", "tail_integral"):
            self._function(quadrature, name, ("quadrature",))

        for name in ("integrate", "mass_above", "moment"):
            self._method(mechanisms.LevyMeasure, name, ("mech_measure", "mechanisms"))
        for name in ("psi_eval", "phi_eval"):
            self._function(mechanisms, name, ("mech_transform", "mechanisms"))

        self._function(measures, "overlap_mass", ("overlap_mass",))
        self._function(measures, "overlap_integrate", ("overlap_integrate",))

        def rn_before(args, kwargs):
            z = args[2] if len(args) > 2 else kwargs.get("z")
            c["rn_elems"] += int(getattr(z, "size", 1))

        self._function(measures, "rn_ratio_many", ("rn_ratio",), before=rn_before)

        def lv_before(args, kwargs):
            drift, x = args[0], float(args[1] if len(args) > 1 else kwargs["x"])
            c["lv_calls"] += 1
            seen = self._lv_seen.setdefault(id(drift), (drift, set()))[1]
            if x not in seen:
                seen.add(x)
                c["lv_distinct"] += 1

        self._method(generator.LyapunovDrift, "__call__", ("lv",), before=lv_before)
        self._method(generator.LyapunovDrift, "many", ("lv",))
        self._function(generator, "coupling_generator_F0", ("f0",))
        for name in ("lyapunov_candidates", "lyapunov_certify", "lyapunov_margin"):
            self._function(generator, name, ("lyapunov",))

        def validate_after(args, kwargs, report):
            c["grid_points"] += getattr(report, "n_points", 0)

        self._function(ergodicity, "compute_rate_certificate", ("certificate",))
        self._function(ergodicity, "validate_certificate", ("validate",), after=validate_after)
        self._function(ergodicity, "estimate_wv_decay", ("decay",))
        self._function(ergodicity, "estimate_stationary", ("stationary",))

        def sim_counter(fn_name, steps_key):
            fn = getattr(simulator, fn_name, None)

            def before(args, kwargs):
                cfg = _arg(fn, args, kwargs, "cfg")
                if cfg is not None:
                    c[steps_key] += cfg.n_paths * int(round(cfg.t_end / cfg.dt))
                    c["blocks"] += math.ceil(cfg.n_paths / BLOCK)

            def after(args, kwargs, res):
                c["sim_paths"] += res.exploded.size
                c["sim_exploded"] += int(res.exploded.sum())
                if hasattr(res, "coupling_times"):
                    c["pairs"] += res.coupling_times.size
                    c["pairs_coupled"] += int((res.coupling_times < math.inf).sum())

            return before, after

        b, a = sim_counter("simulate_ensemble", "path_steps")
        self._function(simulator, "simulate_ensemble", ("ensemble",), before=b, after=a)
        b, a = sim_counter("simulate_coupled_ensemble", "pair_steps")
        self._function(simulator, "simulate_coupled_ensemble", ("coupled",), before=b, after=a)

        self._function(config, "load_config", ("config",))
        for mod, name in ((simulator, "write_ensemble_csv"), (simulator, "write_path_dump"),
                          (generator, "write_margin_csv"), (ergodicity, "write_decay_csv")):
            self._function(mod, name, ("write",))
        self.cli_run = self.wrap(cli.run, ("cli",))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._lv_seen.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap, requested_pair_steps: int) -> Dict[str, float]:
    """Per-layer metrics from one snapshot (or the difference of two)."""
    calls, incl, self_s, c = snap["calls"], snap["incl"], snap["self"], snap["counts"]
    g = lambda d, k: float(d.get(k, 0.0))
    lv_calls, lv_distinct = g(c, "lv_calls"), g(c, "lv_distinct")
    return {
        "quadrature.calls": g(calls, "quadrature"),
        "quadrature.s": g(incl, "quadrature"),
        "quadrature.quadpack_calls": g(calls, "quadpack"),
        "quadrature.integrand_evals": g(c, "quad_evals"),
        "mechanisms.measure_calls": g(calls, "mech_measure"),
        "mechanisms.transform_calls": g(calls, "mech_transform"),
        "mechanisms.s": g(incl, "mechanisms"),
        "measures.overlap_mass_calls": g(calls, "overlap_mass"),
        "measures.overlap_mass_s": g(incl, "overlap_mass"),
        "measures.overlap_integrate_calls": g(calls, "overlap_integrate"),
        "measures.overlap_integrate_s": g(incl, "overlap_integrate"),
        "measures.rn_ratio_calls": g(calls, "rn_ratio"),
        "measures.rn_ratio_elems": g(c, "rn_elems"),
        "measures.rn_ratio_s": g(incl, "rn_ratio"),
        "generator.lv_calls": lv_calls,
        "generator.lv_distinct": lv_distinct,
        "generator.lv_hit_ratio": _ratio(lv_calls - lv_distinct, lv_calls),
        "generator.lv_s": g(incl, "lv"),
        "generator.f0_calls": g(calls, "f0"),
        "generator.f0_s": g(incl, "f0"),
        "generator.lyapunov_s": g(incl, "lyapunov"),
        "ergodicity.certificate_s": g(incl, "certificate"),
        "ergodicity.search_s": g(incl, "certificate") - g(incl, "validate"),
        "ergodicity.validate_s": g(incl, "validate"),
        "ergodicity.grid_points": g(c, "grid_points"),
        "ergodicity.grid_points_per_s": _ratio(g(c, "grid_points"), g(incl, "validate")),
        "ergodicity.decay_s": g(self_s, "decay"),
        "ergodicity.stationary_s": g(self_s, "stationary"),
        "simulator.ensemble_s": g(incl, "ensemble"),
        "simulator.path_steps": g(c, "path_steps"),
        "simulator.coupled_s": g(incl, "coupled"),
        "simulator.pair_steps": g(c, "pair_steps"),
        "simulator.pair_step_redundancy": _ratio(g(c, "pair_steps"), requested_pair_steps),
        "simulator.event_pass_width": _ratio(g(c, "rn_elems"), g(calls, "rn_ratio")),
        "simulator.blocks": g(c, "blocks"),
        "simulator.coupled_frac": _ratio(g(c, "pairs_coupled"), g(c, "pairs")),
        "simulator.exploded_frac": _ratio(g(c, "sim_exploded"), g(c, "sim_paths")),
        "config.load_s": g(incl, "config"),
        "cli.self_s": g(self_s, "cli"),
        "cli.write_s": g(incl, "write"),
    }


def diff(after, before):
    return {k: {n: after[k].get(n, 0.0) - before[k].get(n, 0.0) for n in after[k]}
            for k in after}
