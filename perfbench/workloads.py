"""Workload definitions: the fixed list of CLI operations each workload runs.

Every operation is one ``cbic.cli.run(argv)`` call.  Operation seeds and
generated inputs derive from the workload seed alone, so a seed fixes the
whole input set.  Requested work (path-steps, pair-steps) is computed here
from the documented CLI semantics, not read back from the program.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

SHIPPED = ("ergodic_v1", "stable_power_vlog", "critical_cbi", "neveu_xlog")

# The immigration-jump model of the certificate tests: b = 0.6, mu uniform(1, 0, 1),
# beta = 0.2, nu uniform(0.8, 0, 0.9).  Written into the work directory, never configs/.
NU_JUMP_CFG = """\
# Immigration jumps (nu != 0) exercise the sweep term of the coupling drift bound
# and the per-point quadrature of the grid validation.
[branching]
b = 0.6
c = 0.0
mu = uniform rate=1.0 lo=0.0 hi=1.0

[immigration]
beta = 0.2
nu = uniform rate=0.8 lo=0.0 hi=0.9

[competition]
g = none

[sim]
dt = 1e-3
t_end = 1.0
paths = 1000
seed = 7

[certificate]
weight = v1
"""

# estimate_stationary runs this many chains from each of two starts
STATIONARY_CHAINS = 16
STATIONARY_STARTS = 2


@dataclass
class Op:
    label: str                 # unique within the workload, e.g. "rate/ergodic_v1"
    kind: str                  # CLI subcommand
    argv: List[str]
    model: Optional[str] = None
    out: Optional[str] = None  # output directory, or None for stdout-only ops
    expect_rc: int = 0
    expect_step: Optional[str] = None  # certificate step named by an expected exit 1
    path_steps: int = 0        # requested single-path steps
    pair_steps: int = 0        # requested coupled pair-steps
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Op
    configs: List[str]         # config files a CLI run of this workload loads


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _sim_defaults(path: str) -> Dict[str, float]:
    cp = configparser.ConfigParser()
    cp.read(path)
    sec = cp["sim"]
    return {"dt": float(sec.get("dt", "1e-3")), "t_end": float(sec.get("t_end", "1.0"))}


def _steps(t_end: float, dt: float) -> int:
    return int(round(t_end / dt))


class _Builder:
    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.ops: List[Op] = []
        self.cfg_paths = {m: os.path.join(root, "configs", f"{m}.cfg") for m in SHIPPED}
        self.used = set()
        self.inputs = os.path.join(work, "inputs")
        os.makedirs(self.inputs, exist_ok=True)

    def cfg(self, model: str) -> str:
        if model == "nu_jump" and model not in self.cfg_paths:
            path = os.path.join(self.inputs, "nu_jump.cfg")
            with open(path, "w") as fh:
                fh.write(NU_JUMP_CFG)
            self.cfg_paths[model] = path
        self.used.add(self.cfg_paths[model])
        return self.cfg_paths[model]

    def out(self, label: str) -> str:
        return os.path.join(self.work, "out", f"{len(self.ops):02d}-{label.replace('/', '-')}")

    def add(self, kind: str, model: Optional[str], label: str, extra=(), **kw) -> Op:
        argv = [kind]
        out = None
        if model is not None:
            out = self.out(label)
            argv += ["--model", self.cfg(model), "--out", out]
        op = Op(label=label, kind=kind, argv=argv + [str(a) for a in extra], model=model,
                out=out, **kw)
        self.ops.append(op)
        return op

    def simulate(self, model, paths, t_end=None, x0=1.0, tag=""):
        label = f"simulate/{model}{tag}"
        sim = _sim_defaults(self.cfg(model))
        t_end = sim["t_end"] if t_end is None else t_end
        extra = ["--paths", paths, "--t-end", repr(t_end), "--x0", repr(x0),
                 "--seed", derive_seed(self.seed, label)]
        return self.add("simulate", model, label, extra,
                        path_steps=paths * _steps(t_end, sim["dt"]),
                        params={"x0": x0, "t_end": t_end, "paths": paths})

    def couple(self, model, pairs, t_end, x0=2.0, y0=0.0, tag=""):
        label = f"couple/{model}{tag}"
        sim = _sim_defaults(self.cfg(model))
        extra = ["--paths", pairs, "--t-end", repr(t_end), "--x0", repr(x0), "--y0", repr(y0),
                 "--seed", derive_seed(self.seed, label)]
        return self.add("couple", model, label, extra,
                        pair_steps=pairs * _steps(t_end, sim["dt"]),
                        params={"x0": x0, "y0": y0, "t_end": t_end, "paths": pairs})

    def stationary(self, model, burn_in, samples):
        label = f"stationary/{model}"
        dt = _sim_defaults(self.cfg(model))["dt"]
        # estimate_stationary: chains sampled every round(0.25/dt) steps after burn-in
        stride = max(1, int(round(0.25 / dt)))
        per_chain = int(math.ceil(samples / STATIONARY_CHAINS))
        horizon = burn_in + (per_chain - 1) * stride * dt
        extra = ["--burn-in", repr(burn_in), "--samples", samples,
                 "--seed", derive_seed(self.seed, label)]
        return self.add("stationary", model, label, extra,
                        path_steps=STATIONARY_CHAINS * STATIONARY_STARTS * _steps(horizon, dt),
                        params={"burn_in": burn_in, "samples": samples})

    def workload(self, name: str, *warmup) -> Workload:
        """Close the operation list; the warm-up op is built but not listed."""
        ops, self.ops = self.ops, []
        warm = self.add(*warmup)
        return Workload(name, ops, warm, sorted(self.used))

    def law(self, name: str, rng: random.Random) -> str:
        """A discrete law on at most 12 atoms drawn from a shared 0.25-spaced grid."""
        n = rng.randint(3, 12)
        atoms = sorted(rng.sample(range(0, 40), n))
        w = [rng.random() + 0.05 for _ in atoms]
        total = sum(w)
        probs = [x / total for x in w[:-1]]
        probs.append(1.0 - sum(probs))
        path = os.path.join(self.inputs, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write("atom,prob\n")
            for a, p in zip(atoms, probs):
                fh.write(f"{0.25 * a!r},{p!r}\n")
        return path


def certify(root: str, work: str, seed: int) -> Workload:
    b = _Builder(root, work, seed)
    failing = {"critical_cbi", "neveu_xlog"}  # no Lyapunov certificate exists
    for model in SHIPPED + ("nu_jump",):
        rc = 1 if model in failing else 0
        b.add("rate", model, f"rate/{model}", ["--grid", 101], expect_rc=rc,
              expect_step="lyapunov" if rc else None)
        b.add("lyapunov", model, f"lyapunov/{model}", expect_rc=rc)
        b.add("check-generator", model, f"check-generator/{model}")
    rng = random.Random(derive_seed(seed, "wv"))
    for i, weight in enumerate(("v1", "vlog", "v1", "vlog")):
        gamma = b.law(f"wv{i}_gamma", rng)
        eta = b.law(f"wv{i}_eta", rng)
        b.add("wv", None, f"wv/{i}-{weight}",
              ["--gamma", gamma, "--eta", eta, "--weight", weight],
              params={"gamma": gamma, "eta": eta, "weight": weight})
    return b.workload("certify", "check-generator", "ergodic_v1", "warmup", ["--grid", 3])


def ensemble_wide(root: str, work: str, seed: int) -> Workload:
    b = _Builder(root, work, seed)
    b.simulate("ergodic_v1", 8192)
    b.simulate("stable_power_vlog", 8192, t_end=0.1)  # dt = 1e-4: 1000 steps
    b.simulate("critical_cbi", 8192)
    b.simulate("neveu_xlog", 8192)
    b.couple("ergodic_v1", 4096, t_end=0.5)
    b.couple("critical_cbi", 4096, t_end=0.5)
    return b.workload("ensemble-wide",
                      "simulate", "ergodic_v1", "warmup", ["--paths", 1024, "--t-end", "0.01"])


def chains_narrow(root: str, work: str, seed: int) -> Workload:
    b = _Builder(root, work, seed)
    b.stationary("ergodic_v1", burn_in=5.0, samples=2000)
    b.stationary("stable_power_vlog", burn_in=0.5, samples=200)
    # Narrow coupled ensembles on finite-activity models: few event ranks per
    # step, so per-step overhead dominates (rn_ratio calls per op over 30 seeds:
    # max/median 1.4).  Event-heavy coupling on stable_power_vlog and neveu_xlog
    # is left out: their heavy-tailed jumps (alpha = 1/2 and 1, infinite mean)
    # make one op in ~100 cost 20-170x the median, because the pair with the
    # most events sets each step's pass count, and no op size made a workload
    # seed's total steady (one neveu_xlog op took 2.7 s against a median of 0.05 s).
    for i in range(4):
        b.couple("ergodic_v1", 64, t_end=0.5, tag=f"#{i}")
    for i in range(4):
        b.couple("critical_cbi", 64, t_end=0.5, tag=f"#{i}")
    return b.workload("chains-narrow",
                      "couple", "ergodic_v1", "warmup", ["--paths", 16, "--t-end", "0.05"])


WORKLOADS = {"certify": certify, "ensemble-wide": ensemble_wide, "chains-narrow": chains_narrow}
