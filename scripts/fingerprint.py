"""Print one sha256 per CLI output of a fixed corpus, to check byte-identity.

Usage::

    python scripts/fingerprint.py [--src DIR] > fingerprint.txt

Each corpus run is ``python -m cbic.cli <command> --model <config> --out out``
in a fresh directory, with ``DIR`` (default: this checkout's ``src``) on
``PYTHONPATH``.  One line is printed per output file, stdout, stderr and exit
code: ``<config> <command> <item> <sha256>``.  ``wv`` runs under the name
``laws``: on two fixed laws under both weights, and on a malformed law, which
exits 2.  Running the script against two source trees and diffing the two
outputs shows whether a change left every output byte-identical.  The
configs are the shipped ones plus nine fixed models written below.  Every
command runs on every config but six: the pure-jump one runs its own two
starts at 0, the small-stable-index one only ``check-generator`` and
``lyapunov``, the stable-immigration one only ``rate`` at grids 31 and 101,
two models whose paths die mid-run only ``simulate`` and ``couple`` (on
one, paths pass ``x_max``, in one 1024-path block and in several; on the
other, a path's jump intensity passes the steppers' cap), and one whose
Lyapunov sweep's C1 underflows to 0 only ``rate`` and ``lyapunov``.  There
are also two runs of several 1024-path blocks on three configs, ``rate`` at the
benchmark's grid of 101 on four more, a ``couple`` start with a
gap of 0.01 (x0 = 1, y0 = 0.99) on two stable ones, and a small-gap
``couple`` on the same two at an eps where jumps below eps merge pairs and
double gaps, once more on mixed_vlog with five 1024-path lanes.  No CLI
output shows the coupled stepper's event log, so each ``couple`` run adds one
more line, ``<config> <label> lasso_events <sha256>``: the hash of ``repr`` of
the ``lasso_events`` of the same ensemble (config, overrides, seed, start,
paths and t_end resolved as the CLI resolves them), run again in a fresh
process through ``simulate_coupled_ensemble(..., _record_events=True)``.
Nothing is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("ergodic_v1", "stable_power_vlog", "critical_cbi", "neveu_xlog")

# finite-activity branching and immigration jumps (the nu-jump model of the tests)
NU_JUMP = """\
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

# stable + atoms + uniform parts in both measures, a diffusion part, power
# competition, automatic truncation (so the small-jump Gaussian is used)
MIXED_VLOG = """\
[branching]
b = 0.4
c = 0.2
mu = stable alpha=0.6 sigma=0.5 + atoms 1.5:0.3 + uniform rate=0.8 lo=0.1 hi=0.7

[immigration]
beta = 0.3
nu = stable alpha=0.5 sigma=0.2 + atoms 0.5:0.4 + uniform rate=0.5 lo=0.0 hi=1.0

[competition]
g = power k=1.2 p=1.5

[sim]
dt = 1e-3
t_end = 1.0
paths = 1000
seed = 11

[certificate]
weight = vlog
"""

# atoms + uniform densities starting at 0, a diffusion part, xlog competition
MIXED_V1 = """\
[branching]
b = 0.8
c = 0.1
mu = atoms 2.0:0.5 + uniform rate=1.0 lo=0.0 hi=1.0

[immigration]
beta = 0.4
nu = atoms 1.0:0.3 + uniform rate=0.6 lo=0.0 hi=0.5

[competition]
g = xlog k=0.5

[sim]
dt = 1e-3
t_end = 1.0
paths = 1000
seed = 5
eps = 0.0

[certificate]
weight = v1
"""

# no immigration, no drift at 0, no Gaussian part and a competition that
# vanishes identically (K = 0): a path started at 0 stays at 0, the edge
# where the sign of a zero sum could show
PURE_JUMP = """\
[branching]
b = 0.5
c = 0.0
mu = uniform rate=1.0 lo=0.0 hi=1.0

[immigration]
beta = 0.0
nu = none

[competition]
g = power k=0.0 p=1.5

[sim]
dt = 1e-3
t_end = 1.0
paths = 1000
seed = 13

[certificate]
weight = v1
"""

# a stable index of 1/20 under the logarithmic weight, whose log tail is
# finite; it runs only the two log-weight checks, check-generator and lyapunov
SMALL_ALPHA_VLOG = """\
[branching]
kind = stable
a = 1.0
c = 0.0
sigma = 1.0
alpha = 0.05

[immigration]
beta = 0.5
nu = none

[competition]
g = power k=3.0 p=1.5

[certificate]
weight = vlog
"""

# a stable immigration part under the logarithmic weight that certifies, so
# that the grid check's immigration sweep term takes its stable branch; it runs
# only ``rate``
STABLE_NU_VLOG = """\
[branching]
b = 0.6
c = 0.2
mu = uniform rate=1.0 lo=0.0 hi=1.0

[immigration]
beta = 0.2
nu = stable alpha=0.5 sigma=0.2

[competition]
g = power k=1.0 p=1.5

[certificate]
weight = vlog
"""

# a Gaussian part and immigration jumps of 2 under x_max = 4: about an eighth
# of the simulated paths and a quarter of the coupled leaders pass x_max
# within t_end, many of these after their pair has coupled
X_MAX_HITS = """\
[branching]
b = 0.5
c = 0.5
mu = uniform rate=2.0 lo=0.0 hi=1.0

[immigration]
beta = 0.3
nu = atoms 2.0:2.0

[competition]
g = none

[sim]
dt = 1e-3
t_end = 1.0
x_max = 4.0
paths = 1000
seed = 17
eps = 0.0

[certificate]
weight = v1
"""

# branching jumps at total rate 1e4: a path's intensity x 1e4 dt passes the
# steppers' cap of 1e5 events per step above x = 1e4, far below x_max, and an
# immigration jump of 2e4 (rate 5) takes about two paths in five there
LAM_CAP = """\
[branching]
b = 0.5
c = 0.0
mu = uniform rate=1e8 lo=0.0 hi=1e-4

[immigration]
beta = 0.3
nu = atoms 2e4:5.0

[competition]
g = none

[sim]
dt = 1e-3
t_end = 1.0
paths = 1000
seed = 19
eps = 0.0

[certificate]
weight = v1
"""

# a drift margin of 4.9e-324, the least positive float: the Lyapunov sweep's
# C1 halves to 0 after one step, and the one positive C1 leaves no
# (lambda0, C1) pair; it runs only ``rate`` and ``lyapunov``
C1_UNDERFLOW = """\
[branching]
b = 5e-324
c = 0.0
mu = none

[immigration]
beta = 0.3
nu = uniform rate=1.0 lo=0.0 hi=1.0

[competition]
g = none

[certificate]
weight = v1
"""

COMMANDS = (
    ("rate-v1", ["rate", "--grid", "31", "--weight", "v1"]),
    ("rate-vlog", ["rate", "--grid", "31", "--weight", "vlog"]),
    ("lyapunov", ["lyapunov"]),
    ("check-generator", ["check-generator"]),
    ("simulate", ["simulate", "--paths", "200", "--t-end", "0.05", "--dump"]),
    ("couple", ["couple", "--paths", "100", "--t-end", "0.05"]),
    ("stationary", ["stationary", "--samples", "200", "--burn-in", "0.5", "--dt", "1e-3"]),
)

# ensembles of several 1024-path blocks, whose groups are stepped in forked
# worker processes on a host with more than one CPU
WIDE_CONFIGS = ("nu_jump", "mixed_vlog", "stable_power_vlog")
WIDE_COMMANDS = (
    ("simulate-wide", ["simulate", "--paths", "2500", "--t-end", "0.05", "--dump"]),
    ("couple-wide", ["couple", "--paths", "2100", "--t-end", "0.05"]),
)

# the benchmark's certificate grid on the three models whose ``rate`` certifies in
# the benchmark, and on mixed_vlog, whose search keeps no candidate
GRID_CONFIGS = ("ergodic_v1", "nu_jump", "stable_power_vlog", "mixed_vlog")
GRID_COMMANDS = (("rate-grid101", ["rate", "--grid", "101"]),)

# a small-gap start on two stable configs: a gap of 0.01 merges and doubles
# within 50 steps, so these runs' event logs are not empty
SMALL_GAP_CONFIGS = ("stable_power_vlog", "mixed_vlog")
SMALL_GAP_COMMANDS = (
    ("couple-x0-1-y0-0.99",
     ["couple", "--x0", "1", "--y0", "0.99", "--paths", "100", "--t-end", "0.05"]),
)

# an eps at which jumps below it carry merges and gap doublings: the small-gap
# runs above log no such sub-eps lasso event
SUB_EPS_COMMANDS = {
    "stable_power_vlog": (
        ("couple-sub-eps", ["couple", "--eps", "0.05", "--dt", "1e-3", "--x0", "1", "--y0", "0.99",
                            "--paths", "64", "--t-end", "0.1"]),
    ),
    "mixed_vlog": (
        ("couple-sub-eps", ["couple", "--eps", "0.2", "--x0", "1", "--y0", "0.95",
                            "--paths", "1024", "--t-end", "0.2"]),
        # five lanes: a worker's share of them is one group whose event passes
        # merge lanes, so the event log shows whether it keeps lane order
        ("couple-sub-eps-wide", ["couple", "--eps", "0.2", "--x0", "1", "--y0", "0.95",
                                 "--paths", "4100", "--t-end", "0.05"]),
    ),
}

# the only runs of the pure-jump model: a single start and a follower at 0
PURE_JUMP_COMMANDS = (
    ("simulate-x0-0", ["simulate", "--x0", "0", "--paths", "200", "--t-end", "0.05", "--dump"]),
    ("couple-x0-1-y0-0", ["couple", "--x0", "1", "--y0", "0", "--paths", "100", "--t-end", "0.05"]),
)


STABLE_NU_COMMANDS = (("rate-vlog", ["rate", "--grid", "31", "--weight", "vlog"]),) + GRID_COMMANDS

SMALL_ALPHA_COMMANDS = (
    ("check-generator", ["check-generator"]),
    ("lyapunov", ["lyapunov"]),
)

# paths that die mid-run, in one lane and in several
X_MAX_COMMANDS = (
    ("simulate", ["simulate", "--paths", "200", "--t-end", "0.2", "--dump"]),
    ("simulate-wide", ["simulate", "--paths", "2500", "--t-end", "0.2", "--dump"]),
    ("couple-x0-2-y0-1.9", ["couple", "--x0", "2", "--y0", "1.9", "--paths", "100", "--t-end", "0.2"]),
    ("couple-x0-2-y0-1.9-wide",
     ["couple", "--x0", "2", "--y0", "1.9", "--paths", "2100", "--t-end", "0.2"]),
)
LAM_CAP_COMMANDS = (
    ("simulate", ["simulate", "--paths", "200", "--t-end", "0.1", "--dump"]),
    ("couple", ["couple", "--paths", "100", "--t-end", "0.1"]),
)

C1_UNDERFLOW_COMMANDS = (("rate", ["rate"]), ("lyapunov", ["lyapunov"]))


# two fixed laws for ``wv``, and one that does not sum to 1
LAWS = {
    "gamma.csv": "atom,prob\n0,0.25\n0.5,0.25\n2,0.5\n",
    "eta.csv": "atom,prob\n0,0.5\n1,0.25\n2,0.25\n",
    "bad.csv": "atom,prob\n0,0.5\n1,0.75\n",
}
WV_COMMANDS = (
    ("wv-v1", ["wv", "--gamma", "gamma.csv", "--eta", "eta.csv", "--weight", "v1"]),
    ("wv-vlog", ["wv", "--gamma", "gamma.csv", "--eta", "eta.csv", "--weight", "vlog"]),
    ("wv-malformed", ["wv", "--gamma", "bad.csv", "--eta", "eta.csv"]),
)


# the event log of a ``couple`` run: its argv resolved by the CLI's own parser
EVENTS = """\
import sys
from cbic import cli, simulator
args = cli._build_parser().parse_args(sys.argv[1:])
run, sim, _ = cli._load(args)
try:
    res = simulator.simulate_coupled_ensemble(run.model, args.x0, args.y0, sim, _record_events=True)
    print(repr(res.lasso_events))
except simulator.SimulationError as exc:
    print(f"SimulationError: {exc}")
"""


def _configs():
    out = {}
    for name in SHIPPED:
        with open(os.path.join(ROOT, "configs", f"{name}.cfg")) as fh:
            out[name] = fh.read()
    out.update(nu_jump=NU_JUMP, mixed_vlog=MIXED_VLOG, mixed_v1=MIXED_V1, pure_jump=PURE_JUMP,
               small_alpha_vlog=SMALL_ALPHA_VLOG, stable_nu_vlog=STABLE_NU_VLOG,
               x_max_hits=X_MAX_HITS, lam_cap=LAM_CAP, c1_underflow=C1_UNDERFLOW)
    return out


def _commands(cfg_name):
    only = {"pure_jump": PURE_JUMP_COMMANDS, "small_alpha_vlog": SMALL_ALPHA_COMMANDS,
            "stable_nu_vlog": STABLE_NU_COMMANDS, "x_max_hits": X_MAX_COMMANDS,
            "lam_cap": LAM_CAP_COMMANDS, "c1_underflow": C1_UNDERFLOW_COMMANDS}
    if cfg_name in only:
        return only[cfg_name]
    return (
        COMMANDS
        + (WIDE_COMMANDS if cfg_name in WIDE_CONFIGS else ())
        + (GRID_COMMANDS if cfg_name in GRID_CONFIGS else ())
        + (SMALL_GAP_COMMANDS if cfg_name in SMALL_GAP_CONFIGS else ())
        + SUB_EPS_COMMANDS.get(cfg_name, ())
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus():
    """(name, {file name: text}, label, full CLI argv) of every corpus run."""
    runs = [
        (cfg_name, {"model.cfg": text}, label, [*cmd, "--model", "model.cfg", "--out", "out"])
        for cfg_name, text in _configs().items()
        for label, cmd in _commands(cfg_name)
    ]
    return runs + [("laws", LAWS, label, cmd) for label, cmd in WV_COMMANDS]


def _run(src, work, cfg_name, files, label, argv):
    run_dir = os.path.join(work, f"{cfg_name}-{label}")
    os.makedirs(run_dir)
    for name, text in files.items():
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cbic.cli", *argv], cwd=run_dir, env=env, capture_output=True
    )
    lines = [
        f"{cfg_name} {label} exit {_sha(str(proc.returncode).encode())}",
        f"{cfg_name} {label} stdout {_sha(proc.stdout)}",
        f"{cfg_name} {label} stderr {_sha(proc.stderr)}",
    ]
    if label.startswith("couple"):
        proc = subprocess.run(
            [sys.executable, "-c", EVENTS, *argv], cwd=run_dir, env=env, capture_output=True
        )
        lines.append(f"{cfg_name} {label} lasso_events {_sha(proc.stdout + proc.stderr)}")
    out_dir = os.path.join(run_dir, "out")
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines.append(f"{cfg_name} {label} {name} {_sha(fh.read())}")
    shutil.rmtree(run_dir)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to run")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory() as work:
        with ThreadPoolExecutor(2) as pool:  # two CLI runs at a time
            for lines in pool.map(lambda r: _run(src, work, *r), corpus()):
                print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
