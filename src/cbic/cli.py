"""Batch command-line front-end.

Subcommands: simulate | couple | rate | lyapunov | check-generator | wv |
stationary.  Exit codes: 0 success, 1 model/condition failure (a structured
report is printed), 2 usage or configuration error.  Outputs are CSV and
plain-text reports; reruns with identical config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_config
from .generator import (
    GeneratorDomainError,
    LyapunovDrift,
    LyapunovFailure,
    apply_generator,
    lyapunov_certify,
    write_margin_csv,
)
from .ergodicity import (
    CertificateError,
    _as_dist,
    compute_rate_certificate,
    estimate_stationary,
    estimate_wv_decay,
    render_certificate,
    wv_exact_discrete,
    wv_ot_small,
)
from .ergodicity import write_decay_csv
from .generator import WeightFunction
from .mechanisms import MechanismError, QuadratureError
from .simulator import (
    SimulationError,
    record_steps,
    simulate_coupled_ensemble,
    simulate_ensemble,
    write_ensemble_csv,
    write_path_dump,
)

USAGE_ERROR = 2
MODEL_ERROR = 1


_CSV_DOC = """\
output files and columns:
  simulate.csv           time, mean, variance, q05, q25, q50, q75, q95, exploded_frac
                         (moments/quantiles over non-exploded paths)
  simulate.bin           little-endian dump: magic 'CBEN', uint64 n_times,
                         uint64 n_paths, float64 times, row-major float64 values
  couple.csv             time, mean_x, mean_y, uncoupled_frac
  decay.csv              t, wv_upper, se, n_uncoupled
  certificate.txt        every pipeline constant with provenance and the
                         contraction-grid verdict
  certificate_margins.csv  x, y, lhs, rhs, margin  (margin = rhs - lhs)
  check_generator.csv    x, quadrature, closed_form, rel_err
  stationary.csv         atom, prob  (binned long-run law)

[sim] overrides:
  simulate, couple       --seed --dt --t-end --eps --paths
  stationary             --seed --dt --eps; it runs 16 chains from each of the
                         starts 0 and 8, and --burn-in and --samples set the horizon
  rate, lyapunov, check-generator: none (the config's [sim] is still checked)

exit codes: 0 success; 1 model/condition failure; 2 usage or config error.
"""


# [sim] overrides: flag -> (SimConfig field, type)
_SIM_FLAGS = {"seed": ("seed", int), "dt": ("dt", float), "t-end": ("t_end", float),
              "eps": ("eps", float), "paths": ("n_paths", int)}


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one stderr line, without the usage block, and exits 2."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(
        prog="cbic",
        description=(
            "Simulate branching processes with immigration and competition, "
            "and certify their exponential ergodicity rates."
        ),
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *overrides):
        sp.add_argument("--model", required=True, help="model configuration file")
        sp.add_argument("--out", default=".", help="output directory (CSV/report files)")
        for flag in overrides:
            field, kind = _SIM_FLAGS[flag]
            sp.add_argument(f"--{flag}", dest=field, type=kind,
                            help=f"override [sim] {flag.replace('-', '_')}")

    sp = sub.add_parser("simulate", help="ensemble of single paths; writes simulate.csv")
    common(sp, *_SIM_FLAGS)
    sp.add_argument("--x0", type=float, default=1.0, help="initial state")
    sp.add_argument("--dump", action="store_true", help="also write simulate.bin (raw paths)")

    sp = sub.add_parser(
        "couple", help="coupled-pair ensemble; writes couple.csv and decay.csv"
    )
    common(sp, *_SIM_FLAGS)
    sp.add_argument("--x0", type=float, default=2.0)
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--weight", choices=("v1", "vlog"), default=None)

    sp = sub.add_parser("rate", help="rate certificate; writes certificate.txt and margins CSV")
    common(sp)
    sp.add_argument("--weight", choices=("v1", "vlog"), default=None)
    sp.add_argument("--grid", type=int, default=101, help="validation grid size per axis")

    sp = sub.add_parser("lyapunov", help="Lyapunov drift certificate for a weight")
    common(sp)
    sp.add_argument("--weight", choices=("v1", "vlog"), default=None)

    sp = sub.add_parser("check-generator", help="generator cross-checks; writes check_generator.csv")
    common(sp)
    sp.add_argument("--weight", choices=("v1", "vlog"), default=None)
    sp.add_argument("--grid", type=int, default=9)

    sp = sub.add_parser("wv", help="weighted TV distance between two discrete laws (CSV files)")
    sp.add_argument("--gamma", required=True, help="CSV with columns atom,prob")
    sp.add_argument("--eta", required=True, help="CSV with columns atom,prob")
    sp.add_argument("--weight", choices=("v1", "vlog"), default="v1")

    sp = sub.add_parser(
        "stationary",
        help="long-run law from 16 chains started at each of 0 and 8, with a two-start diagnostic",
    )
    common(sp, "seed", "dt", "eps")
    sp.add_argument("--burn-in", type=float, default=5.0, help="time before the first sample")
    sp.add_argument("--samples", type=int, default=2000,
                    help="samples per start, about every 0.25 time units after burn-in")
    return p


def _load(args):
    run = load_config(args.model)
    kw = {field: getattr(args, field) for field, _ in _SIM_FLAGS.values()
          if getattr(args, field, None) is not None}
    if getattr(args, "grid", 1) < 1:
        raise ConfigError("--grid must be >= 1")
    try:
        sim = replace(run.sim, **kw)
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc
    weight = run.weight
    if getattr(args, "weight", None):
        weight = WeightFunction.v1() if args.weight == "v1" else WeightFunction.vlog()
    return run, sim, weight


def _read_dist_csv(path):
    """The law of a CSV file with header atom,prob; a bad file is a ConfigError."""
    try:
        with open(path) as fh:
            if "atom" not in fh.readline():
                raise ConfigError("expected header atom,prob")
            rows = [line.split(",") for line in map(str.strip, fh) if line]
        if any(len(r) < 2 for r in rows):
            raise ConfigError("every row needs atom,prob")
        return _as_dist(([float(r[0]) for r in rows], [float(r[1]) for r in rows]))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_simulate(args):
    run, sim, _ = _load(args)
    res = simulate_ensemble(run.model, args.x0, sim, record_times=None if sim.n_paths == 1 else
                            np.linspace(0.0, sim.t_end, 101))
    os.makedirs(args.out, exist_ok=True)
    write_ensemble_csv(res, os.path.join(args.out, "simulate.csv"))
    if args.dump:
        write_path_dump(res, os.path.join(args.out, "simulate.bin"))
    frac = float(res.exploded.mean())
    print(f"simulate: {sim.n_paths} paths to t = {sim.t_end:g} (exploded fraction {frac:.3g})")
    return 0


def _cmd_couple(args):
    run, sim, weight = _load(args)
    # one simulation serves both files: recording more times draws no
    # random numbers, so each file's rows equal a run on its own grid
    grids = (np.linspace(0.0, sim.t_end, 101), np.linspace(0.0, sim.t_end, 25))
    times = np.concatenate(grids)
    res = simulate_coupled_ensemble(run.model, args.x0, args.y0, sim, record_times=times)
    steps = record_steps(sim, times)
    couple_rows, decay_rows = (np.searchsorted(steps, record_steps(sim, g)) for g in grids)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "couple.csv")
    with open(path, "w") as fh:
        fh.write("time,mean_x,mean_y,uncoupled_frac\n")
        for i in couple_rows:
            t = res.times[i]
            ok = np.isfinite(res.x_values[i])
            unc = float((res.coupling_times > t).mean())
            mx = float(res.x_values[i, ok].mean()) if ok.any() else math.nan
            my = float(res.y_values[i, ok].mean()) if ok.any() else math.nan
            fh.write(f"{t:.17g},{mx:.17g},{my:.17g},{unc:.17g}\n")
    if args.x0 > args.y0:
        decay = replace(
            res,
            times=res.times[decay_rows],
            x_values=res.x_values[decay_rows],
            y_values=res.y_values[decay_rows],
        )
        write_decay_csv(estimate_wv_decay(decay, weight), os.path.join(args.out, "decay.csv"))
    coupled = np.isfinite(res.coupling_times)
    print(
        f"couple: {sim.n_paths} pairs, coupled fraction {float(coupled.mean()):.3g} "
        f"by t = {sim.t_end:g}"
    )
    return 0


def _cmd_rate(args):
    run, _, weight = _load(args)
    try:
        cert = compute_rate_certificate(run.model, weight, grid=args.grid)
    except CertificateError as exc:
        print(f"rate certificate failed: {exc}", file=sys.stderr)
        return MODEL_ERROR
    os.makedirs(args.out, exist_ok=True)
    report = render_certificate(cert)
    with open(os.path.join(args.out, "certificate.txt"), "w") as fh:
        fh.write(report + "\n")
    write_margin_csv(os.path.join(args.out, "certificate_margins.csv"), cert.validation.rows)
    print(report)
    return 0


def _cmd_lyapunov(args):
    run, _, weight = _load(args)
    res = lyapunov_certify(run.model, weight)
    if isinstance(res, LyapunovFailure):
        print(str(res), file=sys.stderr)
        return MODEL_ERROR
    print(
        f"Lyapunov certificate: C0 = {res.c0:.10g}, C1 = {res.c1:.10g} "
        f"(asymptotic margin {res.margin:.6g}, weight {weight.kind})"
    )
    return 0


def _cmd_check_generator(args):
    run, _, weight = _load(args)
    model = run.model
    drift = LyapunovDrift(model, weight)
    xs = np.geomspace(1e-2, 1e2, args.grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "check_generator.csv")
    worst = 0.0
    with open(path, "w") as fh:
        fh.write("x,quadrature,closed_form,rel_err\n")
        for x in xs:
            quad_v = apply_generator(model, weight, float(x))
            closed = drift(float(x))
            rel = abs(quad_v - closed) / max(1.0, abs(closed))
            worst = max(worst, rel)
            fh.write(f"{x:.17g},{quad_v:.17g},{closed:.17g},{rel:.17g}\n")
    print(f"check-generator: worst relative deviation {worst:.3e} over {args.grid} points")
    if worst < 1e-6:
        return 0
    print(f"error: generator check failed: relative deviation {worst:.3e} exceeds 1e-06",
          file=sys.stderr)
    return MODEL_ERROR


def _cmd_wv(args):
    weight = WeightFunction.v1() if args.weight == "v1" else WeightFunction.vlog()
    gamma = _read_dist_csv(args.gamma)
    eta = _read_dist_csv(args.eta)
    exact = wv_exact_discrete(gamma, eta, weight)
    print(f"wv_exact = {exact:.12g}")
    if gamma[0].size <= 12 and eta[0].size <= 12:
        ot = wv_ot_small(gamma, eta, weight)
        print(f"wv_transport = {ot:.12g} (|diff| = {abs(ot - exact):.3e})")
    return 0


def _cmd_stationary(args):
    run, sim, weight = _load(args)
    if not (args.samples >= 1 and 0 <= args.burn_in < math.inf):
        raise ConfigError("need --samples >= 1 and a finite --burn-in >= 0")
    est = estimate_stationary(run.model, sim, args.burn_in, args.samples, weight=weight)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "stationary.csv"), "w") as fh:
        fh.write("atom,prob\n")
        for a, p in zip(est.atoms, est.probs):
            fh.write(f"{a:.17g},{p:.17g}\n")
    print(
        f"stationary: mean = {est.sample_mean:.6g} +- {est.sample_mean_se:.2g}, "
        f"two-start distance {est.two_start_distance:.4g} "
        f"(threshold {est.threshold:.4g})"
    )
    if not est.converged:
        print("stationary: two-start diagnostic ABOVE threshold (not converged)", file=sys.stderr)
        return MODEL_ERROR
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "rate": _cmd_rate,
    "lyapunov": _cmd_lyapunov,
    "check-generator": _cmd_check_generator,
    "wv": _cmd_wv,
    "stationary": _cmd_stationary,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, MechanismError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SimulationError, CertificateError, QuadratureError, GeneratorDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MODEL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
