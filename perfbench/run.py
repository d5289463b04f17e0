"""cbic benchmark: end-to-end and per-layer metrics over fixed CLI workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``cbic.cli.run(argv)`` call; one process
runs the workload's operations one at a time (a closed loop with one client).
A pass is one run over the workload's fixed operation list; passes repeat
until ``--seconds`` is spent (at least one).  Every pass checks each
operation's outputs (oracles.py) and fingerprints them; all passes must give
identical fingerprints.

The host's speed drifts (see hostspeed.py), so a fixed reference kernel is
timed during the untraced passes, and the gated times are rescaled by it to
seconds at the reference host speed.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes) plus the tracing overhead.
Human-readable lines come first; the last stdout line is the JSON result.
Full results (environment, per-operation times and fingerprints, per-layer
breakdown per operation) go to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

# one process, one thread of numeric work: no BLAS or OpenMP thread pools
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy, after the thread settings)
import oracles
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}
# end-to-end metrics printed in the summary only: raw times that drift with the
# host, metrics that are workload-specific or 0 at a correct commit (every JSON
# metric must be nonzero everywhere), and the host speed they were measured at
SUMMARY_ONLY = {"wall_s": "s", "raw_setup_s": "s", "path_steps_per_s": "1/s",
                "pair_steps_per_s": "1/s", "op_fail_frac": "ratio", "host_speed": "ratio"}
PER_LAYER_UNITS = {
    "calls": "count", "s": "s", "elems": "count", "evals": "count",
    "distinct": "count", "ratio": "ratio", "points": "count", "per_s": "1/s",
    "steps": "count", "blocks": "count", "frac": "ratio", "width": "elems/call",
    "redundancy": "ratio", "written": "bytes",
}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"run exceeded {HARD_LIMIT_S} s")


def unit_of(name: str) -> str:
    if name in END_TO_END or name in SUMMARY_ONLY:
        return {**END_TO_END, **SUMMARY_ONLY}[name]
    tail = name.rsplit(".", 1)[-1]
    for key in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if tail == key or tail.endswith("_" + key):
            return PER_LAYER_UNITS[key]
    return "count"


def environment(root: str) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": "unknown",
        "commit": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        ref_path = os.path.join(root, ".git", ref[5:])
        if ref.startswith("ref: ") and os.path.isfile(ref_path):
            with open(ref_path) as fh:
                ref = fh.read().strip()
        env["commit"] = ref
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    env["src_sha256"] = h.hexdigest()
    return env


def setup_samples(wl, root: str, n: int) -> list:
    """Wall time of n fresh interpreters each importing, loading and warming up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), root, *wl.configs,
           "--", *wl.warmup.argv]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60, check=False)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return out


def run_op(op, call, expected, clock=time.perf_counter) -> dict:
    if op.out:
        shutil.rmtree(op.out, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = call(op.argv)
            escaped = None
        except BudgetExceeded:
            raise
        except Exception:  # an escaped exception is a failed operation, not a crash of the run
            rc, escaped = None, traceback.format_exc(limit=3)
        seconds = clock() - t0
    stdout, stderr = out.getvalue(), err.getvalue()
    if escaped is not None:
        violations = [f"escaped exception: {escaped.strip().splitlines()[-1]}"]
    else:
        violations = oracles.check(op, rc, stdout, stderr, expected)
    return {
        "label": op.label,
        "seconds": seconds,
        "rc": rc,
        "violations": violations,
        "fingerprint": oracles.fingerprint(op, stdout, stderr),
        "bytes_written": oracles.bytes_written(op),
    }


def run_pass(wl, call, expected, sampler=None, tr=None) -> dict:
    """One pass over the operations.  With a sampler, host speed is sampled
    during the pass, operation times leave out the sampling, and the pass
    time is also given rescaled to the reference host speed."""
    records = []
    t0 = time.perf_counter()
    clock = sampler.net_clock if sampler else time.perf_counter
    if sampler:
        sampler.reset()
        sampler.start()
    try:
        for op in wl.ops:
            before = tr.snapshot() if tr else None
            rec = run_op(op, call, expected, clock)
            if tr:
                rec["layers"] = tracer.diff(tr.snapshot(), before)
            records.append(rec)
    finally:
        if sampler:
            sampler.stop()
    p = {"ops": records, "wall_s": sum(r["seconds"] for r in records),
         "elapsed_s": time.perf_counter() - t0}
    if sampler:
        p["norm_wall_s"] = p["wall_s"] * sampler.speed_factor()
    return p


def traced_pass(wl, expected, tr) -> dict:
    tr.reset()
    tr.install()
    try:
        p = run_pass(wl, tr.cli_run, expected, tr=tr)
    finally:
        tr.uninstall()
    p["snapshot"] = tr.snapshot()
    return p


def run_passes(wl, run_cli, expected, budget_s: float, sampler, tr=None):
    """Untraced passes until the budget is spent; with a tracer, alternate
    untraced and traced passes so that drift in machine speed hits both."""
    passes, traced = [], []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl, run_cli, expected, sampler))
        if tr:
            traced.append(traced_pass(wl, expected, tr))
        est = statistics.median(p["elapsed_s"] for p in passes + traced) * (2 if tr else 1)
        if time.perf_counter() - t0 + est > budget_s:
            return passes, traced


def throughput(wl, p, kinds, attr) -> float:
    work = sum(getattr(op, attr) for op in wl.ops if op.kind in kinds)
    secs = sum(r["seconds"] for op, r in zip(wl.ops, p["ops"]) if op.kind in kinds)
    return work / secs if secs else 0.0


def plan_seconds(wl) -> float:
    """Simulator set-up per (kind, model): a t_end = 0 call through the public API."""
    from cbic.config import load_config
    from cbic.simulator import simulate_coupled_ensemble, simulate_ensemble

    total, seen = 0.0, set()
    for op in wl.ops:
        if op.kind not in ("simulate", "couple", "stationary") or (op.kind, op.model) in seen:
            continue
        seen.add((op.kind, op.model))
        run = load_config(op.argv[op.argv.index("--model") + 1])
        n = op.params.get("paths", workloads.STATIONARY_CHAINS)
        cfg = dataclasses.replace(run.sim, t_end=0.0, n_paths=n)
        if op.kind == "couple":
            fn, args = simulate_coupled_ensemble, (run.model, op.params["x0"], op.params["y0"], cfg)
        else:  # stationary starts its upper chains at 8
            fn, args = simulate_ensemble, (run.model, op.params.get("x0", 8.0), cfg)
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - t0)
        total += statistics.median(samples)
    return total


def zero_notes(metrics, kinds) -> list:
    """Say why a per-layer metric reads 0 on this workload."""
    zero = [k for k, v in metrics.items() if v == 0.0 and k != "generator.lv_hit_ratio"]
    names = []
    for layer in dict.fromkeys(k.split(".")[0] for k in zero):
        of_layer = [k for k in metrics if k.startswith(layer + ".")]
        names += [f"{layer}.*"] if all(k in zero for k in of_layer) else [
            k for k in of_layer if k in zero]
    notes = [f"{', '.join(names)} = 0: not reached by this workload's operations "
             f"({', '.join(kinds)})"] if names else []
    if "generator.lv_hit_ratio" in zero and metrics["generator.lv_calls"]:
        notes.append("generator.lv_hit_ratio = 0: every LV evaluation was at a new point")
    elif "generator.lv_hit_ratio" in zero:
        notes.append("generator.lv_hit_ratio = 0: no LV evaluations")
    return notes


def mark_mismatches(passes) -> None:
    """An operation whose outputs differ from its first pass's has failed."""
    for k, p in enumerate(passes[1:], start=1):
        for r0, r in zip(passes[0]["ops"], p["ops"]):
            if r["fingerprint"] != r0["fingerprint"]:
                kind = "traced" if "layers" in r else "untraced"
                r["violations"].append(f"{kind} pass {k}: outputs differ from the first pass")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cbic", "cli.py")):
        print("perfbench: ./src/cbic not found; run from the repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)

    work_root = os.path.join(HERE, ".work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](root, work, args.seed)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    setup = setup_samples(wl, root, SETUP_SAMPLES) if args.trace == 0 else []

    sys.path.insert(0, src)
    import cbic
    import cbic.cli
    from cbic.config import load_config

    if not os.path.abspath(cbic.__file__).startswith(src + os.sep):
        print(f"perfbench: imported cbic from {cbic.__file__}, not ./src", file=sys.stderr)
        return 2
    for path in wl.configs:
        load_config(path)
    warm = run_op(wl.warmup, cbic.cli.run, expected)
    if warm["rc"] != 0:
        print(f"perfbench: warm-up failed: {warm['violations']}", file=sys.stderr)
        return 1

    # untraced passes are sampled; traced ones are not, so that layer times stay
    # clean and their fingerprints show that sampling leaves the outputs alone
    sampler = hostspeed.Sampler()
    tr = tracer.Tracer() if args.trace == 1 else None
    passes, traced = run_passes(wl, cbic.cli.run, expected, args.seconds, sampler, tr)
    notes = [f"not traced (absent from this version): {n}" for n in tr.absent] if tr else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = passes + traced
    mark_mismatches(every)
    records = [r for p in every for r in p["ops"]]
    failures = [f"{r['label']}: {v}" for r in records for v in r["violations"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["violations"])

    walls = [p["wall_s"] for p in passes]
    pair_req = sum(op.pair_steps for op in wl.ops)
    host_speed = statistics.median(p["wall_s"] / p["norm_wall_s"] for p in passes)
    summary = {"wall_s": statistics.median(walls), "host_speed": host_speed}
    if args.trace == 0:
        # set-up runs in other processes, too short and import-bound to sample
        # well: it is rescaled by the host speed sampled over the whole run
        summary["raw_setup_s"] = statistics.median(setup)
        metrics = {
            "setup_s": statistics.median(setup) / host_speed,
            "norm_wall_s": statistics.median(p["norm_wall_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        per_pass = [tracer.layer_metrics(p["snapshot"], pair_req) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["simulator.plan_s"] = plan_seconds(wl)
        metrics["cli.bytes_written"] = float(sum(r["bytes_written"] for r in traced[0]["ops"]))
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(walls))
        notes += zero_notes(metrics, sorted({op.kind for op in wl.ops}))
    signal.alarm(0)

    path_tp = [throughput(wl, p, ("simulate", "stationary"), "path_steps") for p in passes]
    pair_tp = [throughput(wl, p, ("couple",), "pair_steps") for p in passes]
    summary.update({
        "path_steps_per_s": statistics.median(path_tp),
        "pair_steps_per_s": statistics.median(pair_tp),
        "op_fail_frac": failed / attempted,
    })
    env = environment(root)
    print(f"cbic benchmark: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}+{len(traced)} traced, ops/pass={len(wl.ops)}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, commit {env['commit'][:12]}")
    for name, val in list(metrics.items()) + list(summary.items()):
        unit = unit_of(name)
        if name in ("path_steps_per_s", "pair_steps_per_s") and val == 0.0:
            print(f"  {name} = n/a ({unit}; no such operations in this workload)")
        else:
            print(f"  {name} = {val:.6g} {unit}")
    couple_calls = [(op.label, r["layers"]["calls"].get("rn_ratio", 0))
                    for op, r in zip(wl.ops, traced[0]["ops"]) if op.kind == "couple"] if traced else []
    if couple_calls:
        print("  measures.rn_ratio_calls per couple op: "
              + ", ".join(f"{l}={int(c)}" for l, c in couple_calls))
    for line in notes + failures[:20]:
        print(f"  {line}")

    results = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, "summary": summary,
        "setup_samples_s": setup, "notes": notes, "failures": failures,
        "ops": [{"label": op.label, "argv": op.argv, "path_steps": op.path_steps,
                 "pair_steps": op.pair_steps} for op in wl.ops],
        "passes": [{"traced": "snapshot" in p, "wall_s": p["wall_s"],
                    "norm_wall_s": p.get("norm_wall_s"),
                    "ops": p["ops"]} for p in every],
    }
    os.makedirs(os.path.join(work_root, "results"), exist_ok=True)
    res_path = os.path.join(work_root, "results",
                            f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(res_path, "w") as fh:
        json.dump(results, fh, indent=1, default=float)
    print(f"  results: {os.path.relpath(res_path, root)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    try:
        sys.exit(main())
    except BudgetExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
