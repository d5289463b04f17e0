"""Output oracles and fingerprints for benchmark operations.

An oracle returns a list of violations; an empty list means the operation's
outputs are correct.  The checks are independent of the program: closed-form
moments for ergodic_v1, recorded certificate constants, and structural
properties (ordered quantiles, monotone uncoupled fraction) elsewhere.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from typing import Dict, List

# ergodic_v1: Psi'(0) = b = 0.5, beta = 0.3 (no nu), Psi''(0) = 2c + int z^2 mu = 1/3
ERG_B = 0.5
ERG_BETA = 0.3
ERG_SIGMA2 = 1.0 / 3.0
N_SE = 5.0        # moment checks allow this many standard errors,
JUMP_SLACK = 5.0  # plus this many largest jumps (1 for ergodic_v1) per ensemble: at
                  # small t a follower near 0 jumps rarely, and one rare jump moves
                  # the mean far more than the normal approximation allows
CONST_RTOL = 1e-8  # certificate.txt prints 10 significant digits
QUANTILES = ("q05", "q25", "q50", "q75", "q95")

_CONST_RE = re.compile(r"^\s*(\w+) = (\S+)\s+\[")
_FLOAT_RE = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"


def _rows(path: str) -> List[Dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def erg_mean(x0: float, t: float) -> float:
    m = ERG_BETA / ERG_B
    return m + (x0 - m) * math.exp(-ERG_B * t)


def erg_var(x0: float, t: float) -> float:
    e = math.exp(-ERG_B * t)
    return (x0 * ERG_SIGMA2 / ERG_B * (e - e * e)
            + ERG_BETA * ERG_SIGMA2 / (2.0 * ERG_B**2) * (1.0 - e) ** 2)


def certificate_constants(path: str) -> Dict[str, float]:
    out = {}
    with open(path) as fh:
        for line in fh:
            m = _CONST_RE.match(line)
            if m:
                out[m.group(1)] = float(m.group(2))
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _check_rate(op, rc, stdout, stderr, expected) -> List[str]:
    if op.expect_rc == 1:
        tag = f"[{op.expect_step}]"
        return [] if tag in stderr else [f"expected a {tag} certificate failure, got {stderr.strip()!r}"]
    bad = []
    cert = os.path.join(op.out, "certificate.txt")
    with open(cert) as fh:
        text = fh.read()
    if "validation: PASS" not in text:
        bad.append("certificate validation did not PASS")
    got = certificate_constants(cert)
    want = expected.get("rate", {}).get(op.model)
    if want is None:
        bad.append(f"no recorded constants for {op.model}")
    else:
        for name, val in want.items():
            if name not in got or not _close(got[name], val, CONST_RTOL):
                bad.append(f"{name} = {got.get(name)!r}, recorded {val!r}")
    margins = _rows(os.path.join(op.out, "certificate_margins.csv"))
    m = re.search(r"on (\d+) grid points", text)
    if not m or int(m.group(1)) != len(margins):
        bad.append("certificate_margins.csv row count differs from the validation grid")
    return bad


def _check_lyapunov(op, rc, stdout, stderr, expected) -> List[str]:
    if op.expect_rc == 1:
        return [] if "Lyapunov certification failed" in stderr else ["missing failure report"]
    m = re.search(rf"C0 = ({_FLOAT_RE}), C1 = ({_FLOAT_RE})", stdout)
    want = expected.get("lyapunov", {}).get(op.model)
    if not m or want is None:
        return ["no C0/C1 in the output or no recorded values"]
    got = {"C0": float(m.group(1)), "C1": float(m.group(2))}
    return [f"{k} = {got[k]!r}, recorded {want[k]!r}" for k in ("C0", "C1")
            if not _close(got[k], want[k], CONST_RTOL)]


def _check_generator(op, rc, stdout, stderr, expected) -> List[str]:
    rows = _rows(os.path.join(op.out, "check_generator.csv"))
    worst = max(r["rel_err"] for r in rows)
    return [] if rows and worst < 1e-6 else [f"quadrature vs closed form deviates by {worst:.3e}"]


def _read_law(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["atom"]), float(r["prob"])) for r in rows]


def _check_wv(op, rc, stdout, stderr, expected) -> List[str]:
    v = (lambda a: a) if op.params["weight"] == "v1" else math.log1p
    mass: Dict[float, float] = {}
    for sign, path in ((1.0, op.params["gamma"]), (-1.0, op.params["eta"])):
        for a, p in _read_law(path):
            mass[a] = mass.get(a, 0.0) + sign * p
    want = sum((1.0 + v(a)) * abs(d) for a, d in mass.items())
    m = re.search(rf"wv_exact = ({_FLOAT_RE})", stdout)
    t = re.search(rf"wv_transport = ({_FLOAT_RE})", stdout)
    if not m or not t:
        return ["missing wv_exact / wv_transport in the output"]
    bad = []
    if not _close(float(m.group(1)), want, 1e-9):
        bad.append(f"wv_exact = {m.group(1)}, independent sum {want!r}")
    if abs(float(t.group(1)) - want) > 1e-7 * max(1.0, want):
        bad.append(f"wv_transport = {t.group(1)} differs from the exact distance {want!r}")
    return bad


def _check_simulate(op, rc, stdout, stderr, expected) -> List[str]:
    rows = _rows(os.path.join(op.out, "simulate.csv"))
    bad = []
    n = op.params["paths"]
    for r in rows:
        if not 0.0 <= r["exploded_frac"] <= 1.0:
            bad.append(f"t={r['time']}: exploded_frac {r['exploded_frac']}")
        if r["exploded_frac"] < 1.0:
            qs = [r[q] for q in QUANTILES]
            if qs[0] < 0.0 or any(b < a for a, b in zip(qs, qs[1:])):
                bad.append(f"t={r['time']}: quantiles negative or unordered")
            if op.model == "ergodic_v1":
                alive = n * (1.0 - r["exploded_frac"])
                se = math.sqrt(max(r["variance"], 0.0) / alive)
                mu = erg_mean(op.params["x0"], r["time"])
                if abs(r["mean"] - mu) > N_SE * se + JUMP_SLACK / alive:
                    bad.append(f"t={r['time']}: mean {r['mean']} vs closed form {mu} (se {se:.3g})")
        if len(bad) > 5:
            break
    if not rows or abs(rows[-1]["time"] - op.params["t_end"]) > 1e-9:
        bad.append("simulate.csv does not end at t_end")
    return bad


def _check_couple(op, rc, stdout, stderr, expected) -> List[str]:
    rows = _rows(os.path.join(op.out, "couple.csv"))
    bad = []
    n = op.params["paths"]
    prev = 1.0
    for r in rows:
        u = r["uncoupled_frac"]
        if not 0.0 <= u <= prev:
            bad.append(f"t={r['time']}: uncoupled_frac {u} not in [0, {prev}]")
        prev = u
        if r["mean_x"] < 0.0 or r["mean_y"] < 0.0:
            bad.append(f"t={r['time']}: negative mean")
        if op.model == "ergodic_v1":
            for col, start in (("mean_x", op.params["x0"]), ("mean_y", op.params["y0"])):
                se = math.sqrt(erg_var(start, r["time"]) / n)
                mu = erg_mean(start, r["time"])
                if abs(r[col] - mu) > N_SE * se + JUMP_SLACK / n:
                    bad.append(f"t={r['time']}: {col} {r[col]} vs closed form {mu} (se {se:.3g})")
        if len(bad) > 5:
            break
    decay = _rows(os.path.join(op.out, "decay.csv"))
    prev = math.inf
    for r in decay:
        if r["wv_upper"] < 0.0 or r["se"] < 0.0 or not 0 <= r["n_uncoupled"] <= min(prev, n):
            bad.append(f"decay.csv t={r['t']}: negative bound or growing uncoupled count")
            break
        prev = r["n_uncoupled"]
    return bad


def _check_stationary(op, rc, stdout, stderr, expected) -> List[str]:
    rows = _rows(os.path.join(op.out, "stationary.csv"))
    bad = []
    probs = [r["prob"] for r in rows]
    atoms = [r["atom"] for r in rows]
    if min(probs) < 0.0 or abs(sum(probs) - 1.0) > 1e-9:
        bad.append("stationary.csv probabilities negative or not summing to 1")
    if any(b <= a for a, b in zip(atoms, atoms[1:])) or atoms[0] < 0.0:
        bad.append("stationary.csv atoms negative or not increasing")
    m = re.search(rf"mean = ({_FLOAT_RE}) \+- ({_FLOAT_RE})", stdout)
    if not m:
        bad.append("no sample mean in the output")
    elif op.model == "ergodic_v1":
        mean, se = float(m.group(1)), float(m.group(2))
        target = ERG_BETA / ERG_B
        if abs(mean - target) > N_SE * se:
            bad.append(f"sample mean {mean} outside {N_SE:g} SE ({se}) of {target}")
    return bad


_CHECKS = {
    "rate": _check_rate,
    "lyapunov": _check_lyapunov,
    "check-generator": _check_generator,
    "wv": _check_wv,
    "simulate": _check_simulate,
    "couple": _check_couple,
    "stationary": _check_stationary,
}


def check(op, rc, stdout, stderr, expected) -> List[str]:
    """Violations of the operation's output contract (exit code first)."""
    if rc != op.expect_rc:
        return [f"exit code {rc}, expected {op.expect_rc}: {stderr.strip()[-300:]!r}"]
    try:
        return _CHECKS[op.kind](op, rc, stdout, stderr, expected)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def fingerprint(op, stdout: str, stderr: str) -> Dict[str, str]:
    """sha256 of every output file and of the console output; certificate constants."""
    fp = {"stdout": hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest()}
    if op.out and os.path.isdir(op.out):
        for name in sorted(os.listdir(op.out)):
            with open(os.path.join(op.out, name), "rb") as fh:
                fp[name] = hashlib.sha256(fh.read()).hexdigest()
        cert = os.path.join(op.out, "certificate.txt")
        if os.path.exists(cert):
            for k, v in certificate_constants(cert).items():
                fp[f"const.{k}"] = repr(v)
    return fp


def bytes_written(op) -> int:
    if not (op.out and os.path.isdir(op.out)):
        return 0
    return sum(os.path.getsize(os.path.join(op.out, f)) for f in os.listdir(op.out))
